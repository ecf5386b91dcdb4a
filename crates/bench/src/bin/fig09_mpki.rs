//! Runs the `fig09_mpki` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig09_mpki");
}
