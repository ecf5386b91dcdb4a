//! Runs the `fe01_l1i_mpki` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fe01_l1i_mpki");
}
