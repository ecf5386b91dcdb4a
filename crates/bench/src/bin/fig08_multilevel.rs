//! Runs the `fig08_multilevel` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig08_multilevel");
}
