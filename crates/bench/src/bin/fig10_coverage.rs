//! Runs the `fig10_coverage` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig10_coverage");
}
