//! Runs the `fig01_l1_utility` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig01_l1_utility");
}
