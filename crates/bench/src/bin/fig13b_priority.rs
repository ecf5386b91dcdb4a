//! Runs the `fig13b_priority` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig13b_priority");
}
