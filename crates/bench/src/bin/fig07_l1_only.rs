//! Runs the `fig07_l1_only` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig07_l1_only");
}
