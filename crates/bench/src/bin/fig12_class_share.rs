//! Runs the `fig12_class_share` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig12_class_share");
}
