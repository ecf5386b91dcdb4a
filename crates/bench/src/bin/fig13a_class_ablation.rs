//! Runs the `fig13a_class_ablation` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig13a_class_ablation");
}
