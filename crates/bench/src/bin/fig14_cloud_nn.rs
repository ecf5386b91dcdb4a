//! Runs the `fig14_cloud_nn` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig14_cloud_nn");
}
