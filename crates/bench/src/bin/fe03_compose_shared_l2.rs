//! Runs the `fe03_compose_shared_l2` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fe03_compose_shared_l2");
}
