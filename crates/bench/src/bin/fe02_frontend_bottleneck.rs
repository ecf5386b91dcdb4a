//! Runs the `fe02_frontend_bottleneck` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fe02_frontend_bottleneck");
}
