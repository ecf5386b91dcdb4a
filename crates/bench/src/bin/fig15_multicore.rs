//! Runs the `fig15_multicore` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig15_multicore");
}
