//! Runs the `sens_cache_sizes` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_cache_sizes");
}
