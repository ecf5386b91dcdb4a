//! Runs the `sens_pq_mshr` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_pq_mshr");
}
