//! Runs the `sens_dram_bw` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_dram_bw");
}
