//! Runs the `table4_cov_acc` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("table4_cov_acc");
}
