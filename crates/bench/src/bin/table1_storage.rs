//! Runs the `table1_storage` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("table1_storage");
}
