//! Runs the `sens_tables` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_tables");
}
