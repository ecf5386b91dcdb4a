//! Runs the `table2_config` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("table2_config");
}
