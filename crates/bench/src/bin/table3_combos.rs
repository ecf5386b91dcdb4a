//! Runs the `table3_combos` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("table3_combos");
}
