//! Runs the `fe04_mana_storage` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fe04_mana_storage");
}
