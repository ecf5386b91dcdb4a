//! Runs the `ext_temporal` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("ext_temporal");
}
