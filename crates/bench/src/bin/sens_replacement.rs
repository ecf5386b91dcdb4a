//! Runs the `sens_replacement` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_replacement");
}
