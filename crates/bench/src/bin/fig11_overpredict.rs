//! Runs the `fig11_overpredict` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("fig11_overpredict");
}
