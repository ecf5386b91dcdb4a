//! Runs the `ext_l2_complement` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("ext_l2_complement");
}
