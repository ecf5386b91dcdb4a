//! Runs the `sens_ip_assoc` figure (see `ipcp_bench::figures`).

fn main() {
    ipcp_bench::figures::main("sens_ip_assoc");
}
