//! `tracegen` — materialize a synthetic workload as a binary trace file.
//!
//! ```text
//! tracegen <suite-trace-name> <out.trace> [--instructions N]
//! tracegen --list
//! ```

use std::fs::File;
use std::io::BufWriter;

use ipcp_tools::{outln, Args, Cli};
use ipcp_trace::{write_trace, TraceSource};

const CLI: Cli = Cli {
    usage: "usage: tracegen <trace-name> <out.trace> [--instructions N] | tracegen --list",
    options: &["instructions"],
    flags: &["list"],
};

fn main() {
    let args = Args::parse(&CLI);
    if args.has_flag("list") {
        outln!("memory-intensive suite:");
        for t in ipcp_workloads::memory_intensive_suite() {
            outln!("  {}", t.name());
        }
        outln!("full-suite extras, CloudSuite, NN:");
        for t in ipcp_workloads::full_suite()
            .into_iter()
            .skip(20)
            .chain(ipcp_workloads::cloud_suite())
            .chain(ipcp_workloads::nn_suite())
        {
            outln!("  {}", t.name());
        }
        return;
    }
    let [name, out] = &args.positional[..] else {
        CLI.fail("tracegen needs a trace name and an output file");
    };
    let n: u64 = args
        .get_or("instructions", 1_000_000)
        .unwrap_or_else(|e| CLI.fail(&e));
    let trace = ipcp_workloads::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown trace {name:?}; try tracegen --list");
        std::process::exit(2);
    });
    let f = File::create(out).expect("create output file");
    let written =
        write_trace(BufWriter::new(f), trace.stream().take(n as usize)).expect("write trace");
    outln!("wrote {written} instructions of {name} to {out}");
}
