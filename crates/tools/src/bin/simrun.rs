//! `simrun` — run one simulation and print the report.
//!
//! ```text
//! simrun <suite-trace-name | file.trace> [--combo ipcp] [--warmup N]
//!        [--instructions N] [--baseline]   # also run no-prefetching and
//!                                          # report the speedup
//!        [--json]                          # print the full report as JSON
//!        [--interval N]                    # sample an interval time-series
//!                                          # every N instructions
//! ```
//!
//! `--json` replaces the human-readable report with the structured
//! [`SimReport::to_json`] document; combined with `--interval` the document
//! carries a `series` array of per-interval samples (IPC, MPKIs, per-class
//! accuracy, queue occupancies, DRAM bus utilization).

use std::sync::Arc;

use ipcp_bench::combos;
use ipcp_sim::telemetry::ToJson;
use ipcp_sim::{run_single, SimConfig, SimReport};
use ipcp_tools::{outln, write_stdout, Args, Cli};
use ipcp_trace::{TraceReader, TraceSource, VecTrace};

fn load(name: &str) -> Arc<dyn TraceSource + Send + Sync> {
    if std::path::Path::new(name).exists() {
        let data = std::fs::read(name).expect("read trace file");
        let instrs = TraceReader::new(&data[..])
            .collect::<Result<Vec<_>, _>>()
            .expect("decode trace file");
        Arc::new(VecTrace::new(name, instrs))
    } else {
        match ipcp_workloads::by_name(name) {
            Some(t) => Arc::new(t),
            None => {
                eprintln!("{name:?} is neither a file nor a suite trace; try tracegen --list");
                std::process::exit(2);
            }
        }
    }
}

fn run(
    trace: Arc<dyn TraceSource + Send + Sync>,
    combo: &str,
    warmup: u64,
    instrs: u64,
    interval: Option<u64>,
) -> SimReport {
    let mut cfg = SimConfig::default().with_instructions(warmup, instrs);
    cfg.sample_interval = interval;
    // Oracle escape hatch: IPCP_NO_FASTPATH=1 runs on the naive slow paths
    // (see ipcp_check) so any report can be reproduced without the
    // scheduler fast paths in play. Parsed as a proper boolean through the
    // typed env module ("0" used to enable it via a presence test).
    cfg.no_fastpath = ipcp_bench::env::or_die(ipcp_bench::env::no_fastpath());
    let c = combos::build(combo);
    run_single(cfg, trace, c.l1, c.l2, c.llc)
}

const CLI: Cli = Cli {
    usage: "usage: simrun <trace-name|file.trace> [--combo ipcp] [--warmup N] [--instructions N] [--baseline] [--json] [--interval N]",
    options: &["combo", "warmup", "instructions", "interval"],
    flags: &["baseline", "json"],
};

fn main() {
    let args = Args::parse(&CLI);
    let [name] = &args.positional[..] else {
        CLI.fail("simrun needs exactly one trace");
    };
    let combo: String = args
        .get_or("combo", "ipcp".to_string())
        .unwrap_or_else(|e| CLI.fail(&e));
    let warmup: u64 = args
        .get_or("warmup", 100_000)
        .unwrap_or_else(|e| CLI.fail(&e));
    let instrs: u64 = args
        .get_or("instructions", 400_000)
        .unwrap_or_else(|e| CLI.fail(&e));
    let interval: Option<u64> = args.options.get("interval").map(|v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => CLI.fail(&format!(
            "--interval {v:?} is not a positive instruction count"
        )),
    });

    // The `System` reads `IPCP_SCHED_STATS` itself and takes any unknown
    // word as "on"; reject a malformed value before simulating.
    ipcp_bench::env::or_die(ipcp_bench::env::sched_stats());
    let trace = load(name);
    let r = run(trace.clone(), &combo, warmup, instrs, interval);
    if args.has_flag("json") {
        let mut doc = r
            .to_json()
            .set("combo", combo.as_str())
            .set("trace", name.as_str());
        if args.has_flag("baseline") {
            let base = run(trace, "none", warmup, instrs, None);
            doc = doc
                .set("baseline_ipc", base.ipc())
                .set("speedup", r.ipc() / base.ipc());
        }
        write_stdout(&doc.to_pretty_string());
        return;
    }
    outln!("== {combo} on {name}");
    write_stdout(&r.to_string());
    let l1 = &r.cores[0].l1d;
    outln!(
        "L1D prefetch: issued {} filled {} useful {} useless-evicted {} (accuracy {:.2})",
        l1.pf_issued,
        l1.pf_fills,
        l1.useful_prefetch_hits,
        l1.pf_useless_evicted,
        l1.accuracy().unwrap_or(0.0),
    );
    if args.has_flag("baseline") {
        let base = run(trace, "none", warmup, instrs, None);
        outln!(
            "speedup vs no prefetching: {:.3} ({:.3} -> {:.3} IPC)",
            r.ipc() / base.ipc(),
            base.ipc(),
            r.ipc()
        );
    }
}
