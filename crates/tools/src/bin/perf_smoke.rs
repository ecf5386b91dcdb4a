//! `perf_smoke` — fixed-workload simulator throughput and determinism gate.
//!
//! ```text
//! perf_smoke [--only BENCH] [--iters N]
//! ```
//!
//! Runs a small fixed set of benches serially, `--iters` times each
//! (default 3), and prints each bench's best-of-N wall clock and nominal
//! simulated instructions per second. Every iteration's serialized reports
//! are fingerprinted (FNV-1a, one serialization per iteration); the tool
//! exits 1 unless all iterations of a bench produced identical bytes. That
//! is the CI gate that the wakeup scheduler finishes and stays
//! deterministic. The timing is printed, never gated: performance claims
//! are measured by `perfbench` (end to end and per layer), and
//! `BENCH_perf.json` is the frozen throughput record of earlier milestones.
//!
//! The benches (`--only` runs one of them):
//!
//! * `mixed` — three suite traces × {`none`, `ipcp`}, single-core.
//! * `none` — the same traces under no prefetching only: the idle-heavy
//!   path where the event-driven scheduler's cycle skipping dominates.
//! * `ipcp` — the same traces under the paper's full `ipcp` combo only.
//! * `mc_mix` — one four-core multi-programmed mix under `ipcp`.
//!
//! The runs bypass the simcache (they call `run_single`/`System`
//! directly): this times the simulator, not the cache. Scale follows
//! `IPCP_SCALE` exactly like the figure binaries.

use std::time::Instant;

use ipcp_bench::combos;
use ipcp_bench::store::fnv1a_64;
use ipcp_sim::ToJson;
use ipcp_sim::{run_single, CoreSetup, SimConfig, System};
use ipcp_tools::{outln, Args, Cli};
use ipcp_trace::TraceSource;
use ipcp_workloads::memory_intensive_suite;

/// How many traces from the front of the memory-intensive suite to run.
const TRACES: usize = 3;
/// Prefetcher combos to run each trace under (baseline + the paper's).
const COMBOS: [&str; 2] = ["none", "ipcp"];
/// Cores in the multi-programmed mix bench.
const MIX_CORES: usize = 4;
/// Bench names, in run order.
const BENCHES: [&str; 4] = ["mixed", "none", "ipcp", "mc_mix"];

const CLI: Cli = Cli {
    usage: "usage: perf_smoke [--only mixed|none|ipcp|mc_mix] [--iters N]",
    options: &["only", "iters"],
    flags: &[],
};

fn main() {
    let args = Args::parse(&CLI);
    if !args.positional.is_empty() {
        CLI.fail("perf_smoke takes no positional arguments");
    }
    let iters: u32 = args.get_or("iters", 3).unwrap_or_else(|e| CLI.fail(&e));
    if iters == 0 {
        CLI.fail("--iters must be at least 1");
    }
    let only = args.options.get("only");
    if let Some(name) = only.filter(|n| !BENCHES.contains(&n.as_str())) {
        CLI.fail(&format!("unknown bench {name:?}"));
    }
    let scale = ipcp_bench::env::or_die(ipcp_bench::env::scale());
    ipcp_bench::env::or_die(ipcp_bench::env::sched_stats());

    let traces: Vec<_> = memory_intensive_suite().into_iter().take(TRACES).collect();
    let mix: Vec<_> = memory_intensive_suite()
        .into_iter()
        .take(MIX_CORES)
        .collect();
    let per_run = scale.warmup + scale.instructions;

    // A runner returns an FNV-1a fingerprint over its serialized reports.
    // Nominal work is every instruction the simulator retires toward its
    // target, warmup included (warmup simulates at full fidelity); for the
    // mix it is cores × per-core target (replay-to-finish overshoot is not
    // counted).
    let single = |combo_list: &[&str]| -> u64 {
        let mut fp = 0u64;
        for trace in &traces {
            for &combo in combo_list {
                let cfg = SimConfig::default().with_instructions(scale.warmup, scale.instructions);
                let c = combos::build(combo);
                let report = run_single(cfg, trace.handle(), c.l1, c.l2, c.llc);
                assert!(report.cycles > 0, "empty run for {combo}/{}", trace.name());
                fp ^= fnv1a_64(&report.to_json().to_pretty_string()).rotate_left(fp.count_ones());
            }
        }
        fp
    };
    let run_mix = || -> u64 {
        let cfg = SimConfig::multicore(MIX_CORES as u32)
            .with_instructions(scale.warmup, scale.instructions);
        let setups = mix
            .iter()
            .map(|t| {
                let c = combos::build("ipcp");
                CoreSetup::new(t.handle(), c.l1, c.l2)
            })
            .collect();
        let report = System::new(cfg, setups, combos::build("ipcp").llc).run();
        assert!(report.cycles > 0, "empty multicore mix run");
        fnv1a_64(&report.to_json().to_pretty_string())
    };

    for bench in BENCHES {
        if only.is_some_and(|o| o != bench) {
            continue;
        }
        // One instruction stream per (trace, combo) run, or per mix core.
        let streams = match bench {
            "mixed" => TRACES * COMBOS.len(),
            "mc_mix" => MIX_CORES,
            _ => TRACES,
        };
        let nominal = streams as u64 * per_run;
        let mut best = f64::INFINITY;
        let mut fingerprint = 0;
        for iter in 1..=iters {
            let started = Instant::now();
            let fp = match bench {
                "mixed" => single(&COMBOS),
                "none" => single(&COMBOS[..1]),
                "ipcp" => single(&COMBOS[1..]),
                _ => run_mix(),
            };
            let wall = started.elapsed().as_secs_f64();
            best = best.min(wall);
            eprintln!(
                "{bench} iter {iter}/{iters}: {wall:.3}s ({:.0} instr/s)",
                nominal as f64 / wall
            );
            if iter == 1 {
                fingerprint = fp;
            } else if fp != fingerprint {
                eprintln!(
                    "perf_smoke: {bench} fingerprint mismatch on iter {iter}: \
                     {fp:#018x} != {fingerprint:#018x} — nondeterministic reports"
                );
                std::process::exit(1);
            }
        }
        outln!("{bench}: fingerprint {fingerprint:#018x} identical across {iters} iteration(s)");
        outln!(
            "{bench}: {best:.3}s wall, {:.0} instr/s ({nominal} nominal instructions)",
            nominal as f64 / best
        );
    }
}
