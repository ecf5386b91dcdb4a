//! `ipcp_check` — the differential correctness audit driver.
//!
//! Three sweeps, all dependency-free and deterministic:
//!
//! 1. **Storage audit**: the IPCP hardware budgets must match Table 1
//!    exactly (5913 bits at L1, 1237 at L2, 895 bytes for the pair).
//! 2. **Invariant sweep**: every suite trace and every adversarial fuzz
//!    trace is run with [`CheckedPrefetcher`]-wrapped IPCP at both levels;
//!    each emitted prefetch is validated (page bound, class bits, 9-bit
//!    metadata, intra-trigger RR dedup, per-class degree ceiling).
//! 3. **Oracle byte-compare**: each combo × replacement policy × trace is
//!    run twice — once on the optimized fast paths, once with
//!    `SimConfig::without_fastpaths` (no repeat-hit memo, no way
//!    predictor, boxed replacement dispatch, no TLB memos, exhaustive
//!    polling instead of the wakeup scheduler) — and the two serialized
//!    reports (including interval samples) must be byte-identical. The
//!    sweep covers single-core runs and 4-core `mc_mix`-shaped mixes
//!    built from the fuzz corpus, so the scheduler's shared-LLC and
//!    multi-core wakeup interleavings are under the same oracle. The
//!    default combo list includes the front-end placements (`fdip`,
//!    `mana-ipcp`), which route ifetch through the full hook path and so
//!    put the repeat-ifetch memo's noop gate under the oracle too; the
//!    mc sweep gives its even cores a MANA L1-I prefetcher for the same
//!    reason.
//!
//! ```text
//! ipcp_check [--seeds N] [--combos a,b] [--skip-storage] [--skip-invariants]
//!            [--skip-oracle]
//! ```
//!
//! `IPCP_SCALE=<warmup>,<instructions>` sets the run depth (default
//! 100k + 400k; CI uses `2500,10000`). `IPCP_NO_FASTPATH=1` forces the
//! naive path for the invariant sweep too, auditing the oracle
//! configuration itself. Exits non-zero on any violation or mismatch.

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use ipcp_bench::combos;
use ipcp_bench::runner::RunScale;
use ipcp_sim::prefetch::{NoPrefetcher, Prefetcher};
use ipcp_sim::telemetry::ToJson;
use ipcp_sim::{
    run_single, run_single_with_l1i, CheckedPrefetcher, CoreSetup, ReplacementKind, SimConfig,
    System,
};
use ipcp_tools::{outln, Args, Cli};
use ipcp_trace::TraceSource;
use ipcp_workloads::fuzz;
use ipcp_workloads::gen::SynthTrace;

/// Replacement policies the oracle compares (Section VI-C's set minus
/// Random, which the sensitivity figures also skip).
const ORACLE_POLICIES: [ReplacementKind; 4] = [
    ReplacementKind::Lru,
    ReplacementKind::Srrip,
    ReplacementKind::Drrip,
    ReplacementKind::Ship,
];

fn policy_name(kind: ReplacementKind) -> &'static str {
    match kind {
        ReplacementKind::Lru => "lru",
        ReplacementKind::Srrip => "srrip",
        ReplacementKind::Drrip => "drrip",
        ReplacementKind::Ship => "ship",
        ReplacementKind::Random => "random",
    }
}

fn with_replacement(mut cfg: SimConfig, kind: ReplacementKind) -> SimConfig {
    cfg.l1i.replacement = kind;
    cfg.l1d.replacement = kind;
    cfg.l2.replacement = kind;
    cfg.llc.replacement = kind;
    cfg
}

fn base_config(scale: RunScale) -> SimConfig {
    let mut cfg = SimConfig::default().with_instructions(scale.warmup, scale.instructions);
    // Sample an interval series so the oracle compares telemetry too.
    cfg.sample_interval = Some((scale.instructions / 8).max(1));
    cfg
}

/// The audit workload: the memory-intensive suite plus the adversarial
/// fuzz corpus at `seeds` seeds per pattern.
fn audit_traces(seeds: u64) -> Vec<SynthTrace> {
    let mut traces = ipcp_workloads::memory_intensive_suite();
    traces.extend(fuzz::corpus(0xc0ffee, seeds));
    traces
}

/// Table 1 storage budgets. Returns the number of failures.
fn storage_audit() -> u32 {
    let mut failures = 0;
    let checks: [(&str, u64, u64); 2] = [
        ("ipcp-l1 bits", IpcpL1::paper_default().storage_bits(), 5913),
        ("ipcp-l2 bits", IpcpL2::paper_default().storage_bits(), 1237),
    ];
    for (what, got, want) in checks {
        if got != want {
            eprintln!("FAIL storage: {what} = {got}, Table 1 says {want}");
            failures += 1;
        }
    }
    let pair = combos::build("ipcp").storage_bytes();
    if pair != 895 {
        eprintln!("FAIL storage: ipcp pair = {pair} bytes, Table 1 says 895");
        failures += 1;
    }
    outln!("storage audit: L1 5913 bits, L2 1237 bits, pair 895 bytes ok");
    failures
}

/// Runs every audit trace under checked IPCP prefetchers; prints and
/// counts invariant violations.
fn invariant_sweep(cfg: &SimConfig, seeds: u64) -> u32 {
    let ipcp_cfg = IpcpConfig::default();
    let l1_limit = [
        1,
        ipcp_cfg.cs_degree,
        ipcp_cfg.cplx_degree,
        ipcp_cfg.gs_degree,
    ];
    // No CPLX at the L2 — a single CPLX request there is a violation.
    let l2_limit = [1, ipcp_cfg.l2_cs_degree, 0, ipcp_cfg.l2_gs_degree];
    let mut failures = 0;
    let traces = audit_traces(seeds);
    let total = traces.len();
    for trace in traces {
        let l1 = CheckedPrefetcher::new(IpcpL1::new(ipcp_cfg.clone())).with_degree_limit(l1_limit);
        let l2 = CheckedPrefetcher::new(IpcpL2::new(ipcp_cfg.clone())).with_degree_limit(l2_limit);
        let (h1, h2) = (l1.handle(), l2.handle());
        run_single(
            cfg.clone(),
            trace.handle(),
            Box::new(l1),
            Box::new(l2),
            Box::new(NoPrefetcher),
        );
        for (level, h) in [("L1", &h1), ("L2", &h2)] {
            if h.violations() > 0 {
                failures += 1;
                eprintln!(
                    "FAIL invariants: {} {level}: {} violation(s) over {} prefetches",
                    trace.name(),
                    h.violations(),
                    h.checked()
                );
                for v in h.recorded() {
                    eprintln!("  {v}");
                }
            }
        }
    }
    outln!("invariant sweep: {total} traces checked, {failures} failure(s)");
    failures
}

/// Byte-compares optimized vs naive runs per combo × policy × trace.
fn oracle_sweep(cfg: &SimConfig, combo_names: &[String], seeds: u64) -> u32 {
    let mut failures = 0;
    let mut runs = 0;
    let traces = audit_traces(seeds);
    for combo in combo_names {
        for kind in ORACLE_POLICIES {
            for trace in &traces {
                let fast_cfg = with_replacement(cfg.clone(), kind);
                let naive_cfg = fast_cfg.clone().without_fastpaths();
                let run = |cfg: SimConfig| {
                    let c = combos::build(combo);
                    run_single_with_l1i(cfg, trace.handle(), c.l1i, c.l1, c.l2, c.llc)
                        .to_json()
                        .to_pretty_string()
                };
                let fast = run(fast_cfg);
                let naive = run(naive_cfg);
                runs += 1;
                if fast != naive {
                    failures += 1;
                    eprintln!(
                        "FAIL oracle: {combo} × {} × {}: fast and naive reports differ",
                        policy_name(kind),
                        trace.name()
                    );
                    for (i, (a, b)) in fast.lines().zip(naive.lines()).enumerate() {
                        if a != b {
                            eprintln!("  first diff at line {}: {a:?} vs {b:?}", i + 1);
                            break;
                        }
                    }
                }
            }
        }
    }
    outln!("oracle sweep: {runs} fast/naive pairs compared, {failures} mismatch(es)");
    failures
}

/// Byte-compares optimized vs naive 4-core mix runs. Mixes are rotations
/// of the adversarial fuzz corpus, shaped like the `mc_mix` benchmark:
/// four cores with private IPCP L1/L2 prefetchers contending on a shared
/// LLC. This is the configuration where the wakeup scheduler has the most
/// interleaving freedom, so it gets its own oracle.
fn mc_oracle_sweep(cfg: &SimConfig, seeds: u64) -> u32 {
    const MIX_CORES: usize = 4;
    let traces = fuzz::corpus(0xc0ffee, seeds);
    let mut failures = 0;
    let mut runs = 0;
    // Rotate the corpus so every trace appears in several distinct mixes.
    for start in 0..traces.len().min(MIX_CORES) {
        let mix: Vec<&SynthTrace> = (0..MIX_CORES)
            .map(|i| &traces[(start + i * (MIX_CORES + 1)) % traces.len()])
            .collect();
        let mc = |base: &SimConfig| {
            let mut c = SimConfig::multicore(MIX_CORES as u32)
                .with_instructions(base.warmup_instructions, base.sim_instructions);
            c.sample_interval = base.sample_interval;
            c.no_fastpath = base.no_fastpath;
            c
        };
        let fast_cfg = mc(cfg);
        let naive_cfg = fast_cfg.clone().without_fastpaths();
        let run = |cfg: SimConfig| {
            let setups = mix
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    // Even cores carry a MANA L1-I prefetcher so the
                    // multi-core oracle also covers mixed front ends.
                    let c = combos::build("ipcp");
                    let mut s = CoreSetup::new(t.handle(), c.l1, c.l2);
                    if i % 2 == 0 {
                        s = s.with_l1i_prefetcher(combos::build("mana").l1i);
                    }
                    s
                })
                .collect();
            let mut sys = System::new(cfg, setups, combos::build("ipcp").llc);
            sys.run().to_json().to_pretty_string()
        };
        let fast = run(fast_cfg);
        let naive = run(naive_cfg);
        runs += 1;
        if fast != naive {
            failures += 1;
            let names: Vec<&str> = mix.iter().map(|t| t.name()).collect();
            eprintln!(
                "FAIL mc oracle: mix [{}]: fast and naive reports differ",
                names.join(", ")
            );
            for (i, (a, b)) in fast.lines().zip(naive.lines()).enumerate() {
                if a != b {
                    eprintln!("  first diff at line {}: {a:?} vs {b:?}", i + 1);
                    break;
                }
            }
        }
    }
    outln!("mc oracle sweep: {runs} fast/naive 4-core pairs compared, {failures} mismatch(es)");
    failures
}

const CLI: Cli = Cli {
    usage: "usage: ipcp_check [--seeds N] [--combos a,b] [--skip-storage] [--skip-invariants] [--skip-oracle]",
    options: &["seeds", "combos"],
    flags: &["skip-storage", "skip-invariants", "skip-oracle"],
};

fn main() {
    let args = Args::parse(&CLI);
    if !args.positional.is_empty() {
        CLI.fail("ipcp_check takes no positional arguments");
    }
    let scale = ipcp_bench::env::or_die(ipcp_bench::env::scale());
    ipcp_bench::env::or_die(ipcp_bench::env::sched_stats());
    let seeds: u64 = args.get_or("seeds", 2).unwrap_or_else(|e| CLI.fail(&e));
    let combo_names: Vec<String> = args
        .get_or("combos", "ipcp,ipcp-l1,fdip,mana-ipcp".to_string())
        .unwrap_or_else(|e| CLI.fail(&e))
        .split(',')
        .map(str::to_string)
        .collect();

    let mut cfg = base_config(scale);
    if ipcp_bench::env::or_die(ipcp_bench::env::no_fastpath()) {
        cfg = cfg.without_fastpaths();
    }

    outln!(
        "ipcp_check: warmup {} + {} instructions, {} seed(s)/pattern, combos {}",
        scale.warmup,
        scale.instructions,
        seeds,
        combo_names.join(",")
    );
    let mut failures = 0;
    if !args.has_flag("skip-storage") {
        failures += storage_audit();
    }
    if !args.has_flag("skip-invariants") {
        failures += invariant_sweep(&cfg, seeds);
    }
    if !args.has_flag("skip-oracle") {
        // Two depths per sweep: the configured scale plus a quarter-depth
        // run. Warmup crossover, interval-sample boundaries, and the
        // fused hit-streak runs all land on different cycles at the
        // shallower depth, so a fast-path bug that happens to cancel out
        // at one depth still has to survive the other.
        let quarter = RunScale {
            warmup: (scale.warmup / 4).max(1),
            instructions: (scale.instructions / 4).max(8),
        };
        for s in [scale, quarter] {
            let mut scfg = base_config(s);
            scfg.no_fastpath = cfg.no_fastpath;
            outln!("oracle scale: warmup {} + {}", s.warmup, s.instructions);
            failures += oracle_sweep(&scfg, &combo_names, seeds);
            failures += mc_oracle_sweep(&scfg, seeds);
        }
    }
    if failures > 0 {
        eprintln!("ipcp_check: {failures} failure(s)");
        std::process::exit(1);
    }
    outln!("ipcp_check: all audits clean");
}
