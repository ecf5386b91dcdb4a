//! The in-process simulation workloads: `ipcp_1c` and `frontend_fdip`,
//! one single-core simulation per trace.
//!
//! A run is a series of equal rounds until `--seconds` is used. Each round
//! times set-ups (fresh traces, memos primed), one cold pass (fresh traces,
//! generated while simulated) and warm passes (the same traces, memos
//! primed), trace by trace. On a shared host the same
//! simulation runs at one of two speeds, often nearly 2x apart, as
//! neighbours load the memory hierarchy; so a pass time is the sum over its
//! parts of each part's fastest sample in the run (see `stats::quiet_sum`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipcp_bench::combos;
use ipcp_bench::store::fnv1a_64;
use ipcp_sim::{run_single_with_l1i, SimConfig, SimReport, ToJson};
use ipcp_trace::{InstrBatch, TraceSource};
use ipcp_workloads::SynthTrace;

use crate::shims::{self, PfTotals, SpanCost, StreamTotals, TracedTrace};
use crate::stats::{median, pass_scaled, percentile, quiet_sum, Outcome};
use crate::suite;

/// Rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 5;
/// Set-ups per round: they are cheap, and more samples steady their sum.
const SETUPS_PER_ROUND: usize = 3;
/// Set-ups the traced run times for `workloads.gen_ns_per_instr`.
const TRACED_SETUPS: usize = 5;
/// Simulations `op_p90_s` is taken over, at least, so that it has at
/// least ten samples beyond it.
const MIN_OPS: usize = 110;
/// Scale of the fast-vs-naive byte comparison (warm-up, measured).
const ORACLE_SCALE: (u64, u64) = (5_000, 20_000);
/// Calls per span-cost calibration.
const CALIBRATION_CALLS: u64 = 2_000_000;

/// One simulation workload.
pub struct SimSpec {
    /// Prefetcher combo (see `ipcp_bench::combos`).
    pub combo: &'static str,
    /// Warm-up instructions per simulation.
    pub warmup: u64,
    /// Measured instructions per simulation.
    pub instructions: u64,
    /// Warm passes per round. A suite of few traces runs more, so that
    /// `op_p90_s` gets its samples.
    pub warm_passes: usize,
    /// The workload's traces under a seed.
    pub traces: fn(u64) -> Vec<SynthTrace>,
    /// The library suite that seed 0 of `traces` reproduces.
    pub library: fn() -> Vec<SynthTrace>,
}

impl SimSpec {
    fn traces(&self, seed: u64) -> Vec<SynthTrace> {
        (self.traces)(seed)
    }

    fn config(&self, warmup: u64, instructions: u64) -> SimConfig {
        SimConfig::default().with_instructions(warmup, instructions)
    }

    /// Nominal instructions of one pass: every instruction the simulations
    /// retire toward their targets, warm-up included.
    fn nominal(&self, traces: usize) -> u64 {
        traces as u64 * (self.warmup + self.instructions)
    }
}

pub fn spec(workload: &str) -> Option<SimSpec> {
    Some(match workload {
        "ipcp_1c" => SimSpec {
            combo: "ipcp",
            warmup: 50_000,
            instructions: 200_000,
            warm_passes: 1,
            traces: suite::memory_intensive,
            library: ipcp_workloads::memory_intensive_suite,
        },
        "frontend_fdip" => SimSpec {
            combo: "fdip-ipcp",
            warmup: 50_000,
            instructions: 200_000,
            warm_passes: 3,
            traces: suite::frontend,
            library: ipcp_workloads::frontend_suite,
        },
        _ => return None,
    })
}

/// Shared totals one traced pass writes into.
#[derive(Default)]
struct Probe {
    l1i: Arc<Mutex<PfTotals>>,
    l1d: Arc<Mutex<PfTotals>>,
    l2: Arc<Mutex<PfTotals>>,
    llc: Arc<Mutex<PfTotals>>,
    streams: Arc<Mutex<StreamTotals>>,
}

struct Pass {
    wall: f64,
    op_walls: Vec<f64>,
    reports: Vec<SimReport>,
}

impl Pass {
    /// One fingerprint per report; the `sched` object is left out because
    /// only traced passes export it.
    fn fingerprints(&self) -> Vec<u64> {
        self.reports
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.sched = None;
                fnv1a_64(&r.to_json().to_pretty_string())
            })
            .collect()
    }
}

fn handle(t: &SynthTrace, probe: Option<&Probe>) -> Arc<dyn TraceSource + Send + Sync> {
    match probe {
        Some(p) => TracedTrace::shared(t.handle(), &p.streams),
        None => t.handle(),
    }
}

fn run_pass(spec: &SimSpec, traces: &[SynthTrace], cfg: &SimConfig, probe: Option<&Probe>) -> Pass {
    let wrap = |p, out: fn(&Probe) -> &Arc<Mutex<PfTotals>>| match probe {
        Some(pr) => shims::wrap(p, out(pr)),
        None => p,
    };
    let started = Instant::now();
    let mut op_walls = Vec::new();
    let mut reports = Vec::new();
    for t in traces {
        let t0 = Instant::now();
        let c = combos::build(spec.combo);
        reports.push(run_single_with_l1i(
            cfg.clone(),
            handle(t, probe),
            wrap(c.l1i, |p| &p.l1i),
            wrap(c.l1, |p| &p.l1d),
            wrap(c.l2, |p| &p.l2),
            wrap(c.llc, |p| &p.llc),
        ));
        op_walls.push(t0.elapsed().as_secs_f64());
    }
    Pass {
        wall: started.elapsed().as_secs_f64(),
        op_walls,
        reports,
    }
}

/// Pulls `depth` instructions through one batch stream of every trace,
/// filling its memo. Returns the instructions pulled.
pub fn prime(traces: &[SynthTrace], depth: u64) -> u64 {
    let mut batch = InstrBatch::new();
    let mut total = 0;
    for t in traces {
        let mut stream = t.batch_stream();
        let mut pulled = 0u64;
        while pulled < depth {
            let n = stream.next_batch(&mut batch);
            if n == 0 {
                break;
            }
            pulled += n as u64;
        }
        total += pulled;
    }
    total
}

/// Times one fresh set-up: build the traces (part 0), then prime each
/// trace's memo to the depth a pass reads (part k + 1 for trace k).
/// Returns the instructions generated.
fn setup_round(spec: &SimSpec, seed: u64, parts: &mut [Vec<f64>]) -> u64 {
    let t0 = Instant::now();
    let traces = spec.traces(seed);
    parts[0].push(t0.elapsed().as_secs_f64());
    let mut total = 0;
    for (k, t) in traces.iter().enumerate() {
        let t0 = Instant::now();
        total += prime(std::slice::from_ref(t), spec.warmup + spec.instructions);
        parts[k + 1].push(t0.elapsed().as_secs_f64());
    }
    total
}

/// Adds one sample to every part.
fn push_parts(parts: &mut [Vec<f64>], samples: &[f64]) {
    for (part, x) in parts.iter_mut().zip(samples) {
        part.push(*x);
    }
}

/// Compares every report of `pass` with the reference fingerprints,
/// counting one operation per simulation.
fn check_pass(out: &mut Outcome, pass: &Pass, reference: &[u64], what: &str) {
    let fps = pass.fingerprints();
    for (k, fp) in fps.iter().enumerate() {
        let ok = reference.get(k) == Some(fp);
        out.op(ok, &format!("{what}: report {k} fingerprint differs"));
    }
}

/// Checks outside the timed passes, on a short run of every simulation of
/// the workload: fast paths match the naive reference byte for byte, and
/// seed 0 rebuilds the library suite: the same trace names in the same
/// order, and the same report fingerprints.
fn common_checks(out: &mut Outcome, spec: &SimSpec, seed: u64) {
    let cfg = spec.config(ORACLE_SCALE.0, ORACLE_SCALE.1);
    let short =
        |traces: &[SynthTrace], cfg: &SimConfig| run_pass(spec, traces, cfg, None).fingerprints();
    let traces = spec.traces(seed);
    let fast = short(&traces, &cfg);
    let naive = short(&traces, &cfg.clone().without_fastpaths());
    for (k, (a, b)) in fast.iter().zip(&naive).enumerate() {
        out.op(a == b, &format!("fast-vs-naive: report {k} differs"));
    }
    let library = (spec.library)();
    let seed0 = spec.traces(0);
    let names = |ts: &[SynthTrace]| ts.iter().map(|t| t.name().to_string()).collect::<Vec<_>>();
    out.op(
        names(&seed0) == names(&library),
        "seed 0: trace names differ from the library suite",
    );
    let (a, b) = (short(&seed0, &cfg), short(&library, &cfg));
    out.op(
        a.len() == b.len(),
        &format!(
            "seed 0: {} reports against {} for the library suite",
            a.len(),
            b.len()
        ),
    );
    for (k, (a, b)) in a.iter().zip(&b).enumerate() {
        out.op(
            a == b,
            &format!("seed 0: report {k} differs from the library suite"),
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = spec.config(spec.warmup, spec.instructions);
    let n = spec.traces(seed).len();
    // Set-up and cold parts: building the traces, then one per trace.
    let mut setup = vec![Vec::new(); n + 1];
    let mut cold = vec![Vec::new(); n + 1];
    let mut warm = vec![Vec::new(); n];
    let mut reference: Option<Vec<u64>> = None;
    let mut rounds = 0;
    let started = Instant::now();
    while rounds < MIN_ROUNDS
        || warm.iter().map(Vec::len).sum::<usize>() < MIN_OPS
        || started.elapsed().as_secs_f64() < seconds
    {
        for _ in 0..SETUPS_PER_ROUND {
            setup_round(spec, seed, &mut setup);
        }
        let t0 = Instant::now();
        let traces = spec.traces(seed);
        cold[0].push(t0.elapsed().as_secs_f64());
        let pass = run_pass(spec, &traces, &cfg, None);
        push_parts(&mut cold[1..], &pass.op_walls);
        let reference = reference.get_or_insert_with(|| pass.fingerprints());
        check_pass(&mut out, &pass, reference, "cold pass");
        for _ in 0..spec.warm_passes {
            let pass = run_pass(spec, &traces, &cfg, None);
            check_pass(&mut out, &pass, reference, "warm pass");
            push_parts(&mut warm, &pass.op_walls);
        }
        rounds += 1;
    }
    common_checks(&mut out, spec, seed);
    let warm_s = quiet_sum(&warm);
    let ops = pass_scaled(&warm, warm_s).concat();
    eprintln!(
        "perfbench: {rounds} rounds; {} simulations in op_p90_s (p90 has {} beyond it)",
        ops.len(),
        ops.len() / 10
    );
    out.metric("sim_mips", "M/s", spec.nominal(n) as f64 / warm_s / 1e6);
    out.metric("warm_s", "s", warm_s);
    out.metric("cold_s", "s", quiet_sum(&cold));
    out.metric("setup_s", "s", quiet_sum(&setup));
    out.metric("op_p90_s", "s", percentile(&ops, 90.0));
    out
}

/// Per-layer figures of one traced pass.
struct Layers {
    wall: f64,
    vals: Vec<(String, &'static str, f64)>,
}

fn self_s(t: &PfTotals, c: &SpanCost) -> f64 {
    let ns = t.hooks.ns as f64
        - t.sink.ns as f64
        - t.hooks.count as f64 * c.inside_ns
        - t.sink.count as f64 * (c.total_ns - c.inside_ns);
    ns / 1e9
}

/// `n / d`, or 0 when there is nothing to divide by (a layer the workload
/// does not run).
fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Attributes one traced pass's wall time to layers, net of the
/// calibrated span cost.
fn layers(spec: &SimSpec, pass: &Pass, probe: &Probe, c: &SpanCost, warm_s: f64) -> Layers {
    let get = |m: &Arc<Mutex<PfTotals>>| *m.lock().expect("probe totals");
    let (l1i, l1d, l2, llc) = (
        get(&probe.l1i),
        get(&probe.l1d),
        get(&probe.l2),
        get(&probe.llc),
    );
    let st = *probe.streams.lock().expect("stream totals");
    let nominal_k = spec.nominal(pass.reports.len()) as f64 / 1e3;
    let measured_k = pass
        .reports
        .iter()
        .flat_map(|r| &r.cores)
        .map(|c| c.core.instructions as f64)
        .sum::<f64>()
        / 1e3;
    let outside = c.total_ns - c.inside_ns;
    let slots = [&l1i, &l1d, &l2, &llc];
    let top_count = slots.iter().map(|t| t.hooks.count).sum::<u64>() + st.batches.count;
    let top_ns = slots.iter().map(|t| t.hooks.ns).sum::<u64>() + st.batches.ns;
    let child_count: u64 = slots.iter().map(|t| t.sink.count).sum();
    let sink_s = (slots.iter().map(|t| t.sink.ns).sum::<u64>() as f64
        - child_count as f64 * c.inside_ns)
        / 1e9;
    let replay_s = (st.batches.ns as f64 - st.batches.count as f64 * c.inside_ns) / 1e9;
    let sim_self = (pass.wall * 1e9 - top_ns as f64 - top_count as f64 * outside) / 1e9;
    let corrected_total = pass.wall - (top_count + child_count) as f64 * c.total_ns / 1e9;

    let sum = |f: &dyn Fn(&ipcp_sim::CoreReport) -> u64| -> f64 {
        pass.reports
            .iter()
            .flat_map(|r| &r.cores)
            .map(|c| f(c) as f64)
            .sum()
    };
    let sched = |f: fn(&ipcp_sim::SchedStats) -> u64| -> f64 {
        pass.reports
            .iter()
            .filter_map(|r| r.sched.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    let llc_sum = |f: fn(&ipcp_sim::CacheStats) -> u64| -> f64 {
        pass.reports.iter().map(|r| f(&r.llc) as f64).sum()
    };
    let dropped = |s: &ipcp_sim::CacheStats| {
        s.pf_dropped_pq_full + s.pf_dropped_present + s.pf_dropped_mshr_full
    };
    let executed = sched(|s| s.executed_cycles);
    let skipped = sched(|s| s.skipped_cycles);

    let mut v: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |n: &str, u: &'static str, x: f64| v.push((n.to_string(), u, x));
    for (name, t) in [("core.l1", &l1d), ("core.l2", &l2), ("baselines.l1i", &l1i)] {
        let s = self_s(t, c);
        put(
            &format!("{name}.calls_pki"),
            "1/ki",
            ratio(t.hooks.count as f64, nominal_k),
        );
        put(&format!("{name}.self_s"), "s", s);
        if name != "core.l2" {
            let per_call = ratio(s * 1e9, t.hooks.count as f64);
            put(&format!("{name}.ns_per_call"), "ns", per_call);
        }
    }
    for (k, class) in ["nl", "cs", "cplx", "gs"].iter().enumerate() {
        put(
            &format!("core.pf_issued_pki.{class}"),
            "1/ki",
            ratio(l1d.requests_by_class[k] as f64, nominal_k),
        );
    }
    put(
        "core.rr_drops_pki",
        "1/ki",
        ratio(sum(&|c| c.l1d.rr_drops_by_class.iter().sum()), measured_k),
    );
    put("sim.self_s", "s", sim_self);
    put("sim.pq_enqueue_s", "s", sink_s);
    put("sim.ns_per_cycle", "ns", ratio(sim_self * 1e9, executed));
    put(
        "sim.cycles_pki",
        "1/ki",
        ratio(executed + skipped, nominal_k),
    );
    put(
        "sim.executed_cycles_pki",
        "1/ki",
        ratio(executed, nominal_k),
    );
    put("sim.skipped_cycles_pki", "1/ki", ratio(skipped, nominal_k));
    put(
        "sim.wakeups_pki",
        "1/ki",
        ratio(sched(|s| s.wakeups_fired), nominal_k),
    );
    put(
        "sim.l1i.misses_pki",
        "1/ki",
        ratio(sum(&|c| c.l1i.demand_misses), measured_k),
    );
    put(
        "sim.l1d.misses_pki",
        "1/ki",
        ratio(sum(&|c| c.l1d.demand_misses), measured_k),
    );
    put(
        "sim.l2.misses_pki",
        "1/ki",
        ratio(sum(&|c| c.l2.demand_misses), measured_k),
    );
    put(
        "sim.llc.misses_pki",
        "1/ki",
        ratio(llc_sum(|s| s.demand_misses), measured_k),
    );
    put(
        "sim.l1d.accesses_pki",
        "1/ki",
        ratio(sum(&|c| c.l1d.demand_accesses), measured_k),
    );
    put(
        "sim.dtlb.misses_pki",
        "1/ki",
        ratio(sum(&|c| c.tlb.dtlb_misses), measured_k),
    );
    put(
        "sim.dram.reads_pki",
        "1/ki",
        ratio(
            pass.reports.iter().map(|r| r.dram.reads as f64).sum(),
            measured_k,
        ),
    );
    put(
        "sim.pf.dropped_pki",
        "1/ki",
        ratio(
            sum(&|c| dropped(&c.l1i) + dropped(&c.l1d) + dropped(&c.l2)) + llc_sum(dropped),
            measured_k,
        ),
    );
    let cycles = sum(&|c| c.core.cycles);
    put("sim.ipc", "instr/cycle", ratio(measured_k * 1e3, cycles));
    put("workloads.replay_s", "s", replay_s);
    put(
        "workloads.memo_share",
        "share",
        1.0 - ratio(st.past_cap as f64, st.instrs as f64),
    );
    put(
        "trace.overhead_share",
        "share",
        (pass.wall - warm_s) / warm_s,
    );
    put(
        "trace.gap_share",
        "share",
        (corrected_total - warm_s) / warm_s,
    );
    put("trace.span_ns", "ns", c.total_ns);
    put(
        "trace.spans_pki",
        "1/ki",
        ratio((top_count + child_count) as f64, nominal_k),
    );
    Layers {
        wall: pass.wall,
        vals: v,
    }
}

/// The traced run: per-layer metrics. Untraced and traced passes
/// alternate so the overhead and the gap compare passes run side by side.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let n = spec.traces(seed).len();
    let mut setup = vec![Vec::new(); n + 1];
    let mut generated = 0;
    for _ in 0..TRACED_SETUPS {
        generated = setup_round(spec, seed, &mut setup);
    }
    let gen_ns = quiet_sum(&setup) * 1e9 / generated as f64;
    let cfg = spec.config(spec.warmup, spec.instructions);
    let traces = spec.traces(seed);
    let reference = run_pass(spec, &traces, &cfg, None).fingerprints();
    let mut untraced = Vec::new();
    let mut traced: Vec<(Pass, Probe)> = Vec::new();
    let mut costs = Vec::new();
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        costs.push(shims::calibrate(CALIBRATION_CALLS));
        let pass = run_pass(spec, &traces, &cfg, None);
        check_pass(&mut out, &pass, &reference, "untraced pass");
        untraced.push(pass.wall);
        let probe = Probe::default();
        std::env::set_var("IPCP_SCHED_STATS", "1");
        let pass = run_pass(spec, &traces, &cfg, Some(&probe));
        std::env::remove_var("IPCP_SCHED_STATS");
        check_pass(&mut out, &pass, &reference, "traced pass vs untraced");
        traced.push((pass, probe));
    }
    common_checks(&mut out, spec, seed);
    let cost = SpanCost {
        inside_ns: median(&costs.iter().map(|c| c.inside_ns).collect::<Vec<_>>()),
        total_ns: median(&costs.iter().map(|c| c.total_ns).collect::<Vec<_>>()),
    };
    let warm_s = median(&untraced);
    let all: Vec<Layers> = traced
        .iter()
        .map(|(pass, probe)| layers(spec, pass, probe, &cost, warm_s))
        .collect();
    eprintln!(
        "perfbench: {} untraced / {} traced passes; untraced median {warm_s:.4} s, traced median {:.4} s; span cost {:.1} ns ({:.1} ns inside the span)",
        untraced.len(),
        traced.len(),
        median(&all.iter().map(|l| l.wall).collect::<Vec<_>>()),
        cost.total_ns,
        cost.inside_ns,
    );
    out.metric("workloads.gen_ns_per_instr", "ns", gen_ns);
    for (k, (name, unit, _)) in all[0].vals.iter().enumerate() {
        let xs: Vec<f64> = all.iter().map(|l| l.vals[k].2).collect();
        out.metric(name.clone(), unit, median(&xs));
    }
    let memo = out
        .metrics
        .iter()
        .find(|m| m.name == "workloads.memo_share")
        .map_or(1.0, |m| m.value);
    if memo < 1.0 {
        eprintln!(
            "perfbench: warning: {:.1}% of instructions came from past the trace memo cap; warm passes regenerate them",
            (1.0 - memo) * 100.0
        );
    }
    out
}
