//! The `sweep` workload: the `experiments` driver over a fixed figure
//! subset, serial (`IPCP_JOBS=1`), with the simulation cache on.
//!
//! A run is a fixed number of episodes. Each starts from an empty cache
//! directory and times one cold pass (every cached simulation misses and
//! is stored), then repeats warm passes against the filled directory. A
//! pass is timed in parts, one per figure job plus the driver's own time,
//! and a pass time is the sum of each part's median (see
//! `stats::median_sum`; unlike the in-process simulations, whole figure
//! processes spread evenly rather than in two speeds, and there the
//! median is the steadier of the two).
//!
//! `fig10_coverage` and `fe01_l1i_mpki` are fully cached (their warm
//! passes only load entries); `ext_temporal` simulates through
//! `run_custom`, which bypasses the cache, so its warm pass still
//! simulates. A later change to cache coverage therefore has a figure on
//! each side.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ipcp_bench::simcache::SimCache;
use ipcp_sim::telemetry::JsonValue;
use ipcp_sim::SimConfig;
use ipcp_trace::TraceSource;

use crate::stats::{median, median_sum, pass_scaled, percentile, Outcome};

/// The figure subset, in the driver's run order. Each figure job is one
/// timed part, so none may run long: a part of a second or more rarely
/// fits in a calm spell of the host (`fig07_l1_only`, 160 simulations in
/// one job, took 1-3 s cold and was left out for that).
pub const FIGURES: [&str; 3] = ["fig10_coverage", "ext_temporal", "fe01_l1i_mpki"];
/// Reduced scale of every figure (warm-up, measured instructions).
const SCALE: (u64, u64) = (5_000, 20_000);
/// Episodes per run: each gives one cold-pass sample.
const EPISODES: usize = 24;
/// The cells of `fig10_coverage`: every trace of `memory_intensive_suite()`
/// under these combos.
const FIG10_COMBOS: [&str; 2] = ["none", "ipcp"];
/// The figure that simulates through `run_custom`, outside the cache. The
/// cache counts only the other figures' simulations, so `sim_mips` leaves
/// it out.
const UNCACHED_FIGURE: &str = "ext_temporal";
/// Figure jobs `op_p90_s` is taken over, at least, so that it has at
/// least ten samples beyond it.
const MIN_OPS: usize = 110;

/// One driver pass, as timed here and as its manifest reports it.
struct Pass {
    wall: f64,
    ok: bool,
    /// Per-figure wall seconds from the manifest, in [`FIGURES`] order.
    figure_walls: Vec<f64>,
    /// Per-figure cache stores from the manifest, in [`FIGURES`] order.
    figure_stores: Vec<u64>,
    hits: u64,
    misses: u64,
    stores: u64,
}

impl Pass {
    /// The pass's parts: the driver's own time (the wall minus every
    /// figure job), then each figure job.
    fn parts(&self) -> Vec<f64> {
        let jobs: f64 = self.figure_walls.iter().sum();
        std::iter::once(self.wall - jobs)
            .chain(self.figure_walls.iter().copied())
            .collect()
    }
}

/// Per-part samples of `passes` (see [`Pass::parts`]).
fn part_samples(passes: &[Pass]) -> Vec<Vec<f64>> {
    let mut parts = vec![Vec::new(); FIGURES.len() + 1];
    for p in passes
        .iter()
        .filter(|p| p.figure_walls.len() == FIGURES.len())
    {
        for (part, x) in parts.iter_mut().zip(p.parts()) {
            part.push(x);
        }
    }
    parts
}

fn driver(bin_dir: &Path) -> Command {
    let mut cmd = Command::new(bin_dir.join("experiments"));
    // Only the knobs set here reach the driver and its children.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("IPCP_") {
            cmd.env_remove(k);
        }
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn run_pass(bin_dir: &Path, cache: &Path, results: &Path) -> Pass {
    let mut cmd = driver(bin_dir);
    cmd.args(FIGURES)
        .arg("--results-dir")
        .arg(results)
        .env("IPCP_SCALE", format!("{},{}", SCALE.0, SCALE.1))
        .env("IPCP_JOBS", "1")
        .env("IPCP_SIMCACHE", "1")
        .env("IPCP_SIMCACHE_DIR", cache);
    let t0 = Instant::now();
    let status = cmd.status();
    let wall = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall,
        ok: status.is_ok_and(|s| s.success()),
        figure_walls: Vec::new(),
        figure_stores: Vec::new(),
        hits: 0,
        misses: 0,
        stores: 0,
    };
    let manifest = std::fs::read_to_string(results.join("manifest.json"))
        .ok()
        .and_then(|t| JsonValue::parse(&t).ok());
    let Some(m) = manifest else {
        pass.ok = false;
        return pass;
    };
    let count = |k: &str| {
        m.get("simcache")
            .and_then(|s| s.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    (pass.hits, pass.misses, pass.stores) = (count("hits"), count("misses"), count("stores"));
    let exps = m
        .get("experiments")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for fig in FIGURES {
        let e = exps
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(fig));
        match e {
            Some(e) if e.get("ok").and_then(JsonValue::as_bool) == Some(true) => {
                pass.figure_walls.push(
                    e.get("wall_secs")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                );
                pass.figure_stores.push(
                    e.get("simcache")
                        .and_then(|s| s.get("stores"))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                );
            }
            _ => pass.ok = false,
        }
    }
    pass
}

/// Figure outputs of a results directory that must not depend on the cache.
fn outputs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    FIGURES
        .iter()
        .flat_map(|f| [format!("{f}.txt"), format!("{f}.data.json")])
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap_or_default();
            (name, bytes)
        })
        .collect()
}

/// `validate_results` on a warm results dir: schema, sidecars, and byte
/// identity of every figure output with the cold pass.
fn validate(bin_dir: &Path, warm: &Path, cold: &Path) -> bool {
    Command::new(bin_dir.join("validate_results"))
        .arg("--results-dir")
        .arg(warm)
        .arg("--compare")
        .arg(cold)
        .args(["--min-simcache-hits", "1"])
        .args(FIGURES)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Simulated instructions of a cold pass in the figures whose every
/// simulation goes through the cache: each store is one simulation of one
/// trace (all four figures are single-core) at [`SCALE`], warm-up
/// included. `None` if such a figure stored nothing, which a cold pass
/// cannot do.
fn cached_instructions(pass: &Pass) -> Option<u64> {
    let mut instructions = 0;
    for (k, fig) in FIGURES.iter().enumerate() {
        if *fig == UNCACHED_FIGURE {
            continue;
        }
        let stores = *pass.figure_stores.get(k)?;
        if stores == 0 {
            return None;
        }
        instructions += stores * (SCALE.0 + SCALE.1);
    }
    Some(instructions)
}

/// Times `SimCache::get_or_run` on every `fig10_coverage` cell of a filled
/// cache. Returns (median ms per hit, lookups, misses).
fn hit_ms(cache: &Path) -> (f64, u64, u64) {
    let sc = SimCache::new(cache);
    let cfg = SimConfig::default().with_instructions(SCALE.0, SCALE.1);
    let mut ms = Vec::new();
    let mut misses = 0;
    for t in ipcp_workloads::memory_intensive_suite() {
        for combo in FIG10_COMBOS {
            let t0 = Instant::now();
            let mut missed = false;
            let report = sc.get_or_run(&[t.name()], combo, &cfg, || {
                missed = true;
                let c = ipcp_bench::combos::build(combo);
                ipcp_sim::run_single_with_l1i(cfg.clone(), t.handle(), c.l1i, c.l1, c.l2, c.llc)
            });
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(report);
            misses += u64::from(missed);
        }
    }
    (median(&ms), ms.len() as u64, misses)
}

/// One set-up: build `memory_intensive_suite()`, which two of the three
/// figures read, and generate every trace to the depth one figure
/// simulation reads, as each of those figure processes does before it
/// simulates. Timed here, in one process, because a driver spawn of a few
/// milliseconds drifts between runs far more than the work it starts. The
/// set-up holds no more memory than a figure process, so it leaves
/// `peak_rss_mb` to the figures. Part 0 is building the traces, part
/// k + 1 generating trace k.
fn setup_pass(parts: &mut Vec<Vec<f64>>) {
    let t0 = Instant::now();
    let traces = ipcp_workloads::memory_intensive_suite();
    let built = t0.elapsed().as_secs_f64();
    parts.resize(traces.len() + 1, Vec::new());
    parts[0].push(built);
    for (k, t) in traces.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(crate::sim::prime(
            std::slice::from_ref(t),
            SCALE.0 + SCALE.1,
        ));
        parts[k + 1].push(t0.elapsed().as_secs_f64());
    }
}

pub fn run(bin_dir: &Path, work: &Path, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up passes are spread over the run, one before every timed pass,
    // so their samples cover the same stretch of time as the other metrics.
    let mut setup = Vec::new();
    let mut cold: Vec<Pass> = Vec::new();
    let mut warm: Vec<Pass> = Vec::new();
    let mut instructions = Vec::new();
    let mut hit = Vec::new();
    let started = Instant::now();
    for e in 0..EPISODES {
        let dir = |name: String| -> PathBuf { work.join(format!("e{e}-{name}")) };
        let (cache, cold_dir) = (dir("cache".into()), dir("cold".into()));
        setup_pass(&mut setup);
        let pass = run_pass(bin_dir, &cache, &cold_dir);
        out.op(pass.ok, "cold pass");
        let n = cached_instructions(&pass);
        out.op(n.is_some(), "a cached figure stored nothing on a cold pass");
        instructions.extend(n);
        let reference = outputs(&cold_dir);
        cold.push(pass);
        if traced {
            let (ms, lookups, misses) = hit_ms(&cache);
            hit.push(ms);
            out.op(
                misses == 0,
                &format!("{misses} of {lookups} fig10 cells missed the filled cache"),
            );
        }
        let episode_end = seconds * (e + 1) as f64 / EPISODES as f64;
        let mut k = 0;
        let warm_dir = loop {
            let warm_dir = dir(format!("warm{k}"));
            setup_pass(&mut setup);
            let pass = run_pass(bin_dir, &cache, &warm_dir);
            out.op(pass.ok, "warm pass");
            let same = outputs(&warm_dir) == reference;
            out.op(same, "warm outputs differ from cold outputs");
            warm.push(pass);
            let ops = warm.len() * FIGURES.len();
            if started.elapsed().as_secs_f64() >= episode_end
                && (e + 1 < EPISODES || ops >= MIN_OPS)
            {
                break warm_dir;
            }
            let _ = std::fs::remove_dir_all(&warm_dir);
            k += 1;
        };
        out.op(
            validate(bin_dir, &warm_dir, &cold_dir),
            "validate_results on warm vs cold",
        );
        let _ = std::fs::remove_dir_all(&warm_dir);
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&cold_dir);
    }
    let (cold_parts, warm_parts) = (part_samples(&cold), part_samples(&warm));
    let warm_s = median_sum(&warm_parts);
    let fig_ops = pass_scaled(&warm_parts, warm_s)[1..].concat();
    eprintln!(
        "perfbench: {} cold / {} warm sweep passes; {} figure jobs in op_p90_s (p90 has {} beyond it)",
        cold.len(),
        warm.len(),
        fig_ops.len(),
        fig_ops.len() / 10
    );
    if !traced {
        // Every cold pass simulates the same work; the time is the cached
        // figures' parts.
        let same = instructions.windows(2).all(|w| w[0] == w[1]);
        out.op(same, "cold passes stored different numbers of simulations");
        let cached: Vec<Vec<f64>> = FIGURES
            .iter()
            .zip(&cold_parts[1..])
            .filter(|(fig, _)| **fig != UNCACHED_FIGURE)
            .map(|(_, part)| part.clone())
            .collect();
        let n = instructions.first().copied().unwrap_or(0) as f64;
        out.metric("sim_mips", "M/s", n / median_sum(&cached) / 1e6);
        out.metric("warm_s", "s", warm_s);
        out.metric("cold_s", "s", median_sum(&cold_parts));
        out.metric("setup_s", "s", median_sum(&setup));
        out.metric("op_p90_s", "s", percentile(&fig_ops, 90.0));
        return out;
    }
    let first = |ps: &[Pass], f: fn(&Pass) -> u64| ps.first().map_or(0, f) as f64;
    out.metric("bench.simcache.hits", "count", first(&warm, |p| p.hits));
    out.metric("bench.simcache.misses", "count", first(&cold, |p| p.misses));
    out.metric("bench.simcache.stores", "count", first(&cold, |p| p.stores));
    out.metric("bench.simcache.hit_ms", "ms", median(&hit));
    let one = |part: &Vec<f64>| median_sum(std::slice::from_ref(part));
    for (k, fig) in FIGURES.iter().enumerate() {
        out.metric(format!("bench.cold_s.{fig}"), "s", one(&cold_parts[k + 1]));
        out.metric(format!("bench.warm_s.{fig}"), "s", one(&warm_parts[k + 1]));
    }
    let driver: Vec<f64> = cold_parts[0]
        .iter()
        .chain(&warm_parts[0])
        .copied()
        .collect();
    out.metric("tools.driver_s", "s", one(&driver));
    out
}
