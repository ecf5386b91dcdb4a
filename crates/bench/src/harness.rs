//! Parallel experiment machinery: a scoped-thread worker pool that fans
//! independent simulation jobs across cores, a memoized alone-IPC cache for
//! multi-core weighted-speedup experiments, and structured JSON results.
//!
//! Every simulation in this workspace is deterministic, so parallel and
//! serial execution of the same job list produce identical results — the
//! pool only changes wall-clock time, never output bytes. `IPCP_JOBS=1`
//! forces serial execution (the reference mode for byte-identical
//! comparisons); the default is one worker per available core.
//!
//! No external dependencies: the pool is `std::thread::scope` (the crates
//! registry is unreachable in CI sandboxes) and the JSON goes through the
//! workspace's shared [`JsonValue`] serializer (`ipcp_sim::telemetry`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ipcp_sim::telemetry::JsonValue;
use ipcp_sim::{CoreSetup, SimConfig, System};
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

use crate::combos;
use crate::runner::RunScale;
use crate::simcache;

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Worker count from the `IPCP_JOBS` environment variable; defaults to the
/// number of available cores. Parsed through the consolidated
/// [`crate::env`] module, so a malformed value exits loudly instead of
/// silently running at the default width.
pub fn jobs_from_env() -> usize {
    crate::env::or_die(crate::env::jobs())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on a pool of `workers` scoped threads, returning
/// results in input order. With `workers <= 1` (or a single item) this
/// degenerates to a plain serial loop on the calling thread, so
/// `IPCP_JOBS=1` is exactly the old serial behavior.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn parallel_map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job taken twice");
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result poisoned")
                .expect("job not run")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Alone-IPC cache
// ---------------------------------------------------------------------

/// Cache key: (trace name, combo, cores, warmup, instructions).
type AloneIpcKey = (String, String, u32, u64, u64);

/// Memoized per-`(trace, combo, cores, scale)` single-core "alone" IPCs —
/// the denominators of Section VI's weighted speedup. Multi-core figures
/// reuse the same baselines across every mix containing a trace; without
/// the cache `fig15_multicore` recomputes each one per mix per combo.
///
/// Shareable across worker threads (`&self` methods, internal mutex; the
/// lock is never held across a simulation).
#[derive(Debug, Default)]
pub struct AloneIpcCache {
    inner: Mutex<HashMap<AloneIpcKey, f64>>,
}

impl AloneIpcCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized entries (used by tests and reports).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The alone IPC of `trace` under `combo` on an `cores`-core machine
    /// (single active core, multi-core LLC capacity and DRAM), memoized.
    ///
    /// Two threads racing on the same key may both simulate, but the runs
    /// are deterministic so they insert the same value — correctness never
    /// depends on winning the race.
    pub fn get(&self, trace: &SynthTrace, combo: &str, cores: u32, scale: RunScale) -> f64 {
        let key = (
            trace.name().to_string(),
            combo.to_string(),
            cores,
            scale.warmup,
            scale.instructions,
        );
        if let Some(&ipc) = self.inner.lock().expect("cache poisoned").get(&key) {
            return ipc;
        }
        let ipc = alone_ipc_uncached(trace, combo, cores, scale);
        self.inner.lock().expect("cache poisoned").insert(key, ipc);
        ipc
    }
}

/// The uncached alone-IPC computation: "IPC_alone(i) is the IPC of core i
/// when it runs alone on [the] N-core system" — one core, but the N-core
/// LLC capacity and DRAM. ("Uncached" is relative to [`AloneIpcCache`]'s
/// in-memory memoization; the run still goes through the on-disk
/// [`crate::simcache`] layer, which keys on the effective config — the
/// scaled LLC makes these entries distinct from plain single-core runs.)
pub fn alone_ipc_uncached(trace: &SynthTrace, combo: &str, cores: u32, scale: RunScale) -> f64 {
    let mut cfg = SimConfig::multicore(cores).with_instructions(scale.warmup, scale.instructions);
    cfg.cores = 1;
    cfg.llc.size_bytes *= u64::from(cores);
    crate::simcache::get_or_run(&[trace.name()], combo, &cfg, || {
        let c = combos::build(combo);
        let mut sys = System::new(
            cfg.clone(),
            vec![CoreSetup::new(trace.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i)],
            c.llc,
        );
        sys.run()
    })
    .ipc()
}

/// Runs a multi-programmed mix (one trace per core) under a named combo,
/// through the on-disk [`crate::simcache`] layer — the key carries every
/// trace name in core order, so permuted mixes stay distinct.
pub fn run_mix_report(mix: &[SynthTrace], combo: &str, scale: RunScale) -> ipcp_sim::SimReport {
    let cores = mix.len() as u32;
    let cfg = SimConfig::multicore(cores).with_instructions(scale.warmup, scale.instructions);
    let names: Vec<&str> = mix.iter().map(TraceSource::name).collect();
    crate::simcache::get_or_run(&names, combo, &cfg, || {
        let setups = mix
            .iter()
            .map(|t| {
                let c = combos::build(combo);
                CoreSetup::new(t.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i)
            })
            .collect();
        let llc = combos::build(combo).llc;
        let mut sys = System::new(cfg.clone(), setups, llc);
        sys.run()
    })
}

// ---------------------------------------------------------------------
// Experiment subprocess jobs + JSON results
// ---------------------------------------------------------------------

/// Outcome of one experiment binary run by the driver.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment (and binary) name, e.g. `fig07_l1_only`.
    pub name: String,
    /// Process exit code (`None` when killed by a signal or not spawnable).
    pub exit_code: Option<i32>,
    /// True when the process exited successfully.
    pub ok: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Where the captured text output was written.
    pub output_path: PathBuf,
    /// The JSON data sidecar the experiment emitted, if one exists.
    pub data_path: Option<PathBuf>,
    /// Spawn-level error, if the binary could not be executed at all.
    pub spawn_error: Option<String>,
    /// The child's simulation-cache counters, when `IPCP_SIMCACHE` was on
    /// (collected via a per-child `IPCP_SIMCACHE_STATS` file).
    pub simcache: Option<simcache::CacheStatsSnapshot>,
}

impl ExperimentOutcome {
    /// The outcome as a JSON object (the manifest entry and the per-run
    /// `.json` document). `wall_secs` is rounded to milliseconds.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set("name", self.name.as_str())
            .set("ok", self.ok)
            .set(
                "exit_code",
                self.exit_code.map_or(JsonValue::Null, JsonValue::from),
            )
            .set("wall_secs", round3(self.wall.as_secs_f64()))
            .set("output", self.output_path.display().to_string())
            .set(
                "error",
                self.spawn_error
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::from),
            );
        if let Some(data) = &self.data_path {
            v.insert("data", data.display().to_string());
        }
        if let Some(s) = &self.simcache {
            v.insert(
                "simcache",
                JsonValue::obj()
                    .set("hits", s.hits)
                    .set("misses", s.misses)
                    .set("stores", s.stores),
            );
        }
        v
    }
}

/// Rounds to 3 decimals (the manifest's wall-clock precision).
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Writes one `<results_dir>/<name>.json` per outcome plus the
/// `<results_dir>/manifest.json` machine-readable summary. Outcomes appear
/// in the manifest in the given (deterministic) order.
///
/// Schema 3: the sweep's `jobs`, `scale`, `total_wall_secs` and `failed`
/// count, aggregate `simcache` counters when any child reported them, and
/// one [`ExperimentOutcome::to_json`] entry per experiment.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the files.
pub fn write_results_json(
    results_dir: &Path,
    jobs: usize,
    scale_env: &str,
    total_wall: Duration,
    outcomes: &[ExperimentOutcome],
) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir)?;
    for o in outcomes {
        std::fs::write(
            results_dir.join(format!("{}.json", o.name)),
            o.to_json().to_json_string() + "\n",
        )?;
    }
    let mut manifest = JsonValue::obj()
        .set("schema", 3i64)
        .set("generated_by", "experiments driver (ipcp-tools)")
        .set("jobs", jobs)
        .set("scale", scale_env)
        .set("total_wall_secs", round3(total_wall.as_secs_f64()))
        .set("failed", outcomes.iter().filter(|o| !o.ok).count());
    // Aggregate simulation-cache counters across the sweep, when any
    // experiment reported them (CI asserts on these totals).
    let stats: Vec<_> = outcomes.iter().filter_map(|o| o.simcache).collect();
    if !stats.is_empty() {
        manifest.insert(
            "simcache",
            JsonValue::obj()
                .set("hits", stats.iter().map(|s| s.hits).sum::<u64>())
                .set("misses", stats.iter().map(|s| s.misses).sum::<u64>())
                .set("stores", stats.iter().map(|s| s.stores).sum::<u64>()),
        );
    }
    let manifest = manifest.set(
        "experiments",
        JsonValue::Arr(outcomes.iter().map(ExperimentOutcome::to_json).collect()),
    );
    std::fs::write(
        results_dir.join("manifest.json"),
        manifest.to_pretty_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_combo;

    #[test]
    fn parse_jobs_accepts_positive_counts_only() {
        // The pool's worker count is read through `env::jobs`, whose
        // grammar is this parser: positive counts only, loud on garbage.
        let parse = |v| crate::env::parse_positive("IPCP_JOBS", v);
        assert_eq!(parse(Some("4")).unwrap(), Some(4));
        assert_eq!(parse(Some(" 2 ")).unwrap(), Some(2));
        assert_eq!(parse(None).unwrap(), None);
        for bad in ["0", "-3", "many"] {
            assert!(
                parse(Some(bad)).is_err(),
                "IPCP_JOBS={bad} must be rejected"
            );
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(1, items.clone(), |x| x * x), expect);
        assert_eq!(parallel_map(4, items.clone(), |x| x * x), expect);
        assert_eq!(parallel_map(64, items, |x| x * x), expect);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(8, vec![7], |x| x + 1), vec![8]);
    }

    /// Tentpole invariant: fanning simulation jobs across workers yields
    /// the same reports as running them serially.
    #[test]
    fn parallel_and_serial_sim_runs_are_identical() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let jobs: Vec<(SynthTrace, &str)> = traces
            .iter()
            .take(2)
            .flat_map(|t| [(t.clone(), "none"), (t.clone(), "ipcp")])
            .collect();
        let serial = parallel_map(1, jobs.clone(), |(t, c)| run_combo(c, &t, scale));
        let fanned = parallel_map(4, jobs, |(t, c)| run_combo(c, &t, scale));
        assert_eq!(
            serial, fanned,
            "worker count must never change simulation results"
        );
    }

    #[test]
    fn alone_ipc_cache_matches_uncached_and_memoizes() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[0];
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let cache = AloneIpcCache::new();
        let direct = alone_ipc_uncached(t, "none", 4, scale);
        let via_cache = cache.get(t, "none", 4, scale);
        assert_eq!(direct, via_cache, "cache must return the uncached value");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(t, "none", 4, scale), direct);
        assert_eq!(cache.len(), 1, "second lookup is a hit, not a recompute");
        // A different core count is a different machine — distinct entry.
        let _ = cache.get(t, "none", 8, scale);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn alone_ipc_cache_is_shareable_across_workers() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let cache = AloneIpcCache::new();
        let jobs: Vec<SynthTrace> = vec![traces[0].clone(); 4];
        let ipcs = parallel_map(4, jobs, |t| cache.get(&t, "none", 4, scale));
        assert!(ipcs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn results_json_round_trip_shape() {
        let dir = std::env::temp_dir().join(format!("ipcp-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let outcomes = vec![
            ExperimentOutcome {
                name: "fake_ok".into(),
                exit_code: Some(0),
                ok: true,
                wall: Duration::from_millis(1234),
                output_path: dir.join("fake_ok.txt"),
                data_path: Some(dir.join("fake_ok.data.json")),
                spawn_error: None,
                simcache: Some(simcache::CacheStatsSnapshot {
                    hits: 5,
                    misses: 2,
                    stores: 2,
                }),
            },
            ExperimentOutcome {
                name: "fake_bad".into(),
                exit_code: Some(101),
                ok: false,
                wall: Duration::from_millis(10),
                output_path: dir.join("fake_bad.txt"),
                data_path: None,
                spawn_error: Some("boom \"quoted\"".into()),
                simcache: None,
            },
        ];
        write_results_json(&dir, 3, "default", Duration::from_secs(2), &outcomes).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        // Substring shape of the schema-3 manifest.
        assert!(manifest.contains("\"schema\": 3"));
        assert!(manifest.contains("\"jobs\": 3"));
        assert!(manifest.contains("\"failed\": 1"));
        assert!(manifest.contains("\"name\": \"fake_ok\""));
        assert!(manifest.contains("\"exit_code\": 101"));
        let per_run = std::fs::read_to_string(dir.join("fake_ok.json")).unwrap();
        assert!(per_run.contains("\"ok\": true"));
        assert!(per_run.contains("\"wall_secs\": 1.234"));
        // Structural round-trip through the shared parser: the manifest is
        // well-formed JSON carrying the expected values, escapes included.
        let m = JsonValue::parse(&manifest).unwrap();
        assert_eq!(m.get("schema").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("jobs").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("scale").unwrap().as_str(), Some("default"));
        assert_eq!(m.get("total_wall_secs").unwrap().as_f64(), Some(2.0));
        let agg = m.get("simcache").unwrap();
        assert_eq!(agg.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(agg.get("misses").unwrap().as_u64(), Some(2));
        let exps = m.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("name").unwrap().as_str(), Some("fake_ok"));
        let sc = exps[0].get("simcache").unwrap();
        assert_eq!(sc.get("stores").unwrap().as_u64(), Some(2));
        assert!(exps[1].get("simcache").is_none());
        assert_eq!(exps[0].get("wall_secs").unwrap().as_f64(), Some(1.234));
        assert!(exps[0].get("error").unwrap().is_null());
        assert!(exps[0].get("data").unwrap().as_str().is_some());
        assert_eq!(exps[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            exps[1].get("error").unwrap().as_str(),
            Some("boom \"quoted\"")
        );
        assert!(exps[1].get("data").is_none());
        let p = JsonValue::parse(&per_run).unwrap();
        assert_eq!(p.get("exit_code").unwrap().as_u64(), Some(0));
        // Schema 3 carries no shard provenance, in the manifest entries or
        // the per-run documents.
        assert!(exps.iter().all(|e| e.get("shard").is_none()));
        assert!(p.get("shard").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
