//! Sweep machinery: the scoped-thread worker pool the `experiments`
//! driver fans its figure jobs across, and the structured JSON results
//! (per-job outcomes and the sweep manifest).
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

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ipcp_sim::telemetry::JsonValue;

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
// Figure jobs + JSON results
// ---------------------------------------------------------------------

/// Outcome of one figure job run by the driver.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment (and binary) name, e.g. `fig07_l1_only`.
    pub name: String,
    /// True when the figure ran to the end and its text was written.
    pub ok: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Where the captured text output was written.
    pub output_path: PathBuf,
    /// The JSON data sidecar the experiment emitted, if one exists.
    pub data_path: Option<PathBuf>,
    /// Why the job failed: the figure's panic message, or the error
    /// writing its text.
    pub error: Option<String>,
    /// The figure's simulation-cache counters, when `IPCP_SIMCACHE` was on.
    pub simcache: Option<simcache::CacheStatsSnapshot>,
}

impl ExperimentOutcome {
    /// The outcome as a JSON object (the manifest entry and the per-run
    /// `.json` document). `wall_secs` is rounded to milliseconds.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set("name", self.name.as_str())
            .set("ok", self.ok)
            .set("wall_secs", round3(self.wall.as_secs_f64()))
            .set("output", self.output_path.display().to_string())
            .set("error", self.error.as_deref());
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

/// This process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MB of 2^20 bytes; `None` where that file or line is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(round3(kb / 1024.0))
}

/// Writes one `<results_dir>/<name>.json` per outcome plus the
/// `<results_dir>/manifest.json` machine-readable summary. Outcomes appear
/// in the manifest in the given (deterministic) order.
///
/// Schema 5: the sweep's `jobs`, `scale`, `total_wall_secs` and `failed`
/// count, the writing process's [`peak_rss_mb`] (`null` where it cannot
/// be read), aggregate `simcache` counters when any figure reported
/// them, and one [`ExperimentOutcome::to_json`] entry per experiment.
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
        .set("schema", 5i64)
        .set("generated_by", "experiments driver (ipcp-tools)")
        .set("jobs", jobs)
        .set("scale", scale_env)
        .set("total_wall_secs", round3(total_wall.as_secs_f64()))
        .set("failed", outcomes.iter().filter(|o| !o.ok).count())
        .set("peak_rss_mb", peak_rss_mb());
    // Aggregate simulation-cache counters across the sweep, when any
    // experiment reported them (CI asserts on these totals).
    let mut stats = outcomes.iter().filter_map(|o| o.simcache).peekable();
    if stats.peek().is_some() {
        let mut total = simcache::CacheStatsSnapshot::default();
        stats.for_each(|s| total += s);
        manifest.insert(
            "simcache",
            JsonValue::obj()
                .set("hits", total.hits)
                .set("misses", total.misses)
                .set("stores", total.stores),
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
    use crate::runner::{Experiment, RunScale};
    use ipcp_workloads::SynthTrace;

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
        let run =
            |(t, c): (SynthTrace, &str)| Experiment::with_scale("pool", scale).run_combo(c, &t);
        let serial = parallel_map(1, jobs.clone(), run);
        let fanned = parallel_map(4, jobs, run);
        assert_eq!(
            serial, fanned,
            "worker count must never change simulation results"
        );
    }

    #[test]
    fn results_json_round_trip_shape() {
        let dir = std::env::temp_dir().join(format!("ipcp-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let outcomes = vec![
            ExperimentOutcome {
                name: "fake_ok".into(),
                ok: true,
                wall: Duration::from_millis(1234),
                output_path: dir.join("fake_ok.txt"),
                data_path: Some(dir.join("fake_ok.data.json")),
                error: None,
                simcache: Some(simcache::CacheStatsSnapshot {
                    hits: 5,
                    misses: 2,
                    stores: 2,
                }),
            },
            ExperimentOutcome {
                name: "fake_bad".into(),
                ok: false,
                wall: Duration::from_millis(10),
                output_path: dir.join("fake_bad.txt"),
                data_path: None,
                error: Some("boom \"quoted\"".into()),
                simcache: None,
            },
        ];
        write_results_json(&dir, 3, "default", Duration::from_secs(2), &outcomes).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        // Substring shape of the schema-5 manifest.
        assert!(manifest.contains("\"schema\": 5"));
        assert!(manifest.contains("\"jobs\": 3"));
        assert!(manifest.contains("\"failed\": 1"));
        assert!(manifest.contains("\"name\": \"fake_ok\""));
        assert!(
            !manifest.contains("exit_code"),
            "schema 5 has no exit codes"
        );
        let per_run = std::fs::read_to_string(dir.join("fake_ok.json")).unwrap();
        assert!(per_run.contains("\"ok\": true"));
        assert!(per_run.contains("\"wall_secs\": 1.234"));
        // Structural round-trip through the shared parser: the manifest is
        // well-formed JSON carrying the expected values, escapes included.
        let m = JsonValue::parse(&manifest).unwrap();
        assert_eq!(m.get("schema").unwrap().as_u64(), Some(5));
        // The writer's own peak RSS: positive where /proc reports it.
        let rss = m.get("peak_rss_mb").unwrap();
        match peak_rss_mb() {
            Some(_) => assert!(rss.as_f64().unwrap() > 0.0),
            None => assert!(rss.is_null()),
        }
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
        assert!(p.get("exit_code").is_none());
        // The manifest carries no shard provenance, in its entries or the
        // per-run documents.
        assert!(exps.iter().all(|e| e.get("shard").is_none()));
        assert!(p.get("shard").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
