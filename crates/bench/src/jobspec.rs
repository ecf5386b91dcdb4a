//! [`JobSpec`]: the typed description of one experiment job, and its
//! executor — the jobs-first surface that replaced the harness's retired
//! positional-arg + `extra_env` `run_experiment` entry point.
//!
//! A spec names the figure binary and carries every knob the run depends
//! on *explicitly*: scale, mix count, sampler interval, oracle mode,
//! sidecar directories, and any residual env overrides. [`execute`] is
//! **spec-authoritative**: it clears every catalogued `IPCP_*` variable
//! from the child environment before applying the spec, so the driver's
//! ambient environment (or a pool thread's) can never leak into a result.
//!
//! The `experiments` driver runs every job through [`execute`], serially
//! (`IPCP_JOBS=1`) or on its in-process worker pool — one code path, so
//! pooled and serial sweeps produce byte-identical outputs.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ipcp_sim::telemetry::JsonValue;

use crate::env;
use crate::harness::ExperimentOutcome;
use crate::runner::RunScale;
use crate::simcache;

/// Every figure/table binary, in the canonical (paper) order — the order
/// manifests report, independent of completion order.
pub const EXPERIMENTS: &[&str] = &[
    "table1_storage",
    "table2_config",
    "table3_combos",
    "fig01_l1_utility",
    "fig07_l1_only",
    "fig08_multilevel",
    "fig09_mpki",
    "fig10_coverage",
    "fig11_overpredict",
    "fig12_class_share",
    "fig13a_class_ablation",
    "fig13b_priority",
    "fig14_cloud_nn",
    "fig15_multicore",
    "table4_cov_acc",
    "sens_dram_bw",
    "sens_pq_mshr",
    "sens_cache_sizes",
    "sens_tables",
    "sens_replacement",
    "sens_ip_assoc",
    "ext_l2_complement",
    "ext_temporal",
    "fe01_l1i_mpki",
    "fe02_frontend_bottleneck",
    "fe03_compose_shared_l2",
    "fe04_mana_storage",
];

/// A typed description of one experiment job. Build with the fluent
/// methods, or snapshot the ambient environment with
/// [`JobSpec::from_ambient`].
///
/// `csv_dir`/`json_dir` distinguish "unset" (`None`: the binary's default)
/// from "explicitly empty" (`Some("")`: sidecars disabled) — the same
/// three-state contract the raw environment variables have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Figure/table binary name, e.g. `fig07_l1_only`.
    pub figure: String,
    /// `IPCP_SCALE` spec (`"paper"` or `"<warmup>,<instructions>"`);
    /// `None` runs the binary's default scale.
    pub scale: Option<String>,
    /// `IPCP_MIXES` for the multi-core figure.
    pub mixes: Option<usize>,
    /// `IPCP_INTERVAL` sampler period.
    pub interval: Option<u64>,
    /// Run on the naive (oracle) paths (`IPCP_NO_FASTPATH`).
    pub no_fastpath: bool,
    /// `IPCP_CSV` directory.
    pub csv_dir: Option<String>,
    /// `IPCP_JSON` sidecar directory.
    pub json_dir: Option<String>,
    /// Residual env overrides (e.g. `IPCP_SIMCACHE`), applied last.
    pub env: Vec<(String, String)>,
}

impl JobSpec {
    /// A spec for `figure` with every knob at its default.
    pub fn new(figure: impl Into<String>) -> Self {
        Self {
            figure: figure.into(),
            scale: None,
            mixes: None,
            interval: None,
            no_fastpath: false,
            csv_dir: None,
            json_dir: None,
            env: Vec::new(),
        }
    }

    /// Sets the scale from a raw `IPCP_SCALE` spec string.
    ///
    /// # Errors
    ///
    /// The spec must parse (same grammar as the environment variable);
    /// a malformed spec is rejected here, not at execution time.
    pub fn scale_spec(mut self, spec: &str) -> Result<Self, env::EnvError> {
        RunScale::parse(spec)?;
        self.scale = Some(spec.to_string());
        Ok(self)
    }

    /// Sets the scale from a typed [`RunScale`].
    #[must_use]
    pub fn scale_run(mut self, scale: RunScale) -> Self {
        self.scale = Some(format!("{},{}", scale.warmup, scale.instructions));
        self
    }

    /// Sets the random-mix count (`IPCP_MIXES`).
    #[must_use]
    pub fn mixes(mut self, n: usize) -> Self {
        self.mixes = Some(n);
        self
    }

    /// Sets the sampler interval (`IPCP_INTERVAL`).
    #[must_use]
    pub fn interval(mut self, instructions: u64) -> Self {
        self.interval = Some(instructions);
        self
    }

    /// Selects the naive (oracle) paths.
    #[must_use]
    pub fn no_fastpath(mut self, on: bool) -> Self {
        self.no_fastpath = on;
        self
    }

    /// Sets the CSV export directory.
    #[must_use]
    pub fn csv_dir(mut self, dir: impl Into<String>) -> Self {
        self.csv_dir = Some(dir.into());
        self
    }

    /// Sets the JSON sidecar directory.
    #[must_use]
    pub fn json_dir(mut self, dir: impl Into<String>) -> Self {
        self.json_dir = Some(dir.into());
        self
    }

    /// Appends a residual env override (applied after the typed knobs).
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push((key.into(), value.into()));
        self
    }

    /// Snapshots the ambient `IPCP_*` environment into an explicit spec
    /// for `figure` — how the driver turns "whatever the user exported"
    /// into a self-contained, shippable job description. Validates every
    /// knob (loudly typed, like the env module).
    ///
    /// Captured: scale, mixes, interval, oracle mode, CSV/JSON dirs, and
    /// the pass-through overrides `IPCP_SIMCACHE`, `IPCP_SIMCACHE_DIR`,
    /// and `IPCP_JOBS` (figures fan their internal simulations across
    /// `IPCP_JOBS` threads; the count never changes output bytes).
    /// `IPCP_SIMCACHE_STATS` is *not* captured — the per-child stats
    /// drop-off is execution machinery owned by [`execute`].
    ///
    /// # Errors
    ///
    /// Any set-but-malformed knob (see [`crate::env`]).
    pub fn from_ambient(figure: impl Into<String>) -> Result<Self, env::EnvError> {
        // Validate through the typed parsers first, then capture raw
        // values so unset/empty distinctions survive verbatim.
        env::scale()?;
        let _ = env::interval()?;
        let _ = env::no_fastpath()?;
        let _ = env::simcache_enabled()?;
        let _ = env::jobs()?;
        let mut spec = Self::new(figure);
        spec.scale = env::raw("IPCP_SCALE")?;
        spec.mixes = match env::raw("IPCP_MIXES")? {
            Some(v) => Some(env::parse_count("IPCP_MIXES", Some(&v), 0)?),
            None => None,
        };
        spec.interval = env::interval()?;
        spec.no_fastpath = env::no_fastpath()?;
        spec.csv_dir = env::raw("IPCP_CSV")?;
        spec.json_dir = env::raw("IPCP_JSON")?;
        for key in ["IPCP_SIMCACHE", "IPCP_SIMCACHE_DIR", "IPCP_JOBS"] {
            if let Some(v) = env::raw(key)? {
                spec.env.push((key.to_string(), v));
            }
        }
        Ok(spec)
    }
}

/// The full catalogued knob list [`execute`] clears before applying a
/// spec (spec-authoritative environments).
const KNOB_NAMES: &[&str] = &[
    "IPCP_JOBS",
    "IPCP_SCALE",
    "IPCP_CSV",
    "IPCP_JSON",
    "IPCP_SIMCACHE",
    "IPCP_SIMCACHE_DIR",
    "IPCP_SIMCACHE_STATS",
    "IPCP_MIXES",
    "IPCP_FE_FOOTPRINTS",
    "IPCP_INTERVAL",
    "IPCP_NO_FASTPATH",
];

/// True when the spec's env overrides switch the simulation cache on for
/// the child (used to decide whether a stats drop-off is worth wiring).
fn spec_enables_simcache(spec: &JobSpec) -> bool {
    spec.env
        .iter()
        .rev()
        .find(|(k, _)| k == "IPCP_SIMCACHE")
        .map(|(_, v)| env::parse_bool("IPCP_SIMCACHE", Some(v), false).unwrap_or(false))
        .unwrap_or(false)
}

/// The child process for a spec: `<bin_dir>/<figure>` with every
/// catalogued `IPCP_*` variable removed, then exactly the spec's knobs
/// applied (residual overrides last).
fn child_command(spec: &JobSpec, bin_dir: &Path) -> Command {
    let mut cmd = Command::new(bin_dir.join(&spec.figure));
    for knob in KNOB_NAMES {
        cmd.env_remove(knob);
    }
    if let Some(s) = &spec.scale {
        cmd.env("IPCP_SCALE", s);
    }
    if let Some(m) = spec.mixes {
        cmd.env("IPCP_MIXES", m.to_string());
    }
    if let Some(i) = spec.interval {
        cmd.env("IPCP_INTERVAL", i.to_string());
    }
    if spec.no_fastpath {
        cmd.env("IPCP_NO_FASTPATH", "1");
    }
    if let Some(d) = &spec.csv_dir {
        cmd.env("IPCP_CSV", d);
    }
    if let Some(d) = &spec.json_dir {
        cmd.env("IPCP_JSON", d);
    }
    for (k, v) in &spec.env {
        cmd.env(k, v);
    }
    cmd
}

/// Runs one experiment job: spawns `<bin_dir>/<figure>` with exactly the
/// environment the spec describes, captures stdout+stderr to
/// `<results_dir>/<figure>.txt`, and records wall time, exit status, the
/// JSON sidecar path (when one appeared), and the child's simcache
/// counters (when the spec enables the cache).
///
/// Every catalogued `IPCP_*` variable is removed from the child
/// environment first, so the caller's ambient knobs cannot leak into the
/// run — the serial driver and pool threads spawning the same spec
/// produce byte-identical outputs.
pub fn execute(spec: &JobSpec, bin_dir: &Path, results_dir: &Path) -> ExperimentOutcome {
    let name = spec.figure.as_str();
    let output_path = results_dir.join(format!("{name}.txt"));
    let started = Instant::now();
    let mut cmd = child_command(spec, bin_dir);
    // When the spec turns the simulation cache on, give the child a
    // private stats drop-off so its hit/miss counters can be folded into
    // the manifest — unless the spec routed stats somewhere itself.
    let stats_path = Some(results_dir.join(format!("{name}.simcache.json")))
        .filter(|_| spec_enables_simcache(spec))
        .filter(|_| !spec.env.iter().any(|(k, _)| k == "IPCP_SIMCACHE_STATS"));
    if let Some(p) = &stats_path {
        cmd.env("IPCP_SIMCACHE_STATS", p);
    }
    let result = cmd.output();
    let wall = started.elapsed();
    let data_path = Some(results_dir.join(format!("{name}.data.json"))).filter(|p| p.exists());
    let simcache = stats_path.as_deref().and_then(read_simcache_stats);
    match result {
        Ok(out) => {
            let mut text = out.stdout;
            text.extend_from_slice(&out.stderr);
            let write_err = std::fs::write(&output_path, &text).err();
            let ok = out.status.success() && write_err.is_none();
            ExperimentOutcome {
                name: name.to_string(),
                exit_code: out.status.code(),
                ok,
                wall,
                output_path,
                data_path,
                spawn_error: write_err.map(|e| format!("writing output: {e}")),
                simcache,
            }
        }
        Err(e) => ExperimentOutcome {
            name: name.to_string(),
            exit_code: None,
            ok: false,
            wall,
            output_path,
            data_path,
            spawn_error: Some(e.to_string()),
            simcache,
        },
    }
}

/// Reads and deletes a child's `IPCP_SIMCACHE_STATS` drop-off. A missing
/// or malformed file is `None` (the child may have died before `finish`);
/// the manifest then simply carries no counters.
fn read_simcache_stats(path: &Path) -> Option<simcache::CacheStatsSnapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    let _ = std::fs::remove_file(path);
    let doc = JsonValue::parse(&text).ok()?;
    Some(simcache::CacheStatsSnapshot {
        hits: doc.get("hits")?.as_u64()?,
        misses: doc.get("misses")?.as_u64()?,
        stores: doc.get("stores")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The environment [`child_command`] builds for `spec`: every variable
    /// it sets (`Some`) or removes (`None`).
    fn child_env(spec: &JobSpec) -> HashMap<String, Option<String>> {
        let text = |s: &std::ffi::OsStr| s.to_str().unwrap().to_string();
        child_command(spec, Path::new("bin"))
            .get_envs()
            .map(|(k, v)| (text(k), v.map(text)))
            .collect()
    }

    // The spec's serialized form is the child environment `execute`
    // builds, so the round trips below go spec -> child environment.

    #[test]
    fn builder_and_json_round_trip() {
        let spec = JobSpec::new("fig07_l1_only")
            .scale_run(RunScale {
                warmup: 2_500,
                instructions: 10_000,
            })
            .mixes(1)
            .interval(5_000)
            .no_fastpath(true)
            .csv_dir("out/csv")
            .json_dir("out")
            .env("IPCP_SIMCACHE", "1");
        assert_eq!(spec.scale.as_deref(), Some("2500,10000"));
        let cmd = child_command(&spec, Path::new("bin"));
        assert_eq!(cmd.get_program(), Path::new("bin/fig07_l1_only"));
        let envs = child_env(&spec);
        let set = |k: &str| envs[k].as_deref();
        assert_eq!(set("IPCP_SCALE"), Some("2500,10000"));
        assert_eq!(set("IPCP_MIXES"), Some("1"));
        assert_eq!(set("IPCP_INTERVAL"), Some("5000"));
        assert_eq!(set("IPCP_NO_FASTPATH"), Some("1"));
        assert_eq!(set("IPCP_CSV"), Some("out/csv"));
        assert_eq!(set("IPCP_JSON"), Some("out"));
        assert_eq!(set("IPCP_SIMCACHE"), Some("1"));
        // Every catalogued knob the spec leaves unset is removed, never
        // inherited from the driver.
        for knob in ["IPCP_JOBS", "IPCP_SIMCACHE_DIR", "IPCP_FE_FOOTPRINTS"] {
            assert_eq!(set(knob), None, "{knob} must be cleared");
        }
    }

    #[test]
    fn minimal_spec_round_trips_and_omits_defaults() {
        let envs = child_env(&JobSpec::new("table1_storage"));
        assert_eq!(envs.len(), KNOB_NAMES.len());
        assert!(envs.values().all(Option::is_none), "{envs:?}");
    }

    #[test]
    fn empty_string_dirs_survive_round_trip() {
        // Some("") is "explicitly disabled" and must reach the child as an
        // empty value, not collapse to unset (the binary's default).
        let spec = JobSpec::new("fig10_coverage").csv_dir("").json_dir("");
        let envs = child_env(&spec);
        assert_eq!(envs["IPCP_CSV"].as_deref(), Some(""));
        assert_eq!(envs["IPCP_JSON"].as_deref(), Some(""));
    }

    #[test]
    fn scale_spec_rejects_malformed_values() {
        let err = JobSpec::new("x").scale_spec("10a,40000").unwrap_err();
        assert_eq!(err.knob, "IPCP_SCALE");
        assert_eq!(err.value, "10a,40000");
    }

    #[test]
    fn experiments_list_is_the_canonical_27() {
        assert_eq!(EXPERIMENTS.len(), 27);
        assert_eq!(EXPERIMENTS[0], "table1_storage");
        assert!(EXPERIMENTS.contains(&"fig15_multicore"));
        assert!(EXPERIMENTS.contains(&"fe01_l1i_mpki"));
        assert!(EXPERIMENTS.contains(&"fe04_mana_storage"));
    }

    #[test]
    fn simcache_detection_reads_the_last_override() {
        let off = JobSpec::new("f");
        assert!(!spec_enables_simcache(&off));
        let on = JobSpec::new("f").env("IPCP_SIMCACHE", "1");
        assert!(spec_enables_simcache(&on));
        let overridden = JobSpec::new("f")
            .env("IPCP_SIMCACHE", "1")
            .env("IPCP_SIMCACHE", "0");
        assert!(!spec_enables_simcache(&overridden));
    }

    #[test]
    fn execute_reports_unspawnable_binary() {
        let dir = std::env::temp_dir().join(format!("ipcp-jobspec-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let o = execute(&JobSpec::new("no_such_binary"), &dir, &dir);
        assert!(!o.ok);
        assert!(o.spawn_error.is_some());
        assert_eq!(o.exit_code, None);
        assert_eq!(o.data_path, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
