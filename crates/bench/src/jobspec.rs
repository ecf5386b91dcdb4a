//! [`JobSpec`]: the typed settings every figure job runs under, and
//! [`execute`], which runs one figure as one job of a sweep.
//!
//! The spec is parsed once from the `IPCP_*` environment
//! ([`JobSpec::from_ambient`], loud on any malformed knob) and handed to
//! each figure's [`Experiment`](crate::runner::Experiment) as a value; no
//! figure reads the environment. The `experiments` driver runs every job
//! through [`execute`], serially (`IPCP_JOBS=1`) or on its worker pool,
//! in its own process — one code path, so pooled and serial sweeps
//! produce byte-identical outputs.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::env;
use crate::figures::Figure;
use crate::harness::ExperimentOutcome;
use crate::runner::RunScale;

/// The settings of a figure job. [`JobSpec::default`] is every knob
/// unset; [`JobSpec::from_ambient`] reads them from the environment.
///
/// `csv_dir`/`json_dir` distinguish "unset" (`None`) from "explicitly
/// empty" (`Some("")`: disabled) — the three states the environment
/// variables have. Only the driver tells the two apart: it routes an
/// unset `json_dir` to its results dir.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// `IPCP_SCALE` spec (`"paper"` or `"<warmup>,<instructions>"`);
    /// `None` runs each figure at its default scale.
    pub scale: Option<String>,
    /// `IPCP_MIXES`: random 4-core mixes in `fig15_multicore`.
    pub mixes: usize,
    /// `IPCP_FE_FOOTPRINTS`: fe-deep footprint-ladder traces (smallest
    /// first) `fe01_l1i_mpki` sweeps.
    pub fe_footprints: usize,
    /// `IPCP_INTERVAL` sampler period.
    pub interval: Option<u64>,
    /// `IPCP_NO_FASTPATH`: simulate on the naive (oracle) paths.
    pub no_fastpath: bool,
    /// `IPCP_CSV` directory.
    pub csv_dir: Option<String>,
    /// `IPCP_JSON` sidecar directory.
    pub json_dir: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            scale: None,
            mixes: 4,
            fe_footprints: 4,
            interval: None,
            no_fastpath: false,
            csv_dir: None,
            json_dir: None,
        }
    }
}

impl JobSpec {
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

    /// The settings in the ambient `IPCP_*` environment. Validates every
    /// knob a job depends on, `IPCP_SIMCACHE` included: a set-but-malformed
    /// knob prints its name and value and exits with status 2
    /// ([`env::or_die`]), so a typo stops a sweep before the first
    /// simulation.
    pub fn from_ambient() -> Self {
        let parse = || -> Result<Self, env::EnvError> {
            env::simcache_enabled()?;
            let defaults = Self::default();
            let mut spec = match env::raw("IPCP_SCALE")? {
                Some(scale) => defaults.scale_spec(&scale)?,
                None => defaults,
            };
            spec.mixes = env::mixes(spec.mixes)?;
            spec.fe_footprints = env::fe_footprints(spec.fe_footprints)?;
            spec.interval = env::interval()?;
            spec.no_fastpath = env::no_fastpath()?;
            spec.csv_dir = env::raw("IPCP_CSV")?;
            spec.json_dir = env::raw("IPCP_JSON")?;
            Ok(spec)
        };
        env::or_die(parse())
    }
}

/// Runs one figure job on the calling thread: the figure under `spec`,
/// its text written to `<results_dir>/<name>.txt`, its CSVs and sidecar
/// wherever `spec` routes them. Records the wall time, the sidecar's path,
/// and the figure's simulation-cache counters (when the cache is on).
///
/// A figure that panics fails alone: the outcome is `ok: false` with the
/// panic message as its error and as the text of `<name>.txt`, and the
/// caller's other jobs run on.
pub fn execute(figure: &Figure, spec: &JobSpec, results_dir: &Path) -> ExperimentOutcome {
    let output_path = results_dir.join(format!("{}.txt", figure.name));
    let started = Instant::now();
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let exp = figure.run(spec);
        let data_path = exp.write_outputs();
        (exp, data_path)
    }));
    let (text, error, data_path, simcache) = match run {
        Ok((exp, data_path)) => (exp.render_text(), None, data_path, exp.cache_stats()),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            let text = format!("{} panicked: {msg}\n", figure.name);
            (text, Some(format!("panicked: {msg}")), None, None)
        }
    };
    let write_error = std::fs::write(&output_path, text)
        .err()
        .map(|e| format!("writing output: {e}"));
    let error = error.or(write_error);
    ExperimentOutcome {
        name: figure.name.to_string(),
        ok: error.is_none(),
        wall: started.elapsed(),
        output_path,
        data_path,
        error,
        simcache,
    }
}

/// The message a panic carried (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "(non-string panic payload)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FIGURES;
    use crate::harness::parallel_map;
    use crate::runner::{Experiment, Table};

    #[test]
    fn scale_spec_rejects_malformed_values() {
        let err = JobSpec::default().scale_spec("10a,40000").unwrap_err();
        assert_eq!(err.knob, "IPCP_SCALE");
        assert_eq!(err.value, "10a,40000");
    }

    #[test]
    fn experiments_list_is_the_canonical_27() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 27);
        assert_eq!(names[0], "table1_storage");
        assert!(names.contains(&"fig15_multicore"));
        assert!(names.contains(&"fe01_l1i_mpki"));
        assert!(names.contains(&"fe04_mana_storage"));
        for (i, name) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(name), "{name} registered twice");
            assert_eq!(crate::figures::find(name).unwrap().name, *name);
        }
    }

    fn panicking(_: &mut Experiment) {
        panic!("figure went wrong");
    }

    fn one_table(exp: &mut Experiment) {
        exp.table(Table::new("T", &["a"]));
    }

    /// One figure of a pooled sweep panics: it alone is reported failed,
    /// with its message, and the figure after it still succeeds.
    #[test]
    fn execute_reports_a_panicking_figure() {
        let dir = std::env::temp_dir().join(format!("ipcp-jobspec-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let figures = vec![
            Figure {
                name: "bad_figure",
                body: panicking,
            },
            Figure {
                name: "good_figure",
                body: one_table,
            },
        ];
        let spec = JobSpec {
            json_dir: Some(dir.display().to_string()),
            ..JobSpec::default()
        };
        let outcomes = parallel_map(2, figures, |f| execute(&f, &spec, &dir));
        let (bad, good) = (&outcomes[0], &outcomes[1]);
        assert!(!bad.ok);
        let error = bad.error.as_deref().unwrap();
        assert!(error.contains("figure went wrong"), "{error}");
        let text = std::fs::read_to_string(&bad.output_path).unwrap();
        assert!(text.contains("figure went wrong"), "{text}");
        assert_eq!(bad.data_path, None);
        assert!(good.ok, "{:?}", good.error);
        assert_eq!(good.data_path, Some(dir.join("good_figure.data.json")));
        assert!(std::fs::read_to_string(&good.output_path)
            .unwrap()
            .starts_with("== T\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
