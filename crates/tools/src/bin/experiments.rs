//! Parallel experiment driver: regenerates every figure and table of the
//! paper into `results/`, replacing the serial `run_all_experiments.sh`
//! loop.
//!
//! The figures are library functions (`ipcp_bench::figures`), and the
//! driver runs them in its own process. The ambient `IPCP_*` environment
//! is parsed once into a typed `JobSpec` (validated loudly up front — a
//! typo in any knob stops the sweep before the first simulation), and
//! every figure job runs under that value. The driver fans the jobs across
//! an `IPCP_JOBS`-sized worker pool (default: one worker per core), runs
//! each through `jobspec::execute`, writes each figure's text to
//! `results/<name>.txt`, and writes structured JSON results
//! (`results/<name>.json` per run plus a schema-4 `results/manifest.json`
//! with wall times, errors, and simcache counters).
//! Unless the caller already set `IPCP_JSON`, the driver routes it to the
//! results dir so every figure also drops its machine-readable sidecar at
//! `results/<name>.data.json`.
//! The per-experiment text outputs are byte-identical to a serial
//! (`IPCP_JOBS=1`) run: every simulation is deterministic and each figure
//! owns its output files exclusively. A figure that panics fails alone;
//! the others still run.
//!
//! Resume after a crash is a re-run: with `IPCP_SIMCACHE=1`, every
//! simulation a killed sweep finished is on disk, and the re-run replays
//! it instead of re-simulating.
//!
//! Exit status: 1 when any experiment fails, with a failure summary on
//! stderr — silent failures are a bug class of their own; 2 with the
//! usage on a command-line error.
//!
//! Usage:
//!   experiments [name ...] [--jobs N] [--results-dir DIR] [--list]
//!               [--list-env]
//!
//! With positional names only those experiments run. `--list-env` dumps
//! every `IPCP_*` knob with its current value. An unknown experiment name,
//! any other `--` option, `--jobs`/`--results-dir` without a value, or a
//! `--jobs` value that is not a count exits 2 with the usage before
//! anything runs.

use std::path::PathBuf;
use std::time::Instant;

use ipcp_bench::figures::{self, Figure, FIGURES};
use ipcp_bench::jobspec::{self, JobSpec};
use ipcp_bench::{env, harness};
use ipcp_tools::{outln, write_stdout, Args, Cli};

const CLI: Cli = Cli {
    usage: "usage: experiments [name ...] [--jobs N] [--results-dir DIR] [--list] [--list-env]",
    options: &["jobs", "results-dir"],
    flags: &["list", "list-env"],
};

fn main() {
    let args = Args::parse(&CLI);
    if args.has_flag("list") {
        for figure in FIGURES {
            outln!("{}", figure.name);
        }
        return;
    }
    if args.has_flag("list-env") {
        write_stdout(&env::render_catalogue());
        return;
    }

    if let Some(name) = args.positional.iter().find(|n| figures::find(n).is_none()) {
        CLI.fail(&format!("unknown experiment {name:?}; see --list"));
    }
    let selected: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| args.positional.is_empty() || args.positional.iter().any(|p| p == f.name))
        .collect();

    let jobs = args
        .get_or("jobs", harness::jobs_from_env())
        .unwrap_or_else(|e| CLI.fail(&e));
    let results_dir = PathBuf::from(
        args.options
            .get("results-dir")
            .cloned()
            .unwrap_or_else(|| "results".to_string()),
    );

    // The ambient environment is checked once, loudly, and frozen into
    // the one spec every job runs under. Sidecars default into the results
    // dir unless the caller routed (or disabled) them explicitly.
    let mut spec = JobSpec::from_ambient();
    if spec.json_dir.is_none() {
        spec.json_dir = Some(results_dir.display().to_string());
    }
    std::fs::create_dir_all(&results_dir).expect("cannot create results dir");

    let scale = spec.scale.clone().unwrap_or_else(|| "default".to_string());
    eprintln!(
        "running {} experiment(s) on {} worker(s) (IPCP_JOBS), scale {scale} -> {}",
        selected.len(),
        jobs,
        results_dir.display()
    );

    let started = Instant::now();
    let outcomes = harness::parallel_map(jobs, selected, |figure| {
        let o = jobspec::execute(figure, &spec, &results_dir);
        let status = if o.ok { "ok" } else { "FAILED" };
        eprintln!("== {} {status} ({:.1}s)", o.name, o.wall.as_secs_f64());
        o
    });
    let total_wall = started.elapsed();

    harness::write_results_json(&results_dir, jobs, &scale, total_wall, &outcomes)
        .expect("cannot write JSON results");

    let failed: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
    eprintln!(
        "{}/{} experiments ok in {:.1}s (manifest: {})",
        outcomes.len() - failed.len(),
        outcomes.len(),
        total_wall.as_secs_f64(),
        results_dir.join("manifest.json").display()
    );
    if !failed.is_empty() {
        eprintln!("FAILURE SUMMARY:");
        for o in &failed {
            eprintln!(
                "  {}: {} (output: {})",
                o.name,
                o.error.as_deref().unwrap_or("failed"),
                o.output_path.display()
            );
        }
        std::process::exit(1);
    }
}
