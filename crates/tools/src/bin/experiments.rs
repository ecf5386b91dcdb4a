//! Parallel experiment driver: regenerates every figure and table of the
//! paper into `results/`, replacing the serial `run_all_experiments.sh`
//! loop.
//!
//! Each experiment is described by a typed [`JobSpec`] snapshotted from
//! the ambient `IPCP_*` environment (validated loudly up front — a typo
//! in any knob stops the sweep before the first simulation). The driver
//! fans the specs across an `IPCP_JOBS`-sized worker pool (default: one
//! worker per core), executes each through the spec-authoritative
//! [`jobspec::execute`], captures each binary's output to
//! `results/<name>.txt`, and writes structured JSON results
//! (`results/<name>.json` per run plus a schema-3 `results/manifest.json`
//! with wall times, exit statuses, and simcache counters).
//! Unless the caller already set `IPCP_JSON`, the driver routes it to the
//! results dir so every figure also drops its machine-readable sidecar at
//! `results/<name>.data.json`.
//! The per-experiment text outputs are byte-identical to a serial
//! (`IPCP_JOBS=1`) run: every simulation is deterministic and each binary
//! owns its output file exclusively.
//!
//! Resume after a crash is a re-run: with `IPCP_SIMCACHE=1`, every
//! simulation a killed sweep finished is on disk, and the re-run replays
//! it instead of re-simulating.
//!
//! Exit status: non-zero when any experiment fails, with a failure summary
//! on stderr — silent failures are a bug class of their own.
//!
//! Usage:
//!   experiments [name ...] [--jobs N] [--results-dir DIR] [--list]
//!               [--list-env]
//!
//! With positional names only those experiments run (unknown names are an
//! error). `--list-env` dumps every `IPCP_*` knob with its current value.

use std::path::PathBuf;
use std::time::Instant;

use ipcp_bench::jobspec::{self, JobSpec, EXPERIMENTS};
use ipcp_bench::{env, harness};
use ipcp_tools::Args;

fn main() {
    let args = Args::parse();
    if args.has_flag("list") {
        for name in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    if args.has_flag("list-env") {
        print!("{}", env::render_catalogue());
        return;
    }

    let selected: Vec<&str> = if args.positional.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        for name in &args.positional {
            assert!(
                EXPERIMENTS.contains(&name.as_str()),
                "unknown experiment {name:?}; see --list"
            );
        }
        EXPERIMENTS
            .iter()
            .copied()
            .filter(|e| args.positional.iter().any(|p| p == e))
            .collect()
    };

    let jobs = args.get_or("jobs", harness::jobs_from_env());
    let results_dir = PathBuf::from(
        args.options
            .get("results-dir")
            .cloned()
            .unwrap_or_else(|| "results".to_string()),
    );
    std::fs::create_dir_all(&results_dir).expect("cannot create results dir");

    // Experiment binaries live next to this driver (target/<profile>/).
    let bin_dir = std::env::current_exe()
        .expect("cannot locate current executable")
        .parent()
        .expect("executable has a parent directory")
        .to_path_buf();
    // Fail fast: a missing binary means a broken build, not 22 good
    // experiments and one silent hole.
    for name in &selected {
        let p = bin_dir.join(name);
        assert!(
            p.exists(),
            "experiment binary missing: {} (build ipcp-bench first)",
            p.display()
        );
    }

    // One validated spec per experiment: the ambient environment is
    // checked once, loudly, and frozen — execution is spec-authoritative,
    // so nothing the pool threads inherit can change a result. Sidecars
    // default into the results dir unless the caller routed (or disabled)
    // them explicitly.
    let specs: Vec<JobSpec> = selected
        .iter()
        .map(|name| {
            let mut spec = env::or_die(JobSpec::from_ambient(*name));
            if spec.json_dir.is_none() {
                spec.json_dir = Some(results_dir.display().to_string());
            }
            spec
        })
        .collect();

    let scale_env = env::or_die(env::raw("IPCP_SCALE")).unwrap_or_else(|| "default".to_string());
    eprintln!(
        "running {} experiment(s) on {} worker(s) (IPCP_JOBS), scale {scale_env} -> {}",
        specs.len(),
        jobs,
        results_dir.display()
    );

    let started = Instant::now();
    let outcomes = harness::parallel_map(jobs, specs, |spec| {
        let o = jobspec::execute(&spec, &bin_dir, &results_dir);
        if o.ok {
            eprintln!("== {} ok ({:.1}s)", o.name, o.wall.as_secs_f64());
        } else {
            eprintln!("== {} FAILED ({:.1}s)", o.name, o.wall.as_secs_f64());
        }
        o
    });
    let total_wall = started.elapsed();

    harness::write_results_json(&results_dir, jobs, &scale_env, total_wall, &outcomes)
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
            match (&o.spawn_error, o.exit_code) {
                (Some(e), _) => eprintln!("  {}: {e}", o.name),
                (None, Some(code)) => {
                    eprintln!(
                        "  {}: exit code {code} (output: {})",
                        o.name,
                        o.output_path.display()
                    );
                }
                (None, None) => {
                    eprintln!(
                        "  {}: killed by signal (output: {})",
                        o.name,
                        o.output_path.display()
                    );
                }
            }
        }
        std::process::exit(1);
    }
}
