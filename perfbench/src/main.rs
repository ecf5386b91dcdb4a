//! `perfbench` — host-time benchmark of the IPCP simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --work-dir DIR
//! ```
//!
//! Workloads: `ipcp_1c`, `frontend_fdip` (in-process
//! simulations, see `sim.rs`) and `sweep` (the `experiments` driver, see
//! `sweep.rs`). `--trace 0` measures end-to-end metrics with no tracing;
//! `--trace 1` is the separate traced run that attributes host time to
//! layers. `--bin-dir` holds the repository's release binaries (`sweep`
//! only); `--work-dir` is scratch space. The last stdout line is the result
//! object; `perfbench/run.py` builds everything, runs this, and adds the
//! peak RSS, which needs the process tree's resource usage.

mod shims;
mod sim;
mod stats;
mod suite;
mod sweep;

use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let (mut bin_dir, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| die("--seconds needs a positive number"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                };
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| die("--workload is required")),
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.unwrap_or_else(|| die("--bin-dir is required")),
        work_dir: work_dir.unwrap_or_else(|| die("--work-dir is required")),
    }
}

fn main() {
    let a = parse_args();
    // Observability knobs change report bytes or timing; the traced run
    // sets the one it needs itself.
    for knob in ["IPCP_SCHED_STATS", "IPCP_PHASE_STATS", "IPCP_DEBUG_PF"] {
        std::env::remove_var(knob);
    }
    let mut out = if a.workload == "sweep" {
        std::fs::create_dir_all(&a.work_dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", a.work_dir.display())));
        sweep::run(&a.bin_dir, &a.work_dir, a.seconds, a.trace)
    } else {
        let spec = sim::spec(&a.workload)
            .unwrap_or_else(|| die(&format!("unknown workload {:?}", a.workload)));
        if a.trace {
            sim::run_traced(&spec, a.seed, a.seconds)
        } else {
            sim::run_untraced(&spec, a.seed, a.seconds)
        }
    };
    if !a.trace {
        let ok_share = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.metric("ok_share", "share", ok_share);
    }
    println!("{}", out.to_json());
}
