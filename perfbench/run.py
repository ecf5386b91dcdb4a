#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package and the repository binaries the `sweep`
workload drives (both release builds, into $CARGO_TARGET_DIR, default
`.bench_build`), runs `perfbench` for one workload, adds the peak resident
set size of its process tree, checks the metric names and units against
BENCHMARK.json, and prints the result object as the last line of stdout.
Exits non-zero, printing no result, if the build or the run fails. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Repository binaries the sweep workload runs.
SWEEP_BINS = [
    "experiments",
    "validate_results",
    "fig10_coverage",
    "ext_temporal",
    "fe01_l1i_mpki",
]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Cargo's own output goes to stderr; stdout is reserved for the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def run_bench(cmd, out_path):
    """Runs cmd with stdout to out_path; returns (exit status, peak RSS in MB
    of the process and every descendant it waited for)."""
    with open(out_path, "wb") as out:
        # Own process group, so a timeout also stops the sweep's driver and
        # figure processes.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=out, stdin=subprocess.DEVNULL, start_new_session=True
        )
    # Stop the group too if this script is asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: (os.killpg(proc.pid, signal.SIGKILL), sys.exit(1)))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload!r}")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Every run builds everything, so the first run of any workload carries
    # the whole build and later runs only check it is up to date.
    cargo(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], target)
    cargo(["-p", "ipcp-bench", "-p", "ipcp-tools"] + [f"--bin={b}" for b in SWEEP_BINS], target)

    bin_dir = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, peak_mb = run_bench(
            [
                os.path.join(bin_dir, "perfbench"),
                "--workload", a.workload,
                "--seed", str(a.seed),
                "--seconds", str(a.seconds),
                "--trace", str(a.trace),
                "--bin-dir", bin_dir,
                "--work-dir", os.path.join(work, "run"),
            ],
            os.path.join(work, "stdout"),
        )
        with open(os.path.join(work, "stdout")) as f:
            lines = f.read().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not lines:
        fail(f"perfbench exited with status {code}")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if a.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        # A layer the workload does not run has nothing to count or time.
        for m in wanted:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    names = {m["name"]: m["unit"] for m in wanted}
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"perfbench reported no {', '.join(missing)}")
    for name, m in metrics.items():
        if names.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not in BENCHMARK.json with that unit")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
