//! Command-line surface of the tools: an undeclared option, a value
//! option without its value or with one that does not parse, and an
//! unknown experiment name exit 2 with the usage before the tool does
//! anything, and a declared bare flag never swallows the next token. The
//! driver hands its settings to the figures it runs. A malformed knob
//! exits 2 before anything simulates. A tool whose stdout reader has gone
//! away exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipcp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, exe: &str, args: &[&str]) -> Output {
    run_with(dir, exe, args, &[])
}

/// `exe args` in `dir`, with no `IPCP_*` knob set.
fn command(dir: &PathBuf, exe: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new(exe);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("IPCP_") {
            cmd.env_remove(k);
        }
    }
    cmd.args(args).current_dir(dir);
    cmd
}

/// Runs `exe` in `dir` with no `IPCP_*` knob set but `env`.
fn run_with(dir: &PathBuf, exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    command(dir, exe, args)
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: "), "stderr: {stderr}");
}

#[test]
fn experiments_help_exits_2_without_running() {
    let dir = scratch("help");
    let out = run_in(&dir, env!("CARGO_BIN_EXE_experiments"), &["--help"]);
    assert_usage_error(&out, "unknown option --help");
    assert!(
        !dir.join("results").exists(),
        "an unknown flag must not start a sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_list_does_not_take_a_value() {
    let dir = scratch("list");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_experiments"),
        &["--list", "fig10_coverage"],
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "fig10_coverage"), "{stdout}");
    assert!(stdout.lines().any(|l| l == "table1_storage"), "{stdout}");
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_results_mistyped_gate_exits_2() {
    let dir = scratch("gate");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_validate_results"),
        &["--max-simcache-mises", "0"],
    );
    assert_usage_error(&out, "unknown option --max-simcache-mises");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_tool_rejects_a_mistyped_flag() {
    let dir = scratch("typo");
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_experiments"),
            &["--result-dir", "x"][..],
        ),
        (
            env!("CARGO_BIN_EXE_validate_results"),
            &["--results-dir", "x", "--compar", "y"],
        ),
        (env!("CARGO_BIN_EXE_ipcp_check"), &["--skip-orcale"]),
        (
            env!("CARGO_BIN_EXE_simrun"),
            &["bwaves-cs1", "--combbo", "ipcp"],
        ),
        (
            env!("CARGO_BIN_EXE_tracegen"),
            &["bwaves-cs1", "t.trace", "--instrucions", "10"],
        ),
        (env!("CARGO_BIN_EXE_perf_smoke"), &["--check"]),
    ] {
        let out = run_in(&dir, exe, args);
        assert_usage_error(&out, "unknown option --");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a rejected command line must leave nothing behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unparsable_values_and_unknown_names_exit_2() {
    let dir = scratch("values");
    for (exe, args, needle) in [
        (
            env!("CARGO_BIN_EXE_experiments"),
            &["fig99"][..],
            "unknown experiment \"fig99\"",
        ),
        (
            env!("CARGO_BIN_EXE_experiments"),
            &["--jobs", "abc"],
            "--jobs: cannot parse \"abc\"",
        ),
        (
            env!("CARGO_BIN_EXE_validate_results"),
            &["--min-simcache-hits", "xyz"],
            "--min-simcache-hits: cannot parse \"xyz\"",
        ),
    ] {
        let out = run_in(&dir, exe, args);
        assert_usage_error(&out, needle);
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected command line must not start a sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `IPCP_FE_FOOTPRINTS` reaches `fe01_l1i_mpki` through the driver: one
/// fe-deep footprint instead of the full ladder of four.
#[test]
fn experiments_passes_fe_footprints_to_fe01() {
    let dir = scratch("fe01");
    let out = run_with(
        &dir,
        env!("CARGO_BIN_EXE_experiments"),
        &["fe01_l1i_mpki", "--jobs", "1"],
        &[("IPCP_SCALE", "2000,5000"), ("IPCP_FE_FOOTPRINTS", "1")],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("results/fe01_l1i_mpki.txt")).unwrap();
    let deep: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("fe-deep-"))
        .collect();
    assert_eq!(deep.len(), 1, "{text}");
    assert!(deep[0].trim_start().starts_with("fe-deep-256k"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `IPCP_SCHED_STATS` stops each simulating tool with exit 2
/// before it simulates, as every other malformed knob does; the `System`
/// alone would read the unknown word as "on" and change report bytes.
#[test]
fn malformed_sched_stats_exits_2_before_running() {
    let dir = scratch("sched");
    let env = [("IPCP_SCHED_STATS", "maybe"), ("IPCP_SCALE", "1000,2000")];
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_experiments"),
            &["fe01_l1i_mpki", "--jobs", "1"][..],
        ),
        (
            env!("CARGO_BIN_EXE_simrun"),
            &["bwaves-cs1", "--warmup", "100", "--instructions", "1000"],
        ),
        (
            env!("CARGO_BIN_EXE_ipcp_check"),
            &["--skip-invariants", "--skip-oracle"],
        ),
        (
            env!("CARGO_BIN_EXE_perf_smoke"),
            &["--only", "none", "--iters", "1"],
        ),
    ] {
        let out = run_with(&dir, exe, args, &env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(
            stderr.contains("IPCP_SCHED_STATS") && stderr.contains("\"maybe\""),
            "{exe}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{exe} printed before failing");
    }
    assert!(
        !dir.join("results").exists(),
        "the driver must write no sidecar or report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// perf_smoke fingerprints every iteration's reports and reports them
/// identical; it writes no file.
#[test]
fn perf_smoke_checks_every_iteration() {
    let dir = scratch("perf-smoke");
    let out = run_with(
        &dir,
        env!("CARGO_BIN_EXE_perf_smoke"),
        &["--only", "ipcp", "--iters", "2"],
        &[("IPCP_SCALE", "1000,2000")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("ipcp: fingerprint ")
            && l.ends_with("identical across 2 iteration(s)")),
        "{stdout}"
    );
    assert!(stdout.contains(" instr/s "), "{stdout}");
    assert!(
        stdout.lines().all(|l| l.starts_with("ipcp: ")),
        "--only ran another bench: {stdout}"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A listing or printing command whose reader has already gone away (as
/// in `experiments --list | head -1`) stops quietly with status 0, where
/// `println!` would panic on `EPIPE` and exit 101.
#[test]
fn printing_to_a_closed_pipe_exits_0() {
    let dir = scratch("epipe");
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_experiments"), &["--list"][..]),
        (env!("CARGO_BIN_EXE_experiments"), &["--list-env"]),
        (env!("CARGO_BIN_EXE_tracegen"), &["--list"]),
        (
            env!("CARGO_BIN_EXE_tracegen"),
            &["bwaves-cs1", "t.trace", "--instructions", "10"],
        ),
        (
            env!("CARGO_BIN_EXE_simrun"),
            &["bwaves-cs1", "--warmup", "100", "--instructions", "1000"],
        ),
        (
            env!("CARGO_BIN_EXE_simrun"),
            &[
                "bwaves-cs1",
                "--warmup",
                "100",
                "--instructions",
                "1000",
                "--json",
            ],
        ),
        (env!("CARGO_BIN_EXE_validate_results"), &["--bench", bench]),
        (
            env!("CARGO_BIN_EXE_ipcp_check"),
            &["--skip-invariants", "--skip-oracle"],
        ),
        (
            env!("CARGO_BIN_EXE_perf_smoke"),
            &["--only", "none", "--iters", "1"],
        ),
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        // perf_smoke simulates before it prints: keep that tiny.
        let out = command(&dir, exe, args)
            .env("IPCP_SCALE", "1000,2000")
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
