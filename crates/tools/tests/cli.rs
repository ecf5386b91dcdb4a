//! Command-line surface of the tools: an undeclared option or a value
//! option without its value exits 2 with the usage before the tool does
//! anything, and a declared bare flag never swallows the next token.

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
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env_remove("IPCP_SCALE")
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
