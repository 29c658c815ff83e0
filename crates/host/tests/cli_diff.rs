//! The `scenarios diff` and `scenarios check` exit-code contracts,
//! exercised as real CLI invocations of the built binary:
//!
//! * exit **0** — the runs align and no gated metric drifted; `check`:
//!   the scenario reproduced its baseline and its claims;
//! * exit **1** — a gated metric drifted beyond the tolerance (or a row
//!   vanished), the observatory's fail-closed verdict (`check`'s exit-1
//!   paths are tested on mutated reports in `hatric_host::check`);
//! * exit **2** — usage, IO or parse errors (missing files, bad flags).

use std::path::PathBuf;
use std::process::{Command, Output};

use hatric_host::scenario::{Row, ScenarioReport};

/// A small report in the committed `BENCH_*.json` schema, carrying
/// multivm's gated metric so `--scenario multivm` gates the diff.
fn report(slowdown: f64) -> ScenarioReport {
    let mut report = ScenarioReport::new("multivm");
    for (label, factor) in [("mild", 1.0), ("severe", 2.0)] {
        report.push(
            Row::new("pressure", label, "Software")
                .ratio("victim_slowdown_vs_ideal", slowdown * factor)
                .count("host_runtime_cycles", 100_000),
        );
    }
    report
}

/// Writes `body` to a unique temp file and returns its path.
fn temp_report(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hatric_cli_diff_{}_{name}", std::process::id()));
    std::fs::write(&path, body).expect("temp dir is writable");
    path
}

fn scenarios_diff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .arg("diff")
        .args(args)
        .output()
        .expect("the scenarios binary runs")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("the CLI exits, not signals")
}

#[test]
fn self_diff_exits_zero() {
    let a = temp_report("self_a.json", &report(1.25).to_json());
    let b = temp_report("self_b.json", &report(1.25).to_json());
    let out = scenarios_diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--scenario",
        "multivm",
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 regression(s)"), "stdout: {stdout}");
}

#[test]
fn gated_drift_exits_one() {
    let a = temp_report("drift_a.json", &report(1.0).to_json());
    // 50% drift on the gated victim_slowdown_vs_ideal, far past the
    // default 10% tolerance.
    let b = temp_report("drift_b.json", &report(1.5).to_json());
    let out = scenarios_diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--scenario",
        "multivm",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "stdout: {stdout}");

    // A generous tolerance turns the same drift back into exit 0.
    let out = scenarios_diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--scenario",
        "multivm",
        "--tolerance",
        "0.9",
    ]);
    assert_eq!(exit_code(&out), 0);

    // A vanished row fails closed even without gated metrics.
    let mut truncated = report(1.0);
    truncated.rows.pop();
    let b = temp_report("drift_truncated.json", &truncated.to_json());
    let out = scenarios_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
}

#[test]
fn usage_and_io_errors_exit_two() {
    let a = temp_report("usage_a.json", &report(1.0).to_json());
    // Missing file.
    let out = scenarios_diff(&[a.to_str().unwrap(), "/nonexistent/run-b.json"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Only one report file.
    let out = scenarios_diff(&[a.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2);

    // Unknown flag and unknown scenario.
    let b = temp_report("usage_b.json", &report(1.0).to_json());
    let out = scenarios_diff(&[a.to_str().unwrap(), b.to_str().unwrap(), "--bogus", "x"]);
    assert_eq!(exit_code(&out), 2);
    let out = scenarios_diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--scenario",
        "no_such_scenario",
    ]);
    assert_eq!(exit_code(&out), 2);

    // Unparseable report body.
    let garbage = temp_report("usage_garbage.json", "not json");
    let out = scenarios_diff(&[garbage.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2);

    // An unknown top-level command is also usage exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .arg("frobnicate")
        .output()
        .expect("the scenarios binary runs");
    assert_eq!(exit_code(&out), 2);
}

fn scenarios_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .arg("check")
        .args(args)
        .output()
        .expect("the scenarios binary runs")
}

#[test]
fn check_of_a_reproduced_scenario_exits_zero() {
    let out = scenarios_check(&["xen"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 0, "stdout: {stdout}");
    assert!(
        stdout.contains("xen/canneal/Hatric runtime_vs_sw"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains(
            "check: 4 gated metric(s) compared with their committed baselines, 0 drifted"
        ),
        "stdout: {stdout}"
    );
}

#[test]
fn check_usage_errors_exit_two() {
    for args in [
        &["no_such_scenario"][..],
        &["xen", "--scale", "smoke"],
        &["--scale"],
        &["xen", "multivm"],
        &["xen", "--set", "seed=1"],
    ] {
        let out = scenarios_check(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}
