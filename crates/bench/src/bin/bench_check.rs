//! CI regression gate over the committed bench baselines.
//!
//! One generic loop over the scenario registry: every scenario with a
//! committed baseline (`Scenario::baseline_stem`) is re-run at
//! `Scale::Bench` — the exact scale and seeds the baselines were recorded
//! at — and its
//! gated metrics (`Scenario::gated_metrics`, smaller-is-better) are
//! compared against the committed `BENCH_*.json` by the same diff engine
//! the `scenarios diff` observatory exposes
//! ([`hatric_host::diff::diff_reports`] with [`DiffOptions::gate`]):
//!
//! * every gated metric on every (config, mechanism) row must equal its
//!   baseline exactly — drift in either direction fails.
//!
//! The NUMA scenario additionally asserts its headline claim while it runs
//! (HATRIC victim slowdown ≤ software's in every configuration, gap
//! widening monotonically with the remote-access ratio) — a model change
//! that breaks the claim aborts the gate outright.
//!
//! The simulator is bit-deterministic for a fixed seed, so on an unchanged
//! tree the fresh numbers equal the baselines exactly.  The fresh report
//! is compared after a round trip through its JSON form, at the precision
//! the baselines are written in.  A change that moves a gated number on
//! purpose must re-commit the baseline.  The gate fails closed: a fresh row with no
//! committed baseline (missing/corrupt JSON, renamed sweep point) is an
//! error too — regenerate the baseline with
//! `scenarios run <name> --scale bench --json BENCH_<stem>.json` and
//! commit it.
//!
//! Run with: `cargo run --release -p hatric-bench --bin bench_check`

use hatric_bench::baseline_path;
use hatric_host::diff::{diff_reports, DiffOptions, MetricDelta};
use hatric_host::scenario::{registry, Params, Scale, ScenarioReport};

/// The parallel slice engine's determinism contract, enforced on the
/// freshly collected `host_scale` report: rows that differ only in their
/// thread count must carry bit-identical *model* metrics (the timing
/// columns are machine-dependent and exempt).
fn check_thread_determinism(report: &ScenarioReport) -> usize {
    const MODEL_METRICS: [&str; 4] = [
        "host_runtime_cycles",
        "accesses",
        "aggressor_remaps",
        "host_disrupted_cycles",
    ];
    let mut drifted = 0;
    for row in &report.rows {
        let vcpus = row.number("vcpus").expect("host_scale rows carry vcpus");
        let base = report
            .rows
            .iter()
            .find(|r| r.number("vcpus") == Some(vcpus))
            .expect("the first row of a vcpus group exists");
        for metric in MODEL_METRICS {
            if row.number(metric) != base.number(metric) {
                drifted += 1;
                println!(
                    "  DRIFTED  host_scale/{}: {metric} {:?} != {:?} (threads must not \
                     change model metrics)",
                    row.label(),
                    row.number(metric),
                    base.number(metric)
                );
            }
        }
    }
    drifted
}

fn main() {
    let mut deltas: Vec<(String, MetricDelta)> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    let mut thread_drift = 0usize;

    for scenario in registry() {
        let Some(path) = baseline_path(scenario.name()) else {
            continue; // table-only scenario, nothing committed to gate
        };
        let report = scenario
            .run(&Params::new(), Scale::Bench)
            .unwrap_or_else(|err| {
                panic!("{}: default parameters are valid: {err}", scenario.name())
            });
        if scenario.name() == "host_scale" {
            thread_drift += check_thread_determinism(&report);
        }
        // Compare at the precision the baselines are written in.
        let report = ScenarioReport::from_json(scenario.name(), &report.to_json())
            .expect("a fresh report parses back from its own JSON");
        let baseline = std::fs::read_to_string(&path)
            .map_err(|err| eprintln!("bench_check: cannot read baseline {path}: {err}"))
            .ok()
            .and_then(|text| ScenarioReport::from_json(scenario.name(), &text));
        let Some(baseline) = baseline else {
            // No parseable baseline at all: every fresh gated row is
            // uncovered, which the fail-closed verdict below rejects.
            for row in &report.rows {
                for &metric in scenario.gated_metrics() {
                    missing.push(format!(
                        "{}/{}/{} {metric}",
                        scenario.name(),
                        row.label(),
                        row.mechanism()
                    ));
                }
            }
            continue;
        };
        // The same engine `scenarios diff` runs, in gate mode: baseline as
        // run A, the fresh report as run B, exact on the gated metrics.
        let diff = diff_reports(
            &baseline,
            &report,
            scenario.gated_metrics(),
            DiffOptions::gate(0.0),
        );
        deltas.extend(
            diff.deltas
                .into_iter()
                .map(|d| (scenario.name().to_string(), d)),
        );
        // Both alignment failures disable part of the gate: a baseline row
        // the fresh run no longer produces, and a fresh row the committed
        // baseline has never seen.
        missing.extend(
            diff.missing
                .iter()
                .map(|m| format!("{}/{m}", scenario.name())),
        );
        missing.extend(
            diff.extra
                .iter()
                .map(|row| format!("{}/{row}: no committed baseline row", scenario.name())),
        );
    }

    // ----- verdict ---------------------------------------------------------
    let mut drifted = 0;
    for (scenario, delta) in &deltas {
        let verdict = if delta.regressed {
            drifted += 1;
            "DRIFTED"
        } else {
            "ok"
        };
        println!(
            "{verdict:>9}  {:<72} baseline {:>16.6}  current {:>16.6}  ({:+.1}%)",
            format!("{scenario}/{} {}", delta.row, delta.metric),
            delta.a,
            delta.b,
            delta.delta_percent()
        );
    }
    for label in &missing {
        println!("  MISSING  {label}: no committed baseline row");
    }
    if !missing.is_empty() {
        // Fail closed: a missing row means a baseline file is absent or
        // stale (e.g. a renamed sweep point), which would otherwise
        // silently disable that part of the gate.
        let baselines: Vec<String> = registry()
            .iter()
            .filter_map(|s| s.baseline_stem())
            .map(|stem| format!("BENCH_{stem}.json"))
            .collect();
        eprintln!(
            "bench_check: {} row(s) have no committed baseline — regenerate them \
             with `scenarios run <name> --scale bench --json BENCH_<stem>.json` \
             and commit {}",
            missing.len(),
            baselines.join(" / ")
        );
        std::process::exit(1);
    }
    if thread_drift > 0 {
        eprintln!(
            "bench_check: {thread_drift} model metric(s) drifted across thread counts — \
             the slice engine's determinism contract is broken"
        );
        std::process::exit(1);
    }
    if drifted > 0 {
        eprintln!(
            "bench_check: {drifted} metric(s) differ from their committed baselines — \
             investigate, or re-commit the baselines if the change is intended"
        );
        std::process::exit(1);
    }
    println!(
        "bench_check: {} metrics equal their committed baselines",
        deltas.len()
    );
}
