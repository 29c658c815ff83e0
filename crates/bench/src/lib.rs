//! Shared helpers for the benchmark harness.
//!
//! Every bench target in this crate does two things:
//!
//! 1. **Regenerates its figure/table** at a moderate scale
//!    ([`figure_params`], or the scenario registry's `Scale::Bench`) and
//!    prints it, so `cargo bench` leaves behind the same rows/series the
//!    paper reports.  Set `HATRIC_BENCH_SKIP_TABLES=1` to skip this step
//!    when only the timing measurements are of interest.
//! 2. **Measures** a representative simulation kernel with Criterion at a
//!    small scale ([`kernel_params`]) so regressions in simulator
//!    performance are visible over time.
//!
//! Scenario benches (`multivm_interference`, `migration_downtime`,
//! `numa_contention`) drive the unified registry in
//! [`hatric_host::scenario`]: [`collect_records`] runs a scenario at
//! `Scale::Bench`, [`baseline_path`] resolves its committed `BENCH_*.json`
//! trajectory, and [`write_baseline`] re-emits it — one codepath shared
//! with the `bench_check` CI regression gate, per registered scenario.

#![deny(missing_docs)]

use hatric::experiments::ExperimentParams;
use hatric_host::scenario::{
    append_meta_record, bench_meta_json, find, Params, Scale, ScenarioReport,
};

pub use hatric_host::scenario::{parse_json_records, record_field};

/// Parameters used to regenerate the printed figure tables (delegated to
/// the scenario layer's bench-scale sizing so the two can never drift).
#[must_use]
pub fn figure_params() -> ExperimentParams {
    hatric_host::scenario::fig_bench_params()
}

/// Parameters for the Criterion-timed kernels (much smaller).
#[must_use]
pub fn kernel_params() -> ExperimentParams {
    ExperimentParams {
        vcpus: 4,
        fast_pages: 256,
        warmup: 400,
        measured: 600,
        seed: hatric::DEFAULT_SEED,
    }
}

/// Number of multiprogrammed mixes regenerated by the Fig. 10 bench.  The
/// paper uses 80; the default here keeps `cargo bench` under a few minutes.
/// Override with `HATRIC_BENCH_MIXES`.
#[must_use]
pub fn mix_count() -> usize {
    std::env::var("HATRIC_BENCH_MIXES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Whether the table-regeneration step should be skipped.
#[must_use]
pub fn skip_tables() -> bool {
    std::env::var("HATRIC_BENCH_SKIP_TABLES")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Parameters for the Criterion-timed multi-VM host kernel (much smaller
/// than the table-regeneration scale).
#[must_use]
pub fn multivm_quick_params() -> hatric_host::experiments::MultiVmParams {
    hatric_host::experiments::MultiVmParams::quick()
}

/// Runs a registered scenario at `Scale::Bench` — the exact sweep, sizing
/// and seeds its committed `BENCH_*.json` baseline was recorded at — and
/// returns its report.  With `print` set, the report table goes to stdout
/// as `cargo bench` shows it.
///
/// # Panics
///
/// Panics if `name` is not registered or its default bench parameters fail
/// validation (they never do for the built-in scenarios), or — for the
/// NUMA scenario — if the sweep's headline claim no longer holds (HATRIC's
/// victim slowdown must not exceed software's anywhere, and the
/// software-vs-HATRIC gap must widen monotonically with the remote-access
/// ratio).
#[must_use]
pub fn collect_records(name: &str, print: bool) -> ScenarioReport {
    let scenario = find(name).unwrap_or_else(|| panic!("scenario `{name}` is not registered"));
    let report = scenario
        .run(&Params::new(), Scale::Bench)
        .unwrap_or_else(|err| panic!("scenario `{name}` default params are valid: {err}"));
    if print {
        println!("\n{}", report.format_table());
    }
    report
}

/// Path of a registered scenario's trajectory/baseline JSON:
/// `$HATRIC_BENCH_<STEM>_JSON` if set (e.g. `HATRIC_BENCH_MIGRATION_JSON`),
/// or `BENCH_<stem>.json` at the workspace root (cargo runs bench binaries
/// with `crates/bench` as their working directory, so the root is reached
/// via `CARGO_MANIFEST_DIR`).  The bench writers and the `bench_check`
/// gate both resolve through here so they can never point at different
/// files.
///
/// Returns `None` for scenarios without a committed baseline (the
/// fig/xen table regenerators).
#[must_use]
pub fn baseline_path(name: &str) -> Option<String> {
    let stem = find(name)?.baseline_stem()?;
    let env_key = format!("HATRIC_BENCH_{}_JSON", stem.to_uppercase());
    if let Ok(path) = std::env::var(&env_key) {
        return Some(path);
    }
    Some(format!(
        "{}/../../BENCH_{stem}.json",
        env!("CARGO_MANIFEST_DIR")
    ))
}

/// Serialises a scenario report to its baseline path (see
/// [`baseline_path`]) and returns the path written.  A trailing ungated
/// `"meta"` environment record (host parallelism, worker-thread count,
/// engine-phase wall-clock totals) is appended at this writer layer only —
/// the report's own rows, and everything `bench_check` gates on, stay
/// byte-identical run to run.
///
/// # Errors
///
/// Returns an error if the scenario has no baseline or the file cannot be
/// written.
pub fn write_baseline(report: &ScenarioReport) -> std::io::Result<String> {
    let path = baseline_path(&report.scenario).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("scenario `{}` has no committed baseline", report.scenario),
        )
    })?;
    let threads = find(&report.scenario)
        .map(|s| s.default_params(Scale::Bench))
        .and_then(|p| p.get("threads").and_then(|v| v.parse::<u64>().ok()));
    let body = append_meta_record(&report.to_json(), &bench_meta_json(threads));
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_host::scenario::{registry, Row};

    #[test]
    fn kernel_is_smaller_than_figure_scale() {
        assert!(kernel_params().measured < figure_params().measured);
        assert!(kernel_params().vcpus < figure_params().vcpus);
    }

    #[test]
    fn mix_count_has_a_sane_default() {
        let n = mix_count();
        assert!(n >= 1);
    }

    #[test]
    fn baseline_paths_cover_exactly_the_gated_scenarios() {
        for scenario in registry() {
            let path = baseline_path(scenario.name());
            assert_eq!(
                path.is_some(),
                scenario.baseline_stem().is_some(),
                "{}: baseline_path must mirror baseline_stem",
                scenario.name()
            );
            if let (Some(path), Some(stem)) = (path, scenario.baseline_stem()) {
                assert!(
                    path.ends_with(&format!("BENCH_{stem}.json")),
                    "{path} must end in BENCH_{stem}.json"
                );
            }
        }
        assert!(baseline_path("no_such_scenario").is_none());
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let row = Row::new("scenario", "precopy", "Software")
            .count("downtime_cycles", 987_654)
            .ratio("victim_slowdown_vs_ideal", 1.25);
        let json = format!("[\n  {}\n]\n", row.to_json());
        let parsed = parse_json_records(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(record_field(&parsed[0], "scenario"), Some("precopy"));
        assert_eq!(record_field(&parsed[0], "mechanism"), Some("Software"));
        assert_eq!(record_field(&parsed[0], "downtime_cycles"), Some("987654"));
        assert_eq!(
            record_field(&parsed[0], "victim_slowdown_vs_ideal"),
            Some("1.250000")
        );
        assert_eq!(record_field(&parsed[0], "missing"), None);
    }

    #[test]
    fn parser_handles_multiple_records_and_garbage() {
        let text = "[\n  {\"a\":\"x\",\"n\":1},\n  {\"a\":\"y\",\"n\":2}\n]\n";
        let parsed = parse_json_records(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(record_field(&parsed[1], "a"), Some("y"));
        assert!(parse_json_records("not json at all").is_empty());
        assert!(parse_json_records("").is_empty());
    }

    #[test]
    fn committed_baselines_parse_and_match_the_registry_schema() {
        // Every gated scenario's committed baseline must exist and its
        // records must carry the scenario's gated metrics — the regression
        // gate fails closed otherwise.
        for scenario in registry() {
            let Some(path) = baseline_path(scenario.name()) else {
                continue;
            };
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));
            let records = parse_json_records(&text);
            assert!(!records.is_empty(), "{path} has no records");
            for record in &records {
                // The trailing environment-metadata record is ungated by
                // design: machine-dependent, no mechanism, no metrics.
                if record_field(record, "meta").is_some() {
                    continue;
                }
                assert!(record_field(record, "mechanism").is_some());
                for metric in scenario.gated_metrics() {
                    assert!(
                        record_field(record, metric).is_some(),
                        "{path}: record lacks gated metric {metric}"
                    );
                }
            }
        }
    }
}
