//! The benchmark harness: the `bench_check` regression gate over the
//! committed `BENCH_*.json` baselines.
//!
//! A baseline is regenerated by the scenarios CLI alone —
//! `scenarios run <name> --scale bench --json BENCH_<stem>.json` — and
//! [`baseline_path`] resolves the committed file the gate reads;
//! [`diff_against_baseline`] is the gate's comparison.

#![deny(missing_docs)]

use hatric_host::diff::{diff_reports, DiffOptions, DiffReport};
use hatric_host::scenario::{find, Scenario, ScenarioReport};

/// Path of a registered scenario's committed baseline JSON:
/// `BENCH_<stem>.json` at the workspace root (cargo runs bench and bin
/// targets with `crates/bench` as their working directory, so the root is
/// reached via `CARGO_MANIFEST_DIR`).
///
/// Returns `None` for an unregistered scenario or one without a committed
/// baseline.
#[must_use]
pub fn baseline_path(name: &str) -> Option<String> {
    let stem = find(name)?.baseline_stem()?;
    Some(format!(
        "{}/../../BENCH_{stem}.json",
        env!("CARGO_MANIFEST_DIR")
    ))
}

/// Compares a fresh `report` of `scenario` with its committed baseline,
/// exactly as the gate does.  The fresh report is first read back from its
/// own JSON form, so ratios compare at the six decimals the baselines are
/// written in; then every gated metric must equal its baseline, and drift
/// in either direction counts.
///
/// # Errors
///
/// Why there is nothing to compare with: the scenario has no committed
/// baseline, or its file cannot be read or parsed.
pub fn diff_against_baseline(
    scenario: &dyn Scenario,
    report: &ScenarioReport,
) -> Result<DiffReport, String> {
    let name = scenario.name();
    let path = baseline_path(name).ok_or_else(|| format!("{name} has no committed baseline"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read baseline {path}: {err}"))?;
    let baseline = ScenarioReport::from_json(name, &text)
        .ok_or_else(|| format!("baseline {path} does not parse"))?;
    let fresh = ScenarioReport::from_json(name, &report.to_json())
        .expect("a fresh report parses back from its own JSON");
    // The same engine `scenarios diff` runs, in gate mode: the baseline as
    // run A, the fresh report as run B, exact on the gated metrics.
    Ok(diff_reports(
        &baseline,
        &fresh,
        scenario.gated_metrics(),
        DiffOptions::gate(0.0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_host::scenario::{parse_json_records, record_field, registry, Params, Row, Scale};

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

    /// Model output must not depend on the build profile.  Release builds
    /// (whole-program optimised, see `.cargo/config.toml`) are the only
    /// ones that regenerate and gate the baselines; this reproduces one
    /// committed baseline in whatever profile the tests build in (the dev
    /// profile: opt-level 1 with debug assertions and overflow checks).
    #[test]
    fn xen_baseline_reproduces_exactly_in_the_test_profile() {
        let scenario = find("xen").unwrap();
        let report = scenario.run(&Params::new(), Scale::Bench).unwrap();
        let diff = diff_against_baseline(scenario, &report).unwrap();
        assert!(
            diff.passed() && diff.extra.is_empty(),
            "xen drifted from BENCH_xen.json:\n{}",
            diff.format_text()
        );
        let gated = report.rows.len() * scenario.gated_metrics().len();
        assert_eq!(diff.deltas.len(), gated, "every gated metric is compared");
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
