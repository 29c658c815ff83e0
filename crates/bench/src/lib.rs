//! The benchmark harness: the `bench_check` regression gate over the
//! committed `BENCH_*.json` baselines.
//!
//! A baseline is regenerated by the scenarios CLI alone —
//! `scenarios run <name> --scale bench --json BENCH_<stem>.json` — and
//! [`baseline_path`] resolves the committed file the gate reads.

#![deny(missing_docs)]

use hatric_host::scenario::find;

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

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_host::scenario::{parse_json_records, record_field, registry, Row};

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
