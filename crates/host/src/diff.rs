//! The run observatory: a structural diff between two scenario-report
//! JSON documents (committed `BENCH_*.json` baselines, `scenarios run
//! --json` output — they share one schema).
//!
//! `scenarios diff <run-a.json> <run-b.json>` aligns rows by
//! `(label, mechanism)`, reports a delta for every numeric metric the
//! aligned rows share, and fails when a **gated** metric drifts beyond the
//! tolerance or a row of run A has no counterpart in run B (fail-closed,
//! like the CI gate: a silently vanished row would disable part of the
//! comparison).  `scenarios check` delegates its per-scenario
//! baseline comparison to this same engine, so "what the gate enforces"
//! and "what the observatory reports" cannot drift apart.

use crate::scenario::{Row, ScenarioReport};

/// Options governing a diff.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Allowed relative drift on a gated metric, in either direction,
    /// before it counts as a regression.
    pub tolerance: f64,
    /// When `true`, only gated metrics produce deltas (the CI gate's
    /// terse mode); when `false`, every numeric metric the aligned rows
    /// share is reported.
    pub gated_only: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.10,
            gated_only: false,
        }
    }
}

impl DiffOptions {
    /// The CI gate's configuration: the gated metrics only, at
    /// `tolerance`.
    #[must_use]
    pub fn gate(tolerance: f64) -> Self {
        Self {
            tolerance,
            gated_only: true,
        }
    }

    fn drifted(&self, a: f64, b: f64) -> bool {
        b > a * (1.0 + self.tolerance) || b < a * (1.0 - self.tolerance)
    }
}

/// One aligned metric comparison between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// `<label>/<mechanism>` of the aligned row pair.
    pub row: String,
    /// Metric key.
    pub metric: String,
    /// Run A's (baseline's) value.
    pub a: f64,
    /// Run B's (current) value.
    pub b: f64,
    /// Whether the metric is in the diff's gated set.
    pub gated: bool,
    /// Whether this delta is a gated-metric drift beyond the tolerance.
    pub regressed: bool,
}

impl MetricDelta {
    /// Relative drift in percent (0 when run A's value is 0).
    #[must_use]
    pub fn delta_percent(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            (self.b / self.a - 1.0) * 100.0
        }
    }
}

/// The outcome of diffing two scenario reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// One entry per compared metric, in run A's row order.
    pub deltas: Vec<MetricDelta>,
    /// Rows of run A absent from run B, and gated metrics a row pair does
    /// not share — either fails the diff (fail-closed).
    pub missing: Vec<String>,
    /// Rows of run B with no counterpart in run A (informational).
    pub extra: Vec<String>,
}

impl DiffReport {
    /// Number of gated metrics that drifted beyond the tolerance.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }

    /// `true` when no gated metric drifted and nothing is missing — the
    /// exit-0 condition of `scenarios diff`.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions() == 0 && self.missing.is_empty()
    }

    /// Renders the diff in the gate's verdict style: one line per delta
    /// (`REGRESSED` / `drift` / `ok`), then the missing and extra rows.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = String::new();
        for delta in &self.deltas {
            let verdict = if delta.regressed { "REGRESSED" } else { "ok" };
            out.push_str(&format!(
                "{verdict:>9}  {:<60} a {:>14.3}  b {:>14.3}  ({:+.1}%)\n",
                format!("{} {}", delta.row, delta.metric),
                delta.a,
                delta.b,
                delta.delta_percent()
            ));
        }
        for row in &self.missing {
            out.push_str(&format!("  MISSING  {row}\n"));
        }
        for row in &self.extra {
            out.push_str(&format!("    EXTRA  {row}: only in run B\n"));
        }
        out
    }
}

fn numeric_metrics(row: &Row) -> impl Iterator<Item = (&str, f64)> {
    // The first two fields are the textual label and mechanism; any other
    // textual metric (e.g. `attr_top_remap`) has no numeric delta either.
    row.fields()
        .iter()
        .skip(2)
        .filter_map(|(key, metric)| metric.as_f64().map(|value| (key.as_str(), value)))
}

/// Diffs run B against run A: rows aligned by `(label, mechanism)`,
/// per-metric deltas for the numeric metrics both sides carry, drift
/// verdicts on `gated` metrics per `options`.
#[must_use]
pub fn diff_reports(
    a: &ScenarioReport,
    b: &ScenarioReport,
    gated: &[&str],
    options: DiffOptions,
) -> DiffReport {
    let mut report = DiffReport::default();
    for row_a in &a.rows {
        let key = format!("{}/{}", row_a.label(), row_a.mechanism());
        let Some(row_b) = b.find(row_a.label(), row_a.mechanism()) else {
            report.missing.push(format!("{key}: row absent from run B"));
            continue;
        };
        // Gated metrics are declared, so both sides of an aligned pair
        // must carry them — run A lacking one is as fail-closed as run B.
        for &metric in gated {
            if row_a.number(metric).is_none() {
                report
                    .missing
                    .push(format!("{key}: gated metric {metric} absent from run A"));
            }
        }
        for (metric, value_a) in numeric_metrics(row_a) {
            let is_gated = gated.contains(&metric);
            if options.gated_only && !is_gated {
                continue;
            }
            match row_b.number(metric) {
                Some(value_b) => report.deltas.push(MetricDelta {
                    row: key.clone(),
                    metric: metric.to_string(),
                    a: value_a,
                    b: value_b,
                    gated: is_gated,
                    regressed: is_gated && options.drifted(value_a, value_b),
                }),
                // A gated metric both runs must carry fails closed; an
                // ungated one (e.g. a column added since run A was
                // recorded) is simply not comparable.
                None if is_gated => report
                    .missing
                    .push(format!("{key}: gated metric {metric} absent from run B")),
                None => {}
            }
        }
    }
    for row_b in &b.rows {
        if a.find(row_b.label(), row_b.mechanism()).is_none() {
            report
                .extra
                .push(format!("{}/{}", row_b.label(), row_b.mechanism()));
        }
    }
    report
}

/// Parses two report documents and diffs them ([`diff_reports`] over
/// [`ScenarioReport::from_json`]).
///
/// # Errors
///
/// Returns a description of which side failed to parse as a scenario
/// report (trailing `meta` records are fine — the parser skips them).
pub fn diff_json(
    a_text: &str,
    b_text: &str,
    gated: &[&str],
    options: DiffOptions,
) -> Result<DiffReport, String> {
    let a = ScenarioReport::from_json("a", a_text)
        .ok_or("run A does not parse as a scenario report")?;
    let b = ScenarioReport::from_json("b", b_text)
        .ok_or("run B does not parse as a scenario report")?;
    Ok(diff_reports(&a, &b, gated, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slowdown: f64, cycles: u64) -> ScenarioReport {
        let mut report = ScenarioReport::new("demo");
        report.push(
            Row::new("config", "a", "Software")
                .ratio("victim_slowdown_vs_ideal", slowdown)
                .count("host_runtime_cycles", cycles)
                .text("attr_top_remap", "vm0#3"),
        );
        report
    }

    const GATED: &[&str] = &["victim_slowdown_vs_ideal"];

    #[test]
    fn self_diff_passes_and_reports_every_numeric_metric() {
        let a = report(1.25, 1000);
        let diff = diff_reports(&a, &a, GATED, DiffOptions::default());
        assert!(diff.passed());
        assert_eq!(diff.regressions(), 0);
        // Both numeric metrics compared; the textual attribution column
        // has no numeric delta.
        assert_eq!(diff.deltas.len(), 2);
        assert!(diff.deltas.iter().all(|d| d.a == d.b));
        assert!(diff.format_text().contains("ok"));
    }

    #[test]
    fn gated_drift_beyond_tolerance_fails() {
        let a = report(1.0, 1000);
        let b = report(1.2, 1000);
        let diff = diff_reports(&a, &b, GATED, DiffOptions::default());
        assert_eq!(diff.regressions(), 1);
        assert!(!diff.passed());
        assert!(diff.format_text().contains("REGRESSED"));
        // Within tolerance passes.
        let close = report(1.05, 1000);
        assert!(diff_reports(&a, &close, GATED, DiffOptions::default()).passed());
        // Ungated drift never fails the diff.
        let cycles_up = report(1.0, 9000);
        assert!(diff_reports(&a, &cycles_up, GATED, DiffOptions::default()).passed());
    }

    #[test]
    fn gate_flags_drift_in_both_directions() {
        let a = report(1.0, 1000);
        // An exact gate fails on any movement of a gated metric, up or
        // down, and ignores ungated ones.
        let exact = DiffOptions::gate(0.0);
        assert!(diff_reports(&a, &a, GATED, exact).passed());
        assert!(diff_reports(&a, &report(1.0, 9000), GATED, exact).passed());
        for moved in [1.000001, 0.999999, 0.5, 1.2] {
            let diff = diff_reports(&a, &report(moved, 1000), GATED, exact);
            assert_eq!(diff.regressions(), 1, "{moved}");
        }
        // A tolerance applies to both directions alike.
        let gate = DiffOptions::gate(0.10);
        assert_eq!(
            diff_reports(&a, &report(0.5, 1000), GATED, gate).regressions(),
            1
        );
        assert!(diff_reports(&a, &report(0.95, 1000), GATED, gate).passed());
    }

    #[test]
    fn missing_rows_fail_closed_and_extra_rows_inform() {
        let a = report(1.0, 1000);
        let mut b = report(1.0, 1000);
        b.rows[0] =
            Row::new("config", "renamed", "Software").ratio("victim_slowdown_vs_ideal", 1.0);
        let diff = diff_reports(&a, &b, GATED, DiffOptions::default());
        assert!(!diff.passed());
        assert_eq!(diff.missing.len(), 1);
        assert_eq!(diff.extra, vec!["renamed/Software"]);
        assert!(diff.format_text().contains("MISSING"));
    }

    #[test]
    fn gated_only_restricts_the_delta_set() {
        let a = report(1.0, 1000);
        let diff = diff_reports(&a, &a, GATED, DiffOptions::gate(0.10));
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.deltas[0].metric, "victim_slowdown_vs_ideal");
    }

    #[test]
    fn json_round_trip_diffs_and_rejects_garbage() {
        let a = report(1.0, 1000);
        let diff = diff_json(&a.to_json(), &a.to_json(), GATED, DiffOptions::default()).unwrap();
        assert!(diff.passed());
        assert!(diff_json("not json", &a.to_json(), GATED, DiffOptions::default()).is_err());
        assert!(diff_json(&a.to_json(), "not json", GATED, DiffOptions::default()).is_err());
    }

    #[test]
    fn delta_percent_handles_zero_baselines() {
        let delta = MetricDelta {
            row: "a/Software".into(),
            metric: "cycles".into(),
            a: 0.0,
            b: 5.0,
            gated: false,
            regressed: false,
        };
        assert_eq!(delta.delta_percent(), 0.0);
    }
}
