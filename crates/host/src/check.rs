//! The reproduction checker behind `scenarios check`: each scenario's
//! claims, declared as data ([`Scenario::claims`]), and the exact gate over
//! the committed `BENCH_*.json` baselines.
//!
//! A [`Claim`] is a typed predicate over a report's rows.
//! [`Claim::evaluate`] turns it into a [`Verdict`] that carries every
//! number it compared; a missing row or column fails the claim.  [`check`]
//! runs both halves on one fresh report: at [`Scale::Bench`] every gated
//! metric must equal the committed baseline exactly, and at every scale
//! every claim must hold, at the report's full precision.

use std::fmt;

use hatric_coherence::CoherenceMechanism;

use crate::diff::{diff_reports, DiffOptions, DiffReport};
use crate::scenario::{find, Scale, Scenario, ScenarioReport};

/// How a value must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `>=`
    Ge,
}

impl Cmp {
    /// Whether `value` compares with `bound` this way.
    #[must_use]
    pub fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Lt => value < bound,
            Cmp::Le => value <= bound,
            Cmp::Eq => value == bound,
            Cmp::Ge => value >= bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ge => ">=",
        }
    }
}

/// Whose value of the metric a claim reads at a sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Of {
    /// One mechanism's row.
    Arm(CoherenceMechanism),
    /// Every row at the point, each on its own.
    EveryArm,
    /// The first mechanism's value minus the second's.
    Gap(CoherenceMechanism, CoherenceMechanism),
}

/// What a compared value is held against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The same metric of another mechanism at the same point.
    Arm(CoherenceMechanism),
    /// A constant.
    Value(f64),
    /// The same value at the next point: `Cmp::Lt` makes the values rise
    /// strictly over the points.
    Next,
}

/// One claim of a scenario: `metric` of `of` compares by `cmp` with
/// `bound` at each of `points`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The row column the claim reads.
    pub metric: &'static str,
    /// Whose value it reads.
    pub of: Of,
    /// How the value must compare with the bound.
    pub cmp: Cmp,
    /// What it is compared with.
    pub bound: Bound,
    /// The sweep points, in order; empty means every point of the report.
    pub points: &'static [&'static str],
}

impl Claim {
    /// `metric` of `of` compares by `cmp` with `bound` at every point.
    #[must_use]
    pub const fn compare(metric: &'static str, of: Of, cmp: Cmp, bound: Bound) -> Self {
        let points = &[];
        Self {
            metric,
            of,
            cmp,
            bound,
            points,
        }
    }

    /// `metric` of `of` rises strictly over every point, in row order.
    #[must_use]
    pub const fn rising(metric: &'static str, of: Of) -> Self {
        Self::compare(metric, of, Cmp::Lt, Bound::Next)
    }

    /// This claim at the named points only, in this order.
    #[must_use]
    pub const fn at(self, points: &'static [&'static str]) -> Self {
        Self { points, ..self }
    }

    /// Evaluates the claim on `report`.  It fails if a comparison fails, if
    /// a row or column it reads is missing, or if it compared nothing.
    #[must_use]
    pub fn evaluate(&self, report: &ScenarioReport) -> Verdict {
        let points = if self.points.is_empty() {
            report.labels()
        } else {
            self.points.to_vec()
        };
        // Each point with the point its bound is read at.
        let steps: Vec<(&str, &str)> = match self.bound {
            Bound::Next => points.windows(2).map(|pair| (pair[0], pair[1])).collect(),
            _ => points.iter().map(|&point| (point, point)).collect(),
        };
        let (mut compared, mut missing) = (Vec::new(), Vec::new());
        for (point, next) in steps {
            match self.compare_at(report, point, next) {
                Ok(comparisons) => compared.extend(comparisons),
                Err(absent) => missing.push(absent),
            }
        }
        if compared.is_empty() && missing.is_empty() {
            missing.push("nothing to compare".to_string());
        }
        let (scenario, claim) = (report.scenario.clone(), *self);
        Verdict {
            scenario,
            claim,
            compared,
            missing,
        }
    }

    /// The comparisons at `point`, whose [`Bound::Next`] is read at `next`.
    fn compare_at(
        &self,
        report: &ScenarioReport,
        point: &str,
        next: &str,
    ) -> Result<Vec<Comparison>, String> {
        let later = match self.bound {
            Bound::Next => self.values(report, next)?,
            _ => Vec::new(),
        };
        let values = self.values(report, point)?.into_iter();
        values
            .map(|(arm, value)| {
                let (bound, at) = match self.bound {
                    Bound::Value(bound) => (bound, row_name(point, arm)),
                    Bound::Arm(mechanism) => (
                        number(report, point, mechanism, self.metric)?,
                        row_name(point, arm),
                    ),
                    Bound::Next => {
                        let found = later.iter().find(|(other, _)| *other == arm);
                        let absent = || format!("{}: no row", row_name(next, arm));
                        let at = format!("{} -> {}", row_name(point, arm), row_name(next, arm));
                        (found.ok_or_else(absent)?.1, at)
                    }
                };
                Ok(Comparison {
                    at,
                    value,
                    cmp: self.cmp,
                    bound,
                })
            })
            .collect()
    }

    /// The values the claim reads at `point`, each with the mechanism of
    /// its row where it reads every arm (empty otherwise).
    fn values<'r>(
        &self,
        report: &'r ScenarioReport,
        point: &str,
    ) -> Result<Vec<(&'r str, f64)>, String> {
        let metric = self.metric;
        Ok(match self.of {
            Of::Arm(mechanism) => vec![("", number(report, point, mechanism, metric)?)],
            Of::Gap(a, b) => vec![(
                "",
                number(report, point, a, metric)? - number(report, point, b, metric)?,
            )],
            Of::EveryArm => {
                let rows = report.rows.iter().filter(|row| row.label() == point);
                let values = rows.map(|row| {
                    let absent = || format!("{point}/{}: no {metric}", row.mechanism());
                    Ok((row.mechanism(), row.number(metric).ok_or_else(absent)?))
                });
                let values = values.collect::<Result<Vec<_>, String>>()?;
                if values.is_empty() {
                    return Err(format!("{point}: no row"));
                }
                values
            }
        })
    }
}

/// `metric` of `mechanism`'s row at `point`.
fn number(
    report: &ScenarioReport,
    point: &str,
    mechanism: CoherenceMechanism,
    metric: &str,
) -> Result<f64, String> {
    let arm = format!("{mechanism:?}");
    let row = report.find(point, &arm);
    let row = row.ok_or_else(|| format!("{point}/{arm}: no row"))?;
    row.number(metric)
        .ok_or_else(|| format!("{point}/{arm}: no {metric}"))
}

/// Names a compared value: `point`, or `point/mechanism` where the claim
/// reads every arm.
fn row_name(point: &str, arm: &str) -> String {
    if arm.is_empty() {
        point.to_string()
    } else {
        format!("{point}/{arm}")
    }
}

/// A number with at most the six decimals the baselines are written in.
fn num(value: f64) -> String {
    let text = format!("{value:.6}");
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let of = match self.of {
            Of::Arm(mechanism) => format!("{mechanism:?}"),
            Of::EveryArm => "every arm".to_string(),
            Of::Gap(a, b) => format!("{a:?} - {b:?}"),
        };
        let (cmp, bound) = (self.cmp.symbol(), self.bound);
        let test = match bound {
            Bound::Next if self.cmp == Cmp::Lt => "rises strictly over".to_string(),
            Bound::Next => format!("{cmp} the next point's over"),
            Bound::Arm(mechanism) => format!("{cmp} {mechanism:?} at"),
            Bound::Value(value) => format!("{cmp} {} at", num(value)),
        };
        let points = match self.points {
            [] => "every point".to_string(),
            points => points.join(", "),
        };
        write!(f, "{} of {of} {test} {points}", self.metric)
    }
}

/// One comparison a claim made: `value cmp bound` at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `point`, `point/mechanism`, or `point -> next` for [`Bound::Next`].
    pub at: String,
    /// The value read.
    pub value: f64,
    /// How it must compare.
    pub cmp: Cmp,
    /// What it is compared with.
    pub bound: f64,
}

impl Comparison {
    /// Whether the comparison holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.cmp.holds(self.value, self.bound)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (value, bound) = (num(self.value), num(self.bound));
        write!(f, "{} {value} {} {bound}", self.at, self.cmp.symbol())?;
        if !self.holds() {
            write!(f, " (fails)")?;
        }
        Ok(())
    }
}

/// A claim's verdict on one report, with the numbers it compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The report's scenario.
    pub scenario: String,
    /// The claim.
    pub claim: Claim,
    /// Every comparison made, in point order.
    pub compared: Vec<Comparison>,
    /// The rows or columns the claim needed and the report lacks.
    pub missing: Vec<String>,
}

impl Verdict {
    /// Whether the claim holds: every comparison holds and nothing is
    /// missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.compared.iter().all(Comparison::holds)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let compared: Vec<String> = self.compared.iter().map(ToString::to_string).collect();
        let (scenario, claim) = (&self.scenario, &self.claim);
        write!(
            f,
            "{verdict:>9}  {scenario}: {claim}  [{}]",
            compared.join(", ")
        )?;
        for missing in &self.missing {
            write!(f, "  MISSING {missing}")?;
        }
        Ok(())
    }
}

/// Path of a registered scenario's committed baseline JSON:
/// `BENCH_<stem>.json` at the workspace root, reached from this crate's
/// manifest directory so it does not depend on the working directory.
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
        .ok_or_else(|| format!("the fresh {name} report does not parse back"))?;
    // The same engine `scenarios diff` runs, in gate mode: the baseline as
    // run A, the fresh report as run B, exact on the gated metrics.
    Ok(diff_reports(
        &baseline,
        &fresh,
        scenario.gated_metrics(),
        DiffOptions::gate(0.0),
    ))
}

/// What `scenarios check` found for one scenario's fresh report.
#[derive(Debug, Clone)]
pub struct Check {
    /// The scenario.
    pub scenario: &'static str,
    /// At [`Scale::Bench`], for a scenario with a committed baseline: the
    /// exact comparison with it, or why there is none.
    pub baseline: Option<Result<DiffReport, String>>,
    /// One verdict per declared claim, in declaration order.
    pub verdicts: Vec<Verdict>,
}

/// Checks a fresh default-parameter `report` of `scenario` run at `scale`:
/// the exact baseline gate at [`Scale::Bench`], and every claim.
#[must_use]
pub fn check(scenario: &dyn Scenario, report: &ScenarioReport, scale: Scale) -> Check {
    let gated = scale == Scale::Bench && scenario.baseline_stem().is_some();
    let claims = scenario.claims().iter();
    Check {
        scenario: scenario.name(),
        baseline: gated.then(|| diff_against_baseline(scenario, report)),
        verdicts: claims.map(|claim| claim.evaluate(report)).collect(),
    }
}

impl Check {
    /// Whether the report passed: no gated metric drifted, no row is
    /// missing on either side of the baseline (fail-closed), and every
    /// claim holds.
    #[must_use]
    pub fn passed(&self) -> bool {
        let baseline = match &self.baseline {
            None => true,
            Some(Ok(diff)) => diff.passed() && diff.extra.is_empty(),
            Some(Err(_)) => false,
        };
        baseline && self.verdicts.iter().all(Verdict::passed)
    }

    /// One line per gated comparison (`ok` or `DRIFTED`), per missing or
    /// uncovered row, and per claim (`PASS` or `FAIL`).
    #[must_use]
    pub fn format_text(&self) -> String {
        let name = self.scenario;
        let mut lines = Vec::new();
        match &self.baseline {
            None => {}
            Some(Err(err)) => lines.push(format!("  MISSING  {name}: {err}")),
            Some(Ok(diff)) => {
                for delta in &diff.deltas {
                    let verdict = if delta.regressed { "DRIFTED" } else { "ok" };
                    lines.push(format!(
                        "{verdict:>9}  {:<72} baseline {:>16.6}  current {:>16.6}  ({:+.1}%)",
                        format!("{name}/{} {}", delta.row, delta.metric),
                        delta.a,
                        delta.b,
                        delta.delta_percent()
                    ));
                }
                let extra = diff
                    .extra
                    .iter()
                    .map(|row| format!("{row}: no committed baseline row"));
                for row in diff.missing.iter().cloned().chain(extra) {
                    lines.push(format!("  MISSING  {name}/{row}"));
                }
            }
        }
        lines.extend(self.verdicts.iter().map(ToString::to_string));
        lines.iter().map(|line| format!("{line}\n")).collect()
    }
}
