//! The declared claims and `check`, tested on the committed baselines
//! without simulating.
//!
//! Falsifiability: every claim holds on its baseline, fails without its
//! column, and fails on at least one mutated copy of the baseline.  The
//! mutations swap the Hatric and Software rows (which fails a claim that
//! compares the two arms or reads their gap), move the claim's column by
//! +1 or -1 in every row (a count or a bound), and swap the first two
//! points' values of the column (a rising series); each claim meets all
//! four.  A claim that none of them fails is listed in [`UNFALSIFIABLE`]
//! by name, with the reason; a listed claim that becomes falsifiable fails
//! the test, so the list cannot go stale.  No claim may follow from
//! another of its scenario either: a claim that cannot fail on its own
//! adds nothing.

use hatric_host::check::{baseline_path, check, Claim, Cmp, Of};
use hatric_host::scenario::{find, registry, Metric, Row, Scale, ScenarioReport};
use hatric_host::CoherenceMechanism::Software;

/// Claims no mutation fails on their baselines, by name, with the reason.
const UNFALSIFIABLE: &[(&str, &str)] = &[
    (
        "cluster_faults: recovery_downtime_p99_cycles of Hatric <= Software at every point",
        "50,000 cycles under all three mechanisms: the p99 is just \
         restart_penalty_cycles, so the arms cannot differ (ROADMAP item 5.4)",
    ),
    (
        "cluster_churn: migrations_completed of every arm >= 1 at mig1",
        "4 completions against a floor of 1: churn migrates VMs too",
    ),
    (
        "cluster_churn: migrations_completed of every arm >= 2 at mig2",
        "5 completions against a floor of 2: churn migrates VMs too",
    ),
    (
        "cluster_churn: migrations_completed of every arm >= 4 at mig4",
        "7 completions against a floor of 4: churn migrates VMs too",
    ),
    (
        "cluster_faults: migrations_escalated of every arm >= 1 at every point",
        "4 escalations against a floor of 1",
    ),
    (
        "cluster_faults: vm_restarts of every arm >= 1 at every point",
        "2 cold restarts against a floor of 1",
    ),
];

fn baseline(name: &str) -> ScenarioReport {
    let path = baseline_path(name).expect("a scenario with claims has a baseline");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioReport::from_json(name, &text).unwrap_or_else(|| panic!("{path} does not parse"))
}

/// A copy of `report` with `edit` applied to each row's label, mechanism
/// and metrics.
fn rewrite(
    report: &ScenarioReport,
    edit: impl Fn(&mut String, &mut String, &mut Vec<(String, Metric)>),
) -> ScenarioReport {
    let mut copy = ScenarioReport::new(&report.scenario);
    for row in &report.rows {
        let (mut label, mut mechanism) = (row.label().to_string(), row.mechanism().to_string());
        let mut metrics = row.fields()[2..].to_vec();
        edit(&mut label, &mut mechanism, &mut metrics);
        let mut rebuilt = Row::new(row.label_key(), &label, &mechanism);
        for (key, metric) in metrics {
            rebuilt = match metric {
                Metric::Text(text) => rebuilt.text(&key, &text),
                Metric::Count(count) => rebuilt.count(&key, count),
                Metric::Ratio(ratio) => rebuilt.ratio(&key, ratio),
            };
        }
        copy.push(rebuilt);
    }
    copy
}

/// Sets `metric` in `metrics` to what `value` makes of it.
fn set(metrics: &mut [(String, Metric)], metric: &str, value: impl Fn(&Metric) -> Metric) {
    for (_, old) in metrics.iter_mut().filter(|(key, _)| key == metric) {
        *old = value(old);
    }
}

/// The mutated copies of `baseline` a claim on `metric` must fail at least
/// one of.
fn mutations(metric: &str, baseline: &ScenarioReport) -> Vec<ScenarioReport> {
    let labels = baseline.labels();
    let (first, second) = (labels[0], labels[labels.len().min(2) - 1]);
    let moved = |delta: f64| {
        rewrite(baseline, |_, _, metrics| {
            set(metrics, metric, |old| {
                Metric::Ratio(old.as_f64().unwrap() + delta)
            });
        })
    };
    let swapped_arms = rewrite(baseline, |_, mechanism, _| {
        *mechanism = match mechanism.as_str() {
            "Hatric" => "Software".to_string(),
            "Software" => "Hatric".to_string(),
            other => other.to_string(),
        };
    });
    let swapped_points = rewrite(baseline, |label, mechanism, metrics| {
        let other = if label == first { second } else { first };
        if label == first || label == second {
            let theirs = baseline
                .find(other, mechanism)
                .unwrap()
                .get(metric)
                .unwrap();
            set(metrics, metric, |_| theirs.clone());
        }
    });
    vec![swapped_arms, moved(1.0), moved(-1.0), swapped_points]
}

/// Whether `a` holding means `b` holds: the same metric, arm and bound,
/// `a`'s points cover `b`'s, and `a`'s comparison is at least as strong.
fn implies(a: &Claim, b: &Claim) -> bool {
    let covers = a.points.is_empty()
        || (!b.points.is_empty() && b.points.iter().all(|p| a.points.contains(p)));
    let stronger = matches!(
        (a.cmp, b.cmp),
        (Cmp::Lt, Cmp::Lt | Cmp::Le)
            | (Cmp::Le, Cmp::Le)
            | (Cmp::Eq, Cmp::Eq | Cmp::Le | Cmp::Ge)
            | (Cmp::Ge, Cmp::Ge)
    );
    a.metric == b.metric && a.of == b.of && a.bound == b.bound && covers && stronger
}

#[test]
fn every_claim_holds_on_its_baseline_and_fails_on_a_mutation() {
    let scenarios: Vec<_> = registry()
        .iter()
        .filter(|s| !s.claims().is_empty())
        .collect();
    let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
    let expected = [
        "multivm",
        "migration_storm",
        "numa_contention",
        "cluster_churn",
        "cluster_faults",
    ];
    assert_eq!(names, expected);
    let mut listed_and_seen = 0;
    for scenario in scenarios {
        let baseline = baseline(scenario.name());
        for claim in scenario.claims() {
            let verdict = claim.evaluate(&baseline);
            assert!(verdict.passed(), "fails on its baseline: {verdict}");
            let no_column = rewrite(&baseline, |_, _, metrics| {
                metrics.retain(|(key, _)| key != claim.metric);
            });
            let verdict = claim.evaluate(&no_column);
            assert!(
                !verdict.passed() && !verdict.missing.is_empty(),
                "{verdict}"
            );
            let name = format!("{}: {claim}", scenario.name());
            let mutations = mutations(claim.metric, &baseline);
            let falsifiable = mutations.iter().any(|m| !claim.evaluate(m).passed());
            let listed = UNFALSIFIABLE.iter().any(|(listed, _)| *listed == name);
            let fix = if listed {
                "a mutation fails it now: drop it from UNFALSIFIABLE"
            } else {
                "no mutation fails it: list it in UNFALSIFIABLE with the reason"
            };
            assert_eq!(falsifiable, !listed, "{name}: {fix}");
            listed_and_seen += usize::from(listed);
        }
    }
    assert_eq!(
        listed_and_seen,
        UNFALSIFIABLE.len(),
        "a listed claim is not declared"
    );
}

#[test]
fn no_claim_follows_from_another() {
    for scenario in registry() {
        for (i, a) in scenario.claims().iter().enumerate() {
            for (j, b) in scenario.claims().iter().enumerate() {
                let name = scenario.name();
                assert!(i == j || !implies(a, b), "{name}: `{b}` follows from `{a}`");
            }
        }
    }
}

#[test]
fn rising_claims_compare_consecutive_points_of_each_arm() {
    let mut report = ScenarioReport::new("demo");
    for (point, software, hatric) in [("a", 1.0, 1.0), ("b", 1.5, 1.0), ("c", 1.5, 1.0)] {
        report.push(Row::new("config", point, "Software").ratio("slowdown", software));
        report.push(Row::new("config", point, "Hatric").ratio("slowdown", hatric));
    }
    let rising = Claim::rising("slowdown", Of::Arm(Software));
    let verdict = rising.evaluate(&report);
    assert!(!verdict.passed());
    assert_eq!(verdict.compared[1].to_string(), "b -> c 1.5 < 1.5 (fails)");
    assert!(rising.at(&["a", "b"]).evaluate(&report).passed());
    assert_eq!(
        rising.at(&["a", "b"]).to_string(),
        "slowdown of Software rises strictly over a, b"
    );
    // Every arm rises on its own, so Hatric's flat series fails it.
    let every = Claim::rising("slowdown", Of::EveryArm).at(&["a", "b"]);
    let verdict = every.evaluate(&report);
    assert_eq!(verdict.compared[1].at, "a/Hatric -> b/Hatric");
    assert!(!verdict.passed());
    // A point (so a row) the report lacks, and a claim that compares
    // nothing.
    assert!(!rising.at(&["a", "z"]).evaluate(&report).passed());
    assert!(!rising.at(&["a"]).evaluate(&report).passed());
}

/// multivm's baseline with `slowdown` applied to the gated
/// `victim_slowdown_vs_ideal` of the row at `label` under `mechanism`.
fn multivm_with(label: &str, mechanism: &str, slowdown: impl Fn(f64) -> f64) -> ScenarioReport {
    rewrite(&baseline("multivm"), |l, m, metrics| {
        if l == label && m == mechanism {
            let metric = "victim_slowdown_vs_ideal";
            set(metrics, metric, |old| {
                Metric::Ratio(slowdown(old.as_f64().unwrap()))
            });
        }
    })
}

/// `check`'s exit-1 paths, on mutated copies of a committed baseline read
/// back as if a fresh run had produced it.
#[test]
fn check_fails_on_drift_changed_rows_and_failed_claims() {
    let multivm = find("multivm").unwrap();
    let report = baseline("multivm");
    let outcome = check(multivm, &report, Scale::Bench);
    assert!(outcome.passed(), "{}", outcome.format_text());
    let Some(Ok(diff)) = &outcome.baseline else {
        panic!("Bench compares with the baseline")
    };
    assert_eq!(diff.deltas.len(), report.rows.len());
    assert_eq!(outcome.verdicts.len(), multivm.claims().len());

    // One gated value moved by 1e-6; at Full only the claims count.
    let nudged = multivm_with("moderate", "UnitdPlusPlus", |value| value + 1e-6);
    let outcome = check(multivm, &nudged, Scale::Bench);
    assert!(!outcome.passed() && outcome.format_text().contains("DRIFTED"));
    assert!(check(multivm, &nudged, Scale::Full).passed());

    let mut short = report.clone();
    short.rows.retain(|row| row.mechanism() != "UnitdPlusPlus");
    assert!(!check(multivm, &short, Scale::Bench).passed());
    let mut long = report;
    long.push(Row::new("pressure", "extreme", "Hatric").ratio("victim_slowdown_vs_ideal", 1.0));
    let outcome = check(multivm, &long, Scale::Bench);
    assert!(!outcome.passed() && outcome.format_text().contains("no committed baseline row"));

    let broken = multivm_with("severe", "Hatric", |_| 3.5);
    let text = check(multivm, &broken, Scale::Full).format_text();
    let fail = "FAIL  multivm: victim_slowdown_vs_ideal of Hatric < Software at severe  \
                [severe 3.5 < 3.147605 (fails)]";
    assert!(text.contains(fail), "{text}");
}
