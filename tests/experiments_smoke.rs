//! Smoke tests for the paper's figures: every figure scenario runs at a
//! tiny sizing through the scenario registry and its rows have the
//! qualitative shape the paper reports.  (`scenarios check` gates the
//! bench-scale numbers against the committed `BENCH_<fig>.json`, and
//! `scenario_registry.rs` smoke-runs every registered scenario.)

use hatric_host::scenario::{find, Params, Scale, ScenarioReport};

/// Runs figure `name` at the tiny sizing with `extra` overrides on top.
fn run(name: &str, extra: &[(&str, u64)]) -> ScenarioReport {
    let mut params = Params::new()
        .with("vcpus", 4)
        .with("fast_pages", 256)
        .with("warmup", 800)
        .with("measured", 1_200)
        .with("seed", 0x51_0e);
    for (key, value) in extra {
        params.set(key, value);
    }
    find(name)
        .expect("the figure is registered")
        .run(&params, Scale::Smoke)
        .expect("the tiny sizing is valid")
}

/// The metric `key` of the row (`label`, `mechanism`).
fn metric(report: &ScenarioReport, label: &str, mechanism: &str, key: &str) -> f64 {
    report
        .find(label, mechanism)
        .and_then(|row| row.number(key))
        .unwrap_or_else(|| panic!("{label}/{mechanism}: no {key}"))
}

#[test]
fn fig2_shape_paging_potential() {
    let report = run("fig2", &[]);
    let workloads = report.labels();
    assert_eq!(workloads.len(), 5);
    let runtime =
        |label: &str, mechanism: &str| metric(&report, label, mechanism, "runtime_vs_nohbm");
    for &label in &workloads {
        // Infinite die-stacked DRAM always helps.
        let inf_hbm = runtime(label, "InfiniteHbm");
        assert!(inf_hbm < 1.0, "{label}: inf-hbm {inf_hbm}");
        // Ideal coherence is at least as good as software coherence.
        let (achievable, curr_best) = (runtime(label, "Ideal"), runtime(label, "Software"));
        assert!(
            achievable <= curr_best + 0.02,
            "{label}: achievable {achievable} vs curr-best {curr_best}"
        );
    }
    // Software translation coherence hurts at least one low-locality
    // workload badly (the paper: data caching and tunkrank regress).
    assert!(
        workloads
            .iter()
            .any(|w| runtime(w, "Software") > runtime(w, "Ideal") + 0.05),
        "software coherence should visibly cost performance:\n{}",
        report.format_table()
    );
}

/// Checks that HATRIC is no slower than software at every point of a
/// Fig. 7–9 sweep, returning the point labels.
fn hatric_within_software(report: &ScenarioReport) -> Vec<&str> {
    let labels = report.labels();
    for &label in &labels {
        let runtime = |mechanism: &str| metric(report, label, mechanism, "runtime_vs_nohbm");
        assert!(
            runtime("Hatric") <= runtime("Software") + 0.02,
            "{label}: hatric {} vs software {}",
            runtime("Hatric"),
            runtime("Software")
        );
    }
    labels
}

#[test]
fn fig7_hatric_tracks_ideal_across_vcpu_counts() {
    // 16 vCPUs admit the paper's whole 4/8/16 sweep.
    let report = run("fig7", &[("vcpus", 16)]);
    let labels = hatric_within_software(&report);
    assert_eq!(labels.len(), 5 * 3);
    for label in labels {
        let hatric = metric(&report, label, "Hatric", "runtime_vs_nohbm");
        let ideal = metric(&report, label, "Ideal", "runtime_vs_nohbm");
        assert!(
            (hatric - ideal).abs() < 0.25,
            "{label}: {hatric} vs {ideal}"
        );
    }
}

#[test]
fn fig8_hatric_helps_for_every_paging_policy() {
    assert_eq!(hatric_within_software(&run("fig8", &[])).len(), 5 * 3);
}

#[test]
fn fig9_bigger_structures_help_hatric_more_than_software() {
    assert_eq!(hatric_within_software(&run("fig9", &[])).len(), 5 * 3);
}

#[test]
fn fig10_hatric_fixes_multiprogrammed_regressions() {
    let report = run("fig10", &[("mixes", 4)]);
    let mixes = report.labels();
    assert_eq!(mixes.len(), 4);
    let column = |mechanism: &str, key: &str| -> Vec<f64> {
        mixes
            .iter()
            .map(|mix| metric(&report, mix, mechanism, key))
            .collect()
    };
    let mean = |values: Vec<f64>| values.iter().sum::<f64>() / values.len() as f64;
    let worst = |values: Vec<f64>| values.into_iter().fold(0.0, f64::max);
    assert!(
        mean(column("Hatric", "weighted_runtime"))
            <= mean(column("Software", "weighted_runtime")) + 1e-9
    );
    assert!(
        worst(column("Hatric", "slowest_runtime"))
            <= worst(column("Software", "slowest_runtime")) + 1e-9
    );
}

#[test]
fn fig11_cotag_sweep_has_three_points_and_sane_ratios() {
    let report = run("fig11", &[]);
    let cotags: Vec<&str> = report
        .labels()
        .into_iter()
        .filter(|label| label.starts_with("cotag"))
        .collect();
    assert_eq!(cotags, ["cotag1B", "cotag2B", "cotag3B"]);
    for label in cotags {
        let runtime = metric(&report, label, "Hatric", "runtime_vs_software");
        let energy = metric(&report, label, "Hatric", "energy_vs_software");
        assert!(
            runtime > 0.0 && runtime <= 1.05,
            "{label}: runtime {runtime}"
        );
        assert!(energy > 0.0, "{label}: energy {energy}");
    }
}

#[test]
fn fig11_scatter_hatric_boosts_performance() {
    let report = run("fig11", &[]);
    let points: Vec<&str> = report
        .labels()
        .into_iter()
        .filter(|label| !label.starts_with("cotag"))
        .collect();
    assert_eq!(points.len(), 6);
    for label in points {
        let runtime = metric(&report, label, "Hatric", "runtime_vs_software");
        assert!(runtime <= 1.03, "{label}: runtime {runtime}");
    }
}

#[test]
fn fig12_variants_are_close_to_baseline_hatric() {
    let report = run("fig12", &[]);
    assert_eq!(report.rows.len(), 5);
    let baseline = metric(&report, "HATRIC", "Hatric", "runtime_vs_software");
    for label in report.labels() {
        let runtime = metric(&report, label, "Hatric", "runtime_vs_software");
        assert!((runtime - baseline).abs() < 0.2, "{label}: {runtime}");
    }
}

#[test]
fn fig13_hatric_beats_unitd_which_beats_software() {
    let report = run("fig13", &[]);
    let workloads = report.labels();
    assert_eq!(workloads.len(), 5);
    for label in workloads {
        let runtime = |mechanism: &str| metric(&report, label, mechanism, "runtime_vs_nohbm");
        assert!(
            runtime("Hatric") <= runtime("UnitdPlusPlus") + 0.03,
            "{label}"
        );
        assert!(
            runtime("UnitdPlusPlus") <= runtime("Software") + 0.03,
            "{label}"
        );
    }
}

#[test]
fn xen_results_show_improvements() {
    let report = run("xen", &[]);
    let workloads = report.labels();
    assert_eq!(workloads.len(), 2);
    for label in workloads {
        let improvement = metric(&report, label, "Hatric", "improvement_percent");
        assert!(
            improvement > 0.0,
            "HATRIC should improve Xen too: {label} {improvement}"
        );
    }
}
