//! Registry-wide smoke tests: every registered scenario runs at
//! `Scale::Smoke`, yields non-empty rows in the uniform report schema, and
//! both its parameters and its report round-trip through the JSON codec
//! byte-stably.  (The figures' shape assertions live in
//! `experiments_smoke.rs`; the bench-scale sweeps are gated by
//! `scenarios check` against the committed baselines.)

mod common;

use hatric_host::scenario::{find, registry, Params, Scale, ScenarioReport};
use hatric_types::ConfigError;

#[test]
fn every_scenario_smokes_with_rows_and_byte_stable_round_trips() {
    assert!(registry().len() >= 5, "the ISSUE promises ≥ 5 scenarios");
    for scenario in registry() {
        // Parameter JSON round-trip.
        let params = scenario.default_params(Scale::Smoke);
        assert!(
            !params.entries().is_empty(),
            "{}: scenarios must publish their knobs",
            scenario.name()
        );
        let params_json = params.to_json();
        let params_back = Params::from_json(&params_json)
            .unwrap_or_else(|| panic!("{}: params must parse back", scenario.name()));
        assert_eq!(params_back, params, "{}", scenario.name());
        assert_eq!(params_back.to_json(), params_json, "{}", scenario.name());

        // The smoke run itself.
        let report = scenario
            .run(&Params::new(), Scale::Smoke)
            .unwrap_or_else(|err| panic!("{}: smoke run failed: {err}", scenario.name()));
        assert_eq!(report.scenario, scenario.name());
        assert!(!report.rows.is_empty(), "{}: empty report", scenario.name());
        for row in &report.rows {
            assert!(!row.label().is_empty());
            assert!(!row.mechanism().is_empty());
            assert!(
                row.fields().len() > 2,
                "{}: rows must carry metrics beyond their labels",
                scenario.name()
            );
        }

        // Report JSON round-trip.  Ratio metrics are recorded at six
        // decimals, so the contract is byte-stability of the JSON (what
        // `scenarios check` and the committed baselines rely on) plus shape
        // equality — not bit-equality of the in-memory f64s.
        let json = report.to_json();
        let back = ScenarioReport::from_json(scenario.name(), &json)
            .unwrap_or_else(|| panic!("{}: report must parse back", scenario.name()));
        assert_eq!(back.to_json(), json, "{}", scenario.name());
        assert_eq!(back.rows.len(), report.rows.len());
        assert_eq!(
            common::sorted_row_keys(&back),
            common::sorted_row_keys(&report),
            "{}",
            scenario.name()
        );
    }
}

#[test]
fn readme_scenario_catalog_matches_the_registry() {
    // The README embeds `scenarios --list --md` output between markers; if
    // the registry (or a describe() string) changes without regenerating
    // the table, this fails and names the command to re-run.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md exists at the workspace root");
    let begin = "<!-- scenarios --list --md BEGIN -->\n";
    let end = "<!-- scenarios --list --md END -->";
    let start = readme.find(begin).expect("README has the BEGIN marker") + begin.len();
    let stop = readme.find(end).expect("README has the END marker");
    assert_eq!(
        &readme[start..stop],
        hatric_host::scenario::catalog_markdown(),
        "README scenario catalog is stale — regenerate it with \
         `cargo run -p hatric-host --bin scenarios -- --list --md`"
    );
}

#[test]
fn invalid_sweep_point_combinations_are_typed_errors_not_panics() {
    // 6 pCPUs pass the single-socket base validation but cannot split
    // across the sweep's 4-socket point; the scenario must reject the
    // combination up front instead of panicking mid-sweep.
    let err = find("numa_contention")
        .unwrap()
        .run(&Params::new().with("num_pcpus", 6), Scale::Smoke)
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::Invalid { ref what } if what.contains("socket")),
        "expected a socket-split ConfigError, got {err:?}"
    );
}

#[test]
fn comparative_scenarios_sweep_all_four_mechanisms() {
    for name in ["multivm", "migration_storm", "numa_contention"] {
        let scenario = find(name).unwrap();
        let report = scenario.run(&Params::new(), Scale::Smoke).unwrap();
        for label in report.labels() {
            for mechanism in ["Software", "UnitdPlusPlus", "Hatric", "Ideal"] {
                assert!(
                    report.find(label, mechanism).is_some(),
                    "{name}/{label}: missing {mechanism} row"
                );
            }
        }
    }
}

#[test]
fn parameter_overrides_reach_the_run_and_unknown_keys_do_not() {
    let scenario = find("xen").unwrap();
    // Halving the measured phase must change the resulting ratios'
    // underlying runs (cheap way to prove overrides are honoured: the run
    // still succeeds and produces the same schema).
    let report = scenario
        .run(&Params::new().with("measured", 800), Scale::Smoke)
        .unwrap();
    assert!(!report.rows.is_empty());
    // A misspelt key, and a key no scenario declares.
    for (name, key, value) in [("xen", "measurd", "800"), ("multivm", "engine", "mp")] {
        let err = find(name)
            .unwrap()
            .run(&Params::new().with(key, value), Scale::Smoke)
            .unwrap_err();
        assert_eq!(err, ConfigError::UnknownParam { key: key.into() });
    }
    // Every key is wired to its own field: a changed valid value survives
    // parse → render, lands under that key and moves no other.
    for scenario in registry() {
        for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
            let defaults = scenario.default_params(scale);
            for (key, value) in defaults.entries() {
                let changed = match value.as_str() {
                    "least_loaded" => "affinity".to_string(),
                    number => match number.parse::<u64>() {
                        Ok(n) => (n + 1).to_string(),
                        Err(_) => format!("{}", number.parse::<f64>().unwrap() + 0.5),
                    },
                };
                let resolved = scenario
                    .resolve(&Params::new().with(key, &changed), scale)
                    .unwrap_or_else(|err| panic!("{} {key}={changed}: {err}", scenario.name()));
                assert_eq!(
                    resolved,
                    defaults.clone().with(key, &changed),
                    "{} at {}: {key}",
                    scenario.name(),
                    scale.label()
                );
            }
        }
    }
}

#[test]
fn invalid_override_values_are_typed_errors_not_panics() {
    let scenario = find("multivm").unwrap();
    let err = scenario
        .run(&Params::new().with("fast_pages", "lots"), Scale::Smoke)
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::BadValue {
            key: "fast_pages".into(),
            value: "lots".into()
        }
    );
    // A parameter combination that breaks a host invariant surfaces the
    // typed host error instead of panicking deep in the simulator.
    let err = scenario
        .run(&Params::new().with("num_pcpus", 0), Scale::Smoke)
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroPcpus);
    // Fleet sizings `Cluster::new` would assert on are rejected up front.
    for name in ["cluster_churn", "cluster_faults"] {
        let scenario = find(name).unwrap();
        for key in ["hosts", "epoch_slices", "threads"] {
            let err = scenario
                .run(&Params::new().with(key, 0), Scale::Smoke)
                .unwrap_err();
            let typed = match key {
                "threads" => err == ConfigError::ZeroThreads,
                _ => matches!(&err, ConfigError::BadValue { key: k, .. } if k == key),
            };
            assert!(typed, "{name} {key}=0: unexpected {err:?}");
        }
    }
    // A figure workload needs at least one thread, and the simulated
    // machine at most 64 CPUs: either bound is a typed error from the run
    // and the trace alike, not a panic in the suite.
    for scenario in registry() {
        if scenario.default_params(Scale::Smoke).get("vcpus").is_none() {
            continue;
        }
        for (vcpus, expected) in [
            (0, ConfigError::ZeroVcpus { slot: None }),
            (
                65,
                ConfigError::Invalid {
                    what: "num_cpus must be in 1..=64".into(),
                },
            ),
        ] {
            let params = Params::new().with("vcpus", vcpus);
            assert_eq!(
                scenario.run(&params, Scale::Smoke).unwrap_err(),
                expected,
                "{} vcpus={vcpus}",
                scenario.name()
            );
            assert_eq!(
                scenario.trace_run(&params, Scale::Smoke).unwrap_err(),
                expected,
                "{} vcpus={vcpus} trace",
                scenario.name()
            );
        }
    }
    // Every key of every scenario rejects an unparseable value by name.
    for scenario in registry() {
        for scale in [Scale::Smoke, Scale::Bench, Scale::Full] {
            for (key, _) in scenario.default_params(scale).entries() {
                let err = scenario
                    .run(&Params::new().with(key, "x"), scale)
                    .unwrap_err();
                assert_eq!(
                    err,
                    ConfigError::BadValue {
                        key: key.clone(),
                        value: "x".into()
                    },
                    "{} at {}",
                    scenario.name(),
                    scale.label()
                );
            }
        }
    }
}
