//! The parallel slice engine's central contract: **bit-identical results
//! for any thread count**.
//!
//! Every registered scenario runs at `Scale::Smoke` with `threads` ∈
//! {1, 2, 4}; the resulting `ScenarioReport` JSON must be byte-identical
//! once the machine-dependent wall-clock columns (`elapsed_ms`,
//! `accesses_per_sec`) are stripped.  A property
//! test then hammers the same invariant over randomized host
//! configurations — vCPU/pCPU counts, sockets, mechanisms, schedulers,
//! balloon events, in-flight migrations, tracing and counter-timeline
//! sampling — reporting any failure as a labeled per-metric divergence
//! diff rather than two full report blobs.

mod common;

use proptest::prelude::*;

use common::{divergence_summary, strip_timing, RandomHostSpec};
use hatric_host::scenario::{registry, Params, Scale};

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    for scenario in registry() {
        let has_threads = scenario
            .default_params(Scale::Smoke)
            .get("threads")
            .is_some();
        let runs: Vec<String> = if has_threads {
            [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let report = scenario
                        .run(&Params::new().with("threads", threads), Scale::Smoke)
                        .unwrap_or_else(|err| {
                            panic!("{} threads={threads}: {err}", scenario.name())
                        });
                    strip_timing(&report.to_json())
                })
                .collect()
        } else {
            // Single-VM scenarios take no threads knob; their contract is
            // plain run-to-run determinism.
            (0..2)
                .map(|_| {
                    let report = scenario
                        .run(&Params::new(), Scale::Smoke)
                        .unwrap_or_else(|err| panic!("{}: {err}", scenario.name()));
                    strip_timing(&report.to_json())
                })
                .collect()
        };
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                run.as_str(),
                runs[0].as_str(),
                "{}: run {i} diverged from run 0 (threads sweep: {has_threads})",
                scenario.name()
            );
        }
        assert!(
            !runs[0].is_empty(),
            "{}: stripped report must not be empty",
            scenario.name()
        );
    }
}

#[test]
fn host_scale_rows_strip_to_identical_model_metrics_per_vcpu_point() {
    let scenario = hatric_host::scenario::find("host_scale").expect("host_scale is registered");
    let report = scenario.run(&Params::new(), Scale::Smoke).unwrap();
    for row in &report.rows {
        let vcpus = row.number("vcpus").expect("rows carry vcpus");
        let base = report
            .rows
            .iter()
            .find(|r| r.number("vcpus") == Some(vcpus))
            .expect("first row of the vcpus group");
        for metric in ["host_runtime_cycles", "accesses", "aggressor_remaps"] {
            assert_eq!(
                row.number(metric),
                base.number(metric),
                "{}: {metric} must not depend on the thread count",
                row.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid host produces byte-identical reports at 1, 2 and 4
    /// worker threads — with tracing, interval-1 counter sampling and an
    /// in-flight live migration in the draw space, since none of those
    /// may move a model metric either.
    #[test]
    fn random_hosts_are_thread_count_invariant(
        pcpus_per_socket in 1usize..4,
        sockets_pick in 0u8..2,
        vm_vcpus in proptest::collection::vec(1usize..4, 1..5),
        mechanism_pick in 0u8..4,
        sched_pick in 0u8..3,
        policy_pick in 0u8..2,
        slice_accesses in 5u64..25,
        with_balloon in 0u8..2,
        with_migration in 0u8..2,
        tracing in 0u8..2,
        timeline in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let spec = RandomHostSpec {
            pcpus_per_socket,
            sockets: usize::from(sockets_pick) + 1,
            vm_vcpus,
            mechanism_pick,
            sched_pick,
            policy_pick,
            slice_accesses,
            with_balloon: with_balloon == 1,
            with_migration: with_migration == 1,
            threads: 1,
            tracing: tracing == 1,
            timeline: timeline == 1,
            seed,
        };
        prop_assert!(spec.config().validate().is_ok());
        let serial = spec.run();
        for threads in [2usize, 4] {
            if let Some(diff) = divergence_summary(&serial, &spec.clone().with_threads(threads).run()) {
                prop_assert!(false, "threads={threads} diverged from threads=1:\n{diff}");
            }
        }
    }
}
