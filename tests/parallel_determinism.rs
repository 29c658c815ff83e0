//! The simulator's determinism contracts.
//!
//! Every registered scenario runs at `Scale::Smoke`: the fleet scenarios,
//! which shard their hosts over `threads` workers, with `threads` ∈
//! {1, 2, 4}, and every other scenario twice.  The resulting
//! `ScenarioReport` JSON must be byte-identical once the machine-dependent
//! wall-clock columns (`elapsed_ms`, `accesses_per_sec`) are stripped.  A
//! property test then checks the telemetry on/off contract over randomized
//! host configurations — vCPU/pCPU counts, sockets, mechanisms,
//! schedulers, balloon events and in-flight migrations: tracing and
//! interval-1 counter sampling must not move a model metric.  Failures
//! are reported as a labeled per-metric divergence diff rather than two
//! full report blobs.

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
            // Host and single-VM scenarios run on one thread; their
            // contract is plain run-to-run determinism.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid host produces the same model metrics with tracing and
    /// interval-1 counter sampling on as with both off.
    #[test]
    fn random_hosts_are_telemetry_invariant(
        pcpus_per_socket in 1usize..4,
        sockets_pick in 0u8..2,
        vm_vcpus in proptest::collection::vec(1usize..4, 1..5),
        mechanism_pick in 0u8..4,
        sched_pick in 0u8..3,
        policy_pick in 0u8..2,
        slice_accesses in 5u64..25,
        with_balloon in 0u8..2,
        with_migration in 0u8..2,
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
            tracing: false,
            timeline: false,
            seed,
        };
        prop_assert!(spec.config().validate().is_ok());
        let quiet = spec.run();
        if let Some(diff) = divergence_summary(&quiet, &spec.with_telemetry(true).run()) {
            prop_assert!(false, "telemetry on diverged from telemetry off:\n{diff}");
        }
    }
}
