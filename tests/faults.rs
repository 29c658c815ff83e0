//! The fault layer's end-to-end contracts.
//!
//! Three invariants, per the robustness design:
//!
//! 1. **Deterministic storms** — the `cluster_faults` storm (host crash
//!    mid-migration, bounded retry, forced post-copy escalation, seeded
//!    background link/DRAM faults) produces a byte-identical
//!    `ClusterReport` across worker-thread counts {1, 2, 4}, at the
//!    committed Bench scale.  Faults
//!    fire from sim-time, never wall-clock, so the fleet's shape of
//!    parallelism must never leak into a faulted run.
//! 2. **Abort rolls back to pristine** — a migration that stalls from its
//!    first slice and is then aborted leaves the source host byte-
//!    identical to one that never started it, modulo the migration
//!    ledger's own bookkeeping of the failed attempt.
//! 3. **Fuzzed fault plans** — a property test hammers `FaultPlan` over
//!    random seeds, weights and rates (schedules are deterministic,
//!    epoch-ordered and in-range) and replays random storms over fleets
//!    of randomized hosts (`RandomHostSpec`) to check thread invariance
//!    under faults.

mod common;

use proptest::prelude::*;

use common::RandomHostSpec;
use hatric_cluster::{
    Cluster, ClusterParams, EpochHost, FaultClock, FaultKind, FaultPlan, FaultWeights,
    MigrationMode, ScheduledMigration,
};
use hatric_host::experiments::{ClusterChurnParams, ClusterFaultsParams};
use hatric_host::{CoherenceMechanism, ConsolidatedHost, MigrationParams};
use hatric_migration::ReceiverParams;

/// Runs the engineered fault storm and renders the fleet report in full
/// (`ClusterReport` carries no wall-clock fields, so the Debug form is
/// already timing-free).
fn storm_fingerprint(params: &ClusterFaultsParams) -> String {
    let mut cluster = params.build_cluster(CoherenceMechanism::Hatric);
    let report = cluster.run(params.base.warmup_epochs, params.base.measured_epochs);
    format!("{report:#?}")
}

/// The acceptance contract: at the committed Bench scale, with the fixed
/// fault seed, the storm injects at least one host crash and two
/// migration aborts, and the `ClusterReport` is byte-identical across
/// worker-thread counts {1, 2, 4}.
#[test]
fn bench_scale_fault_storm_is_byte_identical_across_threads_and_engines() {
    let base = ClusterFaultsParams::default_scale();
    let mut reference_cluster = base.build_cluster(CoherenceMechanism::Hatric);
    let reference_report =
        reference_cluster.run(base.base.warmup_epochs, base.base.measured_epochs);
    assert!(
        reference_report.recovery.host_crashes >= 1,
        "the fixed fault seed must inject at least one host crash"
    );
    assert!(
        reference_report.recovery.migrations_aborted >= 2,
        "the fixed fault seed must abort at least two migrations (got {})",
        reference_report.recovery.migrations_aborted
    );
    let reference = format!("{reference_report:#?}");
    for threads in [1usize, 2, 4] {
        if threads == base.base.threads {
            continue; // that is the reference run itself
        }
        let mut params = base;
        params.base.threads = threads;
        assert_eq!(
            storm_fingerprint(&params),
            reference,
            "faulted fleet diverged at threads={threads}"
        );
    }
}

/// Abort/rollback reconciliation at the host layer: a migration whose
/// engine is stalled from the very first slice copies nothing and
/// write-protects nothing, so aborting it must leave the source host
/// byte-identical to a host that never started the migration — the only
/// permitted difference is the migration ledger recording the failed
/// attempt itself.
#[test]
fn a_stalled_then_aborted_migration_leaves_the_source_pristine() {
    let base = ClusterChurnParams::quick();
    let config = base.host_config(0, CoherenceMechanism::Hatric);
    let mut faulted = ConsolidatedHost::new(config.clone()).expect("quick configs are valid");
    let mut pristine = ConsolidatedHost::new(config).expect("quick configs are valid");

    faulted.start_migration(MigrationParams::at(0, 0));
    faulted.set_migration_stalled(true);
    for _ in 0..4 {
        faulted.run_slices(10);
        pristine.run_slices(10);
    }
    let discarded = faulted.abort_migration();
    assert_eq!(discarded, 0, "a stalled engine never filled its outbox");
    for _ in 0..4 {
        faulted.run_slices(10);
        pristine.run_slices(10);
    }

    let mut after_abort = faulted.report();
    let mut never_started = pristine.report();
    assert_eq!(after_abort.migration.migrations_started, 1);
    assert_eq!(after_abort.migration.migrations_aborted, 1);
    assert_eq!(after_abort.migration.migrations_completed, 0);
    assert_eq!(after_abort.migration.pages_copied, 0);
    assert!(
        after_abort.migration.stalled_slices > 0,
        "the stall window must be accounted"
    );
    after_abort.migration = Default::default();
    never_started.migration = Default::default();
    assert_eq!(
        format!("{after_abort:#?}"),
        format!("{never_started:#?}"),
        "an aborted stalled migration must leave no trace outside the \
         migration ledger"
    );
}

/// A small randomized host for the fuzzed-fleet draw: shape varies with
/// the seed but stays cheap enough to run dozens of fleets.
fn random_host(seed: u64, ordinal: usize) -> ConsolidatedHost {
    let spec = RandomHostSpec {
        pcpus_per_socket: 2,
        sockets: 1,
        // Three slots so a deactivated spare leaves migration headroom.
        vm_vcpus: vec![1 + (seed % 2) as usize, 1, 1],
        mechanism_pick: (seed >> 8) as u8,
        sched_pick: (seed >> 16) as u8,
        policy_pick: (seed >> 24) as u8,
        slice_accesses: 15 + (seed >> 32) % 10,
        with_balloon: false,
        with_migration: false,
        threads: 1,
        tracing: false,
        timeline: false,
        seed: seed ^ (0x5eed * (ordinal as u64 + 1)),
    };
    ConsolidatedHost::new(spec.config()).expect("drawn configurations are valid")
}

/// Builds a small fleet of randomized hosts with a seeded fault plan and
/// one scheduled migration, runs it, and returns the report fingerprint.
fn fuzzed_storm_fingerprint(
    seed: u64,
    fault_seed: u64,
    period: u64,
    hosts: usize,
    threads: usize,
) -> String {
    let fleet: Vec<ConsolidatedHost> = (0..hosts).map(|h| random_host(seed, h)).collect();
    let mut params = ClusterParams::new(8, threads);
    params.migration = MigrationParams {
        copy_pages_per_slice: 4,
        ..MigrationParams::at(0, 0)
    };
    params.receiver = ReceiverParams::for_slot(0);
    params.stall_timeout_epochs = 4;
    params.max_retries = 1;
    params.retry_backoff_epochs = 1;
    let mut cluster = Cluster::new(fleet, params);
    for host in 0..hosts {
        cluster.set_vm_active(host, 2, false); // migration headroom
    }
    cluster.schedule_migration(ScheduledMigration {
        epoch: 2,
        src_host: 0,
        src_slot: 0,
        dst_host: None,
        mode: MigrationMode::PreCopy,
    });
    let plan = FaultPlan::new(fault_seed, hosts, period);
    cluster
        .set_faults(plan.generate(16).expect("generated plans are valid"))
        .expect("generated plans target in-range hosts");
    let report = cluster.run(4, 12);
    format!("{report:#?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `FaultPlan` schedules are a pure function of their seed, sorted by
    /// epoch, and every event targets an in-range host with a positive
    /// window — so [`FaultClock::for_fleet`] always accepts them.
    #[test]
    fn fault_plans_are_deterministic_ordered_and_in_range(
        seed in any::<u64>(),
        hosts in 1usize..6,
        period in 1u64..12,
        epochs in 1u64..80,
        crash in 0u64..4,
        link in 0u64..4,
        brownout in 0u64..4,
        stall in 0u64..4,
    ) {
        let plan = FaultPlan {
            weights: FaultWeights { crash, link, brownout, stall },
            ..FaultPlan::new(seed, hosts, period)
        };
        let a = plan.generate(epochs).expect("weighted plans are valid");
        let b = plan.generate(epochs).expect("weighted plans are valid");
        prop_assert_eq!(&a, &b, "the schedule must be a pure function of the seed");
        for pair in a.windows(2) {
            prop_assert!(pair[0].epoch <= pair[1].epoch, "events must be epoch-ordered");
        }
        for event in &a {
            prop_assert!(event.epoch < epochs);
            let (host, window) = match event.kind {
                FaultKind::HostCrash { host } => (host, 1),
                FaultKind::LinkDegrade { host, factor, epochs } => {
                    prop_assert!(factor >= 2, "a degraded link divides by at least 2");
                    (host, epochs)
                }
                FaultKind::LinkBlackout { host, epochs } => (host, epochs),
                FaultKind::DramBrownout { host, multiplier_x100, epochs } => {
                    prop_assert!(multiplier_x100 > 100, "a brownout must slow the device");
                    (host, epochs)
                }
                FaultKind::StuckPreCopy { host, epochs } => (host, epochs),
            };
            prop_assert!(host < hosts, "events must target in-range hosts");
            prop_assert!(window >= 1, "fault windows must be positive");
        }
        prop_assert!(FaultClock::for_fleet(a, hosts).is_ok());
    }

    /// Random fault storms over fleets of randomized hosts never break
    /// worker-thread invariance: crashes, link faults, brownouts and
    /// stalls all key off sim-time epochs.
    #[test]
    fn fuzzed_fault_storms_on_random_hosts_are_thread_invariant(
        seed in any::<u64>(),
        fault_seed in 1u64..1_000_000,
        period in 1u64..6,
        hosts in 2usize..4,
        threads in 2usize..5,
    ) {
        let reference = fuzzed_storm_fingerprint(seed, fault_seed, period, hosts, 1);
        let wide = fuzzed_storm_fingerprint(seed, fault_seed, period, hosts, threads);
        prop_assert_eq!(
            wide, reference,
            "threads={} diverged under faults (seed={:#x} fault_seed={} period={} hosts={})",
            threads, seed, fault_seed, period, hosts
        );
    }
}
