//! The cluster tier's end-to-end contracts.
//!
//! Three invariants, per the cluster design:
//!
//! 1. **Byte-identical fleets** — a `ClusterReport` is byte-identical
//!    for any worker-thread count ({1, 2, 4}).  All cross-host coupling
//!    is serialized at epoch boundaries, so the fleet's shape
//!    of parallelism must never leak into results.  The scenario layer
//!    gets the same treatment through the registry (reusing the
//!    `tests/common` timing-stripping helpers), which also covers the
//!    report-JSON path `scenarios check` gates.
//! 2. **Fuzzed churn determinism** — a property test hammers the same
//!    invariant over randomized churn streams, migration counts,
//!    placement policies and fleet shapes.
//! 3. **Exact reconciliation** — cluster aggregates equal the field-wise
//!    sum (or concatenation) of the per-host reports; nothing is counted
//!    twice and nothing is dropped in the merge.

mod common;

use proptest::prelude::*;

use common::strip_timing;
use hatric_cluster::PlacementPolicy;
use hatric_host::experiments::ClusterChurnParams;
use hatric_host::scenario::{find, Params, Scale};
use hatric_host::CoherenceMechanism;

/// A tighter sizing than [`ClusterChurnParams::quick`] for the sweeps
/// that run many fleets.
fn tiny() -> ClusterChurnParams {
    ClusterChurnParams {
        hosts: 3,
        num_pcpus: 2,
        fast_pages: 256,
        active_vms: 1,
        spare_slots: 1,
        vm_vcpus: 1,
        epoch_slices: 10,
        warmup_epochs: 4,
        measured_epochs: 10,
        slice_accesses: 20,
        churn_period: 4,
        copy_pages_per_slice: 32,
        ..ClusterChurnParams::quick()
    }
}

/// Runs a fleet and renders its report in full (`ClusterReport` carries
/// no wall-clock fields, so the Debug form is already timing-free).
fn fleet_fingerprint(params: &ClusterChurnParams, migrations: usize) -> String {
    let mut cluster = params.build_cluster(CoherenceMechanism::Hatric, migrations);
    let report = cluster.run(params.warmup_epochs, params.measured_epochs);
    format!("{report:#?}")
}

#[test]
fn cluster_report_is_byte_identical_across_threads_and_engines() {
    let reference = fleet_fingerprint(&tiny(), 2);
    for threads in [1usize, 2, 4] {
        let params = ClusterChurnParams { threads, ..tiny() };
        let run = fleet_fingerprint(&params, 2);
        assert_eq!(run, reference, "fleet diverged at threads={threads}");
    }
}

/// The same invariant one layer up: the registered scenario's report JSON
/// (the artifact `scenarios check` gates) must be byte-identical across the
/// worker-thread counts once wall-clock columns are stripped.
#[test]
fn cluster_churn_scenario_report_is_thread_invariant() {
    let scenario = find("cluster_churn").expect("cluster_churn is registered");
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let report = scenario
                .run(&Params::new().with("threads", threads), Scale::Smoke)
                .unwrap_or_else(|err| panic!("threads={threads}: {err}"));
            strip_timing(&report.to_json())
        })
        .collect();
    assert_eq!(runs[1], runs[0], "threads=2 diverged from threads=1");
    assert_eq!(runs[2], runs[0], "threads=4 diverged from threads=1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized churn streams, fleet shapes, migration counts and
    /// placement policies never break thread-count invariance.
    #[test]
    fn fuzzed_fleets_are_thread_invariant(
        seed in any::<u64>(),
        hosts in 2usize..5,
        churn_period in 0u64..6,
        migrations in 0usize..3,
        affinity in any::<bool>(),
        threads in 2usize..5,
    ) {
        let params = ClusterChurnParams {
            seed,
            hosts,
            churn_period,
            policy: if affinity {
                PlacementPolicy::Affinity
            } else {
                PlacementPolicy::LeastLoaded
            },
            ..tiny()
        };
        let migrations = migrations.min(hosts);
        let reference = fleet_fingerprint(&params, migrations);
        let wide = fleet_fingerprint(
            &ClusterChurnParams { threads, ..params },
            migrations,
        );
        prop_assert_eq!(
            wide, reference,
            "threads={} diverged (seed={seed:#x} hosts={hosts} churn={churn_period} \
             migs={migrations} affinity={affinity})",
            threads
        );
    }
}

#[test]
fn cluster_aggregates_reconcile_exactly_with_per_host_reports() {
    let params = ClusterChurnParams::quick();
    let mut cluster = params.build_cluster(CoherenceMechanism::Software, 2);
    let report = cluster.run(params.warmup_epochs, params.measured_epochs);

    prop_assert_hosts(&report, params.hosts);

    // Scalar sums.
    let sum = |f: &dyn Fn(&hatric_host::HostReport) -> u64| -> u64 {
        report.per_host.iter().map(f).sum()
    };
    assert_eq!(report.aggregate.accesses, sum(&|h| h.host.accesses));
    assert_eq!(
        report.aggregate.coherence.remaps,
        sum(&|h| h.host.coherence.remaps)
    );
    assert_eq!(
        report.aggregate.coherence.ipis,
        sum(&|h| h.host.coherence.ipis)
    );
    assert_eq!(
        report.aggregate.coherence.coherence_vm_exits,
        sum(&|h| h.host.coherence.coherence_vm_exits)
    );
    assert_eq!(
        report.aggregate.interference.disrupted_cycles,
        sum(&|h| h.host.interference.disrupted_cycles)
    );
    assert_eq!(
        report.migration.pages_copied,
        sum(&|h| h.migration.pages_copied)
    );
    assert_eq!(
        report.migration.received_pages,
        sum(&|h| h.migration.received_pages)
    );
    assert_eq!(
        report.migration.migrations_started,
        sum(&|h| h.migration.migrations_started)
    );
    assert_eq!(
        report.migration.throttled_slices,
        sum(&|h| h.migration.throttled_slices)
    );
    assert_eq!(
        report.migration.migrations_aborted,
        sum(&|h| h.migration.migrations_aborted)
    );
    assert_eq!(
        report.migration.migrations_escalated,
        sum(&|h| h.migration.migrations_escalated)
    );
    assert_eq!(
        report.migration.pages_dropped,
        sum(&|h| h.migration.pages_dropped)
    );
    assert_eq!(
        report.migration.pages_discarded,
        sum(&|h| h.migration.pages_discarded)
    );
    assert_eq!(
        report.migration.stalled_slices,
        sum(&|h| h.migration.stalled_slices)
    );

    // The causal ledger keeps every host's remaps apart: `RemapId`s repeat
    // across hosts (same slot, same ordinal), so the aggregate tags each
    // with its host and holds exactly one entry per host entry.
    assert_eq!(
        report.aggregate.causal.len() as u64,
        sum(&|h| h.host.causal.len() as u64)
    );
    assert_eq!(
        report.aggregate.causal.total().victim_cycles,
        sum(&|h| h.host.causal.total().victim_cycles)
    );
    let (top, cost) = report.aggregate.causal.top_by_victim_cycles(1)[0];
    assert!(cost.victim_cycles > 0, "software shootdowns stall victims");
    let host = top.host().expect("a fleet remap names its host") as usize;
    assert!(top.to_string().starts_with(&format!("h{host}/vm")), "{top}");
    let own = report.per_host[host]
        .host
        .causal
        .iter()
        .find(|(id, _)| (id.slot, id.ordinal) == (top.slot, top.ordinal))
        .map(|(_, c)| *c);
    assert_eq!(own, Some(cost), "the top remap's cost is its host's");

    // The fleet's cycle vector is the per-host concatenation in host order.
    let concatenated: Vec<u64> = report
        .per_host
        .iter()
        .flat_map(|h| h.host.cycles_per_cpu.iter().copied())
        .collect();
    assert_eq!(report.aggregate.cycles_per_cpu, concatenated);

    // The migration ledger is internally consistent: every outcome names
    // real endpoints, the source handed pages to the destination, and the
    // completion count matches the hand-off flags.
    assert!(!report.migrations.is_empty(), "both migrations must appear");
    for outcome in &report.migrations {
        assert!(outcome.src_host < report.hosts());
        assert!(outcome.dst_host < report.hosts());
        assert_ne!(
            (outcome.src_host, outcome.src_slot),
            (outcome.dst_host, outcome.dst_slot),
            "a migration never lands on its own source slot"
        );
    }
    assert_eq!(
        report.completed_migrations(),
        report.migrations.iter().filter(|m| m.handed_off).count() as u64
    );
    assert!(report.peak_inflight >= 1);
    assert!(report.downtime_percentile(99) <= report.downtime_percentile(100));
}

fn prop_assert_hosts(report: &hatric_cluster::ClusterReport, hosts: usize) {
    assert_eq!(report.hosts(), hosts);
    assert_eq!(report.per_host.len(), hosts);
}

/// Mid-flight receiver abort reconciles page-exactly.  The source host is
/// crashed in the middle of a pre-copy against a deliberately *slow*
/// receiver (one page per slice), so the destination holds both a landed
/// partial image (rolled back, but still counted as received) and a
/// non-empty inbox backlog (discarded) at abort time.  Every page the
/// source ever copied must be accounted for:
///
/// ```text
/// pages_copied == received_pages + pages_dropped + pages_discarded
/// ```
///
/// Nothing in flight is lost — the epoch-boundary wiring drains the
/// source outbox every epoch, and the crash fires at a boundary.
#[test]
fn a_source_crash_mid_precopy_reconciles_pages_exactly() {
    use hatric_cluster::{
        Cluster, ClusterParams, FaultEvent, FaultKind, MigrationMode, ScheduledMigration,
    };
    use hatric_host::{ConsolidatedHost, MigrationParams};
    use hatric_migration::ReceiverParams;

    let base = ClusterChurnParams::quick();
    let fleet: Vec<ConsolidatedHost> = (0..2)
        .map(|h| {
            ConsolidatedHost::new(base.host_config(h, CoherenceMechanism::Hatric))
                .expect("quick configs are valid")
        })
        .collect();
    let mut params = ClusterParams::new(base.epoch_slices, 1);
    params.migration = MigrationParams {
        copy_pages_per_slice: 2,
        ..MigrationParams::at(0, 0)
    };
    params.receiver = ReceiverParams {
        pages_per_slice: 1,
        ..ReceiverParams::for_slot(0)
    };
    let mut cluster = Cluster::new(fleet, params);
    for host in 0..2 {
        for slot in base.active_vms..base.vm_slots() {
            cluster.set_vm_active(host, slot, false);
        }
    }
    cluster.schedule_migration(ScheduledMigration {
        epoch: 2,
        src_host: 0,
        src_slot: 0,
        dst_host: Some(1),
        mode: MigrationMode::PreCopy,
    });
    cluster
        .set_faults(vec![FaultEvent {
            epoch: 5,
            kind: FaultKind::HostCrash { host: 0 },
        }])
        .expect("the crash targets an in-range host");
    let report = cluster.run(2, 10);

    assert_eq!(report.recovery.host_crashes, 1);
    assert_eq!(report.recovery.migrations_aborted, 1);
    assert_eq!(report.migrations.len(), 1, "exactly one migration ran");
    let outcome = &report.migrations[0];
    assert!(outcome.aborted, "the crash must abort the migration");
    assert!(
        !outcome.handed_off,
        "three epochs of pre-copy at two pages a slice cannot move the \
         whole image, so the VM never flipped"
    );

    // The slow receiver guarantees both sides of the ledger are non-zero:
    // some pages landed (and survive the rollback *as counters*), some
    // were still queued and were discarded.
    assert!(report.migration.received_pages > 0, "some pages landed");
    assert!(
        report.migration.pages_discarded > 0,
        "the inbox backlog at abort time must be non-empty"
    );
    assert_eq!(
        report.migration.pages_copied,
        report.migration.received_pages
            + report.migration.pages_dropped
            + report.migration.pages_discarded,
        "every copied page must be landed, dropped or discarded"
    );
    // All destination-side counters live on host 1, source-side on host 0.
    assert_eq!(
        report.per_host[1].migration.pages_discarded,
        report.migration.pages_discarded
    );
    assert_eq!(
        report.per_host[0].migration.migrations_aborted, 1,
        "the source engine records its own abort"
    );
}
