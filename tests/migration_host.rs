//! End-to-end tests of the live-migration/ballooning subsystem on the
//! consolidated host: the central downtime + victim-slowdown claims, the
//! stop-and-copy pause invariant under oversubscribed round-robin
//! scheduling, balloon capacity conservation, and determinism with events.

use hatric_host::scenario::{find, Params, Scale};
use hatric_host::{
    BalloonParams, CoherenceMechanism, ConsolidatedHost, HostConfig, HostEvent, MigrationParams,
    MigrationPhase, SchedPolicy, VmSpec,
};

/// An oversubscribed round-robin host (8 vCPUs over 4 pCPUs) whose slot-0
/// VM is live-migrated shortly after startup.
fn migrating_host(mechanism: CoherenceMechanism) -> ConsolidatedHost {
    let cfg = HostConfig::scaled(4, 512)
        .with_mechanism(mechanism)
        .with_sched(SchedPolicy::RoundRobin)
        .with_seed(0x314f)
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_event(HostEvent::Migrate(MigrationParams::at(0, 80)));
    ConsolidatedHost::new(cfg).expect("migration test config must validate")
}

#[test]
fn hatric_beats_software_on_downtime_and_victim_slowdown() {
    let report = find("migration_storm")
        .unwrap()
        .run(&Params::new(), Scale::Smoke)
        .unwrap();
    // `precopy` runs the smoke sizing as it is.
    let value = |mechanism: &str, key: &str| {
        report
            .find("precopy", mechanism)
            .and_then(|row| row.number(key))
            .unwrap()
    };
    assert!(value("Software", "downtime_cycles") > value("Hatric", "downtime_cycles"));
    assert!(
        value("Software", "victim_slowdown_vs_ideal") > value("Hatric", "victim_slowdown_vs_ideal")
    );
    assert!(value("Software", "victim_disrupted_cycles") > 0.0);
    assert_eq!(value("Hatric", "victim_disrupted_cycles"), 0.0);
}

#[test]
fn stop_and_copy_pauses_the_vm_and_no_paused_vcpu_ever_runs() {
    let mut host = migrating_host(CoherenceMechanism::Software);
    let mut saw_pause = false;
    for _ in 0..400 {
        host.run_slices(1);
        if host.is_vm_paused(0) {
            saw_pause = true;
        }
        // The invariant: a slice executed while the VM is fully paused
        // never contains one of its vCPUs.  (The pause is applied at the
        // end of the deciding slice, so checking after each slice is the
        // strictest correct observation point.)
        if host.is_vm_paused(0) {
            assert!(
                host.last_placements().iter().all(|p| p.vm_slot != 0),
                "a vCPU of the fully-paused VM was scheduled"
            );
        }
    }
    assert!(saw_pause, "the migration never reached stop-and-copy");
    assert_eq!(host.migration_phase(), Some(MigrationPhase::Completed));
    assert!(!host.is_vm_paused(0), "the VM must resume after hand-off");
    // The migrated VM kept running after the migration completed.
    let report = host.report();
    assert!(report.migration.migrations_completed == 1);
    assert!(report.per_vm[0].accesses > 0);
}

#[test]
fn migration_stats_land_in_the_host_report() {
    let mut host = migrating_host(CoherenceMechanism::Hatric);
    let report = host.run(40, 360);
    let m = &report.migration;
    assert_eq!(m.migrations_started, 1);
    assert_eq!(m.migrations_completed, 1);
    assert!(m.precopy_rounds >= 1);
    assert!(m.pages_copied > 0);
    assert!(m.downtime_cycles > 0);
    assert!(m.migration_remaps > 0);
    // Migration remaps flow into the migrating VM's coherence activity.
    assert!(report.per_vm[0].coherence.remaps >= m.migration_remaps);
}

#[test]
fn balloon_conserves_capacity_and_counts_per_vm() {
    let balloon = BalloonParams::at(1, 2, 64, 60);
    let cfg = HostConfig::scaled(4, 512)
        .with_mechanism(CoherenceMechanism::Software)
        .with_sched(SchedPolicy::RoundRobin)
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_event(HostEvent::Balloon(balloon));
    let mut host = ConsolidatedHost::new(cfg).expect("balloon test config must validate");
    let report = host.run(40, 260);
    assert_eq!(report.migration.balloon_reclaimed_pages, 64);
    assert_eq!(report.migration.balloon_granted_pages, 64);
    assert_eq!(report.per_vm[1].paging.balloon_reclaimed.get(), 64);
    assert_eq!(report.per_vm[2].paging.balloon_granted.get(), 64);
    // Untouched VMs see no balloon activity.
    assert_eq!(report.per_vm[0].paging.balloon_reclaimed.get(), 0);
    assert_eq!(report.per_vm[0].paging.balloon_granted.get(), 0);
    // The inflated VM was squeezed below its footprint, so pages moved out.
    assert!(report.per_vm[1].faults.pages_demoted > 0);
}

#[test]
fn migration_straddling_the_warmup_boundary_keeps_started_ge_completed() {
    // A slow-link migration begins during warmup and finishes in the
    // measured phase; the measurement reset must not wipe the in-flight
    // migration's "started" marker.
    let mut params = MigrationParams::at(0, 10);
    params.copy_pages_per_slice = 4;
    let cfg = HostConfig::scaled(4, 512)
        .with_mechanism(CoherenceMechanism::Hatric)
        .with_sched(SchedPolicy::RoundRobin)
        .with_vm(VmSpec::victim(2, 128))
        .with_vm(VmSpec::victim(2, 128))
        .with_event(HostEvent::Migrate(params));
    let mut host = ConsolidatedHost::new(cfg).expect("straddle test config must validate");
    let report = host.run(20, 400);
    let m = &report.migration;
    assert_eq!(m.migrations_completed, 1, "migration must finish");
    assert!(
        m.migrations_started >= m.migrations_completed,
        "started {} must cover completed {}",
        m.migrations_started,
        m.migrations_completed
    );
    assert!(m.precopy_rounds >= 1);
}

#[test]
fn event_reports_are_deterministic_for_a_fixed_seed() {
    let run = || {
        let mut host = migrating_host(CoherenceMechanism::Software);
        host.run(50, 300)
    };
    assert_eq!(run(), run());
}

#[test]
fn invalid_events_are_rejected() {
    let base = || {
        HostConfig::scaled(2, 256)
            .with_vm(VmSpec::victim(1, 128))
            .with_vm(VmSpec::victim(1, 128))
    };
    // Unknown migration slot.
    let cfg = base().with_event(HostEvent::Migrate(MigrationParams::at(5, 0)));
    assert!(cfg.validate().is_err());
    // Balloon from a VM onto itself.
    let cfg = base().with_event(HostEvent::Balloon(BalloonParams::at(1, 1, 16, 0)));
    assert!(cfg.validate().is_err());
    // Balloon draining more than the quota.
    let cfg = base().with_event(HostEvent::Balloon(BalloonParams::at(0, 1, 1_000, 0)));
    assert!(cfg.validate().is_err());
    // A well-formed pair of events passes.
    let cfg = base()
        .with_event(HostEvent::Migrate(MigrationParams::at(0, 10)))
        .with_event(HostEvent::Balloon(BalloonParams::at(0, 1, 64, 50)));
    assert!(cfg.validate().is_ok());
}
