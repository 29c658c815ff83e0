//! The cluster-faults experiment: the churn fleet under a deterministic
//! fault storm — a host crash mid-migration, a stuck pre-copy that must
//! escalate, and a seeded background schedule of link and DRAM faults.
//!
//! The engineered part of the storm is fixed so the robustness claims are
//! checkable at any seed: three concurrent pre-copy migrations start, the
//! host that is simultaneously the *destination* of migration A and the
//! *source* of migration B crashes two epochs later (aborting both — one
//! with a destination rollback, one with a bounded retry — and
//! cold-restarting the dead host's VMs through placement), while
//! migration C's source engine is stuck and force-escalates to post-copy
//! at the non-convergence timeout.  On top of that, a
//! [`FaultPlan`] seeded by `fault_seed` (crash weight zero — the
//! engineered crash stays the only one) sprinkles link degradation,
//! blackouts, DRAM brownouts and stalls across the fleet.
//!
//! Everything is keyed to epochs, so the whole faulted run stays
//! byte-identical across thread counts.  The headline
//! comparison: under the *same* fault storm, HATRIC must recover no
//! slower than software shootdowns — aggregate victim slowdown and the
//! p99 of recovery downtime (migration blackouts ∪ restart windows) both
//! gate `hatric ≤ software`.

use hatric_cluster::{
    Cluster, FaultEvent, FaultKind, FaultPlan, FaultWeights, MigrationMode, ScheduledMigration,
};
use hatric_coherence::CoherenceMechanism;

use crate::experiments::ClusterChurnParams;
use crate::host::ConsolidatedHost;

/// Salt separating the background fault-plan seed from the churn and
/// workload seeds derived from the same master seed.
const FAULT_SEED_SALT: u64 = 0xfa57_fa17;

/// Sizing of the cluster-faults experiment: the churn fleet plus the
/// fault storm's knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFaultsParams {
    /// Fleet sizing and churn (the migration link is deliberately slow —
    /// `base.copy_pages_per_slice` — so the engineered crash lands
    /// mid-flight).
    pub base: ClusterChurnParams,
    /// Seed of the background [`FaultPlan`] (0 disables the background
    /// schedule; the engineered storm always runs).
    pub fault_seed: u64,
    /// Mean epochs between background fault events.
    pub fault_period: u64,
    /// Epochs after the migration start at which the engineered host
    /// crash fires.
    pub crash_after_epochs: u64,
    /// Duration of the engineered stuck-pre-copy window on migration C's
    /// source.
    pub stall_epochs: u64,
    /// Non-convergence timeout (epochs of pre-copy without hand-off
    /// before force-escalation to post-copy).
    pub stall_timeout_epochs: u64,
    /// Bounded retries for destination-crash aborts.
    pub max_retries: u32,
    /// Linear backoff between retry attempts, in epochs.
    pub retry_backoff_epochs: u64,
    /// Unavailability window charged per crash-driven VM cold restart.
    pub restart_penalty_cycles: u64,
}

impl ClusterFaultsParams {
    /// The committed-baseline sizing: the churn fleet with a slow
    /// migration link, crash two epochs into the storm, stuck pre-copy
    /// escalating after four epochs.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            base: ClusterChurnParams {
                copy_pages_per_slice: 2,
                ..ClusterChurnParams::default_scale()
            },
            fault_seed: 0xfa01,
            fault_period: 8,
            crash_after_epochs: 2,
            stall_epochs: 12,
            stall_timeout_epochs: 4,
            max_retries: 2,
            retry_backoff_epochs: 1,
            restart_penalty_cycles: 50_000,
        }
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            base: ClusterChurnParams {
                copy_pages_per_slice: 1,
                ..ClusterChurnParams::quick()
            },
            fault_seed: 0xfa01,
            fault_period: 6,
            crash_after_epochs: 2,
            stall_epochs: 10,
            stall_timeout_epochs: 3,
            max_retries: 2,
            retry_backoff_epochs: 1,
            restart_penalty_cycles: 50_000,
        }
    }

    /// The full fault schedule: the engineered storm (crash + stall)
    /// merged with the seeded background plan, in epoch order.
    ///
    /// # Panics
    ///
    /// Panics if the derived background plan is invalid (the built-in
    /// parameter sets never are).
    #[must_use]
    pub fn fault_schedule(&self) -> Vec<FaultEvent> {
        let start = self.base.migration_start_epoch();
        let mut events = vec![
            FaultEvent {
                epoch: start,
                kind: FaultKind::StuckPreCopy {
                    host: 2 % self.base.hosts,
                    epochs: self.stall_epochs,
                },
            },
            FaultEvent {
                epoch: start + self.crash_after_epochs,
                kind: FaultKind::HostCrash {
                    host: 1 % self.base.hosts,
                },
            },
        ];
        if self.fault_seed != 0 && self.fault_period > 0 {
            let plan = FaultPlan {
                weights: FaultWeights {
                    crash: 0, // the engineered crash stays the only one
                    link: 3,
                    brownout: 3,
                    stall: 2,
                },
                ..FaultPlan::new(
                    self.fault_seed ^ FAULT_SEED_SALT,
                    self.base.hosts,
                    self.fault_period,
                )
            };
            events.extend(
                plan.generate(self.base.warmup_epochs + self.base.measured_epochs)
                    .expect("the background fault plan is valid"),
            );
        }
        events.sort_by_key(|e| e.epoch);
        events
    }

    /// Builds the faulted fleet under `mechanism`: the churn fleet with
    /// recovery knobs set, three concurrent pre-copy migrations scheduled
    /// (hosts 0, 1 and 2, slot 0) and the fault schedule armed.
    ///
    /// # Panics
    ///
    /// Panics if the derived configurations are invalid or the fleet has
    /// fewer than four hosts (the engineered storm needs a crash victim,
    /// a stuck source and an uninvolved bystander).
    #[must_use]
    pub fn build_cluster(&self, mechanism: CoherenceMechanism) -> Cluster<ConsolidatedHost> {
        assert!(
            self.base.hosts >= 4,
            "the engineered fault storm needs at least four hosts"
        );
        let mut params = self.base.cluster_params();
        params.stall_timeout_epochs = self.stall_timeout_epochs;
        params.max_retries = self.max_retries;
        params.retry_backoff_epochs = self.retry_backoff_epochs;
        params.restart_penalty_cycles = self.restart_penalty_cycles;
        let mut cluster = self.base.build_fleet(mechanism, params);
        for src_host in 0..3 {
            cluster.schedule_migration(ScheduledMigration {
                epoch: self.base.migration_start_epoch(),
                src_host,
                src_slot: 0,
                // Migration A (src 0) is pinned onto host 1 so the
                // engineered crash deterministically kills a migration
                // *destination* (abort + bounded retry) as well as a
                // migration *source* (B, src 1); churn-perturbed loads
                // would otherwise let the policy route A elsewhere.
                dst_host: (src_host == 0).then_some(1 % self.base.hosts),
                mode: MigrationMode::PreCopy,
            });
        }
        cluster
            .set_faults(self.fault_schedule())
            .expect("the built-in fault schedule is valid");
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{find, Params, Scale, FLEET_MECHANISMS};

    #[test]
    fn the_storm_crashes_aborts_escalates_and_recovers() {
        let report = find("cluster_faults")
            .unwrap()
            .run(&Params::new(), Scale::Smoke)
            .unwrap();
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            let value = |key| row.number(key).unwrap();
            let mechanism = row.mechanism();
            assert_eq!(
                value("host_crashes"),
                1.0,
                "{mechanism}: exactly the engineered crash"
            );
            assert!(
                value("migrations_aborted") >= 2.0,
                "{mechanism}: the crash must abort both migrations touching host 1 \
                 (got {})",
                value("migrations_aborted")
            );
            assert!(
                value("migrations_escalated") >= 1.0,
                "{mechanism}: the stuck pre-copy must escalate"
            );
            assert!(
                value("vm_restarts") >= 1.0,
                "{mechanism}: the dead host's VMs must cold-restart"
            );
            assert!(value("faults_injected") >= 2.0);
            assert!(value("recovery_downtime_p99_cycles") > 0.0);
        }
        let value = |mechanism: &str, key: &str| {
            report
                .find("storm", mechanism)
                .and_then(|row| row.number(key))
                .unwrap()
        };
        let slowdown = |mechanism| value(mechanism, "agg_victim_slowdown_vs_ideal");
        let p99 = |mechanism| value(mechanism, "recovery_downtime_p99_cycles");
        assert!(
            slowdown("Hatric") <= slowdown("Software"),
            "hatric victim slowdown {} must not exceed software's {}",
            slowdown("Hatric"),
            slowdown("Software")
        );
        assert!(
            p99("Hatric") <= p99("Software"),
            "hatric recovery p99 {} must not exceed software's {}",
            p99("Hatric"),
            p99("Software")
        );
    }

    #[test]
    fn the_fault_storm_is_identical_across_mechanisms() {
        let params = ClusterFaultsParams::quick();
        let storms: Vec<_> = FLEET_MECHANISMS
            .iter()
            .map(|&mechanism| {
                let report = params
                    .build_cluster(mechanism)
                    .run(params.base.warmup_epochs, params.base.measured_epochs);
                (
                    report.recovery.host_crashes,
                    report.recovery.faults_injected,
                    report.restarts,
                )
            })
            .collect();
        assert_eq!(storms[0], storms[1]);
        assert_eq!(storms[1], storms[2]);
    }
}
