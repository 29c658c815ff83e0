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
    ChurnStream, Cluster, ClusterParams, ClusterReport, FaultEvent, FaultKind, FaultPlan,
    FaultWeights, MigrationMode, ScheduledMigration,
};
use hatric_coherence::CoherenceMechanism;
use hatric_migration::{MigrationParams, ReceiverParams};

use crate::experiments::cluster_churn::{
    mean_victim_runtime, victim_disrupted_cycles, ClusterChurnParams,
};
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

    /// Builds the faulted fleet under `mechanism`: churn installed, three
    /// concurrent pre-copy migrations scheduled (hosts 0, 1 and 2, slot
    /// 0), the fault schedule armed, recovery knobs set.
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
        let hosts: Vec<ConsolidatedHost> = (0..self.base.hosts)
            .map(|h| {
                ConsolidatedHost::new(self.base.host_config(h, mechanism))
                    .expect("cluster-faults configurations are valid")
            })
            .collect();
        let mut params = ClusterParams::new(self.base.epoch_slices, self.base.threads);
        params.policy = self.base.policy;
        params.migration = MigrationParams {
            copy_pages_per_slice: self.base.copy_pages_per_slice,
            throttle_after_rounds: self.base.throttle_after_rounds,
            ..MigrationParams::at(0, 0)
        };
        params.receiver = ReceiverParams::for_slot(0);
        params.stall_timeout_epochs = self.stall_timeout_epochs;
        params.max_retries = self.max_retries;
        params.retry_backoff_epochs = self.retry_backoff_epochs;
        params.restart_penalty_cycles = self.restart_penalty_cycles;
        let mut cluster = Cluster::new(hosts, params);
        for host in 0..self.base.hosts {
            for slot in self.base.active_vms..self.base.vm_slots() {
                cluster.set_vm_active(host, slot, false);
            }
        }
        if self.base.churn_period > 0 {
            cluster.set_churn(
                ChurnStream::new(
                    self.base.seed ^ 0xc0de_c4a2,
                    self.base.hosts,
                    self.base.churn_period,
                )
                .generate(self.base.warmup_epochs + self.base.measured_epochs),
            );
        }
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

/// The outcome of one mechanism's cluster-faults run.
#[derive(Debug, Clone)]
pub struct ClusterFaultsRow {
    /// Mechanism under test.
    pub mechanism: CoherenceMechanism,
    /// The merged fleet report.
    pub report: ClusterReport,
    /// Mean victim runtime in cycles (VMs untouched by any migration).
    pub victim_runtime: f64,
    /// Mean victim runtime normalised to the same victims under
    /// [`CoherenceMechanism::Ideal`].
    pub agg_victim_slowdown_vs_ideal: f64,
    /// Cycles stolen from victim vCPUs by coherence across the fleet.
    pub victim_disrupted_cycles: u64,
    /// p99 of the recovery-downtime distribution (handed-off migration
    /// blackouts ∪ crash-restart windows).
    pub recovery_downtime_p99_cycles: u64,
    /// Worst recovery downtime.
    pub recovery_downtime_max_cycles: u64,
    /// Wall-clock milliseconds of the run (machine-dependent, ungated).
    pub elapsed_ms: f64,
    /// Measured accesses per wall-clock second (machine-dependent,
    /// ungated).
    pub accesses_per_sec: f64,
}

/// Runs the faulted fleet under software, HATRIC and ideal coherence and
/// returns one row per mechanism (victim slowdowns normalised to the
/// ideal run, which weathers the identical fault storm).
#[must_use]
pub fn run(params: &ClusterFaultsParams) -> Vec<ClusterFaultsRow> {
    let mechanisms = [
        CoherenceMechanism::Software,
        CoherenceMechanism::Hatric,
        CoherenceMechanism::Ideal,
    ];
    let reports: Vec<(CoherenceMechanism, ClusterReport, f64)> = mechanisms
        .iter()
        .map(|&mechanism| {
            let mut cluster = params.build_cluster(mechanism);
            let start = std::time::Instant::now();
            let report = cluster.run(params.base.warmup_epochs, params.base.measured_epochs);
            (mechanism, report, start.elapsed().as_secs_f64())
        })
        .collect();
    let ideal_victim = reports
        .iter()
        .find(|(m, _, _)| *m == CoherenceMechanism::Ideal)
        .map(|(_, r, _)| mean_victim_runtime(r))
        .unwrap_or(0.0);
    reports
        .into_iter()
        .map(|(mechanism, report, elapsed_secs)| {
            let victim_runtime = mean_victim_runtime(&report);
            let accesses_per_sec = if elapsed_secs > 0.0 {
                report.aggregate.accesses as f64 / elapsed_secs
            } else {
                0.0
            };
            ClusterFaultsRow {
                mechanism,
                victim_runtime,
                agg_victim_slowdown_vs_ideal: if ideal_victim == 0.0 {
                    0.0
                } else {
                    victim_runtime / ideal_victim
                },
                victim_disrupted_cycles: victim_disrupted_cycles(&report),
                recovery_downtime_p99_cycles: report.recovery_downtime_percentile(99),
                recovery_downtime_max_cycles: report.recovery_downtime_percentile(100),
                report,
                elapsed_ms: elapsed_secs * 1_000.0,
                accesses_per_sec,
            }
        })
        .collect()
}

/// Formats the rows as the table the example prints.
#[must_use]
pub fn format_table(rows: &[ClusterFaultsRow]) -> String {
    let mut out = String::from(
        "mechanism     victim-slowdown  recovery-p99  recovery-max  crashes  aborts  retried  escalated  restarts\n",
    );
    for row in rows {
        let r = row.report.recovery;
        out.push_str(&format!(
            "{:<13} {:>16.3} {:>13} {:>13} {:>8} {:>7} {:>8} {:>10} {:>9}\n",
            format!("{:?}", row.mechanism),
            row.agg_victim_slowdown_vs_ideal,
            row.recovery_downtime_p99_cycles,
            row.recovery_downtime_max_cycles,
            r.host_crashes,
            r.migrations_aborted,
            r.migrations_retried,
            r.migrations_escalated,
            r.vm_restarts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_storm_crashes_aborts_escalates_and_recovers() {
        let rows = run(&ClusterFaultsParams::quick());
        assert_eq!(rows.len(), 3);
        let by = |m: CoherenceMechanism| rows.iter().find(|r| r.mechanism == m).unwrap();
        let sw = by(CoherenceMechanism::Software);
        let hatric = by(CoherenceMechanism::Hatric);
        for row in &rows {
            let recovery = row.report.recovery;
            assert_eq!(
                recovery.host_crashes, 1,
                "{:?}: exactly the engineered crash",
                row.mechanism
            );
            assert!(
                recovery.migrations_aborted >= 2,
                "{:?}: the crash must abort both migrations touching host 1 \
                 (got {})",
                row.mechanism,
                recovery.migrations_aborted
            );
            assert!(
                recovery.migrations_escalated >= 1,
                "{:?}: the stuck pre-copy must escalate",
                row.mechanism
            );
            assert!(
                recovery.vm_restarts >= 1,
                "{:?}: the dead host's VMs must cold-restart",
                row.mechanism
            );
            assert!(recovery.faults_injected >= 2);
            assert!(row.recovery_downtime_p99_cycles > 0);
        }
        assert!(
            hatric.agg_victim_slowdown_vs_ideal <= sw.agg_victim_slowdown_vs_ideal,
            "hatric victim slowdown {} must not exceed software's {}",
            hatric.agg_victim_slowdown_vs_ideal,
            sw.agg_victim_slowdown_vs_ideal
        );
        assert!(
            hatric.recovery_downtime_p99_cycles <= sw.recovery_downtime_p99_cycles,
            "hatric recovery p99 {} must not exceed software's {}",
            hatric.recovery_downtime_p99_cycles,
            sw.recovery_downtime_p99_cycles
        );
    }

    #[test]
    fn the_fault_storm_is_identical_across_mechanisms() {
        let params = ClusterFaultsParams::quick();
        let rows = run(&params);
        let storms: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    r.report.recovery.host_crashes,
                    r.report.recovery.faults_injected,
                    r.report.restarts.clone(),
                )
            })
            .collect();
        assert_eq!(storms[0], storms[1]);
        assert_eq!(storms[1], storms[2]);
    }
}
