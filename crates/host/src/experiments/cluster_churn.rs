//! The cluster-churn experiment: a fleet of consolidated hosts under
//! concurrent inter-host live migrations and VM arrival/departure churn.
//!
//! Each host runs `active_vms` victim VMs (plus spare slots for arrivals
//! and migration destinations) over its own platform; the
//! [`Cluster`] advances the fleet in lockstep
//! epochs and wires migration page streams between hosts at the epoch
//! boundaries.  Shortly into the measured phase, `migrations` pre-copy
//! migrations start at once — one per source host — so every transferred
//! page triggers a source-side write-protect *and* a destination-side
//! first-touch-plus-remap, on two different hosts, under the mechanism
//! under test.  The aggregate victim slowdown and the per-migration
//! downtime distribution are the headline numbers: software shootdowns
//! degrade both as the concurrent-migration count grows, HATRIC holds
//! both near the ideal-coherence bound.

use hatric_cluster::{
    ChurnStream, Cluster, ClusterParams, ClusterReport, MigrationMode, PlacementPolicy,
    ScheduledMigration,
};
use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::SchedPolicy;
use hatric_migration::{MigrationParams, ReceiverParams};

use crate::config::{HostConfig, VmSpec};
use crate::host::ConsolidatedHost;

/// Sizing of the cluster-churn experiment.
#[derive(Debug, Clone, Copy)]
pub struct ClusterChurnParams {
    /// Number of consolidated hosts in the fleet.
    pub hosts: usize,
    /// Physical CPUs per host.
    pub num_pcpus: usize,
    /// Die-stacked capacity per host, in 4 KiB pages.
    pub fast_pages: u64,
    /// VMs active on each host at the start of the run.
    pub active_vms: usize,
    /// Additional initially-inactive slots per host (arrival and
    /// migration-destination headroom).
    pub spare_slots: usize,
    /// vCPUs per VM.
    pub vm_vcpus: usize,
    /// Scheduler slices per cluster epoch.
    pub epoch_slices: u64,
    /// Unmeasured warmup epochs.
    pub warmup_epochs: u64,
    /// Measured epochs (migrations and churn land inside this window).
    pub measured_epochs: u64,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// Master seed (each host derives its own workload seeds from it).
    pub seed: u64,
    /// Cluster worker threads (hosts are sharded over them; results are
    /// byte-identical for any value).  Per-host slice engines run
    /// single-threaded — the fleet is the parallelism axis here.
    pub threads: usize,
    /// Mean epochs between churn events (0 disables churn).
    pub churn_period: u64,
    /// Pre-copy link bandwidth in pages per slice.
    pub copy_pages_per_slice: u64,
    /// Auto-convergence threshold in pre-copy rounds (0 disables).
    pub throttle_after_rounds: u32,
    /// Where arrivals and migration destinations land.
    pub policy: PlacementPolicy,
}

impl ClusterChurnParams {
    /// The committed-baseline sizing: four 4-pCPU hosts, three 2-vCPU VMs
    /// each plus two spare slots, light churn.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            hosts: 4,
            num_pcpus: 4,
            fast_pages: 1_024,
            active_vms: 3,
            spare_slots: 2,
            vm_vcpus: 2,
            epoch_slices: 30,
            warmup_epochs: 20,
            measured_epochs: 30,
            slice_accesses: 40,
            seed: hatric::DEFAULT_SEED,
            threads: 1,
            churn_period: 10,
            copy_pages_per_slice: 64,
            throttle_after_rounds: 3,
            policy: PlacementPolicy::LeastLoaded,
        }
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            hosts: 4,
            num_pcpus: 4,
            fast_pages: 512,
            active_vms: 2,
            spare_slots: 2,
            vm_vcpus: 2,
            epoch_slices: 20,
            warmup_epochs: 8,
            measured_epochs: 14,
            slice_accesses: 25,
            seed: 0x7e57,
            threads: 1,
            churn_period: 6,
            copy_pages_per_slice: 48,
            throttle_after_rounds: 3,
            policy: PlacementPolicy::LeastLoaded,
        }
    }

    /// Slots per host (active plus spare).
    #[must_use]
    pub fn vm_slots(&self) -> usize {
        self.active_vms + self.spare_slots
    }

    /// Epoch at which the scheduled migrations start (an eighth into the
    /// measured phase, mirroring the single-host migration storm).
    #[must_use]
    pub fn migration_start_epoch(&self) -> u64 {
        self.warmup_epochs + self.measured_epochs / 8
    }

    /// The configuration of host `host` under `mechanism`.  Every slot —
    /// spare ones included — carries a VM spec; the cluster deactivates
    /// the spares before the run.  Host seeds diverge so the fleet is not
    /// N copies of one workload.
    #[must_use]
    pub fn host_config(&self, host: usize, mechanism: CoherenceMechanism) -> HostConfig {
        let quota = self.fast_pages / self.vm_slots().max(1) as u64;
        let mut cfg = HostConfig::scaled(self.num_pcpus, self.fast_pages)
            .with_mechanism(mechanism)
            .with_sched(SchedPolicy::RoundRobin)
            .with_slice_accesses(self.slice_accesses)
            .with_threads(1)
            .with_seed(self.seed.wrapping_add(0x5eed * (host as u64 + 1)));
        for _ in 0..self.vm_slots() {
            cfg = cfg.with_vm(VmSpec::victim(self.vm_vcpus, quota));
        }
        cfg
    }

    /// Builds the fleet under `mechanism`: hosts constructed, spare slots
    /// deactivated, churn stream installed, `migrations` concurrent
    /// pre-copy migrations scheduled (one per source host, slot 0).
    ///
    /// # Panics
    ///
    /// Panics if the derived host configurations are invalid (the
    /// built-in parameter sets never are) or `migrations > hosts` (one
    /// outgoing pre-copy engine per host).
    #[must_use]
    pub fn build_cluster(
        &self,
        mechanism: CoherenceMechanism,
        migrations: usize,
    ) -> Cluster<ConsolidatedHost> {
        assert!(
            migrations <= self.hosts,
            "at most one concurrent outgoing migration per source host"
        );
        let hosts: Vec<ConsolidatedHost> = (0..self.hosts)
            .map(|h| {
                ConsolidatedHost::new(self.host_config(h, mechanism))
                    .expect("cluster-churn configurations are valid")
            })
            .collect();
        let mut params = ClusterParams::new(self.epoch_slices, self.threads);
        params.policy = self.policy;
        params.migration = MigrationParams {
            copy_pages_per_slice: self.copy_pages_per_slice,
            throttle_after_rounds: self.throttle_after_rounds,
            ..MigrationParams::at(0, 0)
        };
        params.receiver = ReceiverParams::for_slot(0);
        let mut cluster = Cluster::new(hosts, params);
        for host in 0..self.hosts {
            for slot in self.active_vms..self.vm_slots() {
                cluster.set_vm_active(host, slot, false);
            }
        }
        cluster.set_churn(
            ChurnStream::new(self.seed ^ CHURN_SEED_SALT, self.hosts, self.churn_period)
                .generate(self.warmup_epochs + self.measured_epochs),
        );
        for m in 0..migrations {
            cluster.schedule_migration(ScheduledMigration {
                epoch: self.migration_start_epoch(),
                src_host: m % self.hosts,
                src_slot: 0,
                dst_host: None,
                mode: MigrationMode::PreCopy,
            });
        }
        cluster
    }
}

/// Salt separating the churn-stream seed from the workload seeds derived
/// from the same master seed.
const CHURN_SEED_SALT: u64 = 0xc0de_c4a2;

/// The outcome of one mechanism's cluster-churn run.
#[derive(Debug, Clone)]
pub struct ClusterChurnRow {
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
    /// p99 of the per-migration downtime distribution.
    pub downtime_p99_cycles: u64,
    /// Worst per-migration downtime.
    pub downtime_max_cycles: u64,
    /// Wall-clock milliseconds of the run (machine-dependent, ungated).
    pub elapsed_ms: f64,
    /// Measured accesses per wall-clock second (machine-dependent,
    /// ungated).
    pub accesses_per_sec: f64,
}

/// Mean runtime over the fleet's victim VMs: every slot that made
/// progress and was never a source or destination of an inter-host
/// migration.  The set is a function of the deterministic churn/placement
/// flow only, so it is identical across mechanisms and the ratio to the
/// ideal run compares like with like.
pub(crate) fn mean_victim_runtime(report: &ClusterReport) -> f64 {
    let involved: Vec<(usize, usize)> = report
        .migrations
        .iter()
        .flat_map(|m| [(m.src_host, m.src_slot), (m.dst_host, m.dst_slot)])
        .collect();
    let mut total = 0.0;
    let mut count = 0u64;
    for (h, host) in report.per_host.iter().enumerate() {
        for (s, vm) in host.per_vm.iter().enumerate() {
            if vm.accesses > 0 && !involved.contains(&(h, s)) {
                total += vm.runtime_cycles() as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Summed coherence-disruption cycles over the same victim set
/// [`mean_victim_runtime`] averages.
pub(crate) fn victim_disrupted_cycles(report: &ClusterReport) -> u64 {
    let involved: Vec<(usize, usize)> = report
        .migrations
        .iter()
        .flat_map(|m| [(m.src_host, m.src_slot), (m.dst_host, m.dst_slot)])
        .collect();
    let mut total = 0;
    for (h, host) in report.per_host.iter().enumerate() {
        for (s, vm) in host.per_vm.iter().enumerate() {
            if vm.accesses > 0 && !involved.contains(&(h, s)) {
                total += vm.interference.disrupted_cycles;
            }
        }
    }
    total
}

/// Runs the fleet under software, HATRIC and ideal coherence with
/// `migrations` concurrent pre-copy migrations, and returns one row per
/// mechanism (victim slowdowns normalised to the ideal run).
#[must_use]
pub fn run(params: &ClusterChurnParams, migrations: usize) -> Vec<ClusterChurnRow> {
    let mechanisms = [
        CoherenceMechanism::Software,
        CoherenceMechanism::Hatric,
        CoherenceMechanism::Ideal,
    ];
    let reports: Vec<(CoherenceMechanism, ClusterReport, f64)> = mechanisms
        .iter()
        .map(|&mechanism| {
            let mut cluster = params.build_cluster(mechanism, migrations);
            let start = std::time::Instant::now();
            let report = cluster.run(params.warmup_epochs, params.measured_epochs);
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
            ClusterChurnRow {
                mechanism,
                victim_runtime,
                agg_victim_slowdown_vs_ideal: if ideal_victim == 0.0 {
                    0.0
                } else {
                    victim_runtime / ideal_victim
                },
                victim_disrupted_cycles: victim_disrupted_cycles(&report),
                downtime_p99_cycles: report.downtime_percentile(99),
                downtime_max_cycles: report.downtime_percentile(100),
                report,
                elapsed_ms: elapsed_secs * 1_000.0,
                accesses_per_sec,
            }
        })
        .collect()
}

/// Formats the rows as the table the example prints.
#[must_use]
pub fn format_table(rows: &[ClusterChurnRow]) -> String {
    let mut out = String::from(
        "mechanism     victim-slowdown  downtime-p99  downtime-max  migrations  peak-inflight  victim-disrupted\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<13} {:>16.3} {:>13} {:>13} {:>11} {:>14} {:>17}\n",
            format!("{:?}", row.mechanism),
            row.agg_victim_slowdown_vs_ideal,
            row.downtime_p99_cycles,
            row.downtime_max_cycles,
            row.report.completed_migrations(),
            row.report.peak_inflight,
            row.victim_disrupted_cycles,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_migrations_complete_and_hatric_bounds_the_damage() {
        let params = ClusterChurnParams {
            churn_period: 0, // isolate the scheduled migrations
            ..ClusterChurnParams::quick()
        };
        let rows = run(&params, 4);
        assert_eq!(rows.len(), 3);
        let by = |m: CoherenceMechanism| rows.iter().find(|r| r.mechanism == m).unwrap();
        let sw = by(CoherenceMechanism::Software);
        let hatric = by(CoherenceMechanism::Hatric);
        for row in &rows {
            assert_eq!(
                row.report.completed_migrations(),
                4,
                "{:?}: all four migrations must hand off inside the window",
                row.mechanism
            );
            assert!(row.report.peak_inflight >= 4);
            assert!(row.report.migration.received_pages > 0);
            assert!(row.downtime_p99_cycles > 0);
        }
        assert!(
            sw.downtime_p99_cycles > hatric.downtime_p99_cycles,
            "software downtime p99 {} must exceed hatric's {}",
            sw.downtime_p99_cycles,
            hatric.downtime_p99_cycles
        );
        assert!(
            sw.agg_victim_slowdown_vs_ideal > hatric.agg_victim_slowdown_vs_ideal,
            "software victim slowdown {} must exceed hatric's {}",
            sw.agg_victim_slowdown_vs_ideal,
            hatric.agg_victim_slowdown_vs_ideal
        );
    }

    #[test]
    fn churn_places_arrivals_and_the_fleet_reconciles() {
        let rows = run(&ClusterChurnParams::quick(), 1);
        for row in &rows {
            let report = &row.report;
            assert_eq!(report.hosts(), 4);
            let summed: u64 = report.per_host.iter().map(|h| h.host.accesses).sum();
            assert_eq!(report.aggregate.accesses, summed);
        }
    }
}
