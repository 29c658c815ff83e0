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
    ChurnStream, Cluster, ClusterParams, MigrationMode, PlacementPolicy, ScheduledMigration,
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
        let mut cluster = self.build_fleet(mechanism, self.cluster_params());
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

    /// The fleet's cluster knobs: its epoch length, threads, placement
    /// policy and migration link; recovery stays inert.
    pub(crate) fn cluster_params(&self) -> ClusterParams {
        let mut params = ClusterParams::new(self.epoch_slices, self.threads);
        params.policy = self.policy;
        params.migration = MigrationParams {
            copy_pages_per_slice: self.copy_pages_per_slice,
            throttle_after_rounds: self.throttle_after_rounds,
            ..MigrationParams::at(0, 0)
        };
        params.receiver = ReceiverParams::for_slot(0);
        params
    }

    /// The fleet under `mechanism` with cluster knobs `params`: hosts
    /// constructed, spare slots deactivated and the churn stream
    /// installed, with no migration scheduled yet.
    ///
    /// # Panics
    ///
    /// Panics if the derived host configurations are invalid.
    pub(crate) fn build_fleet(
        &self,
        mechanism: CoherenceMechanism,
        params: ClusterParams,
    ) -> Cluster<ConsolidatedHost> {
        let hosts: Vec<ConsolidatedHost> = (0..self.hosts)
            .map(|h| {
                ConsolidatedHost::new(self.host_config(h, mechanism))
                    .expect("fleet configurations are valid")
            })
            .collect();
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
        cluster
    }
}

/// Salt separating the churn-stream seed from the workload seeds derived
/// from the same master seed.
const CHURN_SEED_SALT: u64 = 0xc0de_c4a2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{find, Params, Scale, FLEET_MECHANISMS};

    #[test]
    fn concurrent_migrations_complete_and_hatric_bounds_the_damage() {
        // Churn off isolates the scheduled migrations.
        let report = find("cluster_churn")
            .unwrap()
            .run(&Params::new().with("churn_period", 0), Scale::Smoke)
            .unwrap();
        let rows: Vec<_> = report.rows.iter().filter(|r| r.label() == "mig4").collect();
        assert_eq!(rows.len(), 3);
        let value = |mechanism: &str, key: &str| {
            report
                .find("mig4", mechanism)
                .and_then(|row| row.number(key))
                .unwrap()
        };
        for row in &rows {
            let value = |key| row.number(key).unwrap();
            assert_eq!(
                value("migrations_completed"),
                4.0,
                "{}: all four migrations must hand off inside the window",
                row.mechanism()
            );
            assert!(value("peak_inflight") >= 4.0);
            assert!(value("received_pages") > 0.0);
            assert!(value("downtime_p99_cycles") > 0.0);
        }
        let downtime = |mechanism| value(mechanism, "downtime_p99_cycles");
        let slowdown = |mechanism| value(mechanism, "agg_victim_slowdown_vs_ideal");
        assert!(
            downtime("Software") > downtime("Hatric"),
            "software downtime p99 {} must exceed hatric's {}",
            downtime("Software"),
            downtime("Hatric")
        );
        assert!(
            slowdown("Software") > slowdown("Hatric"),
            "software victim slowdown {} must exceed hatric's {}",
            slowdown("Software"),
            slowdown("Hatric")
        );
    }

    #[test]
    fn churn_places_arrivals_and_the_fleet_reconciles() {
        let params = ClusterChurnParams::quick();
        for &mechanism in FLEET_MECHANISMS {
            let report = params
                .build_cluster(mechanism, 1)
                .run(params.warmup_epochs, params.measured_epochs);
            assert_eq!(report.hosts(), 4);
            let summed: u64 = report.per_host.iter().map(|h| h.host.accesses).sum();
            assert_eq!(report.aggregate.accesses, summed);
        }
    }
}
