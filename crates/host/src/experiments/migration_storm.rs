//! The live-migration remap-storm experiment.
//!
//! A consolidated host runs one *migrant* VM (footprint inside its
//! die-stacked quota, so it generates no paging remaps of its own) next to
//! remap-free victim VMs, oversubscribed over shared CPUs.  Mid-run the
//! hypervisor live-migrates the migrant: pre-copy write-protects and
//! re-copies its pages, then stop-and-copy freezes it for the final
//! transfer.  Optionally a balloon simultaneously moves die-stacked
//! capacity from the first victim to the migrant, adding
//! demotion/promotion remap traffic.
//!
//! Every nested-PTE store the storm issues must keep translation
//! structures coherent, so the mechanism under test determines two
//! headline numbers:
//!
//! * **downtime** — stop-and-copy cycles.  Software shootdowns put an IPI
//!   broadcast plus ack wait on the downtime path of every transferred
//!   page; HATRIC's directory messages cost orders of magnitude less.
//! * **victim slowdown** — co-located VMs eat the IPIs, VM exits and full
//!   flushes of the software path; HATRIC leaves them at (near) the
//!   ideal-coherence bound.

use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::SchedPolicy;
use hatric_migration::{BalloonParams, HostEvent, MigrationParams};

use crate::config::{HostConfig, VmSpec};

/// Sizing of the migration-storm experiment.
#[derive(Debug, Clone, Copy)]
pub struct MigrationStormParams {
    /// Physical CPUs of the host.
    pub num_pcpus: usize,
    /// Total die-stacked capacity in 4 KiB pages.
    pub fast_pages: u64,
    /// vCPUs of the migrating VM.
    pub migrant_vcpus: usize,
    /// Number of victim VMs.
    pub victims: usize,
    /// vCPUs of each victim VM.
    pub victim_vcpus: usize,
    /// Unmeasured warmup slices.
    pub warmup_slices: u64,
    /// Measured slices (the migration runs inside this window).
    pub measured_slices: u64,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Master seed.
    pub seed: u64,
    /// Pre-copy link bandwidth in pages per slice.
    pub copy_pages_per_slice: u64,
    /// Stop-and-copy once a round leaves at most this many dirty pages.
    pub dirty_page_threshold: u64,
    /// Forced stop-and-copy after this many rounds.
    pub max_rounds: u32,
    /// Cycles to transfer one page.
    pub page_copy_cycles: u64,
    /// Capacity pages ballooned from victim 1 to the migrant mid-run
    /// (0 disables the balloon; requires at least one victim otherwise).
    pub balloon_pages: u64,
}

impl MigrationStormParams {
    /// The sizing the benchmark harness uses: 4 pCPUs, 1 migrant + 3
    /// victims (8 vCPUs, round-robin, oversubscribed), migration starting
    /// an eighth into the measured phase.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            num_pcpus: 4,
            fast_pages: 2_048,
            migrant_vcpus: 2,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 600,
            measured_slices: 1_200,
            slice_accesses: 40,
            sched: SchedPolicy::RoundRobin,
            seed: hatric::DEFAULT_SEED,
            copy_pages_per_slice: 64,
            dirty_page_threshold: 16,
            max_rounds: 8,
            page_copy_cycles: 1_500,
            balloon_pages: 0,
        }
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            num_pcpus: 4,
            fast_pages: 512,
            migrant_vcpus: 2,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 200,
            measured_slices: 400,
            slice_accesses: 25,
            sched: SchedPolicy::RoundRobin,
            seed: 0x7e57,
            copy_pages_per_slice: 48,
            dirty_page_threshold: 24,
            max_rounds: 6,
            page_copy_cycles: 1_500,
            balloon_pages: 0,
        }
    }

    /// Returns a copy that also balloons `pages` of capacity from victim 1
    /// to the migrant halfway through the measured phase.
    #[must_use]
    pub fn with_balloon_pages(mut self, pages: u64) -> Self {
        self.balloon_pages = pages;
        self
    }

    /// Returns a copy with the given pre-copy bandwidth.
    #[must_use]
    pub fn with_copy_pages_per_slice(mut self, pages: u64) -> Self {
        self.copy_pages_per_slice = pages;
        self
    }

    /// Slice at which the migration starts (an eighth into the measured
    /// phase, so warmup state is settled and the storm is fully measured).
    #[must_use]
    pub fn migration_start_slice(&self) -> u64 {
        self.warmup_slices + self.measured_slices / 8
    }

    /// The host configuration this sizing describes, under `mechanism`.
    ///
    /// Slot 0 is the migrant; victims occupy slots `1..`.  The migrant's
    /// footprint fits its quota, so during the measured phase *all* remap
    /// traffic originates from the scheduled migration/balloon events.
    #[must_use]
    pub fn host_config(&self, mechanism: CoherenceMechanism) -> HostConfig {
        let migrant_quota = self.fast_pages / 4;
        let victim_quota = (self.fast_pages - migrant_quota) / self.victims.max(1) as u64;
        let mut cfg = HostConfig::scaled(self.num_pcpus, self.fast_pages)
            .with_mechanism(mechanism)
            .with_sched(self.sched)
            .with_slice_accesses(self.slice_accesses)
            .with_seed(self.seed)
            .with_vm(VmSpec::victim(self.migrant_vcpus, migrant_quota));
        for _ in 0..self.victims {
            cfg = cfg.with_vm(VmSpec::victim(self.victim_vcpus, victim_quota));
        }
        cfg = cfg.with_event(HostEvent::Migrate(MigrationParams {
            copy_pages_per_slice: self.copy_pages_per_slice,
            dirty_page_threshold: self.dirty_page_threshold,
            max_rounds: self.max_rounds,
            page_copy_cycles: self.page_copy_cycles,
            ..MigrationParams::at(0, self.migration_start_slice())
        }));
        if self.balloon_pages > 0 {
            // The balloon starts with the migration, so the two storms
            // genuinely overlap: victim 1's reclaim demotions and refill
            // promotions land while pre-copy write-protects are in flight.
            cfg = cfg.with_event(HostEvent::Balloon(BalloonParams::at(
                1,
                0,
                self.balloon_pages.min(victim_quota),
                self.migration_start_slice(),
            )));
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use hatric::metrics::HostReport;

    use super::*;
    use crate::host::ConsolidatedHost;
    use crate::scenario::{find, Params, Scale, HOST_MECHANISMS};

    /// Each mechanism's report of a run of `params`.
    fn reports(params: &MigrationStormParams) -> Vec<(CoherenceMechanism, HostReport)> {
        HOST_MECHANISMS
            .iter()
            .map(|&mechanism| {
                let mut host = ConsolidatedHost::new(params.host_config(mechanism)).unwrap();
                (
                    mechanism,
                    host.run(params.warmup_slices, params.measured_slices),
                )
            })
            .collect()
    }

    #[test]
    fn migration_completes_and_hatric_beats_software_on_both_metrics() {
        let report = find("migration_storm")
            .unwrap()
            .run(&Params::new(), Scale::Smoke)
            .unwrap();
        // `precopy` runs the smoke sizing as it is.
        let rows: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.label() == "precopy")
            .collect();
        assert_eq!(rows.len(), 4);
        let value = |mechanism: &str, key: &str| {
            report
                .find("precopy", mechanism)
                .and_then(|row| row.number(key))
                .unwrap()
        };
        for (mechanism, run) in reports(&MigrationStormParams::quick()) {
            assert_eq!(
                run.migration.migrations_completed, 1,
                "{mechanism:?}: migration must finish inside the measured window"
            );
        }
        for row in &rows {
            assert!(row.number("migration_remaps").unwrap() > 0.0);
            assert!(row.number("downtime_cycles").unwrap() > 0.0);
        }
        let downtime = |mechanism| value(mechanism, "downtime_cycles");
        let slowdown = |mechanism| value(mechanism, "victim_slowdown_vs_ideal");
        assert!(
            downtime("Software") > downtime("Hatric"),
            "software downtime {} must exceed hatric's {}",
            downtime("Software"),
            downtime("Hatric")
        );
        assert!(
            slowdown("Software") > slowdown("Hatric"),
            "software victim slowdown {} must exceed hatric's {}",
            slowdown("Software"),
            slowdown("Hatric")
        );
        assert!(value("Software", "victim_disrupted_cycles") > 0.0);
        assert_eq!(value("Hatric", "victim_disrupted_cycles"), 0.0);
    }

    #[test]
    fn balloon_variant_squeezes_the_victim_into_paging() {
        let params = MigrationStormParams::quick().with_balloon_pages(64);
        for (mechanism, report) in reports(&params) {
            assert!(report.migration.balloon_reclaimed_pages > 0);
            assert_eq!(
                report.migration.balloon_reclaimed_pages,
                report.migration.balloon_granted_pages
            );
            // The balloon's per-VM bookkeeping: victim 1 lost capacity, the
            // migrant gained it.
            assert!(report.per_vm[1].paging.balloon_reclaimed.get() > 0);
            assert!(report.per_vm[0].paging.balloon_granted.get() > 0);
            // 64 reclaimed pages push victim 1's capacity below its
            // footprint: real demotions happen at reclaim time, and the
            // squeezed VM keeps paging afterwards.
            assert!(
                report.per_vm[1].faults.pages_demoted > 0,
                "{mechanism:?}: balloon reclaim must demote resident pages"
            );
            assert!(
                report.per_vm[1].coherence.remaps > 0,
                "{mechanism:?}: the squeezed victim must generate remap traffic"
            );
        }
    }
}
