//! Simulation reports: runtime, coherence activity, paging activity, cache
//! and translation statistics, and energy.

use hatric_cache::CacheStatsSnapshot;
use hatric_energy::EnergyReport;
use hatric_hypervisor::PagingStats;
use hatric_telemetry::{CausalLedger, LatencyStats};
use hatric_tlb::TranslationStatsSnapshot;

/// Translation-coherence activity observed during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceActivity {
    /// Nested-page-table entries modified (page remaps).
    pub remaps: u64,
    /// Inter-processor interrupts sent by the software path.
    pub ipis: u64,
    /// VM exits caused by translation coherence (not demand faults).
    pub coherence_vm_exits: u64,
    /// Full translation-structure flushes performed.
    pub full_flushes: u64,
    /// Translation entries lost to full flushes.
    pub entries_flushed: u64,
    /// Translation entries removed by selective (co-tag) invalidation.
    pub entries_selectively_invalidated: u64,
    /// Hardware coherence messages delivered to translation structures.
    pub hw_messages: u64,
    /// Invalidation messages that found nothing to invalidate (spurious).
    pub spurious_messages: u64,
    /// Translation entries removed by directory back-invalidations.
    pub back_invalidated_entries: u64,
}

impl CoherenceActivity {
    /// Accumulates `other` into `self` (used when summing per-VM reports).
    pub fn merge(&mut self, other: &CoherenceActivity) {
        self.remaps += other.remaps;
        self.ipis += other.ipis;
        self.coherence_vm_exits += other.coherence_vm_exits;
        self.full_flushes += other.full_flushes;
        self.entries_flushed += other.entries_flushed;
        self.entries_selectively_invalidated += other.entries_selectively_invalidated;
        self.hw_messages += other.hw_messages;
        self.spurious_messages += other.spurious_messages;
        self.back_invalidated_entries += other.back_invalidated_entries;
    }
}

/// Cross-VM translation-coherence interference observed during a run.
///
/// On a consolidated host, one VM's page remaps can steal cycles from other
/// VMs: software shootdowns IPI every physical CPU the remapping VM ever ran
/// on, and whoever currently occupies those CPUs eats the VM exit and the
/// flush (Sec. 3.2 — "innocent bystanders").  Hardware mechanisms confine
/// invalidations to the directory's sharer list and never interrupt the
/// running guest, so a remap-free VM records zero disrupted cycles under
/// HATRIC.
///
/// *Disruptive* means the target action interrupts the occupant: a full
/// translation-structure flush or a coherence-induced VM exit.  Co-tag
/// invalidations are serviced by the translation-structure port without
/// stalling the pipeline and are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterferenceActivity {
    /// Cycles stolen from this VM's vCPUs by *other* VMs' translation
    /// coherence (flushes and VM exits charged while this VM occupied the
    /// targeted physical CPU).
    pub disrupted_cycles: u64,
    /// Number of disruptive events (IPI-induced flushes / VM exits) this VM
    /// received from other VMs.
    pub disruptions_received: u64,
    /// Cycles this VM's remaps imposed on vCPUs of *other* VMs.
    pub inflicted_cycles: u64,
}

impl InterferenceActivity {
    /// Accumulates `other` into `self` (used when summing per-VM reports).
    pub fn merge(&mut self, other: &InterferenceActivity) {
        self.disrupted_cycles += other.disrupted_cycles;
        self.disruptions_received += other.disruptions_received;
        self.inflicted_cycles += other.inflicted_cycles;
    }
}

/// Socket-locality activity on a NUMA host (all-zero on a single-socket
/// host, where nothing is ever remote).
///
/// DRAM accesses and coherence targets are classified against the socket of
/// the CPU doing (or initiating) the work; allocations against the socket
/// the hypervisor's placement policy preferred.  The remote-access ratio is
/// the axis the `numa_contention` experiment sweeps: software shootdowns
/// whose flushes force victims to refill translations through a congested
/// inter-socket link lose ground to HATRIC as the ratio rises.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaActivity {
    /// DRAM line accesses served by the accessing CPU's own socket.
    pub local_dram_accesses: u64,
    /// DRAM line accesses that crossed the inter-socket link.
    pub remote_dram_accesses: u64,
    /// Translation-coherence targets on the initiator's socket.
    pub local_coherence_targets: u64,
    /// Translation-coherence targets on another socket (these pay the
    /// cross-socket shootdown or hardware-message premium).
    pub remote_coherence_targets: u64,
    /// Page allocations that could not be satisfied on the preferred socket
    /// and spilled to a remote one.
    pub remote_allocations: u64,
}

impl NumaActivity {
    /// Accumulates `other` into `self` (used when summing per-VM reports).
    pub fn merge(&mut self, other: &NumaActivity) {
        self.local_dram_accesses += other.local_dram_accesses;
        self.remote_dram_accesses += other.remote_dram_accesses;
        self.local_coherence_targets += other.local_coherence_targets;
        self.remote_coherence_targets += other.remote_coherence_targets;
        self.remote_allocations += other.remote_allocations;
    }

    /// Fraction of DRAM accesses that crossed the inter-socket link
    /// (0.0 when no DRAM access happened).
    #[must_use]
    pub fn remote_access_ratio(&self) -> f64 {
        let total = self.local_dram_accesses + self.remote_dram_accesses;
        if total == 0 {
            0.0
        } else {
            self.remote_dram_accesses as f64 / total as f64
        }
    }

    /// Fraction of coherence targets that sat on another socket than the
    /// remap's initiator (0.0 when no target was touched).
    #[must_use]
    pub fn remote_target_ratio(&self) -> f64 {
        let total = self.local_coherence_targets + self.remote_coherence_targets;
        if total == 0 {
            0.0
        } else {
            self.remote_coherence_targets as f64 / total as f64
        }
    }
}

/// Demand-paging activity observed during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultActivity {
    /// Demand faults on non-resident pages (each causes a VM exit).
    pub demand_faults: u64,
    /// First-touch minor faults that populated brand-new mappings.
    pub first_touch_faults: u64,
    /// Pages migrated into die-stacked memory.
    pub pages_promoted: u64,
    /// Pages migrated out to off-chip memory.
    pub pages_demoted: u64,
}

impl FaultActivity {
    /// Accumulates `other` into `self` (used when summing per-VM reports).
    pub fn merge(&mut self, other: &FaultActivity) {
        self.demand_faults += other.demand_faults;
        self.first_touch_faults += other.first_touch_faults;
        self.pages_promoted += other.pages_promoted;
        self.pages_demoted += other.pages_demoted;
    }
}

/// Live-migration and ballooning activity observed during a run
/// (hypervisor-driven remap storms beyond die-stacked paging — Sec. 7's
/// future-work scenarios, modeled by the `hatric-migration` crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Live migrations that began (entered pre-copy).
    pub migrations_started: u64,
    /// Live migrations that reached the end of stop-and-copy.
    pub migrations_completed: u64,
    /// Pre-copy rounds executed across all migrations.
    pub precopy_rounds: u64,
    /// Pages transferred (initial copy + re-copies + stop-and-copy).
    pub pages_copied: u64,
    /// Pages found dirty at the end of a copy round (they must be re-sent;
    /// the pre-copy convergence criterion watches this number).
    pub pages_redirtied: u64,
    /// Cycles the migrating VM was fully paused during stop-and-copy — the
    /// migration's downtime, the figure of merit mechanisms compete on.
    pub downtime_cycles: u64,
    /// Nested-page-table writes issued by migration (write-protects during
    /// pre-copy, final hand-off stores), each of which triggered
    /// translation coherence.
    pub migration_remaps: u64,
    /// Die-stacked capacity pages reclaimed by balloon inflation.
    pub balloon_reclaimed_pages: u64,
    /// Die-stacked capacity pages granted by balloon deflation.
    pub balloon_granted_pages: u64,
    /// Pages materialized on the destination host of an inter-host
    /// migration (each one a nested-PTE store with its coherence bill —
    /// the destination-side remap storm).
    pub received_pages: u64,
    /// Pages a post-copy destination demand-fetched from the source on a
    /// guest access's critical path (subset of `received_pages`).
    pub postcopy_fetched_pages: u64,
    /// Scheduler slices withheld from a migrating VM by auto-convergence
    /// throttling (pre-copy failing to converge against the dirty rate).
    pub throttled_slices: u64,
    /// Migrations torn down before hand-off: the source resumed the VM
    /// and the destination discarded its partial state.
    pub migrations_aborted: u64,
    /// Pre-copy migrations force-escalated (stop-and-copy skipped in
    /// favor of an immediate post-copy flip) by a non-convergence
    /// timeout.
    pub migrations_escalated: u64,
    /// Pages lost in flight on a blacked-out migration link; each one
    /// must be re-sent by the source.
    pub pages_dropped: u64,
    /// Pages thrown away during an abort: the source's unsent outbox
    /// plus everything the destination discarded (inbox backlog,
    /// outstanding post-copy set, and rolled-back landed pages).
    pub pages_discarded: u64,
    /// Scheduler slices a pre-copy round spent stuck (a `StuckPreCopy`
    /// fault held the engine: no pages copied, no rounds retired).
    pub stalled_slices: u64,
}

impl MigrationStats {
    /// Accumulates `other` into `self` (used when summing engine reports).
    pub fn merge(&mut self, other: &MigrationStats) {
        self.migrations_started += other.migrations_started;
        self.migrations_completed += other.migrations_completed;
        self.precopy_rounds += other.precopy_rounds;
        self.pages_copied += other.pages_copied;
        self.pages_redirtied += other.pages_redirtied;
        self.downtime_cycles += other.downtime_cycles;
        self.migration_remaps += other.migration_remaps;
        self.balloon_reclaimed_pages += other.balloon_reclaimed_pages;
        self.balloon_granted_pages += other.balloon_granted_pages;
        self.received_pages += other.received_pages;
        self.postcopy_fetched_pages += other.postcopy_fetched_pages;
        self.throttled_slices += other.throttled_slices;
        self.migrations_aborted += other.migrations_aborted;
        self.migrations_escalated += other.migrations_escalated;
        self.pages_dropped += other.pages_dropped;
        self.pages_discarded += other.pages_discarded;
        self.stalled_slices += other.stalled_slices;
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Cycles consumed by each physical CPU during the measured phase.
    pub cycles_per_cpu: Vec<u64>,
    /// Memory accesses simulated in the measured phase.
    pub accesses: u64,
    /// Translation-coherence activity.
    pub coherence: CoherenceActivity,
    /// Demand-paging activity.
    pub faults: FaultActivity,
    /// Cross-VM interference (all-zero for a single-VM run).
    pub interference: InterferenceActivity,
    /// Socket-locality activity (all-zero on a single-socket host).
    pub numa: NumaActivity,
    /// Hypervisor paging-policy statistics.
    pub paging: PagingStats,
    /// Aggregate translation-structure statistics (summed over CPUs).
    pub translation: TranslationStatsSnapshot,
    /// Cache-hierarchy statistics.
    pub cache: CacheStatsSnapshot,
    /// Energy accounting.
    pub energy: EnergyReport,
    /// Sim-time latency distributions (nested-walk latency, shootdown
    /// completion latency, DRAM queueing delay).  Counted in simulated
    /// cycles at the charge sites, so as deterministic as the charges.
    pub latency: LatencyStats,
    /// Per-remap causal attribution: the disruption each of this VM's
    /// remaps caused, keyed by [`hatric_telemetry::RemapId`].  The
    /// ledger's summed `victim_cycles` reconciles exactly with
    /// `interference.inflicted_cycles` — both are charged at the same
    /// site.
    pub causal: CausalLedger,
}

impl SimReport {
    /// Runtime of the run: the largest per-CPU cycle count (all guest
    /// threads run concurrently, one per CPU).
    #[must_use]
    pub fn runtime_cycles(&self) -> u64 {
        self.cycles_per_cpu.iter().copied().max().unwrap_or(0)
    }

    /// Runtime of an individual thread/application (the cycles of the CPU it
    /// is pinned to).  Used by the Fig. 10 multiprogrammed metrics.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[must_use]
    pub fn thread_runtime_cycles(&self, thread: usize) -> u64 {
        self.cycles_per_cpu[thread]
    }

    /// Average cycles per access (a CPI-like figure of merit).
    #[must_use]
    pub fn cycles_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.runtime_cycles() as f64
                / (self.accesses as f64 / self.cycles_per_cpu.len().max(1) as f64)
        }
    }

    /// Total energy in nanojoules.
    #[must_use]
    pub fn total_energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }

    /// Runtime of this run normalised to a baseline run.
    #[must_use]
    pub fn runtime_vs(&self, baseline: &SimReport) -> f64 {
        let base = baseline.runtime_cycles();
        if base == 0 {
            0.0
        } else {
            self.runtime_cycles() as f64 / base as f64
        }
    }

    /// Energy of this run normalised to a baseline run.
    #[must_use]
    pub fn energy_vs(&self, baseline: &SimReport) -> f64 {
        let base = baseline.total_energy_nj();
        if base == 0.0 {
            0.0
        } else {
            self.total_energy_nj() / base
        }
    }
}

/// The result of one consolidated-host run: one [`SimReport`] per VM plus a
/// host-wide aggregate over the shared platform.
///
/// Per-VM reports attribute cycles to the VM's vCPUs (wherever they were
/// scheduled) and count only that VM's own coherence/paging activity; the
/// host aggregate carries the per-physical-CPU cycle counters and the shared
/// cache/translation/energy statistics, with activity counters summed over
/// the VMs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostReport {
    /// One report per VM, indexed by VM slot.
    pub per_vm: Vec<SimReport>,
    /// Host-wide aggregate (cycles per physical CPU; summed activity).
    pub host: SimReport,
    /// Live-migration and ballooning activity (all-zero on a host without
    /// migration events).
    pub migration: MigrationStats,
}

impl HostReport {
    /// Runtime of VM `vm` normalised to the same VM in a baseline run
    /// (slowdown factor > 1.0 means this run was slower).
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range in either report.
    #[must_use]
    pub fn vm_slowdown_vs(&self, baseline: &HostReport, vm: usize) -> f64 {
        self.per_vm[vm].runtime_vs(&baseline.per_vm[vm])
    }

    /// Total cycles stolen across all VMs by other VMs' translation
    /// coherence — the host-level interference figure of merit.
    #[must_use]
    pub fn total_disrupted_cycles(&self) -> u64 {
        self.per_vm
            .iter()
            .map(|r| r.interference.disrupted_cycles)
            .sum()
    }

    /// Fraction of all vCPU cycles lost to cross-VM coherence disruption.
    #[must_use]
    pub fn interference_fraction(&self) -> f64 {
        let total: u64 = self
            .per_vm
            .iter()
            .flat_map(|r| r.cycles_per_cpu.iter().copied())
            .sum();
        if total == 0 {
            0.0
        } else {
            self.total_disrupted_cycles() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: Vec<u64>, accesses: u64) -> SimReport {
        SimReport {
            cycles_per_cpu: cycles,
            accesses,
            ..SimReport::default()
        }
    }

    #[test]
    fn runtime_is_max_cpu() {
        let r = report(vec![10, 30, 20], 3);
        assert_eq!(r.runtime_cycles(), 30);
        assert_eq!(r.thread_runtime_cycles(2), 20);
    }

    #[test]
    fn normalisation_against_baseline() {
        let fast = report(vec![50], 10);
        let slow = report(vec![100], 10);
        assert!((fast.runtime_vs(&slow) - 0.5).abs() < 1e-12);
        assert!((slow.runtime_vs(&fast) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.runtime_cycles(), 0);
        assert_eq!(r.cycles_per_access(), 0.0);
        assert_eq!(r.runtime_vs(&r), 0.0);
    }
}
