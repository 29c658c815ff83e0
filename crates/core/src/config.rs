//! System configuration: everything needed to build a [`crate::System`].

use hatric_coherence::{CoherenceCosts, CoherenceMechanism, DesignVariant};
use hatric_energy::EnergyParams;
use hatric_hypervisor::{HypervisorKind, NumaPolicy, PagingPolicyKind};
use hatric_memory::{MemorySystemConfig, NumaConfig};
use hatric_tlb::StructureSizes;
use hatric_types::PAGE_SIZE_4K;

/// Extension methods tying a translation-coherence mechanism to the energy
/// parameters its hardware implies (co-tags for HATRIC, a reverse-lookup CAM
/// for UNITD++, neither for the software baseline and the ideal bound).
pub trait CoherenceMechanismExt {
    /// The energy parameters of a per-CPU translation-structure design that
    /// supports this mechanism, given the configured co-tag width.
    fn energy_params(&self, cotag_bytes: u8) -> EnergyParams;
}

impl CoherenceMechanismExt for CoherenceMechanism {
    fn energy_params(&self, cotag_bytes: u8) -> EnergyParams {
        match self {
            CoherenceMechanism::Hatric => EnergyParams::haswell_like(cotag_bytes),
            CoherenceMechanism::UnitdPlusPlus => EnergyParams::unitd_like(),
            CoherenceMechanism::Software
            | CoherenceMechanism::SoftwareXen
            | CoherenceMechanism::Ideal => EnergyParams::haswell_like(0),
        }
    }
}

/// How the two-level memory is used (the three Fig. 2 operating points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// Only off-chip DRAM exists (`no-hbm`): nothing to page, nothing to
    /// keep translation-coherent beyond ordinary OS activity.
    NoHbm,
    /// Die-stacked DRAM is large enough to hold everything (`inf-hbm`):
    /// the unachievable upper bound.
    InfiniteHbm,
    /// Realistically sized die-stacked DRAM managed by hypervisor paging.
    Paged,
}

/// Fixed hit latencies (cycles) of on-chip structures.
///
/// ```
/// use hatric::LatencyConfig;
///
/// let lat = LatencyConfig::haswell_like();
/// assert!(lat.l1_hit < lat.l2_hit && lat.l2_hit < lat.llc_hit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 data-cache hit.
    pub l1_hit: u64,
    /// Private L2 hit.
    pub l2_hit: u64,
    /// Shared LLC hit (or remote private cache forward).
    pub llc_hit: u64,
    /// Extra latency of an L2-TLB hit relative to an L1-TLB hit.
    pub l2_tlb_hit_extra: u64,
    /// Cost of taking a minor guest page fault to populate a brand-new
    /// mapping (first touch), excluding any migration.
    pub first_touch_cycles: u64,
}

impl LatencyConfig {
    /// Haswell-like latencies.
    #[must_use]
    pub fn haswell_like() -> Self {
        Self {
            l1_hit: 4,
            l2_hit: 12,
            llc_hit: 40,
            l2_tlb_hit_extra: 7,
            first_touch_cycles: 400,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::haswell_like()
    }
}

/// Paging-policy knobs (the Fig. 8 sweep).
///
/// ```
/// use hatric::PagingKnobs;
///
/// let best = PagingKnobs::best();
/// assert!(best.migration_daemon && best.prefetch_pages > 0);
/// assert_eq!(PagingKnobs::default(), best);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingKnobs {
    /// Victim-selection policy.
    pub policy: PagingPolicyKind,
    /// Whether the migration daemon runs.
    pub migration_daemon: bool,
    /// Pages prefetched alongside each demand migration.
    pub prefetch_pages: usize,
}

impl PagingKnobs {
    /// CLOCK-LRU only (the `lru` bars of Fig. 8).
    #[must_use]
    pub fn lru() -> Self {
        Self {
            policy: PagingPolicyKind::ClockLru,
            migration_daemon: false,
            prefetch_pages: 0,
        }
    }

    /// LRU plus the migration daemon (`&mig-dmn`).
    #[must_use]
    pub fn lru_with_daemon() -> Self {
        Self {
            migration_daemon: true,
            ..Self::lru()
        }
    }

    /// LRU, migration daemon and prefetching (`&pref.`) — the paper's
    /// best-performing combination.
    #[must_use]
    pub fn best() -> Self {
        Self {
            policy: PagingPolicyKind::ClockLru,
            migration_daemon: true,
            prefetch_pages: 2,
        }
    }

    /// The three policies in Fig. 8 order.
    #[must_use]
    pub fn fig8_sweep() -> [PagingKnobs; 3] {
        [Self::lru(), Self::lru_with_daemon(), Self::best()]
    }
}

impl Default for PagingKnobs {
    fn default() -> Self {
        Self::best()
    }
}

/// The complete configuration of a simulated system.
///
/// ```
/// use hatric::{CoherenceMechanism, NumaConfig, SystemConfig};
///
/// // A scaled-down two-socket HATRIC system: 8 CPUs, 1024 fast pages.
/// let cfg = SystemConfig::scaled(8, 1_024)
///     .with_mechanism(CoherenceMechanism::Hatric)
///     .with_numa(NumaConfig::symmetric(2));
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.fast_capacity_pages(), 1_024);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of physical CPUs.
    pub num_cpus: usize,
    /// Number of vCPUs of the single simulated VM (one guest thread each).
    pub vcpus: usize,
    /// Hypervisor flavour (KVM or Xen).
    pub hypervisor: HypervisorKind,
    /// Translation-coherence mechanism under test.
    pub mechanism: CoherenceMechanism,
    /// Coherence-directory design variant (Fig. 12).
    pub variant: DesignVariant,
    /// Co-tag width in bytes (Fig. 11 right sweeps 1–3).
    pub cotag_bytes: u8,
    /// Per-CPU translation-structure sizes.
    pub structure_sizes: StructureSizes,
    /// Translation-structure size multiplier (Fig. 9 sweeps 1×/2×/4×).
    pub structure_scale: usize,
    /// Physical memory devices and the socket topology they sit on
    /// (`memory.numa` — [`NumaConfig::uma`] for the classic single-socket
    /// machine).
    pub memory: MemorySystemConfig,
    /// How the memory is used.
    pub memory_mode: MemoryMode,
    /// On which socket the hypervisor backs newly allocated guest pages
    /// (irrelevant on a single-socket host).
    pub numa_policy: NumaPolicy,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
    /// Paging-policy knobs.
    pub paging: PagingKnobs,
    /// Translation-coherence primitive costs.
    pub costs: CoherenceCosts,
    /// On-chip latencies.
    pub latencies: LatencyConfig,
    /// Master random seed.
    pub seed: u64,
}

impl SystemConfig {
    /// A full-scale configuration matching the paper's platform (Sec. 5.1):
    /// 2 GiB die-stacked + 8 GiB off-chip DRAM, 20 MiB LLC, Haswell-like
    /// structures.  Full-scale runs need very long traces; most experiments
    /// use [`SystemConfig::scaled`] instead.
    #[must_use]
    pub fn paper_scale(vcpus: usize) -> Self {
        Self {
            num_cpus: vcpus.max(1),
            vcpus: vcpus.max(1),
            hypervisor: HypervisorKind::Kvm,
            mechanism: CoherenceMechanism::Software,
            variant: DesignVariant::Baseline,
            cotag_bytes: 2,
            structure_sizes: StructureSizes::haswell_like(),
            structure_scale: 1,
            memory: MemorySystemConfig::paper_default(),
            memory_mode: MemoryMode::Paged,
            numa_policy: NumaPolicy::FirstTouch,
            llc_bytes: 20 * 1024 * 1024,
            paging: PagingKnobs::best(),
            costs: CoherenceCosts::haswell_measured(),
            latencies: LatencyConfig::haswell_like(),
            seed: DEFAULT_SEED,
        }
    }

    /// A proportionally scaled-down configuration used by the experiment
    /// harness: die-stacked capacity of `fast_pages` 4 KiB pages, off-chip
    /// capacity 4× that, and an LLC scaled so that the cache-to-footprint
    /// ratio of the full-size system is preserved.  The bandwidth ratio,
    /// latencies, translation-structure sizes and coherence costs are kept
    /// at their full-scale values, so per-event overheads are unchanged —
    /// only the amount of data (and hence the trace length needed to
    /// exercise paging) shrinks.
    #[must_use]
    pub fn scaled(vcpus: usize, fast_pages: u64) -> Self {
        let mut cfg = Self::paper_scale(vcpus);
        cfg.memory.die_stacked.capacity_bytes = fast_pages * PAGE_SIZE_4K;
        cfg.memory.off_chip.capacity_bytes = 4 * fast_pages * PAGE_SIZE_4K;
        // 20 MiB LLC : 2 GiB fast DRAM ≈ 1 : 100.
        cfg.llc_bytes = (fast_pages * PAGE_SIZE_4K / 100).max(256 * 1024);
        cfg
    }

    /// Number of 4 KiB pages of die-stacked DRAM in this configuration.
    #[must_use]
    pub fn fast_capacity_pages(&self) -> u64 {
        self.memory.die_stacked.capacity_bytes / PAGE_SIZE_4K
    }

    /// Applies the memory mode, returning the adjusted memory configuration.
    #[must_use]
    pub fn effective_memory(&self) -> MemorySystemConfig {
        let mut mem = self.memory;
        match self.memory_mode {
            MemoryMode::NoHbm => mem.die_stacked.capacity_bytes = 0,
            MemoryMode::InfiniteHbm => mem.die_stacked.capacity_bytes = 1 << 42,
            MemoryMode::Paged => {}
        }
        mem
    }

    /// Returns a copy configured for the given coherence mechanism.
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: CoherenceMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Returns a copy configured for the given memory mode.
    #[must_use]
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Returns a copy with the given paging knobs.
    #[must_use]
    pub fn with_paging(mut self, paging: PagingKnobs) -> Self {
        self.paging = paging;
        self
    }

    /// Returns a copy with the given co-tag width.
    #[must_use]
    pub fn with_cotag_bytes(mut self, bytes: u8) -> Self {
        self.cotag_bytes = bytes;
        self
    }

    /// Returns a copy with the given translation-structure scale factor.
    #[must_use]
    pub fn with_structure_scale(mut self, scale: usize) -> Self {
        self.structure_scale = scale;
        self
    }

    /// Returns a copy with the given socket topology.
    #[must_use]
    pub fn with_numa(mut self, numa: NumaConfig) -> Self {
        self.memory.numa = numa;
        self
    }

    /// Returns a copy with the given NUMA memory-placement policy.
    #[must_use]
    pub fn with_numa_policy(mut self, policy: NumaPolicy) -> Self {
        self.numa_policy = policy;
        self
    }

    /// Returns a copy with the given directory design variant.
    #[must_use]
    pub fn with_variant(mut self, variant: DesignVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with the given hypervisor flavour (also switching the
    /// software mechanism's costs).
    #[must_use]
    pub fn with_hypervisor(mut self, hypervisor: HypervisorKind) -> Self {
        self.hypervisor = hypervisor;
        if hypervisor == HypervisorKind::Xen {
            self.costs = CoherenceCosts::xen_like();
            if self.mechanism == CoherenceMechanism::Software {
                self.mechanism = CoherenceMechanism::SoftwareXen;
            }
        }
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the configuration cannot be simulated.
    pub fn validate(&self) -> hatric_types::Result<()> {
        if self.num_cpus == 0 || self.num_cpus > 64 {
            return Err(hatric_types::SimError::config("num_cpus must be in 1..=64"));
        }
        if self.vcpus == 0 || self.vcpus > self.num_cpus {
            return Err(hatric_types::SimError::config(
                "vcpus must be between 1 and num_cpus",
            ));
        }
        if !(1..=4).contains(&self.cotag_bytes) {
            return Err(hatric_types::SimError::config("cotag_bytes must be 1..=4"));
        }
        if self.structure_scale == 0 {
            return Err(hatric_types::SimError::config(
                "structure_scale must be nonzero",
            ));
        }
        if self.memory.numa.sockets == 0 {
            return Err(hatric_types::SimError::config(
                "a host needs at least one socket",
            ));
        }
        if !self.num_cpus.is_multiple_of(self.memory.numa.sockets) {
            return Err(hatric_types::SimError::config(
                "num_cpus must split evenly across sockets",
            ));
        }
        Ok(())
    }
}

/// Default master seed used by experiments (any fixed value works; the
/// harness only needs determinism).
pub const DEFAULT_SEED: u64 = 0x4a71_c0de_5eed_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_5() {
        let cfg = SystemConfig::paper_scale(16);
        assert_eq!(cfg.fast_capacity_pages(), 2 * 1024 * 1024 / 4);
        assert_eq!(cfg.llc_bytes, 20 * 1024 * 1024);
        assert_eq!(cfg.structure_sizes.l1_tlb.entries, 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn scaled_preserves_capacity_ratio() {
        let cfg = SystemConfig::scaled(16, 2_048);
        assert_eq!(cfg.fast_capacity_pages(), 2_048);
        assert_eq!(
            cfg.memory.off_chip.capacity_bytes,
            4 * cfg.memory.die_stacked.capacity_bytes
        );
        cfg.validate().unwrap();
    }

    #[test]
    fn memory_modes_adjust_fast_capacity() {
        let cfg = SystemConfig::scaled(4, 1_024);
        assert_eq!(
            cfg.clone()
                .with_memory_mode(MemoryMode::NoHbm)
                .effective_memory()
                .die_stacked
                .capacity_bytes,
            0
        );
        assert!(
            cfg.clone()
                .with_memory_mode(MemoryMode::InfiniteHbm)
                .effective_memory()
                .die_stacked
                .capacity_bytes
                > cfg.memory.off_chip.capacity_bytes
        );
        assert_eq!(
            cfg.clone()
                .with_memory_mode(MemoryMode::Paged)
                .effective_memory()
                .die_stacked
                .capacity_bytes,
            cfg.memory.die_stacked.capacity_bytes
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SystemConfig::scaled(4, 1_024);
        cfg.vcpus = 8;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::scaled(4, 1_024);
        cfg.cotag_bytes = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn xen_switches_costs_and_mechanism() {
        let cfg = SystemConfig::scaled(4, 1_024).with_hypervisor(HypervisorKind::Xen);
        assert_eq!(cfg.mechanism, CoherenceMechanism::SoftwareXen);
        assert!(cfg.costs.vm_exit_cycles > CoherenceCosts::haswell_measured().vm_exit_cycles);
    }

    #[test]
    fn fig8_sweep_orders_policies_by_sophistication() {
        let sweep = PagingKnobs::fig8_sweep();
        assert!(!sweep[0].migration_daemon && sweep[0].prefetch_pages == 0);
        assert!(sweep[1].migration_daemon && sweep[1].prefetch_pages == 0);
        assert!(sweep[2].migration_daemon && sweep[2].prefetch_pages > 0);
    }
}
