//! Configuration of a consolidated host: the shared platform plus one
//! [`VmSpec`] per co-located virtual machine.

use hatric::{MemoryMode, NumaConfig, PagingKnobs, SystemConfig, DEFAULT_SEED};
use hatric_coherence::{CoherenceMechanism, DesignVariant};
use hatric_hypervisor::{NumaPolicy, SchedPolicy};
use hatric_migration::HostEvent;
use hatric_types::ConfigError;
use hatric_workloads::WorkloadKind;

/// One virtual machine on the host.
///
/// ```
/// use hatric_host::VmSpec;
///
/// let aggressor = VmSpec::aggressor(2, 128);
/// assert!(aggressor.expects_paging(), "footprint exceeds its quota");
/// let victim = VmSpec::victim(2, 128).with_home_socket(1);
/// assert!(!victim.expects_paging());
/// assert_eq!(victim.home_socket, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Number of vCPUs (one guest thread each).
    pub vcpus: usize,
    /// Workload the VM runs.
    pub workload: WorkloadKind,
    /// Scale handed to the workload generator: the VM's data footprint is
    /// `workload.footprint_vs_fast() * workload_scale_pages` 4 KiB pages.
    pub workload_scale_pages: u64,
    /// This VM's quota of die-stacked DRAM in 4 KiB pages.  The hypervisor
    /// partitions the fast device between VMs; a VM whose footprint exceeds
    /// its quota pages continuously (and generates remaps), one whose
    /// footprint fits is left alone after warmup.
    pub fast_quota_pages: u64,
    /// Paging-policy knobs for this VM's quota.
    pub paging: PagingKnobs,
    /// Home socket of this VM on a NUMA host: under
    /// [`SchedPolicy::SocketAffine`] its vCPUs are pinned to this socket's
    /// CPUs (ignored by the other policies, and meaningless on a
    /// single-socket host).
    pub home_socket: usize,
}

impl VmSpec {
    /// An *aggressor*: a big-memory workload whose footprint far exceeds its
    /// die-stacked quota, so the hypervisor remaps pages continuously and
    /// the translation-coherence mechanism is exercised hard.
    #[must_use]
    pub fn aggressor(vcpus: usize, fast_quota_pages: u64) -> Self {
        Self {
            vcpus,
            workload: WorkloadKind::DataCaching,
            workload_scale_pages: fast_quota_pages,
            fast_quota_pages,
            paging: PagingKnobs::best(),
            home_socket: 0,
        }
    }

    /// A *victim*: a small-footprint workload that fits entirely inside its
    /// quota and performs no remaps of its own — any coherence cycles it
    /// records were inflicted by other VMs.
    #[must_use]
    pub fn victim(vcpus: usize, fast_quota_pages: u64) -> Self {
        Self {
            vcpus,
            workload: WorkloadKind::SmallFootprint,
            workload_scale_pages: fast_quota_pages,
            fast_quota_pages,
            paging: PagingKnobs::best(),
            home_socket: 0,
        }
    }

    /// Returns a copy homed on the given socket.
    #[must_use]
    pub fn with_home_socket(mut self, socket: usize) -> Self {
        self.home_socket = socket;
        self
    }

    /// Footprint of this VM in 4 KiB pages — delegated to the workload
    /// generator's own formula so the two can never drift.
    #[must_use]
    pub fn footprint_pages(&self) -> u64 {
        self.workload
            .footprint_pages(self.workload_scale_pages, self.vcpus)
    }

    /// Whether this VM's footprint exceeds its quota (it will page).
    #[must_use]
    pub fn expects_paging(&self) -> bool {
        self.footprint_pages() > self.fast_quota_pages
    }
}

/// The complete configuration of a consolidated host.
///
/// ```
/// use hatric::NumaConfig;
/// use hatric_host::{CoherenceMechanism, HostConfig, SchedPolicy, VmSpec};
///
/// // A two-socket HATRIC host: the aggressor homed on socket 0, a victim
/// // on each socket, vCPUs pinned socket-affine.
/// let cfg = HostConfig::scaled(8, 512)
///     .with_mechanism(CoherenceMechanism::Hatric)
///     .with_numa(NumaConfig::symmetric(2))
///     .with_sched(SchedPolicy::SocketAffine)
///     .with_vm(VmSpec::aggressor(2, 256))
///     .with_vm(VmSpec::victim(2, 128).with_home_socket(1));
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.total_vcpus(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of physical CPUs the VMs share.
    pub num_pcpus: usize,
    /// Total die-stacked capacity in 4 KiB pages (the VM quotas partition
    /// this; their sum must not exceed it).
    pub fast_pages: u64,
    /// Translation-coherence mechanism under test (host-wide: the machine
    /// either has HATRIC hardware or it does not).
    pub mechanism: CoherenceMechanism,
    /// Coherence-directory design variant.
    pub variant: DesignVariant,
    /// Co-tag width in bytes.
    pub cotag_bytes: u8,
    /// How the two-level memory is used.
    pub memory_mode: MemoryMode,
    /// Socket topology of the host ([`NumaConfig::uma`] for the classic
    /// single-socket machine).
    pub numa: NumaConfig,
    /// On which socket the hypervisor backs newly allocated guest pages.
    pub numa_policy: NumaPolicy,
    /// vCPU→pCPU scheduling policy.
    pub sched: SchedPolicy,
    /// Guest memory accesses each scheduled vCPU issues per time slice.
    pub slice_accesses: u64,
    /// Master random seed (per-VM workload seeds derive from it).
    pub seed: u64,
    /// The co-located VMs, indexed by slot.
    pub vms: Vec<VmSpec>,
    /// Scheduled hypervisor operations (live migrations, balloons), fired
    /// when `slices_run` reaches each event's `start_slice` (absolute,
    /// warmup included).
    pub events: Vec<HostEvent>,
}

impl HostConfig {
    /// A host with `num_pcpus` CPUs and `fast_pages` pages of die-stacked
    /// DRAM, no VMs yet (add them with [`HostConfig::with_vm`]).
    #[must_use]
    pub fn scaled(num_pcpus: usize, fast_pages: u64) -> Self {
        Self {
            num_pcpus,
            fast_pages,
            mechanism: CoherenceMechanism::Software,
            variant: DesignVariant::Baseline,
            cotag_bytes: 2,
            memory_mode: MemoryMode::Paged,
            numa: NumaConfig::uma(),
            numa_policy: NumaPolicy::FirstTouch,
            sched: SchedPolicy::Pinned,
            slice_accesses: 50,
            seed: DEFAULT_SEED,
            vms: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Adds a VM to the host.
    #[must_use]
    pub fn with_vm(mut self, spec: VmSpec) -> Self {
        self.vms.push(spec);
        self
    }

    /// Schedules a hypervisor operation (live migration or balloon).
    #[must_use]
    pub fn with_event(mut self, event: HostEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Returns a copy using the given coherence mechanism.
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: CoherenceMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Returns a copy using the given scheduling policy.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Returns a copy using the given memory mode.
    #[must_use]
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Returns a copy using the given socket topology.
    #[must_use]
    pub fn with_numa(mut self, numa: NumaConfig) -> Self {
        self.numa = numa;
        self
    }

    /// Returns a copy using the given NUMA memory-placement policy.
    #[must_use]
    pub fn with_numa_policy(mut self, policy: NumaPolicy) -> Self {
        self.numa_policy = policy;
        self
    }

    /// Returns a copy with the given accesses per vCPU per slice.
    #[must_use]
    pub fn with_slice_accesses(mut self, accesses: u64) -> Self {
        self.slice_accesses = accesses;
        self
    }

    /// Returns a copy with the given master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total vCPUs across all VMs.
    #[must_use]
    pub fn total_vcpus(&self) -> usize {
        self.vms.iter().map(|v| v.vcpus).sum()
    }

    /// Whether more vCPUs exist than physical CPUs.
    #[must_use]
    pub fn is_oversubscribed(&self) -> bool {
        self.total_vcpus() > self.num_pcpus
    }

    /// The platform-wide part of the configuration, in the shape
    /// [`hatric::Platform::new`] expects.  The per-VM fields of the template
    /// (`vcpus`, paging knobs) are unused by the platform.
    #[must_use]
    pub fn platform_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::scaled(self.num_pcpus, self.fast_pages)
            .with_mechanism(self.mechanism)
            .with_memory_mode(self.memory_mode)
            .with_cotag_bytes(self.cotag_bytes)
            .with_variant(self.variant)
            .with_numa(self.numa)
            .with_numa_policy(self.numa_policy);
        cfg.seed = self.seed;
        cfg
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] variant naming the broken invariant if
    /// the host cannot be simulated.
    pub fn validate(&self) -> core::result::Result<(), ConfigError> {
        if self.num_pcpus == 0 {
            // platform_config() would silently clamp this to 1 CPU and the
            // scheduler would panic; reject it up front instead.
            return Err(ConfigError::ZeroPcpus);
        }
        if self.fast_pages == 0 {
            // A zero-page fast device cannot host any quota; paging would
            // degenerate and frame allocation underflow downstream.
            return Err(ConfigError::ZeroFastPages);
        }
        if self.vms.is_empty() {
            return Err(ConfigError::NoVms);
        }
        if let Some(slot) = self.vms.iter().position(|v| v.vcpus == 0) {
            return Err(ConfigError::ZeroVcpus { slot: Some(slot) });
        }
        if self.slice_accesses == 0 {
            return Err(ConfigError::ZeroSliceAccesses);
        }
        let quota_sum: u64 = self.vms.iter().map(|v| v.fast_quota_pages).sum();
        if self.memory_mode == MemoryMode::Paged && quota_sum > self.fast_pages {
            return Err(ConfigError::QuotaOvercommit {
                quota_sum,
                fast_pages: self.fast_pages,
            });
        }
        if let Some((slot, vm)) = self
            .vms
            .iter()
            .enumerate()
            .find(|(_, v)| v.home_socket >= self.numa.sockets)
        {
            return Err(ConfigError::HomeSocketOutOfRange {
                slot,
                home_socket: vm.home_socket,
                sockets: self.numa.sockets,
            });
        }
        self.validate_events()?;
        self.platform_config().validate().map_err(ConfigError::from)
    }

    fn validate_events(&self) -> core::result::Result<(), ConfigError> {
        let mut balloon_drain = vec![0u64; self.vms.len()];
        for event in &self.events {
            match event {
                HostEvent::Migrate(p) => {
                    if p.vm_slot >= self.vms.len() {
                        return Err(ConfigError::event("migration targets an unknown VM slot"));
                    }
                    if p.copy_pages_per_slice == 0 {
                        return Err(ConfigError::event(
                            "a migration needs nonzero copy bandwidth",
                        ));
                    }
                    if p.max_rounds == 0 {
                        return Err(ConfigError::event(
                            "a migration needs at least one pre-copy round",
                        ));
                    }
                }
                HostEvent::Balloon(p) => {
                    if p.from_slot >= self.vms.len() || p.to_slot >= self.vms.len() {
                        return Err(ConfigError::event("balloon targets an unknown VM slot"));
                    }
                    if p.from_slot == p.to_slot {
                        return Err(ConfigError::event(
                            "a balloon must move capacity between two distinct VMs",
                        ));
                    }
                    if p.pages == 0 || p.pages_per_slice == 0 {
                        return Err(ConfigError::event(
                            "a balloon needs nonzero size and inflation rate",
                        ));
                    }
                    balloon_drain[p.from_slot] += p.pages;
                }
            }
        }
        for (slot, drained) in balloon_drain.iter().enumerate() {
            if *drained > self.vms[slot].fast_quota_pages {
                return Err(ConfigError::event(
                    "balloons reclaim more capacity than the VM's die-stacked quota",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressor_pages_and_victim_does_not() {
        assert!(VmSpec::aggressor(2, 128).expects_paging());
        assert!(!VmSpec::victim(2, 128).expects_paging());
    }

    #[test]
    fn footprint_honours_the_workload_generators_per_thread_floor() {
        // Workload::build floors the footprint at 16 pages per thread; a
        // tiny-quota "victim" therefore pages after all, and expects_paging
        // must say so rather than promising a remap-free VM.
        let tiny = VmSpec::victim(2, 24);
        assert_eq!(tiny.footprint_pages(), 32);
        assert!(tiny.expects_paging());
    }

    #[test]
    fn quota_oversubscription_is_rejected() {
        let cfg = HostConfig::scaled(4, 256)
            .with_vm(VmSpec::aggressor(2, 200))
            .with_vm(VmSpec::victim(2, 100));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn a_reasonable_host_validates() {
        let cfg = HostConfig::scaled(4, 256)
            .with_vm(VmSpec::aggressor(2, 128))
            .with_vm(VmSpec::victim(2, 128));
        cfg.validate().unwrap();
        assert_eq!(cfg.total_vcpus(), 4);
        assert!(!cfg.is_oversubscribed());
    }

    #[test]
    fn empty_host_is_rejected() {
        assert!(HostConfig::scaled(4, 256).validate().is_err());
    }

    #[test]
    fn zero_pcpu_host_is_rejected_not_panicking() {
        let cfg = HostConfig::scaled(0, 256).with_vm(VmSpec::victim(1, 64));
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroPcpus));
        assert!(crate::ConsolidatedHost::new(cfg).is_err());
    }

    #[test]
    fn zero_vcpu_vm_is_rejected_with_its_slot() {
        let cfg = HostConfig::scaled(4, 256)
            .with_vm(VmSpec::victim(2, 64))
            .with_vm(VmSpec::victim(0, 64));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroVcpus { slot: Some(1) })
        );
    }

    #[test]
    fn home_socket_beyond_the_host_is_rejected() {
        let cfg = HostConfig::scaled(4, 256)
            .with_numa(NumaConfig::symmetric(2))
            .with_vm(VmSpec::victim(2, 64).with_home_socket(2));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::HomeSocketOutOfRange {
                slot: 0,
                home_socket: 2,
                sockets: 2,
            })
        );
    }

    #[test]
    fn zero_fast_pages_host_is_rejected() {
        let cfg = HostConfig::scaled(4, 0).with_vm(VmSpec::victim(1, 0));
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFastPages));
    }

    #[test]
    fn zero_slice_accesses_is_rejected() {
        let cfg = HostConfig::scaled(4, 256)
            .with_slice_accesses(0)
            .with_vm(VmSpec::victim(1, 64));
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSliceAccesses));
    }

    #[test]
    fn quota_overcommit_reports_the_numbers() {
        let cfg = HostConfig::scaled(4, 256)
            .with_vm(VmSpec::aggressor(2, 200))
            .with_vm(VmSpec::victim(2, 100));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::QuotaOvercommit {
                quota_sum: 300,
                fast_pages: 256,
            })
        );
    }
}
