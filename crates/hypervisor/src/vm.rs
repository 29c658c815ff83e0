//! Virtual machines, vCPUs and their placement on physical CPUs.

use hatric_types::{AddressSpaceId, CpuId, VcpuId, VmId};

/// Which hypervisor flavour manages the VM (affects shootdown costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HypervisorKind {
    /// Linux KVM (the paper's primary platform).
    #[default]
    Kvm,
    /// Xen (evaluated in Sec. 6 for generality).
    Xen,
}

/// Static configuration of one VM.
///
/// ```
/// use hatric_hypervisor::{VirtualMachine, VmConfig};
/// use hatric_types::{CpuId, VmId};
///
/// let vm = VirtualMachine::new(VmConfig {
///     vm: VmId::new(0),
///     vcpus: 2,
///     first_cpu: CpuId::new(4),
/// });
/// // Static affinity: vCPU i starts on first_cpu + i.
/// assert_eq!(vm.cpus_ever_used(), &[CpuId::new(4), CpuId::new(5)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// The VM's identifier.
    pub vm: VmId,
    /// Number of vCPUs.
    pub vcpus: usize,
    /// Physical CPU that vCPU 0 is pinned to; vCPU *i* is pinned to
    /// `first_cpu + i` (simple static affinity, as in the paper's setup
    /// where vCPU count matches the CPUs given to the VM).
    pub first_cpu: CpuId,
}

/// Runtime state of a VM: vCPU placement and the targeting information the
/// hypervisor has for translation coherence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualMachine {
    config: VmConfig,
    /// Physical CPUs this VM has ever executed on.  Software translation
    /// coherence conservatively targets all of them (Sec. 3.2).
    cpus_ever_used: Vec<CpuId>,
    /// Physical CPUs currently executing a vCPU in guest mode.
    running_guest: Vec<CpuId>,
    /// Where each vCPU currently executes (`None` while descheduled).  A
    /// freshly created VM starts with the static affine placement.
    placement: Vec<Option<CpuId>>,
}

impl VirtualMachine {
    /// Creates a VM with all vCPUs scheduled on their pinned CPUs.
    #[must_use]
    pub fn new(config: VmConfig) -> Self {
        let cpus: Vec<CpuId> = (0..config.vcpus)
            .map(|i| CpuId::new(config.first_cpu.raw() + i as u32))
            .collect();
        Self {
            cpus_ever_used: cpus.clone(),
            placement: cpus.iter().copied().map(Some).collect(),
            running_guest: cpus,
            config,
        }
    }

    /// Creates a VM with no vCPU placed anywhere yet — the starting state on
    /// a scheduled host, where a scheduler assigns CPUs slice by slice via
    /// [`VirtualMachine::place`].  `config.first_cpu` is kept only as the
    /// static-affinity fallback of [`VirtualMachine::cpu_of`].
    #[must_use]
    pub fn unplaced(config: VmConfig) -> Self {
        Self {
            cpus_ever_used: Vec::new(),
            running_guest: Vec::new(),
            placement: vec![None; config.vcpus],
            config,
        }
    }

    /// The VM's identifier.
    #[must_use]
    pub fn id(&self) -> VmId {
        self.config.vm
    }

    /// Number of vCPUs.
    #[must_use]
    pub fn vcpu_count(&self) -> usize {
        self.config.vcpus
    }

    /// The physical CPU that `vcpu` is statically pinned to (the affine
    /// placement a freshly created VM starts with).  On a scheduled host the
    /// *current* position is [`VirtualMachine::current_cpu_of`].
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    #[must_use]
    pub fn cpu_of(&self, vcpu: VcpuId) -> CpuId {
        assert!(vcpu.index() < self.config.vcpus, "unknown {vcpu}");
        CpuId::new(self.config.first_cpu.raw() + vcpu.raw())
    }

    /// The physical CPU `vcpu` currently executes on, or `None` while it is
    /// descheduled.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    #[must_use]
    pub fn current_cpu_of(&self, vcpu: VcpuId) -> Option<CpuId> {
        assert!(vcpu.index() < self.config.vcpus, "unknown {vcpu}");
        self.placement[vcpu.index()]
    }

    /// Schedules `vcpu` onto `cpu` for the coming time slice, remembering
    /// the CPU in the ever-used set software shootdowns target.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    pub fn place(&mut self, vcpu: VcpuId, cpu: CpuId) {
        assert!(vcpu.index() < self.config.vcpus, "unknown {vcpu}");
        if let Some(old) = self.placement[vcpu.index()].replace(cpu) {
            if old != cpu {
                self.forget_running(old);
            }
        }
        if !self.running_guest.contains(&cpu) {
            self.running_guest.push(cpu);
        }
        if !self.cpus_ever_used.contains(&cpu) {
            self.cpus_ever_used.push(cpu);
        }
    }

    /// Takes `vcpu` off its CPU at the end of a time slice.  The CPU stays
    /// in the ever-used set (software coherence still has to IPI it).
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    pub fn deschedule(&mut self, vcpu: VcpuId) {
        assert!(vcpu.index() < self.config.vcpus, "unknown {vcpu}");
        if let Some(cpu) = self.placement[vcpu.index()].take() {
            self.forget_running(cpu);
        }
    }

    /// Drops `cpu` from `running_guest` unless another vCPU still sits there.
    fn forget_running(&mut self, cpu: CpuId) {
        if !self.placement.contains(&Some(cpu)) {
            self.running_guest.retain(|&c| c != cpu);
        }
    }

    /// The vCPU currently placed on physical CPU `cpu`, if any belongs to
    /// this VM.  Answers from the live placement, so it stays correct on a
    /// scheduled host where vCPUs migrate off their static pins.
    #[must_use]
    pub fn vcpu_on(&self, cpu: CpuId) -> Option<VcpuId> {
        self.placement
            .iter()
            .position(|p| *p == Some(cpu))
            .map(|i| VcpuId::new(i as u32))
    }

    /// Physical CPUs this VM has ever executed on (software coherence
    /// targets).
    #[must_use]
    pub fn cpus_ever_used(&self) -> &[CpuId] {
        &self.cpus_ever_used
    }

    /// Physical CPUs currently executing the VM in guest mode (these suffer
    /// VM exits when an IPI arrives).
    #[must_use]
    pub fn running_guest(&self) -> &[CpuId] {
        &self.running_guest
    }

    /// Marks a CPU as having entered/left guest mode for this VM.
    pub fn set_guest_mode(&mut self, cpu: CpuId, in_guest: bool) {
        if in_guest {
            if !self.running_guest.contains(&cpu) {
                self.running_guest.push(cpu);
            }
            if !self.cpus_ever_used.contains(&cpu) {
                self.cpus_ever_used.push(cpu);
            }
        } else {
            self.running_guest.retain(|&c| c != cpu);
        }
    }

    /// Address space used by guest process `process_index` inside this VM.
    /// Multiprogrammed workloads give each application its own address
    /// space; the hypervisor cannot tell them apart when flushing, which is
    /// the Fig. 10 problem.
    #[must_use]
    pub fn address_space(&self, process_index: usize) -> AddressSpaceId {
        AddressSpaceId::new(self.config.vm.raw() * 1_000 + process_index as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> VirtualMachine {
        VirtualMachine::new(VmConfig {
            vm: VmId::new(1),
            vcpus: 4,
            first_cpu: CpuId::new(8),
        })
    }

    #[test]
    fn vcpu_to_cpu_mapping_is_affine() {
        let vm = vm();
        assert_eq!(vm.cpu_of(VcpuId::new(0)), CpuId::new(8));
        assert_eq!(vm.cpu_of(VcpuId::new(3)), CpuId::new(11));
        assert_eq!(vm.vcpu_on(CpuId::new(9)), Some(VcpuId::new(1)));
        assert_eq!(vm.vcpu_on(CpuId::new(3)), None);
    }

    #[test]
    fn all_pinned_cpus_are_initially_running_and_remembered() {
        let vm = vm();
        assert_eq!(vm.cpus_ever_used().len(), 4);
        assert_eq!(vm.running_guest().len(), 4);
    }

    #[test]
    fn guest_mode_tracking() {
        let mut vm = vm();
        vm.set_guest_mode(CpuId::new(9), false);
        assert_eq!(vm.running_guest().len(), 3);
        // Leaving guest mode does not forget the CPU for targeting purposes.
        assert_eq!(vm.cpus_ever_used().len(), 4);
        vm.set_guest_mode(CpuId::new(20), true);
        assert!(vm.cpus_ever_used().contains(&CpuId::new(20)));
    }

    #[test]
    fn address_spaces_are_distinct_per_process() {
        let vm = vm();
        assert_ne!(vm.address_space(0), vm.address_space(1));
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn out_of_range_vcpu_panics() {
        let _ = vm().cpu_of(VcpuId::new(9));
    }

    #[test]
    fn placement_migration_accumulates_ever_used_cpus() {
        let mut vm = vm();
        assert_eq!(vm.current_cpu_of(VcpuId::new(0)), Some(CpuId::new(8)));
        vm.place(VcpuId::new(0), CpuId::new(30));
        assert_eq!(vm.current_cpu_of(VcpuId::new(0)), Some(CpuId::new(30)));
        // The old CPU is no longer running this VM but stays targetable.
        assert!(!vm.running_guest().contains(&CpuId::new(8)));
        assert!(vm.cpus_ever_used().contains(&CpuId::new(8)));
        assert!(vm.cpus_ever_used().contains(&CpuId::new(30)));
    }

    #[test]
    fn deschedule_clears_placement_but_not_targeting() {
        let mut vm = vm();
        vm.deschedule(VcpuId::new(2));
        assert_eq!(vm.current_cpu_of(VcpuId::new(2)), None);
        assert!(!vm.running_guest().contains(&CpuId::new(10)));
        assert!(vm.cpus_ever_used().contains(&CpuId::new(10)));
        assert_eq!(vm.cpus_ever_used().len(), 4);
    }

    #[test]
    fn shared_cpu_stays_running_until_both_vcpus_leave() {
        let mut vm = vm();
        // Move vCPU 1 onto vCPU 0's CPU, then deschedule one of them.
        vm.place(VcpuId::new(1), CpuId::new(8));
        vm.deschedule(VcpuId::new(0));
        assert!(vm.running_guest().contains(&CpuId::new(8)));
        vm.deschedule(VcpuId::new(1));
        assert!(!vm.running_guest().contains(&CpuId::new(8)));
    }
}
