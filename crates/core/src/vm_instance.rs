//! Per-VM translation state, extracted from the single-VM [`crate::System`]
//! so a consolidated host can run many VMs over one shared platform.
//!
//! A [`VmInstance`] owns everything that belongs to *one* virtual machine:
//! its guest page table, its nested page table, the hypervisor's paging
//! manager for its share of die-stacked DRAM, the vCPU placement bookkeeping
//! and the per-VM measurement counters (cycles per vCPU, coherence, paging
//! and interference activity).  Everything physically shared — caches, the
//! coherence directory, translation structures, DRAM devices, the energy
//! model — lives in [`crate::Platform`].

use hatric_hypervisor::{PagingConfig, PagingManager, VirtualMachine, VmConfig};
use hatric_memory::MemorySystem;
use hatric_pagetable::{GuestPageTable, NestedPageTable};
use hatric_telemetry::{CausalLedger, LatencyStats};
use hatric_types::{GuestFrame, SystemFrame, VcpuId, VmId};

use crate::metrics::{
    CoherenceActivity, FaultActivity, InterferenceActivity, NumaActivity, SimReport,
};

/// Guest-physical frame number where a guest page table's own nodes live
/// (far above any data frame the workloads touch).  Guest-physical space is
/// per-VM, so every VM uses the same constant.
pub const GUEST_PT_GPP_BASE: u64 = 1 << 30;

/// Offset (in frames) of the page-table *backing* region within a slot's
/// reserve, above the nested-page-table *node* region.  Slot 0 reproduces
/// the layout the single-VM simulator has always used.
const PT_BACKING_OFFSET: u64 = 1 << 24;

/// Spacing (in frames) between the hypervisor reserve regions of successive
/// VM slots: each VM's nested-page-table nodes and guest-page-table backing
/// frames live in a disjoint slice of system-physical space.  The stride
/// must leave room for both the node region (`0..PT_BACKING_OFFSET`) and
/// the backing region above it, or slot *s*'s backing frames would alias
/// slot *s+k*'s page-table nodes.
const RESERVE_STRIDE: u64 = 2 * PT_BACKING_OFFSET;

/// How a VM's die-stacked quota and paging policy are configured.
#[derive(Debug, Clone, Copy)]
pub struct VmPagingParams {
    /// Paging configuration handed to the [`PagingManager`].
    pub config: PagingConfig,
    /// Whether hypervisor paging is active for this VM at all.
    pub enabled: bool,
}

impl VmPagingParams {
    /// Builds the paging parameters for a VM given its policy knobs and its
    /// die-stacked quota (in 4 KiB pages).  Centralises the migration
    /// daemon's free-pool watermark so the single-VM system and the
    /// consolidated host cannot drift apart.
    #[must_use]
    pub fn for_quota(knobs: &crate::config::PagingKnobs, quota_pages: u64, enabled: bool) -> Self {
        Self {
            config: PagingConfig {
                policy: knobs.policy,
                fast_capacity_pages: quota_pages,
                migration_daemon: knobs.migration_daemon,
                daemon_free_target: (quota_pages / 256).max(2).min(quota_pages.max(1)),
                prefetch_pages: knobs.prefetch_pages,
            },
            enabled: enabled && quota_pages > 0,
        }
    }
}

/// One virtual machine's translation state and measurement counters.
#[derive(Debug)]
pub struct VmInstance {
    slot: usize,
    vm: VirtualMachine,
    guest_pt: GuestPageTable,
    nested_pt: NestedPageTable,
    paging: PagingManager,
    paging_enabled: bool,
    pt_backing_next: u64,
    // ----- measurement ------------------------------------------------------
    vcpu_cycles: Vec<u64>,
    accesses: u64,
    coherence: CoherenceActivity,
    faults: FaultActivity,
    interference: InterferenceActivity,
    numa: NumaActivity,
    latency: LatencyStats,
    causal: CausalLedger,
}

impl VmInstance {
    /// Creates a VM instance occupying host slot `slot`.
    ///
    /// `memory` is the *shared* memory system; it determines where this VM's
    /// hypervisor reserve region (nested-page-table nodes, guest-page-table
    /// backing frames) is placed so that slots never collide.
    #[must_use]
    pub fn new(
        slot: usize,
        vm_config: VmConfig,
        paging: VmPagingParams,
        memory: &MemorySystem,
    ) -> Self {
        let vm = VirtualMachine::new(vm_config);
        Self::with_vm(slot, vm, paging, memory)
    }

    /// Like [`VmInstance::new`] but with no vCPU placed anywhere yet — the
    /// starting state on a scheduled host, where the scheduler assigns CPUs
    /// slice by slice.
    #[must_use]
    pub fn unplaced(
        slot: usize,
        vm_config: VmConfig,
        paging: VmPagingParams,
        memory: &MemorySystem,
    ) -> Self {
        let vm = VirtualMachine::unplaced(vm_config);
        Self::with_vm(slot, vm, paging, memory)
    }

    fn with_vm(
        slot: usize,
        vm: VirtualMachine,
        paging: VmPagingParams,
        memory: &MemorySystem,
    ) -> Self {
        let reserve = memory.reserve_base().number() + slot as u64 * RESERVE_STRIDE;
        let vcpus = vm.vcpu_count();
        Self {
            slot,
            vm,
            guest_pt: GuestPageTable::new(GuestFrame::new(GUEST_PT_GPP_BASE)),
            nested_pt: NestedPageTable::new(SystemFrame::new(reserve)),
            paging: PagingManager::new(paging.config),
            paging_enabled: paging.enabled,
            pt_backing_next: reserve + PT_BACKING_OFFSET,
            vcpu_cycles: vec![0; vcpus],
            accesses: 0,
            coherence: CoherenceActivity::default(),
            faults: FaultActivity::default(),
            interference: InterferenceActivity::default(),
            numa: NumaActivity::default(),
            latency: LatencyStats::default(),
            causal: CausalLedger::default(),
        }
    }

    /// The host slot this VM occupies.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The VM's identifier.
    #[must_use]
    pub fn id(&self) -> VmId {
        self.vm.id()
    }

    /// vCPU placement bookkeeping.
    #[must_use]
    pub fn vm(&self) -> &VirtualMachine {
        &self.vm
    }

    /// Mutable vCPU placement bookkeeping (the scheduler places/deschedules
    /// vCPUs through this).
    pub fn vm_mut(&mut self) -> &mut VirtualMachine {
        &mut self.vm
    }

    /// The VM's guest page table.
    #[must_use]
    pub fn guest_page_table(&self) -> &GuestPageTable {
        &self.guest_pt
    }

    /// The VM's nested page table.
    #[must_use]
    pub fn nested_page_table(&self) -> &NestedPageTable {
        &self.nested_pt
    }

    /// The hypervisor paging manager for this VM's die-stacked quota.
    #[must_use]
    pub fn paging(&self) -> &PagingManager {
        &self.paging
    }

    /// Mutable access to the paging manager — for hypervisor-side drivers
    /// (balloon inflation/deflation) that adjust a VM's capacity or
    /// resident set outside the per-access pipeline.
    pub fn paging_manager_mut(&mut self) -> &mut PagingManager {
        &mut self.paging
    }

    /// Whether hypervisor paging is active for this VM.
    #[must_use]
    pub fn paging_enabled(&self) -> bool {
        self.paging_enabled
    }

    /// Cycles charged so far to each of this VM's vCPUs.
    #[must_use]
    pub fn vcpu_cycles(&self) -> &[u64] {
        &self.vcpu_cycles
    }

    /// Adds `cycles` to vCPU `vcpu`'s counter.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    pub fn charge(&mut self, vcpu: VcpuId, cycles: u64) {
        self.vcpu_cycles[vcpu.index()] += cycles;
    }

    /// Clears the measurement counters (including the paging statistics)
    /// while keeping all architectural state (page tables, placement,
    /// resident set) intact.
    pub fn reset_measurements(&mut self) {
        for c in &mut self.vcpu_cycles {
            *c = 0;
        }
        self.accesses = 0;
        self.coherence = CoherenceActivity::default();
        self.faults = FaultActivity::default();
        self.interference = InterferenceActivity::default();
        self.numa = NumaActivity::default();
        self.latency = LatencyStats::default();
        self.causal.clear();
        self.paging.reset_stats();
    }

    /// Per-remap causal attribution for the remaps this VM initiated.
    #[must_use]
    pub fn causal(&self) -> &CausalLedger {
        &self.causal
    }

    /// Socket-locality counters accumulated so far (for inspection; the
    /// host's counter timelines sample the coherence-target counters
    /// between slices).
    #[must_use]
    pub fn numa(&self) -> &NumaActivity {
        &self.numa
    }

    /// This VM's view of the run: cycles per vCPU and the VM's own activity.
    /// Shared-platform statistics (caches, translation structures, energy)
    /// are reported at host level, not per VM.
    #[must_use]
    pub fn report(&self) -> SimReport {
        SimReport {
            cycles_per_cpu: self.vcpu_cycles.clone(),
            accesses: self.accesses,
            coherence: self.coherence,
            faults: self.faults,
            interference: self.interference,
            numa: self.numa,
            paging: self.paging.stats(),
            latency: self.latency,
            causal: self.causal.clone(),
            ..SimReport::default()
        }
    }

    // ----- crate-internal accessors used by the execution pipeline ----------

    pub(crate) fn guest_pt_mut(&mut self) -> &mut GuestPageTable {
        &mut self.guest_pt
    }

    pub(crate) fn nested_pt_mut(&mut self) -> &mut NestedPageTable {
        &mut self.nested_pt
    }

    pub(crate) fn paging_mut(&mut self) -> &mut PagingManager {
        &mut self.paging
    }

    pub(crate) fn coherence_mut(&mut self) -> &mut CoherenceActivity {
        &mut self.coherence
    }

    pub(crate) fn faults_mut(&mut self) -> &mut FaultActivity {
        &mut self.faults
    }

    pub(crate) fn interference_mut(&mut self) -> &mut InterferenceActivity {
        &mut self.interference
    }

    pub(crate) fn numa_mut(&mut self) -> &mut NumaActivity {
        &mut self.numa
    }

    pub(crate) fn latency_mut(&mut self) -> &mut LatencyStats {
        &mut self.latency
    }

    pub(crate) fn causal_mut(&mut self) -> &mut CausalLedger {
        &mut self.causal
    }

    pub(crate) fn count_access(&mut self) {
        self.accesses += 1;
    }

    pub(crate) fn next_pt_backing_frame(&mut self) -> u64 {
        let frame = self.pt_backing_next;
        self.pt_backing_next += 1;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_hypervisor::PagingPolicyKind;
    use hatric_memory::MemorySystemConfig;
    use hatric_types::CpuId;

    fn memory() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::paper_default())
    }

    fn instance(slot: usize, mem: &MemorySystem) -> VmInstance {
        VmInstance::new(
            slot,
            VmConfig {
                vm: VmId::new(slot as u32),
                vcpus: 2,
                first_cpu: CpuId::new(0),
            },
            VmPagingParams {
                config: PagingConfig {
                    policy: PagingPolicyKind::ClockLru,
                    fast_capacity_pages: 64,
                    migration_daemon: false,
                    daemon_free_target: 0,
                    prefetch_pages: 0,
                },
                enabled: true,
            },
            mem,
        )
    }

    #[test]
    fn slots_get_disjoint_reserve_regions() {
        let mem = memory();
        let mut a = instance(0, &mem);
        let mut b = instance(1, &mem);
        let fa = a.next_pt_backing_frame();
        let fb = b.next_pt_backing_frame();
        assert_ne!(fa, fb);
        assert!(fb >= fa + RESERVE_STRIDE, "regions must not overlap");
    }

    #[test]
    fn backing_regions_never_alias_later_slots_node_regions() {
        // Slot s's backing frames start at reserve(s) + PT_BACKING_OFFSET;
        // slot s+k's nested-page-table nodes start at reserve(s+k).  With a
        // stride smaller than 2x the backing offset these aliased (slot 0's
        // backing == slot 4's nodes with the old 1<<22 stride), silently
        // sharing page-table frames across VMs on 5+-VM hosts.
        let mem = memory();
        let base = mem.reserve_base().number();
        for s in 0..16u64 {
            let backing_start = base + s * RESERVE_STRIDE + PT_BACKING_OFFSET;
            let backing_end = base + (s + 1) * RESERVE_STRIDE;
            for t in (s + 1)..16u64 {
                let node_start = base + t * RESERVE_STRIDE;
                assert!(
                    backing_end <= node_start || backing_start >= node_start + RESERVE_STRIDE,
                    "slot {s} backing region [{backing_start}, {backing_end}) overlaps slot {t} reserve"
                );
            }
        }
        const { assert!(RESERVE_STRIDE >= 2 * PT_BACKING_OFFSET) };
    }

    #[test]
    fn slot_zero_matches_the_historical_single_vm_layout() {
        let mem = memory();
        let mut vm = instance(0, &mem);
        assert_eq!(
            vm.next_pt_backing_frame(),
            mem.reserve_base().number() + PT_BACKING_OFFSET
        );
    }

    #[test]
    fn measurement_reset_keeps_architectural_state() {
        let mem = memory();
        let mut vm = instance(0, &mem);
        vm.charge(VcpuId::new(0), 100);
        vm.count_access();
        let gvp = hatric_types::GuestVirtPage::new(7);
        vm.guest_pt_mut().map(gvp, GuestFrame::new(7));
        vm.reset_measurements();
        assert_eq!(vm.vcpu_cycles(), &[0, 0]);
        assert_eq!(vm.report().accesses, 0);
        assert!(vm.guest_page_table().translate(gvp).is_some());
    }
}
