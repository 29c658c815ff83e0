//! The shared physical platform and the per-access execution pipeline.
//!
//! A [`Platform`] models everything the VMs of one host share: the MESI
//! cache hierarchy with its HATRIC-extended directory, the per-physical-CPU
//! translation structures (TLBs are VMID-tagged, so entries of co-scheduled
//! VMs coexist), the two DRAM devices, the translation-coherence protocol
//! and the energy model.  Per-VM state (page tables, paging manager,
//! measurement counters) lives in [`VmInstance`]; the pipeline methods take
//! the host's VM table plus the slot of the VM driving the access, so one
//! VM's remap can charge disruption to whichever VM currently occupies a
//! targeted CPU — the consolidation interference the paper motivates with.
//!
//! [`crate::System`] wraps a `Platform` with exactly one `VmInstance`; the
//! `hatric-host` crate schedules many over the same pipeline.

use hatric_cache::DirectoryConfig;
use hatric_cache::{
    AccessOutcome, BackInvalidation, CacheHierarchy, CacheHierarchyConfig, CacheStatsSnapshot,
    HitLevel, PrivateCacheConfig, PtKind,
};
use hatric_coherence::{
    CoherenceCosts, CoherenceMechanism, RemapContext, TargetAction, TranslationCoherence,
};
use hatric_energy::{EnergyEvent, EnergyModel, EnergyReport};
use hatric_hypervisor::NumaPolicy;
use hatric_memory::{MemoryKind, MemorySystem, NumaConfig};
use hatric_pagetable::TwoDimWalker;
use hatric_telemetry::{track, RemapId, TraceEvent, TraceSink};
use hatric_tlb::{TlbLevel, TranslationStatsSnapshot, TranslationStructures};
use hatric_types::{
    CacheLineAddr, CoTag, CpuId, GuestFrame, GuestVirtPage, Result, SocketId, SystemFrame,
    SystemPhysAddr, VcpuId,
};
use hatric_workloads::Access;

use crate::config::{CoherenceMechanismExt, LatencyConfig, SystemConfig};
use crate::vm_instance::{VmInstance, GUEST_PT_GPP_BASE};

/// Observes guest stores as the pipeline executes them.
///
/// The hook fires once per guest write access, *after* the written
/// guest-physical frame is known, with the host slot of the VM that issued
/// the store.  It models the dirty-page tracking hardware/hypervisor hooks
/// (EPT dirty bits, KVM's dirty ring) that live VM migration builds on:
/// the `hatric-migration` crate installs a [`WriteObserver`] to feed its
/// pre-copy dirty bitmap.  Observation is architectural bookkeeping and
/// charges no cycles.  Observers must be `Send`: the cluster tier moves
/// whole hosts (platform and observer included) across worker threads
/// between epochs.
pub trait WriteObserver: std::fmt::Debug + Send {
    /// Called for every guest write by VM `slot` to guest-physical frame
    /// `gpp`.
    fn on_guest_write(&mut self, slot: usize, gpp: GuestFrame);
}

/// The hardware every VM on the host shares, plus the execution pipeline.
///
/// Fields are `pub(crate)` so the parallel slice engine
/// ([`crate::engine`]) can split them into a frozen shared view plus
/// per-CPU exclusively-owned state for one slice.
#[derive(Debug)]
pub struct Platform {
    pub(crate) num_cpus: usize,
    pub(crate) latencies: LatencyConfig,
    pub(crate) costs: CoherenceCosts,
    pub(crate) cotag_bytes: u8,
    pub(crate) variant: hatric_coherence::DesignVariant,
    pub(crate) mechanism: CoherenceMechanism,
    pub(crate) numa: NumaConfig,
    pub(crate) numa_policy: NumaPolicy,
    /// Round-robin cursor of the [`NumaPolicy::Interleaved`] allocator.
    pub(crate) interleave_next: usize,
    pub(crate) memory: MemorySystem,
    pub(crate) caches: CacheHierarchy,
    pub(crate) structures: Vec<TranslationStructures>,
    pub(crate) protocol: Box<dyn TranslationCoherence>,
    pub(crate) energy: EnergyModel,
    /// Cycles consumed on each physical CPU (by any VM, plus hardware
    /// coherence work not attributable to a running vCPU).
    pub(crate) cycles: Vec<u64>,
    /// Which (VM slot, vCPU) currently occupies each physical CPU.
    pub(crate) occupancy: Vec<Option<(usize, VcpuId)>>,
    /// Dirty-page tracking hook (installed while a live migration runs).
    pub(crate) write_observer: Option<Box<dyn WriteObserver>>,
    /// Sim-time trace sink (installed only while `--trace` is active, so
    /// the recording paths cost one `Option` check when tracing is off).
    pub(crate) trace: Option<TraceSink>,
}

/// The trace-span name of a remap under `mechanism` (Chrome trace viewers
/// group and colour by name, so the mechanism is encoded there rather than
/// in an arg).
pub(crate) fn remap_span_name(mechanism: CoherenceMechanism) -> &'static str {
    match mechanism {
        CoherenceMechanism::Software => "remap_software",
        CoherenceMechanism::SoftwareXen => "remap_software_xen",
        CoherenceMechanism::UnitdPlusPlus => "remap_unitd",
        CoherenceMechanism::Hatric => "remap_hatric",
        CoherenceMechanism::Ideal => "remap_ideal",
    }
}

impl Platform {
    /// Builds the shared platform from a system configuration.  Only the
    /// platform-wide fields are read (`num_cpus`, memory, LLC, mechanism,
    /// directory variant, co-tag width, structure sizes, costs, latencies);
    /// the per-VM fields (`vcpus`, paging knobs) are configured on each
    /// [`VmInstance`] instead.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        config.validate()?;
        let memory = MemorySystem::new(config.effective_memory());
        let directory = if config.variant.unbounded_directory() {
            DirectoryConfig::unbounded()
        } else {
            DirectoryConfig {
                max_entries: ((config.llc_bytes / 64) as usize * 2).max(1024),
            }
        };
        let caches = CacheHierarchy::new(CacheHierarchyConfig {
            num_cpus: config.num_cpus,
            l1: PrivateCacheConfig::l1_default(),
            l2: PrivateCacheConfig::l2_default(),
            llc_bytes: config.llc_bytes,
            llc_ways: 16,
            directory,
            eager_pt_directory_update: config.variant.eager_directory_update(),
        });
        let sizes = config.structure_sizes.scaled(config.structure_scale);
        let structures = (0..config.num_cpus)
            .map(|_| TranslationStructures::new(&sizes, config.cotag_bytes))
            .collect();
        let protocol = config.mechanism.build(config.costs);
        let energy = EnergyModel::new(config.mechanism.energy_params(config.cotag_bytes));
        Ok(Self {
            num_cpus: config.num_cpus,
            latencies: config.latencies,
            costs: config.costs,
            cotag_bytes: config.cotag_bytes,
            variant: config.variant,
            mechanism: config.mechanism,
            numa: config.memory.numa,
            numa_policy: config.numa_policy,
            interleave_next: 0,
            memory,
            caches,
            structures,
            protocol,
            energy,
            cycles: vec![0; config.num_cpus],
            occupancy: vec![None; config.num_cpus],
            write_observer: None,
            trace: None,
        })
    }

    // ----- sim-time tracing -------------------------------------------------

    /// Installs a trace sink; subsequent remaps, shootdown targets and
    /// migration activity record sim-time spans into it.  Replaces any
    /// previous sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Removes the trace sink, returning it (tracing stops).
    pub fn take_trace_sink(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// The installed trace sink, if any.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Whether a trace sink is currently installed.  Callers that would
    /// allocate span arguments check this first so tracing is free when off.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records one span if a sink is installed (drops it otherwise).
    pub fn trace_event(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
        }
    }

    // ----- dirty-page tracking ----------------------------------------------

    /// Installs a write observer; subsequent guest writes report the written
    /// guest-physical frame to it.  Replaces any previous observer (at most
    /// one live migration tracks dirty pages at a time).
    pub fn set_write_observer(&mut self, observer: Box<dyn WriteObserver>) {
        self.write_observer = Some(observer);
    }

    /// Removes the write observer (dirty-page tracking stops).
    pub fn clear_write_observer(&mut self) {
        self.write_observer = None;
    }

    /// Whether a write observer is currently installed.
    #[must_use]
    pub fn has_write_observer(&self) -> bool {
        self.write_observer.is_some()
    }

    fn observe_write(&mut self, slot: usize, gpp: GuestFrame, is_write: bool) {
        if is_write {
            if let Some(observer) = self.write_observer.as_mut() {
                observer.on_guest_write(slot, gpp);
            }
        }
    }

    // ----- occupancy and inspection ----------------------------------------

    /// Number of physical CPUs.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.num_cpus
    }

    /// Number of sockets.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.numa.sockets
    }

    /// The socket a physical CPU belongs to: CPUs are split into
    /// `sockets` contiguous equal blocks (validated at configuration time).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn socket_of_cpu(&self, cpu: CpuId) -> SocketId {
        assert!(cpu.index() < self.num_cpus, "cpu out of range");
        let cpus_per_socket = self.num_cpus / self.numa.sockets;
        SocketId::new((cpu.index() / cpus_per_socket) as u32)
    }

    /// The socket the hypervisor's placement policy prefers for a page
    /// faulted in from `cpu` (advancing the interleave cursor when the
    /// policy is [`NumaPolicy::Interleaved`]).
    fn preferred_socket(&mut self, cpu: CpuId) -> SocketId {
        match self.numa_policy {
            NumaPolicy::FirstTouch => self.socket_of_cpu(cpu),
            NumaPolicy::Interleaved => {
                let socket = self.interleave_next % self.numa.sockets;
                self.interleave_next += 1;
                SocketId::new(socket as u32)
            }
        }
    }

    /// Allocates a frame of `kind` on the policy-preferred socket for an
    /// access from `cpu`, recording a remote allocation on VM `slot` when
    /// the frame could not be placed where the access runs.
    fn allocate_for(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        kind: MemoryKind,
    ) -> Result<SystemFrame> {
        let preferred = self.preferred_socket(cpu);
        let frame = self.memory.allocate_on(kind, preferred)?;
        // A deliberate interleaved placement on another socket is not a
        // spill; only failing to get the *preferred* socket is.
        if self.memory.socket_of(frame) != preferred {
            vms[slot].numa_mut().remote_allocations += 1;
        }
        Ok(frame)
    }

    /// Declares which (VM slot, vCPU) currently executes on `cpu` (`None`
    /// when the CPU idles).  Schedulers call this every slice; coherence
    /// disruption is charged to the occupant at remap time.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn set_occupant(&mut self, cpu: CpuId, occupant: Option<(usize, VcpuId)>) {
        self.occupancy[cpu.index()] = occupant;
    }

    /// The (VM slot, vCPU) currently executing on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn occupant(&self, cpu: CpuId) -> Option<(usize, VcpuId)> {
        self.occupancy[cpu.index()]
    }

    /// Physical CPUs currently executing any guest (ascending order).
    #[must_use]
    pub fn occupied_cpus(&self) -> Vec<CpuId> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| CpuId::new(i as u32))
            .collect()
    }

    /// Per-physical-CPU cycle counters for the current measurement phase.
    #[must_use]
    pub fn cycles_per_cpu(&self) -> &[u64] {
        &self.cycles
    }

    /// The shared memory system.
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// The shared cache hierarchy.
    #[must_use]
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Translation structures of one physical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn translation_structures(&self, cpu: CpuId) -> &TranslationStructures {
        &self.structures[cpu.index()]
    }

    /// Aggregate translation-structure statistics over all physical CPUs.
    #[must_use]
    pub fn translation_snapshot(&self) -> TranslationStatsSnapshot {
        let mut translation = TranslationStatsSnapshot::default();
        for s in &self.structures {
            let snap = s.stats();
            translation.l1_tlb.merge(snap.l1_tlb);
            translation.l2_tlb.merge(snap.l2_tlb);
            translation.mmu_cache.merge(snap.mmu_cache);
            translation.ntlb.merge(snap.ntlb);
        }
        translation
    }

    /// Cache-hierarchy statistics.
    #[must_use]
    pub fn cache_snapshot(&self) -> CacheStatsSnapshot {
        self.caches.stats()
    }

    /// Energy report over the current measurement phase.
    #[must_use]
    pub fn energy_report(&self) -> EnergyReport {
        self.energy.report(
            self.cycles.iter().copied().max().unwrap_or(0),
            self.num_cpus,
        )
    }

    /// Clears all platform measurement state (cycles, statistics, energy)
    /// while keeping architectural state (cache and TLB contents) intact.
    pub fn reset_measurements(&mut self) {
        for c in &mut self.cycles {
            *c = 0;
        }
        self.memory.reset_timing();
        self.caches.reset_stats();
        for s in &mut self.structures {
            s.reset_stats();
        }
        self.energy = EnergyModel::new(self.mechanism.energy_params(self.cotag_bytes));
        // Cycle counters restart at zero, so a trace spanning the boundary
        // would go backwards; a trace covers exactly one measurement phase.
        if let Some(sink) = self.trace.as_mut() {
            sink.clear();
        }
    }

    // ----- cycle attribution -----------------------------------------------

    /// Charges `cycles` to `cpu` and to the vCPU currently occupying it.
    fn charge_occupant(&mut self, vms: &mut [VmInstance], cpu: CpuId, cycles: u64) {
        self.cycles[cpu.index()] += cycles;
        if let Some((slot, vcpu)) = self.occupancy[cpu.index()] {
            vms[slot].charge(vcpu, cycles);
        }
    }

    /// Charges `cycles` to `cpu` only: hardware work (e.g. a co-tag match in
    /// the translation-structure port) that does not stall the running guest.
    fn charge_hardware(&mut self, cpu: CpuId, cycles: u64) {
        self.cycles[cpu.index()] += cycles;
    }

    /// Charges `cycles` of hypervisor work executing on `cpu` to that CPU
    /// and to whichever vCPU currently occupies it (migration threads,
    /// balloon workers).  The caller declares the occupant first via
    /// [`Platform::set_occupant`] so the stolen time lands on the right VM.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn charge_hypervisor_cycles(&mut self, vms: &mut [VmInstance], cpu: CpuId, cycles: u64) {
        self.charge_occupant(vms, cpu, cycles);
    }

    // ----- single-access pipeline ------------------------------------------

    /// Simulates one guest memory access by VM `slot` on physical CPU `cpu`.
    ///
    /// The caller must have declared the occupant of `cpu` (the issuing
    /// vCPU) via [`Platform::set_occupant`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `cpu` is out of range.
    pub fn step(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        asid: hatric_types::AddressSpaceId,
        access: Access,
    ) {
        vms[slot].count_access();
        self.charge_occupant(vms, cpu, u64::from(access.compute_cycles));
        let vm_id = vms[slot].id();
        let gvp = access.gvp;

        self.energy.record(EnergyEvent::TlbLookup, 1);
        if let Some(hit) = self.structures[cpu.index()].lookup_data(vm_id, asid, gvp) {
            let extra = match hit.level {
                TlbLevel::L1 => 0,
                TlbLevel::L2 => self.latencies.l2_tlb_hit_extra,
            };
            let spp = hit.spp;
            self.charge_occupant(vms, cpu, extra);
            let needs_gpp =
                vms[slot].paging_enabled() || (access.is_write && self.write_observer.is_some());
            if needs_gpp {
                // A walked entry carries its guest frame; a bare-metal fill, or
                // an L1 victim from another VM filed under this VM's key, does not.
                let translate = || vms[slot].guest_page_table().translate(gvp);
                debug_assert!(hit.gpp.is_none_or(|gpp| Some(gpp) == translate()));
                if let Some(gpp) = hit.gpp.or_else(translate) {
                    if vms[slot].paging_enabled() {
                        vms[slot].paging_mut().on_fast_access(gpp);
                    }
                    self.observe_write(slot, gpp, access.is_write);
                }
            }
            self.data_access(vms, slot, cpu, spp, access.line_in_page, access.is_write);
            return;
        }

        // TLB miss: make sure the page is mapped, resident where the
        // hypervisor wants it, then walk.
        self.energy.record(EnergyEvent::MmuCacheLookup, 1);
        self.energy.record(EnergyEvent::NtlbLookup, 1);
        let gpp = self.ensure_guest_mapping(vms, slot, cpu, gvp);
        self.ensure_nested_mapping(vms, slot, cpu, gpp);
        self.observe_write(slot, gpp, access.is_write);

        if vms[slot].paging_enabled() {
            if vms[slot].paging().is_resident(gpp) {
                vms[slot].paging_mut().on_fast_access(gpp);
            } else if self.current_kind(&vms[slot], gpp) == Some(MemoryKind::OffChip) {
                self.handle_demand_fault(vms, slot, cpu, gpp);
            }
        }

        let walk = match TwoDimWalker::walk(
            gvp,
            vms[slot].guest_page_table(),
            vms[slot].nested_page_table(),
        ) {
            Ok(walk) => walk,
            Err(_) => return,
        };
        let accessed_clear = vms[slot]
            .nested_pt_mut()
            .mark_used(gpp, access.is_write)
            .unwrap_or(false);
        if accessed_clear {
            // The walker informs the directory that this line now feeds
            // translation structures (Sec. 4.2).
            let nested = walk.nested_leaf_pte_addr().cache_line();
            self.mark_pt_line(vms, slot, nested, PtKind::Nested);
            let guest = walk.guest_leaf_pte_addr().cache_line();
            self.mark_pt_line(vms, slot, guest, PtKind::Guest);
            self.energy.record(EnergyEvent::DirectoryAccess, 1);
        }
        let assist = self.structures[cpu.index()].service_miss(vm_id, asid, &walk, accessed_clear);
        self.energy
            .record(EnergyEvent::PageWalkStep, assist.refs.len() as u64);
        let walk_start = self.cycles[cpu.index()];
        for &addr in assist.refs.iter() {
            let outcome = self.caches.read(cpu, addr.cache_line());
            self.charge_read(vms, slot, cpu, addr, &outcome);
        }
        vms[slot]
            .latency_mut()
            .walk
            .record(self.cycles[cpu.index()] - walk_start);

        self.data_access(
            vms,
            slot,
            cpu,
            walk.spp,
            access.line_in_page,
            access.is_write,
        );
    }

    fn data_access(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        spp: SystemFrame,
        line_in_page: u8,
        is_write: bool,
    ) {
        let addr = spp.addr_at(u64::from(line_in_page) * 64);
        let line = addr.cache_line();
        if is_write {
            let outcome = self.caches.write(cpu, line);
            self.charge_read(vms, slot, cpu, addr, &outcome.access);
            self.energy.record(
                EnergyEvent::CoherenceMessage,
                u64::from(outcome.invalidated_sharers.count()),
            );
            // Ordinary data writes never hit page-table lines (workload data
            // regions and page-table frames are disjoint), so no translation
            // coherence is needed here.
        } else {
            let outcome = self.caches.read(cpu, line);
            self.charge_read(vms, slot, cpu, addr, &outcome);
        }
    }

    fn charge_read(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        addr: SystemPhysAddr,
        outcome: &AccessOutcome,
    ) {
        let lat = &self.latencies;
        let cycles = match outcome.level {
            HitLevel::L1 => {
                self.energy.record(EnergyEvent::L1Access, 1);
                lat.l1_hit
            }
            HitLevel::L2 => {
                self.energy.record(EnergyEvent::L2Access, 1);
                lat.l2_hit
            }
            HitLevel::Llc => {
                self.energy.record(EnergyEvent::LlcAccess, 1);
                self.energy.record(EnergyEvent::DirectoryAccess, 1);
                lat.llc_hit
            }
            HitLevel::Memory => {
                self.energy.record(EnergyEvent::LlcAccess, 1);
                self.energy.record(EnergyEvent::DirectoryAccess, 1);
                let frame = addr.frame(hatric_types::PageSize::Base);
                let kind = self.memory.kind_of(frame);
                self.energy.record(
                    match kind {
                        MemoryKind::DieStacked => EnergyEvent::DramAccessFast,
                        MemoryKind::OffChip => EnergyEvent::DramAccessSlow,
                    },
                    1,
                );
                let cpu_socket = self.socket_of_cpu(cpu);
                let numa = vms[slot].numa_mut();
                if self.memory.is_remote(frame, cpu_socket) {
                    numa.remote_dram_accesses += 1;
                } else {
                    numa.local_dram_accesses += 1;
                }
                let now = self.cycles[cpu.index()];
                let cost = self.memory.access_detail(frame, slot, cpu_socket, now);
                vms[slot].latency_mut().dram_queue.record(cost.queueing);
                lat.llc_hit + cost.total
            }
        };
        self.charge_occupant(vms, cpu, cycles);
        self.handle_back_invalidation(vms, slot, outcome.back_invalidated);
    }

    // ----- mapping management ----------------------------------------------

    /// Data pages use an identity GVP→GPP layout (each guest address space
    /// occupies a disjoint slice of guest-virtual space, so identity is
    /// collision-free).
    fn ensure_guest_mapping(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        gvp: GuestVirtPage,
    ) -> GuestFrame {
        if let Some(gpp) = vms[slot].guest_page_table().translate(gvp) {
            return gpp;
        }
        let gpp = GuestFrame::new(gvp.number());
        let outcome = vms[slot].guest_pt_mut().map(gvp, gpp);
        // Give every new guest page-table node a nested mapping in the
        // hypervisor's page-table reserve region.
        let mut nodes = outcome.allocated_nodes;
        if vms[slot]
            .nested_page_table()
            .translate(GuestFrame::new(GUEST_PT_GPP_BASE))
            .is_none()
        {
            nodes.push(GuestFrame::new(GUEST_PT_GPP_BASE));
        }
        for node in nodes {
            if vms[slot].nested_page_table().translate(node).is_none() {
                let backing = SystemFrame::new(vms[slot].next_pt_backing_frame());
                vms[slot].nested_pt_mut().map(node, backing);
            }
        }
        vms[slot].faults_mut().first_touch_faults += 1;
        self.charge_occupant(vms, cpu, self.latencies.first_touch_cycles);
        gpp
    }

    fn ensure_nested_mapping(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        gpp: GuestFrame,
    ) {
        if vms[slot].nested_page_table().translate(gpp).is_some() {
            return;
        }
        // First touch of a brand-new page: no stale translations exist, so no
        // translation coherence is needed.  The hypervisor backs the page
        // with die-stacked memory while there is room (first-touch placement)
        // and with off-chip memory once the fast device is full — from then
        // on pages only enter die-stacked memory through the demand-migration
        // path, which is what triggers translation coherence.  The socket is
        // picked by the NUMA placement policy (local to the faulting CPU, or
        // interleaved).
        let spp = if vms[slot].paging_enabled() && vms[slot].paging().free_pages() > 0 {
            match self.allocate_for(vms, slot, cpu, MemoryKind::DieStacked) {
                Ok(f) => {
                    vms[slot].paging_mut().commit_promotion(gpp);
                    f
                }
                Err(_) => self
                    .allocate_for(vms, slot, cpu, MemoryKind::OffChip)
                    .unwrap_or_else(|_| SystemFrame::new(vms[slot].next_pt_backing_frame())),
            }
        } else {
            self.allocate_for(vms, slot, cpu, MemoryKind::OffChip)
                .unwrap_or_else(|_| SystemFrame::new(vms[slot].next_pt_backing_frame()))
        };
        vms[slot].nested_pt_mut().map(gpp, spp);
        self.charge_occupant(vms, cpu, self.latencies.first_touch_cycles);
    }

    fn current_kind(&self, vm: &VmInstance, gpp: GuestFrame) -> Option<MemoryKind> {
        vm.nested_page_table()
            .translate(gpp)
            .map(|spp| self.memory.kind_of(spp))
    }

    // ----- demand paging ----------------------------------------------------

    fn handle_demand_fault(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        cpu: CpuId,
        gpp: GuestFrame,
    ) {
        // The faulting access takes an EPT-violation VM exit regardless of
        // the translation-coherence mechanism.
        vms[slot].faults_mut().demand_faults += 1;
        self.charge_occupant(vms, cpu, self.costs.vm_exit_cycles);
        self.energy.record(EnergyEvent::VmExit, 1);

        let decision = vms[slot].paging_mut().on_slow_access(gpp);
        for &victim in &decision.evictions {
            self.migrate(vms, slot, cpu, victim, MemoryKind::OffChip, false);
        }
        if vms[slot].paging().daemon_should_run() {
            for victim in vms[slot].paging_mut().run_daemon() {
                self.migrate(vms, slot, cpu, victim, MemoryKind::OffChip, false);
            }
        }
        for (i, promo) in decision.promotions.iter().enumerate() {
            if vms[slot].nested_page_table().translate(*promo).is_none() {
                // Prefetch candidate that the guest has never touched: skip.
                continue;
            }
            if self.current_kind(&vms[slot], *promo) == Some(MemoryKind::OffChip) {
                let on_critical_path = i == 0;
                if self.migrate(
                    vms,
                    slot,
                    cpu,
                    *promo,
                    MemoryKind::DieStacked,
                    on_critical_path,
                ) {
                    vms[slot].paging_mut().commit_promotion(*promo);
                }
            } else {
                vms[slot].paging_mut().commit_promotion(*promo);
            }
        }
    }

    /// Moves `gpp` of VM `slot` to the `to` device.  Returns `true` if a
    /// migration actually happened.
    fn migrate(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        gpp: GuestFrame,
        to: MemoryKind,
        critical: bool,
    ) -> bool {
        let Some(old_spp) = vms[slot].nested_page_table().translate(gpp) else {
            return false;
        };
        if self.memory.kind_of(old_spp) == to {
            return false;
        }
        let Ok(new_spp) = self.allocate_for(vms, slot, initiator, to) else {
            return false;
        };
        let now = self.cycles[initiator.index()];
        let copy = self.memory.page_copy_cycles(old_spp, new_spp, slot, now);
        if critical {
            self.charge_occupant(vms, initiator, copy);
        }
        self.energy.record(EnergyEvent::PageCopy, 1);
        self.memory.free(old_spp);
        let pte_addr = vms[slot]
            .nested_pt_mut()
            .remap(gpp, new_spp)
            .expect("translate() above guarantees the mapping exists");
        match to {
            MemoryKind::DieStacked => vms[slot].faults_mut().pages_promoted += 1,
            MemoryKind::OffChip => vms[slot].faults_mut().pages_demoted += 1,
        }
        self.remap_coherence(vms, slot, initiator, pte_addr);
        true
    }

    /// Evicts VM `slot`'s guest-physical page `gpp` from die-stacked to
    /// off-chip memory off the critical path (balloon reclaim, forced
    /// demotions), with the page copy, the nested-page-table remap and the
    /// resulting translation coherence.  Returns `true` if the page moved.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `initiator` is out of range.
    pub fn demote_to_slow(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        gpp: GuestFrame,
    ) -> bool {
        self.migrate(vms, slot, initiator, gpp, MemoryKind::OffChip, false)
    }

    /// Performs a hypervisor store to VM `slot`'s nested leaf entry for
    /// `gpp` *without* changing the translation — a permission change such
    /// as the write-protect live migration uses for dirty tracking, or the
    /// final ownership hand-off of stop-and-copy.  Stale translations must
    /// still be invalidated, so the store triggers the full
    /// translation-coherence machinery.  Returns `false` if `gpp` has no
    /// nested mapping.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `initiator` is out of range.
    pub fn hypervisor_pte_write(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        gpp: GuestFrame,
    ) -> bool {
        let Some(pte_addr) = vms[slot].nested_page_table().leaf_entry_addr(gpp) else {
            return false;
        };
        self.remap_coherence(vms, slot, initiator, pte_addr);
        true
    }

    /// Materializes an inter-host migration page arriving for VM `slot`:
    /// allocates backing for `gpp` if the destination has none yet (the
    /// first-touch placement path, charging the fault cost to the occupant
    /// of `initiator`), then performs the hypervisor's store to the nested
    /// leaf entry with its full translation-coherence bill.  Unlike the
    /// guest-driven first touch, the store always pays coherence: the
    /// destination's CPUs may already cache translations for the page (the
    /// post-copy guest runs ahead of the copy stream), and the hypervisor
    /// cannot know which — this is the destination-side remap storm.
    /// Returns `false` only if the leaf entry could not be resolved.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `initiator` is out of range.
    pub fn hypervisor_map_page(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        gpp: GuestFrame,
    ) -> bool {
        if vms[slot].nested_page_table().translate(gpp).is_none() {
            self.ensure_nested_mapping(vms, slot, initiator, gpp);
        }
        self.hypervisor_pte_write(vms, slot, initiator, gpp)
    }

    /// Tears down VM `slot`'s nested mapping for `gpp` — the rollback of an
    /// aborted migration's first-touch remap.  The hypervisor's store to the
    /// leaf entry pays the full translation-coherence bill *first* (stale
    /// translations for the dying mapping must be invalidated before the
    /// frame can be reused), then the entry is cleared, the backing frame is
    /// returned to its allocator, and the paging policy forgets the page if
    /// it was counted resident in fast memory.  Frames in the page-table
    /// reserve region are never freed: they back page-table nodes, not data.
    /// Returns `false` (charging nothing) if `gpp` has no nested mapping.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `initiator` is out of range.
    pub fn hypervisor_unmap_page(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        gpp: GuestFrame,
    ) -> bool {
        let Some(pte_addr) = vms[slot].nested_page_table().leaf_entry_addr(gpp) else {
            return false;
        };
        self.remap_coherence(vms, slot, initiator, pte_addr);
        let Some(spp) = vms[slot].nested_pt_mut().unmap(gpp) else {
            return false;
        };
        if spp.number() < self.memory.reserve_base().number() {
            self.memory.free(spp);
        }
        if vms[slot].paging_enabled() {
            vms[slot].paging_mut().forget(gpp);
        }
        true
    }

    /// Applies (or, with `100`, lifts) a DRAM brownout: every memory device
    /// on this host serves lines `multiplier_x100/100` times slower.  The
    /// multiplier lives in device state, so both the serial access path and
    /// the parallel engine's plan/commit path observe identical degraded
    /// timing.
    pub fn set_dram_brownout(&mut self, multiplier_x100: u64) {
        self.memory
            .set_dram_service_multiplier_x100(multiplier_x100);
    }

    // ----- translation coherence -------------------------------------------

    /// Socket distance makes coherence asymmetric: a software shootdown
    /// whose IPI and acknowledgement cross the inter-socket link costs the
    /// target far more than a local one, while a hardware co-tag message
    /// pays only a small interconnect-hop premium.  Returns
    /// `(cross_socket, extra_cycles)` for one remap target.
    fn remap_distance_extra(
        &self,
        initiator_socket: SocketId,
        target_cpu: CpuId,
        disruptive: bool,
        does_work: bool,
    ) -> (bool, u64) {
        let cross_socket = does_work && self.socket_of_cpu(target_cpu) != initiator_socket;
        let extra = match (cross_socket, disruptive) {
            (false, _) => 0,
            (true, true) => self.numa.remote_shootdown_extra_cycles,
            (true, false) => self.numa.remote_hw_message_extra_cycles,
        };
        (cross_socket, extra)
    }

    /// Performs the hypervisor's store to a nested page-table entry of VM
    /// `slot` and the resulting translation-coherence activity.
    ///
    /// Software shootdowns target every physical CPU the remapping VM has
    /// ever run on; whoever occupies those CPUs *now* eats the VM exit and
    /// the flush, and if that occupant belongs to a different VM the stolen
    /// cycles are recorded as cross-VM interference.  Hardware mechanisms
    /// touch only the directory's sharer list, without disrupting occupants.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `initiator` is out of range.
    pub fn remap_coherence(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        initiator: CpuId,
        pte_addr: SystemPhysAddr,
    ) {
        let remap_id = {
            let coherence = vms[slot].coherence_mut();
            coherence.remaps += 1;
            RemapId::new(slot as u32, coherence.remaps)
        };
        let span_start = self.cycles[initiator.index()];
        let line = pte_addr.cache_line();
        let write = self.caches.write(initiator, line);
        self.charge_read(vms, slot, initiator, pte_addr, &write.access);
        self.energy.record(
            EnergyEvent::CoherenceMessage,
            u64::from(write.invalidated_sharers.count()),
        );

        // The initiator's own translation structures snoop the store locally
        // (the directory's sharer list excludes the writer), so it is always
        // part of the hardware-coherence target set.
        let mut sharers = write.invalidated_sharers;
        sharers.add(initiator);
        let running_guest = self.occupied_cpus();
        let ctx = RemapContext {
            initiator,
            vm: vms[slot].id(),
            vm_cpus: vms[slot].vm().cpus_ever_used().to_vec(),
            running_guest,
            sharers,
        };
        let plan = self.protocol.plan_remap(&ctx);
        // Invariant, not a runtime branch: today every planner copies
        // ctx.vm verbatim, but plans may some day be queued/batched and
        // replayed, and this is the seam where a wrong-tenant replay would
        // be caught.  Debug-only to keep it off the remap hot path.
        debug_assert_eq!(
            plan.vm,
            vms[slot].id(),
            "coherence plan must be executed on behalf of the VM that remapped"
        );
        self.charge_occupant(vms, initiator, plan.initiator_cycles);
        vms[slot].coherence_mut().ipis += plan.ipis_sent;
        vms[slot].coherence_mut().hw_messages += plan.hw_messages;
        self.energy.record(EnergyEvent::Ipi, plan.ipis_sent);
        self.energy
            .record(EnergyEvent::CoherenceMessage, plan.hw_messages);

        let cotag = CoTag::from_pte_addr(pte_addr, self.cotag_bytes);
        let initiator_socket = self.socket_of_cpu(initiator);
        // Completion latency = initiator cycles plus the slowest target's
        // invalidation (the window the remap is in flight).  Computed over
        // the plan before the charging loop so the remap span can precede
        // its per-target acks in the sink (trace order stays monotone per
        // track).
        let slowest_target = plan
            .targets
            .iter()
            .map(|t| {
                let disruptive = t.vm_exit || t.action == TargetAction::FlushAll;
                let does_work = disruptive || t.action != TargetAction::None;
                t.target_cycles
                    + self
                        .remap_distance_extra(initiator_socket, t.cpu, disruptive, does_work)
                        .1
            })
            .max()
            .unwrap_or(0);
        vms[slot]
            .latency_mut()
            .shootdown
            .record(plan.initiator_cycles + slowest_target);
        if self.trace.is_some() {
            let dur = (self.cycles[initiator.index()] - span_start) + slowest_target;
            self.trace_event(TraceEvent {
                name: remap_span_name(self.mechanism),
                cat: "coherence",
                track: track::cpu(initiator.index()),
                ts: span_start,
                dur,
                args: vec![
                    ("targets", plan.targets.len() as u64),
                    ("ipis", plan.ipis_sent),
                    ("hw_messages", plan.hw_messages),
                ],
            });
        }
        for target in &plan.targets {
            let disruptive = target.vm_exit || target.action == TargetAction::FlushAll;
            let does_work = disruptive || target.action != TargetAction::None;
            let (cross_socket, distance_extra) =
                self.remap_distance_extra(initiator_socket, target.cpu, disruptive, does_work);
            let target_cycles = target.target_cycles + distance_extra;
            if self.trace.is_some() && does_work {
                self.trace_event(TraceEvent {
                    name: "inval_target",
                    cat: "coherence",
                    track: track::cpu(target.cpu.index()),
                    ts: self.cycles[target.cpu.index()],
                    dur: target_cycles,
                    args: vec![("vm_exit", u64::from(target.vm_exit))],
                });
            }
            if does_work {
                let numa = vms[slot].numa_mut();
                if cross_socket {
                    numa.remote_coherence_targets += 1;
                } else {
                    numa.local_coherence_targets += 1;
                }
                vms[slot].causal_mut().charge_target(remap_id);
            }
            if disruptive {
                self.charge_occupant(vms, target.cpu, target_cycles);
                if let Some((occ_slot, _)) = self.occupancy[target.cpu.index()] {
                    if occ_slot != slot {
                        let victim = vms[occ_slot].interference_mut();
                        victim.disrupted_cycles += target_cycles;
                        victim.disruptions_received += 1;
                        vms[slot].interference_mut().inflicted_cycles += target_cycles;
                        vms[slot]
                            .causal_mut()
                            .charge_victim_cycles(remap_id, target_cycles);
                    }
                }
            } else {
                // Co-tag matches run in the translation-structure port and
                // never stall the occupant.
                self.charge_hardware(target.cpu, target_cycles);
            }
            if target.vm_exit {
                vms[slot].coherence_mut().coherence_vm_exits += 1;
                self.energy.record(EnergyEvent::VmExit, 1);
            }
            match target.action {
                TargetAction::FlushAll => {
                    let counts = self.structures[target.cpu.index()].flush_all();
                    vms[slot].coherence_mut().full_flushes += 1;
                    vms[slot].coherence_mut().entries_flushed += counts.total();
                    vms[slot]
                        .causal_mut()
                        .charge_invalidations(remap_id, counts.total());
                }
                TargetAction::InvalidateCotag => {
                    self.energy.record(EnergyEvent::CotagMatch, 1);
                    let counts = self.structures[target.cpu.index()].invalidate_cotag(cotag);
                    vms[slot].coherence_mut().entries_selectively_invalidated += counts.total();
                    vms[slot]
                        .causal_mut()
                        .charge_invalidations(remap_id, counts.total());
                    self.energy
                        .record(EnergyEvent::TranslationInvalidation, counts.total());
                    if counts.total() == 0 && !self.caches.cpu_holds_line(target.cpu, line) {
                        vms[slot].coherence_mut().spurious_messages += 1;
                        self.caches.demote_sharer(line, target.cpu);
                    }
                }
                TargetAction::InvalidateCotagTlbOnly => {
                    self.energy.record(EnergyEvent::UnitdCamSearch, 1);
                    let counts =
                        self.structures[target.cpu.index()].invalidate_cotag_tlb_only(cotag);
                    vms[slot].coherence_mut().entries_selectively_invalidated += counts.tlb;
                    vms[slot].coherence_mut().entries_flushed += counts.mmu_cache + counts.ntlb;
                    vms[slot]
                        .causal_mut()
                        .charge_invalidations(remap_id, counts.total());
                    self.energy
                        .record(EnergyEvent::TranslationInvalidation, counts.total());
                    if counts.total() == 0 && !self.caches.cpu_holds_line(target.cpu, line) {
                        vms[slot].coherence_mut().spurious_messages += 1;
                        self.caches.demote_sharer(line, target.cpu);
                    }
                }
                TargetAction::None => {}
            }
        }
        // Directory-energy premium of the fancier design variants (Fig. 12).
        let extra_factor = self.variant.directory_energy_factor() - 1.0;
        if extra_factor > 0.0 {
            let extra = ((plan.targets.len() as f64) * extra_factor).ceil() as u64;
            self.energy.record(EnergyEvent::DirectoryAccess, extra);
        }
    }

    /// Marks `line` as holding page-table entries in the directory and
    /// back-invalidates whatever entry the marking evicted.
    pub(crate) fn mark_pt_line(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        line: CacheLineAddr,
        kind: PtKind,
    ) {
        let back = self.caches.mark_pt_line(line, kind);
        self.handle_back_invalidation(vms, slot, back);
    }

    fn handle_back_invalidation(
        &mut self,
        vms: &mut [VmInstance],
        slot: usize,
        back: Option<BackInvalidation>,
    ) {
        let Some((line, sharers, Some(_))) = back else {
            return;
        };
        let cotag = CoTag::from_line(line, self.cotag_bytes);
        for cpu in sharers.iter() {
            let counts = self.structures[cpu.index()].invalidate_cotag(cotag);
            vms[slot].coherence_mut().back_invalidated_entries += counts.total();
            // Directory evictions have no single remap as their cause;
            // they are charged to the evicting VM's latest remap (the
            // activity that filled the directory), or nowhere if the VM
            // never remapped.
            let remaps = vms[slot].coherence_mut().remaps;
            if remaps > 0 {
                vms[slot]
                    .causal_mut()
                    .charge_invalidations(RemapId::new(slot as u32, remaps), counts.total());
            }
            self.energy
                .record(EnergyEvent::TranslationInvalidation, counts.total());
        }
    }
}
