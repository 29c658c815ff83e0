//! The shared physical platform and the state the access pipeline runs on.
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
//! The pipeline stages themselves live in `crate::pipeline`;
//! [`Platform::step`] and the hypervisor operations run them on a
//! `Serial`, which applies every shared-state consequence at once.
//!
//! [`crate::System`] wraps a `Platform` with exactly one `VmInstance`; the
//! `hatric-host` crate schedules many over the same pipeline, one access
//! per placed vCPU in turn.

use hatric_cache::{
    BackInvalidation, CacheHierarchy, CacheHierarchyConfig, CacheStatsSnapshot, DirectoryConfig,
    PrivateCacheConfig, PtKind, SharerSet,
};
use hatric_coherence::TranslationCoherence;
use hatric_energy::{EnergyEvent, EnergyModel, EnergyReport};
use hatric_memory::{AccessCost, MemoryKind, MemorySystem};
use hatric_telemetry::{RemapId, TraceEvent, TraceSink};
use hatric_tlb::{TranslationStatsSnapshot, TranslationStructures};
use hatric_types::{
    CacheLineAddr, CpuId, GuestFrame, Result, SocketId, SystemFrame, SystemPhysAddr, VcpuId,
};
use hatric_workloads::Access;

use crate::config::{CoherenceMechanismExt, SystemConfig};
use crate::pipeline::{self, CacheAccess, Params};
use crate::vm_instance::VmInstance;

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
/// Fields are `pub(crate)` so this crate's tests can prepare and inspect
/// them directly.
#[derive(Debug)]
pub struct Platform {
    pub(crate) params: Params,
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
            params: Params {
                num_cpus: config.num_cpus,
                latencies: config.latencies,
                costs: config.costs,
                cotag_bytes: config.cotag_bytes,
                variant: config.variant,
                mechanism: config.mechanism,
                numa: config.memory.numa,
                numa_policy: config.numa_policy,
            },
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

    // ----- occupancy and inspection ----------------------------------------

    /// Number of physical CPUs.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.params.num_cpus
    }

    /// Number of sockets.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.params.numa.sockets
    }

    /// The socket a physical CPU belongs to: CPUs are split into
    /// `sockets` contiguous equal blocks (validated at configuration time).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn socket_of_cpu(&self, cpu: CpuId) -> SocketId {
        assert!(cpu.index() < self.params.num_cpus, "cpu out of range");
        self.params.socket_of_cpu(cpu)
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
            self.params.num_cpus,
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
        self.energy =
            EnergyModel::new(self.params.mechanism.energy_params(self.params.cotag_bytes));
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

    // ----- the serial pipeline ---------------------------------------------

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
        pipeline::step(&mut Serial::new(self, vms, slot), cpu, asid, access);
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
        pipeline::migrate(
            &mut Serial::new(self, vms, slot),
            initiator,
            gpp,
            MemoryKind::OffChip,
            false,
        )
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
            pipeline::ensure_nested_mapping(&mut Serial::new(self, vms, slot), initiator, gpp);
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
    /// multiplier lives in device state, so every later DRAM access and page
    /// copy observes the degraded timing.
    pub fn set_dram_brownout(&mut self, multiplier_x100: u64) {
        self.memory
            .set_dram_service_multiplier_x100(multiplier_x100);
    }

    // ----- translation coherence -------------------------------------------

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
        pipeline::remap_coherence(&mut Serial::new(self, vms, slot), initiator, pte_addr);
    }
}

/// What the pipeline stages run on: VM `slot` of `vms` drives the pipeline
/// on `platform`, and every shared-state consequence is applied at once.
/// It serves [`Platform::step`] and the hypervisor operations above.
pub(crate) struct Serial<'a> {
    platform: &'a mut Platform,
    vms: &'a mut [VmInstance],
    slot: usize,
}

impl<'a> Serial<'a> {
    pub(crate) fn new(platform: &'a mut Platform, vms: &'a mut [VmInstance], slot: usize) -> Self {
        Self {
            platform,
            vms,
            slot,
        }
    }
}

impl Serial<'_> {
    pub(crate) fn params(&self) -> &Params {
        &self.platform.params
    }

    pub(crate) fn memory(&self) -> &MemorySystem {
        &self.platform.memory
    }

    pub(crate) fn protocol(&self) -> &dyn TranslationCoherence {
        &*self.platform.protocol
    }

    /// Physical CPUs executing any guest (ascending).
    pub(crate) fn running_guest(&self) -> Vec<CpuId> {
        self.platform.occupied_cpus()
    }

    /// The host slot of the VM driving the pipeline.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// The VM driving the pipeline.
    pub(crate) fn vm(&mut self) -> &mut VmInstance {
        &mut self.vms[self.slot]
    }

    pub(crate) fn structures(&mut self, cpu: CpuId) -> &mut TranslationStructures {
        &mut self.platform.structures[cpu.index()]
    }

    pub(crate) fn cycles(&mut self, cpu: CpuId) -> &mut u64 {
        &mut self.platform.cycles[cpu.index()]
    }

    /// Charges `cycles` to `cpu` and to the vCPU occupying it.
    pub(crate) fn charge(&mut self, cpu: CpuId, cycles: u64) {
        self.platform.charge_occupant(self.vms, cpu, cycles);
    }

    /// Charges a disruptive coherence target's `cycles` like
    /// [`Serial::charge`], and books them as cross-VM interference caused
    /// by `remap` when the occupant belongs to another VM.
    pub(crate) fn disrupt(&mut self, cpu: CpuId, cycles: u64, remap: RemapId) {
        self.platform.charge_occupant(self.vms, cpu, cycles);
        if let Some((occ_slot, _)) = self.platform.occupancy[cpu.index()] {
            if occ_slot != self.slot {
                let victim = self.vms[occ_slot].interference_mut();
                victim.disrupted_cycles += cycles;
                victim.disruptions_received += 1;
                let vm = &mut self.vms[self.slot];
                vm.interference_mut().inflicted_cycles += cycles;
                vm.causal_mut().charge_victim_cycles(remap, cycles);
            }
        }
    }

    pub(crate) fn energy(&mut self, event: EnergyEvent, count: u64) {
        self.platform.energy.record(event, count);
    }

    /// Whether trace spans are recorded (callers check before building one).
    pub(crate) fn tracing(&self) -> bool {
        self.platform.trace.is_some()
    }

    pub(crate) fn trace(&mut self, event: TraceEvent) {
        self.platform.trace_event(event);
    }

    /// An LLC/directory read or write of `line` by `cpu`.
    pub(crate) fn access(&mut self, cpu: CpuId, line: CacheLineAddr, write: bool) -> CacheAccess {
        let caches = &mut self.platform.caches;
        let (access, invalidated) = if write {
            let outcome = caches.write(cpu, line);
            (outcome.access, outcome.invalidated_sharers)
        } else {
            (caches.read(cpu, line), SharerSet::default())
        };
        CacheAccess {
            level: access.level,
            invalidated,
            back_invalidated: access.back_invalidated,
        }
    }

    /// Marks `line` as holding page-table entries in the directory.
    pub(crate) fn mark_pt(
        &mut self,
        line: CacheLineAddr,
        kind: PtKind,
    ) -> Option<BackInvalidation> {
        self.platform.caches.mark_pt_line(line, kind)
    }

    /// A DRAM access to `frame` from `socket` at time `now`.
    pub(crate) fn dram_access(
        &mut self,
        frame: SystemFrame,
        socket: SocketId,
        now: u64,
    ) -> AccessCost {
        self.platform
            .memory
            .access_detail(frame, self.slot, socket, now)
    }

    /// A page copy `from` → `to` starting at `now`; returns its cycles.
    pub(crate) fn page_copy(&mut self, from: SystemFrame, to: SystemFrame, now: u64) -> u64 {
        self.platform
            .memory
            .page_copy_cycles(from, to, self.slot, now)
    }

    /// A frame of `kind`, preferring socket `preferred`; returns the frame
    /// and the socket it came from.
    pub(crate) fn take_frame(
        &mut self,
        kind: MemoryKind,
        preferred: SocketId,
    ) -> Option<(SystemFrame, SocketId)> {
        let memory = &mut self.platform.memory;
        let frame = memory.allocate_on(kind, preferred).ok()?;
        Some((frame, memory.socket_of(frame)))
    }

    /// The cursor of the interleaved NUMA placement.
    pub(crate) fn interleave_cursor(&mut self) -> &mut usize {
        &mut self.platform.interleave_next
    }

    pub(crate) fn free_frame(&mut self, frame: SystemFrame) {
        self.platform.memory.free(frame);
    }

    /// Whether dirty-page tracking observes guest writes.
    pub(crate) fn observer_present(&self) -> bool {
        self.platform.write_observer.is_some()
    }

    pub(crate) fn observe_write(&mut self, gpp: GuestFrame) {
        if let Some(observer) = self.platform.write_observer.as_mut() {
            observer.on_guest_write(self.slot, gpp);
        }
    }

    /// Whether `cpu`'s private caches hold `line`.
    pub(crate) fn holds_line(&self, cpu: CpuId, line: CacheLineAddr) -> bool {
        self.platform.caches.cpu_holds_line(cpu, line)
    }

    /// Lazily drops `cpu` from `line`'s sharer list.
    pub(crate) fn demote_sharer(&mut self, cpu: CpuId, line: CacheLineAddr) {
        self.platform.caches.demote_sharer(line, cpu);
    }
}
