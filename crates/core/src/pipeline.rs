//! The per-access pipeline.
//!
//! Every stage an access or a remap can run lives here: the TLB lookup and
//! two-dimensional walk ([`step`]), the data access and its latency
//! ([`charge_read`]), first-touch mapping, demand paging and page
//! migration, HATRIC's remap path ([`remap_coherence`]) with its per-CPU
//! target actions ([`apply_target`]), and directory back-invalidations
//! ([`back_invalidate`]).
//!
//! The stages run on [`crate::platform::Serial`]: the VM driving the
//! pipeline plus the [`crate::Platform`] it runs on, to which every
//! shared-state consequence (cache and directory ops, DRAM bookings, frame
//! allocations, dirty-page observations, coherence targets on any CPU) is
//! applied at once.  [`crate::Platform::step`] and the hypervisor
//! operations enter here; a single-VM [`crate::System`] and a consolidated
//! host both step their accesses through it.

use hatric_cache::{BackInvalidation, HitLevel, PtKind, SharerSet};
use hatric_coherence::{
    CoherenceCosts, CoherenceMechanism, DesignVariant, RemapContext, TargetAction, TargetPlan,
};
use hatric_energy::EnergyEvent;
use hatric_hypervisor::NumaPolicy;
use hatric_memory::{MemoryKind, NumaConfig};
use hatric_pagetable::TwoDimWalker;
use hatric_telemetry::{track, RemapId, TraceEvent};
use hatric_tlb::TlbLevel;
use hatric_types::{
    AddressSpaceId, CacheLineAddr, CoTag, CpuId, GuestFrame, GuestVirtPage, PageSize, SocketId,
    SystemFrame, SystemPhysAddr,
};
use hatric_workloads::Access;

use crate::config::LatencyConfig;
use crate::platform::Serial;
use crate::vm_instance::GUEST_PT_GPP_BASE;

/// The platform-wide constants every stage reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    pub(crate) num_cpus: usize,
    pub(crate) latencies: LatencyConfig,
    pub(crate) costs: CoherenceCosts,
    pub(crate) cotag_bytes: u8,
    pub(crate) variant: DesignVariant,
    pub(crate) mechanism: CoherenceMechanism,
    pub(crate) numa: NumaConfig,
    pub(crate) numa_policy: NumaPolicy,
}

impl Params {
    /// The socket a physical CPU belongs to: CPUs are split into
    /// `sockets` contiguous equal blocks (validated at configuration time).
    #[inline]
    pub(crate) fn socket_of_cpu(&self, cpu: CpuId) -> SocketId {
        let cpus_per_socket = self.num_cpus / self.numa.sockets;
        SocketId::new((cpu.index() / cpus_per_socket) as u32)
    }

    /// The socket the NUMA placement policy prefers for a page faulted in
    /// from `cpu`, advancing the interleave `cursor` under
    /// [`NumaPolicy::Interleaved`].
    #[inline]
    pub(crate) fn preferred_socket(&self, cpu: CpuId, cursor: &mut usize) -> SocketId {
        match self.numa_policy {
            NumaPolicy::FirstTouch => self.socket_of_cpu(cpu),
            NumaPolicy::Interleaved => {
                let socket = *cursor % self.numa.sockets;
                *cursor += 1;
                SocketId::new(socket as u32)
            }
        }
    }

    /// Socket distance makes coherence asymmetric: a software shootdown
    /// whose IPI and acknowledgement cross the inter-socket link costs the
    /// target far more than a local one, while a hardware co-tag message
    /// pays only a small interconnect-hop premium.  Returns
    /// `(cross_socket, extra_cycles)` for one remap target.
    #[inline]
    fn remap_distance_extra(
        &self,
        initiator_socket: SocketId,
        target_cpu: CpuId,
        disruptive: bool,
    ) -> (bool, u64) {
        let cross_socket = self.socket_of_cpu(target_cpu) != initiator_socket;
        let extra = match (cross_socket, disruptive) {
            (false, _) => 0,
            (true, true) => self.numa.remote_shootdown_extra_cycles,
            (true, false) => self.numa.remote_hw_message_extra_cycles,
        };
        (cross_socket, extra)
    }
}

/// The trace-span name of a remap under `mechanism` (Chrome trace viewers
/// group and colour by name, so the mechanism is encoded there rather than
/// in an arg).
fn remap_span_name(mechanism: CoherenceMechanism) -> &'static str {
    match mechanism {
        CoherenceMechanism::Software => "remap_software",
        CoherenceMechanism::SoftwareXen => "remap_software_xen",
        CoherenceMechanism::UnitdPlusPlus => "remap_unitd",
        CoherenceMechanism::Hatric => "remap_hatric",
        CoherenceMechanism::Ideal => "remap_ideal",
    }
}

/// What the pipeline learns from one LLC/directory access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheAccess {
    /// Level that served the access.
    pub(crate) level: HitLevel,
    /// Sharers a write invalidated (empty for a read).
    pub(crate) invalidated: SharerSet,
    /// The directory entry the access evicted.
    pub(crate) back_invalidated: Option<BackInvalidation>,
}

/// The translation-coherence work planned for one target CPU of a remap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetWork {
    pub(crate) cpu: CpuId,
    pub(crate) action: TargetAction,
    pub(crate) vm_exit: bool,
    /// Whether the target stalls its occupant (a VM exit or a full flush).
    pub(crate) disruptive: bool,
    /// Cycles the target spends, socket-distance premium included.
    pub(crate) cycles: u64,
    pub(crate) cotag: CoTag,
    /// The remapped page-table entry's cache line.
    pub(crate) line: CacheLineAddr,
    /// The initiating VM's remap ordinal, for per-remap causal attribution.
    pub(crate) remap_ordinal: u64,
}

// ----- single-access pipeline ----------------------------------------------

/// Simulates one guest memory access of the pipeline's VM on `cpu`.
#[inline]
pub(crate) fn step(b: &mut Serial<'_>, cpu: CpuId, asid: AddressSpaceId, access: Access) {
    b.vm().count_access();
    b.charge(cpu, u64::from(access.compute_cycles));
    let vm_id = b.vm().id();
    let gvp = access.gvp;

    b.energy(EnergyEvent::TlbLookup, 1);
    if let Some(hit) = b.structures(cpu).lookup_data(vm_id, asid, gvp) {
        let extra = match hit.level {
            TlbLevel::L1 => 0,
            TlbLevel::L2 => b.params().latencies.l2_tlb_hit_extra,
        };
        b.charge(cpu, extra);
        let paging = b.vm().paging_enabled();
        let observe = access.is_write && b.observer_present();
        if paging || observe {
            // A walked entry carries its guest frame; a bare-metal fill, or
            // an L1 victim from another VM filed under this VM's key, does not.
            debug_assert!(hit
                .gpp
                .is_none_or(|gpp| Some(gpp) == b.vm().guest_page_table().translate(gvp)));
            if let Some(gpp) = hit.gpp.or_else(|| b.vm().guest_page_table().translate(gvp)) {
                if paging {
                    b.vm().paging_mut().on_fast_access(gpp);
                }
                if observe {
                    b.observe_write(gpp);
                }
            }
        }
        data_access(b, cpu, hit.spp, access.line_in_page, access.is_write);
        return;
    }

    // TLB miss: make sure the page is mapped, resident where the
    // hypervisor wants it, then walk.
    b.energy(EnergyEvent::MmuCacheLookup, 1);
    b.energy(EnergyEvent::NtlbLookup, 1);
    let gpp = ensure_guest_mapping(b, cpu, gvp);
    ensure_nested_mapping(b, cpu, gpp);
    if access.is_write && b.observer_present() {
        b.observe_write(gpp);
    }

    if b.vm().paging_enabled() {
        if b.vm().paging().is_resident(gpp) {
            b.vm().paging_mut().on_fast_access(gpp);
        } else if current_kind(b, gpp) == Some(MemoryKind::OffChip) {
            handle_demand_fault(b, cpu, gpp);
        }
    }

    let vm = b.vm();
    let Ok(walk) = TwoDimWalker::walk(gvp, vm.guest_page_table(), vm.nested_page_table()) else {
        return;
    };
    let accessed_clear = b
        .vm()
        .nested_pt_mut()
        .mark_used(gpp, access.is_write)
        .unwrap_or(false);
    if accessed_clear {
        // The walker informs the directory that this line now feeds
        // translation structures (Sec. 4.2).
        let back = b.mark_pt(walk.nested_leaf_pte_addr().cache_line(), PtKind::Nested);
        back_invalidate(b, back);
        let back = b.mark_pt(walk.guest_leaf_pte_addr().cache_line(), PtKind::Guest);
        back_invalidate(b, back);
        b.energy(EnergyEvent::DirectoryAccess, 1);
    }
    let assist = b
        .structures(cpu)
        .service_miss(vm_id, asid, &walk, accessed_clear);
    b.energy(EnergyEvent::PageWalkStep, assist.refs.len() as u64);
    let walk_start = *b.cycles(cpu);
    for &addr in assist.refs.iter() {
        let outcome = b.access(cpu, addr.cache_line(), false);
        charge_read(b, cpu, addr, outcome);
    }
    let walk_cycles = *b.cycles(cpu) - walk_start;
    b.vm().latency_mut().walk.record(walk_cycles);

    data_access(b, cpu, walk.spp, access.line_in_page, access.is_write);
}

#[inline]
fn data_access(b: &mut Serial<'_>, cpu: CpuId, spp: SystemFrame, line_in_page: u8, is_write: bool) {
    let addr = spp.addr_at(u64::from(line_in_page) * 64);
    let outcome = b.access(cpu, addr.cache_line(), is_write);
    charge_read(b, cpu, addr, outcome);
    if is_write {
        b.energy(
            EnergyEvent::CoherenceMessage,
            u64::from(outcome.invalidated.count()),
        );
        // Ordinary data writes never hit page-table lines (workload data
        // regions and page-table frames are disjoint), so no translation
        // coherence is needed here.
    }
}

/// Charges the latency of one cache access (DRAM included), then handles
/// the directory entry it evicted.
#[inline]
fn charge_read(b: &mut Serial<'_>, cpu: CpuId, addr: SystemPhysAddr, outcome: CacheAccess) {
    let cycles = match outcome.level {
        HitLevel::L1 => {
            b.energy(EnergyEvent::L1Access, 1);
            b.params().latencies.l1_hit
        }
        HitLevel::L2 => {
            b.energy(EnergyEvent::L2Access, 1);
            b.params().latencies.l2_hit
        }
        HitLevel::Llc => {
            b.energy(EnergyEvent::LlcAccess, 1);
            b.energy(EnergyEvent::DirectoryAccess, 1);
            b.params().latencies.llc_hit
        }
        HitLevel::Memory => {
            b.energy(EnergyEvent::LlcAccess, 1);
            b.energy(EnergyEvent::DirectoryAccess, 1);
            let frame = addr.frame(PageSize::Base);
            let dram = match b.memory().kind_of(frame) {
                MemoryKind::DieStacked => EnergyEvent::DramAccessFast,
                MemoryKind::OffChip => EnergyEvent::DramAccessSlow,
            };
            b.energy(dram, 1);
            let cpu_socket = b.params().socket_of_cpu(cpu);
            let remote = b.memory().is_remote(frame, cpu_socket);
            let numa = b.vm().numa_mut();
            if remote {
                numa.remote_dram_accesses += 1;
            } else {
                numa.local_dram_accesses += 1;
            }
            let now = *b.cycles(cpu);
            let cost = b.dram_access(frame, cpu_socket, now);
            b.vm().latency_mut().dram_queue.record(cost.queueing);
            b.params().latencies.llc_hit + cost.total
        }
    };
    b.charge(cpu, cycles);
    back_invalidate(b, outcome.back_invalidated);
}

// ----- mapping management --------------------------------------------------

/// Data pages use an identity GVP→GPP layout (each guest address space
/// occupies a disjoint slice of guest-virtual space, so identity is
/// collision-free).
fn ensure_guest_mapping(b: &mut Serial<'_>, cpu: CpuId, gvp: GuestVirtPage) -> GuestFrame {
    if let Some(gpp) = b.vm().guest_page_table().translate(gvp) {
        return gpp;
    }
    let gpp = GuestFrame::new(gvp.number());
    let vm = b.vm();
    let outcome = vm.guest_pt_mut().map(gvp, gpp);
    // Give every new guest page-table node a nested mapping in the
    // hypervisor's page-table reserve region.
    let mut nodes = outcome.allocated_nodes;
    if vm
        .nested_page_table()
        .translate(GuestFrame::new(GUEST_PT_GPP_BASE))
        .is_none()
    {
        nodes.push(GuestFrame::new(GUEST_PT_GPP_BASE));
    }
    for node in nodes {
        if vm.nested_page_table().translate(node).is_none() {
            let backing = SystemFrame::new(vm.next_pt_backing_frame());
            vm.nested_pt_mut().map(node, backing);
        }
    }
    vm.faults_mut().first_touch_faults += 1;
    let first_touch = b.params().latencies.first_touch_cycles;
    b.charge(cpu, first_touch);
    gpp
}

/// Backs `gpp` with a frame on its first touch.
pub(crate) fn ensure_nested_mapping(b: &mut Serial<'_>, cpu: CpuId, gpp: GuestFrame) {
    if b.vm().nested_page_table().translate(gpp).is_some() {
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
    let fast = b.vm().paging_enabled() && b.vm().paging().free_pages() > 0;
    let fast_frame = if fast {
        allocate(b, cpu, MemoryKind::DieStacked)
    } else {
        None
    };
    let spp = match fast_frame {
        Some(frame) => {
            b.vm().paging_mut().commit_promotion(gpp);
            frame
        }
        None => allocate(b, cpu, MemoryKind::OffChip)
            .unwrap_or_else(|| SystemFrame::new(b.vm().next_pt_backing_frame())),
    };
    b.vm().nested_pt_mut().map(gpp, spp);
    let first_touch = b.params().latencies.first_touch_cycles;
    b.charge(cpu, first_touch);
}

/// Allocates a frame of `kind` on the policy-preferred socket for an
/// access from `cpu`, recording a remote allocation when the frame could
/// not be placed there.
fn allocate(b: &mut Serial<'_>, cpu: CpuId, kind: MemoryKind) -> Option<SystemFrame> {
    let params = *b.params();
    let preferred = params.preferred_socket(cpu, b.interleave_cursor());
    let (frame, socket) = b.take_frame(kind, preferred)?;
    // A deliberate interleaved placement on another socket is not a
    // spill; only failing to get the *preferred* socket is.
    if socket != preferred {
        b.vm().numa_mut().remote_allocations += 1;
    }
    Some(frame)
}

fn current_kind(b: &mut Serial<'_>, gpp: GuestFrame) -> Option<MemoryKind> {
    let spp = b.vm().nested_page_table().translate(gpp)?;
    Some(b.memory().kind_of(spp))
}

// ----- demand paging ---------------------------------------------------------

fn handle_demand_fault(b: &mut Serial<'_>, cpu: CpuId, gpp: GuestFrame) {
    // The faulting access takes an EPT-violation VM exit regardless of
    // the translation-coherence mechanism.
    b.vm().faults_mut().demand_faults += 1;
    let vm_exit = b.params().costs.vm_exit_cycles;
    b.charge(cpu, vm_exit);
    b.energy(EnergyEvent::VmExit, 1);

    let decision = b.vm().paging_mut().on_slow_access(gpp);
    for &victim in &decision.evictions {
        migrate(b, cpu, victim, MemoryKind::OffChip, false);
    }
    if b.vm().paging().daemon_should_run() {
        for victim in b.vm().paging_mut().run_daemon() {
            migrate(b, cpu, victim, MemoryKind::OffChip, false);
        }
    }
    for (i, &promo) in decision.promotions.iter().enumerate() {
        if b.vm().nested_page_table().translate(promo).is_none() {
            // Prefetch candidate that the guest has never touched: skip.
            continue;
        }
        if current_kind(b, promo) == Some(MemoryKind::OffChip) {
            let on_critical_path = i == 0;
            if migrate(b, cpu, promo, MemoryKind::DieStacked, on_critical_path) {
                b.vm().paging_mut().commit_promotion(promo);
            }
        } else {
            b.vm().paging_mut().commit_promotion(promo);
        }
    }
}

/// Moves `gpp` to the `to` device: the page copy, the nested-page-table
/// remap and its translation coherence.  Returns `true` if a migration
/// actually happened.
pub(crate) fn migrate(
    b: &mut Serial<'_>,
    initiator: CpuId,
    gpp: GuestFrame,
    to: MemoryKind,
    critical: bool,
) -> bool {
    let Some(old_spp) = b.vm().nested_page_table().translate(gpp) else {
        return false;
    };
    if b.memory().kind_of(old_spp) == to {
        return false;
    }
    let Some(new_spp) = allocate(b, initiator, to) else {
        return false;
    };
    let now = *b.cycles(initiator);
    let copy = b.page_copy(old_spp, new_spp, now);
    if critical {
        b.charge(initiator, copy);
    }
    b.energy(EnergyEvent::PageCopy, 1);
    b.free_frame(old_spp);
    let pte_addr = b
        .vm()
        .nested_pt_mut()
        .remap(gpp, new_spp)
        .expect("translate() above guarantees the mapping exists");
    match to {
        MemoryKind::DieStacked => b.vm().faults_mut().pages_promoted += 1,
        MemoryKind::OffChip => b.vm().faults_mut().pages_demoted += 1,
    }
    remap_coherence(b, initiator, pte_addr);
    true
}

// ----- translation coherence -------------------------------------------------

/// Performs the hypervisor's store to a nested page-table entry of the
/// pipeline's VM and the resulting translation-coherence activity.
///
/// Software shootdowns target every physical CPU the remapping VM has
/// ever run on; whoever occupies those CPUs *now* eats the VM exit and
/// the flush, and if that occupant belongs to a different VM the stolen
/// cycles are recorded as cross-VM interference.  Hardware mechanisms
/// touch only the directory's sharer list, without disrupting occupants.
pub(crate) fn remap_coherence(b: &mut Serial<'_>, initiator: CpuId, pte_addr: SystemPhysAddr) {
    let remap_id = {
        let slot = b.slot() as u32;
        let coherence = b.vm().coherence_mut();
        coherence.remaps += 1;
        RemapId::new(slot, coherence.remaps)
    };
    let span_start = *b.cycles(initiator);
    let line = pte_addr.cache_line();
    let write = b.access(initiator, line, true);
    charge_read(b, initiator, pte_addr, write);
    b.energy(
        EnergyEvent::CoherenceMessage,
        u64::from(write.invalidated.count()),
    );

    // The initiator's own translation structures snoop the store locally
    // (the directory's sharer list excludes the writer), so it is always
    // part of the hardware-coherence target set.
    let mut sharers = write.invalidated;
    sharers.add(initiator);
    let ctx = RemapContext {
        initiator,
        vm: b.vm().id(),
        vm_cpus: b.vm().vm().cpus_ever_used().to_vec(),
        running_guest: b.running_guest(),
        sharers,
    };
    let plan = b.protocol().plan_remap(&ctx);
    // Invariant, not a runtime branch: today every planner copies
    // ctx.vm verbatim, but plans may some day be queued/batched and
    // replayed, and this is the seam where a wrong-tenant replay would
    // be caught.  Debug-only to keep it off the remap hot path.
    debug_assert_eq!(
        plan.vm, ctx.vm,
        "coherence plan must be executed on behalf of the VM that remapped"
    );
    b.charge(initiator, plan.initiator_cycles);
    b.vm().coherence_mut().ipis += plan.ipis_sent;
    b.vm().coherence_mut().hw_messages += plan.hw_messages;
    b.energy(EnergyEvent::Ipi, plan.ipis_sent);
    b.energy(EnergyEvent::CoherenceMessage, plan.hw_messages);

    let params = *b.params();
    let cotag = CoTag::from_pte_addr(pte_addr, params.cotag_bytes);
    let initiator_socket = params.socket_of_cpu(initiator);
    // Each planned target becomes its work item plus whether it crosses
    // a socket (for the NUMA counters).
    let work = |t: &TargetPlan| {
        let disruptive = t.vm_exit || t.action == TargetAction::FlushAll;
        let (cross_socket, extra) =
            params.remap_distance_extra(initiator_socket, t.cpu, disruptive);
        let target = TargetWork {
            cpu: t.cpu,
            action: t.action,
            vm_exit: t.vm_exit,
            disruptive,
            cycles: t.target_cycles + extra,
            cotag,
            line,
            remap_ordinal: remap_id.ordinal,
        };
        (target, cross_socket)
    };
    // Completion latency = initiator cycles plus the slowest target's
    // invalidation (the window the remap is in flight).  Computed over
    // the plan before the charging loop so the remap span can precede
    // its per-target acks in the sink (trace order stays monotone per
    // track).
    let slowest_target = plan
        .targets
        .iter()
        .map(|t| work(t).0.cycles)
        .max()
        .unwrap_or(0);
    b.vm()
        .latency_mut()
        .shootdown
        .record(plan.initiator_cycles + slowest_target);
    if b.tracing() {
        let dur = (*b.cycles(initiator) - span_start) + slowest_target;
        b.trace(TraceEvent {
            name: remap_span_name(params.mechanism),
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
    for (target, cross_socket) in plan.targets.iter().map(work) {
        let numa = b.vm().numa_mut();
        if cross_socket {
            numa.remote_coherence_targets += 1;
        } else {
            numa.local_coherence_targets += 1;
        }
        b.vm().causal_mut().charge_target(remap_id);
        apply_target(b, &target);
    }
    // Directory-energy premium of the fancier design variants (Fig. 12).
    let extra_factor = params.variant.directory_energy_factor() - 1.0;
    if extra_factor > 0.0 {
        let extra = ((plan.targets.len() as f64) * extra_factor).ceil() as u64;
        b.energy(EnergyEvent::DirectoryAccess, extra);
    }
}

/// Applies one planned coherence target on its CPU: its cycles (disruptive
/// targets stall the occupant, co-tag matches only the translation-
/// structure port), the structure flush or invalidation, and the
/// initiating VM's counters, energy and causal charges.  A co-tag message
/// that invalidates nothing on a CPU whose private caches no longer hold
/// the page-table line is spurious: the target leaves the line's sharer
/// list, so later remaps of the line stop messaging it.
pub(crate) fn apply_target(b: &mut Serial<'_>, target: &TargetWork) {
    let cpu = target.cpu;
    let remap = RemapId::new(b.slot() as u32, target.remap_ordinal);
    if b.tracing() {
        let ts = *b.cycles(cpu);
        b.trace(TraceEvent {
            name: "inval_target",
            cat: "coherence",
            track: track::cpu(cpu.index()),
            ts,
            dur: target.cycles,
            args: vec![("vm_exit", u64::from(target.vm_exit))],
        });
    }
    if target.disruptive {
        b.disrupt(cpu, target.cycles, remap);
    } else {
        // Co-tag matches run in the translation-structure port and never
        // stall the occupant.
        *b.cycles(cpu) += target.cycles;
    }
    if target.vm_exit {
        b.vm().coherence_mut().coherence_vm_exits += 1;
        b.energy(EnergyEvent::VmExit, 1);
    }
    let invalidated = match target.action {
        TargetAction::FlushAll => {
            let counts = b.structures(cpu).flush_all();
            let coherence = b.vm().coherence_mut();
            coherence.full_flushes += 1;
            coherence.entries_flushed += counts.total();
            b.vm()
                .causal_mut()
                .charge_invalidations(remap, counts.total());
            return;
        }
        TargetAction::InvalidateCotag => {
            b.energy(EnergyEvent::CotagMatch, 1);
            let counts = b.structures(cpu).invalidate_cotag(target.cotag);
            b.vm().coherence_mut().entries_selectively_invalidated += counts.total();
            counts.total()
        }
        TargetAction::InvalidateCotagTlbOnly => {
            b.energy(EnergyEvent::UnitdCamSearch, 1);
            let counts = b.structures(cpu).invalidate_cotag_tlb_only(target.cotag);
            let coherence = b.vm().coherence_mut();
            coherence.entries_selectively_invalidated += counts.tlb;
            coherence.entries_flushed += counts.mmu_cache + counts.ntlb;
            counts.total()
        }
    };
    b.vm().causal_mut().charge_invalidations(remap, invalidated);
    b.energy(EnergyEvent::TranslationInvalidation, invalidated);
    if invalidated == 0 && !b.holds_line(cpu, target.line) {
        b.vm().coherence_mut().spurious_messages += 1;
        b.demote_sharer(cpu, target.line);
    }
}

/// Takes the translations filled from a page-table line the directory
/// evicted out of its sharers' structures.  Directory evictions have no
/// single remap as their cause; they are charged to the evicting VM's
/// latest remap (the activity that filled the directory), or nowhere if
/// the VM never remapped.
pub(crate) fn back_invalidate(b: &mut Serial<'_>, back: Option<BackInvalidation>) {
    let Some((line, sharers, Some(_))) = back else {
        return;
    };
    let cotag = CoTag::from_line(line, b.params().cotag_bytes);
    for cpu in sharers.iter() {
        let counts = b.structures(cpu).invalidate_cotag(cotag);
        let slot = b.slot() as u32;
        let coherence = b.vm().coherence_mut();
        coherence.back_invalidated_entries += counts.total();
        let remaps = coherence.remaps;
        if remaps > 0 {
            b.vm()
                .causal_mut()
                .charge_invalidations(RemapId::new(slot, remaps), counts.total());
        }
        b.energy(EnergyEvent::TranslationInvalidation, counts.total());
    }
}

#[cfg(test)]
mod tests {
    //! Every [`TargetAction`] arm, applied to CPU 1 of a two-CPU host.

    use super::*;
    use crate::config::SystemConfig;
    use crate::platform::Platform;
    use crate::vm_instance::VmInstance;
    use hatric_types::{VcpuId, VmId};

    const TARGET: CpuId = CpuId::new(1);
    const GVP: GuestVirtPage = GuestVirtPage::new(7);

    /// A one-VM, two-vCPU host whose CPU 1 has walked page `GVP`, so its
    /// TLBs, MMU cache and nested TLB hold translations co-tagged with the
    /// page's nested leaf entry, and its private caches hold that entry's
    /// line.  Returns the host and that line's coherence target.
    fn host(action: TargetAction, vm_exit: bool) -> (Platform, Vec<VmInstance>, TargetWork) {
        let config = SystemConfig::scaled(2, 256);
        let mut platform = Platform::new(&config).unwrap();
        let paging = crate::VmPagingParams::for_quota(&config.paging, 256, true);
        let vm_config = hatric_hypervisor::VmConfig {
            vm: VmId::new(0),
            vcpus: 2,
            first_cpu: CpuId::new(0),
        };
        let mut vms = vec![VmInstance::new(0, vm_config, paging, platform.memory())];
        for i in 0..2 {
            platform.set_occupant(CpuId::new(i), Some((0, VcpuId::new(i))));
        }
        let access = Access {
            gvp: GVP,
            line_in_page: 0,
            is_write: false,
            compute_cycles: 0,
        };
        platform.step(&mut vms, 0, TARGET, AddressSpaceId::new(0), access);
        let gpp = vms[0].guest_page_table().translate(GVP).unwrap();
        let pte = vms[0].nested_page_table().leaf_entry_addr(gpp).unwrap();
        let target = TargetWork {
            cpu: TARGET,
            action,
            vm_exit,
            disruptive: vm_exit || action == TargetAction::FlushAll,
            cycles: 100,
            cotag: CoTag::from_pte_addr(pte, platform.params.cotag_bytes),
            line: pte.cache_line(),
            remap_ordinal: 1,
        };
        (platform, vms, target)
    }

    /// Reads lines of the target line's private-cache sets until CPU 1 no
    /// longer holds it; the lazy directory keeps CPU 1 a sharer.
    fn evict_line(platform: &mut Platform, line: CacheLineAddr) {
        let l2_sets = hatric_cache::PrivateCacheConfig::l2_default().sets() as u64;
        for k in 1..=32 {
            let conflict = CacheLineAddr::new((line.index() + k * l2_sets) * 64);
            platform.caches.read(TARGET, conflict);
        }
        assert!(!platform.caches.cpu_holds_line(TARGET, line));
        assert!(platform.caches.is_sharer(line, TARGET));
    }

    /// Builds a host, runs `prepare` on it, applies the target, and checks
    /// that the target's cycles reached CPU 1 and, for a disruptive
    /// target, its occupant.
    fn apply(
        action: TargetAction,
        vm_exit: bool,
        prepare: impl Fn(&mut Platform, &mut [VmInstance], &TargetWork),
    ) -> (Platform, Vec<VmInstance>, TargetWork) {
        let (mut platform, mut vms, target) = host(action, vm_exit);
        prepare(&mut platform, &mut vms, &target);
        let (cpu_before, vcpu_before) = (platform.cycles[1], vms[0].vcpu_cycles()[1]);
        apply_target(&mut Serial::new(&mut platform, &mut vms, 0), &target);
        assert_eq!(platform.cycles[1], cpu_before + target.cycles);
        let stalled = if target.disruptive { target.cycles } else { 0 };
        assert_eq!(vms[0].vcpu_cycles()[1], vcpu_before + stalled);
        (platform, vms, target)
    }

    fn no_prep(_: &mut Platform, _: &mut [VmInstance], _: &TargetWork) {}

    /// Invalidates the target's co-tag on CPU 1 beforehand, so the target
    /// itself finds nothing to invalidate.
    fn drop_translations(platform: &mut Platform, _: &mut [VmInstance], target: &TargetWork) {
        assert!(
            platform.structures[1]
                .invalidate_cotag(target.cotag)
                .total()
                > 0
        );
    }

    /// The invalidations the target charged to its remap in the VM's
    /// causal ledger.
    fn ledger_invalidations(vms: &[VmInstance]) -> u64 {
        vms[0]
            .causal()
            .top_by_victim_cycles(1)
            .first()
            .map_or(0, |(_, cost)| cost.invalidations)
    }

    #[test]
    fn flush_all_empties_every_structure_and_stalls_the_occupant() {
        let (platform, mut vms, _) = apply(TargetAction::FlushAll, true, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.full_flushes, 1);
        assert_eq!(coherence.coherence_vm_exits, 1);
        assert!(coherence.entries_flushed > 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert_eq!(ledger_invalidations(&vms), coherence.entries_flushed);
        assert_eq!(platform.structures[1].occupancy(), 0);
        assert_eq!(vms[0].vcpu_cycles()[1], platform.cycles[1]);
    }

    #[test]
    fn cotag_hit_invalidates_only_matching_entries() {
        let (platform, mut vms, target) = apply(TargetAction::InvalidateCotag, false, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert!(coherence.entries_selectively_invalidated > 0);
        assert_eq!(coherence.entries_flushed, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert_eq!(
            ledger_invalidations(&vms),
            coherence.entries_selectively_invalidated
        );
        assert!(
            platform.structures[1].occupancy() > 0,
            "other co-tags survive"
        );
        assert!(platform.caches.is_sharer(target.line, TARGET));
    }

    #[test]
    fn cotag_miss_on_a_line_holder_is_not_spurious() {
        let (platform, mut vms, target) =
            apply(TargetAction::InvalidateCotag, false, drop_translations);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.entries_selectively_invalidated, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert!(platform.caches.cpu_holds_line(TARGET, target.line));
        assert!(platform.caches.is_sharer(target.line, TARGET));
    }

    #[test]
    fn cotag_miss_without_the_line_is_spurious_and_leaves_the_sharer_set() {
        let (platform, mut vms, target) = apply(
            TargetAction::InvalidateCotag,
            false,
            |platform, vms, target| {
                drop_translations(platform, vms, target);
                evict_line(platform, target.line);
            },
        );
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.entries_selectively_invalidated, 0);
        assert_eq!(coherence.spurious_messages, 1);
        assert!(!platform.caches.is_sharer(target.line, TARGET));
    }

    #[test]
    fn tlb_only_invalidates_tlbs_and_flushes_mmu_cache_and_ntlb() {
        let (platform, mut vms, _) = apply(TargetAction::InvalidateCotagTlbOnly, false, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.entries_selectively_invalidated, 2, "L1 + L2 TLB");
        assert!(coherence.entries_flushed > 0, "MMU cache and nTLB entries");
        assert_eq!(coherence.full_flushes, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert_eq!(platform.structures[1].occupancy(), 0);
    }
}
