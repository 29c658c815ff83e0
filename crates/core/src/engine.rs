//! The parallel deterministic slice engine: **simulate → commit**.
//!
//! A consolidated host advances in scheduler slices.  This module executes
//! one slice in two phases:
//!
//! 1. **Simulate** — the slice's placements are grouped into *units*, one
//!    per VM slot.  Each unit exclusively owns its [`VmInstance`], its
//!    [`WorkloadDriver`], and the per-CPU state of the physical CPUs its
//!    placements run on (translation structures, private L1/L2 pair, cycle
//!    counter), and sees everything shared — LLC + directory, DRAM devices,
//!    the occupancy table — as a *frozen* slice-start snapshot
//!    (`SliceShared`).  Every shared-state consequence is appended to the
//!    unit's `Effect` log instead of being applied.  Because a unit's
//!    simulation is a pure function of (slice-start state, unit state),
//!    units can run on any number of OS threads in any order.
//! 2. **Commit** — at the slice barrier, one thread replays every unit's
//!    effect log in canonical `(vm slot, emission order)` sequence:
//!    LLC/directory ops, DRAM bookings, dirty-page observations, cross-CPU
//!    coherence work and interference charging, energy tallies.
//!
//! The result is **bit-identical for any thread count** — `threads = 1`
//! and `threads = N` produce byte-identical reports — which the
//! `parallel_determinism` integration test enforces over every registered
//! scenario.
//!
//! Two deliberate model relaxations make the split possible (both are
//! slice-granular, i.e. they defer cross-VM visibility to the barrier, and
//! both are documented in `docs/ARCHITECTURE.md`):
//!
//! * within a slice, one VM's cache/DRAM activity is not visible to
//!   co-running VMs — contention lands on the *next* slice;
//! * frame allocation goes through per-VM [`FramePool`]s, refilled serially
//!   at each barrier and recycling the VM's own frees, so the shared
//!   allocator is never touched concurrently.

use std::time::Instant;

use hatric_cache::{CacheStatsDelta, HitLevel, PrivatePair, SharedCache, SharedCacheOp};
use hatric_coherence::{
    CoherenceCosts, CoherenceMechanism, DesignVariant, RemapContext, TargetAction,
    TranslationCoherence,
};
use hatric_energy::{EnergyEvent, EnergyTally};
use hatric_hypervisor::{NumaPolicy, Placement};
use hatric_memory::{DramPending, MemoryBooking, MemoryKind, MemorySystem, NumaConfig};
use hatric_pagetable::TwoDimWalker;
use hatric_telemetry::{track, EnginePhase, PhaseProfiler, PhaseTotals, RemapId, TraceEvent};
use hatric_tlb::{TlbLevel, TranslationStructures};
use hatric_types::{
    CacheLineAddr, CoTag, CpuId, GuestFrame, GuestVirtPage, PageSize, SocketId, SystemFrame,
    SystemPhysAddr, VcpuId,
};
use hatric_workloads::Access;

use crate::config::LatencyConfig;
use crate::driver::WorkloadDriver;
use crate::platform::{remap_span_name, Platform};
use crate::vm_instance::{VmInstance, GUEST_PT_GPP_BASE};

// ---------------------------------------------------------------------------
// The persistent fork-join worker pool
// ---------------------------------------------------------------------------

/// A job dispatched to a pool worker (lifetime-erased borrowed closure).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A minimal persistent fork-join pool.
///
/// `std::thread::scope` spawns OS threads on every call; at one simulate
/// scope plus one commit scope per slice, thread-creation latency swamps
/// the parallel work (slices are ~1 ms).  This pool keeps its workers
/// alive across slices: [`WorkerPool::run_with_local`] dispatches one
/// borrowed closure per worker and blocks until all of them finish — the
/// same fork-join contract as a scope, without the per-slice spawns.
///
/// Public because the cluster tier reuses it to shard whole hosts across
/// threads with the exact same fork-join discipline the slice engine uses
/// for units.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
    job_txs: Vec<std::sync::mpsc::Sender<Job>>,
    done_rx: std::sync::mpsc::Receiver<bool>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` long-lived threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<bool>();
        let mut handles = Vec::with_capacity(workers);
        let mut job_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                for job in job_rx.iter() {
                    let panicked =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err();
                    // The pool owner may already be gone on shutdown races;
                    // a failed send is fine then.
                    let _ = done.send(panicked);
                }
            }));
            job_txs.push(job_tx);
        }
        Self {
            handles,
            job_txs,
            done_rx,
        }
    }

    /// Number of pool workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs the borrowed jobs — one per pool worker, in order — plus
    /// `local` on the calling thread, and blocks until every job
    /// completed.  Panics (after all jobs drained) if any job panicked.
    ///
    /// Jobs may borrow caller stack data: this function does not return
    /// until every job has run to completion, so the borrows outlive their
    /// use (the `std::thread::scope` guarantee, amortized across calls).
    ///
    /// # Panics
    ///
    /// Panics if more jobs than workers are submitted, or if any job
    /// panicked (after all jobs drained).
    pub fn run_with_local<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        local: impl FnOnce(),
    ) {
        /// Blocks until every dispatched job has signalled completion —
        /// **also on unwind**.  The lifetime-erased jobs borrow the
        /// caller's stack, so returning (or unwinding past) this frame
        /// while a worker still runs one would be a use-after-free; the
        /// guard's `Drop` drains the completion channel first.
        struct DrainGuard<'a> {
            rx: &'a std::sync::mpsc::Receiver<bool>,
            remaining: usize,
        }
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                while self.remaining > 0 {
                    // `Err` means every worker thread is gone (so no job
                    // can still hold a borrow) — safe to stop draining.
                    if self.rx.recv().is_err() {
                        break;
                    }
                    self.remaining -= 1;
                }
            }
        }

        assert!(jobs.len() <= self.workers(), "one job per worker");
        let mut guard = DrainGuard {
            rx: &self.done_rx,
            remaining: 0,
        };
        for (tx, job) in self.job_txs.iter().zip(jobs) {
            // SAFETY: `Job` erases the closure's `'env` lifetime to
            // `'static`.  The borrows inside stay valid because this
            // function — via the normal drain below or `DrainGuard` on any
            // unwind — blocks until every dispatched job has finished
            // executing; a worker can never touch the closure after this
            // frame is gone.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            tx.send(job).expect("pool worker thread is alive");
            guard.remaining += 1;
        }
        local();
        let mut panicked = false;
        while guard.remaining > 0 {
            panicked |= guard
                .rx
                .recv()
                .expect("pool worker signals every job completion");
            guard.remaining -= 1;
        }
        assert!(!panicked, "a slice-engine worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Frame pools
// ---------------------------------------------------------------------------

fn kind_index(kind: MemoryKind) -> usize {
    match kind {
        MemoryKind::OffChip => 0,
        MemoryKind::DieStacked => 1,
    }
}

/// A per-VM pool of pre-reserved physical frames, one LIFO stack per
/// `(device kind, socket)`.
///
/// The shared [`FrameAllocator`](hatric_memory::FrameAllocator)s cannot be
/// touched from simulate workers, so each scheduled VM's pool is refilled
/// *serially* at the slice barrier (in slot order — deterministic), and all
/// allocation during simulate draws from the pool.  Frames a unit frees
/// (paging evictions) are recycled straight back into its own pool, so
/// steady-state paging never starves even when the VM's quota is fully
/// committed.
#[derive(Debug, Clone)]
pub struct FramePool {
    frames: [Vec<Vec<SystemFrame>>; 2],
}

impl FramePool {
    /// An empty pool for a host with `sockets` sockets.
    #[must_use]
    pub fn new(sockets: usize) -> Self {
        Self {
            frames: [vec![Vec::new(); sockets], vec![Vec::new(); sockets]],
        }
    }

    /// Takes a frame of `kind`, preferring `preferred` and spilling to the
    /// other sockets in ascending wrap-around order (mirroring
    /// [`MemorySystem::allocate_on`]).  Returns the frame and the socket it
    /// actually came from.
    fn take(&mut self, kind: MemoryKind, preferred: SocketId) -> Option<(SystemFrame, SocketId)> {
        let stacks = &mut self.frames[kind_index(kind)];
        let count = stacks.len();
        for offset in 0..count {
            let s = (preferred.index() + offset) % count;
            if let Some(frame) = stacks[s].pop() {
                return Some((frame, SocketId::new(s as u32)));
            }
        }
        None
    }

    /// Returns a frame to the pool (refill, or a unit recycling its own
    /// free).
    fn put(&mut self, kind: MemoryKind, socket: SocketId, frame: SystemFrame) {
        self.frames[kind_index(kind)][socket.index()].push(frame);
    }

    /// Total pooled frames of `kind` across sockets.
    #[must_use]
    pub fn total(&self, kind: MemoryKind) -> usize {
        self.frames[kind_index(kind)].iter().map(Vec::len).sum()
    }
}

/// Persistent engine state of one host: per-slot frame pools, DRAM pending
/// overlays and interleave cursors.
#[derive(Debug)]
pub struct EngineState {
    pools: Vec<FramePool>,
    pendings: Vec<DramPending>,
    /// Per-VM round-robin cursor of the [`NumaPolicy::Interleaved`]
    /// placement (the serial path keeps one global cursor; a shared cursor
    /// cannot be advanced from concurrent workers, so the engine interleaves
    /// per VM instead).
    interleave: Vec<usize>,
    /// Lazily created persistent workers (`threads - 1` of them; the
    /// calling thread always executes one share itself).
    pool: Option<WorkerPool>,
    /// Reusable commit-phase buffers (cleared each slice — the hot loop
    /// allocates nothing in steady state).
    commit: CommitScratch,
    /// Recycled per-unit effect logs (their `Vec` capacities are the
    /// largest per-slice allocation; reusing them keeps the steady-state
    /// slice loop allocation-free).
    effects_pool: Vec<UnitEffects>,
    /// Wall-clock totals per engine phase (never read by model code).
    profiler: PhaseProfiler,
}

/// Reusable buffers of the commit phase.
#[derive(Debug, Default)]
struct CommitScratch {
    bank_queues: Vec<Vec<(u64, SharedCacheOp)>>,
    mem_queue: Vec<MemoryBooking>,
    serial_queue: Vec<(u64, usize, SerialEffect)>,
    seq_slots: Vec<u32>,
    privs: Vec<(u64, hatric_cache::PrivEffect)>,
}

impl EngineState {
    /// Engine state for a host with `num_vms` VM slots on `sockets` sockets.
    #[must_use]
    pub fn new(num_vms: usize, sockets: usize) -> Self {
        Self {
            pools: (0..num_vms).map(|_| FramePool::new(sockets)).collect(),
            pendings: (0..num_vms).map(|_| DramPending::new(sockets)).collect(),
            interleave: vec![0; num_vms],
            pool: None,
            commit: CommitScratch::default(),
            effects_pool: Vec::new(),
            profiler: PhaseProfiler::default(),
        }
    }

    /// Wall-clock time this engine instance has spent per phase (simulate,
    /// bank replay, booking replay, serial commit, pool refill), plus the
    /// number of slices executed.  Purely observational — the model never
    /// reads it.
    #[must_use]
    pub fn phase_totals(&self) -> &PhaseTotals {
        self.profiler.totals()
    }

    /// Makes sure the persistent worker pool exists with at least
    /// `threads - 1` workers.
    fn ensure_pool(&mut self, threads: usize) {
        let want = threads.saturating_sub(1);
        if self.pool.as_ref().is_none_or(|p| p.workers() < want) {
            self.pool = Some(WorkerPool::new(want));
        }
    }
}

// ---------------------------------------------------------------------------
// Effects
// ---------------------------------------------------------------------------

/// Deferred translation-coherence work on a physical CPU another unit owns.
#[derive(Debug, Clone, Copy)]
struct RemoteTarget {
    cpu: CpuId,
    action: TargetAction,
    vm_exit: bool,
    disruptive: bool,
    cycles: u64,
    cotag: CoTag,
    line: CacheLineAddr,
    /// The initiating VM's remap ordinal — carried so the commit phase can
    /// charge this target's disruption to the causing remap's
    /// [`hatric_telemetry::RemapId`].
    remap_ordinal: u64,
}

/// One deferred shared-state mutation, applied at the slice barrier.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// An LLC/directory op (replayed via `CacheHierarchy::apply_op`).
    Cache(SharedCacheOp),
    /// A DRAM/link booking (replayed via `MemorySystem::apply_booking`).
    Mem(MemoryBooking),
    /// A guest write observed for dirty-page tracking.
    Observe { gpp: GuestFrame },
    /// Cross-CPU coherence work (flush/invalidate + charging).
    Remote(RemoteTarget),
}

/// Everything one unit's simulate phase produced.
#[derive(Debug)]
struct UnitEffects {
    slot: usize,
    effects: Vec<Effect>,
    energy: EnergyTally,
    cache_stats: CacheStatsDelta,
    /// Scratch buffer `simulate_read`/`simulate_write` push into before the
    /// ops are folded into `effects` (keeps emission order).
    scratch: Vec<SharedCacheOp>,
    /// Sim-time spans recorded during simulate (empty unless tracing is
    /// on), merged into the platform sink in slot order at the barrier —
    /// the same canonical merge the energy tallies use.
    trace: Vec<TraceEvent>,
}

impl UnitEffects {
    fn empty() -> Self {
        Self {
            slot: 0,
            effects: Vec::new(),
            energy: EnergyTally::new(),
            cache_stats: CacheStatsDelta::default(),
            scratch: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Re-arms a recycled log for `slot` (capacities are retained).
    fn reset(&mut self, slot: usize) {
        self.slot = slot;
        self.effects.clear();
        self.energy.clear();
        self.cache_stats = CacheStatsDelta::default();
        self.scratch.clear();
        self.trace.clear();
    }

    fn flush_scratch(&mut self) {
        for i in 0..self.scratch.len() {
            self.effects.push(Effect::Cache(self.scratch[i]));
        }
        self.scratch.clear();
    }
}

// ---------------------------------------------------------------------------
// The frozen shared view and the per-unit task
// ---------------------------------------------------------------------------

/// The slice-start snapshot of everything shared, immutably borrowed by all
/// simulate workers.
struct SliceShared<'a> {
    latencies: LatencyConfig,
    costs: CoherenceCosts,
    cotag_bytes: u8,
    variant: DesignVariant,
    numa: &'a NumaConfig,
    numa_policy: NumaPolicy,
    memory: &'a MemorySystem,
    cache: &'a SharedCache,
    /// Physical CPUs executing any guest this slice (ascending).
    occupied: Vec<CpuId>,
    protocol: &'a dyn TranslationCoherence,
    observer_present: bool,
    /// Whether a trace sink is installed on the platform (units buffer
    /// spans only when it is, so tracing off allocates nothing).
    tracing: bool,
    mechanism: CoherenceMechanism,
    num_cpus: usize,
}

impl SliceShared<'_> {
    fn socket_of_cpu(&self, cpu: CpuId) -> SocketId {
        let cpus_per_socket = self.num_cpus / self.numa.sockets;
        SocketId::new((cpu.index() / cpus_per_socket) as u32)
    }

    /// Mirror of `Platform::remap_distance_extra` over the frozen view.
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
}

/// One physical CPU a unit owns for the slice.
struct UnitCpu<'a> {
    cpu: CpuId,
    vcpu: VcpuId,
    structures: &'a mut TranslationStructures,
    pair: &'a mut PrivatePair,
    cycles: &'a mut u64,
}

/// One unit of simulation: a VM slot plus everything it exclusively owns
/// this slice.
struct UnitTask<'a> {
    slot: usize,
    vm: &'a mut VmInstance,
    driver: &'a mut WorkloadDriver,
    /// The unit's CPUs, in the scheduler's placement order.
    cpus: Vec<UnitCpu<'a>>,
    pool: &'a mut FramePool,
    pending: &'a mut DramPending,
    interleave: &'a mut usize,
}

impl UnitTask<'_> {
    fn local_index(&self, cpu: CpuId) -> Option<usize> {
        self.cpus.iter().position(|c| c.cpu == cpu)
    }
}

/// Charges `cycles` to the unit's `p`-th CPU and the vCPU placed on it (the
/// unit-owned equivalent of `Platform::charge_occupant`).
fn charge(task: &mut UnitTask<'_>, p: usize, cycles: u64) {
    *task.cpus[p].cycles += cycles;
    let vcpu = task.cpus[p].vcpu;
    task.vm.charge(vcpu, cycles);
}

// ---------------------------------------------------------------------------
// The simulate phase (one unit)
// ---------------------------------------------------------------------------

fn simulate_unit(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    slice_accesses: u64,
    mut out: UnitEffects,
) -> UnitEffects {
    out.reset(task.slot);
    for p in 0..task.cpus.len() {
        let thread = task.cpus[p].vcpu.index();
        for _ in 0..slice_accesses {
            let access = task.driver.next_access(thread);
            let asid = task
                .vm
                .vm()
                .address_space(task.driver.address_space_index(thread));
            unit_step(shared, task, &mut out, p, asid, access);
        }
    }
    out
}

/// The unit-side mirror of [`Platform::step`].
fn unit_step(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    asid: hatric_types::AddressSpaceId,
    access: Access,
) {
    task.vm.count_access();
    charge(task, p, u64::from(access.compute_cycles));
    let vm_id = task.vm.id();
    let gvp = access.gvp;

    out.energy.record(EnergyEvent::TlbLookup, 1);
    let lookup = task.cpus[p].structures.lookup_data(vm_id, asid, gvp);
    if let Some(hit) = lookup {
        let extra = match hit.level {
            TlbLevel::L1 => 0,
            TlbLevel::L2 => shared.latencies.l2_tlb_hit_extra,
        };
        charge(task, p, extra);
        let needs_gpp = task.vm.paging_enabled() || (access.is_write && shared.observer_present);
        if needs_gpp {
            // A walked entry carries its guest frame; a bare-metal fill, or
            // an L1 victim from another VM filed under this VM's key, does not.
            let translate = || task.vm.guest_page_table().translate(gvp);
            debug_assert!(hit.gpp.is_none_or(|gpp| Some(gpp) == translate()));
            if let Some(gpp) = hit.gpp.or_else(translate) {
                if task.vm.paging_enabled() {
                    task.vm.paging_mut().on_fast_access(gpp);
                }
                if access.is_write && shared.observer_present {
                    out.effects.push(Effect::Observe { gpp });
                }
            }
        }
        unit_data_access(
            shared,
            task,
            out,
            p,
            hit.spp,
            access.line_in_page,
            access.is_write,
        );
        return;
    }

    // TLB miss: make sure the page is mapped, resident where the
    // hypervisor wants it, then walk.
    out.energy.record(EnergyEvent::MmuCacheLookup, 1);
    out.energy.record(EnergyEvent::NtlbLookup, 1);
    let gpp = unit_ensure_guest_mapping(shared, task, p, gvp);
    unit_ensure_nested_mapping(shared, task, p, gpp);
    if access.is_write && shared.observer_present {
        out.effects.push(Effect::Observe { gpp });
    }

    if task.vm.paging_enabled() {
        if task.vm.paging().is_resident(gpp) {
            task.vm.paging_mut().on_fast_access(gpp);
        } else if current_kind(shared, task.vm, gpp) == Some(MemoryKind::OffChip) {
            unit_handle_demand_fault(shared, task, out, p, gpp);
        }
    }

    let walk =
        match TwoDimWalker::walk(gvp, task.vm.guest_page_table(), task.vm.nested_page_table()) {
            Ok(walk) => walk,
            Err(_) => return,
        };
    let accessed_clear = task
        .vm
        .nested_pt_mut()
        .mark_used(gpp, access.is_write)
        .unwrap_or(false);
    if accessed_clear {
        // The walker informs the directory that this line now feeds
        // translation structures (Sec. 4.2) — a shared-level op.
        out.effects.push(Effect::Cache(SharedCacheOp::MarkPt {
            line: walk.nested_leaf_pte_addr().cache_line(),
            kind: hatric_cache::PtKind::Nested,
        }));
        out.effects.push(Effect::Cache(SharedCacheOp::MarkPt {
            line: walk.guest_leaf_pte_addr().cache_line(),
            kind: hatric_cache::PtKind::Guest,
        }));
        out.energy.record(EnergyEvent::DirectoryAccess, 1);
    }
    let assist = task.cpus[p]
        .structures
        .service_miss(vm_id, asid, &walk, accessed_clear);
    out.energy
        .record(EnergyEvent::PageWalkStep, assist.refs.len() as u64);
    let walk_start = *task.cpus[p].cycles;
    for &addr in assist.refs.iter() {
        let sim = sim_read(shared, task, out, p, addr.cache_line());
        unit_charge_read(shared, task, out, p, addr, sim.level);
    }
    let walk_cycles = *task.cpus[p].cycles - walk_start;
    task.vm.latency_mut().walk.record(walk_cycles);

    unit_data_access(
        shared,
        task,
        out,
        p,
        walk.spp,
        access.line_in_page,
        access.is_write,
    );
}

fn sim_read(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    line: CacheLineAddr,
) -> hatric_cache::SimAccess {
    let cpu = task.cpus[p].cpu;
    let sim = task.cpus[p].pair.simulate_read(
        shared.cache,
        cpu,
        line,
        &mut out.scratch,
        &mut out.cache_stats,
    );
    out.flush_scratch();
    sim
}

fn sim_write(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    line: CacheLineAddr,
) -> hatric_cache::SimWrite {
    let cpu = task.cpus[p].cpu;
    let sim = task.cpus[p].pair.simulate_write(
        shared.cache,
        cpu,
        line,
        &mut out.scratch,
        &mut out.cache_stats,
    );
    out.flush_scratch();
    sim
}

fn unit_data_access(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    spp: SystemFrame,
    line_in_page: u8,
    is_write: bool,
) {
    let addr = spp.addr_at(u64::from(line_in_page) * 64);
    let line = addr.cache_line();
    if is_write {
        let w = sim_write(shared, task, out, p, line);
        unit_charge_read(shared, task, out, p, addr, w.level);
        out.energy.record(
            EnergyEvent::CoherenceMessage,
            u64::from(w.invalidated_sharers.count()),
        );
        // Ordinary data writes never hit page-table lines (workload data
        // regions and page-table frames are disjoint), so no translation
        // coherence is needed here.
    } else {
        let r = sim_read(shared, task, out, p, line);
        unit_charge_read(shared, task, out, p, addr, r.level);
    }
}

/// The unit-side mirror of `Platform::charge_read`: charges the predicted
/// latency of one cache access.  Back-invalidations are produced — and
/// handled — at commit time by the op replay.
fn unit_charge_read(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    addr: SystemPhysAddr,
    level: HitLevel,
) {
    let lat = &shared.latencies;
    let cycles = match level {
        HitLevel::L1 => {
            out.energy.record(EnergyEvent::L1Access, 1);
            lat.l1_hit
        }
        HitLevel::L2 => {
            out.energy.record(EnergyEvent::L2Access, 1);
            lat.l2_hit
        }
        HitLevel::Llc => {
            out.energy.record(EnergyEvent::LlcAccess, 1);
            out.energy.record(EnergyEvent::DirectoryAccess, 1);
            lat.llc_hit
        }
        HitLevel::Memory => {
            out.energy.record(EnergyEvent::LlcAccess, 1);
            out.energy.record(EnergyEvent::DirectoryAccess, 1);
            let frame = addr.frame(PageSize::Base);
            let kind = shared.memory.kind_of(frame);
            out.energy.record(
                match kind {
                    MemoryKind::DieStacked => EnergyEvent::DramAccessFast,
                    MemoryKind::OffChip => EnergyEvent::DramAccessSlow,
                },
                1,
            );
            let cpu_socket = shared.socket_of_cpu(task.cpus[p].cpu);
            let numa = task.vm.numa_mut();
            if shared.memory.is_remote(frame, cpu_socket) {
                numa.remote_dram_accesses += 1;
            } else {
                numa.local_dram_accesses += 1;
            }
            let now = *task.cpus[p].cycles;
            let cost = shared
                .memory
                .plan_access_detail(frame, cpu_socket, now, task.pending);
            task.vm.latency_mut().dram_queue.record(cost.queueing);
            out.effects.push(Effect::Mem(MemoryBooking::Access {
                frame,
                stream: task.slot,
                from_socket: cpu_socket,
                now,
            }));
            lat.llc_hit + cost.total
        }
    };
    charge(task, p, cycles);
}

// ----- mapping management (unit side) --------------------------------------

fn current_kind(shared: &SliceShared<'_>, vm: &VmInstance, gpp: GuestFrame) -> Option<MemoryKind> {
    vm.nested_page_table()
        .translate(gpp)
        .map(|spp| shared.memory.kind_of(spp))
}

fn unit_ensure_guest_mapping(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    p: usize,
    gvp: GuestVirtPage,
) -> GuestFrame {
    if let Some(gpp) = task.vm.guest_page_table().translate(gvp) {
        return gpp;
    }
    let gpp = GuestFrame::new(gvp.number());
    let outcome = task.vm.guest_pt_mut().map(gvp, gpp);
    // Give every new guest page-table node a nested mapping in the
    // hypervisor's page-table reserve region.
    let mut nodes = outcome.allocated_nodes;
    if task
        .vm
        .nested_page_table()
        .translate(GuestFrame::new(GUEST_PT_GPP_BASE))
        .is_none()
    {
        nodes.push(GuestFrame::new(GUEST_PT_GPP_BASE));
    }
    for node in nodes {
        if task.vm.nested_page_table().translate(node).is_none() {
            let backing = SystemFrame::new(task.vm.next_pt_backing_frame());
            task.vm.nested_pt_mut().map(node, backing);
        }
    }
    task.vm.faults_mut().first_touch_faults += 1;
    charge(task, p, shared.latencies.first_touch_cycles);
    gpp
}

/// Pool-backed equivalent of `Platform::allocate_for`.
fn unit_allocate(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    p: usize,
    kind: MemoryKind,
) -> Option<SystemFrame> {
    let preferred = match shared.numa_policy {
        NumaPolicy::FirstTouch => shared.socket_of_cpu(task.cpus[p].cpu),
        NumaPolicy::Interleaved => {
            let socket = *task.interleave % shared.numa.sockets;
            *task.interleave += 1;
            SocketId::new(socket as u32)
        }
    };
    let (frame, socket) = task.pool.take(kind, preferred)?;
    // A deliberate interleaved placement on another socket is not a
    // spill; only failing to get the *preferred* socket is.
    if socket != preferred {
        task.vm.numa_mut().remote_allocations += 1;
    }
    Some(frame)
}

fn unit_ensure_nested_mapping(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    p: usize,
    gpp: GuestFrame,
) {
    if task.vm.nested_page_table().translate(gpp).is_some() {
        return;
    }
    // First touch of a brand-new page (see `Platform::ensure_nested_mapping`
    // for the placement policy rationale).
    let spp = if task.vm.paging_enabled() && task.vm.paging().free_pages() > 0 {
        match unit_allocate(shared, task, p, MemoryKind::DieStacked) {
            Some(f) => {
                task.vm.paging_mut().commit_promotion(gpp);
                f
            }
            None => unit_allocate(shared, task, p, MemoryKind::OffChip)
                .unwrap_or_else(|| SystemFrame::new(task.vm.next_pt_backing_frame())),
        }
    } else {
        unit_allocate(shared, task, p, MemoryKind::OffChip)
            .unwrap_or_else(|| SystemFrame::new(task.vm.next_pt_backing_frame()))
    };
    task.vm.nested_pt_mut().map(gpp, spp);
    charge(task, p, shared.latencies.first_touch_cycles);
}

// ----- demand paging (unit side) -------------------------------------------

fn unit_handle_demand_fault(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    gpp: GuestFrame,
) {
    // The faulting access takes an EPT-violation VM exit regardless of
    // the translation-coherence mechanism.
    task.vm.faults_mut().demand_faults += 1;
    charge(task, p, shared.costs.vm_exit_cycles);
    out.energy.record(EnergyEvent::VmExit, 1);

    let decision = task.vm.paging_mut().on_slow_access(gpp);
    for &victim in &decision.evictions {
        unit_migrate(shared, task, out, p, victim, MemoryKind::OffChip, false);
    }
    if task.vm.paging().daemon_should_run() {
        for victim in task.vm.paging_mut().run_daemon() {
            unit_migrate(shared, task, out, p, victim, MemoryKind::OffChip, false);
        }
    }
    for (i, promo) in decision.promotions.iter().enumerate() {
        if task.vm.nested_page_table().translate(*promo).is_none() {
            // Prefetch candidate that the guest has never touched: skip.
            continue;
        }
        if current_kind(shared, task.vm, *promo) == Some(MemoryKind::OffChip) {
            let on_critical_path = i == 0;
            if unit_migrate(
                shared,
                task,
                out,
                p,
                *promo,
                MemoryKind::DieStacked,
                on_critical_path,
            ) {
                task.vm.paging_mut().commit_promotion(*promo);
            }
        } else {
            task.vm.paging_mut().commit_promotion(*promo);
        }
    }
}

/// Unit-side mirror of `Platform::migrate`: moves `gpp` to the `to` device.
/// The freed frame is recycled into the unit's own pool; the copy's device
/// occupancy is planned against the frozen devices and booked at commit.
fn unit_migrate(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    gpp: GuestFrame,
    to: MemoryKind,
    critical: bool,
) -> bool {
    let Some(old_spp) = task.vm.nested_page_table().translate(gpp) else {
        return false;
    };
    if shared.memory.kind_of(old_spp) == to {
        return false;
    }
    let Some(new_spp) = unit_allocate(shared, task, p, to) else {
        return false;
    };
    let now = *task.cpus[p].cycles;
    let copy = shared
        .memory
        .plan_page_copy(old_spp, new_spp, now, task.pending);
    out.effects.push(Effect::Mem(MemoryBooking::PageCopy {
        from: old_spp,
        to: new_spp,
        stream: task.slot,
        now,
    }));
    if critical {
        charge(task, p, copy);
    }
    out.energy.record(EnergyEvent::PageCopy, 1);
    // Recycle the freed frame into the VM's own pool (the shared allocator
    // is frozen during simulate; the frame stays VM-private).
    task.pool.put(
        shared.memory.kind_of(old_spp),
        shared.memory.socket_of(old_spp),
        old_spp,
    );
    let pte_addr = task
        .vm
        .nested_pt_mut()
        .remap(gpp, new_spp)
        .expect("translate() above guarantees the mapping exists");
    match to {
        MemoryKind::DieStacked => task.vm.faults_mut().pages_promoted += 1,
        MemoryKind::OffChip => task.vm.faults_mut().pages_demoted += 1,
    }
    unit_remap_coherence(shared, task, out, p, pte_addr);
    true
}

// ----- translation coherence (unit side) -----------------------------------

/// Unit-side mirror of [`Platform::remap_coherence`].  Targets on the
/// unit's own CPUs are applied inline (so the VM's own stale translations
/// vanish before its next access); targets on other CPUs become
/// [`Effect::Remote`] entries applied at the barrier.
fn unit_remap_coherence(
    shared: &SliceShared<'_>,
    task: &mut UnitTask<'_>,
    out: &mut UnitEffects,
    p: usize,
    pte_addr: SystemPhysAddr,
) {
    let slot = task.vm.slot() as u32;
    let remap_id = {
        let coherence = task.vm.coherence_mut();
        coherence.remaps += 1;
        RemapId::new(slot, coherence.remaps)
    };
    let span_start = *task.cpus[p].cycles;
    let line = pte_addr.cache_line();
    let write = sim_write(shared, task, out, p, line);
    unit_charge_read(shared, task, out, p, pte_addr, write.level);
    out.energy.record(
        EnergyEvent::CoherenceMessage,
        u64::from(write.invalidated_sharers.count()),
    );

    // The initiator's own translation structures snoop the store locally
    // (the directory's sharer list excludes the writer), so it is always
    // part of the hardware-coherence target set.
    let initiator = task.cpus[p].cpu;
    let mut sharers = write.invalidated_sharers;
    sharers.add(initiator);
    let ctx = RemapContext {
        initiator,
        vm: task.vm.id(),
        vm_cpus: task.vm.vm().cpus_ever_used().to_vec(),
        running_guest: shared.occupied.clone(),
        sharers,
    };
    let plan = shared.protocol.plan_remap(&ctx);
    debug_assert_eq!(
        plan.vm,
        task.vm.id(),
        "coherence plan must be executed on behalf of the VM that remapped"
    );
    charge(task, p, plan.initiator_cycles);
    task.vm.coherence_mut().ipis += plan.ipis_sent;
    task.vm.coherence_mut().hw_messages += plan.hw_messages;
    out.energy.record(EnergyEvent::Ipi, plan.ipis_sent);
    out.energy
        .record(EnergyEvent::CoherenceMessage, plan.hw_messages);

    let cotag = CoTag::from_pte_addr(pte_addr, shared.cotag_bytes);
    let initiator_socket = shared.socket_of_cpu(initiator);
    // Completion latency = initiator cycles plus the slowest target's
    // invalidation, computed over the plan before the charging loop so the
    // remap span precedes its per-target acks in the sink (trace order
    // stays monotone per track).
    let slowest_target = plan
        .targets
        .iter()
        .map(|t| {
            let disruptive = t.vm_exit || t.action == TargetAction::FlushAll;
            let does_work = disruptive || t.action != TargetAction::None;
            t.target_cycles
                + shared
                    .remap_distance_extra(initiator_socket, t.cpu, disruptive, does_work)
                    .1
        })
        .max()
        .unwrap_or(0);
    task.vm
        .latency_mut()
        .shootdown
        .record(plan.initiator_cycles + slowest_target);
    if shared.tracing {
        let dur = (*task.cpus[p].cycles - span_start) + slowest_target;
        out.trace.push(TraceEvent {
            name: remap_span_name(shared.mechanism),
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
            shared.remap_distance_extra(initiator_socket, target.cpu, disruptive, does_work);
        let target_cycles = target.target_cycles + distance_extra;
        if does_work {
            let numa = task.vm.numa_mut();
            if cross_socket {
                numa.remote_coherence_targets += 1;
            } else {
                numa.local_coherence_targets += 1;
            }
            task.vm.causal_mut().charge_target(remap_id);
        }
        if let Some(q) = task.local_index(target.cpu) {
            // Own CPU: apply inline.  The occupant is this unit's own vCPU,
            // so no cross-VM interference is recorded (mirroring the serial
            // `occ_slot != slot` check).
            if shared.tracing && does_work {
                out.trace.push(TraceEvent {
                    name: "inval_target",
                    cat: "coherence",
                    track: track::cpu(target.cpu.index()),
                    ts: *task.cpus[q].cycles,
                    dur: target_cycles,
                    args: vec![("vm_exit", u64::from(target.vm_exit))],
                });
            }
            if disruptive {
                charge(task, q, target_cycles);
            } else {
                // Co-tag matches run in the translation-structure port and
                // never stall the occupant.
                *task.cpus[q].cycles += target_cycles;
            }
            if target.vm_exit {
                task.vm.coherence_mut().coherence_vm_exits += 1;
                out.energy.record(EnergyEvent::VmExit, 1);
            }
            let holds_line = task.cpus[q].pair.holds(line);
            let energy = &mut out.energy;
            let (demote, invalidated) = apply_target_action(
                task.cpus[q].structures,
                holds_line,
                task.vm.coherence_mut(),
                &mut |event, count| energy.record(event, count),
                target.action,
                cotag,
            );
            task.vm
                .causal_mut()
                .charge_invalidations(remap_id, invalidated);
            if demote {
                out.effects.push(Effect::Cache(SharedCacheOp::DemoteSharer {
                    cpu: target.cpu,
                    line,
                }));
            }
        } else {
            out.effects.push(Effect::Remote(RemoteTarget {
                cpu: target.cpu,
                action: target.action,
                vm_exit: target.vm_exit,
                disruptive,
                cycles: target_cycles,
                cotag,
                line,
                remap_ordinal: remap_id.ordinal,
            }));
        }
    }
    // Directory-energy premium of the fancier design variants (Fig. 12).
    let extra_factor = shared.variant.directory_energy_factor() - 1.0;
    if extra_factor > 0.0 {
        let extra = ((plan.targets.len() as f64) * extra_factor).ceil() as u64;
        out.energy.record(EnergyEvent::DirectoryAccess, extra);
    }
}

/// Applies one planned [`TargetAction`] to a target CPU's translation
/// structures, crediting the *initiating* VM's coherence counters and
/// energy (via `energy`, so both the simulate-side [`EnergyTally`] and the
/// commit-side [`hatric_energy::EnergyModel`] fit).  `holds_line` is
/// whether the target CPU's private caches currently hold the page-table
/// line; returns `(demote, invalidated)` — `demote` is `true` when a
/// spurious message means the caller must lazily demote the target from
/// the line's sharer list, `invalidated` is the number of translation
/// entries removed (for per-remap causal attribution).
fn apply_target_action(
    structures: &mut TranslationStructures,
    holds_line: bool,
    coherence: &mut crate::metrics::CoherenceActivity,
    energy: &mut dyn FnMut(EnergyEvent, u64),
    action: TargetAction,
    cotag: CoTag,
) -> (bool, u64) {
    match action {
        TargetAction::FlushAll => {
            let counts = structures.flush_all();
            coherence.full_flushes += 1;
            coherence.entries_flushed += counts.total();
            (false, counts.total())
        }
        TargetAction::InvalidateCotag => {
            energy(EnergyEvent::CotagMatch, 1);
            let counts = structures.invalidate_cotag(cotag);
            coherence.entries_selectively_invalidated += counts.total();
            energy(EnergyEvent::TranslationInvalidation, counts.total());
            if counts.total() == 0 && !holds_line {
                coherence.spurious_messages += 1;
                (true, 0)
            } else {
                (false, counts.total())
            }
        }
        TargetAction::InvalidateCotagTlbOnly => {
            energy(EnergyEvent::UnitdCamSearch, 1);
            let counts = structures.invalidate_cotag_tlb_only(cotag);
            coherence.entries_selectively_invalidated += counts.tlb;
            coherence.entries_flushed += counts.mmu_cache + counts.ntlb;
            energy(EnergyEvent::TranslationInvalidation, counts.total());
            if counts.total() == 0 && !holds_line {
                coherence.spurious_messages += 1;
                (true, 0)
            } else {
                (false, counts.total())
            }
        }
        TargetAction::None => (false, 0),
    }
}

// ---------------------------------------------------------------------------
// The commit phase
// ---------------------------------------------------------------------------

/// The non-bank effects of the seq-ordered serial pass.
#[derive(Debug)]
enum SerialEffect {
    Observe(GuestFrame),
    Remote(RemoteTarget),
}

/// Commits every unit's effect log at the slice barrier:
///
/// 1. private-cache stat deltas and energy tallies, in slot order;
/// 2. **parallel** replay of the LLC/directory ops, distributed to the
///    fixed geometry-derived banks (each bank drained by one worker in
///    canonical seq order) concurrently with the DRAM booking replay —
///    banks, devices and private state are mutually disjoint;
/// 3. a serial pass over everything that touches private pairs, VM
///    counters or translation structures (downgrades, invalidations,
///    back-invalidations, remote coherence targets, dirty-page
///    observations), merged across banks and sorted by global seq.
fn commit_effects(
    platform: &mut Platform,
    vms: &mut [VmInstance],
    effects: &mut [UnitEffects],
    threads: usize,
    pool: Option<&WorkerPool>,
    scratch: &mut CommitScratch,
    profiler: &mut PhaseProfiler,
) {
    for unit in effects.iter_mut() {
        platform.caches.apply_stats_delta(&unit.cache_stats);
        unit.energy.apply_to(&mut platform.energy);
        // Slot-ordered trace merge — the same canonical order as the
        // energy tallies, so sink contents are thread-count invariant.
        if let Some(sink) = platform.trace.as_mut() {
            for event in unit.trace.drain(..) {
                sink.record(event);
            }
        } else {
            unit.trace.clear();
        }
    }

    // Partition by destination, assigning each effect its global seq (slot
    // order is the canonical commit order).  All buffers are reused across
    // slices.
    let bank_count = platform.caches.bank_count();
    scratch.bank_queues.resize_with(bank_count, Vec::new);
    let CommitScratch {
        bank_queues,
        mem_queue,
        serial_queue,
        seq_slots,
        privs,
    } = scratch;
    for queue in bank_queues.iter_mut() {
        queue.clear();
    }
    mem_queue.clear();
    serial_queue.clear();
    seq_slots.clear();
    privs.clear();
    let mut seq: u64 = 0;
    for unit in effects.iter() {
        for effect in &unit.effects {
            match effect {
                Effect::Cache(op) => {
                    bank_queues[platform.caches.bank_of(op.line())].push((seq, *op));
                }
                Effect::Mem(booking) => mem_queue.push(*booking),
                Effect::Observe { gpp } => {
                    serial_queue.push((seq, unit.slot, SerialEffect::Observe(*gpp)));
                }
                Effect::Remote(target) => {
                    serial_queue.push((seq, unit.slot, SerialEffect::Remote(*target)));
                }
            }
            seq_slots.push(unit.slot as u32);
            seq += 1;
        }
    }

    // Parallel phase: bank replays + DRAM bookings.  Bank replays read no
    // private or device state, so any worker↔bank assignment yields the
    // same result; the bank count never depends on `threads`.
    let eager = platform.caches.config().eager_pt_directory_update;
    {
        let banks = platform.caches.banks_mut();
        let memory = &mut platform.memory;
        match pool.filter(|p| threads > 1 && p.workers() > 0) {
            None => {
                let t = Instant::now();
                for (bank, queue) in banks.iter_mut().zip(bank_queues.iter()) {
                    for (op_seq, op) in queue {
                        bank.apply_op(op, *op_seq, eager, privs);
                    }
                }
                profiler.record(EnginePhase::BankReplay, t.elapsed());
                let t = Instant::now();
                for booking in mem_queue.iter() {
                    memory.apply_booking(booking);
                }
                profiler.record(EnginePhase::BookingReplay, t.elapsed());
            }
            Some(pool) => {
                // Workers replay the banks; the calling thread replays the
                // DRAM bookings meanwhile (devices and banks are disjoint).
                type BankWork<'a> = (&'a mut hatric_cache::CacheBank, &'a [(u64, SharedCacheOp)]);
                let workers = pool.workers().min(bank_count);
                let mut worker_banks: Vec<Vec<BankWork<'_>>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (i, (bank, queue)) in banks.iter_mut().zip(bank_queues.iter()).enumerate() {
                    worker_banks[i % workers].push((bank, queue.as_slice()));
                }
                let mut results: Vec<Vec<(u64, hatric_cache::PrivEffect)>> =
                    (0..workers).map(|_| Vec::new()).collect();
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
                    .iter_mut()
                    .zip(worker_banks)
                    .map(|(out, bucket)| {
                        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            for (bank, queue) in bucket {
                                for (op_seq, op) in queue {
                                    bank.apply_op(op, *op_seq, eager, out);
                                }
                            }
                        });
                        job
                    })
                    .collect();
                // The booking replay runs on the calling thread while the
                // workers replay banks, so `BankReplay` here is the wall
                // time of the fork-join barrier minus the local booking
                // time (the two phases overlap; on the inline path they
                // are disjoint).
                let barrier = Instant::now();
                let mut booking_elapsed = std::time::Duration::ZERO;
                pool.run_with_local(jobs, || {
                    let t = Instant::now();
                    for booking in mem_queue.iter() {
                        memory.apply_booking(booking);
                    }
                    booking_elapsed = t.elapsed();
                });
                profiler.record(
                    EnginePhase::BankReplay,
                    barrier.elapsed().saturating_sub(booking_elapsed),
                );
                profiler.record(EnginePhase::BookingReplay, booking_elapsed);
                for list in results {
                    privs.extend(list);
                }
            }
        }
    }
    let serial_start = Instant::now();
    // Per-bank emission order is already seq-ascending; a stable sort
    // merges the banks into the one canonical order.
    privs.sort_by_key(|(s, _)| *s);

    // Serial pass: walk priv effects and remote/observe effects merged by
    // global seq.
    let mut p = 0usize;
    let mut r = 0usize;
    while p < privs.len() || r < serial_queue.len() {
        let take_priv = match (privs.get(p), serial_queue.get(r)) {
            (Some((ps, _)), Some((rs, _, _))) => ps < rs,
            (Some(_), None) => true,
            _ => false,
        };
        if take_priv {
            let (s, effect) = &privs[p];
            p += 1;
            let slot = seq_slots[*s as usize] as usize;
            platform.caches.resolve_priv(effect);
            if let hatric_cache::PrivEffect::BackInvalidate {
                line,
                sharers,
                pt: Some(_),
            } = effect
            {
                // Page-table lines feed translation structures: the
                // back-invalidation reaches them too.
                let cotag = CoTag::from_line(*line, platform.cotag_bytes);
                for cpu in sharers.iter() {
                    let counts = platform.structures[cpu.index()].invalidate_cotag(cotag);
                    vms[slot].coherence_mut().back_invalidated_entries += counts.total();
                    // Charged to the evicting VM's latest remap (the commit
                    // pass is serial and `remaps` holds the full-slice value
                    // here, so the ordinal is thread-count invariant).
                    let remaps = vms[slot].coherence_mut().remaps;
                    if remaps > 0 {
                        vms[slot].causal_mut().charge_invalidations(
                            RemapId::new(slot as u32, remaps),
                            counts.total(),
                        );
                    }
                    platform
                        .energy
                        .record(EnergyEvent::TranslationInvalidation, counts.total());
                }
            }
        } else {
            let (_, slot, effect) = &serial_queue[r];
            r += 1;
            match effect {
                SerialEffect::Observe(gpp) => {
                    if let Some(observer) = platform.write_observer.as_mut() {
                        observer.on_guest_write(*slot, *gpp);
                    }
                }
                SerialEffect::Remote(target) => commit_remote_target(platform, vms, *slot, target),
            }
        }
    }
    profiler.record(EnginePhase::SerialCommit, serial_start.elapsed());
}

/// Applies one deferred cross-CPU coherence target: charging, interference
/// attribution, the structure invalidation/flush, and the spurious-message
/// bookkeeping — exactly the target loop of `Platform::remap_coherence`.
fn commit_remote_target(
    platform: &mut Platform,
    vms: &mut [VmInstance],
    slot: usize,
    target: &RemoteTarget,
) {
    let does_work = target.disruptive || target.action != TargetAction::None;
    if platform.trace.is_some() && does_work {
        platform.trace_event(TraceEvent {
            name: "inval_target",
            cat: "coherence",
            track: track::cpu(target.cpu.index()),
            ts: platform.cycles[target.cpu.index()],
            dur: target.cycles,
            args: vec![("vm_exit", u64::from(target.vm_exit))],
        });
    }
    platform.cycles[target.cpu.index()] += target.cycles;
    let remap_id = RemapId::new(slot as u32, target.remap_ordinal);
    if target.disruptive {
        if let Some((occ_slot, vcpu)) = platform.occupancy[target.cpu.index()] {
            vms[occ_slot].charge(vcpu, target.cycles);
            if occ_slot != slot {
                let victim = vms[occ_slot].interference_mut();
                victim.disrupted_cycles += target.cycles;
                victim.disruptions_received += 1;
                vms[slot].interference_mut().inflicted_cycles += target.cycles;
                vms[slot]
                    .causal_mut()
                    .charge_victim_cycles(remap_id, target.cycles);
            }
        }
    }
    if target.vm_exit {
        vms[slot].coherence_mut().coherence_vm_exits += 1;
        platform.energy.record(EnergyEvent::VmExit, 1);
    }
    let holds_line = platform.caches.cpu_holds_line(target.cpu, target.line);
    let energy = &mut platform.energy;
    let (demote, invalidated) = apply_target_action(
        &mut platform.structures[target.cpu.index()],
        holds_line,
        vms[slot].coherence_mut(),
        &mut |event, count| energy.record(event, count),
        target.action,
        target.cotag,
    );
    vms[slot]
        .causal_mut()
        .charge_invalidations(remap_id, invalidated);
    if demote {
        platform.caches.demote_sharer(target.line, target.cpu);
    }
}

// ---------------------------------------------------------------------------
// Pool refill (serial, at the slice barrier)
// ---------------------------------------------------------------------------

/// Refills the scheduled VMs' frame pools from the shared allocators, in
/// slot order.  Die-stacked refill is capped by the VM's unclaimed quota
/// (every die-stacked allocation the pipeline makes consumes a quota page,
/// so a pool holding `min(2 × accesses, quota remaining)` frames can never
/// run dry for first-touch); off-chip refill is bounded by the per-slice
/// demand estimate.
fn refill_pools(
    platform: &mut Platform,
    vms: &[VmInstance],
    units: &[(usize, Vec<Placement>)],
    state: &mut EngineState,
    slice_accesses: u64,
) {
    for (slot, placements) in units {
        let per_slice = placements.len() as u64 * slice_accesses;
        let vm = &vms[*slot];
        if vm.paging_enabled() {
            let want = (2 * per_slice).min(vm.paging().free_pages());
            refill_kind(
                platform,
                state,
                *slot,
                MemoryKind::DieStacked,
                want,
                placements,
            );
        }
        refill_kind(
            platform,
            state,
            *slot,
            MemoryKind::OffChip,
            2 * per_slice,
            placements,
        );
    }
}

fn refill_kind(
    platform: &mut Platform,
    state: &mut EngineState,
    slot: usize,
    kind: MemoryKind,
    target: u64,
    placements: &[Placement],
) {
    let sockets = platform.numa.sockets;
    let mut have = state.pools[slot].total(kind) as u64;
    let mut i = 0usize;
    while have < target {
        let preferred = match platform.numa_policy {
            NumaPolicy::FirstTouch => platform.socket_of_cpu(placements[i % placements.len()].pcpu),
            NumaPolicy::Interleaved => {
                let socket = state.interleave[slot] % sockets;
                state.interleave[slot] += 1;
                SocketId::new(socket as u32)
            }
        };
        match platform.memory.allocate_on(kind, preferred) {
            Ok(frame) => {
                let socket = platform.memory.socket_of(frame);
                state.pools[slot].put(kind, socket, frame);
                have += 1;
            }
            Err(_) => break,
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

/// Picks `&mut` references to the items at the (ascending) `slots` out of
/// `items`, without unsafe code: walk the iterator once, keeping only the
/// wanted elements.
fn pick_by_slot<'a, T>(items: &'a mut [T], slots: &[usize]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(slots.len());
    let mut iter = items.iter_mut().enumerate();
    for &want in slots {
        loop {
            let (i, item) = iter.next().expect("slot index within range");
            if i == want {
                out.push(item);
                break;
            }
        }
    }
    out
}

/// Executes one scheduler slice through the phased engine.
///
/// `placements` is the slice's schedule (each pCPU at most once).  The
/// simulate phase runs the per-VM units on up to `threads` OS threads from
/// the engine's persistent worker pool; `threads = 1` runs them inline.
/// Results are bit-identical for any `threads` value.
///
/// # Panics
///
/// Panics if a placement names a CPU or VM slot out of range, or if a
/// worker thread panics.
pub fn run_slice_parallel(
    platform: &mut Platform,
    vms: &mut [VmInstance],
    drivers: &mut [WorkloadDriver],
    placements: &[Placement],
    slice_accesses: u64,
    threads: usize,
    state: &mut EngineState,
) {
    // Group placements into units by VM slot (ascending), preserving the
    // scheduler's placement order within each unit — the canonical commit
    // order is (vm slot, emission order).
    let mut units: Vec<(usize, Vec<Placement>)> = Vec::new();
    let mut slots: Vec<usize> = placements.iter().map(|p| p.vm_slot).collect();
    slots.sort_unstable();
    slots.dedup();
    for slot in slots {
        let unit: Vec<Placement> = placements
            .iter()
            .filter(|p| p.vm_slot == slot)
            .copied()
            .collect();
        units.push((slot, unit));
    }
    if units.is_empty() {
        return;
    }

    let refill_start = Instant::now();
    refill_pools(platform, vms, &units, state, slice_accesses);
    let refill_elapsed = refill_start.elapsed();
    if threads > 1 {
        state.ensure_pool(threads);
    }
    // Split the engine state into its disjoint parts so the per-slot
    // resources can be lent to the unit tasks while the worker pool stays
    // usable from this thread.
    let EngineState {
        pools,
        pendings,
        interleave,
        pool,
        commit,
        effects_pool,
        profiler,
    } = state;
    let pool = pool.as_ref();
    profiler.record(EnginePhase::PoolRefill, refill_elapsed);

    let unit_slots: Vec<usize> = units.iter().map(|(slot, _)| *slot).collect();
    // Map each pCPU to the unit that owns it this slice.
    let mut cpu_owner: Vec<Option<usize>> = vec![None; platform.num_cpus];
    let mut cpu_vcpu: Vec<Option<VcpuId>> = vec![None; platform.num_cpus];
    for (u, (_, unit_placements)) in units.iter().enumerate() {
        for p in unit_placements {
            cpu_owner[p.pcpu.index()] = Some(u);
            cpu_vcpu[p.pcpu.index()] = Some(p.vcpu);
        }
    }

    let simulate_start = Instant::now();
    let mut effects: Vec<UnitEffects> = {
        let (cache_shared, pairs) = platform.caches.split_simulate();
        let occupied: Vec<CpuId> = platform
            .occupancy
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| CpuId::new(i as u32))
            .collect();
        let shared = SliceShared {
            latencies: platform.latencies,
            costs: platform.costs,
            cotag_bytes: platform.cotag_bytes,
            variant: platform.variant,
            numa: &platform.numa,
            numa_policy: platform.numa_policy,
            memory: &platform.memory,
            cache: cache_shared,
            occupied,
            protocol: &*platform.protocol,
            observer_present: platform.write_observer.is_some(),
            tracing: platform.trace.is_some(),
            mechanism: platform.mechanism,
            num_cpus: platform.num_cpus,
        };

        // Partition the per-CPU state by owning unit, in CPU order first…
        let mut cpu_buckets: Vec<Vec<UnitCpu<'_>>> = (0..units.len()).map(|_| Vec::new()).collect();
        for (((i, structures), pair), cycles) in platform
            .structures
            .iter_mut()
            .enumerate()
            .zip(pairs.iter_mut())
            .zip(platform.cycles.iter_mut())
        {
            if let Some(u) = cpu_owner[i] {
                cpu_buckets[u].push(UnitCpu {
                    cpu: CpuId::new(i as u32),
                    vcpu: cpu_vcpu[i].expect("owned CPUs have a placed vCPU"),
                    structures,
                    pair,
                    cycles,
                });
            }
        }
        // …then reorder each unit's CPUs into its placement order.
        let mut unit_cpus: Vec<Vec<UnitCpu<'_>>> = Vec::with_capacity(units.len());
        for (u, (_, unit_placements)) in units.iter().enumerate() {
            let mut bucket: Vec<UnitCpu<'_>> = std::mem::take(&mut cpu_buckets[u]);
            let mut ordered = Vec::with_capacity(bucket.len());
            for placement in unit_placements {
                let pos = bucket
                    .iter()
                    .position(|c| c.cpu == placement.pcpu)
                    .expect("every placement's CPU was partitioned to its unit");
                ordered.push(bucket.swap_remove(pos));
            }
            unit_cpus.push(ordered);
        }

        let unit_vms = pick_by_slot(vms, &unit_slots);
        let unit_drivers = pick_by_slot(drivers, &unit_slots);
        let unit_pools = pick_by_slot(pools, &unit_slots);
        let unit_pendings = pick_by_slot(pendings, &unit_slots);
        let unit_cursors = pick_by_slot(interleave, &unit_slots);

        let mut tasks: Vec<UnitTask<'_>> = Vec::with_capacity(units.len());
        for ((((((slot, _), cpus), vm), driver), pool), (pending, cursor)) in units
            .iter()
            .zip(unit_cpus)
            .zip(unit_vms)
            .zip(unit_drivers)
            .zip(unit_pools)
            .zip(unit_pendings.into_iter().zip(unit_cursors))
        {
            pending.clear();
            tasks.push(UnitTask {
                slot: *slot,
                vm,
                driver,
                cpus,
                pool,
                pending,
                interleave: cursor,
            });
        }

        let shared_ref = &shared;
        // Draw one recycled effect log per task (capacities survive across
        // slices; the pool refills after commit).
        let mut logs: Vec<UnitEffects> = (0..tasks.len())
            .map(|_| effects_pool.pop().unwrap_or_else(UnitEffects::empty))
            .collect();
        match pool.filter(|_| threads > 1 && tasks.len() > 1) {
            None => tasks
                .into_iter()
                .zip(logs)
                .map(|(mut task, log)| simulate_unit(shared_ref, &mut task, slice_accesses, log))
                .collect(),
            Some(pool) => {
                let buckets_n = threads.min(tasks.len());
                let mut buckets: Vec<Vec<(UnitTask<'_>, UnitEffects)>> =
                    (0..buckets_n).map(|_| Vec::new()).collect();
                for (i, pair) in tasks.into_iter().zip(logs.drain(..)).enumerate() {
                    buckets[i % buckets_n].push(pair);
                }
                let mut results: Vec<Vec<UnitEffects>> =
                    (0..buckets_n).map(|_| Vec::new()).collect();
                let local_bucket = buckets.pop().expect("buckets_n >= 2");
                let (job_results, local_result) = results.split_at_mut(buckets_n - 1);
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = job_results
                    .iter_mut()
                    .zip(buckets)
                    .map(|(slot, bucket)| {
                        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            *slot = bucket
                                .into_iter()
                                .map(|(mut task, log)| {
                                    simulate_unit(shared_ref, &mut task, slice_accesses, log)
                                })
                                .collect();
                        });
                        job
                    })
                    .collect();
                pool.run_with_local(jobs, || {
                    local_result[0] = local_bucket
                        .into_iter()
                        .map(|(mut task, log)| {
                            simulate_unit(shared_ref, &mut task, slice_accesses, log)
                        })
                        .collect();
                });
                let mut flat: Vec<UnitEffects> = results.into_iter().flatten().collect();
                flat.sort_by_key(|u| u.slot);
                flat
            }
        }
    };

    profiler.record(EnginePhase::Simulate, simulate_start.elapsed());

    commit_effects(platform, vms, &mut effects, threads, pool, commit, profiler);
    profiler.record_slice();
    effects_pool.extend(effects);
}
