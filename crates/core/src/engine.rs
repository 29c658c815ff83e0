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
//!    (`SliceShared`).  Each access runs the one pipeline of
//!    `crate::pipeline` through this module's unit backend (`UnitTask`), which
//!    appends every shared-state consequence to the unit's `Effect` log
//!    instead of applying it.  Because a unit's simulation is a pure
//!    function of (slice-start state, unit state), units can run on any
//!    number of OS threads in any order.
//! 2. **Commit** — at the slice barrier, one thread replays every unit's
//!    effect log in canonical `(vm slot, emission order)` sequence:
//!    LLC/directory ops, DRAM bookings, dirty-page observations, energy
//!    tallies, and the coherence targets and directory back-invalidations
//!    on other units' CPUs — those two through the serial backend's
//!    pipeline functions, the same ones [`Platform::step`] runs.
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

use hatric_cache::{
    BackInvalidation, CacheStatsDelta, PrivatePair, PtKind, SharedCache, SharedCacheOp, SharerSet,
};
use hatric_coherence::TranslationCoherence;
use hatric_energy::{EnergyEvent, EnergyTally};
use hatric_hypervisor::Placement;
use hatric_memory::{AccessCost, DramPending, MemoryBooking, MemoryKind, MemorySystem};
use hatric_telemetry::{EnginePhase, PhaseProfiler, PhaseTotals, RemapId, TraceEvent};
use hatric_tlb::TranslationStructures;
use hatric_types::{CacheLineAddr, CpuId, GuestFrame, SocketId, SystemFrame, VcpuId};

use crate::driver::WorkloadDriver;
use crate::pipeline::{self, Backend, CacheAccess, Params, TargetWork};
use crate::platform::{Platform, Serial};
use crate::vm_instance::VmInstance;

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
    /// other sockets in ascending wrap-around order (the order of
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

/// One deferred shared-state mutation, applied at the slice barrier.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// An LLC/directory op (replayed via `CacheHierarchy::apply_op`).
    Cache(SharedCacheOp),
    /// A DRAM/link booking (replayed via `MemorySystem::apply_booking`).
    Mem(MemoryBooking),
    /// A guest write observed for dirty-page tracking.
    Observe { gpp: GuestFrame },
    /// Coherence work on a physical CPU another unit owns.
    Remote(TargetWork),
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
    params: &'a Params,
    memory: &'a MemorySystem,
    cache: &'a SharedCache,
    /// Physical CPUs executing any guest this slice (ascending).
    occupied: Vec<CpuId>,
    protocol: &'a dyn TranslationCoherence,
    observer_present: bool,
    /// Whether a trace sink is installed on the platform (units buffer
    /// spans only when it is, so tracing off allocates nothing).
    tracing: bool,
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
/// this slice, and the pipeline's unit backend.
///
/// As a backend, each shared-state consequence is predicted against the
/// frozen snapshot and logged in the unit's [`Effect`] log for the commit
/// barrier; frames come from and return to the VM's own [`FramePool`];
/// coherence targets on CPUs other units own are deferred to the barrier.
/// A CPU is named by its index in the unit's placement order.
struct UnitTask<'a> {
    shared: &'a SliceShared<'a>,
    slot: usize,
    vm: &'a mut VmInstance,
    driver: &'a mut WorkloadDriver,
    /// The unit's CPUs, in the scheduler's placement order.
    cpus: Vec<UnitCpu<'a>>,
    pool: &'a mut FramePool,
    pending: &'a mut DramPending,
    interleave: &'a mut usize,
    out: UnitEffects,
}

// ---------------------------------------------------------------------------
// The simulate phase (one unit)
// ---------------------------------------------------------------------------

fn simulate_unit(mut task: UnitTask<'_>, slice_accesses: u64) -> UnitEffects {
    task.out.reset(task.slot);
    for p in 0..task.cpus.len() {
        let thread = task.cpus[p].vcpu.index();
        for _ in 0..slice_accesses {
            let access = task.driver.next_access(thread);
            let asid = task
                .vm
                .vm()
                .address_space(task.driver.address_space_index(thread));
            pipeline::step(&mut task, p, asid, access);
        }
    }
    task.out
}

impl Backend for UnitTask<'_> {
    type Cpu = usize;

    fn params(&self) -> &Params {
        self.shared.params
    }

    fn memory(&self) -> &MemorySystem {
        self.shared.memory
    }

    fn protocol(&self) -> &dyn TranslationCoherence {
        self.shared.protocol
    }

    fn running_guest(&self) -> Vec<CpuId> {
        self.shared.occupied.clone()
    }

    fn slot(&self) -> usize {
        self.vm.slot()
    }

    fn vm(&mut self) -> &mut VmInstance {
        self.vm
    }

    fn cpu_id(&self, p: usize) -> CpuId {
        self.cpus[p].cpu
    }

    fn local(&self, cpu: CpuId) -> Option<usize> {
        self.cpus.iter().position(|c| c.cpu == cpu)
    }

    fn structures(&mut self, p: usize) -> &mut TranslationStructures {
        self.cpus[p].structures
    }

    fn cycles(&mut self, p: usize) -> &mut u64 {
        self.cpus[p].cycles
    }

    fn charge(&mut self, p: usize, cycles: u64) {
        let cpu = &mut self.cpus[p];
        *cpu.cycles += cycles;
        self.vm.charge(cpu.vcpu, cycles);
    }

    fn disrupt(&mut self, p: usize, cycles: u64, _remap: RemapId) {
        // An owned CPU's occupant is this unit's own vCPU: no cross-VM
        // interference to book.
        self.charge(p, cycles);
    }

    fn energy(&mut self, event: EnergyEvent, count: u64) {
        self.out.energy.record(event, count);
    }

    fn tracing(&self) -> bool {
        self.shared.tracing
    }

    fn trace(&mut self, event: TraceEvent) {
        self.out.trace.push(event);
    }

    fn access(&mut self, p: usize, line: CacheLineAddr, write: bool) -> CacheAccess {
        let UnitCpu { cpu, pair, .. } = &mut self.cpus[p];
        let out = &mut self.out;
        let (level, invalidated) = if write {
            let sim = pair.simulate_write(
                self.shared.cache,
                *cpu,
                line,
                &mut out.scratch,
                &mut out.cache_stats,
            );
            (sim.level, sim.invalidated_sharers)
        } else {
            let sim = pair.simulate_read(
                self.shared.cache,
                *cpu,
                line,
                &mut out.scratch,
                &mut out.cache_stats,
            );
            (sim.level, SharerSet::default())
        };
        out.flush_scratch();
        CacheAccess {
            level,
            invalidated,
            back_invalidated: None,
        }
    }

    fn mark_pt(&mut self, line: CacheLineAddr, kind: PtKind) -> Option<BackInvalidation> {
        self.out
            .effects
            .push(Effect::Cache(SharedCacheOp::MarkPt { line, kind }));
        None
    }

    fn dram_access(&mut self, frame: SystemFrame, socket: SocketId, now: u64) -> AccessCost {
        let cost = self
            .shared
            .memory
            .plan_access_detail(frame, socket, now, self.pending);
        self.out.effects.push(Effect::Mem(MemoryBooking::Access {
            frame,
            stream: self.slot,
            from_socket: socket,
            now,
        }));
        cost
    }

    fn page_copy(&mut self, from: SystemFrame, to: SystemFrame, now: u64) -> u64 {
        let cycles = self
            .shared
            .memory
            .plan_page_copy(from, to, now, self.pending);
        self.out.effects.push(Effect::Mem(MemoryBooking::PageCopy {
            from,
            to,
            stream: self.slot,
            now,
        }));
        cycles
    }

    fn take_frame(
        &mut self,
        kind: MemoryKind,
        preferred: SocketId,
    ) -> Option<(SystemFrame, SocketId)> {
        self.pool.take(kind, preferred)
    }

    fn interleave_cursor(&mut self) -> &mut usize {
        self.interleave
    }

    fn free_frame(&mut self, frame: SystemFrame) {
        // Recycle the freed frame into the VM's own pool (the shared
        // allocator is frozen during simulate; the frame stays VM-private).
        let memory = self.shared.memory;
        self.pool
            .put(memory.kind_of(frame), memory.socket_of(frame), frame);
    }

    fn observer_present(&self) -> bool {
        self.shared.observer_present
    }

    fn observe_write(&mut self, gpp: GuestFrame) {
        self.out.effects.push(Effect::Observe { gpp });
    }

    fn holds_line(&self, p: usize, line: CacheLineAddr) -> bool {
        self.cpus[p].pair.holds(line)
    }

    fn demote_sharer(&mut self, p: usize, line: CacheLineAddr) {
        let cpu = self.cpus[p].cpu;
        self.out
            .effects
            .push(Effect::Cache(SharedCacheOp::DemoteSharer { cpu, line }));
    }

    fn defer_target(&mut self, target: TargetWork) {
        self.out.effects.push(Effect::Remote(target));
    }
}

// ---------------------------------------------------------------------------
// The commit phase
// ---------------------------------------------------------------------------

/// The non-bank effects of the seq-ordered serial pass.
#[derive(Debug)]
enum SerialEffect {
    Observe(GuestFrame),
    Remote(TargetWork),
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
            if let hatric_cache::PrivEffect::BackInvalidate { line, sharers, pt } = *effect {
                // Page-table lines feed translation structures: the
                // back-invalidation reaches them too.  The pass is serial and
                // `remaps` holds the full-slice value here, so the remap it
                // is charged to is thread-count invariant.
                let mut serial = Serial::new(platform, vms, slot);
                pipeline::back_invalidate(&mut serial, Some((line, sharers, pt)));
            }
        } else {
            let (_, slot, effect) = &serial_queue[r];
            r += 1;
            let mut serial = Serial::new(platform, vms, *slot);
            match effect {
                SerialEffect::Observe(gpp) => serial.observe_write(*gpp),
                SerialEffect::Remote(target) => {
                    pipeline::apply_target(&mut serial, target.cpu, target);
                }
            }
        }
    }
    profiler.record(EnginePhase::SerialCommit, serial_start.elapsed());
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
    let mut have = state.pools[slot].total(kind) as u64;
    let mut i = 0usize;
    while have < target {
        let cpu = placements[i % placements.len()].pcpu;
        let preferred = platform
            .params
            .preferred_socket(cpu, &mut state.interleave[slot]);
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
    let mut cpu_owner: Vec<Option<usize>> = vec![None; platform.num_cpus()];
    let mut cpu_vcpu: Vec<Option<VcpuId>> = vec![None; platform.num_cpus()];
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
            params: &platform.params,
            memory: &platform.memory,
            cache: cache_shared,
            occupied,
            protocol: &*platform.protocol,
            observer_present: platform.write_observer.is_some(),
            tracing: platform.trace.is_some(),
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
                shared: &shared,
                slot: *slot,
                vm,
                driver,
                cpus,
                pool,
                pending,
                interleave: cursor,
                // A recycled effect log (capacities survive across slices;
                // the pool refills after commit).
                out: effects_pool.pop().unwrap_or_else(UnitEffects::empty),
            });
        }

        match pool.filter(|_| threads > 1 && tasks.len() > 1) {
            None => tasks
                .into_iter()
                .map(|task| simulate_unit(task, slice_accesses))
                .collect(),
            Some(pool) => {
                let buckets_n = threads.min(tasks.len());
                let mut buckets: Vec<Vec<UnitTask<'_>>> =
                    (0..buckets_n).map(|_| Vec::new()).collect();
                for (i, task) in tasks.into_iter().enumerate() {
                    buckets[i % buckets_n].push(task);
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
                                .map(|task| simulate_unit(task, slice_accesses))
                                .collect();
                        });
                        job
                    })
                    .collect();
                pool.run_with_local(jobs, || {
                    local_result[0] = local_bucket
                        .into_iter()
                        .map(|task| simulate_unit(task, slice_accesses))
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

#[cfg(test)]
mod tests {
    //! Every [`TargetAction`] arm, applied through the serial backend, a
    //! unit that owns the target CPU, and a unit that defers it to the
    //! commit barrier: the three paths must leave identical state.

    use super::*;
    use crate::config::SystemConfig;
    use hatric_coherence::TargetAction;
    use hatric_types::{AddressSpaceId, CoTag, GuestVirtPage};
    use hatric_workloads::{Access, Workload, WorkloadKind};

    const TARGET: CpuId = CpuId::new(1);
    const GVP: GuestVirtPage = GuestVirtPage::new(7);

    /// How the target reaches CPU 1.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Serial,
        /// A unit that owns CPU 1 applies it inline.
        UnitLocal,
        /// A unit that owns only CPU 0 defers it to the barrier.
        UnitDeferred,
    }

    /// A one-VM, two-vCPU host whose CPU 1 has walked page `GVP`, so its
    /// TLBs, MMU cache and nested TLB hold translations co-tagged with the
    /// page's nested leaf entry, and its private caches hold that entry's
    /// line.  Returns the host and that line's coherence target.
    fn host(action: TargetAction, vm_exit: bool) -> (Platform, Vec<VmInstance>, TargetWork) {
        let config = SystemConfig::scaled(2, 256);
        let mut platform = Platform::new(&config).unwrap();
        let paging = crate::VmPagingParams::for_quota(&config.paging, 256, true);
        let vm_config = hatric_hypervisor::VmConfig {
            vm: hatric_types::VmId::new(0),
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

    /// Applies `target` to the host through `path`, with a unit simulated
    /// over the host's slice-start state and committed at the barrier.
    fn apply(platform: &mut Platform, vms: &mut [VmInstance], target: TargetWork, path: Path) {
        let owned = match path {
            Path::Serial => {
                pipeline::dispatch_target(&mut Serial::new(platform, vms, 0), target);
                return;
            }
            Path::UnitLocal => TARGET,
            Path::UnitDeferred => CpuId::new(0),
        };
        let sockets = platform.sockets();
        let workload = Workload::build(WorkloadKind::DataCaching, 2, 64, 1);
        let mut driver = WorkloadDriver::from(workload);
        let (mut pool, mut pending) = (FramePool::new(sockets), DramPending::new(sockets));
        let mut cursor = 0;
        let mut out = {
            let (cache, pairs) = platform.caches.split_simulate();
            let shared = SliceShared {
                params: &platform.params,
                memory: &platform.memory,
                cache,
                occupied: vec![CpuId::new(0), TARGET],
                protocol: &*platform.protocol,
                observer_present: false,
                tracing: false,
            };
            let i = owned.index();
            let mut task = UnitTask {
                shared: &shared,
                slot: 0,
                vm: &mut vms[0],
                driver: &mut driver,
                cpus: vec![UnitCpu {
                    cpu: owned,
                    vcpu: VcpuId::new(i as u32),
                    structures: &mut platform.structures[i],
                    pair: &mut pairs[i],
                    cycles: &mut platform.cycles[i],
                }],
                pool: &mut pool,
                pending: &mut pending,
                interleave: &mut cursor,
                out: UnitEffects::empty(),
            };
            task.out.reset(0);
            pipeline::dispatch_target(&mut task, target);
            task.out
        };
        let mut scratch = CommitScratch::default();
        let mut profiler = PhaseProfiler::default();
        let units = std::slice::from_mut(&mut out);
        commit_effects(platform, vms, units, 1, None, &mut scratch, &mut profiler);
    }

    /// Builds a host, runs `prepare` on it, applies the target through
    /// each path, checks that all paths agree, and returns the serial
    /// path's host and target.
    fn through_every_path(
        action: TargetAction,
        vm_exit: bool,
        prepare: impl Fn(&mut Platform, &mut [VmInstance], &TargetWork),
    ) -> (Platform, Vec<VmInstance>, TargetWork) {
        let run = |path| {
            let (mut platform, mut vms, target) = host(action, vm_exit);
            prepare(&mut platform, &mut vms, &target);
            apply(&mut platform, &mut vms, target, path);
            (platform, vms, target)
        };
        let (serial, mut serial_vms, target) = run(Path::Serial);
        for path in [Path::UnitLocal, Path::UnitDeferred] {
            let (platform, mut vms, _) = run(path);
            assert_eq!(
                *vms[0].coherence_mut(),
                *serial_vms[0].coherence_mut(),
                "{path:?}"
            );
            assert_eq!(vms[0].causal(), serial_vms[0].causal(), "{path:?}");
            assert_eq!(
                vms[0].vcpu_cycles(),
                serial_vms[0].vcpu_cycles(),
                "{path:?}"
            );
            assert_eq!(platform.cycles, serial.cycles, "{path:?}");
            assert_eq!(
                platform.structures[1].occupancy(),
                serial.structures[1].occupancy(),
                "{path:?}"
            );
            assert_eq!(
                platform.caches.is_sharer(target.line, TARGET),
                serial.caches.is_sharer(target.line, TARGET),
                "{path:?}"
            );
        }
        (serial, serial_vms, target)
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

    #[test]
    fn flush_all_empties_every_structure_and_stalls_the_occupant() {
        let (platform, mut vms, _) = through_every_path(TargetAction::FlushAll, true, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.full_flushes, 1);
        assert_eq!(coherence.coherence_vm_exits, 1);
        assert!(coherence.entries_flushed > 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert_eq!(platform.structures[1].occupancy(), 0);
        assert_eq!(vms[0].vcpu_cycles()[1], platform.cycles[1]);
    }

    #[test]
    fn cotag_hit_invalidates_only_matching_entries() {
        let (platform, mut vms, target) =
            through_every_path(TargetAction::InvalidateCotag, false, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert!(coherence.entries_selectively_invalidated > 0);
        assert_eq!(coherence.entries_flushed, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert!(
            platform.structures[1].occupancy() > 0,
            "other co-tags survive"
        );
        assert!(platform.caches.is_sharer(target.line, TARGET));
    }

    #[test]
    fn cotag_miss_on_a_line_holder_is_not_spurious() {
        let (platform, mut vms, target) =
            through_every_path(TargetAction::InvalidateCotag, false, drop_translations);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.entries_selectively_invalidated, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert!(platform.caches.cpu_holds_line(TARGET, target.line));
        assert!(platform.caches.is_sharer(target.line, TARGET));
    }

    #[test]
    fn cotag_miss_without_the_line_is_spurious_and_leaves_the_sharer_set() {
        let (platform, mut vms, target) = through_every_path(
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
        let (platform, mut vms, _) =
            through_every_path(TargetAction::InvalidateCotagTlbOnly, false, no_prep);
        let coherence = *vms[0].coherence_mut();
        assert_eq!(coherence.entries_selectively_invalidated, 2, "L1 + L2 TLB");
        assert!(coherence.entries_flushed > 0, "MMU cache and nTLB entries");
        assert_eq!(coherence.full_flushes, 0);
        assert_eq!(coherence.spurious_messages, 0);
        assert_eq!(platform.structures[1].occupancy(), 0);
    }

    #[test]
    fn none_only_charges_the_target_port() {
        let (before, mut before_vms, _) = host(TargetAction::None, false);
        let (platform, mut vms, target) = through_every_path(TargetAction::None, false, no_prep);
        assert_eq!(*vms[0].coherence_mut(), *before_vms[0].coherence_mut());
        assert_eq!(vms[0].vcpu_cycles(), before_vms[0].vcpu_cycles());
        assert_eq!(platform.cycles[1], before.cycles[1] + target.cycles);
        assert_eq!(
            platform.structures[1].occupancy(),
            before.structures[1].occupancy()
        );
    }
}
