//! The consolidated host: N virtual machines scheduled over one shared
//! [`Platform`].

use hatric::metrics::{HostReport, MigrationStats, SimReport};
use hatric::telemetry::{track, CounterTimeline, PhaseTotals, TraceEvent, TraceSink};
use hatric::{
    run_slice_parallel, EngineState, Platform, VmInstance, VmPagingParams, WorkloadDriver,
};
use hatric_hypervisor::{Placement, Scheduler, VmConfig};
use hatric_memory::MemoryKind;
use hatric_migration::{
    BalloonDriver, HostEvent, MigrationEngine, MigrationPhase, MigrationReceiver, ReceiverParams,
};
use hatric_types::{CpuId, GuestFrame, Result, VcpuId, VmId};
use hatric_workloads::Workload;

use crate::config::HostConfig;

/// Physical CPU the hypervisor's migration/balloon worker threads run on.
/// Their cycles are charged to the VM each operation serves (the host
/// temporarily declares that VM the CPU's occupant), so any fixed choice
/// is equivalent; CPU 0 keeps runs reproducible.
const HYPERVISOR_WORKER_CPU: CpuId = CpuId::new(0);

/// A host running `config.vms.len()` virtual machines concurrently over one
/// cache hierarchy, one HATRIC directory, one memory system and a pool of
/// physical CPUs.
///
/// Time advances in scheduler slices: each slice, the scheduler places up
/// to `num_pcpus` vCPUs, and every placed vCPU issues
/// `config.slice_accesses` guest memory accesses through the shared
/// pipeline.  Hypervisor paging inside any VM triggers translation
/// coherence on the shared platform, where its cost lands on whoever
/// occupies the targeted CPUs — the cross-VM interference this subsystem
/// exists to measure.
#[derive(Debug)]
pub struct ConsolidatedHost {
    config: HostConfig,
    platform: Platform,
    vms: Vec<VmInstance>,
    drivers: Vec<WorkloadDriver>,
    scheduler: Scheduler,
    current_slice: Vec<Placement>,
    /// Scratch buffer the scheduler writes the next slice into (swapped
    /// with `current_slice` after the context switch — no per-slice
    /// allocation).
    next_slice_buf: Vec<Placement>,
    /// The slice engine's persistent state (frame pools, DRAM pending
    /// overlays, worker pool, phase profiler).
    engine: EngineState,
    slices_run: u64,
    /// Events not yet started (a migration due while another is in flight
    /// is deferred until the slot frees up).
    pending_events: Vec<HostEvent>,
    /// Scratch buffer `start_due_events` collects still-pending events
    /// into (swapped back — no per-slice allocation).
    pending_scratch: Vec<HostEvent>,
    /// The in-flight (or most recently completed) live migration.
    migration: Option<MigrationEngine>,
    /// The destination side of an inter-host migration, when this host is
    /// receiving a VM image from a cluster peer.
    receiver: Option<MigrationReceiver>,
    /// Which VM slots are scheduled at all.  The cluster tier deactivates
    /// slots for departures and flips activity at migration hand-off; a
    /// standalone host leaves every slot active.
    vm_active: Vec<bool>,
    /// In-flight and completed balloon operations.
    balloons: Vec<BalloonDriver>,
    /// Stats of migrations already replaced by a newer one.
    finished_migration_stats: MigrationStats,
    /// Sticky stall flag: `start_migration` only *queues* the engine, so a
    /// fault window opening in the same epoch must survive until the
    /// engine actually exists and be applied at creation.
    migration_stalled: bool,
    /// The counter timeline, when gauge sampling is enabled.
    timeline: Option<CounterTimeline>,
    /// Coherence-target total at the previous timeline sample (the
    /// `shootdown_targets` series is a per-window delta of the cumulative
    /// per-VM counters).
    timeline_prev_targets: u64,
}

impl ConsolidatedHost {
    /// Builds the host from its configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: HostConfig) -> Result<Self> {
        config.validate()?;
        let platform = Platform::new(&config.platform_config())?;
        let device_pages = platform.memory().total_frames(MemoryKind::DieStacked);
        let mut vms = Vec::with_capacity(config.vms.len());
        let mut drivers = Vec::with_capacity(config.vms.len());
        for (slot, spec) in config.vms.iter().enumerate() {
            // Quotas partition the real device; the no-HBM and infinite-HBM
            // operating modes override them host-wide.
            let quota = match config.memory_mode {
                hatric::MemoryMode::NoHbm => 0,
                hatric::MemoryMode::InfiniteHbm => device_pages,
                hatric::MemoryMode::Paged => spec.fast_quota_pages.min(device_pages),
            };
            let paging = VmPagingParams::for_quota(&spec.paging, quota, quota > 0);
            vms.push(VmInstance::unplaced(
                slot,
                VmConfig {
                    vm: VmId::new(slot as u32),
                    vcpus: spec.vcpus,
                    first_cpu: hatric_types::CpuId::new(0),
                },
                paging,
                platform.memory(),
            ));
            let workload_seed = config
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot as u64 + 1));
            drivers.push(WorkloadDriver::from(Workload::build(
                spec.workload,
                spec.vcpus,
                spec.workload_scale_pages,
                workload_seed,
            )));
        }
        let vcpu_counts: Vec<usize> = config.vms.iter().map(|v| v.vcpus).collect();
        let scheduler = if config.sched == hatric_hypervisor::SchedPolicy::SocketAffine {
            let home_sockets: Vec<usize> = config.vms.iter().map(|v| v.home_socket).collect();
            Scheduler::socket_affine(
                config.num_pcpus,
                &vcpu_counts,
                &home_sockets,
                config.numa.sockets,
            )
        } else {
            Scheduler::new(config.sched, config.num_pcpus, &vcpu_counts)
        };
        let pending_events = config.events.clone();
        let vm_active = vec![true; config.vms.len()];
        let engine = EngineState::new(config.vms.len(), config.numa.sockets);
        Ok(Self {
            config,
            platform,
            vms,
            drivers,
            scheduler,
            current_slice: Vec::new(),
            next_slice_buf: Vec::new(),
            engine,
            slices_run: 0,
            pending_events,
            pending_scratch: Vec::new(),
            migration: None,
            receiver: None,
            vm_active,
            balloons: Vec::new(),
            finished_migration_stats: MigrationStats::default(),
            migration_stalled: false,
            timeline: None,
            timeline_prev_targets: 0,
        })
    }

    /// The configuration this host was built with.
    #[must_use]
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// The shared platform (for inspection).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The VM in host slot `slot` (for inspection).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn vm(&self, slot: usize) -> &VmInstance {
        &self.vms[slot]
    }

    /// Scheduler slices executed so far (warmup included).
    #[must_use]
    pub fn slices_run(&self) -> u64 {
        self.slices_run
    }

    // ----- observability -----------------------------------------------------

    /// Installs a sim-time trace sink holding up to `capacity` spans
    /// (oldest evicted first).  Recording is keyed entirely to simulated
    /// cycle counters, so the trace is deterministic — byte-identical for
    /// any worker thread count — and never perturbs the model.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.platform.set_trace_sink(TraceSink::new(capacity));
    }

    /// Exports the recorded spans as a Chrome trace-event JSON document
    /// (openable in `chrome://tracing` or Perfetto), or `None` when
    /// tracing was never enabled.
    #[must_use]
    pub fn export_trace(&self) -> Option<String> {
        self.platform
            .trace_sink()
            .map(hatric::telemetry::TraceSink::export_chrome_trace)
    }

    /// Wall-clock totals the slice engine spent in each phase (simulate,
    /// bank replay, booking replay, serial commit, pool refill) on this
    /// host's slices.
    #[must_use]
    pub fn phase_totals(&self) -> &PhaseTotals {
        self.engine.phase_totals()
    }

    /// The gauge series a host timeline samples, in column order.
    pub const TIMELINE_SERIES: [&'static str; 6] = [
        "directory_lines",
        "dram_queue_offchip",
        "dram_queue_diestacked",
        "ntlb_hit_rate_bp",
        "shootdown_targets",
        "dirty_pages",
    ];

    /// Enables counter-timeline sampling every `interval` slices: after
    /// each `interval`-th slice commits, the host records directory
    /// occupancy, per-device DRAM queue depth, the nested-TLB hit rate
    /// (basis points), coherence targets generated since the previous
    /// sample, and the in-flight migration's pending page count.
    ///
    /// Sampling happens at the commit barrier, where every gauge reads
    /// the canonical committed state — so the timeline is byte-identical
    /// for any worker thread count, and enabling it never changes any
    /// model metric.
    pub fn enable_timeline(&mut self, interval: u64) {
        self.timeline = Some(CounterTimeline::new(
            interval,
            Self::TIMELINE_SERIES.to_vec(),
        ));
        self.timeline_prev_targets = 0;
    }

    /// The recorded counter timeline, or `None` when sampling was never
    /// enabled.
    #[must_use]
    pub fn timeline(&self) -> Option<&CounterTimeline> {
        self.timeline.as_ref()
    }

    /// Records one timeline sample if sampling is enabled and the slice
    /// counter sits on the interval.  Every gauge is a read of committed
    /// state; nothing here feeds back into the model.
    fn sample_timeline(&mut self) {
        let due = self
            .timeline
            .as_ref()
            .is_some_and(|t| self.slices_run.is_multiple_of(t.interval()));
        if !due {
            return;
        }
        let now = self
            .platform
            .cycles_per_cpu()
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let directory_lines = self.platform.caches().directory_len() as u64;
        let memory = self.platform.memory();
        let queue_off = memory.projected_queueing(MemoryKind::OffChip, now);
        let queue_die = memory.projected_queueing(MemoryKind::DieStacked, now);
        let ntlb = self.platform.translation_snapshot().ntlb;
        let ntlb_bp = if ntlb.total() == 0 {
            0
        } else {
            ntlb.hits() * 10_000 / ntlb.total()
        };
        let targets_total: u64 = self
            .vms
            .iter()
            .map(|vm| vm.numa().local_coherence_targets + vm.numa().remote_coherence_targets)
            .sum();
        let targets_window = targets_total - self.timeline_prev_targets;
        self.timeline_prev_targets = targets_total;
        let dirty_pages = self
            .migration
            .as_ref()
            .map_or(0, MigrationEngine::pending_pages);
        if let Some(timeline) = &mut self.timeline {
            timeline.record(
                now,
                &[
                    directory_lines,
                    queue_off,
                    queue_die,
                    ntlb_bp,
                    targets_window,
                    dirty_pages,
                ],
            );
        }
    }

    /// Runs `warmup_slices` unmeasured slices (to populate page tables,
    /// caches and the resident sets), clears the measurement counters, runs
    /// `measured_slices` measured slices and returns the report.
    pub fn run(&mut self, warmup_slices: u64, measured_slices: u64) -> HostReport {
        self.run_slices(warmup_slices);
        self.reset_measurements();
        self.run_slices(measured_slices);
        self.report()
    }

    /// Executes `n` scheduler slices.
    pub fn run_slices(&mut self, n: u64) {
        for _ in 0..n {
            self.run_one_slice();
        }
    }

    fn run_one_slice(&mut self) {
        self.start_due_events();
        self.apply_throttle();
        let mut placements = std::mem::take(&mut self.next_slice_buf);
        self.scheduler.next_slice_into(&mut placements);
        // Context switch: clear last slice's occupants, install this one's.
        for p in self.current_slice.drain(..) {
            self.vms[p.vm_slot].vm_mut().deschedule(p.vcpu);
            self.platform.set_occupant(p.pcpu, None);
        }
        for p in &placements {
            self.vms[p.vm_slot].vm_mut().place(p.vcpu, p.pcpu);
            self.platform
                .set_occupant(p.pcpu, Some((p.vm_slot, p.vcpu)));
        }
        // Scheduler-slice spans are anchored to CPU 0's cycle counter: it
        // only moves forward, so the scheduler track stays monotone.
        let slice_start = self
            .platform
            .trace_enabled()
            .then(|| self.platform.cycles_per_cpu()[0]);
        // Simulate the slice's VM shards (on `config.threads` workers) and
        // commit their effect logs at the barrier — bit-identical for any
        // thread count.
        run_slice_parallel(
            &mut self.platform,
            &mut self.vms,
            &mut self.drivers,
            &placements,
            self.config.slice_accesses,
            self.config.threads,
            &mut self.engine,
        );
        self.next_slice_buf = std::mem::replace(&mut self.current_slice, placements);
        self.advance_events();
        if let Some(start) = slice_start {
            let now = self.platform.cycles_per_cpu()[0];
            self.platform.trace_event(TraceEvent {
                name: "slice",
                cat: "scheduler",
                track: track::SCHEDULER,
                ts: start,
                dur: now.saturating_sub(start),
                args: vec![
                    ("slice", self.slices_run),
                    ("placed_vcpus", self.current_slice.len() as u64),
                ],
            });
        }
        self.slices_run += 1;
        self.sample_timeline();
    }

    // ----- hypervisor events (live migration, ballooning) -------------------

    /// Applies auto-convergence before the scheduler builds the next
    /// slice: when the in-flight pre-copy migration's dirty rate has
    /// outrun the link for more than
    /// [`MigrationParams::throttle_after_rounds`](hatric_migration::MigrationParams)
    /// rounds, the migrating VM loses `level` of every 8 slices.  With
    /// throttling disabled (the default) this re-asserts the pause state
    /// the engine already requested, so existing runs are untouched.
    fn apply_throttle(&mut self) {
        let Some(engine) = &mut self.migration else {
            return;
        };
        if engine.is_complete() {
            return;
        }
        let slot = engine.vm_slot();
        let level = engine.throttle_level();
        let throttled = level > 0 && self.slices_run % 8 < u64::from(level);
        if throttled {
            engine.note_throttled();
        }
        let paused = throttled || engine.wants_vm_paused() || !self.vm_active[slot];
        self.scheduler.set_vm_paused(slot, paused);
    }

    /// Fires events whose start slice has arrived.  A migration due while
    /// another is still in flight stays pending until the engine frees up.
    fn start_due_events(&mut self) {
        if self.pending_events.is_empty() {
            // Steady state on event-free hosts: no buffer shuffling at all.
            return;
        }
        let now = self.slices_run;
        let mut still_pending = std::mem::take(&mut self.pending_scratch);
        still_pending.clear();
        for event in std::mem::take(&mut self.pending_events) {
            if event.start_slice() > now {
                still_pending.push(event);
                continue;
            }
            match event {
                HostEvent::Migrate(params) => {
                    let busy = self.migration.as_ref().is_some_and(|e| !e.is_complete());
                    if busy {
                        still_pending.push(event);
                        continue;
                    }
                    if let Some(done) = self.migration.take() {
                        self.finished_migration_stats.merge(&done.stats());
                    }
                    let mut engine = MigrationEngine::new(params, &self.vms);
                    engine.set_stalled(self.migration_stalled);
                    self.platform.set_write_observer(engine.observer());
                    self.migration = Some(engine);
                }
                HostEvent::Balloon(params) => {
                    self.balloons.push(BalloonDriver::new(params));
                }
            }
        }
        self.pending_scratch = std::mem::replace(&mut self.pending_events, still_pending);
    }

    /// Runs the hypervisor's worker threads for this slice: balloon
    /// batches, then the migration engine.  Each worker executes on
    /// [`HYPERVISOR_WORKER_CPU`] with the served VM declared as the CPU's
    /// occupant, so its cycles (and any coherence backlash) are charged to
    /// that VM rather than to whichever guest happened to run there.
    fn advance_events(&mut self) {
        let cpu = HYPERVISOR_WORKER_CPU;
        let saved = self.platform.occupant(cpu);
        for balloon in &mut self.balloons {
            if balloon.is_complete() {
                continue;
            }
            self.platform
                .set_occupant(cpu, Some((balloon.params().from_slot, VcpuId::new(0))));
            balloon.advance(&mut self.platform, &mut self.vms, cpu);
        }
        if let Some(engine) = &mut self.migration {
            if !engine.is_complete() {
                self.platform
                    .set_occupant(cpu, Some((engine.vm_slot(), VcpuId::new(0))));
                engine.advance(&mut self.platform, &mut self.vms, cpu);
                let slot = engine.vm_slot();
                let paused = engine.wants_vm_paused() || !self.vm_active[slot];
                self.scheduler.set_vm_paused(slot, paused);
                if engine.is_complete() {
                    self.platform.clear_write_observer();
                }
            }
        }
        if let Some(receiver) = &mut self.receiver {
            if !receiver.is_complete() {
                self.platform
                    .set_occupant(cpu, Some((receiver.vm_slot(), VcpuId::new(0))));
                receiver.advance(&mut self.platform, &mut self.vms, cpu);
            }
        }
        self.platform.set_occupant(cpu, saved);
    }

    /// Phase of the in-flight (or last) migration, if any was started.
    #[must_use]
    pub fn migration_phase(&self) -> Option<MigrationPhase> {
        self.migration.as_ref().map(MigrationEngine::phase)
    }

    // ----- the cluster-facing surface ---------------------------------------

    /// Queues a hypervisor event to fire at its start slice (the cluster
    /// uses this to start source-side migrations mid-run; standalone
    /// configs list events up front in [`HostConfig::events`]).
    pub fn inject_event(&mut self, event: HostEvent) {
        self.pending_events.push(event);
    }

    /// Activates or deactivates VM slot `slot`.  An inactive slot is never
    /// scheduled (its vCPUs are paused) but keeps its memory image — the
    /// cluster tier uses this for departures and for the hand-off flip of
    /// an inter-host migration.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set_vm_active(&mut self, slot: usize, active: bool) {
        self.vm_active[slot] = active;
        let migration_paused = self.migration.as_ref().is_some_and(|engine| {
            engine.vm_slot() == slot && !engine.is_complete() && engine.wants_vm_paused()
        });
        self.scheduler
            .set_vm_paused(slot, !active || migration_paused);
    }

    /// Whether VM slot `slot` is active (scheduled).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn vm_active(&self, slot: usize) -> bool {
        self.vm_active[slot]
    }

    /// Installs the destination side of an inter-host migration for
    /// `params.vm_slot`, folding the statistics of any finished previous
    /// receiver into the host totals.
    ///
    /// # Panics
    ///
    /// Panics if a previous receiver is still mid-stream — the cluster
    /// serializes receivers per host.
    pub fn attach_receiver(&mut self, params: ReceiverParams) {
        if let Some(old) = self.receiver.take() {
            assert!(
                old.is_complete(),
                "attach_receiver while a receiver is still draining"
            );
            self.finished_migration_stats.merge(&old.stats());
        }
        self.receiver = Some(MigrationReceiver::new(params));
    }

    /// The host's simulated time: its largest per-CPU cycle counter.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.platform
            .cycles_per_cpu()
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Whether VM `slot` is currently fully paused (stop-and-copy).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn is_vm_paused(&self, slot: usize) -> bool {
        self.scheduler.vm_paused(slot)
    }

    /// The placements of the most recently executed slice.
    #[must_use]
    pub fn last_placements(&self) -> &[Placement] {
        &self.current_slice
    }

    /// Clears all measurement state (platform statistics, per-VM counters,
    /// migration/balloon statistics) while keeping architectural state —
    /// including in-flight event progress — intact.
    pub fn reset_measurements(&mut self) {
        self.platform.reset_measurements();
        for vm in &mut self.vms {
            vm.reset_measurements();
        }
        self.finished_migration_stats = MigrationStats::default();
        if let Some(engine) = &mut self.migration {
            engine.reset_stats();
        }
        if let Some(receiver) = &mut self.receiver {
            receiver.reset_stats();
        }
        for balloon in &mut self.balloons {
            balloon.reset_stats();
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.clear();
        }
        // The per-VM coherence-target counters were just zeroed; the
        // windowed delta restarts from zero with them.
        self.timeline_prev_targets = 0;
    }

    /// Produces the host report: one [`SimReport`] per VM plus the
    /// host-wide aggregate.
    #[must_use]
    pub fn report(&self) -> HostReport {
        let per_vm: Vec<SimReport> = self.vms.iter().map(VmInstance::report).collect();
        let mut host = SimReport {
            cycles_per_cpu: self.platform.cycles_per_cpu().to_vec(),
            translation: self.platform.translation_snapshot(),
            cache: self.platform.cache_snapshot(),
            energy: self.platform.energy_report(),
            ..SimReport::default()
        };
        for vm in &per_vm {
            host.accesses += vm.accesses;
            host.coherence.merge(&vm.coherence);
            host.faults.merge(&vm.faults);
            host.interference.merge(&vm.interference);
            host.numa.merge(&vm.numa);
            host.paging.merge(&vm.paging);
            host.latency.merge(&vm.latency);
            host.causal.merge(&vm.causal);
        }
        let mut migration = self.finished_migration_stats;
        if let Some(engine) = &self.migration {
            migration.merge(&engine.stats());
        }
        if let Some(receiver) = &self.receiver {
            migration.merge(&receiver.stats());
        }
        for balloon in &self.balloons {
            migration.merge(&balloon.stats());
        }
        HostReport {
            per_vm,
            host,
            migration,
        }
    }
}

/// The cluster tier drives a consolidated host entirely through this
/// trait: epoch advancement, churn activity flips, and both sides of an
/// inter-host migration.
impl hatric_cluster::EpochHost for ConsolidatedHost {
    fn run_slices(&mut self, n: u64) {
        ConsolidatedHost::run_slices(self, n);
    }

    fn reset_measurements(&mut self) {
        ConsolidatedHost::reset_measurements(self);
    }

    fn report(&self) -> HostReport {
        ConsolidatedHost::report(self)
    }

    fn vm_slots(&self) -> usize {
        self.vms.len()
    }

    fn vm_active(&self, slot: usize) -> bool {
        ConsolidatedHost::vm_active(self, slot)
    }

    fn set_vm_active(&mut self, slot: usize, active: bool) {
        ConsolidatedHost::set_vm_active(self, slot, active);
    }

    fn active_vcpus(&self) -> u64 {
        self.config
            .vms
            .iter()
            .zip(&self.vm_active)
            .filter(|(_, active)| **active)
            .map(|(spec, _)| spec.vcpus as u64)
            .sum()
    }

    fn sim_cycles(&self) -> u64 {
        self.max_cycles()
    }

    fn vm_image(&self, slot: usize) -> Vec<GuestFrame> {
        self.vms[slot].nested_page_table().mapped_gpps()
    }

    fn start_migration(&mut self, params: hatric_migration::MigrationParams) {
        let params = hatric_migration::MigrationParams {
            start_slice: self.slices_run,
            ..params
        };
        self.inject_event(HostEvent::Migrate(params));
    }

    fn migration_idle(&self) -> bool {
        self.migration
            .as_ref()
            .is_none_or(MigrationEngine::is_complete)
            && self
                .pending_events
                .iter()
                .all(|e| !matches!(e, HostEvent::Migrate(_)))
    }

    fn migration_stats(&self) -> MigrationStats {
        self.migration
            .as_ref()
            .map(MigrationEngine::stats)
            .unwrap_or_default()
    }

    fn migration_pending_pages(&self) -> u64 {
        self.migration
            .as_ref()
            .map_or(0, MigrationEngine::pending_pages)
    }

    fn drain_outbox(&mut self) -> Vec<GuestFrame> {
        self.migration
            .as_mut()
            .map(MigrationEngine::drain_outbox)
            .unwrap_or_default()
    }

    fn attach_receiver(&mut self, params: ReceiverParams) {
        ConsolidatedHost::attach_receiver(self, params);
    }

    fn deliver_pages(&mut self, pages: Vec<GuestFrame>) {
        self.receiver
            .as_mut()
            .expect("deliver_pages without an attached receiver")
            .enqueue_pages(pages);
    }

    fn begin_post_copy(&mut self, outstanding: Vec<GuestFrame>) {
        self.receiver
            .as_mut()
            .expect("begin_post_copy without an attached receiver")
            .begin_post_copy(outstanding);
    }

    fn mark_source_done(&mut self) {
        self.receiver
            .as_mut()
            .expect("mark_source_done without an attached receiver")
            .mark_source_done();
    }

    fn receiver_complete(&self) -> bool {
        self.receiver
            .as_ref()
            .is_some_and(MigrationReceiver::is_complete)
    }

    fn receiver_pending_pages(&self) -> u64 {
        self.receiver
            .as_ref()
            .map_or(0, MigrationReceiver::pending_pages)
    }

    fn abort_migration(&mut self) -> u64 {
        // A queued-but-unstarted migration dies with its request.
        self.pending_events
            .retain(|e| !matches!(e, HostEvent::Migrate(_)));
        let Some(engine) = &mut self.migration else {
            return 0;
        };
        if engine.phase().is_terminal() {
            return 0;
        }
        let slot = engine.vm_slot();
        let discarded = engine.abort();
        // The engine's dirty tracker must stop observing guest writes,
        // and the VM resumes (unless the cluster deactivated the slot).
        self.platform.clear_write_observer();
        self.scheduler.set_vm_paused(slot, !self.vm_active[slot]);
        discarded
    }

    fn escalate_migration(&mut self) -> Vec<GuestFrame> {
        let Some(engine) = &mut self.migration else {
            return Vec::new();
        };
        if engine.phase().is_terminal() {
            return Vec::new();
        }
        let slot = engine.vm_slot();
        let pending = engine.escalate();
        self.platform.clear_write_observer();
        self.scheduler.set_vm_paused(slot, !self.vm_active[slot]);
        pending
    }

    fn migration_in_precopy(&self) -> bool {
        self.migration
            .as_ref()
            .is_some_and(|engine| engine.phase() == MigrationPhase::PreCopy)
    }

    fn requeue_outbox(&mut self, pages: Vec<GuestFrame>) {
        if let Some(engine) = &mut self.migration {
            engine.requeue_outbox(pages);
        }
    }

    fn requeue_copy(&mut self, pages: Vec<GuestFrame>) {
        if let Some(engine) = &mut self.migration {
            engine.requeue_copy(pages);
        }
    }

    fn set_migration_stalled(&mut self, stalled: bool) {
        self.migration_stalled = stalled;
        if let Some(engine) = &mut self.migration {
            engine.set_stalled(stalled);
        }
    }

    fn abort_receiver(&mut self, rollback: bool) -> u64 {
        let Some(receiver) = &mut self.receiver else {
            return 0;
        };
        if receiver.is_complete() {
            return 0;
        }
        let slot = receiver.vm_slot();
        let (mut discarded, landed) = receiver.abort();
        if rollback {
            // Un-register the first-touch remaps the receiver had landed,
            // newest first — frees the frames, clears the nested-PT
            // entries and pays the shootdown/coherence bill on the
            // hypervisor worker, charged to the half-received VM.
            let cpu = HYPERVISOR_WORKER_CPU;
            let saved = self.platform.occupant(cpu);
            self.platform
                .set_occupant(cpu, Some((slot, VcpuId::new(0))));
            for gpp in landed.into_iter().rev() {
                if self
                    .platform
                    .hypervisor_unmap_page(&mut self.vms, slot, cpu, gpp)
                {
                    discarded += 1;
                }
            }
            self.platform.set_occupant(cpu, saved);
        }
        discarded
    }

    fn set_dram_brownout(&mut self, multiplier_x100: u64) {
        self.platform.set_dram_brownout(multiplier_x100);
    }

    fn record_fault_span(&mut self, name: &'static str, args: Vec<(&'static str, u64)>) {
        if self.platform.trace_enabled() {
            let ts = self.max_cycles();
            self.platform.trace_event(TraceEvent {
                name,
                cat: "fault",
                track: track::HYPERVISOR,
                ts,
                dur: 0,
                args,
            });
        }
    }

    fn enable_tracing(&mut self, capacity: usize) {
        ConsolidatedHost::enable_tracing(self, capacity);
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.platform.trace_sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmSpec;
    use hatric_coherence::CoherenceMechanism;
    use hatric_hypervisor::SchedPolicy;

    fn tiny_host(mechanism: CoherenceMechanism) -> ConsolidatedHost {
        let cfg = HostConfig::scaled(4, 512)
            .with_mechanism(mechanism)
            .with_sched(SchedPolicy::RoundRobin)
            .with_vm(VmSpec::aggressor(2, 256))
            .with_vm(VmSpec::victim(2, 128))
            .with_vm(VmSpec::victim(2, 128));
        ConsolidatedHost::new(cfg)
            .expect("tiny_host config must validate: 4 pCPUs, 3 VMs within the 512-page quota")
    }

    #[test]
    fn host_runs_and_reports_per_vm() {
        let mut host = tiny_host(CoherenceMechanism::Software);
        let report = host.run(150, 150);
        assert_eq!(report.per_vm.len(), 3);
        for vm in &report.per_vm {
            assert!(vm.accesses > 0, "every VM must make progress");
        }
        assert_eq!(
            report.host.accesses,
            report.per_vm.iter().map(|r| r.accesses).sum::<u64>()
        );
    }

    #[test]
    fn aggressor_remaps_victims_do_not() {
        let mut host = tiny_host(CoherenceMechanism::Software);
        let report = host.run(400, 400);
        assert!(
            report.per_vm[0].coherence.remaps > 0,
            "the aggressor must page"
        );
        assert_eq!(report.per_vm[1].coherence.remaps, 0);
        assert_eq!(report.per_vm[2].coherence.remaps, 0);
    }

    #[test]
    fn oversubscription_shares_cpus_between_vms() {
        let host = tiny_host(CoherenceMechanism::Software);
        assert!(host.config().is_oversubscribed());
    }

    #[test]
    fn zero_vcpu_vm_yields_err_not_panic() {
        let cfg = HostConfig::scaled(4, 512).with_vm(VmSpec {
            vcpus: 0,
            ..VmSpec::victim(1, 128)
        });
        let err = cfg.validate().expect_err("a 0-vCPU VM must be rejected");
        assert!(err.to_string().contains("vCPU"), "unexpected error: {err}");
        assert!(ConsolidatedHost::new(cfg).is_err());
    }
}
