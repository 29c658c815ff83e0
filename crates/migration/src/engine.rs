//! Pre-copy live migration over the consolidated host.
//!
//! The engine models the classic pre-copy protocol (Clark et al., and the
//! scenario the paper's Sec. 7 names as the next translation-coherence
//! stressor):
//!
//! 1. **Round 1** snapshots the VM's entire guest-physical image and
//!    copies it at a configurable per-slice bandwidth.  Every copied page
//!    is *write-protected* in the nested page table so later guest stores
//!    are caught — and each write-protect is a PTE store that must
//!    invalidate stale translations on every CPU that may cache them.
//!    This is the remap storm: under software shootdowns each store IPIs
//!    every CPU the VM ever ran on; under HATRIC it touches only the
//!    directory-listed sharers.
//! 2. **Rounds 2..n** re-copy the pages the [`DirtyTracker`] caught being
//!    written during the previous round, until the dirty set shrinks below
//!    `dirty_page_threshold` (convergence) or `max_rounds` is reached.
//! 3. **Stop-and-copy** pauses the VM completely (the scheduler stops
//!    placing its vCPUs), transfers the residual dirty pages and performs
//!    the final PTE hand-off stores.  The cycles spent here are the
//!    migration's *downtime* — the figure of merit that hardware
//!    translation coherence improves directly, because the per-page IPI
//!    broadcast and ack wait sit on the downtime path.

use std::collections::VecDeque;

use hatric::metrics::MigrationStats;
use hatric::telemetry::{track, TraceEvent};
use hatric::{Platform, VmInstance};
use hatric_types::{CpuId, GuestFrame};

use crate::dirty::DirtyTracker;

/// Configuration of one live migration.
///
/// ```
/// use hatric_migration::MigrationParams;
///
/// // Migrate the VM in host slot 0, starting at slice 500, over a slow
/// // link (24 pages per slice).
/// let params = MigrationParams {
///     copy_pages_per_slice: 24,
///     ..MigrationParams::at(0, 500)
/// };
/// assert_eq!(params.vm_slot, 0);
/// assert!(params.max_rounds > 0, "stop-and-copy is always reached");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationParams {
    /// Host slot of the VM being migrated.
    pub vm_slot: usize,
    /// Scheduler slice (absolute, warmup included) at which pre-copy
    /// begins.
    pub start_slice: u64,
    /// Pages transferred per scheduler slice during pre-copy (the
    /// migration link bandwidth in pages per slice).
    pub copy_pages_per_slice: u64,
    /// Stop-and-copy begins once a round ends with at most this many dirty
    /// pages (the convergence criterion).
    pub dirty_page_threshold: u64,
    /// Forced stop-and-copy after this many pre-copy rounds, converged or
    /// not (guards against workloads that dirty faster than the link
    /// copies).
    pub max_rounds: u32,
    /// Cycles the migration thread spends transferring one page.
    pub page_copy_cycles: u64,
    /// Fixed stop-and-copy overhead: pausing the vCPUs and transferring
    /// their state to the destination (mechanism-independent).
    pub pause_resume_cycles: u64,
    /// Auto-convergence: once pre-copy has run this many rounds without
    /// converging, the host starts withholding scheduler slices from the
    /// migrating VM (one extra withheld slice per 8 for every round past
    /// the threshold, capped) so the dirty rate falls below the link rate.
    /// `0` disables throttling (the default).
    pub throttle_after_rounds: u32,
}

impl MigrationParams {
    /// Sensible defaults for a migration of VM `vm_slot` starting at
    /// `start_slice`: 64 pages per slice, convergence below 32 dirty
    /// pages, at most 8 rounds, 1500 cycles per page, 10k cycles of
    /// pause/resume overhead.
    #[must_use]
    pub fn at(vm_slot: usize, start_slice: u64) -> Self {
        Self {
            vm_slot,
            start_slice,
            copy_pages_per_slice: 64,
            dirty_page_threshold: 32,
            max_rounds: 8,
            page_copy_cycles: 1_500,
            pause_resume_cycles: 10_000,
            throttle_after_rounds: 0,
        }
    }
}

/// Where in the protocol a migration currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Iterative copy rounds; the VM keeps running.
    PreCopy,
    /// The VM is paused; the next advance performs the final transfer.
    StopAndCopy,
    /// Migration finished; the VM runs again.
    Completed,
    /// Migration torn down before hand-off ([`MigrationEngine::abort`]):
    /// the VM keeps running on the source as if the migration never
    /// happened.
    Aborted,
    /// Pre-copy was force-escalated to post-copy
    /// ([`MigrationEngine::escalate`]): the source's part is over; the
    /// destination pulls the residue.
    Escalated,
}

impl MigrationPhase {
    /// Whether the phase is terminal (the engine will do no more work).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            MigrationPhase::Completed | MigrationPhase::Aborted | MigrationPhase::Escalated
        )
    }
}

/// Drives one pre-copy live migration, one scheduler slice at a time.
#[derive(Debug)]
pub struct MigrationEngine {
    params: MigrationParams,
    phase: MigrationPhase,
    round: u32,
    copy_queue: VecDeque<GuestFrame>,
    /// Residual dirty set carried into stop-and-copy.
    final_set: Vec<GuestFrame>,
    tracker: DirtyTracker,
    stats: MigrationStats,
    /// `(start_cycle, pages_copied_at_start)` of the in-flight pre-copy
    /// round, captured lazily on its first advance so the round span's
    /// `ts` sits on the migration thread's cycle counter.  Also the
    /// round counter's anchor: `stats.precopy_rounds` ticks exactly when
    /// a round span is (re-)anchored, so rounds are counted in one place.
    round_span: Option<(u64, u64)>,
    /// Pages transferred since the last [`MigrationEngine::drain_outbox`]
    /// call, in copy order — the wire the cluster tier forwards to the
    /// destination host's `MigrationReceiver`.  Unobserved (and bounded by
    /// the VM image) in single-host runs.
    outbox: Vec<GuestFrame>,
    /// A `StuckPreCopy` fault is holding the engine: advances are total
    /// no-ops (no pages copied, no rounds anchored or retired) until the
    /// fault expires.
    stalled: bool,
}

impl MigrationEngine {
    /// Starts a migration of `params.vm_slot`: snapshots the VM's complete
    /// guest-physical image as the round-1 copy set.  The caller installs
    /// [`MigrationEngine::observer`] on the platform so dirty tracking is
    /// live from the first copied page.
    ///
    /// # Panics
    ///
    /// Panics if `params.vm_slot` is out of range.
    #[must_use]
    pub fn new(params: MigrationParams, vms: &[VmInstance]) -> Self {
        let image = vms[params.vm_slot].nested_page_table().mapped_gpps();
        let stats = MigrationStats {
            migrations_started: 1,
            ..MigrationStats::default()
        };
        Self {
            params,
            phase: MigrationPhase::PreCopy,
            round: 1,
            copy_queue: image.into(),
            final_set: Vec::new(),
            tracker: DirtyTracker::new(params.vm_slot),
            stats,
            round_span: None,
            outbox: Vec::new(),
            stalled: false,
        }
    }

    /// The configuration this migration runs with.
    #[must_use]
    pub fn params(&self) -> &MigrationParams {
        &self.params
    }

    /// Host slot of the migrating VM.
    #[must_use]
    pub fn vm_slot(&self) -> usize {
        self.params.vm_slot
    }

    /// Current protocol phase.
    #[must_use]
    pub fn phase(&self) -> MigrationPhase {
        self.phase
    }

    /// Current pre-copy round (1-based).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether the VM must be fully paused (stop-and-copy).
    #[must_use]
    pub fn wants_vm_paused(&self) -> bool {
        self.phase == MigrationPhase::StopAndCopy
    }

    /// Pages still awaiting transfer: the in-flight round's copy queue,
    /// the residual set carried into stop-and-copy, and pages dirtied
    /// since the round began.  Zero once the migration completed.  This
    /// is the dirty-page gauge the counter timelines sample; it only
    /// reads engine state.
    #[must_use]
    pub fn pending_pages(&self) -> u64 {
        if self.phase.is_terminal() {
            return 0;
        }
        self.copy_queue.len() as u64 + self.final_set.len() as u64 + self.tracker.dirty_pages()
    }

    /// Whether the engine has no more work to do: the migration
    /// completed, aborted, or escalated to post-copy.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.phase.is_terminal()
    }

    /// The dirty-tracking observer to install on the platform while this
    /// migration runs.
    #[must_use]
    pub fn observer(&self) -> Box<dyn hatric::WriteObserver> {
        self.tracker.observer()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Clears the statistics while keeping protocol state (phase, round,
    /// copy queue) intact — called at the warmup/measured boundary.  A
    /// migration still in flight re-seeds `migrations_started` (and its
    /// in-progress round), so a report covering the measured phase keeps
    /// the `started >= completed` invariant even when the migration began
    /// during warmup.
    pub fn reset_stats(&mut self) {
        self.stats = if self.is_complete() {
            MigrationStats::default()
        } else {
            MigrationStats {
                migrations_started: 1,
                ..MigrationStats::default()
            }
        };
        // The platform's cycle counters (and trace sink) restart at the
        // measured boundary, so a span anchored to a warmup cycle would
        // dangle — re-anchor the in-flight round on its next advance.
        // Re-anchoring also re-counts the in-flight round (the counter
        // ticks at anchor time), so the measured report still shows the
        // round the window opened inside.
        self.round_span = None;
    }

    /// Advances the migration by one scheduler slice.  The caller runs this
    /// *after* the slice's guest accesses, with `initiator` declared (via
    /// [`Platform::set_occupant`]) as occupied by the migrating VM so the
    /// migration thread's cycles are charged against it.
    ///
    /// # Panics
    ///
    /// Panics if the engine's VM slot or `initiator` is out of range.
    pub fn advance(&mut self, platform: &mut Platform, vms: &mut [VmInstance], initiator: CpuId) {
        if self.stalled && !self.phase.is_terminal() {
            // A stuck round makes no progress at all: nothing is copied,
            // no span is anchored, no round retires.  Only the stall
            // counter moves, so an expired fault resumes byte-identically
            // to a run that started the round later.
            self.stats.stalled_slices += 1;
            return;
        }
        match self.phase {
            MigrationPhase::PreCopy => self.advance_precopy(platform, vms, initiator),
            MigrationPhase::StopAndCopy => self.stop_and_copy(platform, vms, initiator),
            MigrationPhase::Completed | MigrationPhase::Aborted | MigrationPhase::Escalated => {}
        }
    }

    fn advance_precopy(&mut self, platform: &mut Platform, vms: &mut [VmInstance], cpu: CpuId) {
        if self.round_span.is_none() {
            self.round_span = Some((
                platform.cycles_per_cpu()[cpu.index()],
                self.stats.pages_copied,
            ));
            // The single place rounds are counted: when their span is
            // anchored.  Seeding the counter anywhere else (construction,
            // stats reset, the round += 1 transition) double-counts once a
            // destination-side receiver also carries a MigrationStats.
            self.stats.precopy_rounds += 1;
        }
        for _ in 0..self.params.copy_pages_per_slice {
            let Some(gpp) = self.copy_queue.pop_front() else {
                break;
            };
            self.copy_page(platform, vms, cpu, gpp);
        }
        if !self.copy_queue.is_empty() {
            return;
        }
        // Round over: what did the guest dirty while we copied?
        let dirty = self.tracker.drain();
        self.stats.pages_redirtied += dirty.len() as u64;
        if platform.trace_enabled() {
            let (start, pages_at_start) = self.round_span.unwrap_or((0, 0));
            let now = platform.cycles_per_cpu()[cpu.index()];
            platform.trace_event(TraceEvent {
                name: "precopy_round",
                cat: "migration",
                track: track::HYPERVISOR,
                ts: start,
                dur: now.saturating_sub(start),
                args: vec![
                    ("round", u64::from(self.round)),
                    ("copied", self.stats.pages_copied - pages_at_start),
                    ("dirtied", dirty.len() as u64),
                ],
            });
        }
        self.round_span = None;
        if dirty.len() as u64 <= self.params.dirty_page_threshold
            || self.round >= self.params.max_rounds
        {
            // Converged (or out of patience): freeze the VM and hand the
            // residue over in one downtime burst.
            self.final_set = dirty;
            self.phase = MigrationPhase::StopAndCopy;
        } else {
            self.copy_queue = dirty.into();
            self.round += 1;
        }
    }

    fn stop_and_copy(&mut self, platform: &mut Platform, vms: &mut [VmInstance], cpu: CpuId) {
        let before = platform.cycles_per_cpu()[cpu.index()];
        // Pausing the vCPUs and shipping their state is mechanism-
        // independent fixed cost.
        platform.charge_hypervisor_cycles(vms, cpu, self.params.pause_resume_cycles);
        // The residual dirty set.  The extra drain is defensive: under
        // `ConsolidatedHost` the pause takes effect before the VM runs
        // again, so it yields nothing — but an external driver whose pause
        // lags the convergence decision would leak late writes without it.
        let mut residue = std::mem::take(&mut self.final_set);
        let late = self.tracker.drain();
        self.stats.pages_redirtied += late.len() as u64;
        residue.extend(late);
        let residual_pages = residue.len() as u64;
        for gpp in residue {
            self.copy_page(platform, vms, cpu, gpp);
        }
        // Final hand-off: the source revokes the VM's nested page table
        // (KVM's INVEPT on the source side).  One store to the root node's
        // line — and its translation-coherence bill, which is where the
        // mechanisms part ways even on a zero-residue migration: a software
        // host broadcasts IPIs and waits for acks inside the downtime
        // window; HATRIC sends directory messages.
        let slot = self.params.vm_slot;
        let root = vms[slot].nested_page_table().node_frames()[0];
        platform.remap_coherence(vms, slot, cpu, root.addr_at(0));
        self.stats.migration_remaps += 1;
        let after = platform.cycles_per_cpu()[cpu.index()];
        if platform.trace_enabled() {
            platform.trace_event(TraceEvent {
                name: "stop_and_copy",
                cat: "migration",
                track: track::HYPERVISOR,
                ts: before,
                dur: after.saturating_sub(before),
                args: vec![
                    ("residual_pages", residual_pages),
                    ("downtime_cycles", after.saturating_sub(before)),
                ],
            });
        }
        self.stats.downtime_cycles += after - before;
        self.stats.migrations_completed += 1;
        self.phase = MigrationPhase::Completed;
    }

    /// Transfers one page: the copy itself plus the nested-PTE store
    /// (write-protect during pre-copy, final hand-off during
    /// stop-and-copy) with its translation-coherence consequences.
    fn copy_page(
        &mut self,
        platform: &mut Platform,
        vms: &mut [VmInstance],
        cpu: CpuId,
        gpp: GuestFrame,
    ) {
        let slot = self.params.vm_slot;
        if vms[slot].nested_page_table().translate(gpp).is_none() {
            return;
        }
        platform.charge_hypervisor_cycles(vms, cpu, self.params.page_copy_cycles);
        if platform.hypervisor_pte_write(vms, slot, cpu, gpp) {
            self.stats.migration_remaps += 1;
        }
        // The transfer just captured the page's current content; a mark
        // left by a store *earlier this round* is satisfied by this copy.
        // Only stores after this point must force a re-send.
        self.tracker.unmark(gpp);
        self.stats.pages_copied += 1;
        self.outbox.push(gpp);
    }

    /// Takes the pages transferred since the last drain, in copy order.
    /// The cluster tier forwards them to the destination host's
    /// [`MigrationReceiver`](crate::MigrationReceiver) at the epoch
    /// boundary; single-host runs never call this and the outbox stays
    /// bounded by the VM's image (pages are deduplicated per round by the
    /// dirty tracker, not here — re-sends are genuine wire traffic).
    pub fn drain_outbox(&mut self) -> Vec<GuestFrame> {
        std::mem::take(&mut self.outbox)
    }

    /// Puts pages back at the *front* of the outbox, in order — a degraded
    /// link delivered only part of an epoch's drain and the rest stays
    /// queued on the wire (nothing is lost, nothing is re-copied).
    pub fn requeue_outbox(&mut self, pages: Vec<GuestFrame>) {
        let tail = std::mem::replace(&mut self.outbox, pages);
        self.outbox.extend(tail);
    }

    /// Returns pages the wire *dropped* (a link blackout) to the front of
    /// the copy queue: each one is a genuine re-send the source must pay
    /// for again.  Counted in `pages_dropped`.
    pub fn requeue_copy(&mut self, pages: Vec<GuestFrame>) {
        self.stats.pages_dropped += pages.len() as u64;
        for gpp in pages.into_iter().rev() {
            self.copy_queue.push_front(gpp);
        }
    }

    /// Freezes (or thaws) the engine: while stalled, advances are total
    /// no-ops apart from the `stalled_slices` counter.  The cluster's
    /// non-convergence timeout keeps counting against a stalled
    /// migration, which is how a `StuckPreCopy` fault escalates.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Tears the migration down before hand-off: clears every queue (the
    /// unsent outbox is discarded — the destination rolls back its own
    /// copy separately), drains the dirty tracker, and parks the engine
    /// in [`MigrationPhase::Aborted`].  The VM keeps running on the
    /// source as if the migration never happened.  Returns the number of
    /// outbox pages discarded.
    pub fn abort(&mut self) -> u64 {
        if self.phase.is_terminal() {
            return 0;
        }
        let discarded = self.outbox.len() as u64;
        self.stats.pages_discarded += discarded;
        self.stats.migrations_aborted += 1;
        self.outbox.clear();
        self.copy_queue.clear();
        self.final_set.clear();
        let _ = self.tracker.drain();
        self.round_span = None;
        self.phase = MigrationPhase::Aborted;
        discarded
    }

    /// Force-escalates a non-converging pre-copy to post-copy: returns
    /// the still-unsent page set (copy queue ∪ residual set ∪ dirty
    /// tracker, ascending and deduplicated) for the destination to pull,
    /// and parks the engine in [`MigrationPhase::Escalated`].  The caller
    /// flips the VM to the destination and hands this set to
    /// [`MigrationReceiver::begin_post_copy`](crate::MigrationReceiver::begin_post_copy).
    pub fn escalate(&mut self) -> Vec<GuestFrame> {
        if self.phase.is_terminal() {
            return Vec::new();
        }
        let mut pending: Vec<GuestFrame> = self.copy_queue.drain(..).collect();
        pending.append(&mut self.final_set);
        pending.extend(self.tracker.drain());
        pending.sort_unstable();
        pending.dedup();
        self.stats.migrations_escalated += 1;
        self.round_span = None;
        self.phase = MigrationPhase::Escalated;
        pending
    }

    /// Auto-convergence throttle level for the current round: `0` while
    /// throttling is disabled, pre-copy is inside its grace rounds, or the
    /// migration left pre-copy; otherwise how many of every 8 scheduler
    /// slices the host should withhold from the migrating VM (capped at 6
    /// so the guest always keeps making some progress).
    #[must_use]
    pub fn throttle_level(&self) -> u32 {
        if self.params.throttle_after_rounds == 0
            || self.phase != MigrationPhase::PreCopy
            || self.round <= self.params.throttle_after_rounds
        {
            return 0;
        }
        (self.round - self.params.throttle_after_rounds).min(6)
    }

    /// Records that the scheduler withheld one slice from the migrating VM
    /// because of [`Self::throttle_level`] (auto-convergence accounting).
    pub fn note_throttled(&mut self) {
        self.stats.throttled_slices += 1;
    }
}
