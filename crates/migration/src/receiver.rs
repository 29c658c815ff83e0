//! The destination side of an inter-host live migration.
//!
//! The source's [`MigrationEngine`](crate::MigrationEngine) streams pages
//! out of its [`drain_outbox`](crate::MigrationEngine::drain_outbox); the
//! cluster tier delivers them here at epoch boundaries.  The receiver
//! materializes each arrival through
//! [`Platform::hypervisor_map_page`](hatric::Platform::hypervisor_map_page):
//! a first-touch allocation (if the page is new to the destination)
//! followed by the hypervisor's nested-PTE store and its full
//! translation-coherence bill.  This is the **destination remap storm** —
//! the paper's Sec. 7 observation that translation coherence dominates
//! exactly when the hypervisor moves memory wholesale, and the half of
//! live migration the single-host model cannot see.
//!
//! Two intake modes:
//!
//! * **Pre-copy intake** — pages arrive ahead of the VM (the guest is
//!   still running on the source), so every store lands off the guest's
//!   critical path at background copy cost.
//! * **Post-copy** — the guest is already running *here* while its memory
//!   is still over there.  [`MigrationReceiver::begin_post_copy`] hands
//!   the receiver the outstanding page set; pages the destination guest
//!   has already faulted on (present in the destination nested page
//!   table) are *demanded*: the fetch crosses the wire on the access's
//!   critical path at [`ReceiverParams::fetch_page_cycles`].  The rest
//!   trickle in as background pull at [`ReceiverParams::page_copy_cycles`].

use hatric::metrics::MigrationStats;
use hatric::telemetry::{track, TraceEvent};
use hatric::{Platform, VmInstance};
use hatric_types::{CpuId, GuestFrame};

use std::collections::{BTreeSet, VecDeque};

/// Configuration of one migration's destination side.
///
/// ```
/// use hatric_migration::ReceiverParams;
///
/// let params = ReceiverParams::for_slot(3);
/// assert_eq!(params.vm_slot, 3);
/// assert!(params.fetch_page_cycles > params.page_copy_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverParams {
    /// Host slot (on the destination host) of the VM being received.
    pub vm_slot: usize,
    /// Arriving pages materialized per scheduler slice (the destination's
    /// intake bandwidth; backlog carries over).
    pub pages_per_slice: u64,
    /// Cycles the destination's migration thread spends landing one
    /// background page.
    pub page_copy_cycles: u64,
    /// Post-copy pages pulled per slice once the receiver drives the
    /// residual transfer itself.
    pub fetch_pages_per_slice: u64,
    /// Cycles one demand-fetch costs — a synchronous round trip to the
    /// source, paid on the faulting access's critical path.  Dwarfs
    /// `page_copy_cycles`: this is why post-copy trades downtime for
    /// degraded time.
    pub fetch_page_cycles: u64,
}

impl ReceiverParams {
    /// Destination-side defaults mirroring
    /// [`MigrationParams::at`](crate::MigrationParams::at): 64 pages per
    /// slice of intake, 1500 cycles per background page, 16 post-copy
    /// pulls per slice at 6000 cycles per demand fetch.
    #[must_use]
    pub fn for_slot(vm_slot: usize) -> Self {
        Self {
            vm_slot,
            pages_per_slice: 64,
            page_copy_cycles: 1_500,
            fetch_pages_per_slice: 16,
            fetch_page_cycles: 6_000,
        }
    }
}

/// Materializes one migrating VM's pages on the destination host.
#[derive(Debug)]
pub struct MigrationReceiver {
    params: ReceiverParams,
    /// Pages delivered by the cluster wire, awaiting materialization.
    inbox: VecDeque<GuestFrame>,
    /// Post-copy: pages still owned by the source, in ascending order so
    /// background pulls are deterministic.
    outstanding: BTreeSet<GuestFrame>,
    post_copy: bool,
    source_done: bool,
    stats: MigrationStats,
    /// Pages this receiver *newly mapped* on the destination (first-touch
    /// remaps it registered), in landing order.  These are the mappings a
    /// rollback must un-register if the migration dies before hand-off;
    /// pages that already had a destination mapping belong to the slot's
    /// previous occupant and are never touched.
    landed: Vec<GuestFrame>,
}

impl MigrationReceiver {
    /// A receiver for the VM in destination slot `params.vm_slot`, in
    /// pre-copy intake mode with an empty inbox.
    #[must_use]
    pub fn new(params: ReceiverParams) -> Self {
        Self {
            params,
            inbox: VecDeque::new(),
            outstanding: BTreeSet::new(),
            post_copy: false,
            source_done: false,
            stats: MigrationStats::default(),
            landed: Vec::new(),
        }
    }

    /// The configuration this receiver runs with.
    #[must_use]
    pub fn params(&self) -> &ReceiverParams {
        &self.params
    }

    /// Destination host slot of the VM being received.
    #[must_use]
    pub fn vm_slot(&self) -> usize {
        self.params.vm_slot
    }

    /// Queues pages the source transferred this epoch (in copy order —
    /// the wire preserves it).
    pub fn enqueue_pages(&mut self, pages: impl IntoIterator<Item = GuestFrame>) {
        self.inbox.extend(pages);
    }

    /// Switches to post-copy: the VM now runs on the destination while
    /// `outstanding` pages are still on the source.  Pages already queued
    /// in the inbox keep landing as background intake.
    pub fn begin_post_copy(&mut self, outstanding: impl IntoIterator<Item = GuestFrame>) {
        self.outstanding.extend(outstanding);
        self.post_copy = true;
    }

    /// Declares that the source has finished sending (its engine
    /// completed): once the inbox and the outstanding set drain, the
    /// receiver is complete.
    pub fn mark_source_done(&mut self) {
        self.source_done = true;
    }

    /// Pages not yet materialized on the destination (inbox backlog plus
    /// post-copy outstanding set) — the counter-timeline gauge.
    #[must_use]
    pub fn pending_pages(&self) -> u64 {
        self.inbox.len() as u64 + self.outstanding.len() as u64
    }

    /// Whether every page has landed and the source declared itself done.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.source_done && self.inbox.is_empty() && self.outstanding.is_empty()
    }

    /// Tears the intake down: discards the inbox backlog and the
    /// outstanding post-copy set, marks the receiver complete (so a later
    /// `attach_receiver` on the slot does not trip the still-draining
    /// assertion), and returns `(pages_discarded, landed)` — the count of
    /// pages thrown away un-materialized, and the pages this receiver had
    /// newly mapped, which the caller rolls back (un-registers the
    /// first-touch remaps) when the migration dies before hand-off.
    pub fn abort(&mut self) -> (u64, Vec<GuestFrame>) {
        let discarded = self.pending_pages();
        self.stats.pages_discarded += discarded;
        self.inbox.clear();
        self.outstanding.clear();
        self.post_copy = false;
        self.source_done = true;
        (discarded, std::mem::take(&mut self.landed))
    }

    /// Statistics accumulated so far (destination-side only; the cluster
    /// merges them with the source engine's).
    #[must_use]
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Clears the statistics while keeping the intake state intact —
    /// called at the warmup/measured boundary, mirroring
    /// [`MigrationEngine::reset_stats`](crate::MigrationEngine::reset_stats).
    pub fn reset_stats(&mut self) {
        self.stats = MigrationStats::default();
    }

    /// Advances the destination by one scheduler slice: materializes up to
    /// `pages_per_slice` arrivals from the inbox, then (in post-copy mode)
    /// pulls up to `fetch_pages_per_slice` outstanding pages — demanded
    /// pages first, at critical-path fetch cost.  The caller runs this
    /// with `initiator` declared (via
    /// [`Platform::set_occupant`](hatric::Platform::set_occupant)) as
    /// occupied by the receiving VM so intake cycles are charged against
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the receiver's VM slot or `initiator` is out of range.
    pub fn advance(&mut self, platform: &mut Platform, vms: &mut [VmInstance], initiator: CpuId) {
        let before = platform.cycles_per_cpu()[initiator.index()];
        let (mut landed, mut fetched) = (0u64, 0u64);
        for _ in 0..self.params.pages_per_slice {
            let Some(gpp) = self.inbox.pop_front() else {
                break;
            };
            // A page that arrives over the wire is no longer outstanding,
            // whichever mode queued it.
            self.outstanding.remove(&gpp);
            self.land_page(platform, vms, initiator, self.params.page_copy_cycles, gpp);
            landed += 1;
        }
        if self.post_copy {
            for _ in 0..self.params.fetch_pages_per_slice {
                let Some(gpp) = self.next_pull(vms) else {
                    break;
                };
                self.outstanding.remove(&gpp);
                // Demanded pages pay the synchronous round trip; the rest
                // are background trickle.
                let demanded = vms[self.params.vm_slot]
                    .nested_page_table()
                    .translate(gpp)
                    .is_some();
                let cycles = if demanded {
                    self.stats.postcopy_fetched_pages += 1;
                    fetched += 1;
                    self.params.fetch_page_cycles
                } else {
                    self.params.page_copy_cycles
                };
                self.land_page(platform, vms, initiator, cycles, gpp);
                landed += 1;
            }
        }
        if landed > 0 && platform.trace_enabled() {
            let after = platform.cycles_per_cpu()[initiator.index()];
            platform.trace_event(TraceEvent {
                name: "receive_pages",
                cat: "migration",
                track: track::HYPERVISOR,
                ts: before,
                dur: after.saturating_sub(before),
                args: vec![
                    ("landed", landed),
                    ("demand_fetched", fetched),
                    ("backlog", self.pending_pages()),
                ],
            });
        }
    }

    /// The next outstanding page to pull: a *demanded* one (already
    /// faulted in by the destination guest, so someone is waiting on its
    /// content) if any exists, else the lowest-numbered background page.
    fn next_pull(&self, vms: &[VmInstance]) -> Option<GuestFrame> {
        let npt = vms[self.params.vm_slot].nested_page_table();
        self.outstanding
            .iter()
            .copied()
            .find(|&gpp| npt.translate(gpp).is_some())
            .or_else(|| self.outstanding.iter().next().copied())
    }

    /// Lands one page: the transfer cycles plus the nested-PTE store with
    /// its translation-coherence consequences.
    fn land_page(
        &mut self,
        platform: &mut Platform,
        vms: &mut [VmInstance],
        initiator: CpuId,
        transfer_cycles: u64,
        gpp: GuestFrame,
    ) {
        let newly_mapped = vms[self.params.vm_slot]
            .nested_page_table()
            .translate(gpp)
            .is_none();
        platform.charge_hypervisor_cycles(vms, initiator, transfer_cycles);
        if platform.hypervisor_map_page(vms, self.params.vm_slot, initiator, gpp) {
            self.stats.migration_remaps += 1;
        }
        if newly_mapped {
            self.landed.push(gpp);
        }
        self.stats.received_pages += 1;
    }
}
