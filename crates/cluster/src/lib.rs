//! # hatric-cluster
//!
//! The datacenter tier: a [`Cluster`] owns N consolidated hosts — each
//! with its own platform, cache hierarchy, HATRIC directory and memory
//! system — and advances them in **lockstep epochs** of a fixed number of
//! scheduler slices.  Hosts are completely independent *within* an epoch,
//! so the cluster shards them across the slice engine's
//! [`WorkerPool`](hatric::WorkerPool) (contiguous chunks, one per worker);
//! everything that couples hosts — migration page streams, VM
//! arrival/departure churn, placement decisions — happens serially at the
//! epoch boundary in host-index order.  The result is byte-identical for
//! any thread count, the same discipline the per-host slice engine
//! follows for its VM units.
//!
//! On top of the epoch loop the cluster models **inter-host live
//! migration end-to-end**:
//!
//! * **Pre-copy** — the source host runs the existing
//!   [`MigrationEngine`](hatric_migration::MigrationEngine) (write-protect
//!   storms, dirty-rate-driven rounds, stop-and-copy downtime); the pages
//!   it transfers are drained from its outbox each epoch and delivered to
//!   the destination's [`MigrationReceiver`](hatric_migration::MigrationReceiver),
//!   which materializes them as first-touch faults plus nested-PTE stores
//!   — the **destination remap storm**.  When the source converges, the VM
//!   hand-off flips activity from the source slot to the destination slot.
//! * **Post-copy** — the VM flips immediately (a fixed pause/resume
//!   downtime) and runs on the destination while its memory is still on
//!   the source; the receiver pulls the outstanding image, demand-fetched
//!   pages first at critical-path cost.
//! * **Auto-convergence** — pre-copy sources whose dirty rate outruns the
//!   link throttle the migrating VM's scheduler slices
//!   ([`MigrationParams::throttle_after_rounds`](hatric_migration::MigrationParams)).
//!
//! A [`PlacementPolicy`] reacts to a deterministic [`ChurnStream`] of VM
//! arrivals and departures, and [`ClusterReport`] merges the per-host
//! reports into cluster aggregates (including the causal ledger and a
//! per-migration downtime distribution).
//!
//! ## Fault injection & recovery
//!
//! [`Cluster::set_faults`] arms a deterministic
//! [`FaultClock`] of typed fault events, all
//! keyed to epoch boundaries (sim-time, never wall-clock, so fault runs
//! stay byte-identical across thread counts):
//!
//! * **Host crash** — the host drops out at the epoch boundary; every
//!   migration touching it aborts (source resumes its VM, destination
//!   rolls back the partial image it had landed), its VMs cold-restart
//!   through the [`PlacementPolicy`], and aborted migrations whose
//!   *source* survived retry after a deterministic linear backoff.
//! * **Link degradation / blackout** — the host's outgoing migration wire
//!   delivers a reduced page budget per epoch (remainder held back
//!   reliably), or nothing at all (pre-copy pages are dropped on the
//!   floor and re-sent; stop-and-copy residue is held, never lost).
//! * **DRAM brownout** — the host's DRAM devices serve every line slower
//!   by an integer multiplier, back-pressuring through the leaky-bucket
//!   queue model.
//! * **Stuck pre-copy** — the outgoing migration engine freezes for a
//!   window; combined with `stall_timeout_epochs`, a non-converging
//!   pre-copy is force-escalated to a post-copy flip.
//!
//! [`ClusterReport::recovery`](report::RecoveryStats) accounts for
//! crashes, restarts, aborted/retried/escalated migrations and fleet
//! unavailability; `recovery_downtime_percentile` gates the fault
//! scenario's HATRIC-vs-software claim.
//!
//! The cluster knows hosts only through the [`EpochHost`] trait —
//! `hatric-host` implements it for `ConsolidatedHost`, keeping this crate
//! below the host crate in the dependency graph (the scenario registry
//! lives up there).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod churn;
pub mod cluster;
pub mod placement;
pub mod report;

pub use churn::{ChurnEvent, ChurnKind, ChurnStream};
pub use cluster::{Cluster, ClusterParams, MigrationMode, ScheduledMigration};
pub use hatric_faults::{FaultClock, FaultEvent, FaultKind, FaultPlan, FaultWeights};
pub use placement::PlacementPolicy;
pub use report::{ClusterReport, MigrationOutcome, RecoveryStats, RestartOutcome};

use hatric::metrics::{HostReport, MigrationStats};
use hatric::telemetry::TraceSink;
use hatric_migration::{MigrationParams, ReceiverParams};
use hatric_types::GuestFrame;

/// What the cluster needs from one host to advance it in epochs and wire
/// inter-host migrations through it.
///
/// `hatric-host` implements this for `ConsolidatedHost`; the trait exists
/// so the cluster crate can sit *below* the host crate (which owns the
/// scenario registry) in the dependency graph.  `Send` because the epoch
/// loop moves host borrows across worker threads.
///
/// Per-host invariants the cluster relies on: at most one outgoing
/// migration engine and at most one incoming receiver are live on a host
/// at a time (the [`Cluster`] serializes additional requests).
pub trait EpochHost: std::fmt::Debug + Send {
    /// Advances the host by `n` scheduler slices.
    fn run_slices(&mut self, n: u64);
    /// Clears measurement counters while keeping architectural state
    /// (called once at the cluster's warmup/measured boundary).
    fn reset_measurements(&mut self);
    /// The host's report (per-VM + host aggregate + migration stats).
    fn report(&self) -> HostReport;
    /// Number of VM slots this host was built with.
    fn vm_slots(&self) -> usize;
    /// Whether slot `slot` is active (scheduled).
    fn vm_active(&self, slot: usize) -> bool;
    /// Activates or deactivates slot `slot` (arrivals, departures, and
    /// the migration hand-off flip).
    fn set_vm_active(&mut self, slot: usize, active: bool);
    /// Scheduled vCPUs across active slots — the placement load gauge.
    fn active_vcpus(&self) -> u64;
    /// The host's simulated time: its largest per-CPU cycle counter.
    fn sim_cycles(&self) -> u64;
    /// Guest-physical frames currently mapped for slot `slot` (the image
    /// a post-copy destination must pull).
    fn vm_image(&self, slot: usize) -> Vec<GuestFrame>;

    // ----- outgoing (source side) ----------------------------------------
    /// Starts a pre-copy migration of `params.vm_slot` at the host's next
    /// slice (the host overrides `params.start_slice`).
    fn start_migration(&mut self, params: MigrationParams);
    /// Whether no outgoing migration is mid-protocol (none ever started,
    /// or the last one completed).
    fn migration_idle(&self) -> bool;
    /// Statistics of the current (or last) outgoing migration engine.
    fn migration_stats(&self) -> MigrationStats;
    /// Pages the outgoing migration still has to transfer.
    fn migration_pending_pages(&self) -> u64;
    /// Takes the pages the outgoing migration transferred since the last
    /// drain (the inter-host wire).
    fn drain_outbox(&mut self) -> Vec<GuestFrame>;

    // ----- incoming (destination side) -----------------------------------
    /// Installs a destination-side receiver for `params.vm_slot`
    /// (replacing — and folding the stats of — any finished one).
    fn attach_receiver(&mut self, params: ReceiverParams);
    /// Queues pages arriving over the wire for the receiver.
    fn deliver_pages(&mut self, pages: Vec<GuestFrame>);
    /// Switches the receiver to post-copy over `outstanding` pages.
    fn begin_post_copy(&mut self, outstanding: Vec<GuestFrame>);
    /// Tells the receiver the source finished sending.
    fn mark_source_done(&mut self);
    /// Whether the receiver (if any) has landed everything.
    fn receiver_complete(&self) -> bool;
    /// Pages the receiver still has to land (inbox + outstanding).
    fn receiver_pending_pages(&self) -> u64;

    // ----- robustness (fault injection & recovery) ------------------------
    /// Tears down the outgoing migration mid-protocol: the VM keeps
    /// running on the source (its slot was never deactivated), throttling
    /// stops, and the un-sent backlog is discarded.  Returns the number of
    /// outbox pages thrown away.  No-op (returning 0) when the migration
    /// is already terminal or none ever started.
    fn abort_migration(&mut self) -> u64;
    /// Force-escalates the outgoing pre-copy to a post-copy hand-off:
    /// terminates the source engine and returns the pages the destination
    /// must still pull (dirty set ∪ copy backlog, deduplicated).  Empty
    /// when the migration is already terminal.
    fn escalate_migration(&mut self) -> Vec<GuestFrame>;
    /// Whether the outgoing migration is in its pre-copy rounds (the only
    /// phase blackout re-sends and escalation apply to).
    fn migration_in_precopy(&self) -> bool;
    /// Returns undelivered pages to the *front* of the outgoing wire
    /// queue, preserving order — the wire held them back reliably (link
    /// degradation); they were transferred, just not yet delivered.
    fn requeue_outbox(&mut self, pages: Vec<GuestFrame>);
    /// Returns dropped pages to the front of the outgoing copy queue —
    /// the wire lost them (link blackout) and the source must genuinely
    /// re-send, paying the copy cost again.
    fn requeue_copy(&mut self, pages: Vec<GuestFrame>);
    /// Freezes (or thaws) the outgoing migration engine: a stalled engine
    /// makes no protocol progress and counts stalled slices.  The
    /// `StuckPreCopy` fault window drives this.
    fn set_migration_stalled(&mut self, stalled: bool);
    /// Tears down the incoming receiver.  With `rollback`, un-registers
    /// the first-touch remaps the receiver had landed (frees the frames,
    /// clears the nested-PT entries, pays the shootdown/coherence bill) —
    /// the destination of a crashed source must not keep a partial image.
    /// Returns pages discarded (backlog plus rolled-back landings).
    fn abort_receiver(&mut self, rollback: bool) -> u64;
    /// Applies a DRAM brownout service multiplier (×100; `100` restores
    /// nominal speed) to every DRAM device on the host.
    fn set_dram_brownout(&mut self, multiplier_x100: u64);
    /// Records a fault span on the host's hypervisor trace track.  No-op
    /// by default (and when tracing is disabled).
    fn record_fault_span(&mut self, _name: &'static str, _args: Vec<(&'static str, u64)>) {}

    // ----- observability --------------------------------------------------
    /// Enables sim-time tracing with the given span capacity.
    fn enable_tracing(&mut self, capacity: usize);
    /// The host's trace sink, when tracing is enabled.
    fn trace_sink(&self) -> Option<&TraceSink>;
}
