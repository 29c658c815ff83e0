//! The cluster's merged view of a run.

use hatric::metrics::{HostReport, MigrationStats, SimReport};

/// What happened to one inter-host migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Source host index.
    pub src_host: usize,
    /// Source VM slot.
    pub src_slot: usize,
    /// Destination host index.
    pub dst_host: usize,
    /// Destination VM slot.
    pub dst_slot: usize,
    /// Whether the migration ran post-copy.
    pub post_copy: bool,
    /// The VM's blackout window: stop-and-copy cycles for pre-copy, the
    /// fixed pause/resume hand-off for post-copy.
    pub downtime_cycles: u64,
    /// Whether the hand-off happened before the run ended (pre-copy
    /// converged / post-copy flipped; the residual backlog may still be
    /// draining).
    pub handed_off: bool,
    /// Whether every page also landed on the destination.
    pub drained: bool,
    /// Whether the migration was torn down by a fault (a crashed
    /// endpoint): the source resumed or the VM cold-restarted, and
    /// partial destination state was discarded.
    pub aborted: bool,
    /// Whether a non-convergence timeout force-escalated this pre-copy
    /// to a post-copy flip.
    pub escalated: bool,
    /// Which attempt this was: `0` for a first try, `n` for the `n`-th
    /// bounded retry after an abort.
    pub attempt: u32,
}

/// One crash-driven VM cold restart: the host died, the placement policy
/// re-placed the VM elsewhere with its dirty state lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartOutcome {
    /// Host that crashed.
    pub from_host: usize,
    /// Slot the VM occupied there.
    pub from_slot: usize,
    /// Host the VM restarted on.
    pub to_host: usize,
    /// Slot it restarted in.
    pub to_slot: usize,
    /// Epoch of the crash (0-based, warmup included).
    pub epoch: u64,
    /// The restart's unavailability window in cycles (the cluster's
    /// `restart_penalty_cycles`).
    pub downtime_cycles: u64,
}

/// Fleet-level recovery metrics accumulated over the whole run (warmup
/// included — like the migration ledger, recovery is about the fleet's
/// lifetime, not the measured window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Hosts taken down by `HostCrash` faults.
    pub host_crashes: u64,
    /// VMs cold-restarted onto another host after a crash.
    pub vm_restarts: u64,
    /// Crashed VMs the placement policy could not re-place (no alive
    /// host had a free slot).
    pub restarts_failed: u64,
    /// Migrations torn down by a crashed endpoint.
    pub migrations_aborted: u64,
    /// Aborted migrations re-started after their deterministic backoff.
    pub migrations_retried: u64,
    /// Pre-copy migrations force-escalated to post-copy by the
    /// non-convergence timeout.
    pub migrations_escalated: u64,
    /// Host-epochs spent dead (one per crashed host per epoch) — the
    /// fleet's unavailability integral.
    pub unavailability_epochs: u64,
    /// Pages a blacked-out migration link dropped on the floor (each one
    /// re-sent by its source).
    pub wire_dropped_pages: u64,
    /// Fault events fired from the schedule (including events that found
    /// nothing to break, e.g. a stall on a host with no migration).
    pub faults_injected: u64,
}

/// The merged result of a cluster run: per-host [`HostReport`]s plus
/// cluster-level aggregates.
///
/// `aggregate` sums the *mergeable* per-host host-level fields (accesses,
/// coherence, faults, interference, NUMA, paging, latency histograms and
/// the causal ledger — each via its own `merge`, the ledger tagging every
/// remap with its host index); `cycles_per_cpu` is the
/// per-host concatenation in host order, so `runtime_cycles()` is the
/// fleet-wide critical path.  The reconciliation contract — aggregate
/// fields equal the field-wise sum over `per_host` — is enforced by the
/// `tests/cluster.rs` reconciliation test.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// One report per host, in host-index order.
    pub per_host: Vec<HostReport>,
    /// Field-wise merge of every host's `host` aggregate.
    pub aggregate: SimReport,
    /// Migration/balloon stats merged over all hosts (source engines and
    /// destination receivers both).
    pub migration: MigrationStats,
    /// One entry per inter-host migration, in start order.
    pub migrations: Vec<MigrationOutcome>,
    /// Largest number of simultaneously in-flight inter-host migrations
    /// observed at any epoch boundary.
    pub peak_inflight: u64,
    /// Fleet-level recovery metrics (crashes, restarts, aborted /
    /// retried / escalated migrations, unavailability).
    pub recovery: RecoveryStats,
    /// One entry per crash-driven VM cold restart, in crash order.
    pub restarts: Vec<RestartOutcome>,
}

impl ClusterReport {
    /// Builds the merged view from per-host reports and the migration
    /// ledger.
    #[must_use]
    pub fn new(
        per_host: Vec<HostReport>,
        migrations: Vec<MigrationOutcome>,
        peak_inflight: u64,
        recovery: RecoveryStats,
        restarts: Vec<RestartOutcome>,
    ) -> Self {
        let mut aggregate = SimReport::default();
        let mut migration = MigrationStats::default();
        for (index, host) in per_host.iter().enumerate() {
            aggregate
                .cycles_per_cpu
                .extend_from_slice(&host.host.cycles_per_cpu);
            aggregate.accesses += host.host.accesses;
            aggregate.coherence.merge(&host.host.coherence);
            aggregate.faults.merge(&host.host.faults);
            aggregate.interference.merge(&host.host.interference);
            aggregate.numa.merge(&host.host.numa);
            aggregate.paging.merge(&host.host.paging);
            aggregate.latency.merge(&host.host.latency);
            aggregate
                .causal
                .merge_from_host(index as u32, &host.host.causal);
            migration.merge(&host.migration);
        }
        Self {
            per_host,
            aggregate,
            migration,
            migrations,
            peak_inflight,
            recovery,
            restarts,
        }
    }

    /// Number of hosts.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.per_host.len()
    }

    /// Migrations that handed off (completed their blackout window).
    #[must_use]
    pub fn completed_migrations(&self) -> u64 {
        self.migrations.iter().filter(|m| m.handed_off).count() as u64
    }

    /// Exact `p`-th percentile (0–100) of per-migration downtime over the
    /// handed-off migrations: the smallest downtime ≥ `p`% of the
    /// population (nearest-rank, so `downtime_percentile(100)` is the
    /// maximum).  Zero when nothing handed off.
    #[must_use]
    pub fn downtime_percentile(&self, p: u64) -> u64 {
        let downtimes: Vec<u64> = self
            .migrations
            .iter()
            .filter(|m| m.handed_off)
            .map(|m| m.downtime_cycles)
            .collect();
        nearest_rank(downtimes, p)
    }

    /// Exact `p`-th percentile of *recovery* downtime: the union of every
    /// handed-off migration's blackout window and every crash restart's
    /// unavailability window — the distribution the fault scenario gates
    /// (HATRIC must recover no slower than software shootdowns).  Zero
    /// when nothing handed off and nothing restarted.
    #[must_use]
    pub fn recovery_downtime_percentile(&self, p: u64) -> u64 {
        let mut downtimes: Vec<u64> = self
            .migrations
            .iter()
            .filter(|m| m.handed_off)
            .map(|m| m.downtime_cycles)
            .collect();
        downtimes.extend(self.restarts.iter().map(|r| r.downtime_cycles));
        nearest_rank(downtimes, p)
    }
}

/// Smallest value ≥ `p`% of the population (nearest-rank; zero on an
/// empty population).
fn nearest_rank(mut values: Vec<u64>, p: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (p.min(100) as usize * values.len()).div_ceil(100);
    values[rank.saturating_sub(1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(downtime: u64) -> MigrationOutcome {
        MigrationOutcome {
            src_host: 0,
            src_slot: 0,
            dst_host: 1,
            dst_slot: 0,
            post_copy: false,
            downtime_cycles: downtime,
            handed_off: true,
            drained: true,
            aborted: false,
            escalated: false,
            attempt: 0,
        }
    }

    fn restart(downtime: u64) -> RestartOutcome {
        RestartOutcome {
            from_host: 0,
            from_slot: 0,
            to_host: 1,
            to_slot: 2,
            epoch: 3,
            downtime_cycles: downtime,
        }
    }

    #[test]
    fn downtime_percentile_is_nearest_rank() {
        let migrations: Vec<MigrationOutcome> = (1..=100).map(|n| outcome(n * 10)).collect();
        let report = ClusterReport::new(
            Vec::new(),
            migrations,
            4,
            RecoveryStats::default(),
            Vec::new(),
        );
        assert_eq!(report.downtime_percentile(99), 990);
        assert_eq!(report.downtime_percentile(50), 500);
        assert_eq!(report.downtime_percentile(100), 1000);
    }

    #[test]
    fn recovery_downtime_unions_migrations_and_restarts() {
        let report = ClusterReport::new(
            Vec::new(),
            vec![outcome(100), outcome(200)],
            1,
            RecoveryStats::default(),
            vec![restart(5_000)],
        );
        assert_eq!(
            report.recovery_downtime_percentile(100),
            5_000,
            "the restart's blackout dominates the distribution"
        );
        assert_eq!(report.downtime_percentile(100), 200);
        let empty = ClusterReport::new(
            Vec::new(),
            Vec::new(),
            0,
            RecoveryStats::default(),
            Vec::new(),
        );
        assert_eq!(empty.recovery_downtime_percentile(99), 0);
    }

    #[test]
    fn aggregate_sums_host_fields() {
        let mut a = HostReport::default();
        a.host.accesses = 10;
        a.host.cycles_per_cpu = vec![5, 7];
        a.migration.pages_copied = 3;
        let mut b = HostReport::default();
        b.host.accesses = 32;
        b.host.cycles_per_cpu = vec![9];
        b.migration.received_pages = 2;
        let report = ClusterReport::new(
            vec![a, b],
            Vec::new(),
            0,
            RecoveryStats::default(),
            Vec::new(),
        );
        assert_eq!(report.aggregate.accesses, 42);
        assert_eq!(report.aggregate.cycles_per_cpu, vec![5, 7, 9]);
        assert_eq!(report.migration.pages_copied, 3);
        assert_eq!(report.migration.received_pages, 2);
        assert_eq!(report.downtime_percentile(99), 0, "no migrations ran");
    }
}
