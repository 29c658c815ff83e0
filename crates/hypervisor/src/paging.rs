//! Die-stacked DRAM paging policies (Sec. 5.2).
//!
//! The hypervisor treats die-stacked DRAM as a fully associative,
//! software-managed cache of hot pages.  On a demand access to a page that
//! currently lives in off-chip DRAM, the page (plus optional prefetch
//! neighbours) is migrated into die-stacked memory; when fast memory is
//! full, victims are selected by FIFO or by a CLOCK approximation of LRU.
//! A *migration daemon* pre-evicts cold pages so that a pool of free frames
//! is available off the critical path.

use std::collections::{HashMap, VecDeque};

use hatric_types::{Counter, FibBuildHasher, GuestFrame};

/// NUMA memory-placement policy: on which socket the hypervisor backs a
/// guest page it has to allocate (first touches and paging migrations).
///
/// On a single-socket host the policy is irrelevant — every choice lands on
/// the only socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumaPolicy {
    /// Allocate on the socket of the CPU whose access faulted the page in
    /// (Linux's default `local` policy).  Combined with socket-affine vCPU
    /// pinning this keeps a VM's memory entirely socket-local.
    #[default]
    FirstTouch,
    /// Round-robin allocations across all sockets (`numactl --interleave`):
    /// bandwidth spreads over every memory controller, but a fraction
    /// `(sockets-1)/sockets` of all accesses crosses the link.
    Interleaved,
}

/// Victim-selection policy for die-stacked memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagingPolicyKind {
    /// Evict in the order pages were promoted.
    Fifo,
    /// CLOCK (second-chance) approximation of LRU, as KVM implements by
    /// repurposing Linux's pseudo-LRU machinery.
    #[default]
    ClockLru,
}

/// Paging configuration.
///
/// ```
/// use hatric_hypervisor::PagingConfig;
///
/// let cfg = PagingConfig::best(1_024);
/// assert!(cfg.migration_daemon && cfg.prefetch_pages > 0);
/// assert!(cfg.daemon_free_target < cfg.fast_capacity_pages);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingConfig {
    /// Victim-selection policy.
    pub policy: PagingPolicyKind,
    /// Capacity of die-stacked memory available for guest data, in pages.
    pub fast_capacity_pages: u64,
    /// Whether the migration daemon pre-evicts pages to keep a free pool.
    pub migration_daemon: bool,
    /// Number of free frames the daemon tries to maintain.
    pub daemon_free_target: u64,
    /// Number of adjacent pages to prefetch on a demand migration.
    pub prefetch_pages: usize,
}

impl PagingConfig {
    /// The best-performing combination in the paper (Fig. 8): CLOCK-LRU plus
    /// migration daemon plus prefetching.
    #[must_use]
    pub fn best(fast_capacity_pages: u64) -> Self {
        Self {
            policy: PagingPolicyKind::ClockLru,
            fast_capacity_pages,
            migration_daemon: true,
            daemon_free_target: (fast_capacity_pages / 64).max(4),
            prefetch_pages: 2,
        }
    }

    /// Plain LRU with no daemon and no prefetching (the `lru` bars).
    #[must_use]
    pub fn lru_only(fast_capacity_pages: u64) -> Self {
        Self {
            policy: PagingPolicyKind::ClockLru,
            fast_capacity_pages,
            migration_daemon: false,
            daemon_free_target: 0,
            prefetch_pages: 0,
        }
    }

    /// LRU plus the migration daemon (the `&mig-dmn` bars).
    #[must_use]
    pub fn lru_with_daemon(fast_capacity_pages: u64) -> Self {
        Self {
            migration_daemon: true,
            daemon_free_target: (fast_capacity_pages / 64).max(4),
            ..Self::lru_only(fast_capacity_pages)
        }
    }
}

/// What the policy wants done in response to a slow-memory access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Guest frames to promote into die-stacked memory (the demanded frame
    /// first, then prefetch candidates).
    pub promotions: Vec<GuestFrame>,
    /// Guest frames to evict from die-stacked memory to make room.
    pub evictions: Vec<GuestFrame>,
}

impl MigrationDecision {
    /// Whether the decision involves any page movement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.promotions.is_empty() && self.evictions.is_empty()
    }
}

/// Counters describing paging activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Demand faults on pages in slow memory.
    pub demand_faults: Counter,
    /// Pages promoted to fast memory (demand + prefetch).
    pub promotions: Counter,
    /// Pages evicted from fast memory.
    pub evictions: Counter,
    /// Pages promoted purely by prefetching.
    pub prefetches: Counter,
    /// Eviction batches performed by the migration daemon.
    pub daemon_runs: Counter,
    /// Die-stacked capacity pages taken from this VM by balloon inflation.
    pub balloon_reclaimed: Counter,
    /// Die-stacked capacity pages granted to this VM by balloon deflation.
    pub balloon_granted: Counter,
}

impl PagingStats {
    /// Accumulates `other` into `self` (used when summing per-VM reports).
    pub fn merge(&mut self, other: &PagingStats) {
        self.demand_faults.add(other.demand_faults.get());
        self.promotions.add(other.promotions.get());
        self.evictions.add(other.evictions.get());
        self.prefetches.add(other.prefetches.get());
        self.daemon_runs.add(other.daemon_runs.get());
        self.balloon_reclaimed.add(other.balloon_reclaimed.get());
        self.balloon_granted.add(other.balloon_granted.get());
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ResidentInfo {
    referenced: bool,
}

/// Tracks the contents of die-stacked memory and applies the paging policy.
#[derive(Debug, Clone)]
pub struct PagingManager {
    config: PagingConfig,
    /// Looked up on every fast access and never iterated, so it hashes
    /// with the keyless [`FibBuildHasher`].
    resident: HashMap<GuestFrame, ResidentInfo, FibBuildHasher>,
    queue: VecDeque<GuestFrame>,
    stats: PagingStats,
}

impl PagingManager {
    /// Creates an empty manager (all of fast memory free).
    #[must_use]
    pub fn new(config: PagingConfig) -> Self {
        Self {
            config,
            resident: HashMap::default(),
            queue: VecDeque::new(),
            stats: PagingStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PagingConfig {
        &self.config
    }

    /// Whether `gpp` currently resides in die-stacked memory.
    #[must_use]
    pub fn is_resident(&self, gpp: GuestFrame) -> bool {
        self.resident.contains_key(&gpp)
    }

    /// Number of pages currently resident in fast memory.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Free fast-memory pages remaining.
    #[must_use]
    pub fn free_pages(&self) -> u64 {
        self.config
            .fast_capacity_pages
            .saturating_sub(self.resident_pages())
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Clears the statistics while keeping the resident set and policy
    /// state intact (called between warmup and measured phases).
    pub fn reset_stats(&mut self) {
        self.stats = PagingStats::default();
    }

    /// Drops `gpp` from the resident set without counting an eviction —
    /// the page's mapping was rolled back (an aborted migration
    /// un-registered its first-touch remap), so it no longer occupies
    /// fast memory.  Returns whether the page was resident.  The CLOCK /
    /// FIFO queue cleans itself lazily: victim selection already skips
    /// entries absent from the resident set.
    pub fn forget(&mut self, gpp: GuestFrame) -> bool {
        self.resident.remove(&gpp).is_some()
    }

    /// Notes an access to a page already resident in fast memory (sets its
    /// reference bit for CLOCK).
    pub fn on_fast_access(&mut self, gpp: GuestFrame) {
        if let Some(info) = self.resident.get_mut(&gpp) {
            info.referenced = true;
        }
    }

    fn select_victim(&mut self) -> Option<GuestFrame> {
        match self.config.policy {
            PagingPolicyKind::Fifo => loop {
                let candidate = self.queue.pop_front()?;
                if self.resident.contains_key(&candidate) {
                    return Some(candidate);
                }
            },
            PagingPolicyKind::ClockLru => {
                // Second-chance: skip referenced pages once, clearing their bit.
                let mut passes = 0;
                while passes < 2 * self.queue.len().max(1) {
                    let candidate = self.queue.pop_front()?;
                    passes += 1;
                    match self.resident.get_mut(&candidate) {
                        Some(info) if info.referenced => {
                            info.referenced = false;
                            self.queue.push_back(candidate);
                        }
                        Some(_) => return Some(candidate),
                        None => {}
                    }
                }
                self.queue.pop_front()
            }
        }
    }

    /// Handles a demand access to a page that lives in slow memory: decides
    /// which pages to promote (demand + prefetch) and which resident pages
    /// must be evicted to make room.  The caller performs the copies and
    /// nested-page-table updates, then calls [`PagingManager::commit_promotion`]
    /// for each promoted frame.
    pub fn on_slow_access(&mut self, gpp: GuestFrame) -> MigrationDecision {
        if self.config.fast_capacity_pages == 0 {
            return MigrationDecision::default();
        }
        self.stats.demand_faults.incr();
        let mut promotions = vec![gpp];
        for i in 1..=self.config.prefetch_pages {
            let neighbour = gpp.offset(i as u64);
            if !self.is_resident(neighbour) {
                promotions.push(neighbour);
            }
        }
        let needed = promotions.len() as u64;
        let evictions = self.evict_victims(needed.saturating_sub(self.free_pages()));
        // Trim promotions if memory is extremely small.
        let capacity = self.config.fast_capacity_pages;
        if needed > capacity {
            promotions.truncate(capacity as usize);
        }
        self.stats
            .prefetches
            .add(promotions.len().saturating_sub(1) as u64);
        MigrationDecision {
            promotions,
            evictions,
        }
    }

    /// Records that a promoted page now resides in fast memory.  The page
    /// starts with a clear reference bit; demand accesses set it via
    /// [`PagingManager::on_fast_access`].
    pub fn commit_promotion(&mut self, gpp: GuestFrame) {
        if self
            .resident
            .insert(gpp, ResidentInfo { referenced: false })
            .is_none()
        {
            self.queue.push_back(gpp);
            self.stats.promotions.incr();
        }
    }

    // ----- ballooning -------------------------------------------------------

    /// Balloon inflation: permanently shrinks this VM's die-stacked
    /// capacity by up to `pages` (clamped to the current capacity) and
    /// selects the victims that must leave fast memory to fit under the new
    /// ceiling.  The caller migrates the victims out (each one an
    /// unmap+remap with translation coherence) and hands the reclaimed
    /// capacity to another VM via [`PagingManager::balloon_grant`].
    /// Returns the evicted frames.
    pub fn balloon_reclaim(&mut self, pages: u64) -> Vec<GuestFrame> {
        let reclaimed = pages.min(self.config.fast_capacity_pages);
        self.config.fast_capacity_pages -= reclaimed;
        self.stats.balloon_reclaimed.add(reclaimed);
        let overage = self
            .resident_pages()
            .saturating_sub(self.config.fast_capacity_pages);
        self.evict_victims(overage)
    }

    /// Balloon deflation: grows this VM's die-stacked capacity by `pages`.
    /// The new room fills through the ordinary demand-promotion path (each
    /// promotion a remap with translation coherence).
    pub fn balloon_grant(&mut self, pages: u64) {
        self.config.fast_capacity_pages += pages;
        self.stats.balloon_granted.add(pages);
    }

    /// Whether the migration daemon should run (free pool below target).
    #[must_use]
    pub fn daemon_should_run(&self) -> bool {
        self.config.migration_daemon && self.free_pages() < self.config.daemon_free_target
    }

    /// Runs the migration daemon: selects enough victims to restore the free
    /// pool.  The caller migrates them out (off the application's critical
    /// path) and they stop being resident immediately.
    pub fn run_daemon(&mut self) -> Vec<GuestFrame> {
        if !self.daemon_should_run() {
            return Vec::new();
        }
        self.stats.daemon_runs.incr();
        let deficit = self.config.daemon_free_target - self.free_pages();
        self.evict_victims(deficit)
    }

    /// Selects, removes and counts up to `count` eviction victims (fewer
    /// if the policy runs out of candidates).  Every eviction path —
    /// demand replacement, the migration daemon, balloon reclaim —
    /// funnels through here so their bookkeeping can never drift apart.
    fn evict_victims(&mut self, count: u64) -> Vec<GuestFrame> {
        let mut victims = Vec::new();
        for _ in 0..count {
            match self.select_victim() {
                Some(victim) => {
                    self.resident.remove(&victim);
                    self.stats.evictions.incr();
                    victims.push(victim);
                }
                None => break,
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(capacity: u64, policy: PagingPolicyKind) -> PagingManager {
        PagingManager::new(PagingConfig {
            policy,
            fast_capacity_pages: capacity,
            migration_daemon: false,
            daemon_free_target: 0,
            prefetch_pages: 0,
        })
    }

    #[test]
    fn promotion_until_full_requires_no_eviction() {
        let mut m = manager(4, PagingPolicyKind::ClockLru);
        for i in 0..4 {
            let d = m.on_slow_access(GuestFrame::new(i));
            assert!(d.evictions.is_empty());
            m.commit_promotion(GuestFrame::new(i));
        }
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(m.free_pages(), 0);
    }

    #[test]
    fn fifo_evicts_in_promotion_order() {
        let mut m = manager(2, PagingPolicyKind::Fifo);
        m.on_slow_access(GuestFrame::new(1));
        m.commit_promotion(GuestFrame::new(1));
        m.on_slow_access(GuestFrame::new(2));
        m.commit_promotion(GuestFrame::new(2));
        let d = m.on_slow_access(GuestFrame::new(3));
        assert_eq!(d.evictions, vec![GuestFrame::new(1)]);
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut m = manager(2, PagingPolicyKind::ClockLru);
        m.on_slow_access(GuestFrame::new(1));
        m.commit_promotion(GuestFrame::new(1));
        m.on_slow_access(GuestFrame::new(2));
        m.commit_promotion(GuestFrame::new(2));
        // Re-reference page 1 so page 2 becomes the CLOCK victim.
        m.on_fast_access(GuestFrame::new(1));
        let d = m.on_slow_access(GuestFrame::new(3));
        assert_eq!(d.evictions, vec![GuestFrame::new(2)]);
        assert!(m.is_resident(GuestFrame::new(1)));
    }

    #[test]
    fn prefetching_promotes_neighbours() {
        let mut m = PagingManager::new(PagingConfig {
            policy: PagingPolicyKind::ClockLru,
            fast_capacity_pages: 16,
            migration_daemon: false,
            daemon_free_target: 0,
            prefetch_pages: 2,
        });
        let d = m.on_slow_access(GuestFrame::new(10));
        assert_eq!(
            d.promotions,
            vec![
                GuestFrame::new(10),
                GuestFrame::new(11),
                GuestFrame::new(12)
            ]
        );
        assert_eq!(m.stats().prefetches.get(), 2);
    }

    #[test]
    fn daemon_restores_free_pool() {
        let mut m = PagingManager::new(PagingConfig {
            policy: PagingPolicyKind::ClockLru,
            fast_capacity_pages: 8,
            migration_daemon: true,
            daemon_free_target: 3,
            prefetch_pages: 0,
        });
        for i in 0..8 {
            m.on_slow_access(GuestFrame::new(i));
            m.commit_promotion(GuestFrame::new(i));
        }
        assert!(m.daemon_should_run());
        let victims = m.run_daemon();
        assert_eq!(victims.len(), 3);
        assert_eq!(m.free_pages(), 3);
        assert!(!m.daemon_should_run());
    }

    #[test]
    fn zero_capacity_never_migrates() {
        let mut m = manager(0, PagingPolicyKind::ClockLru);
        let d = m.on_slow_access(GuestFrame::new(1));
        assert!(d.is_empty());
    }

    #[test]
    fn balloon_reclaim_shrinks_capacity_and_evicts_to_fit() {
        let mut m = manager(8, PagingPolicyKind::Fifo);
        for i in 0..8 {
            m.on_slow_access(GuestFrame::new(i));
            m.commit_promotion(GuestFrame::new(i));
        }
        let victims = m.balloon_reclaim(3);
        assert_eq!(m.config().fast_capacity_pages, 5);
        assert_eq!(
            victims,
            vec![GuestFrame::new(0), GuestFrame::new(1), GuestFrame::new(2)]
        );
        assert_eq!(m.resident_pages(), 5);
        assert_eq!(m.stats().balloon_reclaimed.get(), 3);
        assert_eq!(m.stats().evictions.get(), 3);
        // Reclaim is clamped to what is left.
        let victims = m.balloon_reclaim(100);
        assert_eq!(m.config().fast_capacity_pages, 0);
        assert_eq!(victims.len(), 5);
        assert_eq!(m.stats().balloon_reclaimed.get(), 8);
    }

    #[test]
    fn balloon_grant_makes_room_without_evictions() {
        let mut m = manager(1, PagingPolicyKind::ClockLru);
        m.on_slow_access(GuestFrame::new(1));
        m.commit_promotion(GuestFrame::new(1));
        m.balloon_grant(2);
        assert_eq!(m.config().fast_capacity_pages, 3);
        assert_eq!(m.free_pages(), 2);
        assert_eq!(m.stats().balloon_granted.get(), 2);
        let d = m.on_slow_access(GuestFrame::new(2));
        assert!(d.evictions.is_empty(), "granted room absorbs the promotion");
    }

    #[test]
    fn merge_covers_every_counter_including_balloon_fields() {
        let mut m = PagingManager::new(PagingConfig {
            policy: PagingPolicyKind::ClockLru,
            fast_capacity_pages: 4,
            migration_daemon: true,
            daemon_free_target: 2,
            prefetch_pages: 1,
        });
        for i in [0u64, 4, 8, 12] {
            m.on_slow_access(GuestFrame::new(i));
            m.commit_promotion(GuestFrame::new(i));
        }
        m.run_daemon();
        m.balloon_reclaim(1);
        m.balloon_grant(2);
        let stats = m.stats();
        let mut merged = PagingStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        // Every field doubles — a field forgotten by merge() stays zero and
        // fails its own comparison.
        assert_eq!(merged.demand_faults.get(), 2 * stats.demand_faults.get());
        assert_eq!(merged.promotions.get(), 2 * stats.promotions.get());
        assert_eq!(merged.evictions.get(), 2 * stats.evictions.get());
        assert_eq!(merged.prefetches.get(), 2 * stats.prefetches.get());
        assert_eq!(merged.daemon_runs.get(), 2 * stats.daemon_runs.get());
        assert_eq!(
            merged.balloon_reclaimed.get(),
            2 * stats.balloon_reclaimed.get()
        );
        assert_eq!(
            merged.balloon_granted.get(),
            2 * stats.balloon_granted.get()
        );
        assert!(stats.balloon_reclaimed.get() > 0 && stats.balloon_granted.get() > 0);
        assert!(stats.daemon_runs.get() > 0 && stats.prefetches.get() > 0);
    }

    #[test]
    fn stats_count_faults_and_evictions() {
        let mut m = manager(1, PagingPolicyKind::Fifo);
        m.on_slow_access(GuestFrame::new(1));
        m.commit_promotion(GuestFrame::new(1));
        m.on_slow_access(GuestFrame::new(2));
        m.commit_promotion(GuestFrame::new(2));
        assert_eq!(m.stats().demand_faults.get(), 2);
        assert_eq!(m.stats().evictions.get(), 1);
        assert_eq!(m.stats().promotions.get(), 2);
    }
}
