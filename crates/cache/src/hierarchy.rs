//! The full cache hierarchy: per-CPU private L1/L2 caches, a shared LLC and
//! the coherence directory, glued together behind a read/write interface.
//!
//! The simulator runs [`CacheHierarchy::read`] / [`CacheHierarchy::write`],
//! which update the accessing CPU's private pair, the directory, the LLC,
//! and the private copies the directory names (back-invalidations, owner
//! downgrades, sharer invalidations) in one call.  The directory is banked
//! into as many slices as the LLC geometry allows (see
//! `SharedCache::bank_count_for`); only the directory itself knows how it
//! picks a line's slice.
//!
//! A **phased** path is kept beside it only for the `perfbench` benchmark's
//! `engine_caches` calibration, its one caller: a CPU's [`PrivatePair`]
//! *simulates* an access against a frozen [`SharedCache`]
//! ([`CacheHierarchy::split_simulate`]) and logs its shared-level steps as
//! [`SharedCacheOp`]s.  No host runs it, and nothing replays its log.

use hatric_types::{CacheLineAddr, Counter, CpuId, RatioStat};

use crate::cache::{PrivateCache, PrivateCacheConfig};
use crate::directory::{
    CoherenceDirectory, DirectoryConfig, DirectoryEntry, DirectoryStats, SharerSet,
};
use crate::line::{MesiState, PtKind};

/// Which level of the hierarchy satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 cache.
    L1,
    /// Private L2 cache.
    L2,
    /// Shared last-level cache (or a remote private cache).
    Llc,
    /// DRAM.
    Memory,
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHierarchyConfig {
    /// Number of CPUs (private cache pairs).
    pub num_cpus: usize,
    /// L1 geometry.
    pub l1: PrivateCacheConfig,
    /// L2 geometry.
    pub l2: PrivateCacheConfig,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
    /// Shared LLC associativity.
    pub llc_ways: usize,
    /// Coherence directory sizing.
    pub directory: DirectoryConfig,
    /// Eagerly update directory sharer lists when page-table lines are
    /// evicted from private caches (the Fig. 12 "EGR-dir-update" ablation);
    /// the default (false) is HATRIC's lazy policy.
    pub eager_pt_directory_update: bool,
}

/// A directory entry evicted for capacity: the line, its sharers at
/// eviction time and its page-table marking.  Every sharer was
/// back-invalidated in its private caches; callers must back-invalidate
/// translation structures for page-table lines.
pub type BackInvalidation = (CacheLineAddr, SharerSet, Option<PtKind>);

/// Outcome of a read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// A remote CPU had the line modified and was downgraded (adds latency).
    pub remote_downgrade: bool,
    /// The directory entry this access evicted for capacity, if any.  A
    /// directory op allocates at most one entry, so it evicts at most one.
    pub back_invalidated: Option<BackInvalidation>,
}

/// Outcome of a write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The underlying access outcome.
    pub access: AccessOutcome,
    /// Page-table kind of the written line, as recorded by the directory.
    pub pt_kind: Option<PtKind>,
    /// CPUs (other than the writer) that were listed as sharers and received
    /// invalidation messages.  For page-table lines these are the CPUs whose
    /// translation structures must receive co-tag invalidations.
    pub invalidated_sharers: SharerSet,
    /// Among the invalidated sharers, those that did not actually hold the
    /// line in their private caches (spurious cache invalidations).
    pub spurious_sharers: SharerSet,
}

/// Aggregate statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStatsSnapshot {
    /// L1 hit/miss across all CPUs.
    pub l1: RatioStat,
    /// L2 hit/miss across all CPUs.
    pub l2: RatioStat,
    /// LLC hit/miss.
    pub llc: RatioStat,
    /// Accesses that went to DRAM.
    pub memory_accesses: Counter,
    /// Coherence invalidation messages sent to private caches.
    pub invalidations_sent: Counter,
    /// Invalidations that found nothing to invalidate in the target's caches.
    pub spurious_invalidations: Counter,
    /// Lines back-invalidated due to directory evictions.
    pub back_invalidations: Counter,
    /// Dirty lines written back.
    pub writebacks: Counter,
    /// Writes that hit lines marked as page tables.
    pub pt_line_writes: Counter,
}

/// Private L1/L2 hit/miss counts of the phased path's simulated accesses.
/// Kept for `perfbench`'s `engine_caches` calibration, its one caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsDelta {
    /// L1 hits recorded during simulate.
    pub l1_hits: u64,
    /// L1 misses recorded during simulate.
    pub l1_misses: u64,
    /// L2 hits recorded during simulate.
    pub l2_hits: u64,
    /// L2 misses recorded during simulate.
    pub l2_misses: u64,
}

/// One CPU's private L1/L2 pair.
#[derive(Debug, Clone)]
pub struct PrivatePair {
    l1: PrivateCache,
    l2: PrivateCache,
}

/// One shared-level step of a simulated access, as the phased path logs
/// it.  Only [`PrivatePair::simulate_read`] and
/// [`PrivatePair::simulate_write`] write this log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedCacheOp {
    /// A read that missed the private levels and consulted LLC/directory.
    Read {
        /// The reading CPU.
        cpu: CpuId,
        /// The line read.
        line: CacheLineAddr,
        /// Whether the frozen directory had no entry for the line, so the
        /// simulate phase filled the reader Exclusive.
        predicted_allocate: bool,
    },
    /// A write that needed the directory (miss or upgrade).
    Write {
        /// The writing CPU.
        cpu: CpuId,
        /// The line written.
        line: CacheLineAddr,
        /// Whether the simulate phase predicted a memory-level miss (one
        /// that fills the LLC and counts a DRAM access).
        fill_memory: bool,
    },
    /// A line evicted from the CPU's own private pair during simulate.
    Victim {
        /// The CPU whose private pair evicted the line.
        cpu: CpuId,
        /// The evicted line.
        line: CacheLineAddr,
        /// Whether the evicted copy was dirty (counts a writeback).
        dirty: bool,
    },
}

/// Predicted outcome of a simulated read.
/// Phased path, kept for `perfbench`'s `engine_caches` calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAccess {
    /// Predicted service level (from the frozen shared state).
    pub level: HitLevel,
    /// Predicted remote-owner downgrade.
    pub remote_downgrade: bool,
}

/// Predicted outcome of a simulated write.
/// Phased path, kept for `perfbench`'s `engine_caches` calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimWrite {
    /// Predicted service level.
    pub level: HitLevel,
    /// Page-table marking of the line per the frozen directory.
    pub pt_kind: Option<PtKind>,
    /// Sharers the frozen directory would invalidate (the hardware
    /// translation-coherence target set).
    pub invalidated_sharers: SharerSet,
}

impl PrivatePair {
    fn new(config: &CacheHierarchyConfig) -> Self {
        Self {
            l1: PrivateCache::new(config.l1),
            l2: PrivateCache::new(config.l2),
        }
    }

    /// Whether this pair currently holds `line` in L1 or L2.
    #[must_use]
    pub fn holds(&self, line: CacheLineAddr) -> bool {
        self.l1.probe(line).is_some() || self.l2.probe(line).is_some()
    }

    /// Fills `line` into L1 and L2 in `state`.  `in_l1` and `in_l2` say
    /// whether each level holds the line already; one that does not takes
    /// the search-free insert.  Returns the line L2 evicted, if any, which
    /// leaves L1 too.
    fn fill(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
        in_l1: bool,
        in_l2: bool,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let l1_victim = if in_l1 {
            self.l1.fill(line, state)
        } else {
            self.l1.insert_absent(line, state)
        };
        if let Some((victim, victim_state)) = l1_victim {
            // L1 ⊆ L2, so the victim's refill only refreshes its L2 copy.
            let l2_victim = self.l2.fill(victim, victim_state);
            debug_assert!(l2_victim.is_none(), "an L1 victim's refill hits L2");
        }
        let l2_victim = if in_l2 {
            self.l2.fill(line, state)
        } else {
            self.l2.insert_absent(line, state)
        };
        if let Some((victim, _)) = l2_victim {
            // Maintain inclusion: a line falling out of L2 leaves L1 too.
            self.l1.invalidate(victim);
        }
        l2_victim
    }

    /// [`PrivatePair::fill`], logging the L2 victim as a
    /// [`SharedCacheOp::Victim`].
    fn fill_logged(
        &mut self,
        cpu: CpuId,
        line: CacheLineAddr,
        state: MesiState,
        in_l1: bool,
        in_l2: bool,
        ops: &mut Vec<SharedCacheOp>,
    ) {
        if let Some((victim, victim_state)) = self.fill(line, state, in_l1, in_l2) {
            ops.push(SharedCacheOp::Victim {
                cpu,
                line: victim,
                dirty: victim_state.is_dirty(),
            });
        }
    }

    /// Simulates a read by `cpu` against this pair plus the frozen shared
    /// state.  Shared-level consequences are appended to `ops`.
    ///
    /// Phased path, kept for `perfbench`'s `engine_caches` calibration, its
    /// one caller.
    pub fn simulate_read(
        &mut self,
        shared: &SharedCache,
        cpu: CpuId,
        line: CacheLineAddr,
        ops: &mut Vec<SharedCacheOp>,
        delta: &mut CacheStatsDelta,
    ) -> SimAccess {
        if self.l1.lookup(line).is_some() {
            delta.l1_hits += 1;
            return SimAccess {
                level: HitLevel::L1,
                remote_downgrade: false,
            };
        }
        delta.l1_misses += 1;
        if let Some(state) = self.l2.lookup(line) {
            delta.l2_hits += 1;
            self.fill_logged(cpu, line, state, false, true, ops);
            return SimAccess {
                level: HitLevel::L2,
                remote_downgrade: false,
            };
        }
        delta.l2_misses += 1;

        let entry = shared.directory.entry(line);
        let would_allocate = entry.is_none();
        let remote_downgrade = entry
            .and_then(|e| e.owner)
            .is_some_and(|owner| owner != cpu);
        let llc_hit = shared.llc_probe(line);
        let level = if llc_hit || remote_downgrade {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        let fill_state = if would_allocate {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        self.fill_logged(cpu, line, fill_state, false, false, ops);
        ops.push(SharedCacheOp::Read {
            cpu,
            line,
            predicted_allocate: would_allocate,
        });
        SimAccess {
            level,
            remote_downgrade,
        }
    }

    /// Simulates a write by `cpu` against this pair plus the frozen shared
    /// state.  Shared-level consequences are appended to `ops`.
    ///
    /// Phased path, kept for `perfbench`'s `engine_caches` calibration, its
    /// one caller.
    pub fn simulate_write(
        &mut self,
        shared: &SharedCache,
        cpu: CpuId,
        line: CacheLineAddr,
        ops: &mut Vec<SharedCacheOp>,
        delta: &mut CacheStatsDelta,
    ) -> SimWrite {
        // Silent upgrade when we already own the line.
        let l1_state = self.l1.lookup(line);
        if let Some(state) = l1_state {
            delta.l1_hits += 1;
            if state.can_write_silently() {
                self.l1.set_state(line, MesiState::Modified);
                self.l2.set_state(line, MesiState::Modified);
                return SimWrite {
                    level: HitLevel::L1,
                    pt_kind: None,
                    invalidated_sharers: SharerSet::empty(),
                };
            }
        } else {
            delta.l1_misses += 1;
        }

        let entry = shared.directory.entry(line);
        let targets = entry
            .map(|e| e.sharers.without(cpu))
            .unwrap_or_else(SharerSet::empty);
        let pt_kind = entry.and_then(DirectoryEntry::pt_kind);
        let llc_hit = shared.llc_probe(line);
        let had_locally = l1_state.is_some() || self.l2.probe(line).is_some();
        let level = if had_locally {
            HitLevel::L2
        } else if llc_hit || !targets.is_empty() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        let in_l1 = l1_state.is_some();
        self.fill_logged(cpu, line, MesiState::Modified, in_l1, had_locally, ops);
        ops.push(SharedCacheOp::Write {
            cpu,
            line,
            fill_memory: level == HitLevel::Memory,
        });
        SimWrite {
            level,
            pt_kind,
            invalidated_sharers: targets,
        }
    }
}

/// Everything the CPUs share: one LLC, indexed by the line itself, and the
/// banked coherence directory.
///
/// The LLC has exactly the sets of the banked LLC it replaced, whose bank
/// *b* held the lines `≡ b (mod bank_count)` at in-bank set
/// `(index / bank_count) mod bank_sets`; that set is unbanked set
/// `index mod (bank_count · bank_sets)`, one to one, so the two hold the
/// same lines.
#[derive(Debug, Clone)]
pub struct SharedCache {
    llc: PrivateCache,
    directory: CoherenceDirectory,
}

impl SharedCache {
    /// The directory's slice count, and the bank count of the banked LLC
    /// the unbanked one replaced: the largest power of two ≤ 16 that
    /// divides the LLC's set count (falling back towards 1 for tiny test
    /// geometries).  Because it divides the set count, a line's bank is
    /// its LLC set index mod the bank count, i.e. its line index's low bits.
    fn bank_count_for(sets: usize) -> usize {
        let mut banks = 16usize;
        while banks > 1 && (!sets.is_multiple_of(banks) || sets / banks == 0) {
            banks /= 2;
        }
        banks
    }

    /// Whether the LLC holds `line` (no recency effects).
    fn llc_probe(&self, line: CacheLineAddr) -> bool {
        self.llc.probe(line).is_some()
    }
}

/// The cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    private: Vec<PrivatePair>,
    shared: SharedCache,
    config: CacheHierarchyConfig,
    stats: CacheStatsSnapshot,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero or greater than 64.
    #[must_use]
    pub fn new(config: CacheHierarchyConfig) -> Self {
        assert!(config.num_cpus > 0, "need at least one CPU");
        assert!(
            config.num_cpus <= 64,
            "directory sharer sets support at most 64 CPUs"
        );
        let private = (0..config.num_cpus)
            .map(|_| PrivatePair::new(&config))
            .collect();
        let llc = PrivateCacheConfig {
            capacity_bytes: config.llc_bytes,
            ways: config.llc_ways,
        };
        let bank_count = SharedCache::bank_count_for(llc.sets().max(1));
        // The LLC maps one to one onto the banked slices the baselines were
        // made with only if it has exactly their total set count.
        let llc_slice = PrivateCacheConfig {
            capacity_bytes: config.llc_bytes / bank_count as u64,
            ..llc
        };
        assert_eq!(
            llc.sets(),
            bank_count * llc_slice.sets(),
            "the LLC has the sets of {bank_count} banks"
        );
        Self {
            private,
            shared: SharedCache {
                llc: PrivateCache::new(llc),
                directory: CoherenceDirectory::new(config.directory, bank_count),
            },
            config,
            stats: CacheStatsSnapshot::default(),
        }
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &CacheHierarchyConfig {
        &self.config
    }

    /// Whether the directory lists `cpu` as a sharer of `line`.
    #[must_use]
    pub fn is_sharer(&self, line: CacheLineAddr, cpu: CpuId) -> bool {
        self.shared.directory.is_sharer(line, cpu)
    }

    /// Aggregate directory statistics.
    #[must_use]
    pub fn directory_stats(&self) -> DirectoryStats {
        self.shared.directory.stats()
    }

    /// Number of lines currently tracked by the coherence directory — the
    /// occupancy gauge the counter timelines sample.  Read-only: sampling
    /// it never perturbs the model.
    #[must_use]
    pub fn directory_len(&self) -> usize {
        self.shared.directory.len()
    }

    /// Splits the hierarchy for the phased path: the shared level is
    /// frozen, the private pairs are handed out for mutation.
    ///
    /// Kept for `perfbench`'s `engine_caches` calibration, its one caller.
    pub fn split_simulate(&mut self) -> (&SharedCache, &mut [PrivatePair]) {
        (&self.shared, &mut self.private)
    }

    /// Whether `cpu` currently holds `line` in its private caches.
    #[must_use]
    pub fn cpu_holds_line(&self, cpu: CpuId, line: CacheLineAddr) -> bool {
        self.private[cpu.index()].holds(line)
    }

    /// Fills `line` into `cpu`'s private pair (see [`PrivatePair::fill`])
    /// and tells the directory about the L2 victim, if any.
    fn fill_private(
        &mut self,
        cpu: CpuId,
        line: CacheLineAddr,
        state: MesiState,
        in_l1: bool,
        in_l2: bool,
    ) {
        let pair = &mut self.private[cpu.index()];
        let Some((victim, victim_state)) = pair.fill(line, state, in_l1, in_l2) else {
            return;
        };
        if victim_state.is_dirty() {
            self.stats.writebacks.incr();
        }
        // Lazy sharer updates for page-table lines (HATRIC, Fig. 6); eager
        // for everything else or when the ablation flag is set.
        let eager = self.config.eager_pt_directory_update;
        self.shared
            .directory
            .note_private_eviction(victim, cpu, eager);
    }

    /// Back-invalidates the directory entry a directory op evicted for
    /// capacity, if any, in every sharer's private caches, and reports it.
    fn back_invalidate(
        &mut self,
        victim: Option<(CacheLineAddr, DirectoryEntry)>,
    ) -> Option<BackInvalidation> {
        let (line, entry) = victim?;
        self.stats
            .back_invalidations
            .add(u64::from(entry.sharers.count()));
        for cpu in entry.sharers.iter() {
            let pair = &mut self.private[cpu.index()];
            pair.l1.invalidate(line);
            pair.l2.invalidate(line);
        }
        Some((line, entry.sharers, entry.pt_kind()))
    }

    /// Performs a read by `cpu` of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn read(&mut self, cpu: CpuId, line: CacheLineAddr) -> AccessOutcome {
        assert!(cpu.index() < self.config.num_cpus, "unknown {cpu}");
        let pair = &mut self.private[cpu.index()];
        if pair.l1.lookup(line).is_some() {
            self.stats.l1.hit();
            return AccessOutcome {
                level: HitLevel::L1,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        self.stats.l1.miss();
        if let Some(state) = pair.l2.lookup(line) {
            self.stats.l2.hit();
            self.fill_private(cpu, line, state, false, true);
            return AccessOutcome {
                level: HitLevel::L2,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        self.stats.l2.miss();

        let (note, victim) = self.shared.directory.note_read(line, cpu);
        let back_invalidated = self.back_invalidate(victim);
        let remote_downgrade = note.downgraded_owner.is_some();
        if let Some(owner) = note.downgraded_owner {
            // The remote owner's copies drop to Shared, writing back dirty data.
            let pair = &mut self.private[owner.index()];
            if pair.l1.probe(line) == Some(MesiState::Modified)
                || pair.l2.probe(line) == Some(MesiState::Modified)
            {
                self.stats.writebacks.incr();
            }
            pair.l1.set_state(line, MesiState::Shared);
            pair.l2.set_state(line, MesiState::Shared);
        }
        let llc_hit = self.shared.llc.lookup(line).is_some();
        self.stats.llc.record(llc_hit || remote_downgrade);
        let level = if llc_hit || remote_downgrade {
            HitLevel::Llc
        } else {
            self.stats.memory_accesses.incr();
            self.shared.llc.insert_absent(line, MesiState::Shared);
            HitLevel::Memory
        };
        let fill_state = if note.allocated {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        self.fill_private(cpu, line, fill_state, false, false);
        AccessOutcome {
            level,
            remote_downgrade,
            back_invalidated,
        }
    }

    /// Performs a write by `cpu` of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn write(&mut self, cpu: CpuId, line: CacheLineAddr) -> WriteOutcome {
        assert!(cpu.index() < self.config.num_cpus, "unknown {cpu}");
        // Silent upgrade when we already own the line.
        let pair = &mut self.private[cpu.index()];
        let l1_state = pair.l1.lookup(line);
        if let Some(state) = l1_state {
            self.stats.l1.hit();
            if state.can_write_silently() {
                pair.l1.set_state(line, MesiState::Modified);
                pair.l2.set_state(line, MesiState::Modified);
                return WriteOutcome {
                    access: AccessOutcome {
                        level: HitLevel::L1,
                        remote_downgrade: false,
                        back_invalidated: None,
                    },
                    pt_kind: None,
                    invalidated_sharers: SharerSet::empty(),
                    spurious_sharers: SharerSet::empty(),
                };
            }
        } else {
            self.stats.l1.miss();
        }

        // Upgrade or miss.  A line held privately is an L2-level upgrade
        // and never fills from memory.
        let had_locally = l1_state.is_some() || pair.l2.probe(line).is_some();
        let (note, victim) = self.shared.directory.note_write(line, cpu);
        let back_invalidated = self.back_invalidate(victim);
        let targets = note.invalidate_targets;
        let mut spurious_sharers = SharerSet::empty();
        for target in targets.iter() {
            self.stats.invalidations_sent.incr();
            let pair = &mut self.private[target.index()];
            let had_l1 = pair.l1.invalidate(line).is_some();
            let had_l2 = pair.l2.invalidate(line).is_some();
            if !had_l1 && !had_l2 {
                self.stats.spurious_invalidations.incr();
                spurious_sharers.add(target);
            }
        }
        if note.pt_kind.is_some() {
            self.stats.pt_line_writes.incr();
        }
        let llc_hit = self.shared.llc.lookup(line).is_some();
        self.stats.llc.record(llc_hit);
        let level = if had_locally {
            HitLevel::L2
        } else if llc_hit || !targets.is_empty() {
            HitLevel::Llc
        } else {
            self.stats.memory_accesses.incr();
            self.shared.llc.insert_absent(line, MesiState::Modified);
            HitLevel::Memory
        };
        self.fill_private(
            cpu,
            line,
            MesiState::Modified,
            l1_state.is_some(),
            had_locally,
        );
        WriteOutcome {
            access: AccessOutcome {
                level,
                remote_downgrade: false,
                back_invalidated,
            },
            pt_kind: note.pt_kind,
            invalidated_sharers: targets,
            spurious_sharers,
        }
    }

    /// Marks a line as holding page-table entries of the given kind (done by
    /// the hardware walker when it fills translation structures from a line
    /// whose accessed bit was clear).  Returns the directory entry the
    /// marking evicted, if any: its sharers were back-invalidated in their
    /// private caches, and callers must back-invalidate translation
    /// structures for page-table lines.
    pub fn mark_pt_line(&mut self, line: CacheLineAddr, kind: PtKind) -> Option<BackInvalidation> {
        let victim = self.shared.directory.mark_pt(line, kind);
        self.back_invalidate(victim)
    }

    /// Lazily demotes `cpu` from `line`'s sharer list after the translation
    /// coherence layer found nothing to invalidate there.
    pub fn demote_sharer(&mut self, line: CacheLineAddr, cpu: CpuId) {
        self.shared.directory.demote_after_spurious(line, cpu);
    }

    /// Aggregate statistics (directory statistics are available separately
    /// via [`CacheHierarchy::directory_stats`]).
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.stats
    }

    /// Resets the aggregate statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStatsSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::new(n * 64)
    }

    fn small_hierarchy(cpus: usize) -> CacheHierarchy {
        CacheHierarchy::new(CacheHierarchyConfig {
            num_cpus: cpus,
            l1: PrivateCacheConfig {
                capacity_bytes: 1024,
                ways: 2,
            },
            l2: PrivateCacheConfig {
                capacity_bytes: 4096,
                ways: 4,
            },
            llc_bytes: 64 * 1024,
            llc_ways: 8,
            directory: DirectoryConfig::unbounded(),
            eager_pt_directory_update: false,
        })
    }

    #[test]
    fn first_read_misses_to_memory_then_hits_l1() {
        let mut h = small_hierarchy(2);
        let cpu = CpuId::new(0);
        let first = h.read(cpu, line(5));
        assert_eq!(first.level, HitLevel::Memory);
        let second = h.read(cpu, line(5));
        assert_eq!(second.level, HitLevel::L1);
    }

    #[test]
    fn cross_cpu_read_hits_llc() {
        let mut h = small_hierarchy(2);
        h.read(CpuId::new(0), line(5));
        let other = h.read(CpuId::new(1), line(5));
        assert_eq!(other.level, HitLevel::Llc);
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut h = small_hierarchy(4);
        for cpu in 0..3 {
            h.read(CpuId::new(cpu), line(9));
        }
        let outcome = h.write(CpuId::new(3), line(9));
        assert_eq!(outcome.invalidated_sharers.count(), 3);
        // The remote copies are gone: re-reads go past L1/L2.
        let reread = h.read(CpuId::new(0), line(9));
        assert_ne!(reread.level, HitLevel::L1);
        assert_ne!(reread.level, HitLevel::L2);
    }

    #[test]
    fn silent_write_on_owned_line() {
        let mut h = small_hierarchy(2);
        let cpu = CpuId::new(0);
        h.write(cpu, line(3));
        let again = h.write(cpu, line(3));
        assert_eq!(again.access.level, HitLevel::L1);
        assert_eq!(again.invalidated_sharers.count(), 0);
    }

    #[test]
    fn pt_marked_line_reports_kind_on_write() {
        let mut h = small_hierarchy(2);
        h.read(CpuId::new(0), line(7));
        h.mark_pt_line(line(7), PtKind::Nested);
        let outcome = h.write(CpuId::new(1), line(7));
        assert_eq!(outcome.pt_kind, Some(PtKind::Nested));
        assert!(outcome.invalidated_sharers.contains(CpuId::new(0)));
        assert_eq!(h.stats().pt_line_writes.get(), 1);
    }

    #[test]
    fn lazy_sharer_update_keeps_pt_sharers_after_eviction() {
        let mut h = small_hierarchy(2);
        let cpu = CpuId::new(0);
        h.read(cpu, line(1));
        h.mark_pt_line(line(1), PtKind::Nested);
        // Thrash CPU 0's tiny private caches so line 1 is evicted.
        for i in 100..400 {
            h.read(cpu, line(i));
        }
        assert!(!h.cpu_holds_line(cpu, line(1)));
        // The directory still lists CPU 0 as a sharer (lazy update), so a
        // remote write sends it a (spurious) invalidation.
        let outcome = h.write(CpuId::new(1), line(1));
        assert!(outcome.invalidated_sharers.contains(cpu));
        assert!(outcome.spurious_sharers.contains(cpu));
    }

    #[test]
    fn eager_update_removes_pt_sharers_after_eviction() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig {
            num_cpus: 2,
            l1: PrivateCacheConfig {
                capacity_bytes: 1024,
                ways: 2,
            },
            l2: PrivateCacheConfig {
                capacity_bytes: 4096,
                ways: 4,
            },
            llc_bytes: 64 * 1024,
            llc_ways: 8,
            directory: DirectoryConfig::unbounded(),
            eager_pt_directory_update: true,
        });
        let cpu = CpuId::new(0);
        h.read(cpu, line(1));
        h.mark_pt_line(line(1), PtKind::Nested);
        for i in 100..400 {
            h.read(cpu, line(i));
        }
        let outcome = h.write(CpuId::new(1), line(1));
        assert!(!outcome.invalidated_sharers.contains(cpu));
    }

    #[test]
    fn directory_eviction_back_invalidates() {
        let mut h = CacheHierarchy::new(CacheHierarchyConfig {
            num_cpus: 1,
            l1: PrivateCacheConfig {
                capacity_bytes: 4096,
                ways: 4,
            },
            l2: PrivateCacheConfig {
                capacity_bytes: 16 * 1024,
                ways: 4,
            },
            llc_bytes: 64 * 1024,
            llc_ways: 8,
            directory: DirectoryConfig { max_entries: 8 },
            eager_pt_directory_update: false,
        });
        let cpu = CpuId::new(0);
        let mut saw_back_invalidation = false;
        for i in 0..64 {
            let out = h.read(cpu, line(i));
            if out.back_invalidated.is_some() {
                saw_back_invalidation = true;
            }
        }
        assert!(saw_back_invalidation);
        assert!(h.stats().back_invalidations.get() > 0);
    }

    #[test]
    fn marking_a_pt_line_back_invalidates_the_victim() {
        // One directory entry per slice: marking a second line of a slice
        // evicts the first.
        let mut h = CacheHierarchy::new(CacheHierarchyConfig {
            directory: DirectoryConfig { max_entries: 16 },
            ..small_hierarchy(2).config
        });
        assert_eq!(bank_count(&h.config), 16);
        h.read(CpuId::new(0), line(3));
        h.read(CpuId::new(1), line(3));
        assert!(h.mark_pt_line(line(3), PtKind::Nested).is_none());
        let back = h.mark_pt_line(line(19), PtKind::Guest);
        let mut sharers = SharerSet::only(CpuId::new(0));
        sharers.add(CpuId::new(1));
        assert_eq!(back, Some((line(3), sharers, Some(PtKind::Nested))));
        assert!(!h.cpu_holds_line(CpuId::new(0), line(3)));
        assert!(!h.cpu_holds_line(CpuId::new(1), line(3)));
        assert!(!h.is_sharer(line(3), CpuId::new(0)));
        assert_eq!(h.stats().back_invalidations.get(), 2);
        assert_eq!(h.directory_len(), 1);
    }

    #[test]
    fn remote_dirty_read_downgrades() {
        let mut h = small_hierarchy(2);
        h.write(CpuId::new(0), line(11));
        let out = h.read(CpuId::new(1), line(11));
        assert!(out.remote_downgrade);
        assert_eq!(out.level, HitLevel::Llc);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn out_of_range_cpu_panics() {
        let mut h = small_hierarchy(2);
        h.read(CpuId::new(9), line(0));
    }

    // ----- phased simulate path, replayed by the reference ------------------
    //
    // These warm and replay through the reference, whose LLC is its own
    // banked slices, so the frozen LLC they simulate against stays empty
    // and their predictions come from the directory.

    /// The directory's slice count, and the banked LLC's, for `config`.
    fn bank_count(config: &CacheHierarchyConfig) -> usize {
        let llc = PrivateCacheConfig {
            capacity_bytes: config.llc_bytes,
            ways: config.llc_ways,
        };
        SharedCache::bank_count_for(llc.sets())
    }

    #[test]
    fn simulate_predicts_from_frozen_state_and_commit_replays() {
        let mut r = Reference::new(small_hierarchy(2).config);
        // Warm the shared state serially: CPU 1 owns line 5.
        ref_read(&mut r, CpuId::new(1), line(5));
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = r.h.split_simulate();
            let sim = pairs[0].simulate_read(shared, CpuId::new(0), line(5), &mut ops, &mut delta);
            // Frozen directory lists CPU 1 as owner: predicted LLC-level.
            assert_eq!(sim.level, HitLevel::Llc);
            assert!(sim.remote_downgrade);
            // A repeat hits the just-filled private L1 with no new op.
            let again =
                pairs[0].simulate_read(shared, CpuId::new(0), line(5), &mut ops, &mut delta);
            assert_eq!(again.level, HitLevel::L1);
        }
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, SharedCacheOp::Read { .. }))
                .count(),
            1
        );
        for op in &ops {
            replay(&mut r, (*op).into());
        }
        assert_eq!(delta.l1_hits, 1);
        assert_eq!(delta.l1_misses, 1);
        // After commit, the directory lists both CPUs as sharers.
        assert!(r.h.is_sharer(line(5), CpuId::new(0)));
        assert!(r.h.is_sharer(line(5), CpuId::new(1)));
    }

    #[test]
    fn simulated_memory_miss_fills_the_llc_at_commit() {
        let mut r = Reference::new(small_hierarchy(2).config);
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = r.h.split_simulate();
            let sim = pairs[0].simulate_read(shared, CpuId::new(0), line(9), &mut ops, &mut delta);
            assert_eq!(sim.level, HitLevel::Memory);
            let w = pairs[1].simulate_write(shared, CpuId::new(1), line(10), &mut ops, &mut delta);
            assert_eq!(w.level, HitLevel::Memory);
        }
        for op in &ops {
            replay(&mut r, (*op).into());
        }
        assert_eq!(r.h.stats().memory_accesses.get(), 2);
        // The replayed fills are visible to later serial reads.
        assert!(r.llc.probe(line(9)) && r.llc.probe(line(10)));
        assert_ne!(
            ref_read(&mut r, CpuId::new(1), line(9)).level,
            HitLevel::Memory
        );
    }

    #[test]
    fn simulated_write_predicts_frozen_sharers() {
        let mut r = Reference::new(small_hierarchy(4).config);
        for cpu in 0..3 {
            ref_read(&mut r, CpuId::new(cpu), line(4));
        }
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = r.h.split_simulate();
            let w = pairs[3].simulate_write(shared, CpuId::new(3), line(4), &mut ops, &mut delta);
            assert_eq!(w.invalidated_sharers.count(), 3);
        }
        for op in &ops {
            replay(&mut r, (*op).into());
        }
        // Commit delivered the invalidations: the remote copies are gone.
        assert!(!r.h.cpu_holds_line(CpuId::new(0), line(4)));
        assert_eq!(r.h.stats().invalidations_sent.get(), 3);
    }

    // ----- the op-replay reference -----------------------------------------
    //
    // Before `read`, `write` and `mark_pt_line` called the directory and the
    // LLC directly, each replayed its shared-level step as an op on the
    // directory, collected the op's private-level consequences and then
    // resolved them in order.  That replay is kept here as the reference
    // the direct path must match, and it replays the phased path's logs.
    // It also keeps the banked LLC the unbanked one replaced: one slice per
    // directory bank, indexed by the folded line index.

    /// The banked LLC: slice *b* holds the lines `≡ b (mod bank_count)` and
    /// indexes them by `index / bank_count`, a bijection within the slice's
    /// line population.
    struct BankedLlc {
        slices: Vec<PrivateCache>,
        fold_shift: u32,
    }

    impl BankedLlc {
        fn new(config: &CacheHierarchyConfig, bank_count: usize) -> Self {
            let slice = PrivateCacheConfig {
                capacity_bytes: config.llc_bytes / bank_count as u64,
                ways: config.llc_ways,
            };
            Self {
                slices: (0..bank_count).map(|_| PrivateCache::new(slice)).collect(),
                fold_shift: bank_count.trailing_zeros(),
            }
        }

        /// `line`'s slice and its folded key there.
        fn slot(&self, line: CacheLineAddr) -> (usize, CacheLineAddr) {
            let bank = line.index() as usize & (self.slices.len() - 1);
            let key = CacheLineAddr::new((line.index() >> self.fold_shift) * 64);
            (bank, key)
        }

        fn probe(&self, line: CacheLineAddr) -> bool {
            let (bank, key) = self.slot(line);
            self.slices[bank].probe(key).is_some()
        }

        fn lookup(&mut self, line: CacheLineAddr) -> bool {
            let (bank, key) = self.slot(line);
            self.slices[bank].lookup(key).is_some()
        }

        fn fill(&mut self, line: CacheLineAddr, state: MesiState) {
            let (bank, key) = self.slot(line);
            self.slices[bank].fill(key, state);
        }
    }

    /// The reference: a hierarchy whose private pairs and directory the
    /// replay drives, and the banked LLC in place of its own.
    struct Reference {
        h: CacheHierarchy,
        llc: BankedLlc,
    }

    impl Reference {
        fn new(config: CacheHierarchyConfig) -> Self {
            Self {
                h: CacheHierarchy::new(config),
                llc: BankedLlc::new(&config, bank_count(&config)),
            }
        }
    }

    /// An op of the replay: the phased path's log entries plus the
    /// serial path's page-table marking.  `fill_memory: None` lets the
    /// replay decide from its own LLC probe.
    #[derive(Debug, Clone, Copy)]
    enum RefOp {
        Read {
            cpu: CpuId,
            line: CacheLineAddr,
            predicted_allocate: bool,
        },
        Write {
            cpu: CpuId,
            line: CacheLineAddr,
            fill_memory: Option<bool>,
        },
        Victim {
            cpu: CpuId,
            line: CacheLineAddr,
            dirty: bool,
        },
        MarkPt {
            line: CacheLineAddr,
            kind: PtKind,
        },
    }

    impl From<SharedCacheOp> for RefOp {
        fn from(op: SharedCacheOp) -> Self {
            match op {
                SharedCacheOp::Read {
                    cpu,
                    line,
                    predicted_allocate,
                } => RefOp::Read {
                    cpu,
                    line,
                    predicted_allocate,
                },
                SharedCacheOp::Write {
                    cpu,
                    line,
                    fill_memory,
                } => RefOp::Write {
                    cpu,
                    line,
                    fill_memory: Some(fill_memory),
                },
                SharedCacheOp::Victim { cpu, line, dirty } => RefOp::Victim { cpu, line, dirty },
            }
        }
    }

    /// Private-level consequence of a bank replay.
    #[derive(Debug, Clone, Copy)]
    enum PrivEffect {
        /// Downgrade a remote owner's copies to Shared.
        Downgrade { owner: CpuId, line: CacheLineAddr },
        /// Invalidate a listed sharer's copies.
        Invalidate { target: CpuId, line: CacheLineAddr },
        /// Demote an optimistic Exclusive fill of the phased path to Shared.
        Reconcile { cpu: CpuId, line: CacheLineAddr },
        /// Back-invalidate an evicted directory entry's sharers.
        BackInvalidate {
            line: CacheLineAddr,
            sharers: SharerSet,
        },
    }

    /// What a bank replay decided from bank state alone.
    #[derive(Debug, Clone, Copy, Default)]
    struct BankOutcome {
        allocated: bool,
        downgraded_owner: Option<CpuId>,
        llc_hit: bool,
        invalidate_targets: SharerSet,
        pt_kind: Option<PtKind>,
    }

    /// Replays one op against the directory and the banked LLC, with
    /// shared-level statistics recorded in `stats` and private
    /// consequences appended to `privs`.
    fn bank_apply(
        directory: &mut CoherenceDirectory,
        llc: &mut BankedLlc,
        op: RefOp,
        eager: bool,
        stats: &mut CacheStatsSnapshot,
        privs: &mut Vec<PrivEffect>,
        back: &mut Option<BackInvalidation>,
    ) -> BankOutcome {
        let mut push_victim = |victim: Option<(CacheLineAddr, DirectoryEntry)>,
                               stats: &mut CacheStatsSnapshot,
                               privs: &mut Vec<PrivEffect>| {
            if let Some((line, entry)) = victim {
                stats
                    .back_invalidations
                    .add(u64::from(entry.sharers.count()));
                assert!(back.is_none(), "a directory op evicts at most one entry");
                *back = Some((line, entry.sharers, entry.pt_kind()));
                privs.push(PrivEffect::BackInvalidate {
                    line,
                    sharers: entry.sharers,
                });
            }
        };
        let mut out = BankOutcome::default();
        match op {
            RefOp::Read {
                cpu,
                line,
                predicted_allocate,
            } => {
                let (note, victim) = directory.note_read(line, cpu);
                push_victim(victim, stats, privs);
                if let Some(owner) = note.downgraded_owner {
                    privs.push(PrivEffect::Downgrade { owner, line });
                }
                if predicted_allocate && !note.allocated {
                    privs.push(PrivEffect::Reconcile { cpu, line });
                }
                let llc_hit = llc.lookup(line);
                stats.llc.record(llc_hit || note.downgraded_owner.is_some());
                if !llc_hit && note.downgraded_owner.is_none() {
                    stats.memory_accesses.incr();
                    llc.fill(line, MesiState::Shared);
                }
                out.allocated = note.allocated;
                out.downgraded_owner = note.downgraded_owner;
                out.llc_hit = llc_hit;
            }
            RefOp::Write {
                cpu,
                line,
                fill_memory,
            } => {
                let (note, victim) = directory.note_write(line, cpu);
                push_victim(victim, stats, privs);
                for target in note.invalidate_targets.iter() {
                    stats.invalidations_sent.incr();
                    privs.push(PrivEffect::Invalidate { target, line });
                }
                if note.pt_kind.is_some() {
                    stats.pt_line_writes.incr();
                }
                let llc_hit = llc.lookup(line);
                stats.llc.record(llc_hit);
                if fill_memory.unwrap_or(!llc_hit && note.invalidate_targets.is_empty()) {
                    stats.memory_accesses.incr();
                    llc.fill(line, MesiState::Modified);
                }
                out.allocated = note.allocated;
                out.llc_hit = llc_hit;
                out.invalidate_targets = note.invalidate_targets;
                out.pt_kind = note.pt_kind;
            }
            RefOp::Victim { cpu, line, dirty } => {
                if dirty {
                    stats.writebacks.incr();
                }
                directory.note_private_eviction(line, cpu, eager);
            }
            RefOp::MarkPt { line, kind } => {
                let victim = directory.mark_pt(line, kind);
                push_victim(victim, stats, privs);
            }
        }
        out
    }

    /// Resolves one private effect; returns the target of a spurious
    /// invalidation.
    fn resolve(h: &mut CacheHierarchy, effect: PrivEffect) -> Option<CpuId> {
        match effect {
            PrivEffect::Downgrade { owner, line } => {
                let pair = &mut h.private[owner.index()];
                if pair.l1.probe(line) == Some(MesiState::Modified)
                    || pair.l2.probe(line) == Some(MesiState::Modified)
                {
                    h.stats.writebacks.incr();
                }
                pair.l1.set_state(line, MesiState::Shared);
                pair.l2.set_state(line, MesiState::Shared);
            }
            PrivEffect::Invalidate { target, line } => {
                let pair = &mut h.private[target.index()];
                let had_l1 = pair.l1.invalidate(line).is_some();
                let had_l2 = pair.l2.invalidate(line).is_some();
                if !had_l1 && !had_l2 {
                    h.stats.spurious_invalidations.incr();
                    return Some(target);
                }
            }
            PrivEffect::Reconcile { cpu, line } => {
                let pair = &mut h.private[cpu.index()];
                match pair.l2.probe(line).or(pair.l1.probe(line)) {
                    Some(MesiState::Modified) => h.stats.writebacks.incr(),
                    Some(MesiState::Exclusive) => {}
                    _ => return None,
                }
                pair.l1.set_state(line, MesiState::Shared);
                pair.l2.set_state(line, MesiState::Shared);
            }
            PrivEffect::BackInvalidate { line, sharers } => {
                for cpu in sharers.iter() {
                    h.private[cpu.index()].l1.invalidate(line);
                    h.private[cpu.index()].l2.invalidate(line);
                }
            }
        }
        None
    }

    /// Replays `op` on the shared level, then resolves its private effects
    /// in order.  Returns the bank outcome, the back-invalidated entry and
    /// the spurious sharers.
    fn replay(r: &mut Reference, op: RefOp) -> (BankOutcome, Option<BackInvalidation>, SharerSet) {
        let h = &mut r.h;
        let eager = h.config.eager_pt_directory_update;
        let (mut privs, mut back) = (Vec::new(), None);
        let out = bank_apply(
            &mut h.shared.directory,
            &mut r.llc,
            op,
            eager,
            &mut h.stats,
            &mut privs,
            &mut back,
        );
        let mut spurious = SharerSet::empty();
        for effect in privs {
            if let Some(cpu) = resolve(h, effect) {
                spurious.add(cpu);
            }
        }
        (out, back, spurious)
    }

    /// The replay's private fill: tag-searching fills throughout, and an
    /// L2 victim of either fill is replayed as a victim op.
    fn ref_fill_private(r: &mut Reference, cpu: CpuId, line: CacheLineAddr, state: MesiState) {
        let mut victims = Vec::new();
        let pair = &mut r.h.private[cpu.index()];
        if let Some((victim_line, victim_state)) = pair.l1.fill(line, state) {
            victims.extend(pair.l2.fill(victim_line, victim_state));
        }
        if let Some((l2_victim, l2_state)) = pair.l2.fill(line, state) {
            pair.l1.invalidate(l2_victim);
            victims.push((l2_victim, l2_state));
        }
        for (line, state) in victims {
            let dirty = state.is_dirty();
            replay(r, RefOp::Victim { cpu, line, dirty });
        }
    }

    fn ref_read(r: &mut Reference, cpu: CpuId, line: CacheLineAddr) -> AccessOutcome {
        let h = &mut r.h;
        if h.private[cpu.index()].l1.lookup(line).is_some() {
            h.stats.l1.hit();
            return AccessOutcome {
                level: HitLevel::L1,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        h.stats.l1.miss();
        if let Some(state) = h.private[cpu.index()].l2.lookup(line) {
            h.stats.l2.hit();
            ref_fill_private(r, cpu, line, state);
            return AccessOutcome {
                level: HitLevel::L2,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        h.stats.l2.miss();
        let (out, back_invalidated, _) = replay(
            r,
            RefOp::Read {
                cpu,
                line,
                predicted_allocate: false,
            },
        );
        let level = if out.llc_hit || out.downgraded_owner.is_some() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        let fill_state = if out.allocated {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        ref_fill_private(r, cpu, line, fill_state);
        AccessOutcome {
            level,
            remote_downgrade: out.downgraded_owner.is_some(),
            back_invalidated,
        }
    }

    /// The replay's write.  With `peek`, the service level is decided from
    /// a peek at the directory and LLC before the replay, which is then
    /// told whether to fill from memory; without, the replay decides from
    /// its own probe.
    fn ref_write(r: &mut Reference, cpu: CpuId, line: CacheLineAddr, peek: bool) -> WriteOutcome {
        let h = &mut r.h;
        let l1_state = h.private[cpu.index()].l1.lookup(line);
        if let Some(state) = l1_state {
            h.stats.l1.hit();
            if state.can_write_silently() {
                let pair = &mut h.private[cpu.index()];
                pair.l1.set_state(line, MesiState::Modified);
                pair.l2.set_state(line, MesiState::Modified);
                return WriteOutcome {
                    access: AccessOutcome {
                        level: HitLevel::L1,
                        remote_downgrade: false,
                        back_invalidated: None,
                    },
                    pt_kind: None,
                    invalidated_sharers: SharerSet::empty(),
                    spurious_sharers: SharerSet::empty(),
                };
            }
        } else {
            h.stats.l1.miss();
        }
        let had_locally = l1_state.is_some() || h.private[cpu.index()].l2.probe(line).is_some();
        let peeked = peek.then(|| {
            let targets = h
                .shared
                .directory
                .entry(line)
                .map(|e| e.sharers.without(cpu))
                .unwrap_or_else(SharerSet::empty);
            r.llc.probe(line) || !targets.is_empty()
        });
        let fill_memory = if had_locally {
            Some(false)
        } else {
            peeked.map(|shared_hit| !shared_hit)
        };
        let (out, back_invalidated, spurious_sharers) = replay(
            r,
            RefOp::Write {
                cpu,
                line,
                fill_memory,
            },
        );
        let level = if had_locally {
            HitLevel::L2
        } else if peeked.unwrap_or(out.llc_hit || !out.invalidate_targets.is_empty()) {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        ref_fill_private(r, cpu, line, MesiState::Modified);
        WriteOutcome {
            access: AccessOutcome {
                level,
                remote_downgrade: false,
                back_invalidated,
            },
            pt_kind: out.pt_kind,
            invalidated_sharers: out.invalidate_targets,
            spurious_sharers,
        }
    }

    fn ref_mark_pt_line(
        r: &mut Reference,
        line: CacheLineAddr,
        kind: PtKind,
    ) -> Option<BackInvalidation> {
        replay(r, RefOp::MarkPt { line, kind }).1
    }

    /// A hierarchy whose directory and LLC are far smaller than the line
    /// population the seeded sequences below touch: 4 CPUs with 2-line L1s
    /// and 8-line L2s, and 2 banks, each with an 8-entry directory and a
    /// 4-line LLC.
    fn tiny_config(eager_pt_directory_update: bool) -> CacheHierarchyConfig {
        CacheHierarchyConfig {
            num_cpus: 4,
            l1: PrivateCacheConfig {
                capacity_bytes: 128,
                ways: 2,
            },
            l2: PrivateCacheConfig {
                capacity_bytes: 512,
                ways: 4,
            },
            llc_bytes: 512,
            llc_ways: 4,
            directory: DirectoryConfig { max_entries: 16 },
            eager_pt_directory_update,
        }
    }

    /// A hierarchy whose 48 LLC sets split into 16 banks of 3, so the
    /// banked slices index by `%`, not by a mask: 4 CPUs with the tiny
    /// private caches, a 2-way LLC of 96 lines and a 4-entry directory
    /// slice per bank.
    fn banked_by_three_config(eager_pt_directory_update: bool) -> CacheHierarchyConfig {
        CacheHierarchyConfig {
            llc_bytes: 48 * 2 * 64,
            llc_ways: 2,
            directory: DirectoryConfig { max_entries: 64 },
            ..tiny_config(eager_pt_directory_update)
        }
    }

    /// One step of a seeded sequence over `lines` lines and 4 CPUs.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Read(CpuId, CacheLineAddr),
        Write(CpuId, CacheLineAddr),
        MarkPt(CacheLineAddr, PtKind),
        Demote(CacheLineAddr, CpuId),
    }

    fn random_step(rng: &mut hatric_types::SimRng, lines: u64) -> Step {
        let cpu = CpuId::new(rng.below(4) as u32);
        let l = line(rng.below(lines));
        match rng.below(16) {
            0..=6 => Step::Write(cpu, l),
            7..=12 => Step::Read(cpu, l),
            13 | 14 => Step::MarkPt(
                l,
                if rng.chance(0.5) {
                    PtKind::Nested
                } else {
                    PtKind::Guest
                },
            ),
            _ => Step::Demote(l, cpu),
        }
    }

    /// Asserts that a hierarchy and the reference agree on statistics,
    /// private contents, sharer lists and LLC contents for lines
    /// `0..lines`.
    fn assert_same_state(a: &CacheHierarchy, r: &Reference, lines: u64, step: usize) {
        let b = &r.h;
        assert_eq!(a.stats(), b.stats(), "step {step}");
        assert_eq!(a.directory_stats(), b.directory_stats(), "step {step}");
        for n in 0..lines {
            assert_eq!(
                a.shared.llc_probe(line(n)),
                r.llc.probe(line(n)),
                "step {step}: the LLC holds line {n}"
            );
            for c in 0..a.config.num_cpus {
                let c = CpuId::new(c as u32);
                assert_eq!(
                    a.cpu_holds_line(c, line(n)),
                    b.cpu_holds_line(c, line(n)),
                    "step {step}: {c} holds line {n}"
                );
                assert_eq!(
                    a.is_sharer(line(n), c),
                    b.is_sharer(line(n), c),
                    "step {step}: {c} shares line {n}"
                );
            }
        }
    }

    /// Seeded read, write, page-table-marking and demotion sequences, under
    /// both sharer-update policies, on 2 banks of 2 LLC sets and on 16
    /// banks of 3: after every step the direct path with its unbanked LLC
    /// returns what the op-replay reference with its banked LLC returns,
    /// and leaves the same statistics, private contents, sharer lists and
    /// LLC contents.  Together the sequences reach back-invalidations,
    /// owner downgrades, spurious invalidations (lazy policy only) and
    /// every write service level.
    #[test]
    fn direct_path_matches_the_op_replay_reference() {
        let (mut levels, mut downgrades) = ([0u32; 4], 0);
        let mut totals = CacheStatsSnapshot::default();
        for seed in 0..12 {
            let eager = seed % 2 == 1;
            let (config, banks, lines) = if seed < 8 {
                (tiny_config(eager), 2, 32)
            } else {
                (banked_by_three_config(eager), 16, 160)
            };
            let mut direct = CacheHierarchy::new(config);
            let mut reference = Reference::new(config);
            assert_eq!(bank_count(&config), banks);
            assert_eq!(reference.llc.slices.len(), banks);
            let mut rng = hatric_types::SimRng::new(seed);
            for step in 0..3_000 {
                match random_step(&mut rng, lines) {
                    Step::Read(cpu, l) => {
                        let got = direct.read(cpu, l);
                        assert_eq!(got, ref_read(&mut reference, cpu, l), "step {step}");
                        downgrades += u32::from(got.remote_downgrade);
                    }
                    Step::Write(cpu, l) => {
                        let got = direct.write(cpu, l);
                        assert_eq!(got, ref_write(&mut reference, cpu, l, false), "step {step}");
                        levels[got.access.level as usize] += 1;
                    }
                    Step::MarkPt(l, kind) => assert_eq!(
                        direct.mark_pt_line(l, kind),
                        ref_mark_pt_line(&mut reference, l, kind),
                        "step {step}"
                    ),
                    Step::Demote(l, cpu) => {
                        direct.demote_sharer(l, cpu);
                        reference.h.demote_sharer(l, cpu);
                    }
                }
                assert_same_state(&direct, &reference, lines, step);
            }
            let stats = direct.stats();
            totals
                .back_invalidations
                .add(stats.back_invalidations.get());
            totals
                .invalidations_sent
                .add(stats.invalidations_sent.get());
            totals
                .spurious_invalidations
                .add(stats.spurious_invalidations.get());
        }
        assert!(levels.iter().all(|&n| n > 0), "write levels {levels:?}");
        assert!(downgrades > 0);
        assert!(totals.back_invalidations.get() > 0);
        assert!(totals.spurious_invalidations.get() > 0);
        assert!(totals.invalidations_sent.get() > totals.spurious_invalidations.get());
    }

    /// Every line in a CPU's L1 is in its L2 too, after every step of the
    /// seeded sequences.
    #[test]
    fn l1_stays_included_in_l2() {
        let lines = 48;
        for seed in 0..8 {
            let mut h = CacheHierarchy::new(tiny_config(seed % 2 == 1));
            let mut rng = hatric_types::SimRng::new(seed);
            for step in 0..3_000 {
                match random_step(&mut rng, lines) {
                    Step::Read(cpu, l) => drop(h.read(cpu, l)),
                    Step::Write(cpu, l) => drop(h.write(cpu, l)),
                    Step::MarkPt(l, kind) => drop(h.mark_pt_line(l, kind)),
                    Step::Demote(l, cpu) => h.demote_sharer(l, cpu),
                }
                for (cpu, pair) in h.private.iter().enumerate() {
                    for n in 0..lines {
                        if pair.l1.probe(line(n)).is_some() {
                            assert!(
                                pair.l2.probe(line(n)).is_some(),
                                "step {step}: CPU {cpu} holds line {n} in L1 only"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Seeded read, write and page-table-marking sequences on a 4-CPU
    /// hierarchy whose one bank holds a directory of 8 entries and an LLC
    /// of 4 lines, far fewer than the 48 lines used, so writes meet
    /// evictions, back-invalidations, remote sharers and LLC misses of
    /// privately held lines.  The single-probe write returns what the
    /// peek-then-apply reference returns (the replayed write that decides
    /// its service level from a peek at the directory and LLC first), and
    /// leaves the same statistics, private contents and sharer lists.
    #[test]
    fn single_probe_write_matches_peek_then_apply() {
        let config = CacheHierarchyConfig {
            num_cpus: 4,
            l1: PrivateCacheConfig {
                capacity_bytes: 256,
                ways: 2,
            },
            l2: PrivateCacheConfig {
                capacity_bytes: 1024,
                ways: 4,
            },
            llc_bytes: 256,
            llc_ways: 4,
            directory: DirectoryConfig { max_entries: 8 },
            eager_pt_directory_update: false,
        };
        let lines = 48;
        for seed in 0..8 {
            let mut single = CacheHierarchy::new(config);
            let mut reference = Reference::new(config);
            assert_eq!(bank_count(&config), 1);
            let mut rng = hatric_types::SimRng::new(seed);
            let mut levels = [0u32; 4];
            for step in 0..4_000 {
                let cpu = CpuId::new(rng.below(4) as u32);
                let l = line(rng.below(lines));
                match rng.below(8) {
                    0..=3 => {
                        let got = single.write(cpu, l);
                        assert_eq!(got, ref_write(&mut reference, cpu, l, true), "step {step}");
                        levels[got.access.level as usize] += 1;
                    }
                    4..=6 => assert_eq!(single.read(cpu, l), ref_read(&mut reference, cpu, l)),
                    _ => {
                        let kind = if rng.chance(0.5) {
                            PtKind::Nested
                        } else {
                            PtKind::Guest
                        };
                        assert_eq!(
                            single.mark_pt_line(l, kind),
                            ref_mark_pt_line(&mut reference, l, kind)
                        );
                    }
                }
                assert_same_state(&single, &reference, lines, step);
            }
            // Every write service level occurred.
            assert!(levels.iter().all(|&n| n > 0), "levels {levels:?}");
            assert!(single.stats().back_invalidations.get() > 0);
        }
    }
}
