//! The full cache hierarchy: per-CPU private L1/L2 caches, a shared LLC and
//! the coherence directory, glued together behind a read/write interface.
//!
//! Two execution modes share the same state:
//!
//! * the classic **serial** [`CacheHierarchy::read`]/[`CacheHierarchy::write`]
//!   path, which mutates private and shared levels in one call, and
//! * the **phased** path of the parallel slice engine: workers own disjoint
//!   [`PrivatePair`]s and *simulate* against a frozen [`SharedCache`]
//!   ([`CacheHierarchy::split_simulate`]), logging every shared-level
//!   mutation as a [`SharedCacheOp`]; at the slice barrier the ops are
//!   replayed in canonical order via [`CacheHierarchy::apply_op`].

use hatric_types::{CacheLineAddr, Counter, CpuId, RatioStat};

use crate::cache::{PrivateCache, PrivateCacheConfig};
use crate::directory::{CoherenceDirectory, DirectoryConfig, DirectoryEntry, SharerSet};
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

impl CacheHierarchyConfig {
    /// The paper's configuration: 32 KiB L1, 256 KiB L2 per CPU, 20 MiB LLC.
    #[must_use]
    pub fn haswell_like(num_cpus: usize) -> Self {
        Self {
            num_cpus,
            l1: PrivateCacheConfig::l1_default(),
            l2: PrivateCacheConfig::l2_default(),
            llc_bytes: 20 * 1024 * 1024,
            llc_ways: 16,
            directory: DirectoryConfig::llc_sized(),
            eager_pt_directory_update: false,
        }
    }
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

/// Private L1/L2 hit/miss counts accumulated by one simulate worker; the
/// commit phase folds them into [`CacheStatsSnapshot`] in canonical unit
/// order via [`CacheHierarchy::apply_stats_delta`].
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

/// One CPU's private L1/L2 pair — the unit of cache state a simulate worker
/// owns exclusively for a slice.
#[derive(Debug, Clone)]
pub struct PrivatePair {
    l1: PrivateCache,
    l2: PrivateCache,
}

/// A shared-level mutation logged by a simulate worker, replayed at the
/// slice barrier in canonical `(vm slot, emission order)` sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedCacheOp {
    /// A read that missed the private levels and consulted LLC/directory.
    Read {
        /// The reading CPU.
        cpu: CpuId,
        /// The line read.
        line: CacheLineAddr,
        /// Whether the simulate phase saw no directory entry and therefore
        /// filled the reader Exclusive.  When the replay then finds an
        /// entry (another unit allocated first), the optimistic fill is
        /// reconciled to Shared.
        predicted_allocate: bool,
    },
    /// A write that needed the directory (miss or upgrade).
    Write {
        /// The writing CPU.
        cpu: CpuId,
        /// The line written.
        line: CacheLineAddr,
        /// Whether the write is a memory-level miss (the replay then fills
        /// the LLC and counts a DRAM access).  The simulate phase passes
        /// its prediction; `None` lets the replay decide from its own
        /// probe — a miss when neither the LLC nor another sharer holds
        /// the line — as the serial path does for a line its writer does
        /// not hold privately.
        fill_memory: Option<bool>,
    },
    /// A line evicted from the worker's own private pair during simulate.
    Victim {
        /// The CPU whose private pair evicted the line.
        cpu: CpuId,
        /// The evicted line.
        line: CacheLineAddr,
        /// Whether the evicted copy was dirty (counts a writeback).
        dirty: bool,
    },
    /// The hardware walker marked a line as holding page-table entries.
    MarkPt {
        /// The page-table line.
        line: CacheLineAddr,
        /// Guest or nested page table.
        kind: PtKind,
    },
    /// Lazy sharer demotion after a spurious translation invalidation.
    DemoteSharer {
        /// The demoted CPU.
        cpu: CpuId,
        /// The line whose sharer list shrinks.
        line: CacheLineAddr,
    },
}

/// What the commit replay of one [`SharedCacheOp`] produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOutcome {
    /// The directory entry the op evicted for capacity, if any.
    pub back_invalidated: Option<BackInvalidation>,
    /// Invalidated sharers that held no private copy (spurious).
    pub spurious_sharers: SharerSet,
}

/// What a *bank* replay of one op decided from bank state alone (directory
/// note + LLC probe); private-level consequences are reported separately as
/// [`PrivEffect`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankOutcome {
    /// A fresh directory entry was allocated (reads fill Exclusive).
    pub allocated: bool,
    /// The remote owner a read downgraded, if any.
    pub downgraded_owner: Option<CpuId>,
    /// Whether the LLC held the line at replay time.
    pub llc_hit: bool,
    /// Sharers a write invalidated (commit-time directory state).
    pub invalidate_targets: SharerSet,
    /// Page-table marking of the line, if any (writes).
    pub pt_kind: Option<PtKind>,
}

impl SharedCacheOp {
    /// The cache line this op targets (the bank-distribution key).
    #[must_use]
    pub fn line(&self) -> CacheLineAddr {
        match *self {
            SharedCacheOp::Read { line, .. }
            | SharedCacheOp::Write { line, .. }
            | SharedCacheOp::Victim { line, .. }
            | SharedCacheOp::MarkPt { line, .. }
            | SharedCacheOp::DemoteSharer { line, .. } => line,
        }
    }
}

/// Predicted outcome of a simulated read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAccess {
    /// Predicted service level (from the frozen shared state).
    pub level: HitLevel,
    /// Predicted remote-owner downgrade.
    pub remote_downgrade: bool,
}

/// Predicted outcome of a simulated write.
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

    /// Fills `line` into the pair, logging evicted victims as
    /// [`SharedCacheOp::Victim`] for the commit replay (the serial path
    /// updates the directory inline instead).
    fn fill_logged(
        &mut self,
        cpu: CpuId,
        line: CacheLineAddr,
        state: MesiState,
        ops: &mut Vec<SharedCacheOp>,
    ) {
        if let Some((victim_line, victim_state)) = self.l1.fill(line, state) {
            if let Some((l2_victim, l2_state)) = self.l2.fill(victim_line, victim_state) {
                ops.push(SharedCacheOp::Victim {
                    cpu,
                    line: l2_victim,
                    dirty: l2_state.is_dirty(),
                });
            }
        }
        if let Some((l2_victim, l2_state)) = self.l2.fill(line, state) {
            // Maintain inclusion: a line falling out of L2 leaves L1 too.
            self.l1.invalidate(l2_victim);
            ops.push(SharedCacheOp::Victim {
                cpu,
                line: l2_victim,
                dirty: l2_state.is_dirty(),
            });
        }
    }

    /// Simulates a read by `cpu` against this pair plus the frozen shared
    /// state.  Shared-level consequences are appended to `ops`.
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
            self.fill_logged(cpu, line, state, ops);
            return SimAccess {
                level: HitLevel::L2,
                remote_downgrade: false,
            };
        }
        delta.l2_misses += 1;

        let bank = shared.bank(line);
        let entry = bank.directory.entry(line);
        let would_allocate = entry.is_none();
        let remote_downgrade = entry
            .and_then(|e| e.owner)
            .is_some_and(|owner| owner != cpu);
        let llc_hit = bank.llc_probe(line);
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
        self.fill_logged(cpu, line, fill_state, ops);
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

        let bank = shared.bank(line);
        let entry = bank.directory.entry(line);
        let targets = entry
            .map(|e| e.sharers.without(cpu))
            .unwrap_or_else(SharerSet::empty);
        let pt_kind = entry.and_then(DirectoryEntry::pt_kind);
        let llc_hit = bank.llc_probe(line);
        let had_locally = l1_state.is_some() || self.l2.probe(line).is_some();
        let level = if had_locally {
            HitLevel::L2
        } else if llc_hit || !targets.is_empty() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        self.fill_logged(cpu, line, MesiState::Modified, ops);
        ops.push(SharedCacheOp::Write {
            cpu,
            line,
            fill_memory: Some(level == HitLevel::Memory),
        });
        SimWrite {
            level,
            pt_kind,
            invalidated_sharers: targets,
        }
    }
}

/// One bank of the shared level: a slice of the LLC's sets plus the
/// directory entries of the lines mapping to them.
///
/// Banking serves the parallel commit: ops on different banks touch
/// disjoint state, so bank queues can be replayed concurrently.  The bank
/// count is a pure function of the LLC geometry — never of the thread
/// count — so results are identical however many workers drain the banks.
#[derive(Debug, Clone)]
pub struct CacheBank {
    llc: PrivateCache,
    directory: CoherenceDirectory,
    /// log2 of the total bank count (the stride of this bank's line
    /// population; bank counts are powers of two).  Lines routed to bank
    /// *b* all have `index ≡ b (mod bank_count)`, so the bank's internal set
    /// index uses the *folded* index `index / count` — without the fold,
    /// only `1/count` of the bank's sets would ever be reachable (the
    /// index's low bits are constant within a bank).
    fold_shift: u32,
    /// Bank-side statistics (LLC hits, DRAM accesses, invalidations sent,
    /// pt-line writes, back-invalidations, victim writebacks).  Summed over
    /// banks — integer counters, so the summation order is irrelevant.
    stats: CacheStatsSnapshot,
}

impl CacheBank {
    /// The bank-internal key of `line`: the folded index
    /// (`index / bank_count`), a bijection within the bank's line population.
    fn llc_key(&self, line: CacheLineAddr) -> CacheLineAddr {
        CacheLineAddr::new((line.index() >> self.fold_shift) * 64)
    }

    /// Whether this bank's LLC slice holds `line` (no recency effects).
    #[must_use]
    pub fn llc_probe(&self, line: CacheLineAddr) -> bool {
        self.llc.probe(self.llc_key(line)).is_some()
    }
}

/// Deferred private-level consequence of a banked op replay, resolved in
/// the serial seq-ordered pass (bank replays never touch private pairs).
#[derive(Debug, Clone, Copy)]
pub enum PrivEffect {
    /// `note_read` found a remote modified/exclusive owner: downgrade its
    /// private copies to Shared (counting a writeback if it was Modified).
    Downgrade {
        /// The owning CPU.
        owner: CpuId,
        /// The downgraded line.
        line: CacheLineAddr,
    },
    /// `note_write` listed this CPU as a sharer: invalidate its private
    /// copies (counting a spurious invalidation if it held none).
    Invalidate {
        /// The target CPU.
        target: CpuId,
        /// The invalidated line.
        line: CacheLineAddr,
    },
    /// A read replayed against an already-allocated directory entry after
    /// its simulate phase predicted a fresh allocation: the reader's
    /// privately-filled Exclusive (or silently-upgraded Modified) copy is
    /// demoted to Shared so directory state and private MESI state agree
    /// past the barrier.
    Reconcile {
        /// The CPU whose optimistic Exclusive fill is demoted.
        cpu: CpuId,
        /// The line read.
        line: CacheLineAddr,
    },
    /// A directory entry was evicted for capacity: back-invalidate the
    /// line in every sharer's private caches — and, for page-table lines,
    /// their translation structures (handled by the engine).
    BackInvalidate {
        /// The evicted line.
        line: CacheLineAddr,
        /// Its sharers at eviction time.
        sharers: SharerSet,
        /// Its page-table marking, if any.
        pt: Option<PtKind>,
    },
}

impl CacheBank {
    /// Replays one op against this bank.  Reads and writes consult/update
    /// the bank's directory slice and LLC sets and record bank-side
    /// statistics; every private-level consequence (downgrades, sharer
    /// invalidations, back-invalidations) is appended to `priv_out` tagged
    /// with the op's global `seq`, to be resolved by the serial seq-ordered
    /// pass.  Bank replays read no private state, so banks can be drained
    /// concurrently.
    pub fn apply_op(
        &mut self,
        op: &SharedCacheOp,
        seq: u64,
        eager_pt_directory_update: bool,
        priv_out: &mut Vec<(u64, PrivEffect)>,
    ) -> BankOutcome {
        let mut out = BankOutcome::default();
        match *op {
            SharedCacheOp::Read {
                cpu,
                line,
                predicted_allocate,
            } => {
                let (note, victim) = self.directory.note_read(line, cpu);
                self.push_victim(victim, seq, priv_out);
                if let Some(owner) = note.downgraded_owner {
                    priv_out.push((seq, PrivEffect::Downgrade { owner, line }));
                }
                if predicted_allocate && !note.allocated {
                    // The simulate phase filled the reader Exclusive because
                    // the frozen directory had no entry; the replay found
                    // one (another unit got there first), so the optimistic
                    // copy must be demoted to Shared or a later silent
                    // write would never invalidate the other sharers.
                    priv_out.push((seq, PrivEffect::Reconcile { cpu, line }));
                }
                let key = self.llc_key(line);
                let llc_hit = self.llc.lookup(key).is_some();
                self.stats
                    .llc
                    .record(llc_hit || note.downgraded_owner.is_some());
                if !llc_hit && note.downgraded_owner.is_none() {
                    self.stats.memory_accesses.incr();
                    self.llc.fill(key, MesiState::Shared);
                }
                out.allocated = note.allocated;
                out.downgraded_owner = note.downgraded_owner;
                out.llc_hit = llc_hit;
            }
            SharedCacheOp::Write {
                cpu,
                line,
                fill_memory,
            } => {
                let (note, victim) = self.directory.note_write(line, cpu);
                self.push_victim(victim, seq, priv_out);
                for target in note.invalidate_targets.iter() {
                    self.stats.invalidations_sent.incr();
                    priv_out.push((seq, PrivEffect::Invalidate { target, line }));
                }
                if note.pt_kind.is_some() {
                    self.stats.pt_line_writes.incr();
                }
                let key = self.llc_key(line);
                let llc_hit = self.llc.lookup(key).is_some();
                self.stats.llc.record(llc_hit);
                if fill_memory.unwrap_or(!llc_hit && note.invalidate_targets.is_empty()) {
                    self.stats.memory_accesses.incr();
                    self.llc.fill(key, MesiState::Modified);
                }
                out.allocated = note.allocated;
                out.llc_hit = llc_hit;
                out.invalidate_targets = note.invalidate_targets;
                out.pt_kind = note.pt_kind;
            }
            SharedCacheOp::Victim { cpu, line, dirty } => {
                if dirty {
                    self.stats.writebacks.incr();
                }
                // Lazy sharer updates for page-table lines (HATRIC, Fig. 6);
                // eager for everything else or when the ablation flag is set.
                self.directory
                    .note_private_eviction(line, cpu, eager_pt_directory_update);
            }
            SharedCacheOp::MarkPt { line, kind } => {
                let victim = self.directory.mark_pt(line, kind);
                self.push_victim(victim, seq, priv_out);
            }
            SharedCacheOp::DemoteSharer { cpu, line } => {
                self.directory.demote_after_spurious(line, cpu);
            }
        }
        out
    }

    fn push_victim(
        &mut self,
        victim: Option<(CacheLineAddr, DirectoryEntry)>,
        seq: u64,
        priv_out: &mut Vec<(u64, PrivEffect)>,
    ) {
        if let Some((line, entry)) = victim {
            self.stats
                .back_invalidations
                .add(u64::from(entry.sharers.count()));
            priv_out.push((
                seq,
                PrivEffect::BackInvalidate {
                    line,
                    sharers: entry.sharers,
                    pt: entry.pt_kind(),
                },
            ));
        }
    }
}

/// Everything the CPUs share: the banked LLC + coherence directory and the
/// private-side aggregate statistics.  Frozen (immutably borrowed) during
/// the simulate phase; banks are mutated either serially (classic path) or
/// by the parallel bank replay.
#[derive(Debug, Clone)]
pub struct SharedCache {
    banks: Vec<CacheBank>,
    eager_pt_directory_update: bool,
    /// Statistics fed by the private side (L1/L2 ratios, spurious
    /// invalidations, downgrade writebacks) — everything a bank replay
    /// cannot decide on its own.
    stats: CacheStatsSnapshot,
}

impl SharedCache {
    /// The largest power-of-two bank count ≤ 16 that divides the set count
    /// (falling back towards 1 for tiny test geometries).  Because it
    /// divides the set count, a line's bank is its set index mod the bank
    /// count, i.e. its line index's low bits.
    fn bank_count_for(sets: usize) -> usize {
        let mut banks = 16usize;
        while banks > 1 && (!sets.is_multiple_of(banks) || sets / banks == 0) {
            banks /= 2;
        }
        banks
    }

    /// Which bank `line` belongs to.
    #[must_use]
    pub fn bank_of(&self, line: CacheLineAddr) -> usize {
        line.index() as usize & (self.banks.len() - 1)
    }

    /// Number of banks (fixed by geometry).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    fn bank(&self, line: CacheLineAddr) -> &CacheBank {
        &self.banks[self.bank_of(line)]
    }

    /// Hands the banks out for a parallel replay (the caller distributes
    /// ops by [`SharedCache::bank_of`] and drains each bank's queue on
    /// exactly one worker).
    pub fn banks_mut(&mut self) -> &mut [CacheBank] {
        &mut self.banks
    }
}

/// The cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    private: Vec<PrivatePair>,
    shared: SharedCache,
    config: CacheHierarchyConfig,
    /// The private effects of the op being replayed serially, reused
    /// across ops.
    priv_scratch: Vec<(u64, PrivEffect)>,
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
        let llc_sets = ((config.llc_bytes / 64) as usize / config.llc_ways).max(1);
        let bank_count = SharedCache::bank_count_for(llc_sets);
        let banks = (0..bank_count)
            .map(|_| CacheBank {
                llc: PrivateCache::new(PrivateCacheConfig {
                    capacity_bytes: config.llc_bytes / bank_count as u64,
                    ways: config.llc_ways,
                }),
                fold_shift: bank_count.trailing_zeros(),
                directory: CoherenceDirectory::new(DirectoryConfig {
                    // A bounded directory splits its capacity across banks
                    // (at least one entry per bank — `0` means unbounded
                    // and must stay 0).
                    max_entries: if config.directory.max_entries == 0 {
                        0
                    } else {
                        (config.directory.max_entries / bank_count).max(1)
                    },
                }),
                stats: CacheStatsSnapshot::default(),
            })
            .collect();
        Self {
            private,
            shared: SharedCache {
                banks,
                eager_pt_directory_update: config.eager_pt_directory_update,
                stats: CacheStatsSnapshot::default(),
            },
            config,
            priv_scratch: Vec::new(),
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
        self.shared.bank(line).directory.is_sharer(line, cpu)
    }

    /// Aggregate directory statistics, summed over banks.
    #[must_use]
    pub fn directory_stats(&self) -> crate::directory::DirectoryStats {
        let mut total = crate::directory::DirectoryStats::default();
        for bank in &self.shared.banks {
            let s = bank.directory.stats();
            total.allocations.add(s.allocations.get());
            total.evictions.add(s.evictions.get());
            total.pt_writes.add(s.pt_writes.get());
            total.lazy_demotions.add(s.lazy_demotions.get());
        }
        total
    }

    /// Number of lines currently tracked by the coherence directory,
    /// summed over banks — the occupancy gauge the counter timelines
    /// sample.  Read-only: sampling it never perturbs the model.
    #[must_use]
    pub fn directory_len(&self) -> usize {
        self.shared
            .banks
            .iter()
            .map(|bank| bank.directory.len())
            .sum()
    }

    /// Splits the hierarchy for a simulate phase: the shared level is
    /// frozen, the private pairs are handed out for exclusive per-worker
    /// mutation (the caller partitions them by slice ownership).
    pub fn split_simulate(&mut self) -> (&SharedCache, &mut [PrivatePair]) {
        (&self.shared, &mut self.private)
    }

    /// Which bank a line's ops belong to (the parallel commit's
    /// distribution key).
    #[must_use]
    pub fn bank_of(&self, line: CacheLineAddr) -> usize {
        self.shared.bank_of(line)
    }

    /// Number of LLC/directory banks (fixed by geometry, independent of
    /// the worker count).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.shared.bank_count()
    }

    /// Hands the banks out for a parallel commit replay.
    pub fn banks_mut(&mut self) -> &mut [CacheBank] {
        self.shared.banks_mut()
    }

    /// Whether `cpu` currently holds `line` in its private caches.
    #[must_use]
    pub fn cpu_holds_line(&self, cpu: CpuId, line: CacheLineAddr) -> bool {
        self.private[cpu.index()].holds(line)
    }

    fn handle_private_victim(&mut self, cpu: CpuId, line: CacheLineAddr, state: MesiState) {
        let op = SharedCacheOp::Victim {
            cpu,
            line,
            dirty: state.is_dirty(),
        };
        let eager = self.shared.eager_pt_directory_update;
        let bank = self.shared.bank_of(line);
        let mut unused = Vec::new();
        self.shared.banks[bank].apply_op(&op, 0, eager, &mut unused);
        debug_assert!(unused.is_empty(), "victims have no private consequences");
    }

    fn fill_private(&mut self, cpu: CpuId, line: CacheLineAddr, state: MesiState) {
        let pair = &mut self.private[cpu.index()];
        if let Some((victim_line, victim_state)) = pair.l1.fill(line, state) {
            if let Some((l2_victim, l2_state)) = pair.l2.fill(victim_line, victim_state) {
                self.handle_private_victim(cpu, l2_victim, l2_state);
            }
        }
        let pair = &mut self.private[cpu.index()];
        if let Some((l2_victim, l2_state)) = pair.l2.fill(line, state) {
            // Maintain inclusion: a line falling out of L2 leaves L1 too.
            pair.l1.invalidate(l2_victim);
            self.handle_private_victim(cpu, l2_victim, l2_state);
        }
    }

    /// Performs a read by `cpu` of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn read(&mut self, cpu: CpuId, line: CacheLineAddr) -> AccessOutcome {
        assert!(cpu.index() < self.config.num_cpus, "unknown {cpu}");
        if self.private[cpu.index()].l1.lookup(line).is_some() {
            self.shared.stats.l1.hit();
            return AccessOutcome {
                level: HitLevel::L1,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        self.shared.stats.l1.miss();
        if let Some(state) = self.private[cpu.index()].l2.lookup(line) {
            self.shared.stats.l2.hit();
            self.fill_private(cpu, line, state);
            return AccessOutcome {
                level: HitLevel::L2,
                remote_downgrade: false,
                back_invalidated: None,
            };
        }
        self.shared.stats.l2.miss();

        let (bank_outcome, commit) = self.apply_serial(&SharedCacheOp::Read {
            cpu,
            line,
            // The serial path fills the private pair *after* the op, from
            // the replay's own outcome — nothing optimistic to reconcile.
            predicted_allocate: false,
        });
        let level = if bank_outcome.llc_hit || bank_outcome.downgraded_owner.is_some() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        let fill_state = if bank_outcome.allocated {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        self.fill_private(cpu, line, fill_state);
        AccessOutcome {
            level,
            remote_downgrade: bank_outcome.downgraded_owner.is_some(),
            back_invalidated: commit.back_invalidated,
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
        let l1_state = self.private[cpu.index()].l1.lookup(line);
        if let Some(state) = l1_state {
            self.shared.stats.l1.hit();
            if state.can_write_silently() {
                let pair = &mut self.private[cpu.index()];
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
            self.shared.stats.l1.miss();
        }

        // Upgrade or miss: one replay of the op on the directory bank, whose
        // targets and LLC hit equal a peek at the pre-op state (an
        // allocation never evicts the line it allocates, and directory ops
        // never touch the LLC).  A line held privately is an L2-level
        // upgrade and never fills from memory.
        let had_locally = l1_state.is_some() || self.private[cpu.index()].l2.probe(line).is_some();
        let (bank_outcome, commit) = self.apply_serial(&SharedCacheOp::Write {
            cpu,
            line,
            fill_memory: had_locally.then_some(false),
        });
        let level = if had_locally {
            HitLevel::L2
        } else if bank_outcome.llc_hit || !bank_outcome.invalidate_targets.is_empty() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        self.fill_private(cpu, line, MesiState::Modified);
        WriteOutcome {
            access: AccessOutcome {
                level,
                remote_downgrade: false,
                back_invalidated: commit.back_invalidated,
            },
            pt_kind: bank_outcome.pt_kind,
            invalidated_sharers: bank_outcome.invalidate_targets,
            spurious_sharers: commit.spurious_sharers,
        }
    }

    /// Replays one logged shared-level op *serially*: the bank replay plus
    /// the immediate resolution of its private-level consequences.  The
    /// initiator's private fill already happened (during simulate, or by
    /// the serial `read`/`write` caller); the replay performs the
    /// directory/LLC work, invalidations and downgrades of *other* CPUs'
    /// pairs, and the shared statistics.
    ///
    /// # Panics
    ///
    /// Panics if an op names a CPU out of range.
    pub fn apply_op(&mut self, op: &SharedCacheOp) -> CommitOutcome {
        let (_, commit) = self.apply_serial(op);
        commit
    }

    fn apply_serial(&mut self, op: &SharedCacheOp) -> (BankOutcome, CommitOutcome) {
        let eager = self.shared.eager_pt_directory_update;
        let bank = self.shared.bank_of(op.line());
        let mut privs = std::mem::take(&mut self.priv_scratch);
        privs.clear();
        let bank_outcome = self.shared.banks[bank].apply_op(op, 0, eager, &mut privs);
        let mut commit = CommitOutcome::default();
        for (_, effect) in &privs {
            if let PrivEffect::BackInvalidate { line, sharers, pt } = effect {
                debug_assert!(
                    commit.back_invalidated.is_none(),
                    "a directory op allocates, and so evicts, at most one entry"
                );
                commit.back_invalidated = Some((*line, *sharers, *pt));
            }
            if let Some(spurious) = self.resolve_priv(effect) {
                commit.spurious_sharers.add(spurious);
            }
        }
        self.priv_scratch = privs;
        (bank_outcome, commit)
    }

    /// Resolves one deferred private-level effect (the seq-ordered serial
    /// pass of the parallel commit).  Returns the target CPU when an
    /// invalidation turned out spurious.
    pub fn resolve_priv(&mut self, effect: &PrivEffect) -> Option<CpuId> {
        match *effect {
            PrivEffect::Downgrade { owner, line } => {
                let pair = &mut self.private[owner.index()];
                if pair.l1.probe(line) == Some(MesiState::Modified)
                    || pair.l2.probe(line) == Some(MesiState::Modified)
                {
                    self.shared.stats.writebacks.incr();
                }
                pair.l1.set_state(line, MesiState::Shared);
                pair.l2.set_state(line, MesiState::Shared);
                None
            }
            PrivEffect::Invalidate { target, line } => {
                let pair = &mut self.private[target.index()];
                let had_l1 = pair.l1.invalidate(line).is_some();
                let had_l2 = pair.l2.invalidate(line).is_some();
                if !had_l1 && !had_l2 {
                    self.shared.stats.spurious_invalidations.incr();
                    Some(target)
                } else {
                    None
                }
            }
            PrivEffect::Reconcile { cpu, line } => {
                let pair = &mut self.private[cpu.index()];
                match pair.l2.probe(line).or(pair.l1.probe(line)) {
                    Some(MesiState::Modified) => {
                        // A silent within-slice upgrade rode the optimistic
                        // Exclusive; the dirty data is written back as the
                        // copy demotes.
                        self.shared.stats.writebacks.incr();
                    }
                    Some(MesiState::Exclusive) => {}
                    _ => return None,
                }
                pair.l1.set_state(line, MesiState::Shared);
                pair.l2.set_state(line, MesiState::Shared);
                None
            }
            PrivEffect::BackInvalidate { line, sharers, .. } => {
                for cpu in sharers.iter() {
                    self.private[cpu.index()].l1.invalidate(line);
                    self.private[cpu.index()].l2.invalidate(line);
                }
                None
            }
        }
    }

    /// Folds one worker's private-level hit/miss counts into the shared
    /// statistics (commit phase, canonical unit order).
    pub fn apply_stats_delta(&mut self, delta: &CacheStatsDelta) {
        self.shared.stats.l1.add_hits(delta.l1_hits);
        self.shared.stats.l1.add_misses(delta.l1_misses);
        self.shared.stats.l2.add_hits(delta.l2_hits);
        self.shared.stats.l2.add_misses(delta.l2_misses);
    }

    /// Marks a line as holding page-table entries of the given kind (done by
    /// the hardware walker when it fills translation structures from a line
    /// whose accessed bit was clear).  Returns the directory entry the
    /// marking evicted, if any: its sharers were back-invalidated in their
    /// private caches, and callers must back-invalidate translation
    /// structures for page-table lines.
    pub fn mark_pt_line(&mut self, line: CacheLineAddr, kind: PtKind) -> Option<BackInvalidation> {
        let (_, commit) = self.apply_serial(&SharedCacheOp::MarkPt { line, kind });
        commit.back_invalidated
    }

    /// Lazily demotes `cpu` from `line`'s sharer list after the translation
    /// coherence layer found nothing to invalidate there.
    pub fn demote_sharer(&mut self, line: CacheLineAddr, cpu: CpuId) {
        let bank = self.shared.bank_of(line);
        self.shared.banks[bank]
            .directory
            .demote_after_spurious(line, cpu);
    }

    /// Aggregate statistics: the private-side counters plus every bank's,
    /// summed in bank order (directory statistics are available separately
    /// via [`CacheHierarchy::directory_stats`]).
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        let mut total = self.shared.stats;
        for bank in &self.shared.banks {
            total.l1.merge(bank.stats.l1);
            total.l2.merge(bank.stats.l2);
            total.llc.merge(bank.stats.llc);
            total.memory_accesses.add(bank.stats.memory_accesses.get());
            total
                .invalidations_sent
                .add(bank.stats.invalidations_sent.get());
            total
                .spurious_invalidations
                .add(bank.stats.spurious_invalidations.get());
            total
                .back_invalidations
                .add(bank.stats.back_invalidations.get());
            total.writebacks.add(bank.stats.writebacks.get());
            total.pt_line_writes.add(bank.stats.pt_line_writes.get());
        }
        total
    }

    /// Resets the aggregate statistics.
    pub fn reset_stats(&mut self) {
        self.shared.stats = CacheStatsSnapshot::default();
        for bank in &mut self.shared.banks {
            bank.stats = CacheStatsSnapshot::default();
            bank.llc.reset_stats();
        }
        for pair in &mut self.private {
            pair.l1.reset_stats();
            pair.l2.reset_stats();
        }
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
        // One directory entry per bank: marking a second line of a bank
        // evicts the first.
        let mut h = CacheHierarchy::new(CacheHierarchyConfig {
            directory: DirectoryConfig { max_entries: 16 },
            ..small_hierarchy(2).config
        });
        assert_eq!(h.bank_count(), 16);
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

    // ----- phased simulate/commit path --------------------------------------

    #[test]
    fn simulate_predicts_from_frozen_state_and_commit_replays() {
        let mut h = small_hierarchy(2);
        // Warm the shared state serially: CPU 1 owns line 5.
        h.read(CpuId::new(1), line(5));
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = h.split_simulate();
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
            h.apply_op(op);
        }
        h.apply_stats_delta(&delta);
        assert_eq!(delta.l1_hits, 1);
        assert_eq!(delta.l1_misses, 1);
        // After commit, the directory lists both CPUs as sharers.
        assert!(h.is_sharer(line(5), CpuId::new(0)));
        assert!(h.is_sharer(line(5), CpuId::new(1)));
    }

    #[test]
    fn simulated_memory_miss_fills_the_llc_at_commit() {
        let mut h = small_hierarchy(2);
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = h.split_simulate();
            let sim = pairs[0].simulate_read(shared, CpuId::new(0), line(9), &mut ops, &mut delta);
            assert_eq!(sim.level, HitLevel::Memory);
            let w = pairs[1].simulate_write(shared, CpuId::new(1), line(10), &mut ops, &mut delta);
            assert_eq!(w.level, HitLevel::Memory);
        }
        for op in &ops {
            h.apply_op(op);
        }
        assert_eq!(h.stats().memory_accesses.get(), 2);
        // The replayed fills are visible to later serial reads.
        assert_ne!(h.read(CpuId::new(1), line(9)).level, HitLevel::Memory);
    }

    #[test]
    fn simulated_write_predicts_frozen_sharers() {
        let mut h = small_hierarchy(4);
        for cpu in 0..3 {
            h.read(CpuId::new(cpu), line(4));
        }
        let mut ops = Vec::new();
        let mut delta = CacheStatsDelta::default();
        {
            let (shared, pairs) = h.split_simulate();
            let w = pairs[3].simulate_write(shared, CpuId::new(3), line(4), &mut ops, &mut delta);
            assert_eq!(w.invalidated_sharers.count(), 3);
        }
        for op in &ops {
            h.apply_op(op);
        }
        // Commit delivered the invalidations: the remote copies are gone.
        assert!(!h.cpu_holds_line(CpuId::new(0), line(4)));
        assert_eq!(h.stats().invalidations_sent.get(), 3);
    }

    // ----- single-probe serial write ----------------------------------------

    /// The peek-then-apply serial write the single-probe
    /// [`CacheHierarchy::write`] replaced: it decides the service level
    /// from a peek at the directory and LLC, then replays the op with that
    /// decision.
    fn peek_then_apply_write(
        h: &mut CacheHierarchy,
        cpu: CpuId,
        line: CacheLineAddr,
    ) -> WriteOutcome {
        let l1_state = h.private[cpu.index()].l1.lookup(line);
        if let Some(state) = l1_state {
            h.shared.stats.l1.hit();
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
            h.shared.stats.l1.miss();
        }
        let had_locally = l1_state.is_some() || h.private[cpu.index()].l2.probe(line).is_some();
        let bank = h.shared.bank(line);
        let peek_targets = bank
            .directory
            .entry(line)
            .map(|e| e.sharers.without(cpu))
            .unwrap_or_else(SharerSet::empty);
        let peek_llc_hit = bank.llc_probe(line);
        let level = if had_locally {
            HitLevel::L2
        } else if peek_llc_hit || !peek_targets.is_empty() {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        };
        let (bank_outcome, commit) = h.apply_serial(&SharedCacheOp::Write {
            cpu,
            line,
            fill_memory: Some(level == HitLevel::Memory),
        });
        h.fill_private(cpu, line, MesiState::Modified);
        WriteOutcome {
            access: AccessOutcome {
                level,
                remote_downgrade: false,
                back_invalidated: commit.back_invalidated,
            },
            pt_kind: bank_outcome.pt_kind,
            invalidated_sharers: bank_outcome.invalidate_targets,
            spurious_sharers: commit.spurious_sharers,
        }
    }

    /// Seeded read, write and page-table-marking sequences on a 4-CPU
    /// hierarchy whose one bank holds a directory of 8 entries and an LLC
    /// of 4 lines, far fewer than the 48 lines used, so writes meet
    /// evictions, back-invalidations, remote sharers and LLC misses of
    /// privately held lines.  The single-probe write returns what the peek-then-apply
    /// reference returns, and leaves the same statistics, private contents
    /// and sharer lists.
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
            let mut reference = CacheHierarchy::new(config);
            let mut rng = hatric_types::SimRng::new(seed);
            let mut levels = [0u32; 4];
            for step in 0..4_000 {
                let cpu = CpuId::new(rng.below(4) as u32);
                let l = line(rng.below(lines));
                match rng.below(8) {
                    0..=3 => {
                        let got = single.write(cpu, l);
                        assert_eq!(
                            got,
                            peek_then_apply_write(&mut reference, cpu, l),
                            "step {step}"
                        );
                        levels[got.access.level as usize] += 1;
                    }
                    4..=6 => assert_eq!(single.read(cpu, l), reference.read(cpu, l)),
                    _ => {
                        let kind = if rng.chance(0.5) {
                            PtKind::Nested
                        } else {
                            PtKind::Guest
                        };
                        assert_eq!(
                            single.mark_pt_line(l, kind),
                            reference.mark_pt_line(l, kind)
                        );
                    }
                }
                assert_eq!(single.stats(), reference.stats());
                assert_eq!(single.directory_stats(), reference.directory_stats());
                for n in 0..lines {
                    for c in 0..4 {
                        let c = CpuId::new(c);
                        assert_eq!(
                            single.cpu_holds_line(c, line(n)),
                            reference.cpu_holds_line(c, line(n))
                        );
                        assert_eq!(
                            single.is_sharer(line(n), c),
                            reference.is_sharer(line(n), c)
                        );
                    }
                }
            }
            // Every write service level occurred.
            assert!(levels.iter().all(|&n| n > 0), "levels {levels:?}");
            assert!(single.stats().back_invalidations.get() > 0);
        }
    }
}
