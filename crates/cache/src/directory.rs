//! The coherence directory, extended with HATRIC's page-table bits.
//!
//! The directory tracks, per cache line, which CPUs may hold a copy (the
//! sharer list), which CPU (if any) holds it modified, and — HATRIC's
//! addition — whether the line holds guest or nested page-table entries.
//! Sharer lists are *coarse-grained* (per line, 8 PTEs) and
//! *pseudo-specific* (they do not distinguish private caches from
//! translation structures), exactly as Sec. 4.2 describes.
//!
//! Capacity is bounded; evicting a directory entry requires
//! back-invalidating the line in every sharer (and, with HATRIC, in their
//! translation structures), which the hierarchy layer performs.

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use hatric_types::{CacheLineAddr, Counter, CpuId};

use crate::line::PtKind;

/// Deterministic hashing for the entry map: capacity eviction samples the
/// map's iteration order, and `RandomState` would make two otherwise
/// identical simulations evict different victims.  The simulator promises
/// bit-identical results for a fixed seed, so the directory must too.
type DeterministicState = BuildHasherDefault<DefaultHasher>;

/// A set of CPUs, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// A set containing only `cpu`.
    #[must_use]
    pub fn only(cpu: CpuId) -> Self {
        let mut s = Self::empty();
        s.add(cpu);
        s
    }

    /// Adds a CPU to the set.
    ///
    /// # Panics
    ///
    /// Panics if the CPU index is 64 or greater.
    pub fn add(&mut self, cpu: CpuId) {
        assert!(cpu.index() < 64, "directory supports at most 64 CPUs");
        self.0 |= 1 << cpu.index();
    }

    /// Removes a CPU from the set.
    pub fn remove(&mut self, cpu: CpuId) {
        if cpu.index() < 64 {
            self.0 &= !(1 << cpu.index());
        }
    }

    /// Whether the set contains `cpu`.
    #[must_use]
    pub fn contains(&self, cpu: CpuId) -> bool {
        cpu.index() < 64 && (self.0 >> cpu.index()) & 1 == 1
    }

    /// Number of CPUs in the set.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// All CPUs in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let cpu = (bits != 0).then(|| CpuId::new(bits.trailing_zeros()))?;
            bits &= bits - 1;
            Some(cpu)
        })
    }

    /// Set difference: CPUs in `self` but not equal to `cpu`.
    #[must_use]
    pub fn without(mut self, cpu: CpuId) -> Self {
        self.remove(cpu);
        self
    }
}

/// One coherence-directory entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryEntry {
    /// CPUs that may hold a copy of the line (in caches *or* translation
    /// structures — the directory is pseudo-specific).
    pub sharers: SharerSet,
    /// CPU holding the line modified, if any.
    pub owner: Option<CpuId>,
    /// The line holds nested page-table entries.
    pub npt: bool,
    /// The line holds guest page-table entries.
    pub gpt: bool,
    /// Recency stamp used for victim selection.
    last_touch: u64,
}

impl DirectoryEntry {
    /// The page-table kind recorded for this line, if any.
    #[must_use]
    pub fn pt_kind(&self) -> Option<PtKind> {
        if self.npt {
            Some(PtKind::Nested)
        } else if self.gpt {
            Some(PtKind::Guest)
        } else {
            None
        }
    }
}

/// Directory sizing and behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryConfig {
    /// Maximum number of tracked lines; `0` means unbounded (the Fig. 12
    /// "No-back-inv" idealisation).
    pub max_entries: usize,
}

impl DirectoryConfig {
    /// A dual-grain-directory-sized default: enough entries to cover the
    /// 20 MiB LLC plus slack, as in the multi-grain directories HATRIC
    /// builds on.
    #[must_use]
    pub fn llc_sized() -> Self {
        Self {
            max_entries: (20 * 1024 * 1024 / 64) * 2,
        }
    }

    /// An unbounded directory (never back-invalidates).
    #[must_use]
    pub fn unbounded() -> Self {
        Self { max_entries: 0 }
    }
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        Self::llc_sized()
    }
}

/// Statistics kept by the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryStats {
    /// Entries allocated.
    pub allocations: Counter,
    /// Entries evicted for capacity (each triggers back-invalidations).
    pub evictions: Counter,
    /// Writes observed to lines marked as page tables.
    pub pt_writes: Counter,
    /// Sharer demotions performed lazily after spurious invalidations.
    pub lazy_demotions: Counter,
}

/// The directory proper.
#[derive(Debug, Clone)]
pub struct CoherenceDirectory {
    entries: HashMap<CacheLineAddr, DirectoryEntry, DeterministicState>,
    config: DirectoryConfig,
    clock: u64,
    stats: DirectoryStats,
}

/// Result of informing the directory about a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadNote {
    /// A remote CPU held the line modified and must be downgraded.
    pub downgraded_owner: Option<CpuId>,
    /// Whether this read allocated a fresh directory entry.
    pub allocated: bool,
}

/// Result of informing the directory about a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteNote {
    /// CPUs other than the writer that must receive invalidations.
    pub invalidate_targets: SharerSet,
    /// Page-table kind of the line, if marked.
    pub pt_kind: Option<PtKind>,
    /// Whether this write allocated a fresh directory entry.
    pub allocated: bool,
}

impl CoherenceDirectory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new(config: DirectoryConfig) -> Self {
        Self {
            entries: HashMap::default(),
            config,
            clock: 0,
            stats: DirectoryStats::default(),
        }
    }

    /// Number of tracked lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory tracks no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read-only view of an entry.
    #[must_use]
    pub fn entry(&self, line: CacheLineAddr) -> Option<&DirectoryEntry> {
        self.entries.get(&line)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// If over capacity, selects and removes a victim entry.  Returns the
    /// victim so the hierarchy can perform back-invalidations.
    fn evict_if_needed(
        &mut self,
        protect: CacheLineAddr,
    ) -> Option<(CacheLineAddr, DirectoryEntry)> {
        if self.config.max_entries == 0 || self.entries.len() <= self.config.max_entries {
            return None;
        }
        // Sample a handful of entries and evict the least recently touched.
        let victim = self
            .entries
            .iter()
            .filter(|(l, _)| **l != protect)
            .take(8)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(l, _)| *l)?;
        let entry = self.entries.remove(&victim)?;
        self.stats.evictions.incr();
        Some((victim, entry))
    }

    fn touch(entry: &mut DirectoryEntry, clock: u64) {
        entry.last_touch = clock;
    }

    /// Touches `line`'s entry, allocating it if absent, with one map probe.
    /// Returns the entry and whether it was allocated.
    fn touch_or_allocate(&mut self, line: CacheLineAddr) -> (&mut DirectoryEntry, bool) {
        self.clock += 1;
        let (entry, allocated) = match self.entries.entry(line) {
            Entry::Occupied(entry) => (entry.into_mut(), false),
            Entry::Vacant(entry) => {
                self.stats.allocations.incr();
                (entry.insert(DirectoryEntry::default()), true)
            }
        };
        Self::touch(entry, self.clock);
        (entry, allocated)
    }

    /// Records that `cpu` read `line`.  Allocates an entry if needed and
    /// returns ownership-downgrade information plus any capacity victim.
    pub fn note_read(
        &mut self,
        line: CacheLineAddr,
        cpu: CpuId,
    ) -> (ReadNote, Option<(CacheLineAddr, DirectoryEntry)>) {
        let (entry, allocated) = self.touch_or_allocate(line);
        let downgraded_owner = match entry.owner {
            Some(owner) if owner != cpu => {
                entry.owner = None;
                Some(owner)
            }
            _ => None,
        };
        entry.sharers.add(cpu);
        if allocated {
            // A fresh allocation grants the line Exclusive; remember the
            // owner so a later remote read downgrades that copy (E -> S).
            entry.owner = Some(cpu);
        }
        let note = ReadNote {
            downgraded_owner,
            allocated,
        };
        let victim = self.evict_if_needed(line);
        (note, victim)
    }

    /// Records that `cpu` wrote `line`.  Returns the set of other sharers to
    /// invalidate, the line's page-table marking, and any capacity victim.
    pub fn note_write(
        &mut self,
        line: CacheLineAddr,
        cpu: CpuId,
    ) -> (WriteNote, Option<(CacheLineAddr, DirectoryEntry)>) {
        let (entry, allocated) = self.touch_or_allocate(line);
        let targets = entry.sharers.without(cpu);
        let pt_kind = entry.pt_kind();
        entry.sharers = SharerSet::only(cpu);
        entry.owner = Some(cpu);
        if pt_kind.is_some() {
            self.stats.pt_writes.incr();
        }
        let note = WriteNote {
            invalidate_targets: targets,
            pt_kind,
            allocated,
        };
        let victim = self.evict_if_needed(line);
        (note, victim)
    }

    /// Marks a line as holding page-table entries of the given kind.  Done
    /// by the hardware walker when it first fills translations from the line
    /// (i.e. when the PTE's accessed bit was clear).
    pub fn mark_pt(&mut self, line: CacheLineAddr, kind: PtKind) {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.entry(line).or_default();
        Self::touch(entry, clock);
        match kind {
            PtKind::Nested => entry.npt = true,
            PtKind::Guest => entry.gpt = true,
        }
    }

    /// Records that `cpu`'s private caches evicted `line`.  The CPU leaves
    /// the sharer list (eager update) unless the line holds page-table
    /// entries: those keep it, since the CPU's translation structures may
    /// still cache translations from the line (HATRIC's lazy policy,
    /// Fig. 6), except in the Fig. 12 "EGR-dir-update" ablation
    /// (`eager_pt`).  A plain line left without sharers is dropped.
    pub fn note_private_eviction(&mut self, line: CacheLineAddr, cpu: CpuId, eager_pt: bool) {
        let Some(entry) = self.entries.get_mut(&line) else {
            return;
        };
        let is_pt = entry.pt_kind().is_some();
        if is_pt && !eager_pt {
            return;
        }
        entry.sharers.remove(cpu);
        if entry.owner == Some(cpu) {
            entry.owner = None;
        }
        if entry.sharers.is_empty() && !is_pt {
            self.entries.remove(&line);
        }
    }

    /// Lazily demotes `cpu` from the sharer list after it reported a
    /// spurious invalidation (the line was neither in its caches nor in its
    /// translation structures).
    pub fn demote_after_spurious(&mut self, line: CacheLineAddr, cpu: CpuId) {
        if let Some(entry) = self.entries.get_mut(&line) {
            entry.sharers.remove(cpu);
            self.stats.lazy_demotions.incr();
        }
    }

    /// Whether `cpu` is currently listed as a sharer of `line`.
    #[must_use]
    pub fn is_sharer(&self, line: CacheLineAddr, cpu: CpuId) -> bool {
        self.entries
            .get(&line)
            .map(|e| e.sharers.contains(cpu))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::new(n * 64)
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        s.add(CpuId::new(3));
        s.add(CpuId::new(5));
        assert!(s.contains(CpuId::new(3)));
        assert!(!s.contains(CpuId::new(4)));
        assert_eq!(s.count(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![CpuId::new(3), CpuId::new(5)]
        );
        s.remove(CpuId::new(3));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn read_then_write_invalidates_other_sharers() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig::unbounded());
        dir.note_read(line(1), CpuId::new(0));
        dir.note_read(line(1), CpuId::new(3));
        let (note, _) = dir.note_write(line(1), CpuId::new(1));
        let targets: Vec<_> = note.invalidate_targets.iter().collect();
        assert_eq!(targets, vec![CpuId::new(0), CpuId::new(3)]);
        // After the write only CPU 1 remains a sharer/owner.
        assert!(dir.is_sharer(line(1), CpuId::new(1)));
        assert!(!dir.is_sharer(line(1), CpuId::new(0)));
    }

    #[test]
    fn pt_marking_survives_and_reports_on_write() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig::unbounded());
        dir.note_read(line(2), CpuId::new(0));
        dir.mark_pt(line(2), PtKind::Nested);
        let (note, _) = dir.note_write(line(2), CpuId::new(1));
        assert_eq!(note.pt_kind, Some(PtKind::Nested));
        assert_eq!(dir.stats().pt_writes.get(), 1);
    }

    #[test]
    fn owner_downgrade_on_remote_read() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig::unbounded());
        dir.note_write(line(4), CpuId::new(2));
        let (note, _) = dir.note_read(line(4), CpuId::new(5));
        assert_eq!(note.downgraded_owner, Some(CpuId::new(2)));
        // A second read sees no modified owner.
        let (note2, _) = dir.note_read(line(4), CpuId::new(6));
        assert_eq!(note2.downgraded_owner, None);
    }

    #[test]
    fn capacity_eviction_reports_victim() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig { max_entries: 4 });
        let mut victims = 0;
        for i in 0..16 {
            let (_, victim) = dir.note_read(line(i), CpuId::new(0));
            if victim.is_some() {
                victims += 1;
            }
        }
        assert!(victims > 0);
        assert!(dir.len() <= 5);
        assert_eq!(dir.stats().evictions.get() as usize, victims);
    }

    /// Pins the capacity-eviction victims.  The sampled eviction picks its
    /// victim in `HashMap` iteration order, which std does not promise to
    /// keep (it depends on `DefaultHasher` and the table layout); if a
    /// toolchain changes either, every gated baseline drifts, and this test
    /// names the cause.
    #[test]
    fn eviction_victims_are_pinned() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig { max_entries: 16 });
        let mut victims = Vec::new();
        for i in 0..64u64 {
            let (_, victim) = dir.note_read(line(i * 37 % 41), CpuId::new((i % 4) as u32));
            victims.extend(victim.map(|(l, _)| l.index()));
        }
        assert_eq!(
            victims,
            [
                0, 29, 21, 17, 13, 9, 5, 1, 30, 14, 34, 10, 22, 6, 2, 39, 35, 31, 27, 19, 11, 7, 3,
                40, 36, 23, 32, 28, 24, 20, 16, 12, 8, 0, 29, 21, 17, 13, 9, 5, 1, 34
            ]
        );
    }

    #[test]
    fn lazy_demotion_removes_sharer() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig::unbounded());
        dir.note_read(line(7), CpuId::new(0));
        dir.mark_pt(line(7), PtKind::Nested);
        dir.demote_after_spurious(line(7), CpuId::new(0));
        assert!(!dir.is_sharer(line(7), CpuId::new(0)));
        assert_eq!(dir.stats().lazy_demotions.get(), 1);
    }

    #[test]
    fn remove_sharer_drops_untracked_plain_lines() {
        let mut dir = CoherenceDirectory::new(DirectoryConfig::unbounded());
        dir.note_read(line(9), CpuId::new(0));
        dir.note_private_eviction(line(9), CpuId::new(0), false);
        assert!(dir.entry(line(9)).is_none());
        // Page-table lines keep the sharer lazily...
        dir.note_read(line(10), CpuId::new(0));
        dir.mark_pt(line(10), PtKind::Guest);
        dir.note_private_eviction(line(10), CpuId::new(0), false);
        assert!(dir.is_sharer(line(10), CpuId::new(0)));
        // ...and are retained even with no sharers when updated eagerly.
        dir.note_private_eviction(line(10), CpuId::new(0), true);
        assert!(!dir.is_sharer(line(10), CpuId::new(0)));
        assert!(dir.entry(line(10)).is_some());
    }
}
