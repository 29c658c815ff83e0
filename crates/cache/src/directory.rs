//! The coherence directory, extended with HATRIC's page-table bits.
//!
//! The directory tracks, per cache line, which CPUs may hold a copy (the
//! sharer list), which CPU (if any) holds it modified, and — HATRIC's
//! addition — whether the line holds guest or nested page-table entries.
//! Sharer lists are *coarse-grained* (per line, 8 PTEs) and
//! *pseudo-specific* (they do not distinguish private caches from
//! translation structures), exactly as Sec. 4.2 describes.
//!
//! Like the sparse directories real processors build, it is
//! set-associative, and like the banked directories of many-core parts it
//! is split into slices picked by the low bits of the line index.  It is
//! one [`Ways`] table (the way store shared with the private caches):
//! slice *b* owns a run of `bank_sets` sets, and a line's set within its
//! slice is a fastrange reduction of a Fibonacci hash of its index, whose
//! high bits take in the bits the slice's constant low bits leave unused.
//! Each slice has `min(16, share)` ways per set and `ceil(share / ways)`
//! sets, where `share` is its part of the capacity; every set is one
//! 448-byte block of 16 lanes (28 bytes a lane), whatever its ways.
//! Evicting a directory entry requires back-invalidating the line in
//! every sharer (and, with HATRIC, in their translation structures),
//! which the hierarchy layer performs.

use hatric_types::{fib_hash, CacheLineAddr, Counter, CpuId};

use crate::line::PtKind;
use crate::ways::{Ways, MAX_WAYS};

/// A set of CPUs, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// One coherence-directory entry, as [`CoherenceDirectory::entry`] and
/// capacity victims report it.  The directory stores it packed in a
/// [`Slot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DirectoryEntry {
    /// CPUs that may hold a copy of the line (in caches *or* translation
    /// structures — the directory is pseudo-specific).
    pub sharers: SharerSet,
    /// CPU holding the line modified, if any.
    pub owner: Option<CpuId>,
    /// The line holds nested page-table entries.
    pub npt: bool,
    /// The line holds guest page-table entries.
    pub gpt: bool,
}

/// A directory entry as the table stores it: the sharers, and a `meta`
/// word holding the owner's index plus one (0: no owner) and the nPT and
/// gPT bits.  It pads to 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    sharers: SharerSet,
    meta: u16,
}

/// `meta` bit: the line holds nested page-table entries.
const META_NPT: u16 = 1 << 14;
/// `meta` bit: the line holds guest page-table entries.
const META_GPT: u16 = 1 << 15;
/// `meta` bits holding the owner's index plus one (0: no owner).
const META_OWNER: u16 = META_NPT - 1;

impl DirectoryEntry {
    /// The page-table kind recorded for this line, if any.
    #[must_use]
    pub fn pt_kind(self) -> Option<PtKind> {
        if self.npt {
            Some(PtKind::Nested)
        } else if self.gpt {
            Some(PtKind::Guest)
        } else {
            None
        }
    }

    /// The entry stored in `slot`.
    fn unpack(slot: Slot) -> Self {
        let owner = slot.meta & META_OWNER;
        Self {
            sharers: slot.sharers,
            owner: (owner != 0).then(|| CpuId::new(u32::from(owner - 1))),
            npt: slot.meta & META_NPT != 0,
            gpt: slot.meta & META_GPT != 0,
        }
    }

    /// The entry packed into a slot.  Owners come from sharer sets, so
    /// their index is below 64.
    fn pack(self) -> Slot {
        let owner = self.owner.map_or(0, |cpu| cpu.index() as u16 + 1);
        debug_assert!(owner <= META_OWNER, "owner index out of range");
        let meta =
            owner | if self.npt { META_NPT } else { 0 } | if self.gpt { META_GPT } else { 0 };
        Slot {
            sharers: self.sharers,
            meta,
        }
    }
}

/// Directory sizing and behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryConfig {
    /// Maximum number of tracked lines, split evenly across the
    /// directory's slices and rounded up to whole sets of `min(16, share)`
    /// ways; `0` means unbounded (the Fig. 12 "No-back-inv" idealisation).
    pub max_entries: usize,
}

impl DirectoryConfig {
    /// An unbounded directory (never back-invalidates).
    #[must_use]
    pub fn unbounded() -> Self {
        Self { max_entries: 0 }
    }
}

/// Statistics kept by the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The directory proper: one [`Ways`] table of `banks × bank_sets` sets
/// of `W` lanes, at most `W` ways each; the hierarchy's directory has
/// [`MAX_WAYS`] (16), and the tests also run one of 8.
///
/// The table starts at the odd part of a slice's full set count and all
/// slices double together when an allocation finds its set full.
/// Because the set index within a slice is a fastrange reduction,
/// doubling splits set *s* of each slice into its sets *2s* and *2s + 1*,
/// and [`Ways::resize`] keeps each set's recency order, so a bounded
/// directory holds exactly what the full-size table would, and only
/// evicts once it has reached its full size.  An unbounded directory
/// never stops doubling.
#[derive(Debug, Clone)]
pub(crate) struct CoherenceDirectory<const W: usize = MAX_WAYS> {
    ways: Ways<Slot, W>,
    /// The slice count minus one: a line's slice is its index's low bits.
    bank_mask: usize,
    /// Sets per slice now.
    bank_sets: usize,
    /// Sets per slice at full size (`usize::MAX` when unbounded).
    max_bank_sets: usize,
    stats: DirectoryStats,
}

/// Result of informing the directory about a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadNote {
    /// A remote CPU held the line modified and must be downgraded.
    pub downgraded_owner: Option<CpuId>,
    /// Whether this read allocated a fresh directory entry.
    pub allocated: bool,
}

/// Result of informing the directory about a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteNote {
    /// CPUs other than the writer that must receive invalidations.
    pub invalidate_targets: SharerSet,
    /// Page-table kind of the line, if marked.
    pub pt_kind: Option<PtKind>,
    /// Whether this write allocated a fresh directory entry.
    pub allocated: bool,
}

/// The set of `line` in a directory of `bank_mask + 1` slices of
/// `bank_sets` sets each.
fn set_of(line: CacheLineAddr, bank_mask: usize, bank_sets: usize) -> usize {
    let bank = line.index() as usize & bank_mask;
    let hash = fib_hash(line.index());
    bank * bank_sets + ((u128::from(hash) * bank_sets as u128) >> 64) as usize
}

impl<const W: usize> CoherenceDirectory<W> {
    /// Creates an empty directory of `banks` slices, each with an equal
    /// share of a bounded capacity (at least one entry) in sets of
    /// `min(W, share)` ways, `W` (16 in the hierarchy) when unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.  The ways stay within the
    /// directory's limit of 16 (its `W` lanes) by construction: a set
    /// takes `min(W, share)`.
    #[must_use]
    pub fn new(config: DirectoryConfig, banks: usize) -> Self {
        assert!(banks.is_power_of_two(), "{banks} banks");
        let (ways, max_bank_sets, bank_sets) = if config.max_entries == 0 {
            (W, usize::MAX, 1)
        } else {
            let share = (config.max_entries / banks).max(1);
            let ways = share.min(W);
            let max_sets = share.div_ceil(ways);
            (ways, max_sets, max_sets >> max_sets.trailing_zeros())
        };
        Self {
            ways: Ways::new(banks * bank_sets, ways),
            bank_mask: banks - 1,
            bank_sets,
            max_bank_sets,
            stats: DirectoryStats::default(),
        }
    }

    /// Number of tracked lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ways.len()
    }

    /// The entry of `line`, if tracked.
    #[must_use]
    pub fn entry(&self, line: CacheLineAddr) -> Option<DirectoryEntry> {
        let slot = self.ways.find(self.set_index(line), line)?;
        Some(self.load(slot))
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// The set of `line`.
    fn set_index(&self, line: CacheLineAddr) -> usize {
        set_of(line, self.bank_mask, self.bank_sets)
    }

    /// The entry in `slot`.
    fn load(&self, slot: usize) -> DirectoryEntry {
        DirectoryEntry::unpack(self.ways.value(slot))
    }

    /// Stores `entry` in `slot`.
    fn store(&mut self, slot: usize, entry: DirectoryEntry) {
        *self.ways.value_mut(slot) = entry.pack();
    }

    /// Touches `line`'s entry, allocating it if absent: a full set doubles
    /// every slice if they are below full size, or else gives up its least
    /// recently touched entry.  Returns the entry's slot, whether it was
    /// allocated, and the evicted victim, which the hierarchy must
    /// back-invalidate.
    fn touch_or_allocate(
        &mut self,
        line: CacheLineAddr,
    ) -> (usize, bool, Option<(CacheLineAddr, DirectoryEntry)>) {
        let mut set = self.set_index(line);
        if let Some(slot) = self.ways.find(set, line) {
            self.ways.touch(set, slot);
            return (slot, false, None);
        }
        while self.ways.is_full(set) && self.bank_sets < self.max_bank_sets {
            let (bank_mask, bank_sets) = (self.bank_mask, self.bank_sets * 2);
            self.ways.resize((bank_mask + 1) * bank_sets, |line| {
                set_of(line, bank_mask, bank_sets)
            });
            self.bank_sets = bank_sets;
            set = self.set_index(line);
        }
        self.stats.allocations.incr();
        let (slot, victim) = self.ways.insert(set, line, Slot::default());
        let victim = victim.map(|(line, slot)| {
            self.stats.evictions.incr();
            (line, DirectoryEntry::unpack(slot))
        });
        (slot, true, victim)
    }

    /// Records that `cpu` read `line`.  Allocates an entry if needed and
    /// returns ownership-downgrade information plus any capacity victim.
    pub fn note_read(
        &mut self,
        line: CacheLineAddr,
        cpu: CpuId,
    ) -> (ReadNote, Option<(CacheLineAddr, DirectoryEntry)>) {
        let (slot, allocated, victim) = self.touch_or_allocate(line);
        let mut entry = self.load(slot);
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
        self.store(slot, entry);
        let note = ReadNote {
            downgraded_owner,
            allocated,
        };
        (note, victim)
    }

    /// Records that `cpu` wrote `line`.  Returns the set of other sharers to
    /// invalidate, the line's page-table marking, and any capacity victim.
    pub fn note_write(
        &mut self,
        line: CacheLineAddr,
        cpu: CpuId,
    ) -> (WriteNote, Option<(CacheLineAddr, DirectoryEntry)>) {
        let (slot, allocated, victim) = self.touch_or_allocate(line);
        let mut entry = self.load(slot);
        let targets = entry.sharers.without(cpu);
        let pt_kind = entry.pt_kind();
        entry.sharers = SharerSet::only(cpu);
        entry.owner = Some(cpu);
        self.store(slot, entry);
        if pt_kind.is_some() {
            self.stats.pt_writes.incr();
        }
        let note = WriteNote {
            invalidate_targets: targets,
            pt_kind,
            allocated,
        };
        (note, victim)
    }

    /// Marks a line as holding page-table entries of the given kind.  Done
    /// by the hardware walker when it first fills translations from the line
    /// (i.e. when the PTE's accessed bit was clear).  Marking an untracked
    /// line allocates its entry, so it returns any capacity victim.
    pub fn mark_pt(
        &mut self,
        line: CacheLineAddr,
        kind: PtKind,
    ) -> Option<(CacheLineAddr, DirectoryEntry)> {
        let (slot, _, victim) = self.touch_or_allocate(line);
        self.ways.value_mut(slot).meta |= match kind {
            PtKind::Nested => META_NPT,
            PtKind::Guest => META_GPT,
        };
        victim
    }

    /// Records that `cpu`'s private caches evicted `line`.  The CPU leaves
    /// the sharer list (eager update) unless the line holds page-table
    /// entries: those keep it, since the CPU's translation structures may
    /// still cache translations from the line (HATRIC's lazy policy,
    /// Fig. 6), except in the Fig. 12 "EGR-dir-update" ablation
    /// (`eager_pt`).  A plain line left without sharers is dropped.
    pub fn note_private_eviction(&mut self, line: CacheLineAddr, cpu: CpuId, eager_pt: bool) {
        let set = self.set_index(line);
        let Some(slot) = self.ways.find(set, line) else {
            return;
        };
        let mut entry = self.load(slot);
        let is_pt = entry.pt_kind().is_some();
        if is_pt && !eager_pt {
            return;
        }
        entry.sharers.remove(cpu);
        if entry.owner == Some(cpu) {
            entry.owner = None;
        }
        self.store(slot, entry);
        if entry.sharers.is_empty() && !is_pt {
            self.ways.remove(set, slot);
        }
    }

    /// Lazily demotes `cpu` from the sharer list after it reported a
    /// spurious invalidation (the line was neither in its caches nor in its
    /// translation structures).
    pub fn demote_after_spurious(&mut self, line: CacheLineAddr, cpu: CpuId) {
        if let Some(slot) = self.ways.find(self.set_index(line), line) {
            self.ways.value_mut(slot).sharers.remove(cpu);
            self.stats.lazy_demotions.incr();
        }
    }

    /// Whether `cpu` is currently listed as a sharer of `line`.
    #[must_use]
    pub fn is_sharer(&self, line: CacheLineAddr, cpu: CpuId) -> bool {
        self.entry(line).is_some_and(|e| e.sharers.contains(cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The hierarchy's directory, of 16 lanes a set.
    type Directory = CoherenceDirectory;

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
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
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
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
        dir.note_read(line(2), CpuId::new(0));
        dir.mark_pt(line(2), PtKind::Nested);
        let (note, _) = dir.note_write(line(2), CpuId::new(1));
        assert_eq!(note.pt_kind, Some(PtKind::Nested));
        assert_eq!(dir.stats().pt_writes.get(), 1);
    }

    #[test]
    fn owner_downgrade_on_remote_read() {
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
        dir.note_write(line(4), CpuId::new(2));
        let (note, _) = dir.note_read(line(4), CpuId::new(5));
        assert_eq!(note.downgraded_owner, Some(CpuId::new(2)));
        // A second read sees no modified owner.
        let (note2, _) = dir.note_read(line(4), CpuId::new(6));
        assert_eq!(note2.downgraded_owner, None);
    }

    #[test]
    fn capacity_eviction_reports_victim() {
        let mut dir = Directory::new(DirectoryConfig { max_entries: 4 }, 1);
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

    #[test]
    fn full_set_evicts_its_least_recently_touched_entry() {
        // Four entries form one 4-way set.
        let mut dir = Directory::new(DirectoryConfig { max_entries: 4 }, 1);
        for i in 0..4 {
            dir.note_read(line(i), CpuId::new(0));
        }
        dir.note_write(line(0), CpuId::new(1));
        dir.mark_pt(line(1), PtKind::Guest);
        let (_, victim) = dir.note_read(line(9), CpuId::new(2));
        assert_eq!(victim.map(|(l, _)| l), Some(line(2)));
        let (_, victim) = dir.note_read(line(10), CpuId::new(2));
        assert_eq!(victim.map(|(l, _)| l), Some(line(3)));
    }

    /// Pins the capacity-eviction victims of a 3-set, 16-way directory, so
    /// that a change to the set index or the victim choice (either moves
    /// every gated baseline) fails here first and names the cause.
    #[test]
    fn eviction_victims_are_pinned() {
        let mut dir = Directory::new(DirectoryConfig { max_entries: 48 }, 1);
        let mut victims = Vec::new();
        for i in 0..160u64 {
            let (_, victim) =
                dir.note_read(line((i * i + 7 * i) % 127), CpuId::new((i % 4) as u32));
            victims.extend(victim.map(|(l, _)| l.index()));
        }
        assert_eq!(
            victims,
            [
                8, 71, 30, 98, 6, 17, 43, 40, 0, 76, 27, 113, 18, 84, 87, 92, 108, 37, 100, 119,
                20, 56, 77, 83, 118, 99, 63, 5, 125
            ]
        );
    }

    #[test]
    fn marking_a_line_into_a_full_set_evicts() {
        let mut dir = Directory::new(DirectoryConfig { max_entries: 2 }, 1);
        dir.note_read(line(1), CpuId::new(0));
        dir.note_read(line(1), CpuId::new(3));
        dir.mark_pt(line(1), PtKind::Nested);
        dir.note_read(line(2), CpuId::new(1));
        let (l, entry) = dir
            .mark_pt(line(3), PtKind::Guest)
            .expect("full set evicts");
        assert_eq!(l, line(1));
        assert_eq!(entry.pt_kind(), Some(PtKind::Nested));
        assert_eq!(
            entry.sharers.iter().collect::<Vec<_>>(),
            [CpuId::new(0), CpuId::new(3)]
        );
        assert_eq!(dir.len(), 2);
        assert_eq!(
            dir.entry(line(3)).and_then(DirectoryEntry::pt_kind),
            Some(PtKind::Guest)
        );
        // Marking a tracked line allocates nothing.
        assert_eq!(dir.mark_pt(line(2), PtKind::Nested), None);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        for max_entries in [1, 4, 16, 20, 64] {
            let mut dir = Directory::new(DirectoryConfig { max_entries }, 1);
            let capacity = max_entries.div_ceil(max_entries.min(16)) * max_entries.min(16);
            for i in 0..400u64 {
                let l = line(i * 7919 % 1009);
                let cpu = CpuId::new((i % 5) as u32);
                match i % 3 {
                    0 => drop(dir.note_read(l, cpu)),
                    1 => drop(dir.note_write(l, cpu)),
                    _ => drop(dir.mark_pt(l, PtKind::Nested)),
                }
                assert!(dir.len() <= capacity, "{} > {capacity}", dir.len());
            }
            assert_eq!(
                dir.len() as u64,
                dir.stats().allocations.get() - dir.stats().evictions.get()
            );
        }
    }

    #[test]
    fn unbounded_directory_never_evicts() {
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
        for i in 0..5_000u64 {
            assert_eq!(dir.note_read(line(i * 16 + 3), CpuId::new(0)).1, None);
            assert_eq!(dir.mark_pt(line(i * 16 + 7), PtKind::Guest), None);
        }
        assert_eq!(dir.len(), 10_000);
        assert!(dir.is_sharer(line(3), CpuId::new(0)));
        assert!(dir.is_sharer(line(4_999 * 16 + 3), CpuId::new(0)));
    }

    /// A fixed-geometry reference: per slice (chosen by the low bits of
    /// the line index), one `Vec` of `(line, entry, stamp)` per set at the
    /// slice's full set count of sets of at most `lanes` ways (a single
    /// unlimited set when unbounded), victims found by scanning for the
    /// oldest stamp.
    struct Reference {
        slices: Vec<Vec<Vec<(CacheLineAddr, DirectoryEntry, u64)>>>,
        ways: usize,
        clock: u64,
    }

    type Victim = Option<(CacheLineAddr, DirectoryEntry)>;

    impl Reference {
        fn new(max_entries: usize, banks: usize, lanes: usize) -> Self {
            let (sets, ways) = match max_entries {
                0 => (1, usize::MAX),
                n => {
                    let share = (n / banks).max(1);
                    (share.div_ceil(share.min(lanes)), share.min(lanes))
                }
            };
            Self {
                slices: vec![vec![Vec::new(); sets]; banks],
                ways,
                clock: 0,
            }
        }

        fn set(&mut self, line: CacheLineAddr) -> &mut Vec<(CacheLineAddr, DirectoryEntry, u64)> {
            let banks = self.slices.len();
            let slice = &mut self.slices[line.index() as usize % banks];
            let hash = u128::from(line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let set = ((hash * slice.len() as u128) >> 64) as usize;
            &mut slice[set]
        }

        fn entries(&self) -> impl Iterator<Item = &(CacheLineAddr, DirectoryEntry, u64)> {
            self.slices.iter().flatten().flatten()
        }

        fn get(&mut self, line: CacheLineAddr) -> Option<&mut DirectoryEntry> {
            self.set(line)
                .iter_mut()
                .find(|(l, _, _)| *l == line)
                .map(|(_, e, _)| e)
        }

        fn touch(&mut self, line: CacheLineAddr) -> (&mut DirectoryEntry, bool, Victim) {
            self.clock += 1;
            let (clock, ways) = (self.clock, self.ways);
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|(l, _, _)| *l == line) {
                set[pos].2 = clock;
                return (&mut set[pos].1, false, None);
            }
            let victim = (set.len() == ways).then(|| {
                let oldest = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
                let (line, entry, _) = set.remove(oldest);
                (line, entry)
            });
            set.push((line, DirectoryEntry::default(), clock));
            (&mut set.last_mut().unwrap().1, true, victim)
        }

        fn note_read(&mut self, line: CacheLineAddr, cpu: CpuId) -> (ReadNote, Victim) {
            let (entry, allocated, victim) = self.touch(line);
            let downgraded_owner = entry.owner.filter(|&owner| owner != cpu);
            if downgraded_owner.is_some() {
                entry.owner = None;
            }
            entry.sharers.add(cpu);
            if allocated {
                entry.owner = Some(cpu);
            }
            let note = ReadNote {
                downgraded_owner,
                allocated,
            };
            (note, victim)
        }

        fn note_write(&mut self, line: CacheLineAddr, cpu: CpuId) -> (WriteNote, Victim) {
            let (entry, allocated, victim) = self.touch(line);
            let note = WriteNote {
                invalidate_targets: entry.sharers.without(cpu),
                pt_kind: entry.pt_kind(),
                allocated,
            };
            entry.sharers = SharerSet::only(cpu);
            entry.owner = Some(cpu);
            (note, victim)
        }

        fn mark_pt(&mut self, line: CacheLineAddr, kind: PtKind) -> Victim {
            let (entry, _, victim) = self.touch(line);
            match kind {
                PtKind::Nested => entry.npt = true,
                PtKind::Guest => entry.gpt = true,
            }
            victim
        }

        fn note_private_eviction(&mut self, line: CacheLineAddr, cpu: CpuId, eager_pt: bool) {
            let Some(entry) = self.get(line) else {
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
                self.set(line).retain(|(l, _, _)| *l != line);
            }
        }

        fn demote_after_spurious(&mut self, line: CacheLineAddr, cpu: CpuId) {
            if let Some(entry) = self.get(line) {
                entry.sharers.remove(cpu);
            }
        }
    }

    /// Runs `ops` on a directory of `W` lanes a set and on the reference
    /// at capacity `max_entries` over `banks` slices and `lines` distinct
    /// lines, asserting the same notes, victims and entries.
    fn check_against_reference<const W: usize>(
        (max_entries, banks, lines): (usize, usize, u64),
        ops: &[(u8, u64, u32)],
    ) {
        let mut dir = CoherenceDirectory::<W>::new(DirectoryConfig { max_entries }, banks);
        let mut reference = Reference::new(max_entries, banks, W);
        let mut evictions = 0;
        for (i, &(op, n, c)) in ops.iter().enumerate() {
            let index = if banks == 1 {
                (n % lines) * 16 + 5
            } else {
                n % lines
            };
            let (l, cpu) = (line(index), CpuId::new(c));
            match op {
                0..=3 => {
                    let (note, victim) = dir.note_read(l, cpu);
                    evictions += usize::from(victim.is_some());
                    assert_eq!((note, victim), reference.note_read(l, cpu));
                }
                4..=6 => {
                    let (note, victim) = dir.note_write(l, cpu);
                    evictions += usize::from(victim.is_some());
                    assert_eq!((note, victim), reference.note_write(l, cpu));
                }
                7 | 8 => {
                    let kind = if c % 2 == 0 {
                        PtKind::Nested
                    } else {
                        PtKind::Guest
                    };
                    let victim = dir.mark_pt(l, kind);
                    evictions += usize::from(victim.is_some());
                    assert_eq!(victim, reference.mark_pt(l, kind));
                }
                9 | 10 => {
                    dir.note_private_eviction(l, cpu, op == 10);
                    reference.note_private_eviction(l, cpu, op == 10);
                }
                _ => {
                    dir.demote_after_spurious(l, cpu);
                    reference.demote_after_spurious(l, cpu);
                }
            }
            assert_eq!(dir.len(), reference.entries().count());
            if i % 64 == 0 {
                for &(l, entry, _) in reference.entries() {
                    assert_eq!(dir.entry(l), Some(entry));
                }
            }
        }
        for &(l, entry, _) in reference.entries() {
            assert_eq!(dir.entry(l), Some(entry));
        }
        assert_eq!(dir.stats().evictions.get() as usize, evictions);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random operation sequences return the same notes and victims as
        /// the fixed-geometry reference and hold the same entries, at 16
        /// lanes a set (the hierarchy's) and at 8, so sets of fewer ways
        /// than lanes and full-width sets both run.  One slice sees a
        /// bank-like line population (constant low index bits) at
        /// capacities that fill one set, split evenly into sets, leave the
        /// last set short (20), span many sets (1024), or never evict; 16
        /// slices of 4 entries, 4 of 5 and 2 unbounded ones see every
        /// index.
        #[test]
        fn matches_the_vec_of_vecs_reference(
            geometry in 0usize..8,
            ops in proptest::collection::vec((0u8..12, 0u64..4096, 0u32..6), 200..3000),
        ) {
            let geometry = [
                (4, 1, 12),
                (8, 1, 24),
                (20, 1, 60),
                (1024, 1, 1200),
                (0, 1, 600),
                (64, 16, 192),
                (20, 4, 60),
                (0, 2, 600),
            ][geometry];
            check_against_reference::<MAX_WAYS>(geometry, &ops);
            check_against_reference::<8>(geometry, &ops);
        }
    }

    #[test]
    fn lazy_demotion_removes_sharer() {
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
        dir.note_read(line(7), CpuId::new(0));
        dir.mark_pt(line(7), PtKind::Nested);
        dir.demote_after_spurious(line(7), CpuId::new(0));
        assert!(!dir.is_sharer(line(7), CpuId::new(0)));
        assert_eq!(dir.stats().lazy_demotions.get(), 1);
    }

    #[test]
    fn remove_sharer_drops_untracked_plain_lines() {
        let mut dir = Directory::new(DirectoryConfig::unbounded(), 1);
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
