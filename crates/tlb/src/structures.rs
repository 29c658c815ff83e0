//! The per-CPU bundle of translation structures and the walk-assist logic
//! that decides which memory references of a two-dimensional walk can be
//! skipped thanks to MMU-cache and nested-TLB hits.

use core::fmt;
use core::ops::Deref;

use hatric_pagetable::{NestedWalkSegment, TwoDimWalk};
use hatric_types::consts::TWO_DIM_WALK_REFS;
use hatric_types::{
    AddressSpaceId, CoTag, GuestFrame, GuestVirtPage, RatioStat, SystemFrame, SystemPhysAddr, VmId,
};

use crate::mmu_cache::{MmuCache, MmuCacheConfig, MmuCacheEntry, MmuCacheHit};
use crate::ntlb::{NestedTlb, NestedTlbConfig, NestedTlbEntry};
use crate::tlb::{Tlb, TlbConfig, TlbEntry, TlbKey};

/// Sizes of every translation structure on one CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureSizes {
    /// L1 data TLB configuration.
    pub l1_tlb: TlbConfig,
    /// L2 TLB configuration.
    pub l2_tlb: TlbConfig,
    /// MMU (paging-structure) cache configuration.
    pub mmu_cache: MmuCacheConfig,
    /// Nested TLB configuration.
    pub ntlb: NestedTlbConfig,
}

impl StructureSizes {
    /// The paper's per-CPU configuration (Sec. 5.1): 64-entry L1 TLB,
    /// 512-entry L2 TLB, 48-entry paging-structure cache, 32-entry nTLB.
    #[must_use]
    pub fn haswell_like() -> Self {
        Self {
            l1_tlb: TlbConfig::l1_default(),
            l2_tlb: TlbConfig::l2_default(),
            mmu_cache: MmuCacheConfig::default_48(),
            ntlb: NestedTlbConfig::default_32(),
        }
    }

    /// Scales every structure's entry count by `factor` (Fig. 9).
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        Self {
            l1_tlb: self.l1_tlb.scaled(factor),
            l2_tlb: self.l2_tlb.scaled(factor),
            mmu_cache: self.mmu_cache.scaled(factor),
            ntlb: self.ntlb.scaled(factor),
        }
    }
}

impl Default for StructureSizes {
    fn default() -> Self {
        Self::haswell_like()
    }
}

/// Which TLB level satisfied a data lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// The L1 TLB hit.
    L1,
    /// The L2 TLB hit (the entry is promoted into L1).
    L2,
}

/// A successful data-TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLookup {
    /// The translated system-physical frame.
    pub spp: SystemFrame,
    /// Which level hit.
    pub level: TlbLevel,
    /// Whether the cached translation permits writes.
    pub writable: bool,
    /// The guest-physical frame the filling walk found (see
    /// [`TlbEntry::gpp`]); `None` for bare-metal fills.
    pub gpp: Option<GuestFrame>,
}

impl DataLookup {
    fn hit(entry: TlbEntry, level: TlbLevel) -> Self {
        Self {
            spp: entry.spp,
            level,
            writable: entry.writable,
            gpp: entry.gpp,
        }
    }
}

/// Counts of entries invalidated across the translation structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Entries removed from the L1 + L2 TLBs.
    pub tlb: u64,
    /// Entries removed from the MMU cache.
    pub mmu_cache: u64,
    /// Entries removed from the nested TLB.
    pub ntlb: u64,
}

impl InvalidationCounts {
    /// Total entries removed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tlb + self.mmu_cache + self.ntlb
    }

    /// Merges another count into this one.
    pub fn merge(&mut self, other: InvalidationCounts) {
        self.tlb += other.tlb;
        self.mmu_cache += other.mmu_cache;
        self.ntlb += other.ntlb;
    }
}

/// The system-physical addresses a walk reads, in order: an inline buffer
/// of up to [`TWO_DIM_WALK_REFS`] addresses with a length, read as a slice
/// (it derefs to `[SystemPhysAddr]`), so servicing a miss never touches
/// the heap.
#[derive(Clone, Copy)]
pub struct WalkRefs {
    addrs: [SystemPhysAddr; TWO_DIM_WALK_REFS],
    len: usize,
}

impl WalkRefs {
    fn new() -> Self {
        Self {
            addrs: [SystemPhysAddr::default(); TWO_DIM_WALK_REFS],
            len: 0,
        }
    }

    fn push(&mut self, addr: SystemPhysAddr) {
        self.addrs[self.len] = addr;
        self.len += 1;
    }

    fn extend_from_slice(&mut self, addrs: &[SystemPhysAddr]) {
        self.addrs[self.len..self.len + addrs.len()].copy_from_slice(addrs);
        self.len += addrs.len();
    }

    /// The addresses in walk order.
    #[must_use]
    pub fn as_slice(&self) -> &[SystemPhysAddr] {
        &self.addrs[..self.len]
    }
}

impl Deref for WalkRefs {
    type Target = [SystemPhysAddr];

    fn deref(&self) -> &[SystemPhysAddr] {
        self.as_slice()
    }
}

/// Compares the addresses, not the unused tail of the buffer.
impl PartialEq for WalkRefs {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WalkRefs {}

/// Prints the addresses as a list, as a `Vec` would.
impl fmt::Debug for WalkRefs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The plan for servicing a TLB miss: which memory references of the full
/// two-dimensional walk must actually be performed given current MMU-cache
/// and nested-TLB contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkAssist {
    /// System-physical addresses the walker must read, in order (inline,
    /// at most [`TWO_DIM_WALK_REFS`]).
    pub refs: WalkRefs,
    /// The MMU-cache hit level (2..=4) if any.
    pub psc_hit_level: Option<u8>,
    /// Nested-TLB hits during this walk.
    pub ntlb_hits: u32,
    /// Nested-TLB misses during this walk.
    pub ntlb_misses: u32,
    /// Whether the accessed bit of the nested leaf entry still needs to be
    /// set (i.e. the walker must notify the coherence directory that this
    /// page-table line is now cached in translation structures).
    pub sets_accessed_bit: bool,
}

impl WalkAssist {
    /// Number of memory references actually performed.
    #[must_use]
    pub fn memory_references(&self) -> usize {
        self.refs.len()
    }
}

/// Snapshot of hit/miss statistics for every structure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TranslationStatsSnapshot {
    /// L1 TLB hits/misses.
    pub l1_tlb: RatioStat,
    /// L2 TLB hits/misses.
    pub l2_tlb: RatioStat,
    /// MMU cache hits/misses.
    pub mmu_cache: RatioStat,
    /// Nested TLB hits/misses.
    pub ntlb: RatioStat,
}

/// The per-CPU last-translation register: the key of the latest data
/// lookup or fill, that key's set hash, and the key's L1 entry.
#[derive(Debug, Clone, Copy)]
struct LastTranslation {
    key: TlbKey,
    /// `Tlb::hash(&key)`, so a run of lookups and fills of one page hashes
    /// once.
    hash: u64,
    /// The key's L1 entry, kept only while that entry is known to sit at
    /// way 0 of its L1 set.  A full lookup would find it there and move
    /// nothing, so a register hit only has to count the L1 hit.
    l1: Option<TlbEntry>,
}

impl LastTranslation {
    fn new(key: TlbKey) -> Self {
        Self {
            key,
            hash: Tlb::hash(&key),
            l1: None,
        }
    }
}

/// All translation structures of one CPU, with co-tag support.
///
/// Data lookups and fills go through a last-translation register.  Only
/// [`TranslationStructures::lookup_data`] and
/// [`TranslationStructures::fill_data`] (and the fill at the end of
/// [`TranslationStructures::service_miss`]) reorder the L1 TLB, and each
/// of them leaves its key at way 0 of its L1 set, or absent from L1 after a
/// miss; the register records that key and its L1 entry.  Every other L1
/// mutation (the co-tag invalidations and the flushes) drops the recorded
/// entry.  A lookup that repeats the previous key on this CPU therefore
/// hits without hashing or scanning, and a page run hashes its key once.
#[derive(Debug, Clone)]
pub struct TranslationStructures {
    l1: Tlb,
    l2: Tlb,
    mmu: MmuCache,
    ntlb: NestedTlb,
    cotag_bytes: u8,
    last: LastTranslation,
}

impl TranslationStructures {
    /// Creates empty structures with the given sizes and co-tag width.
    #[must_use]
    pub fn new(sizes: &StructureSizes, cotag_bytes: u8) -> Self {
        Self {
            l1: Tlb::new(sizes.l1_tlb),
            l2: Tlb::new(sizes.l2_tlb),
            mmu: MmuCache::new(sizes.mmu_cache),
            ntlb: NestedTlb::new(sizes.ntlb),
            cotag_bytes,
            last: LastTranslation::new(TlbKey::default()),
        }
    }

    /// Co-tag width in bytes.
    #[must_use]
    pub fn cotag_bytes(&self) -> u8 {
        self.cotag_bytes
    }

    fn cotag(&self, pte_addr: SystemPhysAddr) -> CoTag {
        CoTag::from_pte_addr(pte_addr, self.cotag_bytes)
    }

    /// Looks up a data translation in the L1 then L2 TLB.  An L2 hit is
    /// promoted into L1.  The key is hashed once for both levels, and not
    /// at all when it repeats the previous lookup or fill on this CPU; a
    /// repeat that hit L1 last time hits again without a set scan.
    pub fn lookup_data(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
    ) -> Option<DataLookup> {
        let key = TlbKey { vm, asid, gvp };
        if key == self.last.key {
            if let Some(entry) = self.last.l1 {
                self.l1.record_hit();
                return Some(DataLookup::hit(entry, TlbLevel::L1));
            }
        } else {
            self.last = LastTranslation::new(key);
        }
        let hash = self.last.hash;
        if let Some(entry) = self.l1.lookup_hashed(&key, hash) {
            self.last.l1 = Some(entry);
            return Some(DataLookup::hit(entry, TlbLevel::L1));
        }
        if let Some(entry) = self.l2.lookup_hashed(&key, hash) {
            let victim = self.l1.fill_hashed(key, hash, entry);
            self.write_back(key, victim);
            self.last.l1 = Some(entry);
            return Some(DataLookup::hit(entry, TlbLevel::L2));
        }
        None
    }

    /// Fills the TLBs with a data translation from a completed walk (or from
    /// a bare-metal fill when `guest_pte_addr` is `None`).  The entry
    /// carries no guest frame; [`TranslationStructures::service_miss`]
    /// fills walked translations with theirs.  The key is hashed once for
    /// both levels, and not at all when it repeats the previous lookup.
    pub fn fill_data(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
        spp: SystemFrame,
        nested_pte_addr: SystemPhysAddr,
        guest_pte_addr: Option<SystemPhysAddr>,
    ) {
        let key = TlbKey { vm, asid, gvp };
        self.fill(key, spp, nested_pte_addr, guest_pte_addr, None);
    }

    /// Fills both TLB levels with `key`'s translation and records it in the
    /// last-translation register.
    fn fill(
        &mut self,
        key: TlbKey,
        spp: SystemFrame,
        nested_pte_addr: SystemPhysAddr,
        guest_pte_addr: Option<SystemPhysAddr>,
        gpp: Option<GuestFrame>,
    ) {
        let entry = TlbEntry {
            spp,
            nested_cotag: self.cotag(nested_pte_addr),
            guest_cotag: guest_pte_addr.map(|a| self.cotag(a)),
            writable: true,
            gpp,
        };
        if key != self.last.key {
            self.last = LastTranslation::new(key);
        }
        let hash = self.last.hash;
        let victim = self.l1.fill_hashed(key, hash, entry);
        self.write_back(key, victim);
        self.l2.fill_hashed(key, hash, entry);
        self.last.l1 = Some(entry);
    }

    /// Writes the L1 victim of filling `key` back into L2 (exclusive-ish
    /// policy keeps the victim visible at the next level).  The victim is
    /// filed under `key`'s VM and ASID with its own page number, so a
    /// victim from another VM drops its guest frame: the frame belongs to
    /// the other VM's page table, and a hit must translate instead.
    fn write_back(&mut self, key: TlbKey, victim: Option<(TlbKey, TlbEntry)>) {
        if let Some((victim_key, mut victim)) = victim {
            if victim_key.vm != key.vm {
                victim.gpp = None;
            }
            self.l2.fill(key.vm, key.asid, victim_key.gvp, victim);
        }
    }

    fn ntlb_translate(
        &mut self,
        vm: VmId,
        segment: &NestedWalkSegment,
        refs: &mut WalkRefs,
        hits: &mut u32,
        misses: &mut u32,
    ) {
        if self.ntlb.lookup(vm, segment.gpp).is_some() {
            *hits += 1;
        } else {
            *misses += 1;
            refs.extend_from_slice(&segment.step_addrs);
            self.ntlb.fill(
                vm,
                segment.gpp,
                NestedTlbEntry {
                    spp: segment.spp,
                    cotag: self.cotag(segment.leaf_pte_addr()),
                },
            );
        }
    }

    /// Services a TLB miss: consults the MMU cache and nested TLB to decide
    /// which of the walk's 24 references are actually needed, fills every
    /// structure (MMU cache levels 4..2, nTLB segments, and both TLBs with
    /// the final translation), and returns the plan.
    ///
    /// `accessed_bit_was_clear` should be `true` when the nested leaf entry's
    /// accessed bit was clear before this walk — in that case the walker must
    /// inform the coherence directory that the line now feeds translation
    /// structures (Sec. 4.2, "Directory entry changes").
    pub fn service_miss(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        walk: &TwoDimWalk,
        accessed_bit_was_clear: bool,
    ) -> WalkAssist {
        let mut refs = WalkRefs::new();
        let mut ntlb_hits = 0;
        let mut ntlb_misses = 0;

        let psc_hit = self.mmu.lookup_longest(vm, asid, walk.gvp);
        let start_level = match psc_hit {
            Some(MmuCacheHit { level, .. }) => level - 1,
            None => 4,
        };

        for step in &walk.guest_steps {
            if step.level > start_level {
                continue;
            }
            // The first performed level after a PSC hit already knows its
            // node's system frame; deeper levels must translate the node's
            // guest-physical frame through the nTLB or the nested table.
            let first_after_psc = psc_hit.is_some() && step.level == start_level;
            if !first_after_psc {
                self.ntlb_translate(
                    vm,
                    &step.table_segment,
                    &mut refs,
                    &mut ntlb_hits,
                    &mut ntlb_misses,
                );
            }
            refs.push(step.guest_pte_addr);
        }

        // Final nested walk for the data frame.
        self.ntlb_translate(
            vm,
            &walk.data_segment,
            &mut refs,
            &mut ntlb_hits,
            &mut ntlb_misses,
        );

        // Fill the paging-structure cache: an entry at level L points at the
        // guest node of level L-1, whose location the walk just established.
        // The node at `step.level - 1` is the table the *next* guest step
        // reads (steps run gL4 .. gL1); its system frame is that step's table
        // segment result.
        for pair in walk.guest_steps.windows(2) {
            let (step, next) = (&pair[0], &pair[1]);
            debug_assert_eq!(next.level + 1, step.level, "guest steps run gL4 .. gL1");
            self.mmu.fill(
                vm,
                asid,
                walk.gvp,
                step.level,
                MmuCacheEntry {
                    node_spp: next.table_segment.spp,
                    nested_cotag: self.cotag(next.table_segment.leaf_pte_addr()),
                    guest_cotag: self.cotag(step.guest_pte_addr),
                },
            );
        }

        // Finally fill the TLBs with the requested translation.
        let key = TlbKey {
            vm,
            asid,
            gvp: walk.gvp,
        };
        self.fill(
            key,
            walk.spp,
            walk.nested_leaf_pte_addr(),
            Some(walk.guest_leaf_pte_addr()),
            Some(walk.gpp),
        );

        WalkAssist {
            refs,
            psc_hit_level: psc_hit.map(|h| h.level),
            ntlb_hits,
            ntlb_misses,
            sets_accessed_bit: accessed_bit_was_clear,
        }
    }

    /// Invalidates every entry (in all structures) whose co-tag matches the
    /// co-tag of the given page-table cache line.
    pub fn invalidate_cotag(&mut self, cotag: CoTag) -> InvalidationCounts {
        self.last.l1 = None;
        InvalidationCounts {
            tlb: self.l1.invalidate_cotag(cotag) + self.l2.invalidate_cotag(cotag),
            mmu_cache: self.mmu.invalidate_cotag(cotag),
            ntlb: self.ntlb.invalidate_cotag(cotag),
        }
    }

    /// Invalidates TLB entries only (UNITD-style hardware coherence, which
    /// does not extend to MMU caches or nested TLBs); the other structures
    /// are flushed wholesale.
    pub fn invalidate_cotag_tlb_only(&mut self, cotag: CoTag) -> InvalidationCounts {
        self.last.l1 = None;
        InvalidationCounts {
            tlb: self.l1.invalidate_cotag(cotag) + self.l2.invalidate_cotag(cotag),
            mmu_cache: self.mmu.flush_all(),
            ntlb: self.ntlb.flush_all(),
        }
    }

    /// Flushes every structure (the software-coherence baseline's VM-exit
    /// path); returns how many entries were lost.
    pub fn flush_all(&mut self) -> InvalidationCounts {
        self.last.l1 = None;
        InvalidationCounts {
            tlb: self.l1.flush_all() + self.l2.flush_all(),
            mmu_cache: self.mmu.flush_all(),
            ntlb: self.ntlb.flush_all(),
        }
    }

    /// Flushes every entry belonging to `vm`.
    pub fn flush_vm(&mut self, vm: VmId) -> InvalidationCounts {
        self.last.l1 = None;
        InvalidationCounts {
            tlb: self.l1.flush_vm(vm) + self.l2.flush_vm(vm),
            mmu_cache: self.mmu.flush_vm(vm),
            ntlb: self.ntlb.flush_vm(vm),
        }
    }

    /// Total number of valid entries across all structures.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.l1.len() + self.l2.len() + self.mmu.len() + self.ntlb.len()
    }

    /// Hit/miss statistics for every structure.
    #[must_use]
    pub fn stats(&self) -> TranslationStatsSnapshot {
        TranslationStatsSnapshot {
            l1_tlb: self.l1.stats(),
            l2_tlb: self.l2.stats(),
            mmu_cache: self.mmu.stats(),
            ntlb: self.ntlb.stats(),
        }
    }

    /// Resets all hit/miss statistics.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.mmu.reset_stats();
        self.ntlb.reset_stats();
    }
}

#[cfg(test)]
impl TranslationStructures {
    /// Drops the last-translation register, so the next call takes the
    /// full path (hash, set scan) as if no earlier call had been made.
    fn forget_last(&mut self) {
        self.last = LastTranslation::new(TlbKey::default());
    }
}

#[cfg(test)]
impl TranslationStructures {
    /// The `Vec`-based [`TranslationStructures::service_miss`] the inline
    /// [`WalkRefs`] buffer replaced, kept as its oracle.  Returns the refs,
    /// the MMU-cache hit level and the nTLB hits and misses.
    fn service_miss_vec(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        walk: &TwoDimWalk,
    ) -> (Vec<SystemPhysAddr>, Option<u8>, u32, u32) {
        fn translate(
            ts: &mut TranslationStructures,
            vm: VmId,
            segment: &NestedWalkSegment,
            refs: &mut Vec<SystemPhysAddr>,
            hits: &mut u32,
            misses: &mut u32,
        ) {
            if ts.ntlb.lookup(vm, segment.gpp).is_some() {
                *hits += 1;
            } else {
                *misses += 1;
                refs.extend(segment.step_addrs.iter().copied());
                let cotag = ts.cotag(segment.leaf_pte_addr());
                ts.ntlb.fill(
                    vm,
                    segment.gpp,
                    NestedTlbEntry {
                        spp: segment.spp,
                        cotag,
                    },
                );
            }
        }
        let mut refs = Vec::with_capacity(walk.memory_references());
        let (mut hits, mut misses) = (0, 0);
        let psc_hit = self.mmu.lookup_longest(vm, asid, walk.gvp);
        let start_level = psc_hit.map_or(4, |h| h.level - 1);
        for step in &walk.guest_steps {
            if step.level > start_level {
                continue;
            }
            if !(psc_hit.is_some() && step.level == start_level) {
                translate(
                    self,
                    vm,
                    &step.table_segment,
                    &mut refs,
                    &mut hits,
                    &mut misses,
                );
            }
            refs.push(step.guest_pte_addr);
        }
        translate(
            self,
            vm,
            &walk.data_segment,
            &mut refs,
            &mut hits,
            &mut misses,
        );
        for pair in walk.guest_steps.windows(2) {
            let (step, next) = (&pair[0], &pair[1]);
            let entry = MmuCacheEntry {
                node_spp: next.table_segment.spp,
                nested_cotag: self.cotag(next.table_segment.leaf_pte_addr()),
                guest_cotag: self.cotag(step.guest_pte_addr),
            };
            self.mmu.fill(vm, asid, walk.gvp, step.level, entry);
        }
        let key = TlbKey {
            vm,
            asid,
            gvp: walk.gvp,
        };
        self.fill(
            key,
            walk.spp,
            walk.nested_leaf_pte_addr(),
            Some(walk.guest_leaf_pte_addr()),
            Some(walk.gpp),
        );
        (refs, psc_hit.map(|h| h.level), hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu_cache::MmuCacheConfig;
    use crate::ntlb::NestedTlbConfig;
    use hatric_pagetable::{GuestPageTable, NestedPageTable, TwoDimWalker};
    use hatric_types::SimRng;

    fn setup_walk(gvp: u64, gpp: u64, spp: u64) -> (GuestPageTable, NestedPageTable, TwoDimWalk) {
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000));
        guest.map(GuestVirtPage::new(gvp), GuestFrame::new(gpp));
        nested.map(GuestFrame::new(gpp), SystemFrame::new(spp));
        for node in guest.node_frames() {
            nested.map(node, SystemFrame::new(node.number() + 0x100_000));
        }
        let walk = TwoDimWalker::walk(GuestVirtPage::new(gvp), &guest, &nested).unwrap();
        (guest, nested, walk)
    }

    #[test]
    fn cold_miss_performs_full_walk() {
        let (_, _, walk) = setup_walk(0x42, 0x77, 0x99);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        let assist = ts.service_miss(VmId::new(0), AddressSpaceId::new(0), &walk, true);
        assert_eq!(assist.memory_references(), 24);
        assert!(assist.psc_hit_level.is_none());
        assert!(assist.sets_accessed_bit);
    }

    #[test]
    fn second_miss_to_neighbour_page_is_cheap() {
        // After walking page P, a walk of P+1 should hit the level-2 PSC
        // entry and the nTLB for the data region's table, leaving only the
        // gL1 read plus the data nested walk (or fewer).
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000));
        for page in [0x42u64, 0x43u64] {
            guest.map(GuestVirtPage::new(page), GuestFrame::new(0x100 + page));
            nested.map(
                GuestFrame::new(0x100 + page),
                SystemFrame::new(0x9000 + page),
            );
        }
        for node in guest.node_frames() {
            nested.map(node, SystemFrame::new(node.number() + 0x100_000));
        }
        let vm = VmId::new(0);
        let asid = AddressSpaceId::new(0);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);

        let walk1 = TwoDimWalker::walk(GuestVirtPage::new(0x42), &guest, &nested).unwrap();
        let first = ts.service_miss(vm, asid, &walk1, true);
        assert_eq!(first.memory_references(), 24);

        let walk2 = TwoDimWalker::walk(GuestVirtPage::new(0x43), &guest, &nested).unwrap();
        let second = ts.service_miss(vm, asid, &walk2, true);
        assert_eq!(second.psc_hit_level, Some(2));
        assert!(
            second.memory_references() <= 5,
            "got {}",
            second.memory_references()
        );
    }

    #[test]
    fn tlb_hit_after_fill() {
        let (_, _, walk) = setup_walk(0x42, 0x77, 0x99);
        let vm = VmId::new(0);
        let asid = AddressSpaceId::new(0);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        ts.service_miss(vm, asid, &walk, true);
        let hit = ts.lookup_data(vm, asid, GuestVirtPage::new(0x42)).unwrap();
        assert_eq!(hit.spp, SystemFrame::new(0x99));
        assert_eq!(hit.level, TlbLevel::L1);
    }

    #[test]
    fn cotag_invalidation_after_walk_removes_translation() {
        let (_, nested, walk) = setup_walk(0x42, 0x77, 0x99);
        let vm = VmId::new(0);
        let asid = AddressSpaceId::new(0);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        ts.service_miss(vm, asid, &walk, true);
        // The hypervisor remaps GPP 0x77: the store hits the nested leaf
        // entry, whose co-tag must invalidate the TLB entry.
        let pte_addr = nested.leaf_entry_addr(GuestFrame::new(0x77)).unwrap();
        let counts = ts.invalidate_cotag(CoTag::from_pte_addr(pte_addr, 2));
        assert!(counts.tlb >= 1);
        assert!(ts.lookup_data(vm, asid, GuestVirtPage::new(0x42)).is_none());
    }

    #[test]
    fn flush_all_counts_everything() {
        let (_, _, walk) = setup_walk(0x42, 0x77, 0x99);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        ts.service_miss(VmId::new(0), AddressSpaceId::new(0), &walk, true);
        let occupancy = ts.occupancy() as u64;
        let counts = ts.flush_all();
        assert_eq!(counts.total(), occupancy);
        assert_eq!(ts.occupancy(), 0);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let vm = VmId::new(0);
        let asid = AddressSpaceId::new(0);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        // Fill many pages so early ones fall out of the small L1 but stay in L2.
        for i in 0..128u64 {
            ts.fill_data(
                vm,
                asid,
                GuestVirtPage::new(i),
                SystemFrame::new(i),
                SystemPhysAddr::new(i * 8),
                None,
            );
        }
        let lookup = ts.lookup_data(vm, asid, GuestVirtPage::new(0)).unwrap();
        assert_eq!(lookup.level, TlbLevel::L2);
        let again = ts.lookup_data(vm, asid, GuestVirtPage::new(0)).unwrap();
        assert_eq!(again.level, TlbLevel::L1);
    }

    #[test]
    fn unitd_style_invalidation_flushes_mmu_and_ntlb() {
        let (_, nested, walk) = setup_walk(0x42, 0x77, 0x99);
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        ts.service_miss(VmId::new(0), AddressSpaceId::new(0), &walk, true);
        let pte_addr = nested.leaf_entry_addr(GuestFrame::new(0x77)).unwrap();
        let counts = ts.invalidate_cotag_tlb_only(CoTag::from_pte_addr(pte_addr, 2));
        assert!(counts.tlb >= 1);
        assert!(
            counts.mmu_cache >= 1,
            "MMU cache should be flushed wholesale"
        );
        assert!(counts.ntlb >= 1, "nTLB should be flushed wholesale");
    }

    /// A small geometry: an 8-entry 2-way L1, a 32-entry 4-way L2.
    fn small_sizes() -> StructureSizes {
        StructureSizes {
            l1_tlb: TlbConfig {
                entries: 8,
                ways: 2,
            },
            l2_tlb: TlbConfig {
                entries: 32,
                ways: 4,
            },
            mmu_cache: MmuCacheConfig {
                entries: 8,
                ways: 2,
            },
            ntlb: NestedTlbConfig {
                entries: 4,
                ways: 4,
            },
        }
    }

    const PAGES: u64 = 40;

    fn page_gvp(page: u64) -> GuestVirtPage {
        // Spread the pages over several guest leaf tables and PTE lines.
        GuestVirtPage::new(page * 37 + (page / 10) * 0x200)
    }

    /// One VM's page tables with `PAGES` mapped pages, and every page's
    /// walk (VM-specific guest and system frames and PTE addresses).
    fn vm_walks(vm: u64) -> Vec<TwoDimWalk> {
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000 + vm * 0x40_000));
        for page in 0..PAGES {
            let gpp = GuestFrame::new(0x200 + vm * 0x100 + page);
            guest.map(page_gvp(page), gpp);
            nested.map(gpp, SystemFrame::new(0x9000 + vm * 0x1000 + page));
        }
        for node in guest.node_frames() {
            nested.map(
                node,
                SystemFrame::new(node.number() + 0x100_000 + vm * 0x10_000),
            );
        }
        (0..PAGES)
            .map(|page| TwoDimWalker::walk(page_gvp(page), &guest, &nested).unwrap())
            .collect()
    }

    /// The register against the full path: one structure keeps its
    /// last-translation register, the reference drops it before every
    /// call.  About 70% of operations repeat the previous key.  Every
    /// lookup (guest frame included), walk plan, invalidation count,
    /// statistic and occupancy must agree, and so must both TLBs' contents.
    #[test]
    fn register_matches_the_full_path() {
        let walks = [vm_walks(0), vm_walks(1)];
        let bare_pte =
            |vm: u64, page: u64| SystemPhysAddr::new(0x7000_0000 + vm * 0x1000 + page * 8);
        let mut repeat_l1_hits = 0;
        for seed in 0..8 {
            let mut rng = SimRng::new(0x1a57_0000 + seed);
            let mut fast = TranslationStructures::new(&small_sizes(), 2);
            let mut reference = fast.clone();
            let mut prev = (0, 0, 0);
            for _ in 0..4000 {
                let key = if rng.chance(0.7) {
                    prev
                } else {
                    (rng.below(2), rng.below(2), rng.below(PAGES))
                };
                let (vm, asid, page) = key;
                let (vm_id, asid_id) = (VmId::new(vm as u32), AddressSpaceId::new(asid as u32));
                let walk = &walks[vm as usize][page as usize];
                let cotag = CoTag::from_pte_addr(
                    match rng.below(4) {
                        0 => walk.nested_leaf_pte_addr(),
                        1 => walk.guest_leaf_pte_addr(),
                        2 => walk.guest_steps[2].table_segment.leaf_pte_addr(),
                        _ => bare_pte(vm, page),
                    },
                    2,
                );
                reference.forget_last();
                match rng.below(100) {
                    0..=54 => {
                        let got = fast.lookup_data(vm_id, asid_id, walk.gvp);
                        let want = reference.lookup_data(vm_id, asid_id, walk.gvp);
                        assert_eq!(got, want);
                        if key == prev && got.is_some_and(|hit| hit.level == TlbLevel::L1) {
                            repeat_l1_hits += 1;
                        }
                        if got.is_none() && rng.chance(0.6) {
                            reference.forget_last();
                            assert_eq!(
                                fast.service_miss(vm_id, asid_id, walk, true),
                                reference.service_miss(vm_id, asid_id, walk, true)
                            );
                        }
                    }
                    55..=64 => {
                        let spp = SystemFrame::new(0x5000 + page);
                        for ts in [&mut fast, &mut reference] {
                            ts.fill_data(vm_id, asid_id, walk.gvp, spp, bare_pte(vm, page), None);
                        }
                    }
                    65..=74 => assert_eq!(
                        fast.service_miss(vm_id, asid_id, walk, false),
                        reference.service_miss(vm_id, asid_id, walk, false)
                    ),
                    75..=86 => assert_eq!(
                        fast.invalidate_cotag(cotag),
                        reference.invalidate_cotag(cotag)
                    ),
                    87..=94 => assert_eq!(
                        fast.invalidate_cotag_tlb_only(cotag),
                        reference.invalidate_cotag_tlb_only(cotag)
                    ),
                    95..=97 => assert_eq!(fast.flush_vm(vm_id), reference.flush_vm(vm_id)),
                    _ => assert_eq!(fast.flush_all(), reference.flush_all()),
                }
                assert_eq!(fast.stats(), reference.stats());
                assert_eq!(fast.occupancy(), reference.occupancy());
                prev = key;
            }
            for vm in 0..2 {
                for asid in 0..2 {
                    for page in 0..PAGES {
                        let (vm, asid, gvp) =
                            (VmId::new(vm), AddressSpaceId::new(asid), page_gvp(page));
                        assert_eq!(
                            fast.l1.probe(vm, asid, gvp),
                            reference.l1.probe(vm, asid, gvp)
                        );
                        assert_eq!(
                            fast.l2.probe(vm, asid, gvp),
                            reference.l2.probe(vm, asid, gvp)
                        );
                    }
                }
            }
        }
        assert!(
            repeat_l1_hits > 4000,
            "only {repeat_l1_hits} repeat L1 hits"
        );
    }

    /// The inline refs buffer against the `Vec`-based walk plan: seeded
    /// misses of two VMs' pages on small structures (so MMU-cache and nTLB
    /// hits and misses mix), with co-tag invalidations in between.  Every
    /// plan and the structures' state afterwards must agree.
    #[test]
    fn inline_refs_match_the_vec_walk_plan() {
        let walks = [vm_walks(0), vm_walks(1)];
        let mut refs_seen = [0usize; TWO_DIM_WALK_REFS + 1];
        for seed in 0..8 {
            let mut rng = SimRng::new(0x7e5f_0000 + seed);
            let mut inline = TranslationStructures::new(&small_sizes(), 2);
            let mut reference = inline.clone();
            for _ in 0..1500 {
                let vm = rng.below(2);
                let walk = &walks[vm as usize][rng.below(PAGES) as usize];
                let (vm, asid) = (
                    VmId::new(vm as u32),
                    AddressSpaceId::new(rng.below(2) as u32),
                );
                if rng.chance(0.15) {
                    let cotag =
                        CoTag::from_pte_addr(walk.guest_steps[3].table_segment.leaf_pte_addr(), 2);
                    assert_eq!(
                        inline.invalidate_cotag(cotag),
                        reference.invalidate_cotag(cotag)
                    );
                    continue;
                }
                let accessed = rng.chance(0.5);
                let got = inline.service_miss(vm, asid, walk, accessed);
                let (refs, psc_hit_level, ntlb_hits, ntlb_misses) =
                    reference.service_miss_vec(vm, asid, walk);
                assert_eq!(got.refs.as_slice(), refs.as_slice());
                assert_eq!(format!("{:?}", got.refs), format!("{refs:?}"));
                assert_eq!(got.memory_references(), refs.len());
                assert_eq!(
                    (
                        got.psc_hit_level,
                        got.ntlb_hits,
                        got.ntlb_misses,
                        got.sets_accessed_bit
                    ),
                    (psc_hit_level, ntlb_hits, ntlb_misses, accessed)
                );
                assert_eq!(inline.stats(), reference.stats());
                assert_eq!(inline.occupancy(), reference.occupancy());
                refs_seen[refs.len()] += 1;
            }
        }
        // Full walks, PSC-shortened walks and nTLB-shortened walks all occur.
        assert!(refs_seen[TWO_DIM_WALK_REFS] > 0, "{refs_seen:?}");
        assert!(
            refs_seen.iter().filter(|&&n| n > 0).count() >= 4,
            "{refs_seen:?}"
        );
    }

    /// A walked entry carries the walk's guest frame on an L1 hit, on an L2
    /// hit after its L1 eviction and on the L1 hit after promotion; a
    /// bare-metal fill carries none, and neither does an L1 victim filed
    /// under another VM.
    #[test]
    fn entries_carry_the_walks_guest_frame() {
        let walks = vm_walks(0);
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        let mut sizes = small_sizes();
        sizes.l1_tlb = TlbConfig {
            entries: 2,
            ways: 2,
        };
        let mut ts = TranslationStructures::new(&sizes, 2);
        let walk = &walks[0];
        let gpp = Some(walk.gpp);
        ts.service_miss(vm, asid, walk, true);
        let hit = ts.lookup_data(vm, asid, walk.gvp).unwrap();
        assert_eq!((hit.level, hit.gpp), (TlbLevel::L1, gpp));

        // Two bare-metal fills push the walked entry out of the one-set L1.
        for page in [1, 2] {
            let gvp = page_gvp(page);
            let pte = SystemPhysAddr::new(page * 8);
            ts.fill_data(vm, asid, gvp, SystemFrame::new(page), pte, None);
            assert_eq!(ts.lookup_data(vm, asid, gvp).unwrap().gpp, None);
        }
        let hit = ts.lookup_data(vm, asid, walk.gvp).unwrap();
        assert_eq!((hit.level, hit.gpp), (TlbLevel::L2, gpp));
        let hit = ts.lookup_data(vm, asid, walk.gvp).unwrap();
        assert_eq!((hit.level, hit.gpp), (TlbLevel::L1, gpp));
        // Once more through a full L1 probe rather than the register.
        ts.forget_last();
        let hit = ts.lookup_data(vm, asid, walk.gvp).unwrap();
        assert_eq!((hit.level, hit.gpp), (TlbLevel::L1, gpp));

        // Another VM's fills evict the walked entry; it is written back to
        // L2 under the filling VM's key, without the frame.
        let other = VmId::new(1);
        for page in [1, 2] {
            let pte = SystemPhysAddr::new(0x1000 + page * 8);
            ts.fill_data(
                other,
                asid,
                page_gvp(page),
                SystemFrame::new(page),
                pte,
                None,
            );
        }
        let rekeyed = ts.lookup_data(other, asid, walk.gvp).unwrap();
        assert_eq!(
            (rekeyed.level, rekeyed.spp, rekeyed.gpp),
            (TlbLevel::L2, walk.spp, None)
        );
    }
}
