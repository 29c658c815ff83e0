//! The per-CPU bundle of translation structures and the walk-assist logic
//! that decides which memory references of a two-dimensional walk can be
//! skipped thanks to MMU-cache and nested-TLB hits.

use hatric_pagetable::{NestedWalkSegment, TwoDimWalk};
use hatric_types::{
    AddressSpaceId, CoTag, GuestVirtPage, RatioStat, SystemFrame, SystemPhysAddr, VmId,
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

/// The plan for servicing a TLB miss: which memory references of the full
/// two-dimensional walk must actually be performed given current MMU-cache
/// and nested-TLB contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkAssist {
    /// System-physical addresses the walker must read, in order.
    pub refs: Vec<SystemPhysAddr>,
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

/// All translation structures of one CPU, with co-tag support.
#[derive(Debug, Clone)]
pub struct TranslationStructures {
    l1: Tlb,
    l2: Tlb,
    mmu: MmuCache,
    ntlb: NestedTlb,
    cotag_bytes: u8,
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
    /// promoted into L1.  The key is hashed once for both levels.
    pub fn lookup_data(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
    ) -> Option<DataLookup> {
        let key = TlbKey { vm, asid, gvp };
        let hash = Tlb::hash(&key);
        if let Some(entry) = self.l1.lookup_hashed(&key, hash) {
            return Some(DataLookup {
                spp: entry.spp,
                level: TlbLevel::L1,
                writable: entry.writable,
            });
        }
        if let Some(entry) = self.l2.lookup_hashed(&key, hash) {
            if let Some((victim_gvp, victim)) = self.l1.fill_hashed(key, hash, entry) {
                // L1 victims are written back into L2 (exclusive-ish policy
                // keeps the victim visible at the next level).
                self.l2.fill(vm, asid, victim_gvp, victim);
            }
            return Some(DataLookup {
                spp: entry.spp,
                level: TlbLevel::L2,
                writable: entry.writable,
            });
        }
        None
    }

    /// Fills the TLBs with a data translation from a completed walk (or from
    /// a bare-metal fill when `guest_pte_addr` is `None`).  The key is
    /// hashed once for both levels.
    pub fn fill_data(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
        spp: SystemFrame,
        nested_pte_addr: SystemPhysAddr,
        guest_pte_addr: Option<SystemPhysAddr>,
    ) {
        let entry = TlbEntry {
            spp,
            nested_cotag: self.cotag(nested_pte_addr),
            guest_cotag: guest_pte_addr.map(|a| self.cotag(a)),
            writable: true,
        };
        let key = TlbKey { vm, asid, gvp };
        let hash = Tlb::hash(&key);
        if let Some((victim_gvp, victim)) = self.l1.fill_hashed(key, hash, entry) {
            self.l2.fill(vm, asid, victim_gvp, victim);
        }
        self.l2.fill_hashed(key, hash, entry);
    }

    fn ntlb_translate(
        &mut self,
        vm: VmId,
        segment: &NestedWalkSegment,
        refs: &mut Vec<SystemPhysAddr>,
        hits: &mut u32,
        misses: &mut u32,
    ) {
        if self.ntlb.lookup(vm, segment.gpp).is_some() {
            *hits += 1;
        } else {
            *misses += 1;
            refs.extend(segment.step_addrs.iter().copied());
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
        let mut refs = Vec::with_capacity(walk.memory_references());
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
        self.fill_data(
            vm,
            asid,
            walk.gvp,
            walk.spp,
            walk.nested_leaf_pte_addr(),
            Some(walk.guest_leaf_pte_addr()),
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
        InvalidationCounts {
            tlb: self.l1.invalidate_cotag(cotag) + self.l2.invalidate_cotag(cotag),
            mmu_cache: self.mmu.flush_all(),
            ntlb: self.ntlb.flush_all(),
        }
    }

    /// Flushes every structure (the software-coherence baseline's VM-exit
    /// path); returns how many entries were lost.
    pub fn flush_all(&mut self) -> InvalidationCounts {
        InvalidationCounts {
            tlb: self.l1.flush_all() + self.l2.flush_all(),
            mmu_cache: self.mmu.flush_all(),
            ntlb: self.ntlb.flush_all(),
        }
    }

    /// Flushes every entry belonging to `vm`.
    pub fn flush_vm(&mut self, vm: VmId) -> InvalidationCounts {
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
mod tests {
    use super::*;
    use hatric_pagetable::{GuestPageTable, NestedPageTable, TwoDimWalker};
    use hatric_types::GuestFrame;

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
}
