//! The MMU cache, modelled as an Intel-style *paging-structure cache* (PSC).
//!
//! A PSC entry at guest level `L` (4, 3 or 2) is tagged by the guest-virtual
//! page bits that index levels 4..=L and caches the system-physical frame of
//! the guest page-table node at level `L-1`.  A hit therefore lets the
//! hardware walker skip every guest read at levels 4..=L *and* the nested
//! walks that would have been required to locate those guest nodes
//! (Sec. 2.1b of the paper).  The deeper the hit level, the shorter the walk.
//!
//! Like TLB entries, PSC entries carry co-tags so HATRIC can invalidate them
//! selectively — something no current ISA instruction can do, which is why
//! the software baseline flushes the whole structure.

use hatric_types::{AddressSpaceId, CoTag, GuestVirtPage, RatioStat, SystemFrame, VmId};

use crate::set_assoc::SetAssoc;

/// Guest levels at which a paging-structure cache holds entries (a hit at
/// level 2 is the most valuable: only the gL1 read and the data's nested walk
/// remain).
pub const PSC_LEVELS: [u8; 3] = [2, 3, 4];

/// Configuration of the MMU cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuCacheConfig {
    /// Total number of entries (the paper models 48).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl MmuCacheConfig {
    /// The paper's 48-entry paging-structure cache.
    #[must_use]
    pub fn default_48() -> Self {
        Self {
            entries: 48,
            ways: 4,
        }
    }

    /// Scales the number of entries by `factor`.
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        Self {
            entries: self.entries * factor,
            ways: self.ways,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) struct PscKey {
    pub(crate) vm: VmId,
    pub(crate) asid: AddressSpaceId,
    pub(crate) level: u8,
    pub(crate) prefix: u64,
}

/// A paging-structure cache entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuCacheEntry {
    /// System-physical frame of the guest page-table node at `level - 1`.
    pub node_spp: SystemFrame,
    /// Co-tag of the nested leaf entry that located that node.
    pub nested_cotag: CoTag,
    /// Co-tag of the guest page-table entry (at `level`) this entry was
    /// derived from.
    pub guest_cotag: CoTag,
}

/// Result of a longest-prefix MMU-cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuCacheHit {
    /// The guest level of the matching entry (2 is deepest/best).
    pub level: u8,
    /// The cached entry.
    pub entry: MmuCacheEntry,
}

/// The per-CPU MMU (paging-structure) cache.
#[derive(Debug, Clone)]
pub struct MmuCache {
    entries: SetAssoc<PscKey, MmuCacheEntry>,
    stats: RatioStat,
    config: MmuCacheConfig,
}

impl MmuCache {
    /// Creates an empty MMU cache.
    #[must_use]
    pub fn new(config: MmuCacheConfig) -> Self {
        Self {
            entries: SetAssoc::new(config.entries, config.ways),
            stats: RatioStat::new(),
            config,
        }
    }

    /// This MMU cache's configuration.
    #[must_use]
    pub fn config(&self) -> MmuCacheConfig {
        self.config
    }

    fn prefix(gvp: GuestVirtPage, level: u8) -> u64 {
        gvp.number() >> (9 * (u64::from(level) - 1))
    }

    /// Finds the deepest (closest-to-leaf) entry covering `gvp`.
    /// Records a single hit/miss sample per call.
    pub fn lookup_longest(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
    ) -> Option<MmuCacheHit> {
        for level in PSC_LEVELS {
            let key = PscKey {
                vm,
                asid,
                level,
                prefix: Self::prefix(gvp, level),
            };
            if let Some(entry) = self.entries.lookup(&key).copied() {
                self.stats.hit();
                return Some(MmuCacheHit { level, entry });
            }
        }
        self.stats.miss();
        None
    }

    /// Inserts an entry for `gvp` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not 2, 3 or 4.
    pub fn fill(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
        level: u8,
        entry: MmuCacheEntry,
    ) {
        assert!(PSC_LEVELS.contains(&level), "invalid PSC level {level}");
        let key = PscKey {
            vm,
            asid,
            level,
            prefix: Self::prefix(gvp, level),
        };
        self.entries.insert(key, entry);
    }

    /// Invalidates entries whose nested or guest co-tag matches; returns how
    /// many were removed.
    pub fn invalidate_cotag(&mut self, cotag: CoTag) -> u64 {
        self.entries
            .invalidate_matching(|_, e| (e.nested_cotag == cotag) | (e.guest_cotag == cotag))
    }

    /// Flushes entries belonging to `vm`; returns how many.
    pub fn flush_vm(&mut self, vm: VmId) -> u64 {
        self.entries.invalidate_matching(|k, _| k.vm == vm)
    }

    /// Flushes everything; returns how many entries were valid.
    pub fn flush_all(&mut self) -> u64 {
        self.entries.flush()
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no valid entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RatioStat {
        self.stats
    }

    /// Resets hit/miss statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RatioStat::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_types::SystemPhysAddr;

    fn entry(spp: u64, tag_addr: u64) -> MmuCacheEntry {
        MmuCacheEntry {
            node_spp: SystemFrame::new(spp),
            nested_cotag: CoTag::from_pte_addr(SystemPhysAddr::new(tag_addr), 2),
            guest_cotag: CoTag::from_pte_addr(SystemPhysAddr::new(tag_addr + 0x40), 2),
        }
    }

    #[test]
    fn deepest_level_wins() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        let gvp = GuestVirtPage::new(0x12345);
        psc.fill(vm, asid, gvp, 4, entry(100, 0x1000));
        psc.fill(vm, asid, gvp, 2, entry(200, 0x2000));
        let hit = psc.lookup_longest(vm, asid, gvp).unwrap();
        assert_eq!(hit.level, 2);
        assert_eq!(hit.entry.node_spp, SystemFrame::new(200));
    }

    #[test]
    fn nearby_pages_share_prefix_entries() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        // Pages 0 and 1 share the same level-2 prefix (same gL1 table).
        psc.fill(vm, asid, GuestVirtPage::new(0), 2, entry(100, 0x1000));
        assert!(psc
            .lookup_longest(vm, asid, GuestVirtPage::new(1))
            .is_some());
        // Page 512 uses a different gL1 table.
        assert!(psc
            .lookup_longest(vm, asid, GuestVirtPage::new(512))
            .is_none());
    }

    #[test]
    fn cotag_invalidation_removes_entry() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        psc.fill(vm, asid, GuestVirtPage::new(7), 2, entry(1, 0x3000));
        assert_eq!(
            psc.invalidate_cotag(CoTag::from_pte_addr(SystemPhysAddr::new(0x3000), 2)),
            1
        );
        assert!(psc.is_empty());
    }

    #[test]
    fn guest_cotag_also_matches() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        psc.fill(vm, asid, GuestVirtPage::new(7), 3, entry(1, 0x3000));
        let guest_tag = CoTag::from_pte_addr(SystemPhysAddr::new(0x3040), 2);
        assert_eq!(psc.invalidate_cotag(guest_tag), 1);
    }

    #[test]
    #[should_panic(expected = "invalid PSC level")]
    fn rejects_leaf_level_fill() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        psc.fill(
            VmId::new(0),
            AddressSpaceId::new(0),
            GuestVirtPage::new(0),
            1,
            entry(0, 0),
        );
    }

    #[test]
    fn stats_count_one_sample_per_lookup() {
        let mut psc = MmuCache::new(MmuCacheConfig::default_48());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        psc.lookup_longest(vm, asid, GuestVirtPage::new(1));
        psc.fill(vm, asid, GuestVirtPage::new(1), 2, entry(1, 0));
        psc.lookup_longest(vm, asid, GuestVirtPage::new(1));
        assert_eq!(psc.stats().total(), 2);
        assert_eq!(psc.stats().hits(), 1);
    }
}
