//! Set-associative TLBs caching GVP → SPP translations, with co-tags.

use hatric_types::{
    AddressSpaceId, CoTag, GuestFrame, GuestVirtPage, RatioStat, SystemFrame, VmId,
};

use crate::set_assoc::SetAssoc;

/// Configuration of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbConfig {
    /// 64-entry, 4-way L1 data TLB (the paper's per-CPU L1 TLB).
    #[must_use]
    pub fn l1_default() -> Self {
        Self {
            entries: 64,
            ways: 4,
        }
    }

    /// 512-entry, 8-way L2 TLB.
    #[must_use]
    pub fn l2_default() -> Self {
        Self {
            entries: 512,
            ways: 8,
        }
    }

    /// Scales the number of entries by `factor` (Fig. 9 sweeps 1×/2×/4×).
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        Self {
            entries: self.entries * factor,
            ways: self.ways,
        }
    }
}

/// The lookup key of a TLB entry: translations are private to a VM and a
/// guest address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TlbKey {
    /// Owning virtual machine.
    pub vm: VmId,
    /// Guest address space (process) within the VM.
    pub asid: AddressSpaceId,
    /// Guest-virtual page.
    pub gvp: GuestVirtPage,
}

/// A cached GVP → SPP translation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbEntry {
    /// System-physical frame the page maps to.
    pub spp: SystemFrame,
    /// Co-tag derived from the nested leaf (nL1) entry's address.
    pub nested_cotag: CoTag,
    /// Co-tag derived from the guest leaf (gL1) entry's address, when the
    /// fill came from a two-dimensional walk (bare-metal fills have none).
    pub guest_cotag: Option<CoTag>,
    /// Whether the translation maps a writable page.
    pub writable: bool,
    /// Guest-physical frame the page maps to, when known: a fill from a
    /// two-dimensional walk knows it; a bare-metal fill does not, nor does
    /// an L1 victim that [`TranslationStructures`] writes back to L2 under
    /// another VM's key.  Guest mappings are only ever added, never
    /// remapped, so the frame the walk found stays current for as long as
    /// the entry lives.
    ///
    /// [`TranslationStructures`]: crate::TranslationStructures
    pub gpp: Option<GuestFrame>,
}

/// A set-associative TLB with co-tagged entries.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: SetAssoc<TlbKey, TlbEntry>,
    stats: RatioStat,
    config: TlbConfig,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        Self {
            entries: SetAssoc::new(config.entries, config.ways),
            stats: RatioStat::new(),
            config,
        }
    }

    /// This TLB's configuration.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up a translation, recording hit/miss statistics.
    pub fn lookup(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
    ) -> Option<TlbEntry> {
        let key = TlbKey { vm, asid, gvp };
        self.lookup_hashed(&key, Self::hash(&key))
    }

    /// The set-selection hash of `key`, shared by every TLB level so a
    /// two-level lookup or fill hashes once.
    pub(crate) fn hash(key: &TlbKey) -> u64 {
        SetAssoc::<TlbKey, TlbEntry>::hash_key(key)
    }

    /// [`Tlb::lookup`] with a precomputed [`Tlb::hash`].
    pub(crate) fn lookup_hashed(&mut self, key: &TlbKey, hash: u64) -> Option<TlbEntry> {
        let result = self.entries.lookup_hashed(hash, key).copied();
        self.stats.record(result.is_some());
        result
    }

    /// Counts a hit that the caller resolved without a set probe (the
    /// last-translation register of [`TranslationStructures`]).
    ///
    /// [`TranslationStructures`]: crate::TranslationStructures
    pub(crate) fn record_hit(&mut self) {
        self.stats.record(true);
    }

    /// Probes for a translation without affecting recency or statistics.
    #[must_use]
    pub fn probe(&self, vm: VmId, asid: AddressSpaceId, gvp: GuestVirtPage) -> Option<TlbEntry> {
        self.entries.peek(&TlbKey { vm, asid, gvp }).copied()
    }

    /// Inserts a translation, returning the evicted victim (if any).
    pub fn fill(
        &mut self,
        vm: VmId,
        asid: AddressSpaceId,
        gvp: GuestVirtPage,
        entry: TlbEntry,
    ) -> Option<(GuestVirtPage, TlbEntry)> {
        let key = TlbKey { vm, asid, gvp };
        self.fill_hashed(key, Self::hash(&key), entry)
            .map(|(k, v)| (k.gvp, v))
    }

    /// [`Tlb::fill`] with a precomputed [`Tlb::hash`]; the victim keeps its
    /// whole key.
    pub(crate) fn fill_hashed(
        &mut self,
        key: TlbKey,
        hash: u64,
        entry: TlbEntry,
    ) -> Option<(TlbKey, TlbEntry)> {
        self.entries.insert_hashed(hash, key, entry)
    }

    /// Invalidates every entry whose nested or guest co-tag matches `cotag`;
    /// returns the number of entries invalidated.  This is the HATRIC
    /// coherence-message path.
    pub fn invalidate_cotag(&mut self, cotag: CoTag) -> u64 {
        self.entries
            .invalidate_matching(|_, e| (e.nested_cotag == cotag) | (e.guest_cotag == Some(cotag)))
    }

    /// Flushes every entry belonging to `vm`; returns the number flushed.
    pub fn flush_vm(&mut self, vm: VmId) -> u64 {
        self.entries.invalidate_matching(|k, _| k.vm == vm)
    }

    /// Flushes the whole TLB; returns the number of entries flushed.
    pub fn flush_all(&mut self) -> u64 {
        self.entries.flush()
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the TLB holds no valid entries.
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

    fn entry(spp: u64, pte_addr: u64) -> TlbEntry {
        TlbEntry {
            spp: SystemFrame::new(spp),
            nested_cotag: CoTag::from_pte_addr(SystemPhysAddr::new(pte_addr), 2),
            guest_cotag: None,
            writable: true,
            gpp: None,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::l1_default());
        let (vm, asid, gvp) = (VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(9));
        assert!(tlb.lookup(vm, asid, gvp).is_none());
        tlb.fill(vm, asid, gvp, entry(5, 0x1000));
        assert_eq!(tlb.lookup(vm, asid, gvp).unwrap().spp, SystemFrame::new(5));
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 1);
    }

    #[test]
    fn different_asid_misses() {
        let mut tlb = Tlb::new(TlbConfig::l1_default());
        let vm = VmId::new(0);
        tlb.fill(
            vm,
            AddressSpaceId::new(0),
            GuestVirtPage::new(9),
            entry(5, 0x1000),
        );
        assert!(tlb
            .lookup(vm, AddressSpaceId::new(1), GuestVirtPage::new(9))
            .is_none());
    }

    #[test]
    fn cotag_invalidation_hits_matching_entries_only() {
        let mut tlb = Tlb::new(TlbConfig::l1_default());
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        // Two PTEs in the same cache line share a co-tag; a third does not.
        tlb.fill(vm, asid, GuestVirtPage::new(1), entry(10, 0x2000));
        tlb.fill(vm, asid, GuestVirtPage::new(2), entry(11, 0x2008));
        tlb.fill(vm, asid, GuestVirtPage::new(3), entry(12, 0x2040));
        let tag = CoTag::from_pte_addr(SystemPhysAddr::new(0x2000), 2);
        assert_eq!(tlb.invalidate_cotag(tag), 2);
        assert!(tlb.probe(vm, asid, GuestVirtPage::new(3)).is_some());
    }

    #[test]
    fn flush_vm_spares_other_vms() {
        let mut tlb = Tlb::new(TlbConfig::l1_default());
        let asid = AddressSpaceId::new(0);
        tlb.fill(VmId::new(0), asid, GuestVirtPage::new(1), entry(1, 0x40));
        tlb.fill(VmId::new(1), asid, GuestVirtPage::new(2), entry(2, 0x80));
        assert_eq!(tlb.flush_vm(VmId::new(0)), 1);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 16,
            ways: 4,
        });
        let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
        for i in 0..100 {
            tlb.fill(vm, asid, GuestVirtPage::new(i), entry(i, i * 64));
        }
        assert!(tlb.len() <= 16);
    }

    /// The guest frame costs an entry 16 bytes, no more.
    #[test]
    fn entry_stays_small() {
        assert_eq!(std::mem::size_of::<TlbEntry>(), 40);
    }

    #[test]
    fn scaled_config_multiplies_entries() {
        let cfg = TlbConfig::l2_default().scaled(4);
        assert_eq!(cfg.entries, 2048);
        assert_eq!(cfg.ways, 8);
    }
}
