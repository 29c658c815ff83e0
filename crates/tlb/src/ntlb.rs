//! The nested TLB: a small structure caching GPP → SPP translations so the
//! nested dimension of a two-dimensional walk can be skipped (Sec. 2.1c).

use hatric_types::{CoTag, GuestFrame, RatioStat, SystemFrame, VmId};

use crate::set_assoc::SetAssoc;

/// Configuration of the nested TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedTlbConfig {
    /// Total number of entries (the paper models 32).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl NestedTlbConfig {
    /// The paper's 32-entry nested TLB, fully associative.
    #[must_use]
    pub fn default_32() -> Self {
        Self {
            entries: 32,
            ways: 32,
        }
    }

    /// Scales the number of entries by `factor`.
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        Self {
            entries: self.entries * factor,
            ways: self.ways * factor,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) struct NestedKey {
    pub(crate) vm: VmId,
    pub(crate) gpp: GuestFrame,
}

/// A cached GPP → SPP translation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestedTlbEntry {
    /// The system-physical frame backing the guest-physical frame.
    pub spp: SystemFrame,
    /// Co-tag of the nested leaf (nL1) entry this translation came from.
    pub cotag: CoTag,
}

/// A nested TLB caching guest-physical to system-physical translations.
#[derive(Debug, Clone)]
pub struct NestedTlb {
    entries: SetAssoc<NestedKey, NestedTlbEntry>,
    stats: RatioStat,
    config: NestedTlbConfig,
}

impl NestedTlb {
    /// Creates an empty nested TLB.
    #[must_use]
    pub fn new(config: NestedTlbConfig) -> Self {
        Self {
            entries: SetAssoc::new(config.entries, config.ways),
            stats: RatioStat::new(),
            config,
        }
    }

    /// This nested TLB's configuration.
    #[must_use]
    pub fn config(&self) -> NestedTlbConfig {
        self.config
    }

    /// Looks up a guest-physical frame, recording hit/miss statistics.
    pub fn lookup(&mut self, vm: VmId, gpp: GuestFrame) -> Option<NestedTlbEntry> {
        let result = self.entries.lookup(&NestedKey { vm, gpp }).copied();
        self.stats.record(result.is_some());
        result
    }

    /// Probes without affecting recency or statistics.
    #[must_use]
    pub fn probe(&self, vm: VmId, gpp: GuestFrame) -> Option<NestedTlbEntry> {
        self.entries.peek(&NestedKey { vm, gpp }).copied()
    }

    /// Inserts a translation.
    pub fn fill(&mut self, vm: VmId, gpp: GuestFrame, entry: NestedTlbEntry) {
        self.entries.insert(NestedKey { vm, gpp }, entry);
    }

    /// Invalidates entries whose co-tag matches; returns how many.
    pub fn invalidate_cotag(&mut self, cotag: CoTag) -> u64 {
        self.entries.invalidate_matching(|_, e| e.cotag == cotag)
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

    /// Returns `true` if the structure holds no valid entries.
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

    fn entry(spp: u64, pte_addr: u64) -> NestedTlbEntry {
        NestedTlbEntry {
            spp: SystemFrame::new(spp),
            cotag: CoTag::from_pte_addr(SystemPhysAddr::new(pte_addr), 2),
        }
    }

    #[test]
    fn fill_and_lookup() {
        let mut ntlb = NestedTlb::new(NestedTlbConfig::default_32());
        let vm = VmId::new(0);
        ntlb.fill(vm, GuestFrame::new(8), entry(5, 0x100c00));
        assert_eq!(
            ntlb.lookup(vm, GuestFrame::new(8)).unwrap().spp,
            SystemFrame::new(5)
        );
        assert!(ntlb.lookup(vm, GuestFrame::new(9)).is_none());
    }

    #[test]
    fn cotag_invalidation() {
        let mut ntlb = NestedTlb::new(NestedTlbConfig::default_32());
        let vm = VmId::new(0);
        ntlb.fill(vm, GuestFrame::new(1), entry(5, 0x1000));
        ntlb.fill(vm, GuestFrame::new(2), entry(6, 0x1008));
        ntlb.fill(vm, GuestFrame::new(3), entry(7, 0x2000));
        let tag = CoTag::from_pte_addr(SystemPhysAddr::new(0x1000), 2);
        assert_eq!(ntlb.invalidate_cotag(tag), 2);
        assert_eq!(ntlb.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut ntlb = NestedTlb::new(NestedTlbConfig {
            entries: 4,
            ways: 4,
        });
        let vm = VmId::new(0);
        for i in 0..10 {
            ntlb.fill(vm, GuestFrame::new(i), entry(i, i * 64));
        }
        assert_eq!(ntlb.len(), 4);
    }

    #[test]
    fn flush_vm_only_targets_that_vm() {
        let mut ntlb = NestedTlb::new(NestedTlbConfig::default_32());
        ntlb.fill(VmId::new(0), GuestFrame::new(1), entry(5, 0x40));
        ntlb.fill(VmId::new(1), GuestFrame::new(1), entry(6, 0x80));
        assert_eq!(ntlb.flush_vm(VmId::new(1)), 1);
        assert!(ntlb.probe(VmId::new(0), GuestFrame::new(1)).is_some());
    }
}
