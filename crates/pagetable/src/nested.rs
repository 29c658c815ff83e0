//! The nested page table: GPP → SPP, maintained by the hypervisor.

use hatric_types::consts::RADIX_LEVELS;
use hatric_types::{GuestFrame, SystemFrame, SystemPhysAddr};

use crate::radix::{MapOutcome, RadixTable};

/// A hypervisor-maintained nested page table mapping guest-physical frames to
/// system-physical frames.  Its radix nodes live directly in system-physical
/// memory (hypervisor memory), so walker steps through it are immediately
/// cacheable addresses.
///
/// The address returned by [`NestedPageTable::remap`] is the one HATRIC
/// co-tags store and the one a hypervisor store hits when it migrates a page
/// (Sec. 4.1).
#[derive(Debug, Clone)]
pub struct NestedPageTable {
    table: RadixTable,
}

impl NestedPageTable {
    /// Creates an empty nested page table whose nodes are allocated from
    /// system-physical frames starting at `node_frame_base`.
    #[must_use]
    pub fn new(node_frame_base: SystemFrame) -> Self {
        Self {
            table: RadixTable::new(node_frame_base.number()),
        }
    }

    /// Maps `gpp` to `spp`.
    pub fn map(&mut self, gpp: GuestFrame, spp: SystemFrame) -> NestedMapOutcome {
        let raw = self.table.map(gpp.number(), spp.number());
        NestedMapOutcome::from_raw(raw)
    }

    /// Removes the mapping for `gpp`, returning the old system frame.
    pub fn unmap(&mut self, gpp: GuestFrame) -> Option<SystemFrame> {
        self.table
            .unmap(gpp.number())
            .map(|pte| SystemFrame::new(pte.frame))
    }

    /// Redirects an existing mapping to `new_spp`, returning the
    /// system-physical address of the modified leaf entry — the address the
    /// hypervisor's store targets, and therefore the address whose cache line
    /// carries translation-coherence traffic.
    pub fn remap(&mut self, gpp: GuestFrame, new_spp: SystemFrame) -> Option<SystemPhysAddr> {
        self.table
            .remap(gpp.number(), new_spp.number())
            .map(SystemPhysAddr::new)
    }

    /// Translates `gpp` without side effects.
    #[must_use]
    pub fn translate(&self, gpp: GuestFrame) -> Option<SystemFrame> {
        self.table
            .translate(gpp.number())
            .map(|pte| SystemFrame::new(pte.frame))
    }

    /// System-physical address of the leaf (nL1) entry for `gpp`.
    #[must_use]
    pub fn leaf_entry_addr(&self, gpp: GuestFrame) -> Option<SystemPhysAddr> {
        self.table
            .leaf_entry_addr(gpp.number())
            .map(SystemPhysAddr::new)
    }

    /// Marks the leaf entry accessed/dirty; returns whether the accessed bit
    /// was newly set.
    pub fn mark_used(&mut self, gpp: GuestFrame, write: bool) -> Option<bool> {
        self.table.mark_used(gpp.number(), write)
    }

    /// Full 4-level walk, returned as a fixed-size array (no heap
    /// allocation); each step is the system-physical address of the
    /// nested entry at levels 4..=1.
    #[must_use]
    pub fn walk(
        &self,
        gpp: GuestFrame,
    ) -> Option<([(u8, SystemPhysAddr); RADIX_LEVELS], SystemFrame)> {
        self.table.walk(gpp.number()).map(|(refs, pte)| {
            (
                refs.map(|r| (r.level, SystemPhysAddr::new(r.entry_addr))),
                SystemFrame::new(pte.frame),
            )
        })
    }

    /// The table's radix tree, for the walk oracles in tests.
    #[cfg(test)]
    pub(crate) fn radix(&self) -> &RadixTable {
        &self.table
    }

    /// Every mapped guest-physical frame, ascending — the complete memory
    /// image of the VM (data pages, guest-page-table region, hypervisor
    /// backing frames), which is what a live migration must transfer.
    #[must_use]
    pub fn mapped_gpps(&self) -> Vec<GuestFrame> {
        self.table
            .mapped_keys()
            .into_iter()
            .map(GuestFrame::new)
            .collect()
    }

    /// System-physical frames occupied by the table's own radix nodes.
    #[must_use]
    pub fn node_frames(&self) -> Vec<SystemFrame> {
        self.table
            .node_frames()
            .into_iter()
            .map(SystemFrame::new)
            .collect()
    }
}

/// Outcome of [`NestedPageTable::map`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NestedMapOutcome {
    /// Newly allocated system-physical node frames (hypervisor memory).
    pub allocated_nodes: Vec<SystemFrame>,
    /// Whether the mapping replaced an existing one.
    pub replaced: bool,
}

impl NestedMapOutcome {
    fn from_raw(raw: MapOutcome) -> Self {
        Self {
            allocated_nodes: raw
                .allocated_nodes
                .into_iter()
                .map(SystemFrame::new)
                .collect(),
            replaced: raw.replaced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut npt = NestedPageTable::new(SystemFrame::new(0x9000));
        npt.map(GuestFrame::new(8), SystemFrame::new(5));
        assert_eq!(npt.translate(GuestFrame::new(8)), Some(SystemFrame::new(5)));
        assert_eq!(npt.unmap(GuestFrame::new(8)), Some(SystemFrame::new(5)));
        assert_eq!(npt.translate(GuestFrame::new(8)), None);
    }

    #[test]
    fn remap_matches_paper_example() {
        // The paper's running example: GVP 3 -> GPP 8 -> SPP 5, migrated to
        // SPP 512.  The nested leaf entry address must be stable across the
        // remap so co-tags stay valid.
        let mut npt = NestedPageTable::new(SystemFrame::new(0x9000));
        npt.map(GuestFrame::new(8), SystemFrame::new(5));
        let leaf = npt.leaf_entry_addr(GuestFrame::new(8)).unwrap();
        let store_addr = npt
            .remap(GuestFrame::new(8), SystemFrame::new(512))
            .unwrap();
        assert_eq!(leaf, store_addr);
        assert_eq!(
            npt.translate(GuestFrame::new(8)),
            Some(SystemFrame::new(512))
        );
    }

    #[test]
    fn walk_has_four_steps_in_descending_levels() {
        let mut npt = NestedPageTable::new(SystemFrame::new(0x9000));
        npt.map(GuestFrame::new(1234), SystemFrame::new(4321));
        let (steps, spp) = npt.walk(GuestFrame::new(1234)).unwrap();
        assert_eq!(spp, SystemFrame::new(4321));
        let levels: Vec<u8> = steps.iter().map(|s| s.0).collect();
        assert_eq!(levels, vec![4, 3, 2, 1]);
    }
}
