//! The guest page table: GVP → GPP, maintained by the guest OS.

use hatric_types::consts::RADIX_LEVELS;
use hatric_types::{GuestFrame, GuestPhysAddr, GuestVirtPage};

use crate::radix::{MapOutcome, RadixTable};

/// A guest OS page table mapping guest-virtual pages to guest-physical
/// frames.  Its radix nodes live in guest-physical memory, so every node
/// frame reported by [`GuestPageTable::map`] must also be given a nested
/// mapping before a two-dimensional walk can locate it.
#[derive(Debug, Clone)]
pub struct GuestPageTable {
    table: RadixTable,
}

impl GuestPageTable {
    /// Creates an empty guest page table whose nodes are allocated from
    /// guest-physical frames starting at `node_frame_base`.
    #[must_use]
    pub fn new(node_frame_base: GuestFrame) -> Self {
        Self {
            table: RadixTable::new(node_frame_base.number()),
        }
    }

    /// Maps `gvp` to `gpp`.  The returned outcome lists guest-physical node
    /// frames that were newly allocated and still need nested mappings.
    pub fn map(&mut self, gvp: GuestVirtPage, gpp: GuestFrame) -> GuestMapOutcome {
        let raw = self.table.map(gvp.number(), gpp.number());
        GuestMapOutcome::from_raw(raw)
    }

    /// Removes the mapping for `gvp`.
    pub fn unmap(&mut self, gvp: GuestVirtPage) -> Option<GuestFrame> {
        self.table
            .unmap(gvp.number())
            .map(|pte| GuestFrame::new(pte.frame))
    }

    /// Redirects an existing mapping to `new_gpp`, returning the
    /// guest-physical address of the modified leaf entry (the address the
    /// guest OS stores to).
    pub fn remap(&mut self, gvp: GuestVirtPage, new_gpp: GuestFrame) -> Option<GuestPhysAddr> {
        self.table
            .remap(gvp.number(), new_gpp.number())
            .map(GuestPhysAddr::new)
    }

    /// Translates `gvp` without side effects.
    #[must_use]
    pub fn translate(&self, gvp: GuestVirtPage) -> Option<GuestFrame> {
        self.table
            .translate(gvp.number())
            .map(|pte| GuestFrame::new(pte.frame))
    }

    /// Guest-physical address of the leaf entry for `gvp`.
    #[must_use]
    pub fn leaf_entry_addr(&self, gvp: GuestVirtPage) -> Option<GuestPhysAddr> {
        self.table
            .leaf_entry_addr(gvp.number())
            .map(GuestPhysAddr::new)
    }

    /// Marks the leaf entry for `gvp` accessed/dirty; returns whether the
    /// accessed bit was newly set.
    pub fn mark_used(&mut self, gvp: GuestVirtPage, write: bool) -> Option<bool> {
        self.table.mark_used(gvp.number(), write)
    }

    /// Full 4-level walk, returned as a fixed-size array (no heap
    /// allocation); each step is the guest-physical address of the
    /// entry at levels 4..=1.
    #[must_use]
    pub fn walk(
        &self,
        gvp: GuestVirtPage,
    ) -> Option<([(u8, GuestPhysAddr); RADIX_LEVELS], GuestFrame)> {
        self.table.walk(gvp.number()).map(|(refs, pte)| {
            (
                refs.map(|r| (r.level, GuestPhysAddr::new(r.entry_addr))),
                GuestFrame::new(pte.frame),
            )
        })
    }

    /// The table's radix tree, for the walk oracles in tests.
    #[cfg(test)]
    pub(crate) fn radix(&self) -> &RadixTable {
        &self.table
    }

    /// Number of mapped guest-virtual pages.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.table.mapped_pages()
    }

    /// Guest-physical frames occupied by the table's own radix nodes.
    #[must_use]
    pub fn node_frames(&self) -> Vec<GuestFrame> {
        self.table
            .node_frames()
            .into_iter()
            .map(GuestFrame::new)
            .collect()
    }
}

/// Outcome of [`GuestPageTable::map`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuestMapOutcome {
    /// Newly allocated guest-physical node frames that need nested mappings.
    pub allocated_nodes: Vec<GuestFrame>,
    /// Whether the mapping replaced an existing one.
    pub replaced: bool,
}

impl GuestMapOutcome {
    fn from_raw(raw: MapOutcome) -> Self {
        Self {
            allocated_nodes: raw
                .allocated_nodes
                .into_iter()
                .map(GuestFrame::new)
                .collect(),
            replaced: raw.replaced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate() {
        let mut gpt = GuestPageTable::new(GuestFrame::new(0x500));
        let out = gpt.map(GuestVirtPage::new(0x33), GuestFrame::new(0x44));
        assert_eq!(out.allocated_nodes.len(), 3);
        assert_eq!(
            gpt.translate(GuestVirtPage::new(0x33)),
            Some(GuestFrame::new(0x44))
        );
    }

    #[test]
    fn node_frames_start_at_base() {
        let gpt = GuestPageTable::new(GuestFrame::new(0x500));
        assert_eq!(gpt.node_frames(), vec![GuestFrame::new(0x500)]);
    }

    #[test]
    fn walk_reports_guest_physical_steps() {
        let mut gpt = GuestPageTable::new(GuestFrame::new(0x500));
        gpt.map(GuestVirtPage::new(7), GuestFrame::new(9));
        let (steps, frame) = gpt.walk(GuestVirtPage::new(7)).unwrap();
        assert_eq!(steps.len(), 4);
        assert_eq!(frame, GuestFrame::new(9));
        assert_eq!(steps[0].0, 4);
    }

    #[test]
    fn remap_reports_store_address() {
        let mut gpt = GuestPageTable::new(GuestFrame::new(0x500));
        gpt.map(GuestVirtPage::new(7), GuestFrame::new(9));
        let addr = gpt
            .remap(GuestVirtPage::new(7), GuestFrame::new(10))
            .unwrap();
        assert_eq!(gpt.leaf_entry_addr(GuestVirtPage::new(7)), Some(addr));
    }
}
