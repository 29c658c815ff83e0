//! A generic 4-level forward-mapped radix page table.
//!
//! Both the guest and the nested page table are instances of [`RadixTable`];
//! they differ only in the address space their *nodes* occupy and the
//! interpretation of the frames stored in leaf entries.  The table hands out
//! node frames from a bump allocator rooted at a caller-supplied base frame,
//! which is how the simulator knows the physical location — and therefore the
//! cache-line address — of every page-table entry.

use hatric_types::consts::{PTE_BYTES, RADIX_BITS_PER_LEVEL, RADIX_FANOUT, RADIX_LEVELS};
use hatric_types::PAGE_SIZE_4K;

use crate::pte::Pte;

/// Index of a node within [`RadixTable::nodes`].
type NodeIndex = usize;

/// One entry of an interior or leaf radix node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Slot {
    /// Nothing mapped below this entry.
    #[default]
    Empty,
    /// An interior entry pointing at a lower-level node.
    Table(NodeIndex),
    /// A leaf entry holding a translation.
    Leaf(Pte),
}

/// One 512-entry radix node, pinned to a frame in the table's address space.
#[derive(Debug, Clone)]
struct Node {
    /// Frame number (in the table's own address space) holding this node.
    frame: u64,
    slots: Vec<Slot>,
}

impl Node {
    fn new(frame: u64) -> Self {
        Self {
            frame,
            slots: vec![Slot::Empty; RADIX_FANOUT],
        }
    }

    /// Byte address (within the table's own address space) of slot `index`.
    fn slot_addr(&self, index: usize) -> u64 {
        self.frame * PAGE_SIZE_4K + index as u64 * PTE_BYTES
    }
}

/// Result of a `map` operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapOutcome {
    /// Frame numbers (in the table's own address space) of radix nodes that
    /// had to be allocated to complete the mapping.  Callers that manage a
    /// second translation stage (the guest page table's nodes live in
    /// guest-physical memory, which itself needs nested mappings) must map
    /// these before walking.
    pub allocated_nodes: Vec<u64>,
    /// `true` if the leaf entry already held a present mapping that this
    /// `map` overwrote.
    pub replaced: bool,
}

/// A 4-level, 512-ary radix page table.
#[derive(Debug, Clone)]
pub struct RadixTable {
    nodes: Vec<Node>,
    root: NodeIndex,
    next_node_frame: u64,
    mapped_pages: u64,
}

/// The address of one page-table entry visited during a walk, together with
/// the entry's level (4 = root .. 1 = leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryRef {
    /// Level of the node holding the entry (4 = root, 1 = leaf).
    pub level: u8,
    /// Byte address of the entry in the table's own address space.
    pub entry_addr: u64,
}

impl RadixTable {
    /// Creates an empty table whose nodes are bump-allocated starting at
    /// `node_frame_base` (a frame number in the table's own address space).
    #[must_use]
    pub fn new(node_frame_base: u64) -> Self {
        let root = Node::new(node_frame_base);
        Self {
            nodes: vec![root],
            root: 0,
            next_node_frame: node_frame_base + 1,
            mapped_pages: 0,
        }
    }

    /// Number of leaf mappings currently present.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of radix nodes (pages of page-table memory) in use.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Frame numbers (in the table's own address space) of every node.
    #[must_use]
    pub fn node_frames(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.frame).collect()
    }

    /// Page numbers of every present leaf mapping, in ascending order.
    /// Live migration snapshots this to build its initial copy set.
    #[must_use]
    pub fn mapped_keys(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.mapped_pages as usize);
        self.collect_keys(self.root, 0, &mut keys);
        keys
    }

    /// Depth-first, slot-ordered traversal: prefixes grow by 9 bits per
    /// level, so visiting slots in index order yields ascending page
    /// numbers (depth is bounded by `RADIX_LEVELS` = 4).
    fn collect_keys(&self, node: NodeIndex, prefix: u64, out: &mut Vec<u64>) {
        for (idx, slot) in self.nodes[node].slots.iter().enumerate() {
            let page = (prefix << RADIX_BITS_PER_LEVEL) | idx as u64;
            match slot {
                Slot::Empty => {}
                Slot::Leaf(_) => out.push(page),
                Slot::Table(next) => self.collect_keys(*next, page, out),
            }
        }
    }

    fn level_index(page: u64, level: u8) -> usize {
        debug_assert!((1..=RADIX_LEVELS as u8).contains(&level));
        ((page >> (RADIX_BITS_PER_LEVEL as u64 * (u64::from(level) - 1)))
            & ((RADIX_FANOUT - 1) as u64)) as usize
    }

    /// Maps `page` to `frame`, allocating interior nodes as needed.
    pub fn map(&mut self, page: u64, frame: u64) -> MapOutcome {
        let mut outcome = MapOutcome::default();
        let mut node = self.root;
        for level in (2..=RADIX_LEVELS as u8).rev() {
            let idx = Self::level_index(page, level);
            let next = match self.nodes[node].slots[idx] {
                Slot::Table(next) => next,
                Slot::Empty | Slot::Leaf(_) => {
                    let new_frame = self.next_node_frame;
                    self.next_node_frame += 1;
                    let new_index = self.nodes.len();
                    self.nodes.push(Node::new(new_frame));
                    self.nodes[node].slots[idx] = Slot::Table(new_index);
                    outcome.allocated_nodes.push(new_frame);
                    new_index
                }
            };
            node = next;
        }
        let leaf_idx = Self::level_index(page, 1);
        let slot = &mut self.nodes[node].slots[leaf_idx];
        outcome.replaced = matches!(slot, Slot::Leaf(p) if p.is_present());
        if !outcome.replaced {
            self.mapped_pages += 1;
        }
        *slot = Slot::Leaf(Pte::mapping(frame));
        outcome
    }

    /// Removes the mapping for `page`; returns the old entry if one existed.
    pub fn unmap(&mut self, page: u64) -> Option<Pte> {
        let node = self.leaf_node(page)?;
        let leaf_idx = Self::level_index(page, 1);
        match self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => {
                self.nodes[node].slots[leaf_idx] = Slot::Empty;
                self.mapped_pages -= 1;
                Some(pte)
            }
            _ => None,
        }
    }

    /// Changes the frame an existing mapping points to, preserving flags.
    /// Returns the address of the modified leaf entry, or `None` if the page
    /// was not mapped.
    pub fn remap(&mut self, page: u64, new_frame: u64) -> Option<u64> {
        let node = self.leaf_node(page)?;
        let leaf_idx = Self::level_index(page, 1);
        match &mut self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => {
                pte.frame = new_frame;
                Some(self.nodes[node].slot_addr(leaf_idx))
            }
            _ => None,
        }
    }

    /// Looks up the leaf entry for `page` without touching status bits.
    #[must_use]
    pub fn translate(&self, page: u64) -> Option<Pte> {
        let node = self.leaf_node(page)?;
        let leaf_idx = Self::level_index(page, 1);
        match self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => Some(pte),
            _ => None,
        }
    }

    /// Returns the byte address (in the table's own address space) of the
    /// leaf entry for `page`, if it is mapped.
    #[must_use]
    pub fn leaf_entry_addr(&self, page: u64) -> Option<u64> {
        let node = self.leaf_node(page)?;
        let leaf_idx = Self::level_index(page, 1);
        match self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => Some(self.nodes[node].slot_addr(leaf_idx)),
            _ => None,
        }
    }

    /// Marks the leaf entry for `page` accessed (and dirty if `write`);
    /// returns `true` if the accessed bit was newly set.  Models the hardware
    /// walker's metadata updates (Sec. 4.4, "Metadata updates").
    pub fn mark_used(&mut self, page: u64, write: bool) -> Option<bool> {
        let node = self.leaf_node(page)?;
        let leaf_idx = Self::level_index(page, 1);
        match &mut self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => {
                let newly = pte.mark_accessed();
                if write {
                    pte.mark_dirty();
                }
                Some(newly)
            }
            _ => None,
        }
    }

    /// Performs a full 4-level walk for `page`, returning the address of the
    /// entry visited at every level (root first, a fixed-size record with
    /// no heap allocation) and the leaf translation.  Returns `None` if any
    /// level is missing.
    #[must_use]
    pub fn walk(&self, page: u64) -> Option<([EntryRef; RADIX_LEVELS], Pte)> {
        let mut refs = [EntryRef::default(); RADIX_LEVELS];
        let mut node = self.root;
        for (entry, level) in refs.iter_mut().zip((2..=RADIX_LEVELS as u8).rev()) {
            let idx = Self::level_index(page, level);
            *entry = EntryRef {
                level,
                entry_addr: self.nodes[node].slot_addr(idx),
            };
            match self.nodes[node].slots[idx] {
                Slot::Table(next) => node = next,
                _ => return None,
            }
        }
        let leaf_idx = Self::level_index(page, 1);
        refs[RADIX_LEVELS - 1] = EntryRef {
            level: 1,
            entry_addr: self.nodes[node].slot_addr(leaf_idx),
        };
        match self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => Some((refs, pte)),
            _ => None,
        }
    }

    /// The `Vec`-returning walk [`RadixTable::walk`] replaced, kept as the
    /// oracle of the fixed-size record.
    #[cfg(test)]
    pub(crate) fn walk_vec(&self, page: u64) -> Option<(Vec<EntryRef>, Pte)> {
        let mut refs = Vec::with_capacity(RADIX_LEVELS);
        let mut node = self.root;
        for level in (2..=RADIX_LEVELS as u8).rev() {
            let idx = Self::level_index(page, level);
            refs.push(EntryRef {
                level,
                entry_addr: self.nodes[node].slot_addr(idx),
            });
            match self.nodes[node].slots[idx] {
                Slot::Table(next) => node = next,
                _ => return None,
            }
        }
        let leaf_idx = Self::level_index(page, 1);
        refs.push(EntryRef {
            level: 1,
            entry_addr: self.nodes[node].slot_addr(leaf_idx),
        });
        match self.nodes[node].slots[leaf_idx] {
            Slot::Leaf(pte) if pte.is_present() => Some((refs, pte)),
            _ => None,
        }
    }

    fn leaf_node(&self, page: u64) -> Option<NodeIndex> {
        let mut node = self.root;
        for level in (2..=RADIX_LEVELS as u8).rev() {
            let idx = Self::level_index(page, level);
            match self.nodes[node].slots[idx] {
                Slot::Table(next) => node = next,
                _ => return None,
            }
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_round_trip() {
        let mut table = RadixTable::new(0x100);
        table.map(0xdead, 0xbeef);
        assert_eq!(table.translate(0xdead).unwrap().frame, 0xbeef);
        assert_eq!(table.translate(0xdeae), None);
        assert_eq!(table.mapped_pages(), 1);
    }

    #[test]
    fn mapped_keys_are_complete_and_ascending() {
        let mut table = RadixTable::new(0x100);
        // Spread keys across distinct leaf nodes and levels, inserted out
        // of order.
        let keys = [1u64 << 30, 7, 0xdead, 512, 42, (1 << 30) + 3];
        for &k in &keys {
            table.map(k, k + 1);
        }
        table.unmap(42);
        let mut expected: Vec<u64> = keys.iter().copied().filter(|&k| k != 42).collect();
        expected.sort_unstable();
        assert_eq!(table.mapped_keys(), expected);
        assert_eq!(table.mapped_keys().len() as u64, table.mapped_pages());
    }

    #[test]
    fn map_allocates_three_interior_nodes_first_time() {
        let mut table = RadixTable::new(0x100);
        let outcome = table.map(42, 7);
        // Levels 3, 2, 1 must be allocated beneath the pre-existing root.
        assert_eq!(outcome.allocated_nodes.len(), 3);
        assert_eq!(table.node_count(), 4);
        // A second page in the same 2 MiB region reuses all nodes.
        let outcome2 = table.map(43, 8);
        assert!(outcome2.allocated_nodes.is_empty());
    }

    #[test]
    fn remap_preserves_entry_address() {
        let mut table = RadixTable::new(0x100);
        table.map(99, 1);
        let addr_before = table.leaf_entry_addr(99).unwrap();
        let addr_reported = table.remap(99, 2).unwrap();
        assert_eq!(addr_before, addr_reported);
        assert_eq!(table.translate(99).unwrap().frame, 2);
    }

    #[test]
    fn unmap_removes_mapping() {
        let mut table = RadixTable::new(0x100);
        table.map(5, 6);
        assert!(table.unmap(5).is_some());
        assert_eq!(table.translate(5), None);
        assert_eq!(table.mapped_pages(), 0);
        assert!(table.unmap(5).is_none());
    }

    #[test]
    fn walk_returns_four_levels() {
        let mut table = RadixTable::new(0x100);
        table.map(0x12345, 0x777);
        let (refs, pte) = table.walk(0x12345).unwrap();
        assert_eq!(refs.len(), 4);
        assert_eq!(pte.frame, 0x777);
        assert_eq!(refs[0].level, 4);
        assert_eq!(refs[3].level, 1);
        // Entry addresses must fall inside their node's page.
        for r in &refs {
            assert_eq!(r.entry_addr % PTE_BYTES, 0);
        }
    }

    #[test]
    fn walk_of_unmapped_page_is_none() {
        let table = RadixTable::new(0x100);
        assert!(table.walk(1).is_none());
    }

    #[test]
    fn distinct_pages_have_distinct_leaf_entries() {
        let mut table = RadixTable::new(0x100);
        table.map(1, 10);
        table.map(2, 20);
        assert_ne!(table.leaf_entry_addr(1), table.leaf_entry_addr(2));
    }

    #[test]
    fn pages_in_same_line_share_cache_line() {
        let mut table = RadixTable::new(0x100);
        table.map(0, 10);
        table.map(7, 20);
        table.map(8, 30);
        let a = table.leaf_entry_addr(0).unwrap();
        let b = table.leaf_entry_addr(7).unwrap();
        let c = table.leaf_entry_addr(8).unwrap();
        assert_eq!(a / 64, b / 64, "ptes 0..8 share a 64B line");
        assert_ne!(a / 64, c / 64);
    }

    #[test]
    fn mark_used_sets_accessed_once() {
        let mut table = RadixTable::new(0x100);
        table.map(3, 4);
        assert_eq!(table.mark_used(3, false), Some(true));
        assert_eq!(table.mark_used(3, true), Some(false));
        assert!(table.translate(3).unwrap().flags.dirty);
        assert_eq!(table.mark_used(4, false), None);
    }

    #[test]
    fn many_mappings_scale() {
        let mut table = RadixTable::new(0x10000);
        for page in 0..10_000u64 {
            table.map(page, page + 1);
        }
        assert_eq!(table.mapped_pages(), 10_000);
        for page in (0..10_000u64).step_by(997) {
            assert_eq!(table.translate(page).unwrap().frame, page + 1);
        }
    }
}
