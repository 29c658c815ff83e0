//! The two-dimensional page-table walker.
//!
//! On a TLB miss in a virtualized system the hardware walker must translate
//! the requested GVP through *both* page tables: every guest page-table
//! level's guest-physical address must itself be translated by a full nested
//! walk before the guest entry can be read (Fig. 1 of the paper).  The
//! result is the famous 24-memory-reference walk: four nested lookups for
//! each of the four guest levels (16), one read per guest level (4), and a
//! final nested walk for the data GPP (4).
//!
//! [`TwoDimWalker::walk`] performs that traversal functionally and returns a
//! [`TwoDimWalk`] describing every page-table entry touched, in order, with
//! its system-physical address — the raw material for the timing model
//! (which decides which steps are skipped thanks to MMU-cache / nTLB hits)
//! and for HATRIC's co-tags (which record the address of the nested leaf
//! entry).  Every walk record has a fixed size (one slot per radix level),
//! so a walk performs no heap allocation.

use hatric_types::consts::RADIX_LEVELS;
use hatric_types::{
    GuestFrame, GuestVirtPage, PageSize, Result, SimError, SystemFrame, SystemPhysAddr,
};

use crate::guest::GuestPageTable;
use crate::nested::NestedPageTable;

/// Which structure a walk step reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStepKind {
    /// A nested page-table entry read performed while translating the
    /// guest-physical address of guest level `for_guest_level`
    /// (0 means the final data translation).
    Nested {
        /// Guest level this nested lookup serves (4..=1, or 0 for data).
        for_guest_level: u8,
        /// Nested page-table level being read (4..=1).
        nested_level: u8,
    },
    /// A guest page-table entry read at the given guest level (4..=1).
    Guest {
        /// Guest page-table level being read (4..=1).
        level: u8,
    },
}

/// A full nested walk translating one guest-physical frame: a fixed-size
/// record, one entry address per nested level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NestedWalkSegment {
    /// The guest-physical frame being translated.
    pub gpp: GuestFrame,
    /// System-physical addresses of the nested entries read (nL4..nL1).
    pub step_addrs: [SystemPhysAddr; RADIX_LEVELS],
    /// The resulting system-physical frame.
    pub spp: SystemFrame,
}

impl NestedWalkSegment {
    /// Address of the nested leaf (nL1) entry — the co-tag source for this
    /// translation.
    #[must_use]
    pub fn leaf_pte_addr(&self) -> SystemPhysAddr {
        self.step_addrs[RADIX_LEVELS - 1]
    }
}

/// One guest level of the two-dimensional walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestWalkStep {
    /// Guest page-table level (4 = gL4 root .. 1 = gL1 leaf).
    pub level: u8,
    /// Nested translation of the guest table node's guest-physical frame.
    pub table_segment: NestedWalkSegment,
    /// System-physical address of the guest entry that is read at this level.
    pub guest_pte_addr: SystemPhysAddr,
}

/// The complete result of a two-dimensional page-table walk: a fixed-size
/// record (four guest steps of four nested addresses each, plus the data
/// segment), built without heap allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoDimWalk {
    /// The guest-virtual page that was translated.
    pub gvp: GuestVirtPage,
    /// The four guest-level steps (gL4 .. gL1), each with its supporting
    /// nested walk.
    pub guest_steps: [GuestWalkStep; RADIX_LEVELS],
    /// Nested translation of the final data guest-physical frame.
    pub data_segment: NestedWalkSegment,
    /// The guest-physical frame the guest page table maps `gvp` to.
    pub gpp: GuestFrame,
    /// The system-physical frame the data finally resides in.
    pub spp: SystemFrame,
    /// Page size of the final translation (always 4 KiB in this model).
    pub page_size: PageSize,
}

impl TwoDimWalk {
    /// Total number of memory references this walk performs when nothing is
    /// cached (the paper's 24).
    #[must_use]
    pub fn memory_references(&self) -> usize {
        self.guest_steps
            .iter()
            .map(|s| s.table_segment.step_addrs.len() + 1)
            .sum::<usize>()
            + self.data_segment.step_addrs.len()
    }

    /// All system-physical addresses touched, in walk order, labelled with
    /// the structure they belong to.
    #[must_use]
    pub fn steps(&self) -> Vec<(WalkStepKind, SystemPhysAddr)> {
        let mut out = Vec::with_capacity(self.memory_references());
        for step in &self.guest_steps {
            for (i, addr) in step.table_segment.step_addrs.iter().enumerate() {
                out.push((
                    WalkStepKind::Nested {
                        for_guest_level: step.level,
                        nested_level: 4 - i as u8,
                    },
                    *addr,
                ));
            }
            out.push((
                WalkStepKind::Guest { level: step.level },
                step.guest_pte_addr,
            ));
        }
        for (i, addr) in self.data_segment.step_addrs.iter().enumerate() {
            out.push((
                WalkStepKind::Nested {
                    for_guest_level: 0,
                    nested_level: 4 - i as u8,
                },
                *addr,
            ));
        }
        out
    }

    /// System-physical address of the nested leaf entry mapping the *data*
    /// page — the address HATRIC stores in the TLB co-tag for this
    /// translation.
    #[must_use]
    pub fn nested_leaf_pte_addr(&self) -> SystemPhysAddr {
        self.data_segment.leaf_pte_addr()
    }

    /// System-physical address of the guest leaf (gL1) entry.
    #[must_use]
    pub fn guest_leaf_pte_addr(&self) -> SystemPhysAddr {
        self.guest_steps[RADIX_LEVELS - 1].guest_pte_addr
    }
}

/// The hardware two-dimensional page-table walker.
///
/// The walker is stateless; per-CPU walker occupancy/latency is modelled by
/// the timing layer in `hatric-core`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoDimWalker;

impl TwoDimWalker {
    /// Translates one guest-physical frame through the nested table,
    /// recording every entry address touched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedGuestFrame`] if any nested level is
    /// missing.
    pub fn nested_walk(gpp: GuestFrame, nested: &NestedPageTable) -> Result<NestedWalkSegment> {
        let (steps, spp) = nested.walk(gpp).ok_or(SimError::UnmappedGuestFrame {
            frame: gpp.number(),
        })?;
        Ok(NestedWalkSegment {
            gpp,
            step_addrs: steps.map(|(_, addr)| addr),
            spp,
        })
    }

    /// Performs the full two-dimensional walk for `gvp`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedPage`] if the guest page table does not
    /// map `gvp`, or [`SimError::UnmappedGuestFrame`] if any guest-physical
    /// frame involved (guest page-table nodes or the data frame) has no
    /// nested mapping.
    pub fn walk(
        gvp: GuestVirtPage,
        guest: &GuestPageTable,
        nested: &NestedPageTable,
    ) -> Result<TwoDimWalk> {
        let (guest_refs, gpp) = guest
            .walk(gvp)
            .ok_or(SimError::UnmappedPage { page: gvp.number() })?;

        let mut guest_steps = [GuestWalkStep::default(); RADIX_LEVELS];
        for (step, (level, gpa)) in guest_steps.iter_mut().zip(guest_refs) {
            // Translate the guest table node's frame through the nested table.
            let node_gpp = gpa.frame(PageSize::Base);
            let segment = Self::nested_walk(node_gpp, nested)?;
            // The guest PTE lives at the translated system frame plus the
            // entry's offset within its node page.
            let guest_pte_addr = segment.spp.addr_at(gpa.page_offset(PageSize::Base));
            *step = GuestWalkStep {
                level,
                table_segment: segment,
                guest_pte_addr,
            };
        }

        let data_segment = Self::nested_walk(gpp, nested)?;
        let spp = data_segment.spp;
        Ok(TwoDimWalk {
            gvp,
            guest_steps,
            data_segment,
            gpp,
            spp,
            page_size: PageSize::Base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric_types::consts::TWO_DIM_WALK_REFS;

    fn build_tables(
        gvp: GuestVirtPage,
        gpp: GuestFrame,
        spp: SystemFrame,
    ) -> (GuestPageTable, NestedPageTable) {
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000));
        let out = guest.map(gvp, gpp);
        // Nested-map the data frame and every guest page-table node frame.
        nested.map(gpp, spp);
        for node in guest.node_frames() {
            nested.map(node, SystemFrame::new(node.number() + 0x100_000));
        }
        let _ = out;
        (guest, nested)
    }

    #[test]
    fn walk_produces_24_references() {
        let gvp = GuestVirtPage::new(3);
        let (guest, nested) = build_tables(gvp, GuestFrame::new(8), SystemFrame::new(5));
        let walk = TwoDimWalker::walk(gvp, &guest, &nested).unwrap();
        assert_eq!(walk.memory_references(), TWO_DIM_WALK_REFS);
        assert_eq!(walk.steps().len(), TWO_DIM_WALK_REFS);
        assert_eq!(walk.gpp, GuestFrame::new(8));
        assert_eq!(walk.spp, SystemFrame::new(5));
    }

    #[test]
    fn steps_order_matches_figure_1() {
        let gvp = GuestVirtPage::new(0x1234);
        let (guest, nested) = build_tables(gvp, GuestFrame::new(0x88), SystemFrame::new(0x99));
        let walk = TwoDimWalker::walk(gvp, &guest, &nested).unwrap();
        let steps = walk.steps();
        // First four steps are the nested walk for gL4, then the gL4 read.
        for (i, (kind, _)) in steps.iter().take(4).enumerate() {
            assert_eq!(
                *kind,
                WalkStepKind::Nested {
                    for_guest_level: 4,
                    nested_level: 4 - i as u8
                }
            );
        }
        assert_eq!(steps[4].0, WalkStepKind::Guest { level: 4 });
        // The last four steps translate the data GPP.
        for (i, (kind, _)) in steps.iter().rev().take(4).rev().enumerate() {
            assert_eq!(
                *kind,
                WalkStepKind::Nested {
                    for_guest_level: 0,
                    nested_level: 4 - i as u8
                }
            );
        }
    }

    #[test]
    fn cotag_source_is_data_nested_leaf() {
        let gvp = GuestVirtPage::new(77);
        let (guest, nested) = build_tables(gvp, GuestFrame::new(123), SystemFrame::new(456));
        let walk = TwoDimWalker::walk(gvp, &guest, &nested).unwrap();
        assert_eq!(
            walk.nested_leaf_pte_addr(),
            nested.leaf_entry_addr(GuestFrame::new(123)).unwrap()
        );
    }

    #[test]
    fn unmapped_gvp_errors() {
        let (guest, nested) = build_tables(
            GuestVirtPage::new(1),
            GuestFrame::new(2),
            SystemFrame::new(3),
        );
        let err = TwoDimWalker::walk(GuestVirtPage::new(99), &guest, &nested).unwrap_err();
        assert!(matches!(err, SimError::UnmappedPage { .. }));
    }

    #[test]
    fn missing_nested_mapping_errors() {
        let gvp = GuestVirtPage::new(1);
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let nested = NestedPageTable::new(SystemFrame::new(0x80_000));
        guest.map(gvp, GuestFrame::new(2));
        let err = TwoDimWalker::walk(gvp, &guest, &nested).unwrap_err();
        assert!(matches!(err, SimError::UnmappedGuestFrame { .. }));
    }

    #[test]
    fn remap_changes_walk_result_but_not_cotag_address() {
        let gvp = GuestVirtPage::new(3);
        let (guest, mut nested) = build_tables(gvp, GuestFrame::new(8), SystemFrame::new(5));
        let before = TwoDimWalker::walk(gvp, &guest, &nested).unwrap();
        let store_addr = nested
            .remap(GuestFrame::new(8), SystemFrame::new(512))
            .unwrap();
        let after = TwoDimWalker::walk(gvp, &guest, &nested).unwrap();
        assert_eq!(after.spp, SystemFrame::new(512));
        assert_eq!(before.nested_leaf_pte_addr(), after.nested_leaf_pte_addr());
        assert_eq!(before.nested_leaf_pte_addr(), store_addr);
    }

    /// The `Vec`-based walk records [`TwoDimWalker::walk`] replaced, built
    /// on the old `Vec`-returning radix walk, as the oracle of the
    /// fixed-size records.
    mod reference {
        use hatric_types::{
            GuestFrame, GuestPhysAddr, GuestVirtPage, PageSize, Result, SimError, SystemFrame,
            SystemPhysAddr,
        };

        use crate::guest::GuestPageTable;
        use crate::nested::NestedPageTable;
        use crate::walker::WalkStepKind;

        pub struct Segment {
            pub step_addrs: Vec<SystemPhysAddr>,
            pub spp: SystemFrame,
        }

        pub struct Step {
            pub level: u8,
            pub table_segment: Segment,
            pub guest_pte_addr: SystemPhysAddr,
        }

        pub struct Walk {
            pub guest_steps: Vec<Step>,
            pub data_segment: Segment,
            pub gpp: GuestFrame,
            pub spp: SystemFrame,
        }

        fn nested_walk(gpp: GuestFrame, nested: &NestedPageTable) -> Result<Segment> {
            let (refs, pte) =
                nested
                    .radix()
                    .walk_vec(gpp.number())
                    .ok_or(SimError::UnmappedGuestFrame {
                        frame: gpp.number(),
                    })?;
            Ok(Segment {
                step_addrs: refs
                    .into_iter()
                    .map(|r| SystemPhysAddr::new(r.entry_addr))
                    .collect(),
                spp: SystemFrame::new(pte.frame),
            })
        }

        pub fn walk(
            gvp: GuestVirtPage,
            guest: &GuestPageTable,
            nested: &NestedPageTable,
        ) -> Result<Walk> {
            let (guest_refs, pte) = guest
                .radix()
                .walk_vec(gvp.number())
                .ok_or(SimError::UnmappedPage { page: gvp.number() })?;
            let gpp = GuestFrame::new(pte.frame);
            let mut guest_steps = Vec::with_capacity(guest_refs.len());
            for r in guest_refs {
                let gpa = GuestPhysAddr::new(r.entry_addr);
                let segment = nested_walk(gpa.frame(PageSize::Base), nested)?;
                let guest_pte_addr = segment.spp.addr_at(gpa.page_offset(PageSize::Base));
                guest_steps.push(Step {
                    level: r.level,
                    table_segment: segment,
                    guest_pte_addr,
                });
            }
            let data_segment = nested_walk(gpp, nested)?;
            let spp = data_segment.spp;
            Ok(Walk {
                guest_steps,
                data_segment,
                gpp,
                spp,
            })
        }

        impl Walk {
            pub fn memory_references(&self) -> usize {
                self.guest_steps
                    .iter()
                    .map(|s| s.table_segment.step_addrs.len() + 1)
                    .sum::<usize>()
                    + self.data_segment.step_addrs.len()
            }

            pub fn steps(&self) -> Vec<(WalkStepKind, SystemPhysAddr)> {
                let mut out = Vec::new();
                for step in &self.guest_steps {
                    for (i, addr) in step.table_segment.step_addrs.iter().enumerate() {
                        out.push((
                            WalkStepKind::Nested {
                                for_guest_level: step.level,
                                nested_level: 4 - i as u8,
                            },
                            *addr,
                        ));
                    }
                    out.push((
                        WalkStepKind::Guest { level: step.level },
                        step.guest_pte_addr,
                    ));
                }
                for (i, addr) in self.data_segment.step_addrs.iter().enumerate() {
                    out.push((
                        WalkStepKind::Nested {
                            for_guest_level: 0,
                            nested_level: 4 - i as u8,
                        },
                        *addr,
                    ));
                }
                out
            }

            pub fn nested_leaf_pte_addr(&self) -> SystemPhysAddr {
                *self.data_segment.step_addrs.last().unwrap()
            }

            pub fn guest_leaf_pte_addr(&self) -> SystemPhysAddr {
                self.guest_steps.last().unwrap().guest_pte_addr
            }
        }
    }

    /// Seeded guest and nested tables: pages spread over distant parts of
    /// the address space (so walks share some nodes and not others), with
    /// about one guest-physical frame in twelve left without a nested
    /// mapping.
    fn seeded_tables(seed: u64) -> (GuestPageTable, NestedPageTable, Vec<GuestVirtPage>) {
        let mut rng = hatric_types::SimRng::new(seed);
        let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
        let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000));
        let mut pages = Vec::new();
        for _ in 0..40 {
            let gvp = GuestVirtPage::new(rng.below(1 << 30) | (rng.below(4) << 30));
            let gpp = GuestFrame::new(rng.below(1 << 20));
            guest.map(gvp, gpp);
            if rng.below(12) != 0 {
                nested.map(gpp, SystemFrame::new(rng.below(1 << 24)));
            }
            pages.push(gvp);
        }
        for node in guest.node_frames() {
            if rng.below(12) != 0 {
                nested.map(node, SystemFrame::new(node.number() + 0x100_000));
            }
        }
        // Probe some pages the guest never mapped, too.
        for _ in 0..8 {
            pages.push(GuestVirtPage::new(rng.below(1 << 32)));
        }
        (guest, nested, pages)
    }

    #[test]
    fn fixed_size_walks_match_the_vec_walks() {
        let (mut walked, mut failed) = (0, 0);
        for seed in 0..24u64 {
            let (guest, nested, pages) = seeded_tables(seed);
            for gvp in pages {
                let context = format!("seed {seed} gvp {gvp:?}");
                match (
                    TwoDimWalker::walk(gvp, &guest, &nested),
                    reference::walk(gvp, &guest, &nested),
                ) {
                    (Ok(got), Ok(want)) => {
                        walked += 1;
                        assert_eq!(got.steps(), want.steps(), "{context}");
                        assert_eq!(
                            got.memory_references(),
                            want.memory_references(),
                            "{context}"
                        );
                        assert_eq!(
                            got.nested_leaf_pte_addr(),
                            want.nested_leaf_pte_addr(),
                            "{context}"
                        );
                        assert_eq!(
                            got.guest_leaf_pte_addr(),
                            want.guest_leaf_pte_addr(),
                            "{context}"
                        );
                        assert_eq!((got.gpp, got.spp), (want.gpp, want.spp), "{context}");
                        for (step, old) in got.guest_steps.iter().zip(&want.guest_steps) {
                            assert_eq!(
                                step.table_segment.step_addrs[..],
                                old.table_segment.step_addrs[..]
                            );
                            assert_eq!(step.table_segment.spp, old.table_segment.spp);
                        }
                        assert_eq!(
                            got.data_segment.step_addrs[..],
                            want.data_segment.step_addrs[..]
                        );
                    }
                    (Err(got), Err(want)) => {
                        failed += 1;
                        assert_eq!(got, want, "{context}");
                    }
                    (got, want) => panic!("{context}: {:?} vs {:?}", got.is_ok(), want.is_ok()),
                }
            }
        }
        assert!(
            walked > 500 && failed > 100,
            "walked {walked}, failed {failed}"
        );
    }
}
