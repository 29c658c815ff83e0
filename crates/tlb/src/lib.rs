//! # hatric-tlb
//!
//! The per-CPU translation structures of the simulated machine, extended
//! with HATRIC *co-tags*:
//!
//! * [`Tlb`] — set-associative L1/L2 TLBs caching GVP → SPP translations;
//! * [`MmuCache`] — an Intel-style *paging-structure cache* caching partial
//!   guest walks (GVP prefix → system frame of a guest page-table node);
//! * [`NestedTlb`] — a nested TLB caching GPP → SPP translations, used to
//!   short-circuit the nested dimension of two-dimensional walks;
//! * [`TranslationStructures`] — the per-CPU bundle of all of the above with
//!   a single lookup/fill/invalidate interface used by the core simulator.
//!
//! Every cached entry carries a [`CoTag`](hatric_types::CoTag): a truncated
//! system-physical address of the page-table entry it was filled from.  The
//! coherence layer matches invalidation traffic (a cache line of page-table
//! memory being written) against these co-tags to invalidate exactly the
//! stale entries, which is HATRIC's central mechanism (Sec. 4.1–4.2).
//!
//! ```
//! use hatric_tlb::{TlbConfig, TranslationStructures, StructureSizes};
//! use hatric_types::{AddressSpaceId, CoTag, GuestVirtPage, SystemFrame, SystemPhysAddr, VmId};
//!
//! let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
//! let vm = VmId::new(0);
//! let asid = AddressSpaceId::new(1);
//! let gvp = GuestVirtPage::new(0x42);
//! let pte_addr = SystemPhysAddr::new(0x10_0c00);
//!
//! assert!(ts.lookup_data(vm, asid, gvp).is_none());
//! ts.fill_data(vm, asid, gvp, SystemFrame::new(5), pte_addr, None);
//! assert_eq!(ts.lookup_data(vm, asid, gvp).unwrap().spp, SystemFrame::new(5));
//!
//! // A store to the nested page-table line invalidates the entry precisely
//! // (it is removed from both TLB levels).
//! let invalidated = ts.invalidate_cotag(CoTag::from_pte_addr(pte_addr, 2));
//! assert_eq!(invalidated.tlb, 2);
//! assert!(ts.lookup_data(vm, asid, gvp).is_none());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod mmu_cache;
pub mod ntlb;
pub mod set_assoc;
mod sip;
pub mod structures;
pub mod tlb;

pub use mmu_cache::{MmuCache, MmuCacheEntry};
pub use ntlb::{NestedTlb, NestedTlbEntry};
pub use set_assoc::SetAssoc;
pub use structures::{
    DataLookup, InvalidationCounts, StructureSizes, TlbLevel, TranslationStatsSnapshot,
    TranslationStructures, WalkAssist, WalkRefs,
};
pub use tlb::{Tlb, TlbConfig, TlbEntry};
