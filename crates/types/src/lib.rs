//! # hatric-types
//!
//! Core vocabulary for the HATRIC translation-coherence simulator: strongly
//! typed addresses (guest-virtual, guest-physical, system-physical), page and
//! frame numbers, cache-line addresses, co-tags, hardware/software entity
//! identifiers, architectural constants, a deterministic RNG, and statistics
//! counters shared by every other crate in the workspace.
//!
//! The types follow the newtype pattern so that the simulator cannot mix up
//! the three address spaces involved in two-dimensional address translation
//! (see Sec. 2.1 of the paper): guest-virtual pages (GVP), guest-physical
//! pages (GPP), and system-physical pages (SPP).
//!
//! ```
//! use hatric_types::{GuestVirtAddr, PageSize};
//!
//! let va = GuestVirtAddr::new(0x7fff_dead_b000);
//! let page = va.page(PageSize::Base);
//! assert_eq!(page.base_addr().raw(), 0x7fff_dead_b000);
//! assert_eq!(va.page_offset(PageSize::Base), 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod addr;
pub mod consts;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod stats;

pub use addr::{
    CacheLineAddr, CoTag, GuestFrame, GuestPhysAddr, GuestVirtAddr, GuestVirtPage, PageSize,
    SystemFrame, SystemPhysAddr,
};
pub use consts::{
    CACHE_LINE_BYTES, PAGE_SIZE_4K, PTES_PER_CACHE_LINE, PTE_BYTES, RADIX_BITS_PER_LEVEL,
    RADIX_LEVELS,
};
pub use error::{ConfigError, Result, SimError};
pub use hash::{fib_hash, FibBuildHasher, FibHasher};
pub use ids::{AddressSpaceId, CpuId, ProcessId, SocketId, VcpuId, VmId};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, RatioStat};
