//! Strongly typed addresses for the three address spaces of a virtualized
//! system, plus the derived quantities the simulator works with (pages,
//! frames, cache lines, and HATRIC co-tags).
//!
//! Two-dimensional address translation involves three spaces:
//!
//! * **Guest-virtual** ([`GuestVirtAddr`], [`GuestVirtPage`]) — what a guest
//!   application issues.
//! * **Guest-physical** ([`GuestPhysAddr`], [`GuestFrame`]) — what the guest
//!   OS believes is physical memory.
//! * **System-physical** ([`SystemPhysAddr`], [`SystemFrame`]) — real DRAM
//!   locations, managed by the hypervisor.
//!
//! The newtypes make it a compile error to, e.g., index the nested page table
//! with a guest-virtual page, which is exactly the confusion the paper points
//! out hypervisors struggle with (they know GPPs/SPPs but not GVPs).

use core::fmt;

use crate::consts::{CACHE_LINE_BYTES, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};

/// Page sizes supported by the simulated architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PageSize {
    /// 4 KiB base page.
    #[default]
    Base,
    /// 2 MiB superpage.
    Large2M,
    /// 1 GiB superpage.
    Huge1G,
}

impl PageSize {
    /// Size of the page in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Base => PAGE_SIZE_4K,
            PageSize::Large2M => PAGE_SIZE_2M,
            PageSize::Huge1G => PAGE_SIZE_1G,
        }
    }

    /// Number of base (4 KiB) pages spanned by a page of this size.
    #[must_use]
    pub fn base_pages(self) -> u64 {
        self.bytes() / PAGE_SIZE_4K
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base => write!(f, "4KiB"),
            PageSize::Large2M => write!(f, "2MiB"),
            PageSize::Huge1G => write!(f, "1GiB"),
        }
    }
}

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident, $short:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit address.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address of the cache line containing this address.
            #[must_use]
            pub fn cache_line(self) -> CacheLineAddr {
                CacheLineAddr::containing(self.0)
            }

            /// Returns the offset of this address within its page.
            #[must_use]
            pub fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Returns an address displaced by `delta` bytes.
            #[must_use]
            pub fn offset(self, delta: u64) -> Self {
                Self(self.0.wrapping_add(delta))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, ":{:#x}"), self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }
    };
}

addr_newtype!(
    /// A guest-virtual byte address (what guest applications issue).
    GuestVirtAddr,
    "gva"
);
addr_newtype!(
    /// A guest-physical byte address (what the guest OS manages).
    GuestPhysAddr,
    "gpa"
);
addr_newtype!(
    /// A system-physical byte address (real DRAM, managed by the hypervisor).
    SystemPhysAddr,
    "spa"
);

impl GuestVirtAddr {
    /// The guest-virtual page containing this address.
    #[must_use]
    pub fn page(self, size: PageSize) -> GuestVirtPage {
        GuestVirtPage::containing(self, size)
    }
}

impl GuestPhysAddr {
    /// The guest-physical frame containing this address.
    #[must_use]
    pub fn frame(self, size: PageSize) -> GuestFrame {
        GuestFrame::containing(self, size)
    }
}

impl SystemPhysAddr {
    /// The system-physical frame containing this address.
    #[must_use]
    pub fn frame(self, size: PageSize) -> SystemFrame {
        SystemFrame::containing(self, size)
    }
}

macro_rules! page_newtype {
    ($(#[$meta:meta])* $name:ident, $addr:ident, $short:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates a page/frame from its 4 KiB-granular number.
            #[must_use]
            pub const fn new(number: u64) -> Self {
                Self(number)
            }

            /// The page/frame number (in units of 4 KiB base pages).
            #[must_use]
            pub const fn number(self) -> u64 {
                self.0
            }

            /// The page/frame containing the given byte address.
            #[must_use]
            pub fn containing(addr: $addr, size: PageSize) -> Self {
                let base = addr.raw() & !(size.bytes() - 1);
                Self(base / PAGE_SIZE_4K)
            }

            /// First byte address of the page/frame.
            #[must_use]
            pub fn base_addr(self) -> $addr {
                $addr::new(self.0 * PAGE_SIZE_4K)
            }

            /// Address of the `offset`-th byte inside the page/frame.
            #[must_use]
            pub fn addr_at(self, offset: u64) -> $addr {
                $addr::new(self.0 * PAGE_SIZE_4K + offset)
            }

            /// The next page/frame number.
            #[must_use]
            pub fn next(self) -> Self {
                Self(self.0 + 1)
            }

            /// A page/frame displaced by `delta` base pages.
            #[must_use]
            pub fn offset(self, delta: u64) -> Self {
                Self(self.0.wrapping_add(delta))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, ":{:#x}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(number: u64) -> Self {
                Self(number)
            }
        }

        impl From<$name> for u64 {
            fn from(page: $name) -> u64 {
                page.0
            }
        }
    };
}

page_newtype!(
    /// A guest-virtual page number (GVP).
    GuestVirtPage,
    GuestVirtAddr,
    "gvp"
);
page_newtype!(
    /// A guest-physical frame number (GPP).
    GuestFrame,
    GuestPhysAddr,
    "gpp"
);
page_newtype!(
    /// A system-physical frame number (SPP).
    SystemFrame,
    SystemPhysAddr,
    "spp"
);

/// The address of a 64-byte cache line in system-physical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CacheLineAddr(u64);

impl CacheLineAddr {
    /// Creates a cache-line address from a line-aligned byte address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `aligned` is not 64-byte aligned.
    #[must_use]
    pub fn new(aligned: u64) -> Self {
        debug_assert_eq!(
            aligned % CACHE_LINE_BYTES,
            0,
            "address must be line aligned"
        );
        Self(aligned)
    }

    /// The cache line containing a byte address.
    #[must_use]
    pub fn containing(addr: u64) -> Self {
        Self(addr & !(CACHE_LINE_BYTES - 1))
    }

    /// The line-aligned byte address of this cache line.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The line index (raw address divided by the line size).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0 / CACHE_LINE_BYTES
    }

    /// The system-physical address of the first byte of the line.
    #[must_use]
    pub fn base(self) -> SystemPhysAddr {
        SystemPhysAddr::new(self.0)
    }
}

impl fmt::Display for CacheLineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

impl From<SystemPhysAddr> for CacheLineAddr {
    fn from(addr: SystemPhysAddr) -> Self {
        CacheLineAddr::containing(addr.raw())
    }
}

/// A HATRIC coherence tag (co-tag).
///
/// A co-tag is a truncated system-physical address of the *page-table entry*
/// (not the data page) backing a cached translation. The paper's preferred
/// configuration stores bits 19..=3 of that address in a 2-byte tag
/// (Sec. 4.1/4.2); the width is configurable so the Fig. 11 co-tag sweep can
/// be reproduced.
///
/// Two translations whose page-table entries live in the same cache line
/// always produce the same co-tag, giving the 8-entry invalidation
/// granularity described in the paper. Narrow co-tags alias more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoTag(u32);

impl CoTag {
    /// Lowest address bit captured by a co-tag: bit 3 would address a PTE
    /// within a line, so tags start at bit `log2(CACHE_LINE_BYTES)` = 6?  No:
    /// the paper excludes the 3 least-significant PTE-index bits of the
    /// *entry address* (bits 0..=2 address bytes inside the PTE and 3..=5
    /// select the PTE within the line). HATRIC tracks whole cache lines, so
    /// the tag starts at the cache-line granularity, bit 6 of the byte
    /// address — equivalently bit 3 of the PTE index as stated in Sec. 4.2.
    pub const LOW_BIT: u32 = 6;

    /// Builds a co-tag of `width_bytes` bytes from the system-physical
    /// address of a page-table entry.
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` is zero or greater than 4.
    #[must_use]
    pub fn from_pte_addr(pte_addr: SystemPhysAddr, width_bytes: u8) -> Self {
        assert!(
            (1..=4).contains(&width_bytes),
            "co-tag width must be between 1 and 4 bytes, got {width_bytes}"
        );
        let bits = u32::from(width_bytes) * 8;
        let shifted = pte_addr.raw() >> Self::LOW_BIT;
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        Self((shifted & mask) as u32)
    }

    /// Builds a co-tag from a cache-line address (used by coherence traffic).
    #[must_use]
    pub fn from_line(line: CacheLineAddr, width_bytes: u8) -> Self {
        Self::from_pte_addr(line.base(), width_bytes)
    }

    /// Raw tag value.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CoTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cotag:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_round_trip() {
        let va = GuestVirtAddr::new(0x1234_5678);
        let page = va.page(PageSize::Base);
        assert_eq!(page.base_addr().raw(), 0x1234_5000);
        assert_eq!(va.page_offset(PageSize::Base), 0x678);
    }

    #[test]
    fn large_page_alignment() {
        let gpa = GuestPhysAddr::new(3 * PAGE_SIZE_2M + 17);
        let frame = gpa.frame(PageSize::Large2M);
        assert_eq!(frame.base_addr().raw(), 3 * PAGE_SIZE_2M);
        assert_eq!(frame.number() % PageSize::Large2M.base_pages(), 0);
    }

    #[test]
    fn cache_line_containing() {
        let line = CacheLineAddr::containing(0x1007);
        assert_eq!(line.raw(), 0x1000);
        assert_eq!(line.index(), 0x40);
    }

    #[test]
    fn cotag_same_line_same_tag() {
        let a = SystemPhysAddr::new(0x10_0c00);
        let b = SystemPhysAddr::new(0x10_0c38);
        assert_eq!(
            CoTag::from_pte_addr(a, 2),
            CoTag::from_pte_addr(b, 2),
            "PTEs in one cache line must share a co-tag"
        );
    }

    #[test]
    fn cotag_adjacent_lines_differ() {
        let a = SystemPhysAddr::new(0x10_0c00);
        let b = SystemPhysAddr::new(0x10_0c40);
        assert_ne!(CoTag::from_pte_addr(a, 2), CoTag::from_pte_addr(b, 2));
    }

    #[test]
    fn narrow_cotags_alias() {
        // With 1-byte co-tags only 8 bits are kept, so lines 256 lines apart alias.
        let a = SystemPhysAddr::new(0);
        let b = SystemPhysAddr::new(256 * CACHE_LINE_BYTES);
        assert_eq!(CoTag::from_pte_addr(a, 1), CoTag::from_pte_addr(b, 1));
        assert_ne!(CoTag::from_pte_addr(a, 2), CoTag::from_pte_addr(b, 2));
    }

    #[test]
    #[should_panic(expected = "co-tag width")]
    fn cotag_width_validation() {
        let _ = CoTag::from_pte_addr(SystemPhysAddr::new(0), 0);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", GuestVirtAddr::new(0)).is_empty());
        assert!(!format!("{}", GuestVirtPage::new(0)).is_empty());
        assert!(!format!("{}", CacheLineAddr::containing(0)).is_empty());
        assert!(!format!("{}", CoTag::default()).is_empty());
        assert!(!format!("{}", PageSize::Base).is_empty());
    }

    #[test]
    fn page_size_ordering() {
        assert!(PageSize::Base < PageSize::Large2M);
        assert!(PageSize::Large2M < PageSize::Huge1G);
        assert_eq!(PageSize::Large2M.base_pages(), 512);
    }
}
