//! Page-table entries and their architectural status bits.

/// Status bits carried by a page-table entry.
///
/// Only the bits the simulator cares about are modelled: `present`,
/// `writable`, `accessed` and `dirty`.  The accessed bit matters to HATRIC
/// because the hardware walker uses it to decide whether a directory entry
/// already carries the nPT/gPT marking (Sec. 4.2, "Directory entry changes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// The mapping is valid and may be used for translation.
    pub present: bool,
    /// The page may be written.
    pub writable: bool,
    /// Set by the hardware walker the first time the entry is used for a
    /// translation fill.
    pub accessed: bool,
    /// Set by the hardware walker on the first write through this mapping.
    pub dirty: bool,
}

impl PteFlags {
    /// Flags for a freshly created, present and writable mapping.
    #[must_use]
    pub fn present_rw() -> Self {
        Self {
            present: true,
            writable: true,
            accessed: false,
            dirty: false,
        }
    }
}

/// A leaf page-table entry: a target frame number plus status flags.
///
/// The frame number is interpreted in the address space of the table that
/// holds the entry (guest-physical for guest tables, system-physical for
/// nested tables); the strongly typed wrappers in [`crate::guest`] and
/// [`crate::nested`] take care of that distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte {
    /// Target frame number (4 KiB granular).
    pub frame: u64,
    /// Architectural status bits.
    pub flags: PteFlags,
}

impl Pte {
    /// Creates a present, writable mapping to `frame`.
    #[must_use]
    pub fn mapping(frame: u64) -> Self {
        Self {
            frame,
            flags: PteFlags::present_rw(),
        }
    }

    /// Returns `true` if the entry may be used for translation.
    #[must_use]
    pub fn is_present(&self) -> bool {
        self.flags.present
    }

    /// Marks the entry accessed (done by the hardware page-table walker on a
    /// translation-structure fill) and reports whether the bit was newly set.
    pub fn mark_accessed(&mut self) -> bool {
        let newly = !self.flags.accessed;
        self.flags.accessed = true;
        newly
    }

    /// Marks the entry dirty (hardware walker, on a write through the
    /// mapping) and reports whether the bit was newly set.
    pub fn mark_dirty(&mut self) -> bool {
        let newly = !self.flags.dirty;
        self.flags.dirty = true;
        newly
    }

    /// Clears the accessed and dirty bits (software page-replacement scans).
    pub fn clear_accessed_dirty(&mut self) {
        self.flags.accessed = false;
        self.flags.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_present_and_writable() {
        let pte = Pte::mapping(0x1234);
        assert!(pte.is_present());
        assert!(pte.flags.writable);
        assert!(!pte.flags.accessed);
    }

    #[test]
    fn accessed_bit_reports_transition() {
        let mut pte = Pte::mapping(1);
        assert!(pte.mark_accessed());
        assert!(!pte.mark_accessed());
        pte.clear_accessed_dirty();
        assert!(pte.mark_accessed());
    }

    #[test]
    fn dirty_bit_reports_transition() {
        let mut pte = Pte::mapping(1);
        assert!(pte.mark_dirty());
        assert!(!pte.mark_dirty());
    }

    #[test]
    fn default_is_not_present() {
        assert!(!Pte::default().is_present());
    }
}
