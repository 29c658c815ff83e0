//! Cache-line coherence states and page-table line classification.

/// MESI coherence states for lines in private caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// Modified: this CPU holds the only, dirty copy.
    Modified,
    /// Exclusive: this CPU holds the only, clean copy.
    Exclusive,
    /// Shared: one of possibly many clean copies.
    Shared,
    /// Invalid (not present).  Stored only transiently.
    Invalid,
}

impl MesiState {
    /// Whether a CPU holding the line in this state may write it without a
    /// coherence transaction.
    #[must_use]
    pub fn can_write_silently(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// Whether the line holds dirty data that must be written back on
    /// eviction.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }
}

/// Which page table a cache line belongs to, if any.
///
/// The coherence directory records this with two bits per entry so that
/// writes to such lines can be relayed to translation structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtKind {
    /// The line holds guest page-table entries.
    Guest,
    /// The line holds nested page-table entries.
    Nested,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_write_permission() {
        assert!(MesiState::Modified.can_write_silently());
        assert!(MesiState::Exclusive.can_write_silently());
        assert!(!MesiState::Shared.can_write_silently());
        assert!(!MesiState::Invalid.can_write_silently());
    }

    #[test]
    fn only_modified_is_dirty() {
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
        assert!(!MesiState::Shared.is_dirty());
    }
}
