//! Coherence-directory design variants (the Fig. 12 ablation).

/// The directory-design options Sec. 4.2 discusses and Fig. 12 evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DesignVariant {
    /// Baseline HATRIC: lazy sharer updates, pseudo-specific line-grain
    /// tracking, a bounded dual-grain directory with back-invalidations.
    #[default]
    Baseline,
    /// Eagerly update directory sharer lists whenever a page-table line is
    /// evicted from a private cache or a translation structure.  Saves some
    /// spurious messages but costs translation-structure lookup energy.
    EagerDirUpdate,
    /// Track whether a translation is cached in the TLB, MMU cache, nTLB or
    /// L1 individually.  Slightly less coherence traffic, but a larger and
    /// more energy-hungry directory.
    FineGrainTracking,
    /// An infinitely large directory that never back-invalidates.
    NoBackInv,
    /// All of the above combined.
    AllCombined,
}

impl DesignVariant {
    /// Whether sharer lists are updated eagerly on page-table line evictions.
    #[must_use]
    pub fn eager_directory_update(self) -> bool {
        matches!(
            self,
            DesignVariant::EagerDirUpdate | DesignVariant::AllCombined
        )
    }

    /// Whether the directory tracks which structure (TLB vs MMU cache vs
    /// nTLB vs L1) caches each translation.
    #[must_use]
    pub fn fine_grain_tracking(self) -> bool {
        matches!(
            self,
            DesignVariant::FineGrainTracking | DesignVariant::AllCombined
        )
    }

    /// Whether the directory is unbounded (never back-invalidates).
    #[must_use]
    pub fn unbounded_directory(self) -> bool {
        matches!(self, DesignVariant::NoBackInv | DesignVariant::AllCombined)
    }

    /// Relative energy multiplier for directory accesses under this variant.
    /// Fine-grain tracking needs wider entries and more banks; eager updates
    /// add translation-structure lookups on every eviction.
    #[must_use]
    pub fn directory_energy_factor(self) -> f64 {
        let mut factor = 1.0;
        if self.fine_grain_tracking() {
            factor *= 1.6;
        }
        if self.eager_directory_update() {
            factor *= 1.35;
        }
        if self.unbounded_directory() {
            factor *= 1.15;
        }
        factor
    }

    /// Fraction of HATRIC's spurious invalidation messages that this variant
    /// still sends (fine-grain tracking and eager updates suppress some).
    #[must_use]
    pub fn spurious_message_factor(self) -> f64 {
        match self {
            DesignVariant::Baseline => 1.0,
            DesignVariant::EagerDirUpdate => 0.35,
            DesignVariant::FineGrainTracking => 0.55,
            DesignVariant::NoBackInv => 0.95,
            DesignVariant::AllCombined => 0.25,
        }
    }

    /// All variants, in the order Fig. 12 presents them.
    #[must_use]
    pub fn all() -> [DesignVariant; 5] {
        [
            DesignVariant::Baseline,
            DesignVariant::EagerDirUpdate,
            DesignVariant::FineGrainTracking,
            DesignVariant::NoBackInv,
            DesignVariant::AllCombined,
        ]
    }

    /// Human-readable name matching the paper's figure labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DesignVariant::Baseline => "HATRIC",
            DesignVariant::EagerDirUpdate => "EGR-dir-update",
            DesignVariant::FineGrainTracking => "FG-tracking",
            DesignVariant::NoBackInv => "No-back-inv",
            DesignVariant::AllCombined => "All",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_default_and_cheapest_directory() {
        assert_eq!(DesignVariant::default(), DesignVariant::Baseline);
        for v in DesignVariant::all() {
            assert!(
                v.directory_energy_factor() >= DesignVariant::Baseline.directory_energy_factor()
            );
        }
    }

    #[test]
    fn all_combines_flags() {
        let all = DesignVariant::AllCombined;
        assert!(all.eager_directory_update());
        assert!(all.fine_grain_tracking());
        assert!(all.unbounded_directory());
        assert!(all.directory_energy_factor() > 2.0);
    }

    #[test]
    fn spurious_suppression_never_exceeds_baseline() {
        for v in DesignVariant::all() {
            assert!(v.spurious_message_factor() <= 1.0);
            assert!(v.spurious_message_factor() > 0.0);
        }
    }

    #[test]
    fn labels_match_figure_12() {
        assert_eq!(DesignVariant::EagerDirUpdate.label(), "EGR-dir-update");
        assert_eq!(DesignVariant::NoBackInv.label(), "No-back-inv");
    }
}
