//! Where new and migrating VMs land.

/// Picks the host a VM arrival (or a migration destination) lands on.
///
/// Both policies are pure functions of `(loads, free slots, home)` with
/// host-index tie-breaks, so placement is deterministic for a
/// deterministic churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The host with the fewest scheduled vCPUs that still has a free
    /// slot (ties broken by lowest host index).
    LeastLoaded,
    /// Prefer the VM's *home* host (data locality: the image, its
    /// storage replicas) when it has a free slot; fall back to
    /// least-loaded otherwise.
    Affinity,
}

impl PlacementPolicy {
    /// Parses the CLI label (`least_loaded` / `affinity`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized label.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label {
            "least_loaded" => Ok(Self::LeastLoaded),
            "affinity" => Ok(Self::Affinity),
            other => Err(format!(
                "unknown placement policy {other:?} (expected least_loaded|affinity)"
            )),
        }
    }

    /// The registry/CLI label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::LeastLoaded => "least_loaded",
            Self::Affinity => "affinity",
        }
    }

    /// Chooses a host for a VM whose home is `home`.  `candidates` is one
    /// entry per host: `(load, has_free_slot)`.  Returns `None` when no
    /// host has a free slot.
    #[must_use]
    pub fn choose_host(&self, candidates: &[(u64, bool)], home: usize) -> Option<usize> {
        if *self == Self::Affinity {
            if let Some(&(_, true)) = candidates.get(home) {
                return Some(home);
            }
        }
        candidates
            .iter()
            .enumerate()
            .filter(|(_, (_, free))| *free)
            .min_by_key(|(index, (load, _))| (*load, *index))
            .map(|(index, _)| index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_breaks_ties_by_index() {
        let candidates = [(8, true), (3, true), (3, true), (1, false)];
        assert_eq!(
            PlacementPolicy::LeastLoaded.choose_host(&candidates, 0),
            Some(1)
        );
    }

    #[test]
    fn affinity_prefers_home_until_it_is_full() {
        let candidates = [(8, true), (3, true)];
        assert_eq!(
            PlacementPolicy::Affinity.choose_host(&candidates, 0),
            Some(0)
        );
        let full_home = [(8, false), (3, true)];
        assert_eq!(
            PlacementPolicy::Affinity.choose_host(&full_home, 0),
            Some(1)
        );
    }

    #[test]
    fn no_free_slot_anywhere_yields_none() {
        assert_eq!(
            PlacementPolicy::LeastLoaded.choose_host(&[(1, false), (2, false)], 0),
            None
        );
    }

    #[test]
    fn labels_round_trip() {
        for policy in [PlacementPolicy::LeastLoaded, PlacementPolicy::Affinity] {
            assert_eq!(PlacementPolicy::parse(policy.label()), Ok(policy));
        }
        assert!(PlacementPolicy::parse("round_robin").is_err());
    }
}
