//! Deterministic VM arrival/departure churn.
//!
//! A [`ChurnStream`] expands a seed into a fixed schedule of
//! [`ChurnEvent`]s *before* the cluster runs — the stream is data, not a
//! live random source, so a scenario's churn is byte-identical for any
//! thread count, and tests can fuzz over streams by fuzzing the generator
//! inputs.

/// One churn event, due at the start of `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Epoch (0-based, counted over the whole run including warmup) at
    /// whose boundary the event fires.
    pub epoch: u64,
    /// What happens.
    pub kind: ChurnKind,
}

/// The kinds of churn the cluster reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// A VM arrives; the placement policy picks the host (the arrival's
    /// `home` is its affinity hint) and the lowest free slot there.
    Arrive {
        /// Home-host hint for [`PlacementPolicy::Affinity`](crate::PlacementPolicy::Affinity).
        home: usize,
    },
    /// The `ordinal`-th currently-active VM (counting over hosts in
    /// index order, then slots) departs.  VMs involved in an in-flight
    /// migration are skipped when counting.
    Depart {
        /// Selector into the active-VM population (wraps around).
        ordinal: u64,
    },
    /// The `ordinal`-th active VM is live-migrated to the
    /// policy-chosen host (skipped when it is already mid-migration or no
    /// destination has a free slot).
    Migrate {
        /// Selector into the active-VM population (wraps around).
        ordinal: u64,
        /// Post-copy instead of pre-copy.
        post_copy: bool,
    },
}

/// splitmix64 — the tiny deterministic generator the workloads crate also
/// builds on.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// Expands a seed into a deterministic churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStream {
    /// Master seed.
    pub seed: u64,
    /// Number of hosts (homes are drawn `mod hosts`).
    pub hosts: usize,
    /// Mean epochs between events (events are drawn per epoch with
    /// probability `1/period`; `0` disables churn entirely).
    pub period: u64,
}

impl ChurnStream {
    /// A stream drawing roughly one event every `period` epochs.
    #[must_use]
    pub fn new(seed: u64, hosts: usize, period: u64) -> Self {
        Self {
            seed,
            hosts,
            period,
        }
    }

    /// The events due over `epochs` epochs, in epoch order.  The draw per
    /// epoch: event-or-not, then kind (arrival 40%, departure 30%,
    /// migration 30% — half of the migrations post-copy), then the
    /// selector fields.
    #[must_use]
    pub fn generate(&self, epochs: u64) -> Vec<ChurnEvent> {
        if self.period == 0 || self.hosts == 0 {
            return Vec::new();
        }
        let mut state = self.seed ^ 0xc1u64.rotate_left(32);
        let mut draw = || {
            splitmix64(&mut state);
            state
        };
        let mut events = Vec::new();
        for epoch in 0..epochs {
            if draw() % self.period != 0 {
                continue;
            }
            let kind = match draw() % 10 {
                0..=3 => ChurnKind::Arrive {
                    home: (draw() % self.hosts as u64) as usize,
                },
                4..=6 => ChurnKind::Depart { ordinal: draw() },
                _ => ChurnKind::Migrate {
                    ordinal: draw(),
                    post_copy: draw() % 2 == 0,
                },
            };
            events.push(ChurnEvent { epoch, kind });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_epoch_ordered() {
        let stream = ChurnStream::new(42, 4, 3);
        let a = stream.generate(64);
        let b = stream.generate(64);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        assert!(!a.is_empty(), "period 3 over 64 epochs must draw events");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ChurnStream::new(1, 4, 2).generate(64);
        let b = ChurnStream::new(2, 4, 2).generate(64);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_period_disables_churn() {
        assert!(ChurnStream::new(7, 4, 0).generate(64).is_empty());
    }
}
