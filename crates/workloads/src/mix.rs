//! Multiprogrammed SPEC mixes (Fig. 10): 16 single-threaded applications
//! running together in one VM.

use hatric_types::SimRng;

use crate::spec::SpecApp;
use crate::stream::{Access, ThreadStream};

/// A named combination of 16 SPEC-like applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecMix {
    /// Mix index (0..80 in the paper's study).
    pub index: usize,
    /// The applications, one per vCPU.
    pub apps: Vec<SpecApp>,
}

impl SpecMix {
    /// Number of applications per mix used by the paper.
    pub const APPS_PER_MIX: usize = 16;

    /// Deterministically generates the `count` mixes used by the study.
    #[must_use]
    pub fn generate(count: usize, seed: u64) -> Vec<SpecMix> {
        let mut rng = SimRng::new(seed);
        let catalogue = SpecApp::all();
        (0..count)
            .map(|index| {
                let apps = (0..Self::APPS_PER_MIX)
                    .map(|_| catalogue[rng.below(catalogue.len() as u64) as usize])
                    .collect();
                SpecMix { index, apps }
            })
            .collect()
    }

    /// Total footprint of the mix in pages, for a given fast capacity.
    #[must_use]
    pub fn footprint_pages(&self, fast_capacity_pages: u64) -> u64 {
        self.apps
            .iter()
            .map(|a| a.footprint_pages(fast_capacity_pages))
            .sum()
    }
}

/// A running multiprogrammed mix: one independent address space and stream
/// per application.
#[derive(Debug, Clone)]
pub struct MixWorkload {
    mix: SpecMix,
    streams: Vec<ThreadStream>,
}

impl MixWorkload {
    /// Instantiates the mix for a die-stacked capacity of
    /// `fast_capacity_pages`, laying each application out in its own virtual
    /// region.
    #[must_use]
    pub fn build(mix: SpecMix, fast_capacity_pages: u64, seed: u64) -> Self {
        let mut streams = Vec::with_capacity(mix.apps.len());
        let mut base = 0x100u64;
        for (i, app) in mix.apps.iter().enumerate() {
            let params = app.stream_params(fast_capacity_pages, base);
            base += params.private_pages + 64;
            streams.push(ThreadStream::new(
                params,
                seed.wrapping_add(i as u64 * 7919),
            ));
        }
        Self { mix, streams }
    }

    /// The mix definition.
    #[must_use]
    pub fn mix(&self) -> &SpecMix {
        &self.mix
    }

    /// Number of applications (vCPUs).
    #[must_use]
    pub fn apps(&self) -> usize {
        self.streams.len()
    }

    /// Generates the next access of application `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn next_access(&mut self, app: usize) -> Access {
        self.streams[app].next_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_number_of_mixes() {
        let mixes = SpecMix::generate(80, 42);
        assert_eq!(mixes.len(), 80);
        assert!(mixes.iter().all(|m| m.apps.len() == 16));
        // Mixes differ from each other.
        assert_ne!(mixes[0].apps, mixes[1].apps);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(SpecMix::generate(10, 7), SpecMix::generate(10, 7));
        assert_ne!(SpecMix::generate(10, 7), SpecMix::generate(10, 8));
    }

    #[test]
    fn mix_workload_uses_disjoint_regions() {
        let mix = SpecMix::generate(1, 3).remove(0);
        let mut wl = MixWorkload::build(mix, 2_048, 5);
        let apps = wl.apps();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for app in 0..apps {
            let mut lo = u64::MAX;
            let mut hi = 0;
            for _ in 0..200 {
                let a = wl.next_access(app);
                lo = lo.min(a.gvp.number());
                hi = hi.max(a.gvp.number());
            }
            ranges.push((lo, hi));
        }
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0 + 64, "app regions overlap: {:?}", w);
        }
    }

    #[test]
    fn mix_footprint_sums_apps() {
        let mix = SpecMix::generate(1, 9).remove(0);
        let total = mix.footprint_pages(4_096);
        let by_hand: u64 = mix.apps.iter().map(|a| a.footprint_pages(4_096)).sum();
        assert_eq!(total, by_hand);
    }
}
