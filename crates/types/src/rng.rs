//! A small, fast, fully deterministic pseudo-random number generator.
//!
//! The simulator needs reproducible runs — figure regeneration must produce
//! the same series every time — so all stochastic choices (workload address
//! streams, replacement tie-breaking, mix construction) flow through
//! [`SimRng`], a SplitMix64/xoshiro256** generator seeded explicitly.  The
//! `rand` crate is still used by workload generators for distributions, via
//! the `rand::RngCore`-compatible shim in `hatric-workloads`; this type is
//! the seed-stable core.

/// Deterministic xoshiro256** pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-then-shift rejection-free approximation is fine
        // for simulation purposes; the slight bias for huge bounds is
        // irrelevant here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Returns a value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Draws an index from a Zipf(`theta`) distribution over `n` items.
    ///
    /// Uses the standard two-parameter approximation for the inverse CDF,
    /// which is accurate enough for locality modelling and avoids building a
    /// table per call.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        if theta <= f64::EPSILON {
            return self.below(n);
        }
        // Inverse-transform sampling on the continuous approximation of the
        // Zipf CDF: P(X <= x) ~ (x/n)^(1-theta) for theta < 1; fall back to a
        // geometric-like skew for theta >= 1.
        let u = self.unit().max(1e-12);
        let exponent = if theta < 1.0 {
            1.0 / (1.0 - theta)
        } else {
            4.0 + theta
        };
        let x = (u.powf(exponent) * n as f64) as u64;
        x.min(n - 1)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Splits off an independent generator (for per-CPU streams).
    pub fn split(&mut self) -> Self {
        SimRng::new(self.next_u64())
    }
}

impl Default for SimRng {
    fn default() -> Self {
        Self::new(0x5eed_0000_c0ff_ee00)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = SimRng::new(11);
        let n = 1000;
        let mut low = 0usize;
        for _ in 0..20_000 {
            if rng.zipf(n, 0.9) < n / 10 {
                low += 1;
            }
        }
        // With theta=0.9 the hottest 10% of items should absorb far more
        // than 10% of accesses.
        assert!(low > 6_000, "zipf skew too weak: {low}");
    }

    #[test]
    fn zipf_zero_theta_is_uniformish() {
        let mut rng = SimRng::new(13);
        let n = 10;
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(n, 0.0) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
