//! Lightweight statistics primitives used by every simulated structure.
//!
//! Simulated hardware structures expose their behaviour through counters
//! ([`Counter`]), hit/miss style ratios ([`RatioStat`]) and coarse
//! distributions ([`Histogram`]).  All of them are plain-old-data, copied
//! into reports by value.

use core::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self(0)
    }

    /// Increments the counter by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments the counter by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::ops::AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

/// A hit/miss style ratio statistic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RatioStat {
    hits: u64,
    misses: u64,
}

impl RatioStat {
    /// Creates a zeroed statistic.
    #[must_use]
    pub const fn new() -> Self {
        Self { hits: 0, misses: 0 }
    }

    /// Records a hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records `hit` as a boolean outcome.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hit();
        } else {
            self.miss();
        }
    }

    /// Number of hits recorded.
    #[must_use]
    pub const fn hits(self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    #[must_use]
    pub const fn misses(self) -> u64 {
        self.misses
    }

    /// Total number of accesses recorded.
    #[must_use]
    pub const fn total(self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero if nothing was recorded.
    #[must_use]
    pub fn hit_rate(self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Miss rate in `[0, 1]`; zero if nothing was recorded.
    #[must_use]
    pub fn miss_rate(self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.misses as f64 / self.total() as f64
        }
    }

    /// Merges another statistic into this one.
    pub fn merge(&mut self, other: RatioStat) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl fmt::Display for RatioStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}% hit)",
            self.hits,
            self.total(),
            self.hit_rate() * 100.0
        )
    }
}

/// A fixed-bucket histogram for coarse latency / size distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    /// A final unbounded bucket is added automatically.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of all recorded samples (zero if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts; the last bucket is unbounded.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&[1, 4, 16, 64, 256, 1024, 4096])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c += 4;
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn ratio_rates() {
        let mut r = RatioStat::new();
        for _ in 0..3 {
            r.hit();
        }
        r.miss();
        assert_eq!(r.total(), 4);
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
        assert!((r.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_empty_is_zero() {
        let r = RatioStat::new();
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.miss_rate(), 0.0);
    }

    #[test]
    fn ratio_merge() {
        let mut a = RatioStat::new();
        a.hit();
        let mut b = RatioStat::new();
        b.miss();
        a.merge(b);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        assert_eq!(h.buckets(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 500);
        assert!((h.mean() - 185.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 5]);
    }
}
