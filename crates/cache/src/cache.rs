//! A set-associative cache (tags + MESI state only): the private L1 and L2
//! of every CPU, and the shared LLC.  Ways stay where they were filled;
//! each set ranks them by recency in one order word (the `ways` module,
//! shared with the coherence directory).

use hatric_types::consts::CACHE_LINE_BYTES;
use hatric_types::CacheLineAddr;

use crate::line::MesiState;
use crate::ways::Ways;

/// Geometry of a private cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateCacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl PrivateCacheConfig {
    /// 32 KiB, 8-way L1 data cache (paper Sec. 5.1).
    #[must_use]
    pub fn l1_default() -> Self {
        Self {
            capacity_bytes: 32 * 1024,
            ways: 8,
        }
    }

    /// 256 KiB, 8-way private L2 cache.
    #[must_use]
    pub fn l2_default() -> Self {
        Self {
            capacity_bytes: 256 * 1024,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / CACHE_LINE_BYTES) as usize / self.ways
    }
}

/// A private, set-associative, LRU cache tracking line tags and MESI
/// state: a [`Ways`] table whose empty value is [`MesiState::Invalid`].
/// A hit moves one nibble, a fill writes one slot, and an invalidation
/// moves the set's last valid slot into the hole: no access shifts ways.
#[derive(Debug, Clone)]
pub(crate) struct PrivateCache {
    ways: Ways<MesiState>,
}

impl PrivateCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets or has more than 16 ways.
    #[must_use]
    pub fn new(config: PrivateCacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        Self {
            ways: Ways::new(sets, config.ways),
        }
    }

    /// The set of `line`: a mask when the set count is a power of two,
    /// `%` otherwise (the same index either way).
    fn set_index(&self, line: CacheLineAddr) -> usize {
        let sets = self.ways.sets();
        let index = line.index() as usize;
        if sets.is_power_of_two() {
            index & (sets - 1)
        } else {
            index % sets
        }
    }

    /// The set of `line` and the slot holding it, if any.
    fn find(&self, line: CacheLineAddr) -> (usize, Option<usize>) {
        let set = self.set_index(line);
        (set, self.ways.find(set, line))
    }

    /// Looks up a line, promoting it to MRU.
    pub fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        self.ways.touch(set, slot);
        Some(self.ways.value(slot))
    }

    /// Probes a line without recency effects.
    #[must_use]
    pub fn probe(&self, line: CacheLineAddr) -> Option<MesiState> {
        self.find(line).1.map(|slot| self.ways.value(slot))
    }

    /// Changes the MESI state of a present line; returns `false` if absent.
    pub fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
        let Some(slot) = self.find(line).1 else {
            return false;
        };
        *self.ways.value_mut(slot) = state;
        true
    }

    /// Inserts a line in the given state; returns the evicted victim
    /// (line, state) if the set overflowed.
    pub fn fill(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let (set, slot) = self.find(line);
        let Some(slot) = slot else {
            return self.ways.insert(set, line, state).1;
        };
        self.ways.touch(set, slot);
        *self.ways.value_mut(slot) = state;
        None
    }

    /// [`PrivateCache::fill`] of a line the caller knows is absent (it
    /// just missed), without the tag search; returns the evicted victim
    /// if the set was full.
    pub fn insert_absent(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        debug_assert!(self.probe(line).is_none(), "{line} is already cached");
        self.ways.insert(self.set_index(line), line, state).1
    }

    /// Removes a line (coherence invalidation); returns its state if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        Some(self.ways.remove(set, slot?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::new(n * CACHE_LINE_BYTES)
    }

    #[test]
    fn geometry() {
        let cfg = PrivateCacheConfig::l1_default();
        assert_eq!(cfg.sets(), 64);
        let cache = PrivateCache::new(cfg);
        assert_eq!(cache.ways.len(), 0);
    }

    #[test]
    fn fill_lookup_invalidate() {
        let mut cache = PrivateCache::new(PrivateCacheConfig::l1_default());
        cache.fill(line(3), MesiState::Exclusive);
        assert_eq!(cache.lookup(line(3)), Some(MesiState::Exclusive));
        assert_eq!(cache.invalidate(line(3)), Some(MesiState::Exclusive));
        assert_eq!(cache.lookup(line(3)), None);
    }

    #[test]
    fn eviction_returns_lru_victim() {
        // Tiny cache: 2 sets of 2 ways (256 bytes).
        let mut cache = PrivateCache::new(PrivateCacheConfig {
            capacity_bytes: 256,
            ways: 2,
        });
        // Lines 0, 2, 4 all map to set 0.
        cache.fill(line(0), MesiState::Shared);
        cache.fill(line(2), MesiState::Shared);
        cache.lookup(line(0));
        let victim = cache.fill(line(4), MesiState::Shared);
        assert_eq!(victim, Some((line(2), MesiState::Shared)));
    }

    /// The original layout — one heap `Vec` per set, kept MRU-first by
    /// `remove` + `insert(0)` — kept as the reference the in-place ways and
    /// their order words must match.
    struct Reference {
        sets: Vec<Vec<(CacheLineAddr, MesiState)>>,
        ways: usize,
    }

    impl Reference {
        fn new(config: PrivateCacheConfig) -> Self {
            Self {
                sets: vec![Vec::new(); config.sets()],
                ways: config.ways,
            }
        }

        fn set(&mut self, line: CacheLineAddr) -> &mut Vec<(CacheLineAddr, MesiState)> {
            let len = self.sets.len();
            &mut self.sets[(line.index() as usize) % len]
        }

        fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
            let set = self.set(line);
            let pos = set.iter().position(|w| w.0 == line);
            if let Some(pos) = pos {
                let way = set.remove(pos);
                set.insert(0, way);
            }
            pos.map(|_| self.set(line)[0].1)
        }

        fn probe(&mut self, line: CacheLineAddr) -> Option<MesiState> {
            self.set(line).iter().find(|w| w.0 == line).map(|w| w.1)
        }

        fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
            match self.set(line).iter_mut().find(|w| w.0 == line) {
                Some(way) => {
                    way.1 = state;
                    true
                }
                None => false,
            }
        }

        fn fill(
            &mut self,
            line: CacheLineAddr,
            state: MesiState,
        ) -> Option<(CacheLineAddr, MesiState)> {
            let ways = self.ways;
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|w| w.0 == line) {
                set.remove(pos);
            }
            set.insert(0, (line, state));
            if set.len() > ways {
                set.pop()
            } else {
                None
            }
        }

        fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
            let set = self.set(line);
            let pos = set.iter().position(|w| w.0 == line)?;
            Some(set.remove(pos).1)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random operation sequences on small geometries (including 3 and
        /// 6 sets, which select by `%` rather than a mask, and full 16-way
        /// sets) return the same values, victims, lengths and contents as
        /// the reference.
        #[test]
        fn matches_the_vec_of_vecs_reference(
            geometry in 0usize..7,
            ops in proptest::collection::vec((0u8..12, 0u64..128, 0u8..3), 0..400),
        ) {
            // `(sets, ways, distinct lines)`; the 16-way geometries are the
            // LLC's, whose full sets use every nibble of the order word.
            let (sets, ways, span) = [
                (3, 2, 48),
                (4, 2, 48),
                (6, 4, 48),
                (1, 8, 48),
                (8, 1, 48),
                (1, 16, 48),
                (4, 16, 128),
            ][geometry];
            let config = PrivateCacheConfig {
                capacity_bytes: (sets * ways) as u64 * CACHE_LINE_BYTES,
                ways,
            };
            let mut flat = PrivateCache::new(config);
            let mut reference = Reference::new(config);
            for (op, n, s) in ops {
                let (l, state) = (line(n % span), [MesiState::Modified, MesiState::Exclusive, MesiState::Shared][s as usize]);
                match op {
                    0..=3 => prop_assert_eq!(flat.lookup(l), reference.lookup(l)),
                    4 => prop_assert_eq!(flat.probe(l), reference.probe(l)),
                    5 | 6 => prop_assert_eq!(flat.set_state(l, state), reference.set_state(l, state)),
                    // A line the reference does not hold takes the
                    // search-free insert (op 7 keeps `fill`'s miss path).
                    8 | 9 if reference.probe(l).is_none() => {
                        prop_assert_eq!(flat.insert_absent(l, state), reference.fill(l, state));
                    }
                    7..=9 => prop_assert_eq!(flat.fill(l, state), reference.fill(l, state)),
                    _ => prop_assert_eq!(flat.invalidate(l), reference.invalidate(l)),
                }
                let contents: Vec<(CacheLineAddr, MesiState)> =
                    reference.sets.iter().flatten().copied().collect();
                prop_assert_eq!(flat.ways.len(), contents.len());
                for (l, state) in contents {
                    prop_assert_eq!(flat.probe(l), Some(state));
                }
            }
            // Same recency order: draining each set by fills of fresh lines
            // evicts the same victims in the same order.
            for n in 1_000..1_000 + (sets * ways) as u64 {
                prop_assert_eq!(flat.fill(line(n), MesiState::Shared), reference.fill(line(n), MesiState::Shared));
            }
        }
    }

    #[test]
    fn set_state_upgrades() {
        let mut cache = PrivateCache::new(PrivateCacheConfig::l1_default());
        cache.fill(line(9), MesiState::Shared);
        assert!(cache.set_state(line(9), MesiState::Modified));
        assert_eq!(cache.probe(line(9)), Some(MesiState::Modified));
        assert!(!cache.set_state(line(10), MesiState::Modified));
    }
}
