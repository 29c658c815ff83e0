//! A set-associative cache (tags + MESI state only): the private L1 and L2
//! of every CPU, and the shared LLC.

use hatric_types::consts::CACHE_LINE_BYTES;
use hatric_types::CacheLineAddr;

use crate::line::MesiState;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    line: CacheLineAddr,
    state: MesiState,
}

/// A private, set-associative, LRU cache tracking line tags and MESI state.
///
/// The ways live in one flat `sets × ways` array: set *s* owns slots
/// `s·ways ..`, of which the first `len[s]` are valid and kept MRU-first.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    /// `sets × ways` slots; set `s` occupies `slots[s * ways..][..lens[s]]`.
    slots: Vec<Way>,
    /// Valid lines per set.
    lens: Vec<u32>,
    ways: usize,
}

impl PrivateCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    #[must_use]
    pub fn new(config: PrivateCacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(u32::try_from(config.ways).is_ok(), "too many ways");
        let empty = Way {
            line: CacheLineAddr::default(),
            state: MesiState::Invalid,
        };
        Self {
            slots: vec![empty; sets * config.ways],
            lens: vec![0; sets],
            ways: config.ways,
        }
    }

    /// The set of `line`: a mask when the set count is a power of two,
    /// `%` otherwise (the same index either way).
    fn set_index(&self, line: CacheLineAddr) -> usize {
        let sets = self.lens.len();
        let index = line.index() as usize;
        if sets.is_power_of_two() {
            index & (sets - 1)
        } else {
            index % sets
        }
    }

    /// The valid ways of `line`'s set.
    fn set(&self, line: CacheLineAddr) -> &[Way] {
        let set = self.set_index(line);
        let base = set * self.ways;
        &self.slots[base..base + self.lens[set] as usize]
    }

    /// The set index of `line`, that set's whole (valid and free) slot
    /// range, and its valid count.
    fn set_mut(&mut self, line: CacheLineAddr) -> (usize, &mut [Way], usize) {
        let set = self.set_index(line);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        (set, &mut self.slots[base..base + self.ways], len)
    }

    /// Looks up a line, promoting it to MRU.
    pub fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (_, ways, len) = self.set_mut(line);
        let pos = ways[..len].iter().position(|w| w.line == line)?;
        let way = ways[pos];
        ways.copy_within(..pos, 1);
        ways[0] = way;
        Some(way.state)
    }

    /// Probes a line without recency effects.
    #[must_use]
    pub fn probe(&self, line: CacheLineAddr) -> Option<MesiState> {
        self.set(line)
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// Changes the MESI state of a present line; returns `false` if absent.
    pub fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
        let (_, ways, len) = self.set_mut(line);
        if let Some(way) = ways[..len].iter_mut().find(|w| w.line == line) {
            way.state = state;
            true
        } else {
            false
        }
    }

    /// Inserts a line in the given state; returns the evicted victim
    /// (line, state) if the set overflowed.
    pub fn fill(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let (_, ways, len) = self.set_mut(line);
        let Some(pos) = ways[..len].iter().position(|w| w.line == line) else {
            return self.insert_absent(line, state);
        };
        ways.copy_within(..pos, 1);
        ways[0] = Way { line, state };
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
        let (set, ways, len) = self.set_mut(line);
        let victim = (len == ways.len()).then(|| ways[len - 1]);
        ways.copy_within(..len.min(ways.len() - 1), 1);
        ways[0] = Way { line, state };
        if victim.is_none() {
            self.lens[set] += 1;
        }
        victim.map(|w| (w.line, w.state))
    }

    /// Removes a line (coherence invalidation); returns its state if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (set, ways, len) = self.set_mut(line);
        let pos = ways[..len].iter().position(|w| w.line == line)?;
        let state = ways[pos].state;
        ways.copy_within(pos + 1..len, pos);
        self.lens[set] -= 1;
        Some(state)
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Returns `true` if the cache holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&n| n == 0)
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
        assert!(cache.is_empty());
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

    /// The pre-flat layout — one heap `Vec` per set, LRU by `remove` +
    /// `insert(0)` — kept as the reference the flat arrays must match.
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
        /// 6 sets, which select by `%` rather than a mask) return the same
        /// values, victims, lengths and statistics as the reference.
        #[test]
        fn matches_the_vec_of_vecs_reference(
            geometry in 0usize..5,
            ops in proptest::collection::vec((0u8..12, 0u64..48, 0u8..3), 0..400),
        ) {
            let (sets, ways) = [(3, 2), (4, 2), (6, 4), (1, 8), (8, 1)][geometry];
            let config = PrivateCacheConfig {
                capacity_bytes: (sets * ways) as u64 * CACHE_LINE_BYTES,
                ways,
            };
            let mut flat = PrivateCache::new(config);
            let mut reference = Reference::new(config);
            for (op, n, s) in ops {
                let (l, state) = (line(n), [MesiState::Modified, MesiState::Exclusive, MesiState::Shared][s as usize]);
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
                prop_assert_eq!(flat.len(), contents.len());
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
