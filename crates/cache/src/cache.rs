//! A set-associative cache (tags + MESI state only): the private L1 and L2
//! of every CPU, and the shared LLC.  Ways stay where they were filled;
//! each set ranks them by recency in one order word (the `order` module,
//! shared with the coherence directory).

use hatric_types::consts::CACHE_LINE_BYTES;
use hatric_types::CacheLineAddr;

use crate::line::MesiState;
use crate::order::{
    is_permutation, promote, push_front, rank_of, remove_rank, rename, way_at, MAX_WAYS,
};

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

/// A set's recency order (see the `order` module) and its valid count.
#[derive(Debug, Clone, Copy, Default)]
struct SetHead {
    /// The set's valid ways ranked most recent first, a nibble each.
    order: u64,
    /// Valid ways; they are the set's first `len` slots.
    len: u32,
}

/// A private, set-associative, LRU cache tracking line tags and MESI state.
///
/// The ways live in one flat `sets × ways` table: set *s* owns slots
/// `s·ways ..`, of which the first `len` are valid, in no particular
/// order.  Lines and states sit in two parallel arrays, so a lookup scans
/// only lines (an 8-way set's tags are one host cache line), and the set's
/// `SetHead` ranks its ways by recency in a nibble order word.  A hit
/// moves one nibble, a fill writes one slot, and an invalidation moves the
/// set's last valid slot into the hole: no access shifts ways.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    /// The line of each slot; set `s` occupies `lines[s * ways..][..len]`.
    lines: Vec<CacheLineAddr>,
    /// The MESI state of each slot, parallel to `lines`.
    states: Vec<MesiState>,
    /// Per set, its recency order and valid count.
    heads: Vec<SetHead>,
    ways: usize,
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
        assert!(
            config.ways <= MAX_WAYS,
            "a cache set has at most {MAX_WAYS} ways"
        );
        Self {
            lines: vec![CacheLineAddr::default(); sets * config.ways],
            states: vec![MesiState::Invalid; sets * config.ways],
            heads: vec![SetHead::default(); sets],
            ways: config.ways,
        }
    }

    /// The set of `line`: a mask when the set count is a power of two,
    /// `%` otherwise (the same index either way).
    fn set_index(&self, line: CacheLineAddr) -> usize {
        let sets = self.heads.len();
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
        let base = set * self.ways;
        let len = self.heads[set].len as usize;
        let way = self.lines[base..base + len].iter().position(|&l| l == line);
        (set, way.map(|way| base + way))
    }

    /// Whether `set`'s order word ranks exactly its valid ways.
    fn order_is_valid(&self, set: usize) -> bool {
        let head = self.heads[set];
        is_permutation(head.order, head.len as usize)
    }

    /// Promotes the valid `slot` of `set` to most recent.
    fn touch(&mut self, set: usize, slot: usize) {
        let head = &mut self.heads[set];
        head.order = promote(head.order, rank_of(head.order, slot - set * self.ways));
        debug_assert!(self.order_is_valid(set));
    }

    /// Looks up a line, promoting it to MRU.
    pub fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        self.touch(set, slot);
        Some(self.states[slot])
    }

    /// Probes a line without recency effects.
    #[must_use]
    pub fn probe(&self, line: CacheLineAddr) -> Option<MesiState> {
        self.find(line).1.map(|slot| self.states[slot])
    }

    /// Changes the MESI state of a present line; returns `false` if absent.
    pub fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
        let Some(slot) = self.find(line).1 else {
            return false;
        };
        self.states[slot] = state;
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
            return self.insert_into(set, line, state);
        };
        self.touch(set, slot);
        self.states[slot] = state;
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
        self.insert_into(self.set_index(line), line, state)
    }

    /// Puts the absent `line` in front of `set`: into its next free way,
    /// or, in a full set, over its least recent way, which it returns.
    fn insert_into(
        &mut self,
        set: usize,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let head = &mut self.heads[set];
        let len = head.len as usize;
        let base = set * self.ways;
        let (slot, victim) = if len < self.ways {
            head.order = push_front(head.order, len);
            head.len += 1;
            (base + len, None)
        } else {
            let slot = base + way_at(head.order, len - 1);
            head.order = promote(head.order, len - 1);
            (slot, Some((self.lines[slot], self.states[slot])))
        };
        debug_assert!(self.order_is_valid(set));
        self.lines[slot] = line;
        self.states[slot] = state;
        victim
    }

    /// Removes a line (coherence invalidation); returns its state if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        let state = self.states[slot];
        // The set's last valid slot fills the hole, and its nibble takes
        // the hole's way.
        let base = set * self.ways;
        let head = &mut self.heads[set];
        let (way, last) = (slot - base, head.len as usize - 1);
        let mut order = remove_rank(head.order, rank_of(head.order, way));
        if way != last {
            self.lines[slot] = self.lines[base + last];
            self.states[slot] = self.states[base + last];
            order = rename(order, last, way);
        }
        head.order = order;
        head.len -= 1;
        debug_assert!(self.order_is_valid(set));
        Some(state)
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heads.iter().map(|head| head.len as usize).sum()
    }

    /// Returns `true` if the cache holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heads.iter().all(|head| head.len == 0)
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
