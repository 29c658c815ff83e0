//! A generic set-associative lookup structure with true-LRU replacement.
//!
//! All translation structures in this crate (TLBs, MMU caches, nested TLBs)
//! are instances of [`SetAssoc`].  The ways live in one flat
//! `sets × ways` array: set *s* owns slots `s·ways ..`, of which the first
//! `len[s]` are valid and kept MRU-first.  Sets are selected by hashing the
//! key with an in-tree zero-key SipHash-1-3 (the algorithm behind std's
//! `DefaultHasher`, fixed here so set indices cannot move with the
//! toolchain), which is adequate for a behavioural simulator (the real
//! index functions differ per structure but do not change the conclusions
//! the paper draws).

use std::hash::{Hash, Hasher};

use crate::sip::SipHasher13;

/// A set-associative container mapping keys to values with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssoc<K, V> {
    /// `sets × ways` slots; set `s` occupies `slots[s * ways..][..lens[s]]`.
    slots: Vec<(K, V)>,
    /// Valid entries per set.
    lens: Vec<u32>,
    /// Valid entries in all, so that counting and emptying an empty or
    /// flushed structure (the common case under flush-heavy coherence) costs
    /// nothing.
    occupied: usize,
    ways: usize,
}

impl<K: Hash + Eq + Copy + Default, V: Copy + Default> SetAssoc<K, V> {
    /// Creates a structure with `entries` total entries organised as
    /// `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, or if `ways` does not divide
    /// `entries`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "structure must have at least one entry");
        assert!(ways > 0, "structure must have at least one way");
        assert!(
            entries.is_multiple_of(ways),
            "ways ({ways}) must divide total entries ({entries})"
        );
        assert!(u32::try_from(ways).is_ok(), "too many ways ({ways})");
        Self {
            slots: vec![(K::default(), V::default()); entries],
            lens: vec![0; entries / ways],
            occupied: 0,
            ways,
        }
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Returns `true` if no entries are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The set-selection hash of `key`.  Structures that share a key type
    /// (the L1 and L2 TLBs) can hash once and pass the result to
    /// [`SetAssoc::lookup_hashed`] / [`SetAssoc::insert_hashed`].
    #[must_use]
    pub fn hash_key(key: &K) -> u64 {
        let mut hasher = SipHasher13::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// The set `key` maps to; a fully associative structure (one set, like
    /// the nTLB) skips the hash.
    fn set_of_key(&self, key: &K) -> usize {
        if self.lens.len() == 1 {
            0
        } else {
            self.set_of(Self::hash_key(key))
        }
    }

    fn set_of(&self, hash: u64) -> usize {
        let sets = self.lens.len();
        if sets.is_power_of_two() {
            hash as usize & (sets - 1)
        } else {
            hash as usize % sets
        }
    }

    /// The whole (valid and free) slot range of `set`, and its valid count.
    fn set_slots(&mut self, set: usize) -> (&mut [(K, V)], usize) {
        let base = set * self.ways;
        (
            &mut self.slots[base..base + self.ways],
            self.lens[set] as usize,
        )
    }

    /// Looks up `key`, promoting it to MRU on a hit.
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        self.lookup_in(self.set_of_key(key), key)
    }

    /// [`SetAssoc::lookup`] with a precomputed [`SetAssoc::hash_key`].
    pub fn lookup_hashed(&mut self, hash: u64, key: &K) -> Option<&V> {
        self.lookup_in(self.set_of(hash), key)
    }

    fn lookup_in(&mut self, set: usize, key: &K) -> Option<&V> {
        let (ways, len) = self.set_slots(set);
        let pos = ways[..len].iter().position(|(k, _)| k == key)?;
        let entry = ways[pos];
        ways.copy_within(..pos, 1);
        ways[0] = entry;
        Some(&ways[0].1)
    }

    /// Looks up `key` without changing recency (probe).
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        let set = self.set_of_key(key);
        let base = set * self.ways;
        self.slots[base..base + self.lens[set] as usize]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, returning the evicted victim if the set
    /// overflowed.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.insert_in(self.set_of_key(&key), key, value)
    }

    /// [`SetAssoc::insert`] with a precomputed [`SetAssoc::hash_key`].
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> Option<(K, V)> {
        self.insert_in(self.set_of(hash), key, value)
    }

    fn insert_in(&mut self, set: usize, key: K, value: V) -> Option<(K, V)> {
        let (ways, len) = self.set_slots(set);
        let (shift, victim) = match ways[..len].iter().position(|(k, _)| *k == key) {
            Some(pos) => (pos, None),
            None if len == ways.len() => (len - 1, Some(ways[len - 1])),
            None => (len, None),
        };
        ways.copy_within(..shift, 1);
        ways[0] = (key, value);
        if shift == len {
            self.lens[set] += 1;
            self.occupied += 1;
        }
        victim
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let set = self.set_of_key(key);
        let (ways, len) = self.set_slots(set);
        let pos = ways[..len].iter().position(|(k, _)| k == key)?;
        let value = ways[pos].1;
        ways.copy_within(pos + 1..len, pos);
        self.lens[set] -= 1;
        self.occupied -= 1;
        Some(value)
    }

    /// Removes every entry for which `pred` returns `true`; returns how many
    /// entries were removed.  Each set is compacted in place, keeping the
    /// survivors' recency order.  `pred` may be called more than once per
    /// entry.
    // Always inlined: a copy per call site (L1 TLB, L2 TLB, ...) lets the
    // branch predictor learn each structure's set lengths separately.
    #[inline(always)]
    pub fn invalidate_matching<F: Fn(&K, &V) -> bool>(&mut self, pred: F) -> u64 {
        if self.occupied == 0 {
            return 0;
        }
        let mut removed = 0;
        for (ways, len) in self.slots.chunks_exact_mut(self.ways).zip(&mut self.lens) {
            let valid = &mut ways[..*len as usize];
            // Most sets hold no match: count without an early exit (no
            // per-entry branch), and compact only sets that need it.
            if valid.iter().filter(|(k, v)| pred(k, v)).count() == 0 {
                continue;
            }
            let mut kept = 0;
            for i in 0..valid.len() {
                let (k, v) = &valid[i];
                if !pred(k, v) {
                    valid[kept] = valid[i];
                    kept += 1;
                }
            }
            removed += (valid.len() - kept) as u64;
            *len = kept as u32;
        }
        self.occupied -= removed as usize;
        removed
    }

    /// Removes every entry; returns how many entries were valid.
    pub fn flush(&mut self) -> u64 {
        let count = std::mem::take(&mut self.occupied);
        if count > 0 {
            self.lens.fill(0);
        }
        count as u64
    }

    /// Iterates over all valid entries (no recency effect).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .chunks_exact(self.ways)
            .zip(&self.lens)
            .flat_map(|(ways, &len)| &ways[..len as usize])
            .map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::hash_map::DefaultHasher;

    use proptest::prelude::*;

    use crate::mmu_cache::PscKey;
    use crate::ntlb::NestedKey;
    use crate::tlb::TlbKey;
    use hatric_types::{AddressSpaceId, GuestFrame, GuestVirtPage, SimRng, VmId};

    #[test]
    fn insert_and_lookup() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(8, 2);
        assert!(c.insert(1, 10).is_none());
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.lookup(&2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // Fully associative (1 set) makes eviction order easy to verify.
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(2, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        // Touch 1 so 2 becomes LRU.
        assert!(c.lookup(&1).is_some());
        let victim = c.insert(3, 3);
        assert_eq!(victim, Some((2, 2)));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&2).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(2, 2);
        c.insert(1, 1);
        c.insert(1, 100);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&100));
    }

    #[test]
    fn invalidate_matching_counts() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(16, 4);
        for i in 0..10 {
            c.insert(i, i * 10);
        }
        let removed = c.invalidate_matching(|_, v| *v >= 50);
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn flush_empties() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(16, 4);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.flush(), 10);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn rejects_nondividing_ways() {
        let _: SetAssoc<u64, u64> = SetAssoc::new(10, 4);
    }

    #[test]
    fn capacity_is_respected_overall() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(64, 4);
        for i in 0..1000 {
            c.insert(i, i);
        }
        assert!(c.len() <= c.capacity());
    }

    /// Pins the set-selection hash.  TLB, MMU-cache and nTLB set selection
    /// run on the in-tree SipHash-1-3; a change to it moves every gated
    /// baseline, and this test names the cause.
    #[test]
    fn hash_key_is_pinned() {
        let key = |vm, asid, gvp| TlbKey {
            vm: VmId::new(vm),
            asid: AddressSpaceId::new(asid),
            gvp: GuestVirtPage::new(gvp),
        };
        let hashes = [
            SetAssoc::<TlbKey, u64>::hash_key(&key(0, 0, 0)),
            SetAssoc::<TlbKey, u64>::hash_key(&key(1, 2, 0x42)),
            SetAssoc::<TlbKey, u64>::hash_key(&key(7, 3, 0x7_ffff_ffff)),
        ];
        assert_eq!(
            hashes,
            [
                8_556_445_246_977_061_536,
                9_749_872_313_942_767_870,
                12_443_835_603_474_336_543
            ]
        );
    }

    fn std_hash<K: Hash>(key: &K) -> u64 {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// The in-tree SipHash-1-3 equals `DefaultHasher::new()` on every key
    /// type a structure is indexed by, so replacing one with the other
    /// moved no set index.
    #[test]
    fn hash_key_matches_std_default_hasher() {
        let mut rng = SimRng::new(0x5eed_5195);
        for _ in 0..12_000 {
            let (vm, asid) = (
                VmId::new(rng.next_u32()),
                AddressSpaceId::new(rng.next_u32()),
            );
            let tlb = TlbKey {
                vm,
                asid,
                gvp: GuestVirtPage::new(rng.next_u64()),
            };
            let psc = PscKey {
                vm,
                asid,
                level: (rng.next_u32() >> 24) as u8,
                prefix: rng.next_u64(),
            };
            let nested = NestedKey {
                vm,
                gpp: GuestFrame::new(rng.next_u64()),
            };
            let word = rng.next_u64();
            assert_eq!(SetAssoc::<TlbKey, u64>::hash_key(&tlb), std_hash(&tlb));
            assert_eq!(SetAssoc::<PscKey, u64>::hash_key(&psc), std_hash(&psc));
            assert_eq!(
                SetAssoc::<NestedKey, u64>::hash_key(&nested),
                std_hash(&nested)
            );
            assert_eq!(SetAssoc::<u64, u64>::hash_key(&word), std_hash(&word));
            // Byte strings of every length take the chunked `write` path.
            let bytes: Vec<u8> = (0..rng.below(24)).map(|_| rng.next_u32() as u8).collect();
            let mut sip = SipHasher13::default();
            bytes.hash(&mut sip);
            assert_eq!(sip.finish(), std_hash(&bytes));
        }
    }

    /// The pre-flat layout — one heap `Vec` per set, LRU by `remove` +
    /// `insert(0)` — kept as the reference the flat arrays must match.
    struct Reference {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
    }

    impl Reference {
        fn new(entries: usize, ways: usize) -> Self {
            Self {
                sets: vec![Vec::new(); entries / ways],
                ways,
            }
        }

        fn set_index(&self, key: u64) -> usize {
            (SetAssoc::<u64, u64>::hash_key(&key) as usize) % self.sets.len()
        }

        fn lookup(&mut self, key: u64) -> Option<u64> {
            let set = self.set_index(key);
            let pos = self.sets[set].iter().position(|(k, _)| *k == key)?;
            let entry = self.sets[set].remove(pos);
            self.sets[set].insert(0, entry);
            Some(entry.1)
        }

        fn peek(&self, key: u64) -> Option<u64> {
            let set = self.set_index(key);
            self.sets[set]
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
            let set = self.set_index(key);
            if let Some(pos) = self.sets[set].iter().position(|(k, _)| *k == key) {
                self.sets[set].remove(pos);
            }
            self.sets[set].insert(0, (key, value));
            if self.sets[set].len() > self.ways {
                self.sets[set].pop()
            } else {
                None
            }
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            let set = self.set_index(key);
            let pos = self.sets[set].iter().position(|(k, _)| *k == key)?;
            Some(self.sets[set].remove(pos).1)
        }

        fn invalidate_matching(&mut self, pred: impl Fn(u64, u64) -> bool) -> u64 {
            let mut removed = 0;
            for set in &mut self.sets {
                let before = set.len();
                set.retain(|&(k, v)| !pred(k, v));
                removed += (before - set.len()) as u64;
            }
            removed
        }

        fn flush(&mut self) -> u64 {
            let count = self.sets.iter().map(Vec::len).sum::<usize>() as u64;
            self.sets.iter_mut().for_each(Vec::clear);
            count
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random operation sequences on small geometries (including 3 and
        /// 12 sets, which select by `%` rather than a mask) return the same
        /// values, victims, lengths and iteration order as the reference.
        #[test]
        fn matches_the_vec_of_vecs_reference(
            geometry in 0usize..5,
            ops in proptest::collection::vec((0u8..16, 0u64..40, 0u64..1_000), 0..400),
        ) {
            let (entries, ways) = [(12, 4), (6, 2), (8, 2), (48, 4), (4, 4)][geometry];
            let mut flat: SetAssoc<u64, u64> = SetAssoc::new(entries, ways);
            let mut reference = Reference::new(entries, ways);
            for (op, key, value) in ops {
                match op {
                    0..=4 => prop_assert_eq!(flat.lookup(&key).copied(), reference.lookup(key)),
                    5 | 6 => prop_assert_eq!(flat.peek(&key).copied(), reference.peek(key)),
                    7..=11 => prop_assert_eq!(flat.insert(key, value), reference.insert(key, value)),
                    12 | 13 => prop_assert_eq!(flat.remove(&key), reference.remove(key)),
                    14 => {
                        let pred = |k: u64, v: u64| (k + v) % 5 == value % 5;
                        prop_assert_eq!(
                            flat.invalidate_matching(|k, v| pred(*k, *v)),
                            reference.invalidate_matching(pred)
                        );
                    }
                    _ if value % 8 == 0 => prop_assert_eq!(flat.flush(), reference.flush()),
                    _ => prop_assert_eq!(flat.lookup(&key).copied(), reference.lookup(key)),
                }
                let expected: Vec<(u64, u64)> = reference.sets.iter().flatten().copied().collect();
                let got: Vec<(u64, u64)> = flat.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(flat.len(), expected.len());
                prop_assert_eq!(got, expected);
            }
        }
    }
}
