//! The in-place way store of the private caches, the LLC and the
//! coherence directory.
//!
//! A [`Ways<V, W>`] is a `Vec` of sets, each one block that starts on a
//! 64-byte host cache line: the lines of its `W` lanes, then their values
//! (a MESI state, or a directory entry), then its order word and its
//! valid count.  Slot `s·W + lane` is lane `lane` of set *s*; `W` is a
//! power of two, so a slot splits into its set and lane by a shift and a
//! mask.  Of a set's lanes the first `len` are valid, in no particular
//! order, and a table of `ways < W` never fills the rest.  A lookup
//! compares the line with all `W` lanes at once: it ORs one bit per lane
//! into a mask, keeps the bits of the valid lanes (a removal leaves a
//! stale copy of the moved line in lane `len`) and takes the lowest one.
//! No lane is a branch (the compiler unrolls the compare), so a lookup
//! does not mispredict on which lane hits, and an 8-lane set's lines are
//! the block's first host cache line.
//!
//! The order word ranks the valid lanes: nibble `r` of the `u64` (bits
//! `4r..4r + 4`) is the lane at rank `r`, rank 0 the most recently
//! touched.  The first `len` nibbles are a permutation of `0..len`; the
//! rest are unused and may hold anything.  A touch moves one nibble to the
//! front, an insertion into a free lane pushes one in front, a full set
//! evicts the lane in its last valid nibble, and a removal that moves the
//! set's last lane into the hole drops one nibble and renames another.
//! Each is a few shifts and masks, so no way is ever copied to keep
//! recency.

use hatric_types::CacheLineAddr;

/// The most ways a set may have: a 4-bit way index fits it, so one `u64`
/// holds the set's recency order.
pub(crate) const MAX_WAYS: usize = 16;

/// Mask of the nibbles of ranks `0..rank`.
const fn ranks_below(rank: usize) -> u64 {
    if rank >= MAX_WAYS {
        u64::MAX
    } else {
        (1 << (4 * rank)) - 1
    }
}

/// The way at `rank`.
const fn way_at(order: u64, rank: usize) -> usize {
    ((order >> (4 * rank)) & 0xF) as usize
}

/// The rank of `way`, which must be among the valid nibbles.  A nibble of
/// `order ^ way·0x1…1` is zero where `way` sits; the lowest flagged zero is
/// exact (a borrow can only flag nibbles above a true zero), and `way`
/// sits below the unused nibbles.
const fn rank_of(order: u64, way: usize) -> usize {
    const ONES: u64 = 0x1111_1111_1111_1111;
    let x = order ^ (way as u64 * ONES);
    let zeros = x.wrapping_sub(ONES) & !x & (ONES << 3);
    zeros.trailing_zeros() as usize / 4
}

/// `order` with the way at `rank` moved to the front.
const fn promote(order: u64, rank: usize) -> u64 {
    (order & !ranks_below(rank + 1))
        | ((order & ranks_below(rank)) << 4)
        | (order >> (4 * rank)) & 0xF
}

/// `order` with `way` pushed in front of its valid nibbles.
const fn push_front(order: u64, way: usize) -> u64 {
    (order << 4) | way as u64
}

/// `order` without the nibble at `rank`; the ranks after it move up one.
const fn remove_rank(order: u64, rank: usize) -> u64 {
    (order & ranks_below(rank)) | ((order >> 4) & !ranks_below(rank))
}

/// `order` with the valid nibble naming way `from` renamed to `to`.
const fn rename(order: u64, from: usize, to: usize) -> u64 {
    let shift = 4 * rank_of(order, from);
    (order & !(0xF << shift)) | ((to as u64) << shift)
}

/// Whether the first `len` nibbles of `order` are a permutation of `0..len`.
fn is_permutation(order: u64, len: usize) -> bool {
    let seen = (0..len).fold(0u32, |seen, rank| seen | 1 << way_at(order, rank));
    seen == (1 << len) - 1
}

/// One set: the lines and values of its `W` lanes, its recency order and
/// its valid count, in one block that starts on a host cache line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Set<V, const W: usize> {
    /// The line in each lane; lanes `len..` hold stale or default lines.
    lines: [CacheLineAddr; W],
    /// The value in each lane.
    values: [V; W],
    /// The valid lanes ranked most recent first, a nibble each.
    order: u64,
    /// Valid lanes; they are the set's first `len`.
    len: u32,
}

impl<V: Copy + Default, const W: usize> Set<V, W> {
    /// A set with no valid lane.
    fn empty() -> Self {
        Self {
            lines: [CacheLineAddr::default(); W],
            values: [V::default(); W],
            order: 0,
            len: 0,
        }
    }

    /// The lowest valid lane holding `line`, if any: one bit per lane ORed
    /// into a mask, without a branch per lane, then the valid lanes' bits.
    fn lane_of(&self, line: CacheLineAddr) -> Option<usize> {
        let mut hits = 0u32;
        for lane in 0..W {
            hits |= u32::from(self.lines[lane] == line) << lane;
        }
        let hits = hits & ((1 << self.len) - 1);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }
}

/// A set-associative table of lines and their values, `W` lanes a set of
/// which `ways` are used, each set ranked by recency (see the module
/// docs).  Slots are indices into the whole table; a slot of set *s* is
/// `s·W + lane`.
#[derive(Debug, Clone)]
pub(crate) struct Ways<V, const W: usize> {
    sets: Vec<Set<V, W>>,
    /// Ways a set may fill, at most `W`.
    ways: usize,
    /// Valid slots in all.
    len: usize,
}

impl<V: Copy + Default, const W: usize> Ways<V, W> {
    /// `log2(W)`, the shift from a slot to its set.  Evaluating it fails
    /// the build for a `W` that is not a power of two up to [`MAX_WAYS`].
    const LANE_BITS: u32 = {
        assert!(
            W.is_power_of_two() && W <= MAX_WAYS,
            "W is a power of two up to 16"
        );
        W.trailing_zeros()
    };

    /// An empty table of `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or more than `W`.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=W).contains(&ways),
            "a set of this table has 1 to {W} ways, not {ways}"
        );
        Self {
            sets: vec![Set::empty(); sets],
            ways,
            len: 0,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of valid slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of `set` holding `line`, if any.
    pub(crate) fn find(&self, set: usize, line: CacheLineAddr) -> Option<usize> {
        let lane = self.sets[set].lane_of(line)?;
        Some(set << Self::LANE_BITS | lane)
    }

    /// The value in `slot`.
    pub(crate) fn value(&self, slot: usize) -> V {
        self.sets[slot >> Self::LANE_BITS].values[slot & (W - 1)]
    }

    /// The value in `slot`, to change in place.
    pub(crate) fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.sets[slot >> Self::LANE_BITS].values[slot & (W - 1)]
    }

    /// Whether every way of `set` is valid.
    pub(crate) fn is_full(&self, set: usize) -> bool {
        self.sets[set].len as usize == self.ways
    }

    /// Whether `set`'s order word ranks exactly its valid lanes.
    fn order_is_valid(&self, set: usize) -> bool {
        let s = &self.sets[set];
        is_permutation(s.order, s.len as usize)
    }

    /// Promotes the valid `slot` of `set` to most recent.
    pub(crate) fn touch(&mut self, set: usize, slot: usize) {
        let s = &mut self.sets[set];
        s.order = promote(s.order, rank_of(s.order, slot & (W - 1)));
        debug_assert!(self.order_is_valid(set));
    }

    /// Puts the absent `line` in front of `set`: into its next free way,
    /// or, in a full set, over its least recent way.  Returns the slot and
    /// the line and value it evicted, if any.
    pub(crate) fn insert(
        &mut self,
        set: usize,
        line: CacheLineAddr,
        value: V,
    ) -> (usize, Option<(CacheLineAddr, V)>) {
        let s = &mut self.sets[set];
        let len = s.len as usize;
        let (lane, victim) = if len < self.ways {
            s.order = push_front(s.order, len);
            s.len += 1;
            self.len += 1;
            (len, None)
        } else {
            let lane = way_at(s.order, len - 1);
            s.order = promote(s.order, len - 1);
            (lane, Some((s.lines[lane], s.values[lane])))
        };
        s.lines[lane] = line;
        s.values[lane] = value;
        debug_assert!(self.order_is_valid(set));
        (set << Self::LANE_BITS | lane, victim)
    }

    /// Removes the valid `slot` of `set` and returns its value.  The set's
    /// last valid lane fills the hole, and its nibble takes the hole's
    /// lane; its old lane keeps a stale copy, past the valid ones.
    pub(crate) fn remove(&mut self, set: usize, slot: usize) -> V {
        let s = &mut self.sets[set];
        let (lane, last) = (slot & (W - 1), s.len as usize - 1);
        let value = s.values[lane];
        let mut order = remove_rank(s.order, rank_of(s.order, lane));
        if lane != last {
            s.lines[lane] = s.lines[last];
            s.values[lane] = s.values[last];
            order = rename(order, last, lane);
        }
        s.order = order;
        s.len -= 1;
        self.len -= 1;
        debug_assert!(self.order_is_valid(set));
        value
    }

    /// Rebuilds the table with `sets` sets, each valid slot moving to set
    /// `set_of(line)`.  Each old set is moved oldest first, so lines that
    /// land in one new set keep their relative order; the new set must
    /// have room for them.
    pub(crate) fn resize(&mut self, sets: usize, set_of: impl Fn(CacheLineAddr) -> usize) {
        let old = std::mem::replace(self, Self::new(sets, self.ways));
        for s in &old.sets {
            for rank in (0..s.len as usize).rev() {
                let lane = way_at(s.order, rank);
                let line = s.lines[lane];
                let (_, victim) = self.insert(set_of(line), line, s.values[lane]);
                debug_assert!(victim.is_none(), "a resized set overflows");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Each set starts on a host cache line and pads to whole ones: an
    /// 8-lane set of MESI states (64 bytes of lines, 8 of states, 12 of
    /// order and count) takes two, a 16-lane one (128 + 16 + 12) three,
    /// and a directory set (128 + 256 + 12) seven.
    #[test]
    fn sets_are_aligned_host_cache_lines() {
        use crate::directory::Slot;
        use crate::line::MesiState;
        use std::mem::{align_of, size_of};

        assert_eq!(align_of::<Set<MesiState, 8>>(), 64);
        assert_eq!(size_of::<Set<MesiState, 8>>(), 128);
        assert_eq!(size_of::<Set<MesiState, 16>>(), 192);
        assert_eq!(size_of::<Set<Slot, MAX_WAYS>>(), 448);
    }

    /// A removal moves the set's last lane into the hole and leaves a
    /// stale copy behind; `find` must not see it once that line is gone.
    #[test]
    fn find_skips_the_stale_lane_a_removal_leaves() {
        let line = |n: u64| CacheLineAddr::new(n * 64);
        let mut ways = Ways::<u8, 8>::new(1, 8);
        ways.insert(0, line(1), 1);
        let (b, _) = ways.insert(0, line(2), 2);
        assert_eq!(b, 1);
        ways.remove(0, ways.find(0, line(1)).unwrap());
        assert_eq!(ways.find(0, line(2)), Some(0));
        ways.remove(0, 0);
        assert_eq!(ways.find(0, line(2)), None);
        assert_eq!(ways.len(), 0);
    }

    /// Asserts that the first `model.len()` nibbles of `order` are `model`.
    fn assert_order(order: u64, model: &[usize]) {
        let ranked: Vec<usize> = (0..model.len()).map(|rank| way_at(order, rank)).collect();
        assert_eq!(ranked, model, "order word {order:#018x}");
        assert!(is_permutation(order, model.len()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The order-word helpers against a `Vec` of ways, most recent
        /// first, at 1, 2, 4, 8 and 16 ways, starting from a word whose
        /// unused nibbles hold garbage: touches, allocation into a free and
        /// into a full set, removal with the last way renamed into the
        /// hole, and the directory's split of a set into two, oldest first.
        #[test]
        fn order_word_matches_an_mru_list(
            geometry in 0usize..5,
            garbage in any::<u64>(),
            ops in proptest::collection::vec((0u8..8, 0usize..16, any::<u64>()), 1..200),
        ) {
            let ways = [1, 2, 4, 8, 16][geometry];
            let (mut order, mut model) = (garbage, Vec::<usize>::new());
            for (op, pick, bits) in ops {
                let len = model.len();
                match op {
                    // A touch promotes a valid way.
                    0..=2 if len > 0 => {
                        let way = model[pick % len];
                        let rank = rank_of(order, way);
                        prop_assert_eq!(Some(rank), model.iter().position(|&w| w == way));
                        order = promote(order, rank);
                        model.remove(rank);
                        model.insert(0, way);
                    }
                    // Removal, the last way renamed into the hole.
                    3 | 4 if len > 0 => {
                        let (way, last) = (model[pick % len], len - 1);
                        order = remove_rank(order, rank_of(order, way));
                        model.retain(|&w| w != way);
                        if way != last {
                            order = rename(order, last, way);
                            *model.iter_mut().find(|w| **w == last).unwrap() = way;
                        }
                    }
                    // The directory's split: each way goes to the half its
                    // bit picks, oldest first; `moved[new way]` is its old way.
                    5 => {
                        let half_of = |way: usize| (bits >> way & 1) as usize;
                        let mut split = [(0u64, Vec::new()), (0u64, Vec::new())];
                        for rank in (0..len).rev() {
                            let way = way_at(order, rank);
                            let (new_order, moved) = &mut split[half_of(way)];
                            *new_order = push_front(*new_order, moved.len());
                            moved.push(way);
                        }
                        for (half, (new_order, moved)) in split.iter().enumerate() {
                            let kept: Vec<usize> =
                                model.iter().copied().filter(|&w| half_of(w) == half).collect();
                            let ranked: Vec<usize> =
                                (0..moved.len()).map(|rank| moved[way_at(*new_order, rank)]).collect();
                            prop_assert_eq!(ranked, kept);
                            prop_assert!(is_permutation(*new_order, moved.len()));
                        }
                        // Carry on with one half, its ways renamed.
                        let half = (bits >> 16 & 1) as usize;
                        let (new_order, moved) = &split[half];
                        model = model
                            .iter()
                            .filter(|&&w| half_of(w) == half)
                            .map(|w| moved.iter().position(|m| m == w).unwrap())
                            .collect();
                        order = *new_order;
                    }
                    // Allocation: a free set pushes its next way in front,
                    // a full one reuses its least recent way.
                    _ if len < ways => {
                        order = push_front(order, len);
                        model.insert(0, len);
                    }
                    _ => {
                        let victim = way_at(order, len - 1);
                        prop_assert_eq!(Some(&victim), model.last());
                        order = promote(order, len - 1);
                        model.pop();
                        model.insert(0, victim);
                    }
                }
                assert_order(order, &model);
            }
        }
    }
}
