//! A set's recency order in one `u64`, shared by the private caches, the
//! LLC and the coherence directory.
//!
//! Both structures keep a set's valid ways in place, in its first `len`
//! slots and in no particular order, and rank them in an order word:
//! nibble `r` of the `u64` (bits `4r..4r + 4`) is the way at rank `r`,
//! rank 0 the most recently touched.  The first `len` nibbles are a
//! permutation of `0..len`; the rest are unused and may hold anything.
//! A touch moves one nibble to the front, an allocation into a free way
//! pushes one in front, a full set evicts the way in its last valid
//! nibble, and a removal that moves the set's last slot into the hole
//! drops one nibble and renames another.  Each is a few shifts and masks,
//! so no way is ever copied to keep recency.

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
pub(crate) const fn way_at(order: u64, rank: usize) -> usize {
    ((order >> (4 * rank)) & 0xF) as usize
}

/// The rank of `way`, which must be among the valid nibbles.  A nibble of
/// `order ^ way·0x1…1` is zero where `way` sits; the lowest flagged zero is
/// exact (a borrow can only flag nibbles above a true zero), and `way`
/// sits below the unused nibbles.
pub(crate) const fn rank_of(order: u64, way: usize) -> usize {
    const ONES: u64 = 0x1111_1111_1111_1111;
    let x = order ^ (way as u64 * ONES);
    let zeros = x.wrapping_sub(ONES) & !x & (ONES << 3);
    zeros.trailing_zeros() as usize / 4
}

/// `order` with the way at `rank` moved to the front.
pub(crate) const fn promote(order: u64, rank: usize) -> u64 {
    (order & !ranks_below(rank + 1))
        | ((order & ranks_below(rank)) << 4)
        | (order >> (4 * rank)) & 0xF
}

/// `order` with `way` pushed in front of its valid nibbles.
pub(crate) const fn push_front(order: u64, way: usize) -> u64 {
    (order << 4) | way as u64
}

/// `order` without the nibble at `rank`; the ranks after it move up one.
pub(crate) const fn remove_rank(order: u64, rank: usize) -> u64 {
    (order & ranks_below(rank)) | ((order >> 4) & !ranks_below(rank))
}

/// `order` with the valid nibble naming way `from` renamed to `to`.
pub(crate) const fn rename(order: u64, from: usize, to: usize) -> u64 {
    let shift = 4 * rank_of(order, from);
    (order & !(0xF << shift)) | ((to as u64) << shift)
}

/// Whether the first `len` nibbles of `order` are a permutation of `0..len`.
pub(crate) fn is_permutation(order: u64, len: usize) -> bool {
    let seen = (0..len).fold(0u32, |seen, rank| seen | 1 << way_at(order, rank));
    seen == (1 << len) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

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
