//! A minimal property-testing engine, API-compatible with the subset of
//! `proptest` 1.x this workspace uses (see `stubs/README.md`).
//!
//! This crate is behaviourally real: the `proptest!` macro expands each
//! property into a `#[test]` that draws the configured number of randomized
//! cases from the given strategies using a deterministic per-test RNG. What it does *not* implement is shrinking —
//! a failing case panics with the drawn values unminimized.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration of a property (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of randomized cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` randomized cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic xorshift64* RNG, seeded from the property's name so every
/// test run draws the same cases.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the RNG from an arbitrary string (the test's module path).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(h | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `0..bound` (`bound` of 0 returns 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of randomized values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps drawn values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as u64).wrapping_sub(*self.start() as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    rng.next_u64() as $t
                } else {
                    (*self.start() as u64).wrapping_add(rng.below(span)) as $t
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4)
);

/// Strategy producing any value of `T` (`any::<T>()`).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Creates the [`Any`] strategy for `T`.
#[must_use]
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(PhantomData)
}

macro_rules! any_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

any_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// A boxed draw function, the representation `prop_oneof!` arms lower to.
pub type DrawFn<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    choices: Vec<DrawFn<V>>,
}

impl<V> Union<V> {
    /// Builds a union from draw functions (used by `prop_oneof!`).
    #[must_use]
    pub fn new(choices: Vec<DrawFn<V>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        Self { choices }
    }
}

impl<V> std::fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Union({} choices)", self.choices.len())
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.choices.len() as u64) as usize;
        (self.choices[idx])(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Range, Strategy, TestRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Strategy for `Vec<T>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Draws `Vec`s of values from `element` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with a target size drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Draws `BTreeSet`s of values from `element` with sizes in `size`
    /// (best-effort when the element domain is nearly exhausted).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.generate(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 100 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// Strategy for `BTreeMap<K, V>` with a target size drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// Draws `BTreeMap`s with keys from `key`, values from `value` and sizes
    /// in `size` (best-effort when the key domain is nearly exhausted).
    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = self.size.generate(rng);
            let mut map = BTreeMap::new();
            let mut attempts = 0usize;
            while map.len() < target && attempts < target * 10 + 100 {
                map.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
            }
            map
        }
    }
}

// Re-exported so `proptest::collection::*` paths and the prelude both work.
pub use collection::{BTreeMapStrategy, BTreeSetStrategy, VecStrategy};

/// The `proptest!` macro: wraps property functions into `#[test]`s that run
/// `ProptestConfig::cases` randomized cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg); $($rest)*);
    };
    (@funcs ($cfg:expr); $($(#[$meta:meta])* fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Asserts a condition inside a property (panics with the message on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniformly chooses between strategy arms producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(Box::new(move |rng: &mut $crate::TestRng| $crate::Strategy::generate(&($strat), rng)) as Box<dyn Fn(&mut $crate::TestRng) -> _>),+
        ])
    };
}

/// Everything a property test needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Any, Map, ProptestConfig, Strategy, TestRng, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Alias module matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 5u64..10, y in 1u8..=3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((1..=3).contains(&y));
        }

        #[test]
        fn maps_and_tuples_compose(v in (0u8..4, 0u64..100).prop_map(|(a, b)| (a as u64) * 1_000 + b)) {
            prop_assert!(v < 4_000);
        }

        #[test]
        fn collections_hit_their_sizes(
            xs in collection::vec(0u32..1_000, 1..20),
            set in collection::btree_set(0u64..1_000_000, 1..10),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            prop_assert!(!set.is_empty());
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
