//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], `num::i32::ANY`, the [`proptest!`]
//! macro, `prop_assert!` / `prop_assert_eq!`, and
//! [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate: cases are generated from a fixed seed
//! (deterministic across runs and machines) and there is **no shrinking** —
//! a failure reports the case number, whose inputs can be regenerated by
//! rerunning the test. Regression files are ignored.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation source handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic RNG for `case` of the named test.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Uniform u64.
    pub fn next_u64(&mut self) -> u64 {
        self.0.gen()
    }

    /// Uniform usize in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..=hi)
    }
}

/// A generation strategy for values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<F, R>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> R,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` returns for it.
    fn prop_flat_map<F, S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(S::Value) -> R, R> Strategy for Map<S, F> {
    type Value = R;
    fn generate(&self, rng: &mut TestRng) -> R {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Constant strategy (proptest's `Just`).
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty => $via:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $via).wrapping_sub(self.start as $via) as u64;
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as $via;
                (self.start as $via).wrapping_add(off) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as $via).wrapping_sub(lo as $via) as u64 + 1;
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as $via;
                (lo as $via).wrapping_add(off) as $t
            }
        }
    )*};
}

impl_range_strategy!(
    usize => usize, u64 => u64, u32 => u32, u16 => u16, u8 => u8,
    i64 => u64, i32 => u32, i16 => u16, i8 => u8
);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Size specifier for [`vec()`]: any strategy producing a `usize` length
    /// (plain and inclusive ranges qualify).
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Accepted length specifications for [`vec()`].
    pub trait SizeRange {
        /// Inclusive (min, max) bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Strategy for a `Vec` of `size` elements generated by `element`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.min, self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Numeric "any value" strategies.
pub mod num {
    /// i32 strategies.
    pub mod i32 {
        use crate::{Strategy, TestRng};

        /// Any `i32`, uniformly.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// Any `i32`, uniformly (proptest's `proptest::num::i32::ANY`).
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = i32;
            fn generate(&self, rng: &mut TestRng) -> i32 {
                (rng.next_u64() >> 32) as u32 as i32
            }
        }
    }
}

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Prints the failing case number when a property panics.
pub struct CaseReporter<'a> {
    /// Test name.
    pub test: &'a str,
    /// Case index.
    pub case: u32,
}

impl Drop for CaseReporter<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest(shim): property '{}' failed at case {} \
                 (deterministic seed; rerun reproduces it)",
                self.test, self.case
            );
        }
    }
}

/// The prelude: traits, macros and config.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over deterministically generated
/// cases.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $(let $arg = &$strat;)+
            for case in 0..config.cases {
                let _reporter = $crate::CaseReporter { test: stringify!($name), case };
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate($arg, &mut rng);)+
                $body
            }
        }
    )*};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let x = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&x));
            let y = (-5i32..=5).generate(&mut rng);
            assert!((-5..=5).contains(&y));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = crate::TestRng::for_case("vec", 1);
        let s = crate::collection::vec(0u32..100, 2..5);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = crate::collection::vec((0u32..50, 0u32..50), 0..20);
        let mut r1 = crate::TestRng::for_case("det", 7);
        let mut r2 = crate::TestRng::for_case("det", 7);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_runs_cases(x in 0u64..1000, pair in (0u32..8, 0u32..8)) {
            prop_assert!(x < 1000);
            prop_assert!(pair.0 < 8 && pair.1 < 8);
        }

        #[test]
        fn flat_map_works(v in (1usize..8).prop_flat_map(|n| crate::collection::vec(0u32..10, n..n + 1))) {
            prop_assert!(!v.is_empty() && v.len() < 8);
        }
    }
}
