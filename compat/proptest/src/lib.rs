//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal property-testing harness with proptest's spelling:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map` /
//! `prop_recursive` / `boxed`, [`BoxedStrategy`], [`Just`],
//! [`prop_oneof!`], [`any`], `proptest::collection::vec` and the
//! `prop_assert*` macros.
//!
//! Differences from upstream: cases are generated from a fixed seed
//! derived from the test name (fully deterministic, no persistence
//! files), and failing cases are not shrunk — the assertion failure
//! reports the generated values via the standard panic message instead.

#![forbid(unsafe_code)]

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// Per-test configuration; `cases` is the number of generated inputs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Seeds the per-test generator from the test's name (FNV-1a).
#[doc(hidden)]
pub fn __seed_rng(test_name: &str) -> StdRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash)
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a recursive strategy: `recurse` receives the strategy for
    /// the previous level and returns the next one, applied `depth`
    /// times on top of `self` as the leaf.
    ///
    /// `desired_size` and `expected_branch_size` are accepted for
    /// upstream compatibility and unused: recursion depth alone bounds
    /// the generated trees.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strategy = self.boxed();
        for _ in 0..depth {
            strategy = recurse(strategy).boxed();
        }
        strategy
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform + PartialOrd + Copy> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Uniform choice between boxed alternatives; built by [`prop_oneof!`].
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        let pick = rng.gen_range(0..self.0.len());
        self.0[pick].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draws a value from the type's full range.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        use rand::RngCore;
        rng.next_u64() & 1 == 1
    }
}

/// The full-range strategy for `T`; see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()`: the canonical strategy covering all of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

// ---------------------------------------------------------------------------
// collection
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max + 1)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// An inclusive length range for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        Self { min: len, max: len }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs its body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::__seed_rng(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a property-test condition (panics with the failing inputs'
/// panic message; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, f in -1.0f32..1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(
            fixed in crate::collection::vec(0u32..5, 4),
            ranged in crate::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..6),
        ) {
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!((1..6).contains(&ranged.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(0u32),
            (1u32..5).prop_map(|x| x * 10),
        ]) {
            prop_assert!(v == 0 || (10..50).contains(&v));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(u32),
            Node(Vec<Tree>),
        }
        fn count(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(count).sum::<usize>(),
            }
        }
        let strat = (0u32..4)
            .prop_map(Tree::Leaf)
            .boxed()
            .prop_recursive(3, 16, 3, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = crate::__seed_rng("recursive");
        for _ in 0..200 {
            let tree = strat.generate(&mut rng);
            assert!(count(&tree) >= 1);
        }
    }
}
