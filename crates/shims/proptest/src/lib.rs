//! Offline shim for the `proptest` API surface used by this workspace.
//!
//! See `crates/shims/README.md` for the rationale. Semantics:
//!
//! * Cases are generated from a deterministic per-test stream (FNV hash
//!   of the test path mixed with the attempt index), so failures are
//!   reproducible run over run.
//! * There is **no shrinking**: a failing case panics immediately with
//!   the generated inputs' debug representation.
//! * `prop_assume!` rejects the case; rejected cases are retried with
//!   fresh inputs up to a bounded attempt budget.

#![forbid(unsafe_code)]

use std::fmt::Debug;

/// Deterministic SplitMix64 stream driving all generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream that is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of values for one property-test parameter.
///
/// Unlike upstream proptest there is no value tree: `generate` draws a
/// concrete value directly and failures are reported unshrunk.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and draws
    /// from the result.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases this strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice among type-erased alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds the union; `options` must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $ty
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                lo + rng.below(span) as $ty
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Full-domain generation for primitive types (`any::<u8>()`).
pub struct Any<T>(core::marker::PhantomData<T>);

/// Returns the full-domain strategy for a primitive type.
pub fn any<T>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! impl_any {
    ($($ty:ty),*) => {$(
        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}
impl_any!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

pub mod bool {
    //! Boolean strategies (`proptest::bool::ANY`).

    use super::{Strategy, TestRng};

    /// The strategy type of [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct AnyBool;

    /// Uniform boolean.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection-size specifications accepted by [`collection`] strategies:
/// an exact `usize`, a `Range`, or a `RangeInclusive`.
pub trait SizeRange {
    /// Draws a concrete size.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty size range");
        lo + rng.below((hi - lo) as u64 + 1) as usize
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates vectors of `element` values.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`. The drawn size is an upper
    /// bound: duplicate draws collapse, as in upstream proptest's
    /// best-effort set filling.
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates ordered sets of `element` values.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration; only `cases` is honored by the shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Successful cases required per test.
    pub cases: u32,
    /// Attempt budget multiplier guarding against `prop_assume!` loops.
    pub max_reject_multiplier: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_reject_multiplier: 64,
        }
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried.
    Reject(String),
    /// `prop_assert!`/`prop_assert_eq!` failed; the test panics.
    Fail(String),
}

/// One case's outcome, as reported by the [`proptest!`] expansion.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// The body ran to completion.
    Pass,
    /// `prop_assume!` rejected the inputs.
    Reject,
    /// An assertion failed (message includes the generated inputs).
    Fail(String),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives `case` until `config.cases` passes, panicking on the first
/// failure — or, mirroring upstream's "too many global rejects" abort,
/// when the reject budget is exhausted before reaching the requested
/// case count (a test must never go green on vacuous rejections).
/// Used by [`proptest!`]; not part of the public upstream API.
pub fn run_cases(
    config: ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> CaseOutcome,
) {
    let base = fnv1a(name.as_bytes());
    let mut passes: u32 = 0;
    let max_attempts = u64::from(config.cases) * u64::from(config.max_reject_multiplier.max(1));
    let mut attempt: u64 = 0;
    while passes < config.cases && attempt < max_attempts {
        let seed = base ^ attempt.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = TestRng::new(seed);
        match case(&mut rng) {
            CaseOutcome::Pass => passes += 1,
            CaseOutcome::Reject => {}
            CaseOutcome::Fail(msg) => {
                panic!("proptest `{name}` failed at attempt {attempt} (seed {seed:#x}):\n{msg}")
            }
        }
        attempt += 1;
    }
    assert!(
        passes >= config.cases,
        "proptest `{name}`: too many rejects — only {passes}/{} cases passed \
         within {max_attempts} attempts (is a prop_assume! unsatisfiable?)",
        config.cases
    );
}

/// Formats generated inputs for failure messages (requires `Debug`).
pub fn describe_inputs<T: Debug>(vals: &T) -> String {
    format!("{vals:?}")
}

/// Seals helper types the macros reference; re-exported for them.
#[doc(hidden)]
pub mod __rt {
    pub use super::{describe_inputs, run_cases, CaseOutcome, Strategy, TestCaseError, TestRng};
}

/// Declares property tests. Supported grammar (the subset this
/// workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
///
///     #[test]
///     fn my_property(x in 0usize..10, (a, b) in my_strategy()) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat_param in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let __strategy = ($($strat,)*);
                $crate::__rt::run_cases(
                    __config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__rng| {
                        let __vals = $crate::__rt::Strategy::generate(&__strategy, __rng);
                        let __desc = $crate::__rt::describe_inputs(&__vals);
                        let ($($pat,)*) = __vals;
                        let __result: ::std::result::Result<(), $crate::__rt::TestCaseError> =
                            (move || {
                                $body
                                ::std::result::Result::Ok(())
                            })();
                        match __result {
                            ::std::result::Result::Ok(()) => $crate::__rt::CaseOutcome::Pass,
                            ::std::result::Result::Err($crate::__rt::TestCaseError::Reject(_)) => {
                                $crate::__rt::CaseOutcome::Reject
                            }
                            ::std::result::Result::Err($crate::__rt::TestCaseError::Fail(__m)) => {
                                $crate::__rt::CaseOutcome::Fail(
                                    format!("{__m}\ninputs: {__desc}"),
                                )
                            }
                        }
                    },
                );
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} == {:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} == {:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} != {:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} != {:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Rejects the current case (retried with fresh inputs).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

pub mod prelude {
    //! The glob import every property test starts with.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..200 {
            let x = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let y = (0u64..=4).generate(&mut rng);
            assert!(y <= 4);
            let (a, b) = (0u32..8, 10u32..12).generate(&mut rng);
            assert!(a < 8 && (10..12).contains(&b));
        }
    }

    #[test]
    fn collections_honor_size_specs() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 5usize).generate(&mut rng);
            assert_eq!(v.len(), 5);
            let w = crate::collection::vec(0usize..10, 2..6).generate(&mut rng);
            assert!((2..6).contains(&w.len()));
            let s = crate::collection::btree_set(0u32..100, 0..=3).generate(&mut rng);
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn oneof_map_and_flat_map_compose() {
        let strat = (1usize..4)
            .prop_flat_map(|n| (Just(n), crate::collection::vec(0u64..10, n)))
            .prop_map(|(n, v)| (n, v.len()));
        let mut rng = crate::TestRng::new(3);
        for _ in 0..100 {
            let (n, len) = strat.generate(&mut rng);
            assert_eq!(n, len);
        }
        let pick = prop_oneof![Just(1u8), Just(2u8), 5u8..7];
        for _ in 0..100 {
            let x = pick.generate(&mut rng);
            assert!(x == 1 || x == 2 || x == 5 || x == 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro pipeline end to end: config, assume, assert.
        #[test]
        fn macro_end_to_end(x in 0usize..50, flag in crate::bool::ANY) {
            prop_assume!(x != 13);
            prop_assert!(x < 50, "x = {x} out of range");
            prop_assert_eq!(flag, flag);
        }
    }

    #[test]
    #[should_panic(expected = "too many rejects")]
    fn all_rejecting_property_is_not_a_vacuous_pass() {
        crate::run_cases(
            ProptestConfig {
                cases: 4,
                max_reject_multiplier: 2,
            },
            "shim::reject_demo",
            |_rng| crate::CaseOutcome::Reject,
        );
    }

    #[test]
    #[should_panic(expected = "failed at attempt")]
    fn failing_property_panics_with_inputs() {
        crate::run_cases(
            ProptestConfig {
                cases: 8,
                ..ProptestConfig::default()
            },
            "shim::fail_demo",
            |_rng| crate::CaseOutcome::Fail(String::from("boom")),
        );
    }
}
