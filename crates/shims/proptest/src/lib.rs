//! Offline, dependency-free subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this
//! workspace-local crate stands in for the real `proptest`. It
//! implements the surface this repository's property tests use:
//! strategies over numeric ranges and regex-like string patterns,
//! the `vec`/`select`/`of` combinators, `prop_map`/`prop_flat_map`,
//! weighted `prop_oneof!`, and the `proptest!` test macro with
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`.
//!
//! Differences from upstream: no shrinking (a failing case reports
//! its inputs but is not minimized), and a fixed deterministic seed
//! per test derived from the test name, so failures reproduce exactly
//! across runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of accepted cases each `proptest!` test runs.
pub const CASES: usize = 64;

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

/// Deterministic per-test generator, seeded from the test name.
pub fn test_rng(test_name: &str) -> StdRng {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut h);
    StdRng::seed_from_u64(h.finish())
}

/// A generator of values of type `Value`.
///
/// Object-safe core is [`Strategy::sample`]; the combinators require
/// `Self: Sized` so `Box<dyn Strategy<Value = V>>` works.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy it maps to.
    fn prop_flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        U: Strategy,
        F: Fn(Self::Value) -> U,
    {
        FlatMap { inner: self, f }
    }

    /// Box the strategy, erasing its concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed, type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for FlatMap<S, F>
where
    S: Strategy,
    U: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U::Value;
    fn sample(&self, rng: &mut StdRng) -> U::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f64, f32);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// `&str` regex-like patterns are strategies producing matching
/// strings (subset: literals, `[...]` classes with ranges, and the
/// `{m}`, `{m,n}`, `?`, `*`, `+` quantifiers).
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        regex::generate(self, rng)
    }
}

mod regex {
    use rand::rngs::StdRng;
    use rand::Rng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .map(|p| p + i)
                        .unwrap_or_else(|| panic!("unclosed [ in /{pattern}/"));
                    let body = &chars[i + 1..close];
                    let mut ranges = Vec::new();
                    let mut j = 0;
                    while j < body.len() {
                        if j + 2 < body.len() && body[j + 1] == '-' {
                            ranges.push((body[j], body[j + 2]));
                            j += 3;
                        } else {
                            ranges.push((body[j], body[j]));
                            j += 1;
                        }
                    }
                    i = close + 1;
                    Atom::Class(ranges)
                }
                '\\' => {
                    i += 2;
                    Atom::Literal(chars[i - 1])
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            let (min, max) = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .map(|p| p + i)
                        .unwrap_or_else(|| panic!("unclosed {{ in /{pattern}/"));
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((m, n)) => (
                            m.trim().parse().expect("quantifier min"),
                            n.trim().parse().expect("quantifier max"),
                        ),
                        None => {
                            let m = body.trim().parse().expect("quantifier count");
                            (m, m)
                        }
                    }
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                _ => (1, 1),
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    pub fn generate(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let count = rng.gen_range(piece.min..=piece.max);
            for _ in 0..count {
                match &piece.atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::Class(ranges) => {
                        let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                        let c = char::from_u32(rng.gen_range(lo as u32..=hi as u32))
                            .expect("class range stays in valid chars");
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

/// Strategy picking uniformly among weighted boxed alternatives —
/// the engine behind [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u32,
}

impl<V> Union<V> {
    /// Build from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! requires positive total weight");
        Union { arms, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut StdRng) -> V {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weights cover the sampled point")
    }
}

pub mod prop {
    //! The `prop::` namespace of combinator modules.

    pub mod collection {
        //! Collection strategies.
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Admissible element counts for [`vec()`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            min: usize,
            max: usize, // inclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max: n }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    min: r.start,
                    max: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    min: *r.start(),
                    max: *r.end(),
                }
            }
        }

        /// Vectors of `size` elements drawn from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let n = rng.gen_range(self.size.min..=self.size.max);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    pub mod sample {
        //! Sampling from explicit value sets.
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Uniform choice among the given values.
        pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select from an empty set");
            Select { values }
        }

        /// See [`select`].
        pub struct Select<T: Clone> {
            values: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn sample(&self, rng: &mut StdRng) -> T {
                self.values[rng.gen_range(0..self.values.len())].clone()
            }
        }
    }

    pub mod option {
        //! `Option` strategies.
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// `Some` from the inner strategy three times out of four,
        /// `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                if rng.gen_bool(0.25) {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::{prop, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)*)
            )));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {left:?}\n right: {right:?}",
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {left:?}\n right: {right:?}\n {}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)*)
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Weighted union of strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, Box::new($strategy) as $crate::BoxedStrategy<_>)),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, Box::new($strategy) as $crate::BoxedStrategy<_>)),+
        ])
    };
}

/// Define property tests: each `fn` runs [`CASES`] generated cases.
#[macro_export]
macro_rules! proptest {
    ($(
        #[test]
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted = 0usize;
            let mut attempts = 0usize;
            while accepted < $crate::CASES && attempts < $crate::CASES * 16 {
                attempts += 1;
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {}/{} failed: {msg}\n  inputs: {inputs}",
                            accepted + 1,
                            $crate::CASES,
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_subset_generates_matching_shapes() {
        let mut rng = crate::test_rng("regex");
        for _ in 0..200 {
            let s = Strategy::sample(&"[a-z]{1,6}-[0-9]{1,5}", &mut rng);
            let (word, digits) = s.split_once('-').expect("dash present");
            assert!((1..=6).contains(&word.len()), "{s}");
            assert!((1..=5).contains(&digits.len()), "{s}");
            assert!(word.chars().all(|c| c.is_ascii_lowercase()));
            assert!(digits.chars().all(|c| c.is_ascii_digit()));

            let t = Strategy::sample(&"[a-z0-9-]{0,12}", &mut rng);
            assert!(t.len() <= 12);
            assert!(t
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn oneof_honors_weights_loosely() {
        let strategy: crate::Union<Option<f64>> = prop_oneof![
            3 => (0.0f64..1.0).prop_map(Some),
            1 => Just(None),
        ];
        let mut rng = crate::test_rng("oneof");
        let nones = (0..4000)
            .filter(|_| Strategy::sample(&strategy, &mut rng).is_none())
            .count();
        assert!((700..1300).contains(&nones), "got {nones} Nones");
    }

    proptest! {
        #[test]
        fn vec_sizes_respect_bounds(v in prop::collection::vec(0i64..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0..10).contains(x)));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn flat_map_threads_dependent_sizes(pair in (1usize..5)
            .prop_flat_map(|n| (Just(n), prop::collection::vec(0i64..3, n..=n)))) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }
    }
}
