//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`strategy::Strategy`] trait with `prop_map`/`boxed`, range and
//! character-class string strategies, tuple and [`collection::vec`]
//! combinators, [`prop_oneof!`], `any::<bool>()`, and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.  Differences from the real
//! crate: cases are generated from a fixed per-test seed (derived from the
//! test's module path and name, so distinct tests explore distinct inputs and
//! reruns are exactly reproducible) and failing cases are reported without
//! shrinking.  Swap the workspace path dependency for crates.io `proptest`
//! when building online.

/// Deterministic test-case RNG (splitmix64).
pub mod rng {
    /// The generator handed to strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an integer.
        pub fn seed_from_u64(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Seeds from a test identifier string (FNV-1a hash).
        pub fn seed_from_name(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in name.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: hash }
        }

        /// The next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }
    }
}

/// Test configuration and failure reporting.
pub mod test_runner {
    use std::fmt;

    /// Subset of proptest's config: only the case count matters here.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property assertion.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure with a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.message)
        }
    }
}

/// Strategies: value generators composed with combinators.
pub mod strategy {
    use crate::rng::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// The `prop_map` combinator.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between alternatives (the `prop_oneof!` backend).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over non-empty alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.options.len() as u64) as usize;
            self.options[pick].generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u64 + 1;
                    (start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(i32, i64, u32, u64, usize, isize);

    /// String literals are character-class strategies, mirroring proptest's
    /// regex string strategies for the `[class]{m}` / `[class]{m,n}` subset
    /// (optionally repeated, e.g. `"[a-c]{1}[0-9]{2}"`).
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '[' => {
                    let mut class: Vec<char> = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = chars
                            .next()
                            .unwrap_or_else(|| panic!("unterminated class in `{pattern}`"));
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && chars.peek() != Some(&']') => {
                                let start = prev.take().unwrap();
                                let end = chars.next().unwrap();
                                assert!(start <= end, "bad range {start}-{end} in `{pattern}`");
                                class.extend((start..=end).skip(1));
                            }
                            c => {
                                class.push(c);
                                prev = Some(c);
                            }
                        }
                    }
                    assert!(!class.is_empty(), "empty class in `{pattern}`");
                    let (min, max) = parse_repetition(&mut chars, pattern);
                    let len = min + rng.below((max - min + 1) as u64) as usize;
                    for _ in 0..len {
                        out.push(class[rng.below(class.len() as u64) as usize]);
                    }
                }
                c => panic!(
                    "unsupported pattern `{pattern}`: the offline proptest shim only \
                     understands `[class]{{m,n}}` literals, got `{c}`"
                ),
            }
        }
        out
    }

    fn parse_repetition(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        pattern: &str,
    ) -> (usize, usize) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut spec = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                let (lo, hi) = match spec.split_once(',') {
                    Some((lo, hi)) => (lo, hi),
                    None => (spec.as_str(), spec.as_str()),
                };
                let lo: usize = lo.trim().parse().expect("repetition bound");
                let hi: usize = hi.trim().parse().expect("repetition bound");
                assert!(lo <= hi, "bad repetition in `{pattern}`");
                return (lo, hi);
            }
            spec.push(c);
        }
        panic!("unterminated repetition in `{pattern}`");
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }

    /// Strategy for `bool` (used through `any::<bool>()`).
    pub struct BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait behind it.
pub mod arbitrary {
    use crate::strategy::{BoolStrategy, Strategy};

    /// Types with a canonical strategy.
    pub trait Arbitrary {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;

        /// The canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    impl Arbitrary for bool {
        type Strategy = BoolStrategy;
        fn arbitrary() -> BoolStrategy {
            BoolStrategy
        }
    }

    /// The canonical strategy for `A`.
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }
}

/// Collection strategies.
pub mod collection {
    use crate::rng::TestRng;
    use crate::strategy::Strategy;
    use std::ops::Range;

    /// A strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose length
    /// lies in `size` (half-open, like proptest's `SizeRange` from a range).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual glob import for property tests.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Property assertion: fails the current case (without panicking the
/// generator loop machinery) when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Equality property assertion, with an optional context message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Inequality property assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $config; $($rest)*);
    };
    (@impl $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::rng::TestRng::seed_from_name(concat!(
                ::core::module_path!(), "::", ::core::stringify!($name)
            ));
            $(let $arg = $strategy;)*
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut rng);)*
                let result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(err) = result {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        ::core::stringify!($name), case + 1, config.cases, err
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ::core::default::Default::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::rng::TestRng;

    #[test]
    fn string_pattern_strategies_match_their_class() {
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-c]{1,3}", &mut rng);
            assert!((1..=3).contains(&s.len()), "bad length: {s:?}");
            assert!(
                s.chars().all(|c| ('a'..='c').contains(&c)),
                "bad char: {s:?}"
            );
            let t = Strategy::generate(&"[a-c]{0,5}", &mut rng);
            assert!(t.len() <= 5);
            let u = Strategy::generate(&"[p-r]{1}", &mut rng);
            assert_eq!(u.len(), 1);
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let strategy = crate::collection::vec(("[a-c]{1}", 0i64..4), 0..12);
        let mut rng = TestRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = Strategy::generate(&strategy, &mut rng);
            assert!(v.len() < 12);
            for (s, n) in v {
                assert_eq!(s.len(), 1);
                assert!((0..4).contains(&n));
            }
        }
    }

    #[test]
    fn union_draws_from_every_arm() {
        let strategy = prop_oneof![0i64..1, 10i64..11, 20i64..21];
        let mut rng = TestRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(Strategy::generate(&strategy, &mut rng));
        }
        assert_eq!(seen, [0i64, 10, 20].into_iter().collect());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_ints_respect_ranges(a in 0i64..10, b in 5usize..9) {
            prop_assert!((0..10).contains(&a));
            prop_assert!((5..9).contains(&b));
            prop_assert_eq!(a, a);
            prop_assert_ne!(b, b + 1);
        }

        #[test]
        fn early_return_is_allowed(v in crate::collection::vec(0i64..3, 0..4)) {
            if v.is_empty() {
                return Ok(());
            }
            prop_assert!(v.iter().all(|x| (0..3).contains(x)));
        }

        #[test]
        fn mapped_strategies_apply_the_function(s in "[a-b]{2}".prop_map(|s| s.len())) {
            prop_assert_eq!(s, 2);
        }

        #[test]
        fn any_bool_is_usable(flag in any::<bool>()) {
            let negated = !flag;
            prop_assert!(flag != negated);
        }
    }

    #[test]
    #[should_panic(expected = "property `failing_property` failed")]
    fn failing_properties_panic_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn failing_property(a in 0i64..10) {
                prop_assert!(a < 0, "a = {} is not negative", a);
            }
        }
        failing_property();
    }
}
