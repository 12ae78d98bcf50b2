//! A minimal, fully offline stand-in for the [`proptest`] crate.
//!
//! The build environment of this workspace has no access to a crates.io
//! registry, so the real `proptest` cannot be fetched.  This crate implements
//! the (small) subset of the proptest 1.x API that the workspace's property
//! tests use, with the same surface syntax:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` inner attribute,
//! * `arg in strategy` argument binding,
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//! * integer-range / `any::<T>()` / tuple / `prop::collection::vec`
//!   strategies, [`Strategy::prop_map`](strategy::Strategy::prop_map) and
//!   [`prop_oneof!`].
//!
//! Unlike the real proptest there is no shrinking and no persisted failure
//! regression file: cases are generated from a deterministic per-test seed so
//! failures reproduce bit-for-bit on every run, and the failing case index is
//! reported in the panic message.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose elements are drawn from `element` and whose
    /// length is uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Mirror of the real crate's `prop` prelude module path
/// (`prop::collection::vec`, ...).
pub mod prop {
    pub use crate::collection;
}

/// The names the real `proptest::prelude::*` brings into scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests.  Mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
            while let ::std::option::Option::Some((case, mut rng)) = runner.next_case() {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    ::std::panic!(
                        "proptest case {case} of {} failed: {err}\n(cases are deterministic; re-run to reproduce)",
                        stringify!($name),
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Chooses uniformly between several strategies producing the same value
/// type.  Mirrors `proptest::prop_oneof!` (without weights).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Like `assert!` but aborts only the current generated case, reporting the
/// condition (and optional formatted message) through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Like `assert_eq!` for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?} == {:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?} == {:?}`: {}",
            left,
            right,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Like `assert_ne!` for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?} != {:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?} != {:?}`: {}",
            left,
            right,
            ::std::format!($($fmt)+)
        );
    }};
}
