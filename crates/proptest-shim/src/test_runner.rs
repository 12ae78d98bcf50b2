//! The deterministic case runner behind the [`proptest!`](crate::proptest)
//! macro.

use std::fmt;

use lad_common::fnv::{fnv1a, FNV_OFFSET_BASIS};
use lad_common::rng::DeterministicRng;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property assertion (carries the rendered message).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps a failure message.
    pub fn fail(message: String) -> Self {
        TestCaseError(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Iterates the generated cases of one property test.
#[derive(Debug)]
pub struct TestRunner {
    cases: u32,
    next: u32,
    seed: u64,
}

impl TestRunner {
    /// Builds a runner whose case seeds are derived deterministically from
    /// the test name, so every run generates the identical case sequence.
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        TestRunner {
            cases: config.cases,
            next: 0,
            // FNV-1a over the test name gives each test its own stream.
            seed: fnv1a(FNV_OFFSET_BASIS, name.as_bytes()),
        }
    }

    /// Returns the next `(case_index, rng)` pair, or `None` when done.
    pub fn next_case(&mut self) -> Option<(u32, TestRng)> {
        if self.next >= self.cases {
            return None;
        }
        let case = self.next;
        self.next += 1;
        Some((
            case,
            TestRng::new(self.seed ^ (u64::from(case) << 32 | u64::from(case))),
        ))
    }
}

/// The value generator handed to strategies: the workspace's xoshiro256++
/// generator, seeded per case.
#[derive(Debug, Clone)]
pub struct TestRng(DeterministicRng);

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        TestRng(DeterministicRng::seed_from(seed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}
