//! Address-space layout and access-pattern primitives used by the trace
//! generators.

use lad_common::types::{Address, CoreId, DataClass};

use crate::error::ProfileError;

/// Byte granularity of one cache line in the generated address space.
pub const LINE_BYTES: u64 = 64;

/// Byte granularity of one page (R-NUCA classifies at this granularity).
pub const PAGE_BYTES: u64 = 4096;

/// Lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// Layout of the synthetic address space for one benchmark.
///
/// Regions are disjoint and page-aligned:
///
/// * instructions — shared by every core;
/// * shared read-only data — shared by every core;
/// * shared read-write data — shared by groups of `sharing_degree` cores;
/// * private data — per core; with `false_sharing` the private lines of
///   different cores are interleaved within pages (so R-NUCA's page-grain
///   classifier sees them as shared), otherwise each core's private lines
///   occupy their own pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    num_cores: usize,
    instruction_lines: u64,
    shared_ro_lines: u64,
    shared_rw_lines: u64,
    private_lines_per_core: u64,
    false_sharing: bool,
    /// Base line index of each region.
    instruction_base: u64,
    shared_ro_base: u64,
    shared_rw_base: u64,
    private_base: u64,
}

impl AddressSpace {
    /// Lays out the regions for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(
        num_cores: usize,
        instruction_lines: u64,
        shared_ro_lines: u64,
        shared_rw_lines: u64,
        private_lines_per_core: u64,
        false_sharing: bool,
    ) -> Self {
        assert!(num_cores > 0, "need at least one core");
        let align = |lines: u64| lines.div_ceil(LINES_PER_PAGE) * LINES_PER_PAGE;
        let instruction_base = 0;
        let shared_ro_base = instruction_base + align(instruction_lines.max(1));
        let shared_rw_base = shared_ro_base + align(shared_ro_lines.max(1));
        let private_base = shared_rw_base + align(shared_rw_lines.max(1));
        AddressSpace {
            num_cores,
            instruction_lines: instruction_lines.max(1),
            shared_ro_lines: shared_ro_lines.max(1),
            shared_rw_lines: shared_rw_lines.max(1),
            private_lines_per_core: private_lines_per_core.max(1),
            false_sharing,
            instruction_base,
            shared_ro_base,
            shared_rw_base,
            private_base,
        }
    }

    /// Number of cores the layout was built for.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of instruction lines.
    pub fn instruction_lines(&self) -> u64 {
        self.instruction_lines
    }

    /// Number of shared read-only lines.
    pub fn shared_ro_lines(&self) -> u64 {
        self.shared_ro_lines
    }

    /// Number of shared read-write lines.
    pub fn shared_rw_lines(&self) -> u64 {
        self.shared_rw_lines
    }

    /// Number of private lines per core.
    pub fn private_lines_per_core(&self) -> u64 {
        self.private_lines_per_core
    }

    /// The byte address of instruction line `index`.
    pub fn instruction_address(&self, index: u64) -> Address {
        Address::new((self.instruction_base + index % self.instruction_lines) * LINE_BYTES)
    }

    /// The byte address of shared read-only line `index`.
    pub fn shared_ro_address(&self, index: u64) -> Address {
        Address::new((self.shared_ro_base + index % self.shared_ro_lines) * LINE_BYTES)
    }

    /// The byte address of shared read-write line `index`.
    pub fn shared_rw_address(&self, index: u64) -> Address {
        Address::new((self.shared_rw_base + index % self.shared_rw_lines) * LINE_BYTES)
    }

    /// The byte address of private line `index` of `core`.
    ///
    /// Without false sharing each core's private lines live in their own
    /// pages; with false sharing consecutive cores' lines are interleaved
    /// within the same pages.
    pub fn private_address(&self, core: CoreId, index: u64) -> Address {
        let index = index % self.private_lines_per_core;
        let line = if self.false_sharing {
            // Interleave: line i of core c sits at slot (i * num_cores + c).
            self.private_base + index * self.num_cores as u64 + core.index() as u64
        } else {
            let per_core_aligned =
                self.private_lines_per_core.div_ceil(LINES_PER_PAGE) * LINES_PER_PAGE;
            self.private_base + core.index() as u64 * per_core_aligned + index
        };
        Address::new(line * LINE_BYTES)
    }

    /// The address of line `index` within the region of `class` for `core`.
    pub fn address_for(&self, class: DataClass, core: CoreId, index: u64) -> Address {
        match class {
            DataClass::Instruction => self.instruction_address(index),
            DataClass::SharedReadOnly => self.shared_ro_address(index),
            DataClass::SharedReadWrite => self.shared_rw_address(index),
            DataClass::Private => self.private_address(core, index),
        }
    }

    /// Number of distinct lines in the region of `class` (per core for
    /// private data).
    pub fn region_lines(&self, class: DataClass) -> u64 {
        match class {
            DataClass::Instruction => self.instruction_lines,
            DataClass::SharedReadOnly => self.shared_ro_lines,
            DataClass::SharedReadWrite => self.shared_rw_lines,
            DataClass::Private => self.private_lines_per_core,
        }
    }
}

/// Relative frequency of LLC-visible accesses per data class
/// (the horizontal composition of one bar of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Weight of instruction fetches.
    pub instruction: f64,
    /// Weight of private data accesses.
    pub private: f64,
    /// Weight of shared read-only data accesses.
    pub shared_read_only: f64,
    /// Weight of shared read-write data accesses.
    pub shared_read_write: f64,
}

impl ClassMix {
    /// The weights as an array ordered like [`ClassMix::classes`].
    pub fn weights(&self) -> [f64; 4] {
        [
            self.instruction,
            self.private,
            self.shared_read_only,
            self.shared_read_write,
        ]
    }

    /// The classes in the same order as [`ClassMix::weights`].
    pub fn classes() -> [DataClass; 4] {
        [
            DataClass::Instruction,
            DataClass::Private,
            DataClass::SharedReadOnly,
            DataClass::SharedReadWrite,
        ]
    }

    /// Validates that the mix is usable (non-negative, not all zero).
    ///
    /// # Errors
    ///
    /// Returns the violation as a typed [`ProfileError`].
    pub fn validate(&self) -> Result<(), ProfileError> {
        let weights = self.weights();
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ProfileError::NonFiniteClassWeight);
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(ProfileError::NoPositiveClassWeight);
        }
        Ok(())
    }
}

/// Per-class reuse behaviour: the probability that a core touches the same
/// line again before moving on, and the cap on the burst length.
///
/// A `continue_probability` near 1 produces the long run-lengths (≥ 10) of
/// benchmarks like BARNES; near 0 produces the 1–2 access run-lengths of
/// FLUIDANIMATE or OCEAN-C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseModel {
    /// Probability of extending the current run by one more access.
    pub continue_probability: f64,
    /// Upper bound on a single run.
    pub max_run: u64,
}

impl ReuseModel {
    /// A reuse model with the given continue probability and a cap of 32.
    pub fn with_probability(continue_probability: f64) -> Self {
        ReuseModel {
            continue_probability: continue_probability.clamp(0.0, 1.0),
            max_run: 32,
        }
    }

    /// Expected run length of the geometric model (ignoring the cap).
    pub fn expected_run_length(&self) -> f64 {
        1.0 / (1.0 - self.continue_probability.min(0.999_999))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(4, 64, 128, 256, 100, false)
    }

    #[test]
    fn regions_are_disjoint() {
        let s = space();
        let mut seen = std::collections::HashSet::new();
        for i in 0..s.instruction_lines() {
            assert!(seen.insert(s.instruction_address(i)));
        }
        for i in 0..s.shared_ro_lines() {
            assert!(seen.insert(s.shared_ro_address(i)));
        }
        for i in 0..s.shared_rw_lines() {
            assert!(seen.insert(s.shared_rw_address(i)));
        }
        for c in 0..4 {
            for i in 0..s.private_lines_per_core() {
                assert!(seen.insert(s.private_address(CoreId::new(c), i)));
            }
        }
    }

    #[test]
    fn regions_are_page_aligned() {
        let s = space();
        assert_eq!(s.instruction_address(0).value() % PAGE_BYTES, 0);
        assert_eq!(s.shared_ro_address(0).value() % PAGE_BYTES, 0);
        assert_eq!(s.shared_rw_address(0).value() % PAGE_BYTES, 0);
        assert_eq!(s.private_address(CoreId::new(0), 0).value() % PAGE_BYTES, 0);
    }

    #[test]
    fn indices_wrap_around_region_sizes() {
        let s = space();
        assert_eq!(s.instruction_address(0), s.instruction_address(64));
        assert_eq!(s.shared_ro_address(1), s.shared_ro_address(129));
        assert_eq!(
            s.private_address(CoreId::new(1), 0),
            s.private_address(CoreId::new(1), 100)
        );
    }

    #[test]
    fn private_pages_are_disjoint_without_false_sharing() {
        let s = space();
        let pages_core0: std::collections::HashSet<u64> = (0..100)
            .map(|i| s.private_address(CoreId::new(0), i).value() / PAGE_BYTES)
            .collect();
        let pages_core1: std::collections::HashSet<u64> = (0..100)
            .map(|i| s.private_address(CoreId::new(1), i).value() / PAGE_BYTES)
            .collect();
        assert!(pages_core0.is_disjoint(&pages_core1));
    }

    #[test]
    fn false_sharing_interleaves_private_lines_within_pages() {
        let s = AddressSpace::new(4, 64, 128, 256, 100, true);
        let page_of =
            |core: usize, i: u64| s.private_address(CoreId::new(core), i).value() / PAGE_BYTES;
        // Line 0 of all four cores lands in the same page.
        let first_pages: std::collections::HashSet<u64> = (0..4).map(|c| page_of(c, 0)).collect();
        assert_eq!(first_pages.len(), 1);
        // But the lines themselves are still distinct.
        let lines: std::collections::HashSet<u64> = (0..4)
            .map(|c| s.private_address(CoreId::new(c), 0).value() / LINE_BYTES)
            .collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn address_for_dispatches_by_class() {
        let s = space();
        assert_eq!(
            s.address_for(DataClass::Instruction, CoreId::new(0), 3),
            s.instruction_address(3)
        );
        assert_eq!(
            s.address_for(DataClass::SharedReadOnly, CoreId::new(0), 3),
            s.shared_ro_address(3)
        );
        assert_eq!(
            s.address_for(DataClass::SharedReadWrite, CoreId::new(0), 3),
            s.shared_rw_address(3)
        );
        assert_eq!(
            s.address_for(DataClass::Private, CoreId::new(2), 3),
            s.private_address(CoreId::new(2), 3)
        );
        assert_eq!(s.region_lines(DataClass::Instruction), 64);
        assert_eq!(s.region_lines(DataClass::Private), 100);
    }

    #[test]
    fn class_mix_validation() {
        let good = ClassMix {
            instruction: 0.1,
            private: 0.4,
            shared_read_only: 0.2,
            shared_read_write: 0.3,
        };
        good.validate().unwrap();
        assert_eq!(ClassMix::classes().len(), 4);
        assert_eq!(good.weights().len(), 4);

        let bad = ClassMix {
            instruction: -0.1,
            ..good
        };
        assert!(bad.validate().is_err());
        let zero = ClassMix {
            instruction: 0.0,
            private: 0.0,
            shared_read_only: 0.0,
            shared_read_write: 0.0,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn reuse_model_expected_length() {
        let low = ReuseModel::with_probability(0.0);
        assert!((low.expected_run_length() - 1.0).abs() < 1e-9);
        let high = ReuseModel::with_probability(0.9);
        assert!((high.expected_run_length() - 10.0).abs() < 1e-9);
        let clamped = ReuseModel::with_probability(7.0);
        assert_eq!(clamped.continue_probability, 1.0);
    }
}
