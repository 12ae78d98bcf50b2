//! Strongly-typed identifiers and enums used across the simulator.
//!
//! Newtypes are used for core identifiers, byte addresses, cache-line
//! addresses and cycle counts so that the different integer domains cannot be
//! confused (see C-NEWTYPE in the Rust API guidelines).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Identifier of a core / tile in the multicore.
///
/// Cores are numbered `0..num_cores` in row-major order of the 2-D mesh
/// (core `i` sits at mesh coordinates `(i % width, i / width)`).
///
/// # Example
///
/// ```
/// use lad_common::types::CoreId;
/// let c = CoreId::new(9);
/// assert_eq!(c.index(), 9);
/// assert_eq!(format!("{c}"), "core9");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core identifier from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 16 bits (the paper's design targets
    /// up to 1024 cores; 65 536 is a comfortable margin).
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "core index {index} out of range"
        );
        CoreId(index as u16)
    }

    /// Returns the numeric index of this core.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<u16> for CoreId {
    fn from(value: u16) -> Self {
        CoreId(value)
    }
}

/// A byte address in the simulated 48-bit physical address space.
///
/// # Example
///
/// ```
/// use lad_common::types::Address;
/// let a = Address::new(0x1040);
/// assert_eq!(a.value(), 0x1040);
/// assert_eq!(a.line(64).index(), 0x41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte address.
    pub fn new(value: u64) -> Self {
        Address(value)
    }

    /// Returns the raw byte address.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address, for a given line size
    /// in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: usize) -> CacheLine {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheLine(self.0 >> line_bytes.trailing_zeros())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Address(value)
    }
}

/// A cache-line address (byte address divided by the line size).
///
/// All coherence, placement and replication decisions in the system operate
/// at this granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheLine(u64);

impl CacheLine {
    /// Creates a cache line from its index (byte address / line size).
    pub fn from_index(index: u64) -> Self {
        CacheLine(index)
    }

    /// Returns the line index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this line.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn byte_address(self, line_bytes: usize) -> u64 {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        self.0 << line_bytes.trailing_zeros()
    }

    /// Returns the page containing this line for a given page size.
    ///
    /// Used by the Reactive-NUCA baseline, whose private/shared
    /// classification operates at page granularity.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is smaller than `line_bytes` or either is not a
    /// power of two.
    pub fn page(self, line_bytes: usize, page_bytes: usize) -> u64 {
        assert!(line_bytes.is_power_of_two() && page_bytes.is_power_of_two());
        assert!(page_bytes >= line_bytes, "page must be at least one line");
        let lines_per_page = (page_bytes / line_bytes) as u64;
        self.0 / lines_per_page
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:0x{:x}", self.0)
    }
}

/// A simulation time stamp or duration, measured in core clock cycles.
///
/// `Cycle` supports saturating-free addition (simulations never get close to
/// `u64::MAX`) and subtraction that panics on underflow in debug builds.
///
/// # Example
///
/// ```
/// use lad_common::types::Cycle;
/// let t = Cycle::new(10) + Cycle::new(5);
/// assert_eq!(t.value(), 15);
/// assert_eq!((t - Cycle::new(3)).value(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero timestamp.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub fn new(value: u64) -> Self {
        Cycle(value)
    }

    /// Returns the raw cycle count.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the maximum of two timestamps.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the duration from `earlier` to `self`, saturating at zero if
    /// `earlier` is in the future.
    pub fn since(self, earlier: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

/// The kind of memory operation issued by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Data load.
    Read,
    /// Data store (requires exclusive ownership).
    Write,
    /// Instruction fetch (read-only, served by the L1-I cache).
    InstructionFetch,
}

impl MemOp {
    /// Returns `true` for operations that require exclusive (writable)
    /// ownership of the cache line.
    pub fn is_write(self) -> bool {
        matches!(self, MemOp::Write)
    }

    /// Returns `true` for instruction fetches.
    pub fn is_instruction(self) -> bool {
        matches!(self, MemOp::InstructionFetch)
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemOp::Read => "read",
            MemOp::Write => "write",
            MemOp::InstructionFetch => "ifetch",
        };
        f.write_str(s)
    }
}

/// Classification of a cache line by how it is shared, following Figure 1 of
/// the paper.
///
/// The classification is a property of the workload (and is used by the
/// synthetic trace generators and by the characterization experiment in
/// Figure 1); the locality-aware protocol itself never looks at it — its
/// replication decisions depend purely on observed reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataClass {
    /// Lines accessed by exactly one core.
    Private,
    /// Instruction lines (read-only, fetched through the L1-I cache).
    Instruction,
    /// Data lines read by several cores but never written after
    /// initialization.
    SharedReadOnly,
    /// Data lines read and written by several cores.
    SharedReadWrite,
}

impl DataClass {
    /// All data classes, in the order used by the Figure 1 plot.
    pub const ALL: [DataClass; 4] = [
        DataClass::Private,
        DataClass::Instruction,
        DataClass::SharedReadOnly,
        DataClass::SharedReadWrite,
    ];

    /// Short label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Private => "Private",
            DataClass::Instruction => "Instruction",
            DataClass::SharedReadOnly => "Shared Read-Only",
            DataClass::SharedReadWrite => "Shared Read-Write",
        }
    }
}

impl fmt::Display for DataClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single memory reference issued by a core, as produced by the workload
/// generators and consumed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// The issuing core.
    pub core: CoreId,
    /// The referenced byte address.
    pub address: Address,
    /// The operation kind.
    pub op: MemOp,
    /// Number of compute (non-memory) cycles the core spends before issuing
    /// this access.  Models the "Compute" component of the paper's
    /// completion-time breakdown.
    pub compute_cycles: u32,
    /// Data class of the referenced line (workload ground truth, used for
    /// characterization only).
    pub class: DataClass,
}

impl MemoryAccess {
    /// Convenience constructor for a data read with no preceding compute.
    pub fn read(core: CoreId, address: Address) -> Self {
        MemoryAccess {
            core,
            address,
            op: MemOp::Read,
            compute_cycles: 0,
            class: DataClass::Private,
        }
    }

    /// Convenience constructor for a data write with no preceding compute.
    pub fn write(core: CoreId, address: Address) -> Self {
        MemoryAccess {
            core,
            address,
            op: MemOp::Write,
            compute_cycles: 0,
            class: DataClass::Private,
        }
    }

    /// Sets the workload data class (builder style).
    pub fn with_class(mut self, class: DataClass) -> Self {
        self.class = class;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_roundtrip() {
        for i in [0usize, 1, 63, 1023] {
            assert_eq!(CoreId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_id_rejects_huge_index() {
        let _ = CoreId::new(usize::MAX);
    }

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId::new(7).to_string(), "core7");
    }

    #[test]
    fn address_to_line() {
        let a = Address::new(0x1234);
        assert_eq!(a.line(64).index(), 0x48);
        assert_eq!(a.line(64).byte_address(64), 0x1200);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn address_line_requires_power_of_two() {
        let _ = Address::new(100).line(48);
    }

    #[test]
    fn line_page_mapping() {
        // 64-byte lines, 4 KB pages -> 64 lines per page.
        let line = CacheLine::from_index(130);
        assert_eq!(line.page(64, 4096), 2);
        let line = CacheLine::from_index(63);
        assert_eq!(line.page(64, 4096), 0);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(100);
        let b = Cycle::new(40);
        assert_eq!((a + b).value(), 140);
        assert_eq!((a - b).value(), 60);
        assert_eq!(a.max(b), a);
        assert_eq!(b.since(a), Cycle::ZERO);
        assert_eq!(a.since(b).value(), 60);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 140);
        assert_eq!((a + 5u64).value(), 105);
    }

    #[test]
    fn memop_predicates() {
        assert!(MemOp::Write.is_write());
        assert!(!MemOp::Read.is_write());
        assert!(MemOp::InstructionFetch.is_instruction());
        assert!(!MemOp::Read.is_instruction());
    }

    #[test]
    fn data_class_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            DataClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), DataClass::ALL.len());
    }

    #[test]
    fn memory_access_builders() {
        let a = MemoryAccess::read(CoreId::new(3), Address::new(64))
            .with_class(DataClass::SharedReadOnly);
        assert_eq!(a.core.index(), 3);
        assert_eq!(a.op, MemOp::Read);
        assert_eq!(a.class, DataClass::SharedReadOnly);
        assert_eq!(a.compute_cycles, 0);
        let w = MemoryAccess::write(CoreId::new(1), Address::new(0));
        assert!(w.op.is_write());
    }
}
