//! Off-chip DRAM model.
//!
//! Table 1 of the paper: 8 memory controllers, 5 GBps per controller and a
//! 75 ns access latency.  At the 1 GHz core clock this is 5 bytes/cycle of
//! bandwidth and 75 cycles of fixed latency per controller.
//!
//! The model captures the two effects the paper's completion-time breakdown
//! attributes to DRAM ("LLC home to off-chip memory latency"): the fixed
//! access latency and the queueing delay incurred when a controller's finite
//! bandwidth saturates.  Each controller is a single-server FIFO whose
//! service time is `line_bytes / bandwidth`; a request arriving while the
//! controller is busy waits for it to drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod controller;

pub use controller::{DramAccess, DramController, DramControllerState, DramSystem};
