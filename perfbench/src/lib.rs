//! # ziv-perfbench
//!
//! The repository benchmark. Each workload is one command that times
//! the simulator end to end through its public API, checks that the
//! simulated output is correct, and prints every metric by name with
//! its unit and sample count; `--trace 1` runs the traced variant that
//! reports per-layer numbers. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod bench;
pub mod calib;
pub mod check;
pub mod grid;
pub mod probe;
pub mod spans;
pub mod stats;
