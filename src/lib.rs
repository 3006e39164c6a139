//! Umbrella crate for the TMCC reproduction workspace.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. The actual functionality lives
//! in the member crates; see [`tmcc`] for the system entry point.

pub use tmcc;
pub use tmcc_compression as compression;
pub use tmcc_deflate as deflate;
pub use tmcc_sim_dram as sim_dram;
pub use tmcc_sim_mem as sim_mem;
pub use tmcc_types as types;
pub use tmcc_workloads as workloads;

/// The README's Rust examples, compiled (not run) as doctests so they
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
