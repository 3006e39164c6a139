//! Typed errors for the capacity-pressure resilience layer.
//!
//! Library paths that used to `panic!`/`expect` on resource exhaustion or
//! broken invariants now propagate [`TmccError`] so callers (the bench
//! harness, fault-injection sweeps, downstream users of the crate) can
//! distinguish "this configuration is infeasible" from "the simulator has
//! a bug" and react — retry with a larger budget, record the failure, or
//! abort with context. The construction-time convenience wrapper
//! [`crate::System::new`] still panics, but it is a thin shim over the
//! fallible [`crate::System::try_new`].

use std::fmt;
use tmcc_compression::CodecError;

/// Result alias for fallible TMCC operations.
pub type Result<T> = std::result::Result<T, TmccError>;

/// Everything that can go wrong inside the simulated memory system.
#[derive(Debug, Clone, PartialEq)]
pub enum TmccError {
    /// The DRAM budget cannot hold the workload even fully compressed.
    InfeasibleBudget {
        /// 4 KiB frames the budget provides.
        budget_frames: u64,
        /// Frames the workload needs at minimum (page table pinned,
        /// everything else compressed, plus the eviction reserve).
        required_frames: u64,
        /// Which stage of placement ran out of room.
        stage: &'static str,
    },
    /// An allocation could not be satisfied because the free lists ran
    /// dry (ML1 had no chunks left to donate to ML2).
    FreeListExhausted {
        /// Bytes the failed allocation asked for.
        requested_bytes: usize,
        /// Free 4 KiB chunks ML1 had at the time.
        ml1_free_chunks: usize,
    },
    /// An allocation request exceeded the largest sub-chunk size class.
    OversizedAllocation {
        /// Bytes requested.
        requested_bytes: usize,
        /// The largest class available.
        largest_class: usize,
    },
    /// The memory controller was asked about a page it never placed.
    UnplacedPage {
        /// The physical page number.
        ppn: u64,
    },
    /// The workload touched a virtual page the page table does not map.
    UnmappedVpn {
        /// The virtual page number.
        vpn: u64,
    },
    /// A sub-chunk was freed twice.
    DoubleFree {
        /// Super-chunk id of the offending free.
        super_id: u32,
        /// Slot within the super-chunk.
        slot: u8,
    },
    /// An operation named a sub-chunk whose super-chunk is not live.
    UnknownSubChunk {
        /// The super-chunk id that was not found.
        super_id: u32,
    },
    /// The invariant auditor ([`crate::System::validate`]) found the
    /// system in an inconsistent state.
    InvariantViolation {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// The data pages reach into the page-table region, so table pages
    /// would alias data pages.
    TableRegionOverlap {
        /// Identity-mapped data pages (PPNs `0..data_pages`).
        data_pages: u64,
        /// First PPN of the page-table region.
        table_region_base: u64,
    },
    /// The configuration exceeds a fixed-width limit of the simulator's
    /// bookkeeping. Raised at construction, before anything sized by the
    /// footprint is allocated.
    ScaleLimit {
        /// What overflowed, naming the limit.
        quantity: &'static str,
        /// The configured amount.
        requested: u64,
        /// The largest amount supported.
        limit: u64,
    },
    /// The run was cancelled through its [`crate::RunHandle`] (the bench
    /// watchdog arms one per sweep point and cancels on deadline overrun).
    Cancelled {
        /// Accesses executed (warmup included) when the cancellation was
        /// observed.
        at_access: u64,
    },
    /// A codec-level integrity failure surfaced outside the recovery
    /// ladder — a decode the scheme *expected* to succeed (clean stream,
    /// verified seal) returned a typed [`CodecError`]. Ladder-handled
    /// corruption never raises this; it lands in the corruption counters.
    Codec {
        /// Which operation hit the error.
        context: &'static str,
        /// The underlying decode failure.
        error: CodecError,
    },
}

impl TmccError {
    /// Whether this error is a cooperative cancellation (watchdog
    /// timeout) rather than a simulation-level failure.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, TmccError::Cancelled { .. })
    }
}

impl fmt::Display for TmccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmccError::InfeasibleBudget { budget_frames, required_frames, stage } => write!(
                f,
                "DRAM budget infeasible during {stage}: {budget_frames} frames available, \
                 at least {required_frames} required even fully compressed"
            ),
            TmccError::FreeListExhausted { requested_bytes, ml1_free_chunks } => write!(
                f,
                "free lists exhausted: cannot allocate {requested_bytes} bytes \
                 ({ml1_free_chunks} free ML1 chunks)"
            ),
            TmccError::OversizedAllocation { requested_bytes, largest_class } => write!(
                f,
                "allocation of {requested_bytes} bytes exceeds the largest \
                 sub-chunk class ({largest_class} bytes)"
            ),
            TmccError::UnplacedPage { ppn } => {
                write!(f, "access to unplaced physical page {ppn:#x}")
            }
            TmccError::UnmappedVpn { vpn } => {
                write!(f, "workload touched unmapped virtual page {vpn:#x}")
            }
            TmccError::DoubleFree { super_id, slot } => {
                write!(f, "sub-chunk slot {slot} of super-chunk {super_id} double-freed")
            }
            TmccError::UnknownSubChunk { super_id } => {
                write!(f, "super-chunk {super_id} is not live")
            }
            TmccError::InvariantViolation { detail } => {
                write!(f, "invariant violation: {detail}")
            }
            TmccError::TableRegionOverlap { data_pages, table_region_base } => write!(
                f,
                "{data_pages} data pages overlap the page-table region starting at PPN \
                 {table_region_base:#x}"
            ),
            TmccError::ScaleLimit { quantity, requested, limit } => {
                write!(f, "{requested} {quantity} exceed the simulator's limit of {limit}")
            }
            TmccError::Cancelled { at_access } => {
                write!(f, "run cancelled after {at_access} accesses")
            }
            TmccError::Codec { context, error } => {
                write!(f, "codec failure during {context}: {error}")
            }
        }
    }
}

impl std::error::Error for TmccError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = TmccError::InfeasibleBudget {
            budget_frames: 10,
            required_frames: 100,
            stage: "page-table pinning",
        };
        let msg = e.to_string();
        assert!(msg.contains("10 frames"));
        assert!(msg.contains("100"));
        assert!(msg.contains("page-table pinning"));

        let e = TmccError::UnmappedVpn { vpn: 0xabc };
        assert!(e.to_string().contains("0xabc"));

        let e = TmccError::TableRegionOverlap { data_pages: 4096, table_region_base: 0x400 };
        let msg = e.to_string();
        assert!(msg.contains("4096 data pages") && msg.contains("0x400"));

        let e = TmccError::ScaleLimit {
            quantity: "data pages (31-bit page handles)",
            requested: 1 << 32,
            limit: 1 << 31,
        };
        let msg = e.to_string();
        assert!(msg.contains("4294967296 data pages") && msg.contains("2147483648"));

        let e = TmccError::Codec {
            context: "sealed page decode",
            error: CodecError::ChecksumMismatch { stored: 1, computed: 2 },
        };
        let msg = e.to_string();
        assert!(msg.contains("sealed page decode"));
        assert!(msg.contains("CRC mismatch"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&TmccError::UnplacedPage { ppn: 1 });
    }
}
