//! Simulation kernel for the WritersBlock simulator.
//!
//! This crate holds the pieces every other crate builds on:
//!
//! - [`Cycle`] and related time-keeping newtypes,
//! - [`SimRng`], a deterministic seeded random-number generator,
//! - [`Stats`], a string-keyed statistics registry used for every counter a
//!   figure or table in the paper reports,
//! - [`config`], the machine configurations of Table 6 of the paper
//!   (SLM-class, NHM-class and HSW-class cores) plus protocol knobs,
//! - [`check`], the in-tree property-testing harness every crate's
//!   randomized test suite runs on (the workspace builds with an empty
//!   cargo registry, so there is no external `proptest`),
//! - [`hist`], log-2-bucketed latency histograms carried inside
//!   [`Stats`] (p50/p90/p99 for miss latency, blocked-write stalls,
//!   lockdown and mesh latency),
//! - [`trace`], the cycle-stamped event tracer: per-component ring
//!   buffers of typed [`trace::TraceEvent`]s, rendered as text,
//! - [`json`], a minimal JSON parser so emitted JSON (stats, timeline
//!   windows, campaign specs and records) can be validated in-tree,
//! - [`timeline`], the periodic interval sampler turning end-of-run
//!   [`Stats`] totals into per-window deltas (JSONL),
//! - [`attr`], the bounded space-saving heavy-hitters sketch used for
//!   cycle attribution (top-K contended lines / directory banks),
//! - [`sched`], the calendar-wheel activity scheduler the sparse engine
//!   uses to visit only the components with work due each cycle,
//! - [`snap`], the versioned binary snapshot codec behind deterministic
//!   checkpoint/restore,
//! - [`soft`], seeded soft-error (bit-flip) injection into stored
//!   protocol state plus the guard-hash parity/ECC model that detects it,
//! - [`audit`], the typed violation reports of the online coherence
//!   invariant auditor (`System::run_audit`).
//!
//! # Example
//!
//! ```
//! use wb_kernel::config::{CoreClass, SystemConfig};
//!
//! let cfg = SystemConfig::new(CoreClass::Slm);
//! assert_eq!(cfg.core.rob_entries, 32);
//! assert_eq!(cfg.num_cores, 16);
//! ```

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod attr;
pub mod audit;
pub mod chaos;
pub mod check;
pub mod config;
pub mod fault;
pub mod hist;
pub mod json;
pub mod rng;
pub mod sched;
pub mod snap;
pub mod soft;
pub mod stats;
pub mod timeline;
pub mod trace;
pub mod wedge;

pub use attr::{HeavyHitters, HotEntry};
pub use audit::{AuditKind, AuditReport, AuditViolation};
pub use chaos::{ChaosClause, ChaosEffect, ChaosEngine, ChaosPlan, FlowMatch};
pub use config::{CommitMode, CoreClass, LinkConfig, ProtocolKind, SystemConfig};
pub use fault::{FaultClause, FaultEffect, FaultEngine, FaultPlan, HopFate};
pub use soft::{SoftClause, SoftEngine, SoftPlan, SoftTarget};
pub use hist::Hist;
pub use rng::SimRng;
pub use sched::ActivitySched;
pub use snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
pub use stats::{CounterHandle, Stats};
pub use timeline::{Timeline, TimelineWindow};
pub use trace::{Category, CompId, Record, TraceEvent, TraceFilter, TraceSink, Tracer};
pub use wedge::{WaitEdge, WaitParty, WedgeClass, WedgeReport};

/// A point in simulated time, measured in core clock cycles.
///
/// The whole system (cores, caches, directory, mesh) shares one clock
/// domain, as in the paper's GEMS-based setup.
pub type Cycle = u64;

/// Hard ceiling on the number of nodes a system may have. Sharer sets in
/// the directory are fixed-width bitsets sized from this constant (no
/// per-message heap allocation), so `SystemConfig::validate` rejects
/// larger machines instead of silently truncating sharer tracking.
pub const MAX_NODES: usize = 256;

/// Identifier of a node (tile) in the system: one core + private cache +
/// LLC/directory bank per tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index usable for `Vec` addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

snap_struct!(NodeId { 0 });

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from(7usize);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId::default(), NodeId(0));
    }
}
