//! # writersblock
//!
//! A full-system, cycle-level simulator reproducing **"Non-Speculative
//! Load-Load Reordering in TSO"** (Ros, Carlson, Alipour, Kaxiras — ISCA
//! 2017).
//!
//! The paper shows that speculatively reordered loads in TSO never need
//! to be squashed when another core "sees" the reordering: the coherence
//! protocol can *hide* it instead. A core whose reordered load receives
//! an invalidation withholds the acknowledgement (a **lockdown**); the
//! directory parks the offending write in a new transient state
//! (**WritersBlock**) that blocks all writes but serves reads uncacheable
//! tear-off copies of the pre-write data. When the reordering resolves
//! (the older load performs), the deferred acknowledgement is released
//! and the write proceeds. Reordered loads can therefore be *irrevocably
//! bound* — e.g. committed out of order — without checkpoints.
//!
//! This crate wires the substrates into a 16-core tiled system:
//!
//! - out-of-order cores (`wb-cpu`) with in-order, Bell-Lipasti
//!   out-of-order, and WritersBlock-relaxed commit;
//! - private L1+L2 caches and LLC/directory banks speaking base MESI or
//!   the WritersBlock protocol (`wb-protocol`);
//! - a 4x4 mesh interconnect (`wb-mesh`);
//! - TSO verification machinery (`wb-tso`).
//!
//! # Quickstart
//!
//! ```
//! use writersblock::prelude::*;
//!
//! // Table 1's message-passing litmus on a WritersBlock system with
//! // out-of-order commit: the forbidden outcome can never appear.
//! let litmus = wb_tso::litmus::mp();
//! let cfg = SystemConfig::new(CoreClass::Slm)
//!     .with_cores(2)
//!     .with_commit(CommitMode::OutOfOrderWb);
//! let mut sys = System::new(cfg, &litmus.workload);
//! let outcome = sys.run(200_000);
//! assert_eq!(outcome, RunOutcome::Done);
//! let observed: Vec<u64> =
//!     litmus.observed.iter().map(|&(c, r)| sys.arch_reg(c, r)).collect();
//! assert!(!litmus.is_forbidden(&observed));
//! ```

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod audit;
mod diagnose;
mod engine;
pub mod litmus_runner;
pub mod report;
mod snapshot;
pub mod system;
mod verdict;
mod watchdog;

pub use litmus_runner::{run_litmus, LitmusFailure, LitmusReport};
pub use report::Report;
pub use system::{RunOutcome, System};
pub use verdict::{Failure, Verdict};

/// Commonly used items, re-exported for examples and benches.
pub mod prelude {
    pub use crate::{Failure, Report, RunOutcome, System, Verdict};
    pub use wb_isa::{AluOp, AmoOp, Cond, Inst, Program, ProgramBuilder, Reg, Workload};
    pub use wb_kernel::chaos::{ChaosClause, ChaosEffect, ChaosPlan, FlowMatch};
    pub use wb_kernel::config::{CommitMode, CoreClass, LinkConfig, ProtocolKind, SystemConfig};
    pub use wb_kernel::audit::{AuditKind, AuditReport, AuditViolation};
    pub use wb_kernel::fault::{FaultClause, FaultEffect, FaultPlan};
    pub use wb_kernel::soft::{SoftClause, SoftPlan, SoftTarget};
    pub use wb_kernel::trace::{Category, TraceFilter, TraceSink};
    pub use wb_kernel::wedge::{WaitParty, WedgeClass, WedgeReport};
    pub use wb_mem::{Addr, LineAddr};
}
