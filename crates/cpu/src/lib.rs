//! The out-of-order core model.
//!
//! This crate is the core-side half of the paper's mechanism:
//!
//! - [`lsq`]: load queue (collapsible, with S bits and lockdowns), store
//!   queue, post-commit store buffer and the LDT of Section 4.2;
//! - [`predictor`]: a bimodal branch predictor;
//! - [`slots`]: the sequence-ordered queue with a slot table that the
//!   ROB, LQ and SQ keep their entries in, addressed by checked slot
//!   references;
//! - [`core`]: the pipeline — dispatch/issue/execute/commit with the
//!   three commit policies the paper evaluates (in-order, safe
//!   out-of-order per Bell-Lipasti, and out-of-order with the consistency
//!   condition relaxed through WritersBlock).
//!
//! The core executes `wb-isa` programs against a `wb-protocol` private
//! cache and logs every committed memory instruction into a
//! `wb-tso::ExecutionLog` so executions can be checked against TSO.

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]
// Every cache answer is applied: `let _ = cache.load_access(..)` once
// dropped an SoS load's hit and wedged the machine (`LoadAccess` is
// `#[must_use]`; `cargo clippy` in `scripts/verify.sh` fails on this).
#![deny(clippy::let_underscore_must_use)]
// Lookups answer with an `Option`. Where the pipeline knows the entry
// exists, a `let ... else` states what happens otherwise; there is no
// `unwrap`/`expect` outside tests, as in `wb-mesh` (`cargo clippy` in
// `scripts/verify.sh` fails on one).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod core;
pub mod lsq;
pub mod predictor;
pub mod slots;

pub use crate::core::{Core, StallInfo};
pub use lsq::Lsq;
pub use predictor::Bimodal;
