//! TSO correctness machinery.
//!
//! The paper *argues* that lockdowns + WritersBlock preserve TSO; this
//! crate lets the simulator *verify* it mechanically on every run:
//!
//! - [`events`]: the memory-event log emitted by the core model — load
//!   binds, store performs, atomic read-modify-writes;
//! - [`checker`]: an axiomatic x86-TSO checker over a log with unique
//!   store values (uniproc / coherence, TSO global-happens-before
//!   acyclicity with the store→load order relaxed, RMW atomicity);
//! - [`oracle`]: an *operational* TSO reference (cores + FIFO store
//!   buffers + memory) that exhaustively enumerates all TSO-legal
//!   outcomes of small programs — used to generate Table 2 and to check
//!   that simulated litmus outcomes are TSO-legal;
//! - [`litmus`]: the litmus tests of the paper (Table 1 message passing,
//!   Table 3 transitivity) plus the classics (SB, LB, IRIW, CoRR).

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod checker;
pub mod events;
pub mod interleavings;
pub mod litmus;
pub mod oracle;

pub use checker::{CheckError, TsoChecker};
pub use events::{ExecutionLog, MemEvent, MemOp};
pub use litmus::LitmusTest;
pub use oracle::TsoOracle;
