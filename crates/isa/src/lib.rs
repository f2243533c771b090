//! The simulator's mini instruction set.
//!
//! Both the litmus tests of the paper's tables and the synthetic
//! SPLASH/PARSEC-like workloads are expressed as small programs in this ISA,
//! executed for real (with register renaming, speculation and a coherent
//! memory system) by the out-of-order core model in `wb-cpu`.
//!
//! The ISA is deliberately tiny but sufficient:
//!
//! - 32 integer registers, `r0` hardwired to zero;
//! - 8-byte loads/stores with base+offset addressing (so *unresolved
//!   addresses* arise naturally from data dependences);
//! - atomic read-modify-writes (swap / fetch-add / compare-and-swap) to
//!   build spinlocks and barriers;
//! - conditional branches, which make spin loops — the protagonist of the
//!   paper's livelock discussion — real control flow.
//!
//! # Example
//!
//! ```
//! use wb_isa::{Program, Reg};
//!
//! // Table 1, core 0:   ld ra,y ; ld rb,x
//! let mut p = Program::builder();
//! let (ra, rb, ry, rx) = (Reg(1), Reg(2), Reg(3), Reg(4));
//! p.imm(ry, 0x100); // &y
//! p.imm(rx, 0x200); // &x
//! p.load(ra, ry, 0);
//! p.load(rb, rx, 0);
//! p.halt();
//! let prog = p.build();
//! assert_eq!(prog.len(), 5);
//! ```

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod asm;
pub mod builder;
pub mod inst;
pub mod interp;
pub mod program;
pub mod workload;

pub use asm::{parse_program, ParseAsmError};
pub use builder::{Label, ProgramBuilder};
pub use inst::{AluOp, AmoOp, Cond, Inst, Reg};
pub use interp::{ArchState, InterpOutcome};
pub use program::Program;
pub use workload::Workload;
