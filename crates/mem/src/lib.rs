//! Addresses, cache-line data and backing memory.
//!
//! All memory operations in the simulator are 8-byte, word-aligned accesses;
//! a cache line is 64 bytes = 8 words. This matches the granularity
//! distinction the paper makes in Section 3.1: *loads and stores* operate on
//! words while coherence *reads and writes* operate on cache lines.

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod addr;
pub mod home;
pub mod line;
pub mod memory;

pub use addr::{Addr, LineAddr, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use home::HomeMap;
pub use line::LineData;
pub use memory::MainMemory;
