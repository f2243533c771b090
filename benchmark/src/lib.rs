//! The repository's benchmark. See `README.md` beside `Cargo.toml`.

pub mod cells;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod rig;
pub mod timed;
pub mod traced;

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;
