//! Large-machine regressions: the small-topology assumptions PR 6
//! removed must stay removed.
//!
//! - The watchdog's stall window is tuned against the 4x4 machine; on a
//!   16x16 mesh a *legal* 256-core barrier keeps one core waiting for
//!   its serialized fetch-add far longer than that, so an unscaled
//!   window calls a healthy machine wedged. `SystemConfig::topology_scale`
//!   widens the window by mesh diameter x hop latency; the unscaled
//!   cell configures a window the scale divides, so the window in
//!   force is the raw one.
//! - Directory banks are sharded (`dir_banks_per_node`); runs stay
//!   TSO-correct with multiple banks per node and the per-bank
//!   occupancy instrumentation actually records.
//!
//! The watchdog cells run at 10x10 under `cargo test` (a debug-build
//! 16x16 barrier costs more than a minute of wall clock) and at the
//! full 16x16 in release builds — `scripts/verify.sh` runs this file
//! with `--release`.

use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_workloads::{barrier_storm, torture};
use writersblock::{RunOutcome, System};

/// The machine, its topology scale and the raw window for the watchdog
/// regression: sized down in debug builds (same shape, same failure
/// mode, ~7s instead of ~80s).
fn watchdog_cell() -> (usize, u64, u64) {
    if cfg!(debug_assertions) {
        (100, 3, 12_000) // 10x10
    } else {
        (256, 5, 25_000) // 16x16
    }
}

/// Stays in Rust: the registered `barrier-storm` runs four rounds, this
/// cell one.
fn storm_config(cores: usize, window: u64) -> SystemConfig {
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .without_event_log();
    cfg.stall_window = window;
    cfg
}

/// Without topology scaling, the 4x4-tuned stall window condemns a
/// perfectly legal big-machine barrier as wedged.
#[test]
fn unscaled_watchdog_false_positives_on_legal_barrier() {
    let (cores, scale, window) = watchdog_cell();
    let w = barrier_storm(cores, 1);
    let cfg = storm_config(cores, window / scale);
    assert_eq!(cfg.effective_stall_window(), window, "the raw window is in force");
    let mut sys = System::new(cfg, &w);
    let out = sys.run(100_000_000);
    assert!(
        matches!(out, RunOutcome::Wedge(_)),
        "{cores}-core barrier with raw window {window} should trip the watchdog, got {out}"
    );
}

/// With topology scaling the same cell completes: the regression this
/// file pins.
#[test]
fn scaled_watchdog_lets_legal_barrier_finish() {
    let (cores, scale, window) = watchdog_cell();
    let w = barrier_storm(cores, 1);
    let cfg = storm_config(cores, window);
    assert_eq!(cfg.effective_stall_window(), window * scale);
    let mut sys = System::new(cfg, &w);
    let out = sys.run(100_000_000);
    assert_eq!(out, RunOutcome::Done, "legal {cores}-core barrier must not wedge");

    // The engine drove a machine this size to completion, and the
    // sharded-directory instrumentation saw the storm: the barrier
    // line's home bank records queue depth, so the occupancy histogram
    // must exist and the per-bank view must show exactly that hot bank.
    let report = sys.report();
    let occ = report.stats.hist("dir_bank_occupancy").expect("per-bank occupancy histogram");
    assert!(occ.count() > 0, "occupancy histogram never sampled");
    let busy_banks =
        sys.dir_stats().filter(|(_, s)| s.get("dir_gets") + s.get("dir_getx") > 0).count();
    assert!(busy_banks >= 1, "no directory bank saw the barrier traffic");
}

/// Two directory banks per node: the home map decouples bank count from
/// core count, and the memory model must not notice. Torture runs stay
/// TSO-green and traffic actually spreads over all 32 banks' stats.
#[test]
fn sharded_directory_banks_stay_tso_correct() {
    // Lines strided so they hash across banks, two words per line. Stays
    // in Rust: four programs on 16 cores, two banks per node.
    for seed in 0..8u64 {
        let w = torture::workload_on(4, seed, 30, torture::Lines::Spread(8));
        let mut cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(16)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_seed(seed)
            .with_jitter(25);
        cfg.memory.dir_banks_per_node = 2;
        let mut sys = System::new(cfg, &w);
        sys.verify(2_000_000).assert_pass("sharded directory");
        assert_eq!(sys.dir_stats().count(), 32, "16 nodes x 2 banks");
    }
}
