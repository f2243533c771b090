//! Checkpoint/restore exactness.
//!
//! The tentpole invariant of the snapshot subsystem: take `snapshot(S)`
//! at an arbitrary mid-run cycle, `restore` it into a freshly built
//! system, and the continuation is *byte-identical* to continuing the
//! original — same outcome at the same cycle, same stats JSON, same
//! timeline windows — in every engine mode (Dense, Sparse,
//! SparseVerify), on litmus, chaos, fault (ARQ-active) and
//! wedge cells. The sparse engines additionally restore the activity
//! scheduler itself: a snapshot cut while most components sleep must
//! resume without spuriously waking (or losing) any of them.
//!
//! One subtlety: every `run` call starts the watchdog's progress
//! baseline afresh, so calling `run` twice restarts the stall window at
//! the split point. Restoring a snapshot restarts it the same way, so the fair baseline
//! for a resumed run is the *split* original (run-to-cut, then run-on),
//! which these tests use throughout.

use wb_isa::Workload;
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::check::prelude::*;
use wb_kernel::config::{CommitMode, CoreClass, CoreConfig, EngineMode, MemoryConfig, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::soft::SoftPlan;
use wb_workloads::torture;
use writersblock::{RunOutcome, System};

/// Everything observable about a finished (or stopped) run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    final_cycle: u64,
    retired: u64,
    stats_json: String,
    timeline: String,
}

fn observe(sys: &mut System, budget: u64) -> Observed {
    let outcome = sys.run(budget);
    Observed {
        outcome,
        final_cycle: sys.now(),
        retired: sys.total_retired(),
        stats_json: sys.report().stats.to_json(),
        timeline: sys.timeline_jsonl(),
    }
}

/// The headline arm (WritersBlock, out-of-order commit) at jitter 25.
fn base(seed: u64) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(25)
}

/// The cell matrix the property test draws from: litmus, plain
/// contention, chaos timing injection, a lossy-link (ARQ-active) fault
/// cell, and a soft-error cell (bit flips + guards + periodic audit).
fn cell(kind: usize, seed: u64) -> (SystemConfig, Workload) {
    let base = base(seed);
    match kind % 5 {
        0 => (base.with_cores(2), wb_tso::litmus::mp().workload),
        1 => (base.with_cores(4), torture::workload(4, seed, 10)),
        2 => (
            base.with_cores(4).with_chaos(ChaosPlan::delay_storm()),
            torture::workload(4, seed, 8),
        ),
        3 => (
            base.with_cores(4).with_fault(FaultPlan::drop_everywhere(1, 10)),
            torture::workload(4, seed, 8),
        ),
        _ => (
            base.with_cores(4).with_soft(SoftPlan::background_radiation().accelerated(20)),
            torture::workload(4, seed, 10),
        ),
    }
}

const BUDGET: u64 = 8_000_000;

/// Split-run baseline vs snapshot/restore continuation, same engine.
fn check_resume_exact(cfg: &SystemConfig, w: &Workload, cut: u64) {
    // Baseline: run to the cut, then continue on the same system.
    let mut a = System::new(cfg.clone(), w);
    let _ = a.run(cut);
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    // Restore into a fresh system and continue from the same cycle.
    let mut b = System::new(cfg.clone(), w);
    b.restore(&bytes).expect("snapshot restores into an identical build");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "resumed run diverged from the original");
    // Snapshot at the end state agrees too (stable fixed point).
    assert_eq!(a.snapshot(), b.snapshot(), "end-state snapshots diverged");
}

wb_proptest! {
    #![cases = 12]

    /// Snapshot at a random mid-run cycle, across all three engines and
    /// the full cell matrix (litmus / contention / chaos / ARQ-fault).
    #[test]
    fn mid_run_snapshots_resume_byte_identically(
        seed in 0u64..1000,
        cut in 500u64..60_000,
        kind in 0usize..5,
    ) {
        let (cfg, w) = cell(kind, seed);
        for engine in [EngineMode::Dense, EngineMode::Sparse, EngineMode::SparseVerify] {
            check_resume_exact(&cfg.clone().with_engine(engine), &w, cut);
        }
    }
}

/// A snapshot taken under one engine restores into another: the restored
/// Sparse run must land on the same outcome/stats as the Dense original.
#[test]
fn snapshots_restore_across_engines() {
    let (cfg, w) = cell(1, 42);
    let dense_cfg = cfg.clone().with_engine(EngineMode::Dense);
    let mut a = System::new(dense_cfg.clone(), &w);
    let _ = a.run(5_000);
    let bytes = a.snapshot();
    let rest_dense = observe(&mut a, BUDGET);
    for engine in [EngineMode::Sparse, EngineMode::SparseVerify] {
        let mut b = System::new(cfg.clone().with_engine(engine), &w);
        b.restore(&bytes).expect("engine mode is not part of the fingerprint");
        let rest = observe(&mut b, BUDGET);
        assert_eq!(rest_dense.outcome, rest.outcome, "{engine:?} outcome diverged");
        assert_eq!(rest_dense.final_cycle, rest.final_cycle, "{engine:?} cycle diverged");
        assert_eq!(rest_dense.retired, rest.retired, "{engine:?} retired diverged");
        assert_eq!(rest_dense.stats_json, rest.stats_json, "{engine:?} stats diverged");
    }
}

/// Mid-sleep scheduler snapshot: on a lossy-link cell the ARQ retry
/// timers put most components to sleep for long stretches, so a cut in
/// the middle of the run catches the sparse engine with a mostly-idle
/// calendar wheel. The snapshot's canonical wake table must restore
/// that state exactly — resuming in Sparse (same engine), and a
/// Sparse-taken snapshot must restore into Dense (which drops the
/// table) and SparseVerify with the identical continuation.
#[test]
fn mid_sleep_scheduler_state_survives_restore() {
    let (cfg, w) = cell(3, 77); // ARQ-active fault cell: long sleeps
    let sparse_cfg = cfg.clone().with_engine(EngineMode::Sparse);
    let mut a = System::new(sparse_cfg.clone(), &w);
    let _ = a.run(4_000);
    assert!(a.skipped_cycles() > 0, "cell must actually sleep before the cut");
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    // Same-engine resume: the wheel is adopted from the snapshot.
    let mut b = System::new(sparse_cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "sparse mid-sleep resume diverged");
    // Cross-engine resume: Dense does not use the wheel and ignores it.
    for engine in [EngineMode::Dense, EngineMode::SparseVerify] {
        let mut c = System::new(cfg.clone().with_engine(engine), &w);
        c.restore(&bytes).expect("restores");
        let rest = observe(&mut c, BUDGET);
        assert_eq!(rest_a.outcome, rest.outcome, "{engine:?} outcome diverged");
        assert_eq!(rest_a.final_cycle, rest.final_cycle, "{engine:?} cycle diverged");
        assert_eq!(rest_a.retired, rest.retired, "{engine:?} retired diverged");
        assert_eq!(rest_a.stats_json, rest.stats_json, "{engine:?} stats diverged");
    }
}

/// The wedge cell from the engine-equivalence suite: snapshot before
/// the watchdog trips, resume, and the wedge report — class, cycle,
/// parties, reproducer — is byte-identical to the split baseline.
#[test]
fn wedge_cells_resume_to_the_same_report() {
    let w = torture::workload(2, 11, 15);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(2)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(11)
        .with_jitter(25)
        .with_fault(FaultPlan::drop_everywhere(1, 12));
    cfg.network.link.rto_min = 4000;
    cfg.network.link.rto_max = 4000;
    cfg.stall_window = 625;
    assert_eq!(cfg.effective_stall_window(), 2500);
    let mut a = System::new(cfg.clone(), &w);
    let _ = a.run(1_000);
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    assert!(
        matches!(rest_a.outcome, RunOutcome::Wedge(_)),
        "cell must wedge, got {}",
        rest_a.outcome
    );
    let mut b = System::new(cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "wedge report diverged after resume");
}

/// Timeline sampling state rides in the snapshot: a resumed run emits
/// exactly the windows the original would have.
#[test]
fn timeline_state_survives_restore() {
    let (cfg, _) = cell(2, 7);
    let w = torture::workload(4, 7, 60);
    let mut a = System::new(cfg.clone(), &w);
    a.enable_timeline(500);
    let _ = a.run(3_750); // mid-window: origin/partial-window state matters
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    assert!(rest_a.timeline.lines().count() >= 4, "cell must emit windows");
    let mut b = System::new(cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "timeline diverged after resume");
}

/// Restoring into a system built from a different configuration or
/// workload is a typed error, not silent corruption.
#[test]
fn mismatched_configurations_are_rejected() {
    let (cfg, w) = cell(1, 5);
    let mut a = System::new(cfg.clone(), &w);
    let _ = a.run(2_000);
    let bytes = a.snapshot();
    // Different seed.
    let mut b = System::new(cfg.clone().with_seed(6), &w);
    let e = b.restore(&bytes).expect_err("seed mismatch must be rejected");
    assert!(e.to_string().contains("different configuration"), "got: {e}");
    // Different workload.
    let (_, w2) = cell(1, 9);
    let mut c = System::new(cfg.clone(), &w2);
    assert!(c.restore(&bytes).is_err(), "workload mismatch must be rejected");
    // Another core class, the tiny-LLC machine, and an eviction buffer
    // that alone differs from Table 6's.
    let mut evict = cfg.clone();
    evict.memory.dir_evict_buffer = 2;
    let mut tiny = cfg.clone();
    tiny.memory = MemoryConfig::tiny_llc();
    let hsw = SystemConfig { core: CoreConfig { commit_mode: cfg.core.commit_mode, ..CoreConfig::for_class(CoreClass::Hsw) }, ..cfg.clone() };
    for other in [hsw, tiny, evict] {
        let e = System::new(other, &w).restore(&bytes).expect_err("machine mismatch must be rejected");
        assert!(e.to_string().contains("different configuration"), "got: {e}");
    }
    // Truncated payload.
    let mut d = System::new(cfg.clone(), &w);
    assert!(d.restore(&bytes[..bytes.len() / 2]).is_err(), "truncation must be rejected");
    // A snapshot of the previous payload layout, 9 (the u16 right after
    // the frame header; 10 fingerprints the configuration with its
    // one-cell spec and keeps Option 1's per-write books): a typed
    // error, never a misparse.
    let mut old = bytes.clone();
    let at = wb_kernel::snap::MAGIC.len() + 4;
    let layout = u16::from_le_bytes([old[at], old[at + 1]]);
    assert_eq!(layout, 10, "this build writes layout 10");
    old[at..at + 2].copy_from_slice(&9u16.to_le_bytes());
    let mut f = System::new(cfg, &w);
    let e = f.restore(&old).expect_err("old layout must be rejected");
    let want = "snapshot layout 9 unsupported (this build reads 10)";
    assert!(e.to_string().contains(want), "got: {e}");
}

/// FNV-1a-64 of a snapshot: the fingerprint `wire_format_is_pinned` pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Six cells that between them reach every codec: litmus, plain
/// contention, chaos, ARQ under `mixed_misery`, soft errors and 16-core
/// ECL, each with the timeline on, run to a mid-flight cut.
const WIRE_CELLS: [&str; 6] = ["mp", "plain", "chaos", "arq", "soft", "ecl16"];

fn wire_cell(name: &str) -> System {
    let base = base(7);
    let four = base.clone().with_cores(4);
    let torture = || torture::workload(4, 7, 40);
    let (cfg, w, cut) = match name {
        "mp" => (base.with_cores(2), wb_tso::litmus::mp().workload, 300),
        "plain" => (four, torture(), 3000),
        "chaos" => (four.with_chaos(ChaosPlan::delay_storm()), torture(), 3000),
        "arq" => (four.with_fault(FaultPlan::mixed_misery()), torture(), 3000),
        "soft" => {
            (four.with_soft(SoftPlan::background_radiation().accelerated(20)), torture(), 3000)
        }
        _ => (
            base.with_cores(16).with_commit(CommitMode::InOrderEcl),
            wb_workloads::splash::fft(16, wb_workloads::Scale::Test),
            2000,
        ),
    };
    let mut sys = System::new(cfg, &w);
    sys.enable_timeline(500);
    let _ = sys.run(cut);
    sys
}

/// The wire format itself, not just its round trip: length and digest
/// of `System::snapshot()` on [`WIRE_CELLS`]. A layout change bumps
/// `SNAP_LAYOUT` and refreshes them; so does a behaviour change, which
/// moves the state at the cut. Last refreshed for layout 10 (the
/// configuration fingerprint is the one-cell campaign spec, and each
/// bank keeps Option 1's per-write books).
#[test]
fn wire_format_is_pinned() {
    let got: Vec<(&str, usize, u64)> = WIRE_CELLS
        .iter()
        .map(|&name| {
            let bytes = wire_cell(name).snapshot();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let want = [
        ("mp", 654_018, 0x3d47_4480_331c_89fc),
        ("plain", 1_359_075, 0x2beb_721d_5eae_8eae),
        ("chaos", 1_347_571, 0x5bb6_35b3_dc15_001c),
        ("arq", 1_358_170, 0x2434_2b17_295a_1fc6),
        ("soft", 1_368_062, 0xc0a4_d3d6_0d27_6f1d),
        ("ecl16", 5_366_245, 0x3f9d_c6ff_7dcc_e4f2),
    ];
    assert_eq!(got, want, "the wire moved");
}

wb_proptest! {
    #![cases = 48]

    /// A damaged snapshot — cut short anywhere, or with one bit flipped
    /// anywhere — restores to a typed error or (a flip in a value no
    /// decoder constrains) to `Ok`: never a panic, never an allocation
    /// sized by a corrupt length. A truncation is always an error.
    #[test]
    fn damaged_snapshots_are_errors_not_panics(
        cell in 0usize..WIRE_CELLS.len(),
        at in 0u64..u64::MAX,
        bit in 0u8..8,
        truncate in 0u8..2,
    ) {
        let mut sys = wire_cell(WIRE_CELLS[cell]);
        let mut bytes = sys.snapshot();
        let at = (at % bytes.len() as u64) as usize;
        if truncate == 1 {
            bytes.truncate(at);
            prop_assert!(sys.restore(&bytes).is_err(), "a snapshot cut at {at} restored");
        } else {
            bytes[at] ^= 1 << bit;
            let _ = sys.restore(&bytes);
        }
    }
}
