//! Soft-error torture: the full stored-state bit-flip matrix (cache
//! state/tag scrambles, directory state and sharer-set flips, MSHR
//! strikes, mixed background radiation) across all five protocol/commit
//! arms.
//!
//! Soft errors land *inside* the coherence protocol's own books, so no
//! layer below can hide them. The guard-hash detectors plus the repair
//! path (and the periodic audit scrub backstop) must catch every flip
//! before it becomes architecturally visible: each run drains, passes
//! the axiomatic TSO checker, finishes with a clean final audit, and
//! accounts for every injected flip (`soft_silent == 0`).

use wb_kernel::config::{CommitMode, CoreClass, ProtocolKind, SystemConfig, ARMS};
use wb_kernel::soft::SoftPlan;
use wb_workloads::torture;
use writersblock::System;

/// Four SLM cores on one arm, jitter 25.
fn config(protocol: ProtocolKind, mode: CommitMode, seed: u64) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(mode)
        .with_protocol(protocol)
        .with_seed(seed)
        .with_jitter(25)
}

/// Run one (plan, protocol, mode) cell through `System::verify` —
/// drained, final audit clean after its scrub, every flip accounted
/// for, TSO-green; returns `(stats, injected)`.
fn run_cell(
    plan: &SoftPlan,
    protocol: ProtocolKind,
    mode: CommitMode,
    ops: usize,
) -> (wb_kernel::Stats, u64) {
    let seed = 7u64;
    // Matrix rates are soak-tuned (thousands of cycles between strikes);
    // these cells run a few thousand cycles total, so accelerate 20x to
    // land a real barrage in every cell.
    let cfg = config(protocol, mode, seed).with_soft(plan.clone().accelerated(20));
    let mut sys = System::new(cfg, &torture::workload(4, seed, ops));
    sys.verify(8_000_000).assert_pass("soft-torture cell");
    (sys.report().stats, sys.soft_injected().0)
}

/// Every soft plan in the standard matrix x the five protocol/commit
/// arms: each cell must drain, audit clean, account for every flip
/// and stay TSO-correct — and the matrix as a whole must show real
/// injection and detection work (flips landing in every structure
/// class, detect-latency histograms populated).
#[test]
fn soft_torture_matrix() {
    let plans = SoftPlan::matrix();
    assert!(plans.len() >= 6, "matrix shrank to {} plans", plans.len());
    let jobs: Vec<(SoftPlan, ProtocolKind, CommitMode)> =
        plans.iter().flat_map(|p| ARMS.map(|(_, pr, m)| (p.clone(), pr, m))).collect();
    let results = wb_bench::sweep::run(jobs.clone(), |(plan, protocol, mode)| {
        run_cell(&plan, protocol, mode, 25)
    });
    let mut injected_total = 0u64;
    let mut detected_total = 0u64;
    let mut latency_cells = 0usize;
    for ((plan, protocol, mode), (stats, injected)) in jobs.iter().zip(&results) {
        injected_total += injected;
        detected_total += stats.get("soft_detected");
        if stats.hist("soft_detect_latency").is_some_and(|h| h.count() > 0) {
            latency_cells += 1;
        }
        if !plan.is_none() {
            assert!(
                stats.get("audit_runs") > 0,
                "plan {plan} {protocol:?} {mode:?}: periodic audit never ran"
            );
        }
    }
    assert!(injected_total > 0, "no plan in the matrix ever landed a flip");
    assert!(detected_total > 0, "flips landed but none were ever detected");
    assert!(latency_cells > 0, "soft_detect_latency never populated");
}

/// 200-op programs that once failed under soft errors; each must pass.
///
/// Under background radiation at 20x, one per arm: a corrupted directory
/// entry was rebuilt from which caches still held a copy, so a cache
/// that had silently dropped its copy while its core still held a load
/// bound to the line missed the next invalidation, and the load
/// committed a stale value. The purge that replaced the rebuild
/// invalidates every core.
///
/// Under a cache-state storm at 100x, on the WritersBlock arms: a
/// corrupted E/M line was repaired by writing it back (a PutM), which
/// skipped the pin that keeps a line with M-speculative loads in the
/// cache (§3.8), and the core was not told the line left. The run then
/// failed the TSO check (`TsoViolation`) or faulted when a forward found
/// no owner. The line is now restored in place.
#[test]
fn purge_known_failures_by_arm() {
    let radiation = SoftPlan::background_radiation().accelerated(20);
    let storm = SoftPlan::cache_state_storm().accelerated(100);
    let cells = vec![
        ("mesi-inorder", 321, radiation.clone()),
        ("mesi-ooo", 47, radiation.clone()),
        ("wb-inorder", 22, radiation.clone()),
        ("wb-ooo", 26, radiation.clone()),
        ("wb-ecl", 73, radiation),
        ("wb-inorder", 54, storm.clone()),
        ("wb-ooo", 40, storm.clone()),
        ("wb-ecl", 24, storm),
    ];
    wb_bench::sweep::run(cells, |(arm, seed, plan)| {
        let (protocol, mode) = wb_kernel::config::arm(arm).expect("a config::ARMS name");
        let cfg = config(protocol, mode, seed).with_soft(plan);
        let w = torture::workload(4, seed, 200);
        System::new(cfg, &w).verify(8_000_000).assert_pass(&format!("{} on {arm}", w.name));
    });
}

/// Heavy radiation on the paper's own configuration — the WritersBlock
/// protocol with out-of-order commit — must still audit clean and stay
/// TSO-green, with both cache-side and directory-side recovery visible.
#[test]
fn soft_torture_background_radiation_on_wb() {
    let plan = SoftPlan::background_radiation();
    let (stats, injected) =
        run_cell(&plan, ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 40);
    assert!(injected > 0, "background radiation never landed a flip");
    assert!(
        stats.get("soft_detected") + stats.get("soft_masked") >= injected,
        "every flip must be detected or masked: {} injected, {} detected, {} masked",
        injected,
        stats.get("soft_detected"),
        stats.get("soft_masked"),
    );
}

/// Soft-error and audit work flows through the interval telemetry: a
/// timeline-sampled soft run attributes detections to the windows in
/// which they happened, and the window deltas sum to the run totals.
#[test]
fn soft_counters_appear_in_timeline_deltas() {
    let cfg = config(ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 11)
        .with_soft(SoftPlan::background_radiation().accelerated(20));
    let mut sys = System::new(cfg, &torture::workload(4, 11, 40));
    sys.enable_timeline(500);
    sys.verify(8_000_000).assert_pass("soft-timeline");
    let totals = sys.report().stats;
    assert!(totals.get("soft_detected") > 0, "no detections to attribute");
    // Close a final partial window at the current cycle (the audit's
    // own scrub detections land after the last periodic flush), the
    // same way `timeline_jsonl` seals the ring.
    let mut tl = sys.timeline().expect("timeline enabled").clone();
    tl.flush(sys.now(), &totals);
    let sum = |k: &str| tl.windows().map(|win| win.delta.get(k)).sum::<u64>();
    for k in ["soft_injected", "soft_detected", "soft_recovered"] {
        assert_eq!(sum(k), totals.get(k), "window deltas of {k} must sum to the run total");
    }
    assert!(
        tl.windows().filter(|win| win.delta.get("soft_detected") > 0).count() > 0,
        "no window carries a detection delta"
    );
}

/// `SoftPlan::none()` is a true no-op: installing the empty plan turns
/// the guard machinery on but schedules no strikes, and the run's
/// observable behaviour (outcome, cycle, stats minus the audit's own
/// bookkeeping) matches a `soft: None` build cycle for cycle.
#[test]
fn empty_soft_plan_changes_nothing() {
    let w = torture::workload(4, 9, 30);
    let cfg = config(ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 9);
    let mut base = System::new(cfg.clone(), &w);
    let mut soft = System::new(cfg.with_soft(SoftPlan::none()), &w);
    let b_out = base.run(8_000_000);
    let s_out = soft.run(8_000_000);
    assert_eq!(b_out, s_out, "empty soft plan changed the outcome");
    assert_eq!(base.now(), soft.now(), "empty soft plan changed the final cycle");
    assert_eq!(
        base.report().stats.to_json(),
        soft.report().stats.to_json(),
        "empty soft plan perturbed the stats"
    );
    assert_eq!(soft.soft_injected(), (0, 0));
    soft.judge(s_out).assert_pass("soft-none");
}
