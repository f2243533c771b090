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

use wb_bench::campaign::{cells, CampaignSpec, Cell};
use wb_integration::{specs, REGRESSIONS};
use wb_kernel::config::ARMS;
use wb_kernel::soft::SoftPlan;
use wb_kernel::Stats;

/// A spec of the soft-torture machine — four SLM cores, jitter 25,
/// Dense, 8M cycles — with `keys`.
fn spec(keys: &str) -> CampaignSpec {
    let src = format!(r#"{{"engine":"dense","jitter":25,"budget":8000000,{keys}}}"#);
    CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// Every cell of `spec(keys)` through `System::verify` — drained, final
/// audit clean after its scrub, every flip accounted for, TSO-green —
/// with its stats and injected flips.
fn verified(keys: &str) -> Vec<(Cell, Stats, u64)> {
    let spec = spec(keys);
    wb_bench::sweep::run(cells(&spec), |c| {
        let mut sys = spec.system(&c);
        sys.verify(c.budget).assert_pass(&c.id);
        let (stats, injected) = (sys.report().stats, sys.soft_injected().0);
        (c, stats, injected)
    })
}

/// Every soft plan in the standard matrix x the five protocol/commit
/// arms: each cell must drain, audit clean, account for every flip
/// and stay TSO-correct — and the matrix as a whole must show real
/// injection and detection work (flips landing in every structure
/// class, detect-latency histograms populated).
#[test]
fn soft_torture_matrix() {
    // Matrix rates are soak-tuned (thousands of cycles between strikes);
    // these cells run a few thousand cycles total, so accelerate 20x to
    // land a real barrage in every cell.
    let softs: Vec<String> = SoftPlan::MATRIX.iter().map(|(name, _)| format!("\"{name}-x20\"")).collect();
    assert!(softs.len() >= 6, "matrix shrank to {} plans", softs.len());
    let arms: Vec<String> = ARMS.iter().map(|(name, ..)| format!("{name:?}")).collect();
    let results = verified(&format!(
        r#""workloads":["torture/25x6"],"arms":[{}],"softs":[{}],"seeds":[7]"#,
        arms.join(","),
        softs.join(",")
    ));
    let mut injected_total = 0u64;
    let mut detected_total = 0u64;
    let mut latency_cells = 0usize;
    for (cell, stats, injected) in &results {
        injected_total += injected;
        detected_total += stats.get("soft_detected");
        if stats.hist("soft_detect_latency").is_some_and(|h| h.count() > 0) {
            latency_cells += 1;
        }
        if cell.soft != "none-x20" {
            assert!(stats.get("audit_runs") > 0, "{}: periodic audit never ran", cell.id);
        }
    }
    assert!(injected_total > 0, "no plan in the matrix ever landed a flip");
    assert!(detected_total > 0, "flips landed but none were ever detected");
    assert!(latency_cells > 0, "soft_detect_latency never populated");
}

/// Heavy radiation on the paper's own configuration — the WritersBlock
/// protocol with out-of-order commit — must still audit clean and stay
/// TSO-green, with both cache-side and directory-side recovery visible.
#[test]
fn soft_torture_background_radiation_on_wb() {
    let cells = verified(r#""workloads":["torture/40x6"],"softs":["background-radiation-x20"],"seeds":[7]"#);
    let [(_, stats, injected)] = &cells[..] else { panic!("one cell") };
    let injected = *injected;
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
    let spec = spec(r#""workloads":["torture/40x6"],"softs":["background-radiation-x20"],"seeds":[11]"#);
    let cell = &cells(&spec)[0];
    let mut sys = spec.system(cell);
    sys.enable_timeline(500);
    sys.verify(cell.budget).assert_pass(&cell.id);
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

/// 200-op programs that once failed under soft errors, one per arm under
/// background radiation at 20x and three under a cache-state storm at
/// 100x: the soft-error lines of `campaigns/regressions.jsonl`
/// (EXPERIMENTS.md "Soft errors" has the two bugs, a directory rebuild
/// that missed a silently dropped copy and an E/M repair by PutM that
/// skipped the §3.8 pin). Each must drain, audit clean and pass the TSO
/// check.
#[test]
fn purge_known_failures_by_arm() {
    let specs = specs(REGRESSIONS, |s| s.softs != ["off"]);
    assert_eq!(specs.len(), 8);
    let jobs: Vec<_> = specs.into_iter().flat_map(|s| cells(&s).into_iter().map(move |c| (s.clone(), c))).collect();
    wb_bench::sweep::run(jobs, |(spec, c)| spec.system(&c).verify(c.budget).assert_pass(&c.id));
}

/// `SoftPlan::none()` is a true no-op: installing the empty plan turns
/// the guard machinery on but schedules no strikes, and the run's
/// observable behaviour (outcome, cycle, stats minus the audit's own
/// bookkeeping) matches a `soft: None` build cycle for cycle.
#[test]
fn empty_soft_plan_changes_nothing() {
    let spec = spec(r#""workloads":["torture/30x6"],"softs":["off","none"],"seeds":[9]"#);
    let cs = cells(&spec);
    let (mut base, mut soft) = (spec.system(&cs[0]), spec.system(&cs[1]));
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
