//! Fault torture: the full link-fault matrix (drops, duplicates,
//! corruptions, lossy links, mixed misery — plus combined chaos+fault
//! cells) across all five protocol/commit arms.
//!
//! Link faults are *below* the coherence protocol: the reliable
//! sublayer must hide them completely, so every run still drains,
//! audits clean and passes the axiomatic TSO checker. A failing
//! verdict prints the cell's reproducer, plan included.

use wb_bench::campaign::{cells, CampaignSpec, Cell};
use wb_kernel::config::{CommitMode, CoreClass, ProtocolKind, SystemConfig, ARMS};
use wb_kernel::fault::FaultPlan;
use wb_kernel::Stats;
use wb_workloads::torture;
use writersblock::{Failure, System};

/// Every cell of a spec of four SLM cores, jitter 25, Dense, 8M cycles
/// with `keys`, through `System::verify` — drained, audit clean,
/// TSO-green — with the run's merged stats for assertions.
fn verified(keys: &str) -> Vec<(Cell, Stats)> {
    let src = format!(r#"{{"engine":"dense","jitter":25,"budget":8000000,"seeds":[7],{keys}}}"#);
    let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
    wb_bench::sweep::run(cells(&spec), |c| {
        let mut sys = spec.system(&c);
        sys.verify(c.budget).assert_pass(&c.id);
        (c, sys.report().stats)
    })
}

/// The five arms as a spec list.
fn all_arms() -> String {
    ARMS.iter().map(|(name, ..)| format!("{name:?}")).collect::<Vec<_>>().join(",")
}

/// Every fault plan in the standard matrix x the five protocol/commit
/// arms: each cell must drain and stay TSO-correct, and at least one
/// lossy cell must show actual recovery work (retransmission latency
/// and per-frame retry-count histograms populated).
#[test]
fn fault_torture_matrix() {
    let faults: Vec<String> = FaultPlan::MATRIX.iter().map(|(name, _)| format!("{name:?}")).collect();
    assert!(faults.len() >= 6, "matrix shrank to {} plans", faults.len());
    let results = verified(&format!(
        r#""workloads":["torture/25x6"],"arms":[{}],"faults":[{}]"#,
        all_arms(),
        faults.join(",")
    ));
    let mut retx_seen = 0u64;
    let mut retx_hist_cells = 0usize;
    for (cell, stats) in &results {
        retx_seen += stats.get("link_retx");
        let cycles_populated = stats.hist("link_retx_cycles").is_some_and(|h| h.count() > 0);
        let count_populated = stats.hist("link_retx_count").is_some_and(|h| h.count() > 0);
        assert_eq!(cycles_populated, count_populated, "{}: retx histograms out of sync", cell.id);
        if cycles_populated {
            retx_hist_cells += 1;
        }
    }
    assert!(retx_seen > 0, "no plan in the matrix ever forced a retransmission");
    assert!(retx_hist_cells > 0, "link_retx_cycles/link_retx_count never populated");
}

/// Heavy loss (10% everywhere) on the paper's own configuration — the
/// WritersBlock protocol with out-of-order commit — must still be
/// TSO-green with visible recovery traffic.
#[test]
fn fault_torture_ten_percent_drop() {
    let cells = verified(r#""workloads":["torture/30x6"],"faults":["drop-1-10"]"#);
    let [(_, stats)] = &cells[..] else { panic!("one cell") };
    assert!(stats.get("link_drops") > 0, "1/10 drop never fired");
    assert!(stats.get("link_retx") > 0, "drops at 10% must force retransmissions");
    assert!(stats.hist("link_retx_cycles").is_some_and(|h| h.count() > 0));
}

/// The watchdog near-miss: a retransmission RTO *longer* than the
/// fault-free stall window must not be misread as a wedge. The window
/// is widened 4x while a fault plan is installed, and the run completes
/// (with real retransmissions); a configured window a quarter the size,
/// whose widened value is that raw 2500 cycles, trips the watchdog on
/// the very same run — proving the widening is what prevents the
/// misclassification.
#[test]
fn watchdog_near_miss_scaled_window_rides_out_retransmissions() {
    let seed = 11u64;
    let w = torture::workload(2, seed, 15);
    let build = |stall_window: u64| {
        let mut cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(2)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(seed)
            .with_jitter(25)
            .with_fault(FaultPlan::drop_everywhere(1, 12));
        // One lost frame costs a 4000-cycle retransmission round trip —
        // longer than the raw 2500-cycle stall window. No backoff
        // (rto_max == rto_min) so consecutive losses stay under the
        // widened window.
        cfg.network.link.rto_min = 4000;
        cfg.network.link.rto_max = 4000;
        cfg.stall_window = stall_window;
        System::new(cfg, &w)
    };

    // 2500 widened x4 -> effective 10_000: rides out the RTO.
    let mut sys = build(2500);
    assert_eq!(sys.config().effective_stall_window(), 10_000);
    sys.verify(8_000_000).assert_pass("scaled window must ride out retransmissions");
    let stats = sys.report().stats;
    assert!(stats.get("link_retx") > 0, "the near-miss needs a real retransmission stall");

    // An effective 2500: the same seed, plan and workload is misread as a wedge.
    let mut sys = build(625);
    assert_eq!(sys.config().effective_stall_window(), 2500);
    let v = sys.verify(8_000_000);
    assert!(
        matches!(v.failure(), Some(Failure::Wedge(_))),
        "a 2500-cycle effective window must be tripped by the 4000-cycle RTO, got: {v}"
    );
}

/// Combined chaos+fault cells: timing chaos above the link layer and
/// loss/duplication/corruption below it, at once, on every combo.
#[test]
fn fault_torture_combined_with_chaos() {
    for (chaos, fault) in [("reorder-amplify", "mixed-misery"), ("response-storm", "drop-1-20")] {
        let keys = format!(r#""workloads":["torture/20x6"],"arms":[{}],"chaos":["{chaos}"],"faults":["{fault}"]"#, all_arms());
        for (cell, stats) in verified(&keys) {
            assert!(stats.get("mesh_chaos_msgs") > 0, "{}: chaos never fired", cell.id);
        }
    }
}
