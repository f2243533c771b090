//! Commit-policy shoot-out: run one SPLASH surrogate on all three commit
//! policies and print the cycle counts, stall breakdowns and the
//! WritersBlock activity counters — a miniature Figure 10.
//!
//! ```text
//! cargo run -p wb-examples --bin commit_policies --release [bench-name]
//! ```

use wb_workloads::Scale;
use writersblock::prelude::*;
use writersblock::System;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ocean".to_string());
    let workload = wb_workloads::by_name(&which, 16, Scale::Test)
        .unwrap_or_else(|| panic!("unknown benchmark '{which}'; try one of {:?}", wb_workloads::suite_names()));

    println!("benchmark: {which}, 16 SLM-class cores\n");
    let mut base = 0u64;
    for mode in [CommitMode::InOrder, CommitMode::OutOfOrder, CommitMode::OutOfOrderWb] {
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(16)
            .with_commit(mode)
            .without_event_log();
        let mut sys = System::new(cfg, &workload);
        let outcome = sys.run(100_000_000);
        assert_eq!(outcome, RunOutcome::Done);
        let r = sys.report();
        if mode == CommitMode::InOrder {
            base = r.cycles;
        }
        let (rob, lq, sq) = r.stall_fractions();
        println!(
            "{:<8} {:>8} cycles  (x{:.3} vs in-order)   stalls rob/lq/sq {:>4.0}%/{:>3.0}%/{:>3.0}%",
            mode.label(),
            r.cycles,
            base as f64 / r.cycles as f64,
            rob * 100.0,
            lq * 100.0,
            sq * 100.0
        );
        if mode == CommitMode::OutOfOrderWb {
            println!(
                "\nWritersBlock activity: {} loads committed out-of-order, {} lockdowns seen,",
                r.ooo_load_commits(),
                r.stats.get("core_lockdowns_seen")
            );
            println!(
                "{} writes blocked, {} tear-off reads, {} invalidation squashes",
                r.stats.get("dir_writes_blocked"),
                r.stats.get("dir_tearoff_replies"),
                r.inval_squashes()
            );
        }
    }
}
