//! Ablation: collapsible vs. non-collapsible (FIFO) load queue
//! (Section 4.2 / footnote 8 of the paper).
//!
//! With a FIFO LQ, loads committed out of order keep occupying their
//! entry (holding their own lockdown, footnote 10) until they drain from
//! the head, so the *effective* LQ size is smaller — the paper prefers
//! the collapsible design for exactly this reason.

use wb_bench::{eval_config, geomean, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    println!("Collapsible vs FIFO LQ (OoO+WB, SLM-class), speedup over in-order:\n");
    let mut base = Vec::new();
    for w in suite(16, Scale::Test) {
        base.push(run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, false)).report.cycles);
    }
    for collapsible in [true, false] {
        let mut speedups = Vec::new();
        for (i, w) in suite(16, Scale::Test).into_iter().enumerate() {
            let mut cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
            cfg.core.collapsible_lq = collapsible;
            let r = run_one(&w, cfg);
            speedups.push(base[i] as f64 / r.report.cycles as f64);
        }
        println!(
            "{:<22} geomean speedup {:+.2}%",
            if collapsible { "collapsible LQ (paper)" } else { "FIFO LQ" },
            (geomean(&speedups) - 1.0) * 100.0
        );
    }
    println!("\nThe collapsible LQ frees entries of OoO-committed loads (via the LDT),");
    println!("raising the effective LQ size — footnote 8's argument.");
}
