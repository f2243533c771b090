//! Ablation: LDT capacity sweep (the paper uses 32 entries).
//!
//! The lockdown table bounds how many M-speculative loads may be
//! committed out of order at once; when it fills, relaxed commit stops
//! (Section 4.2). This sweep shows performance saturating well below the
//! paper's 32 entries — the design point is conservative.

use wb_bench::{eval_config, geomean, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    println!("LDT capacity sweep, OoO+WB on SLM-class, speedup over in-order commit\n");
    // Baseline: in-order.
    let mut base = Vec::new();
    for w in suite(16, Scale::Test) {
        base.push(run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, false)).report.cycles);
    }
    for ldt in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut speedups = Vec::new();
        let mut exports = 0u64;
        for (i, w) in suite(16, Scale::Test).into_iter().enumerate() {
            let mut cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
            cfg.core.ldt_entries = ldt;
            let r = run_one(&w, cfg);
            speedups.push(base[i] as f64 / r.report.cycles as f64);
            exports += r.report.ooo_load_commits();
        }
        println!(
            "LDT={ldt:<3} geomean speedup {:+.2}%   ooo-committed loads {exports}",
            (geomean(&speedups) - 1.0) * 100.0
        );
    }
}
