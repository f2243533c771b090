//! Ablation: commit width and commit depth (Section 4.1 discusses the
//! Bell-Lipasti design space; the paper uses depth = ROB size).

use wb_bench::{eval_config, geomean, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    let mut base = Vec::new();
    for w in suite(16, Scale::Test) {
        base.push(run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, false)).report.cycles);
    }
    println!("Commit-depth sweep (OoO+WB, SLM-class, width 4), speedup over in-order:\n");
    for depth in [1usize, 4, 8, 16, 32] {
        let mut speedups = Vec::new();
        for (i, w) in suite(16, Scale::Test).into_iter().enumerate() {
            let mut cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
            cfg.core.commit_depth = depth;
            let r = run_one(&w, cfg);
            speedups.push(base[i] as f64 / r.report.cycles as f64);
        }
        println!("depth={depth:<3} geomean speedup {:+.2}%", (geomean(&speedups) - 1.0) * 100.0);
    }
    println!("\nWrite-permission prefetch timing (OoO+WB):\n");
    for at_resolve in [false, true] {
        let mut speedups = Vec::new();
        for (i, w) in suite(16, Scale::Test).into_iter().enumerate() {
            let mut cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
            cfg.core.write_prefetch_at_resolve = at_resolve;
            let r = run_one(&w, cfg);
            speedups.push(base[i] as f64 / r.report.cycles as f64);
        }
        println!(
            "{:<26} geomean speedup {:+.2}%",
            if at_resolve { "prefetch at addr-resolve" } else { "prefetch at SB entry" },
            (geomean(&speedups) - 1.0) * 100.0
        );
    }

    println!("\nCommit-width sweep (depth = ROB):\n");
    for width in [1usize, 2, 4, 8] {
        let mut speedups = Vec::new();
        for (i, w) in suite(16, Scale::Test).into_iter().enumerate() {
            let mut cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
            cfg.core.width = width;
            let r = run_one(&w, cfg);
            speedups.push(base[i] as f64 / r.report.cycles as f64);
        }
        println!("width={width:<3} geomean speedup {:+.2}%", (geomean(&speedups) - 1.0) * 100.0);
    }
}
