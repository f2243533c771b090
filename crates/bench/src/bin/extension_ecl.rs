//! Extension: early commit of loads (ECL) on an in-order-commit core —
//! the paper's Section 1 motivation (DEC Alpha 21164 stall-on-use, DeSC
//! decoupling). WritersBlock makes the irrevocably bound loads safe; this
//! binary measures what that buys an in-order-commit machine.

use wb_bench::{eval_config, geomean, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    println!("ECL extension (SLM-class, 16 cores): speedup over plain in-order commit\n");
    println!("{:<14} {:>9} {:>9} {:>8} {:>10}", "bench", "inorder", "ecl+wb", "speedup", "early-cmts");
    let mut speedups = Vec::new();
    for w in suite(16, Scale::Test) {
        let base = run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, false));
        let ecl = run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrderEcl, false));
        let sp = base.report.cycles as f64 / ecl.report.cycles as f64;
        speedups.push(sp);
        println!(
            "{:<14} {:>9} {:>9} {:>7.3}x {:>10}",
            w.name,
            base.report.cycles,
            ecl.report.cycles,
            sp,
            ecl.report.stats.get("core_ecl_loads_committed"),
        );
    }
    println!("\ngeomean speedup: {:+.2}%", (geomean(&speedups) - 1.0) * 100.0);
    println!("(the paper's OoO-commit result generalizes: early irrevocable binding of loads");
    println!("helps any core that would otherwise stall — Section 1's ECL/DeSC cases)");
}
