//! Ablation: LDT capacity sweep (the paper uses 32 entries).
//!
//! The lockdown table bounds how many M-speculative loads may be
//! committed out of order at once; when it fills, relaxed commit stops
//! (Section 4.2). This sweep shows performance saturating well below the
//! paper's 32 entries — the design point is conservative.

use wb_bench::{eval_config, run_suite, speedup_pct};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

const LDTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn main() {
    println!("LDT capacity sweep, OoO+WB on SLM-class, speedup over in-order commit\n");
    // Column 0 is the in-order baseline, then one column per LDT size.
    let mut configs = vec![eval_config(CoreClass::Slm, "mesi-inorder")];
    configs.extend(LDTS.map(|ldt| {
        let mut cfg = eval_config(CoreClass::Slm, "wb-ooo");
        cfg.core.ldt_entries = ldt;
        cfg
    }));
    let rows = run_suite(Scale::Test, &configs);
    for (i, ldt) in LDTS.into_iter().enumerate() {
        let exports: u64 = rows.iter().map(|row| row[i + 1].ooo_load_commits()).sum();
        println!(
            "LDT={ldt:<3} geomean speedup {:+.2}%   ooo-committed loads {exports}",
            speedup_pct(&rows, 0, i + 1)
        );
    }
}
