//! Ablation: commit width and commit depth (Section 4.1 discusses the
//! Bell-Lipasti design space; the paper uses depth = ROB size).

use wb_bench::{eval_config, run_suite, speedup_pct};
use wb_kernel::config::{CoreClass, CoreConfig, SystemConfig};
use wb_workloads::Scale;

const DEPTHS: [usize; 5] = [1, 4, 8, 16, 32];
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The SLM-class OoO+WB configuration with one core parameter set.
fn wb_ooo(set: impl FnOnce(&mut CoreConfig)) -> SystemConfig {
    let mut cfg = eval_config(CoreClass::Slm, "wb-ooo");
    set(&mut cfg.core);
    cfg
}

fn main() {
    // Column 0 is the in-order baseline; then the depth sweep, the two
    // prefetch points and the width sweep.
    let mut configs = vec![eval_config(CoreClass::Slm, "mesi-inorder")];
    configs.extend(DEPTHS.map(|depth| wb_ooo(|c| c.commit_depth = depth)));
    configs.extend([false, true].map(|at| wb_ooo(|c| c.write_prefetch_at_resolve = at)));
    configs.extend(WIDTHS.map(|width| wb_ooo(|c| c.width = width)));
    let rows = run_suite(Scale::Test, &configs);
    let mut col = 0;
    let mut next_pct = || {
        col += 1;
        speedup_pct(&rows, 0, col)
    };

    println!("Commit-depth sweep (OoO+WB, SLM-class, width 4), speedup over in-order:\n");
    for depth in DEPTHS {
        println!("depth={depth:<3} geomean speedup {:+.2}%", next_pct());
    }
    println!("\nWrite-permission prefetch timing (OoO+WB):\n");
    for label in ["prefetch at SB entry", "prefetch at addr-resolve"] {
        println!("{label:<26} geomean speedup {:+.2}%", next_pct());
    }
    println!("\nCommit-width sweep (depth = ROB):\n");
    for width in WIDTHS {
        println!("width={width:<3} geomean speedup {:+.2}%", next_pct());
    }
}
