//! Ablation: collapsible vs. non-collapsible (FIFO) load queue
//! (Section 4.2 / footnote 8 of the paper).
//!
//! With a FIFO LQ, loads committed out of order keep occupying their
//! entry (holding their own lockdown, footnote 10) until they drain from
//! the head, so the *effective* LQ size is smaller — the paper prefers
//! the collapsible design for exactly this reason.

use wb_bench::{eval_config, run_suite, speedup_pct};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

fn main() {
    println!("Collapsible vs FIFO LQ (OoO+WB, SLM-class), speedup over in-order:\n");
    let variants = [(true, "collapsible LQ (paper)"), (false, "FIFO LQ")];
    let mut configs = vec![eval_config(CoreClass::Slm, "mesi-inorder")];
    configs.extend(variants.map(|(collapsible, _)| {
        let mut cfg = eval_config(CoreClass::Slm, "wb-ooo");
        cfg.core.collapsible_lq = collapsible;
        cfg
    }));
    let rows = run_suite(Scale::Test, &configs);
    for (i, (_, label)) in variants.into_iter().enumerate() {
        println!("{label:<22} geomean speedup {:+.2}%", speedup_pct(&rows, 0, i + 1));
    }
    println!("\nThe collapsible LQ frees entries of OoO-committed loads (via the LDT),");
    println!("raising the effective LQ size — footnote 8's argument.");
}
