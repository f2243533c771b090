//! The paper's trends, asserted on the committed `results/` tables.
//!
//! `scripts/verify.sh` proves the tables are what this build prints;
//! these tests prove the tables still say what EXPERIMENTS.md claims in
//! prose, so regenerating and committing them cannot quietly bless a
//! broken paper claim. Tables 1–3 need nothing here: the litmus runner
//! already fails on a forbidden outcome.

use std::path::Path;

fn table(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The signed percentages (`+12.3%`, `-0.9%,`) on the line of `text`
/// that starts with `prefix`, in order.
fn percents(text: &str, prefix: &str) -> Vec<f64> {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?}"));
    line.split_whitespace()
        .filter_map(|w| w.trim_end_matches(',').strip_suffix('%'))
        .map(|n| n.parse().unwrap_or_else(|e| panic!("{n:?} in {line:?}: {e}")))
        .collect()
}

#[test]
fn fig10_writersblock_beats_plain_ooo_commit_on_slm() {
    for name in ["fig10_ooo_commit.txt", "fig10_small.txt"] {
        let t = table(name);
        let wb_over_ooo = percents(&t, "OoO+WB over OoO")[0];
        let ooo_over_inorder = percents(&t, "OoO    over InOrder")[0];
        assert!(wb_over_ooo > 0.0, "{name}: OoO+WB over OoO {wb_over_ooo}%");
        assert!(
            wb_over_ooo > ooo_over_inorder,
            "{name}: OoO+WB over OoO {wb_over_ooo}% vs OoO over InOrder {ooo_over_inorder}%"
        );
    }
}

#[test]
fn collapsible_lq_beats_fifo() {
    let t = table("ablation_collapsible_lq.txt");
    let collapsible = percents(&t, "collapsible LQ")[0];
    let fifo = percents(&t, "FIFO LQ")[0];
    assert!(collapsible > fifo, "collapsible {collapsible}% vs FIFO {fifo}%");
}

#[test]
fn fig9_writersblock_overhead_is_small() {
    let geomeans = percents(&table("fig9_overheads.txt"), "geomean:");
    assert_eq!(geomeans.len(), 2, "time and traffic geomeans");
    for g in geomeans {
        assert!(g.abs() < 5.0, "fig 9 geomean {g}% outside ±5%");
    }
}

#[test]
fn ldt_gain_saturates_by_32_entries() {
    let t = table("ablation_ldt.txt");
    let (ldt32, ldt64) = (percents(&t, "LDT=32 ")[0], percents(&t, "LDT=64 ")[0]);
    assert!((ldt64 - ldt32).abs() < 1.0, "LDT=32 {ldt32}% vs LDT=64 {ldt64}%");
}
