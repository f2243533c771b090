//! Figure 10: commit-policy comparison on the SLM-class core.
//!
//! Top panel: per-core stall-cycle breakdown (ROB / LQ / SQ full) for
//! in-order commit, safe out-of-order commit, and out-of-order commit
//! with WritersBlock. Bottom panel: normalized execution time. Also
//! prints the paper's headline numbers (improvement of OoO+WB over
//! in-order and over plain OoO).
//!
//! Run with `--small` for the full evaluation size (slower); default is
//! the quick Test scale. `--class NHM` / `--class HSW` (any case) switch
//! the core class (the paper's Figure 10 uses SLM); any other class name
//! is an error.

use wb_bench::{eval_config, render_table, run_suite, speedup_pct};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") { Scale::Small } else { Scale::Test };
    let class = match args.iter().position(|a| a == "--class") {
        None => CoreClass::Slm,
        Some(i) => CoreClass::parse(args.get(i + 1).map_or("", String::as_str)).unwrap_or_else(|e| {
            eprintln!("fig10_ooo_commit: {e} (expected SLM, NHM or HSW)");
            std::process::exit(2);
        }),
    };
    println!("core class: {}\n", class.label());
    let configs = ["mesi-inorder", "mesi-ooo", "wb-ooo"].map(|arm| eval_config(class, arm));
    let rows = run_suite(scale, &configs);

    let mut stall_rows = Vec::new();
    let mut time_rows = Vec::new();
    for row in &rows {
        let stalls = row.iter().map(|r| {
            let (rob, lq, sq) = r.stall_fractions();
            format!("{:.0}/{:.0}/{:.0}", rob * 100.0, lq * 100.0, sq * 100.0)
        });
        let base = row[0].cycles as f64;
        stall_rows.push((row[0].name.clone(), stalls.collect()));
        time_rows.push((
            row[0].name.clone(),
            row.iter().map(|r| format!("{:.3}", r.cycles as f64 / base)).collect(),
        ));
    }

    println!(
        "{}",
        render_table(
            "Figure 10 (top): stall cycles % of total, rob/lq/sq",
            &["InOrder", "OoO", "OoO+WB"],
            &stall_rows
        )
    );
    println!(
        "{}",
        render_table(
            "Figure 10 (bottom): normalized execution time (InOrder = 1.0)",
            &["InOrder", "OoO", "OoO+WB"],
            &time_rows
        )
    );

    let max_pct = |base: usize, col: usize| {
        let speedups = rows.iter().map(|r| r[base].cycles as f64 / r[col].cycles as f64);
        let max = speedups.fold(f64::MIN, f64::max);
        (max - 1.0) * 100.0
    };
    println!("== Headline (paper: 15.4% avg / 41.9% max over in-order; 10.2% avg / 28.3% max over OoO) ==");
    println!(
        "OoO+WB over InOrder : {:+.1}% avg, {:+.1}% max",
        speedup_pct(&rows, 0, 2),
        max_pct(0, 2)
    );
    println!("OoO    over InOrder : {:+.1}% avg", speedup_pct(&rows, 0, 1));
    println!(
        "OoO+WB over OoO     : {:+.1}% avg, {:+.1}% max",
        speedup_pct(&rows, 1, 2),
        max_pct(1, 2)
    );
}
