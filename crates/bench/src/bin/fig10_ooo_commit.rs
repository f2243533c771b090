//! Figure 10: commit-policy comparison on the SLM-class core.
//!
//! Top panel: per-core stall-cycle breakdown (ROB / LQ / SQ full) for
//! in-order commit, safe out-of-order commit, and out-of-order commit
//! with WritersBlock. Bottom panel: normalized execution time. Also
//! prints the paper's headline numbers (improvement of OoO+WB over
//! in-order and over plain OoO).
//!
//! Run with `--small` for the full evaluation size (slower); default is
//! the quick Test scale. `--class NHM` / `--class HSW` switch the core
//! class (the paper's Figure 10 uses SLM).

use wb_bench::{eval_config, geomean, render_table, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--small") { Scale::Small } else { Scale::Test };
    let class = match args.iter().position(|a| a == "--class").and_then(|i| args.get(i + 1)) {
        Some(c) if c.eq_ignore_ascii_case("nhm") => CoreClass::Nhm,
        Some(c) if c.eq_ignore_ascii_case("hsw") => CoreClass::Hsw,
        _ => CoreClass::Slm,
    };
    println!("core class: {}\n", class.label());
    let modes = [CommitMode::InOrder, CommitMode::OutOfOrder, CommitMode::OutOfOrderWb];

    let mut stall_rows = Vec::new();
    let mut time_rows = Vec::new();
    let mut sp_ooo = Vec::new();
    let mut sp_wb = Vec::new();
    let mut sp_wb_over_ooo = Vec::new();

    // One independent simulation per (workload, mode): run in parallel.
    let jobs: Vec<(wb_isa::Workload, CommitMode)> = suite(16, scale)
        .into_iter()
        .flat_map(|w| modes.into_iter().map(move |m| (w.clone(), m)))
        .collect();
    let results = wb_bench::sweep::run(jobs, |(w, mode)| run_one(&w, eval_config(class, mode, false)));
    for chunk in results.chunks(modes.len()) {
        let w_name = chunk[0].bench.clone();
        let mut cycles = Vec::new();
        let mut stalls = Vec::new();
        for r in chunk {
            let (rob, lq, sq) = r.report.stall_fractions();
            stalls.push(format!("{:.0}/{:.0}/{:.0}", rob * 100.0, lq * 100.0, sq * 100.0));
            cycles.push(r.report.cycles);
        }
        let base = cycles[0] as f64;
        sp_ooo.push(base / cycles[1] as f64);
        sp_wb.push(base / cycles[2] as f64);
        sp_wb_over_ooo.push(cycles[1] as f64 / cycles[2] as f64);
        stall_rows.push((w_name.clone(), stalls));
        time_rows.push((
            w_name,
            cycles.iter().map(|c| format!("{:.3}", *c as f64 / base)).collect(),
        ));
    }

    println!(
        "{}",
        render_table(
            "Figure 10 (top): stall cycles %% of total, rob/lq/sq",
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

    let max_wb = sp_wb.iter().cloned().fold(f64::MIN, f64::max);
    let max_over_ooo = sp_wb_over_ooo.iter().cloned().fold(f64::MIN, f64::max);
    println!("== Headline (paper: 15.4% avg / 41.9% max over in-order; 10.2% avg / 28.3% max over OoO) ==");
    println!(
        "OoO+WB over InOrder : {:+.1}% avg, {:+.1}% max",
        (geomean(&sp_wb) - 1.0) * 100.0,
        (max_wb - 1.0) * 100.0
    );
    println!(
        "OoO    over InOrder : {:+.1}% avg",
        (geomean(&sp_ooo) - 1.0) * 100.0
    );
    println!(
        "OoO+WB over OoO     : {:+.1}% avg, {:+.1}% max",
        (geomean(&sp_wb_over_ooo) - 1.0) * 100.0,
        (max_over_ooo - 1.0) * 100.0
    );
}
