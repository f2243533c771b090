//! Figure 9: WritersBlock protocol overheads on an in-order-commit core.
//!
//! The paper's claim: switching the coherence protocol from base MESI to
//! WritersBlock changes neither execution time nor network traffic
//! perceptibly when the core does not exploit it (in-order commit).
//! Top panel: normalized execution time; bottom: normalized traffic
//! (flits).

use wb_bench::{eval_config, geomean, render_table, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    let mut time_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    let mut time_ratio = Vec::new();
    let mut traffic_ratio = Vec::new();

    for w in suite(16, Scale::Test) {
        let base = run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, false));
        let wb = run_one(&w, eval_config(CoreClass::Slm, CommitMode::InOrder, true));
        let t = wb.report.cycles as f64 / base.report.cycles as f64;
        let f = wb.report.network_flits() as f64 / base.report.network_flits().max(1) as f64;
        time_ratio.push(t);
        traffic_ratio.push(f);
        time_rows.push((w.name.clone(), vec![format!("{:.3}", 1.0), format!("{t:.3}")]));
        traffic_rows.push((w.name.clone(), vec![format!("{:.3}", 1.0), format!("{f:.3}")]));
    }

    println!(
        "{}",
        render_table(
            "Figure 9 (top): normalized execution time, in-order commit",
            &["MESI", "WritersBlock"],
            &time_rows
        )
    );
    println!(
        "{}",
        render_table(
            "Figure 9 (bottom): normalized network traffic (flits)",
            &["MESI", "WritersBlock"],
            &traffic_rows
        )
    );
    println!(
        "geomean: time {:+.2}%, traffic {:+.2}% (paper: imperceptible overhead)",
        (geomean(&time_ratio) - 1.0) * 100.0,
        (geomean(&traffic_ratio) - 1.0) * 100.0
    );
}
