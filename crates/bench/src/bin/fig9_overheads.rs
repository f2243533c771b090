//! Figure 9: WritersBlock protocol overheads on an in-order-commit core.
//!
//! The paper's claim: switching the coherence protocol from base MESI to
//! WritersBlock changes neither execution time nor network traffic
//! perceptibly when the core does not exploit it (in-order commit).
//! Top panel: normalized execution time; bottom: normalized traffic
//! (flits).

use wb_bench::{eval_config, geomean, render_table, run_suite, speedup_pct};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

fn main() {
    let configs = ["mesi-inorder", "wb-inorder"].map(|arm| eval_config(CoreClass::Slm, arm));
    let rows = run_suite(Scale::Test, &configs);
    let mut time_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    let mut traffic_ratio = Vec::new();
    for row in &rows {
        let (base, wb) = (&row[0], &row[1]);
        let t = wb.cycles as f64 / base.cycles as f64;
        let f = wb.network_flits() as f64 / base.network_flits().max(1) as f64;
        traffic_ratio.push(f);
        time_rows.push((base.name.clone(), vec![format!("{:.3}", 1.0), format!("{t:.3}")]));
        traffic_rows.push((base.name.clone(), vec![format!("{:.3}", 1.0), format!("{f:.3}")]));
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
    // WritersBlock's normalized time is MESI's "speedup" over it.
    println!(
        "geomean: time {:+.2}%, traffic {:+.2}% (paper: imperceptible overhead)",
        speedup_pct(&rows, 1, 0),
        (geomean(&traffic_ratio) - 1.0) * 100.0
    );
}
