//! Figure 8: how often the WritersBlock machinery actually fires.
//!
//! Top panel: write requests blocked in WritersBlock per thousand
//! committed stores. Bottom panel: uncacheable tear-off data responses
//! per thousand committed loads. Both per benchmark, for the SLM-, NHM-
//! and HSW-class cores (bigger LQs hold more lockdowns, so rates grow
//! with core aggressiveness — but stay well below 1 per kilo-op).

use wb_bench::{eval_config, render_table, run_suite};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;
use writersblock::Report;

fn main() {
    let scale =
        if std::env::args().any(|a| a == "--small") { Scale::Small } else { Scale::Test };
    let configs = CoreClass::ALL.map(|class| eval_config(class, "wb-ooo"));
    let rows = run_suite(scale, &configs);

    let table = |rate: fn(&Report) -> f64| -> Vec<(String, Vec<String>)> {
        let cells = |row: &[Report]| row.iter().map(|r| format!("{:.3}", rate(r))).collect();
        rows.iter().map(|row| (row[0].name.clone(), cells(row))).collect()
    };
    let headers: Vec<&str> = CoreClass::ALL.iter().map(|c| c.label()).collect();
    println!(
        "{}",
        render_table(
            "Figure 8 (top): writes blocked in WritersBlock per kilo-store",
            &headers,
            &table(Report::blocked_writes_per_kilostore)
        )
    );
    println!(
        "{}",
        render_table(
            "Figure 8 (bottom): uncacheable tear-off reads per kilo-load",
            &headers,
            &table(Report::uncacheable_reads_per_kiloload)
        )
    );
    for (i, class) in CoreClass::ALL.into_iter().enumerate() {
        let blocked: f64 = rows.iter().map(|row| row[i].blocked_writes_per_kilostore()).sum();
        println!(
            "{} mean blocked writes/kstore: {:.3} (paper: well under 1, growing with LQ size)",
            class.label(),
            blocked / rows.len() as f64
        );
    }
}
