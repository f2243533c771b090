//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper. The evaluation binaries are grids of cells — one workload on
//! one configuration — and every grid runs through [`run_all`]: each
//! cell on its own [`sweep`] worker, to `Done` or a panic, summaries
//! back in input order. [`run_suite`] is its figure form (the 16-core
//! kernels × a list of configurations). This library also holds the
//! evaluation configuration, the table renderer and the geomean helpers.
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

pub mod campaign;
pub mod sweep;

use wb_isa::Workload;
use wb_kernel::config::{self, CoreClass, EngineMode, SystemConfig};
use wb_workloads::{suite, Scale};
use writersblock::{Report, RunOutcome, System};

/// Default per-run cycle budget for evaluation runs.
pub const RUN_BUDGET: u64 = 200_000_000;

/// The 16-core evaluation configuration for `class` on the
/// protocol/commit arm called `arm` (a [`config::ARMS`] name).
///
/// # Panics
///
/// Panics on an unknown arm name.
pub fn eval_config(class: CoreClass, arm: &str) -> SystemConfig {
    let (protocol, commit) = config::arm(arm).unwrap_or_else(|| panic!("unknown arm `{arm}`"));
    // Evaluation sweeps run on the sparse engine: cycle-exact with the
    // dense reference (see DESIGN.md "The engine/component contract")
    // and much faster through barriers and other quiescent phases.
    SystemConfig::new(class)
        .with_commit(commit)
        .with_protocol(protocol)
        .with_engine(EngineMode::Sparse)
        .without_event_log()
}

/// Run every cell — a workload on a configuration — within `budget`
/// cycles, one cell per [`sweep::run`] job, and return `summarize` of
/// each finished system in input order.
///
/// # Panics
///
/// Panics, naming the workload and the cycle, if a cell deadlocks or
/// exhausts `budget` — both indicate simulator bugs, not measurement
/// noise.
pub fn run_all<R: Send>(
    budget: u64,
    cells: Vec<(Workload, SystemConfig)>,
    summarize: impl Fn(System) -> R + Sync,
) -> Vec<R> {
    sweep::run(cells, |(workload, cfg)| {
        let mut sys = System::new(cfg, &workload);
        let outcome = sys.run(budget);
        assert_eq!(
            outcome,
            RunOutcome::Done,
            "{} ended with {outcome} at cycle {}",
            workload.name,
            sys.now()
        );
        summarize(sys)
    })
}

/// [`run_all`] over the 16-core suite at `scale`: one row per kernel of
/// [`suite`], holding one [`Report`] per entry of `configs`, in order.
pub fn run_suite(scale: Scale, configs: &[SystemConfig]) -> Vec<Vec<Report>> {
    let cells = suite(16, scale)
        .into_iter()
        .flat_map(|w| configs.iter().map(move |cfg| (w.clone(), cfg.clone())))
        .collect();
    let reports = run_all(RUN_BUDGET, cells, |sys| sys.report());
    reports.chunks(configs.len()).map(<[Report]>::to_vec).collect()
}

/// Geomean speedup of column `col` over column `base` across
/// [`run_suite`] rows, as a signed percentage: `(geomean − 1) × 100`.
pub fn speedup_pct(rows: &[Vec<Report>], base: usize, col: usize) -> f64 {
    let speedups: Vec<f64> =
        rows.iter().map(|r| r[base].cycles as f64 / r[col].cycles as f64).collect();
    (geomean(&speedups) - 1.0) * 100.0
}

/// Render a simple fixed-width table: `rows` of (label, values).
pub fn render_table(title: &str, headers: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{:<16}", ""));
    for h in headers {
        out.push_str(&format!("{h:>14}"));
    }
    out.push('\n');
    for (label, vals) in rows {
        out.push_str(&format!("{label:<16}"));
        for v in vals {
            out.push_str(&format!("{v:>14}"));
        }
        out.push('\n');
    }
    out
}

/// Geometric mean of a slice (1.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn render_table_contains_everything() {
        let t = render_table(
            "T",
            &["a", "b"],
            &[("row1".into(), vec!["1".into(), "2".into()])],
        );
        assert!(t.contains("T") && t.contains("row1") && t.contains('2'));
    }

    #[test]
    fn eval_config_matches_every_arm() {
        for &(arm, protocol, commit) in &config::ARMS {
            let c = eval_config(CoreClass::Slm, arm);
            assert_eq!((c.protocol, c.core.commit_mode), (protocol, commit), "{arm}");
            assert_eq!((c.num_cores, c.engine, c.record_events), (16, EngineMode::Sparse, false));
        }
    }

    fn cell(workload: Workload, cores: usize) -> (Workload, SystemConfig) {
        (workload, eval_config(CoreClass::Slm, "wb-ooo").with_cores(cores))
    }

    #[test]
    fn run_all_keeps_input_order() {
        let cells = vec![
            cell(wb_workloads::splash::fft(4, Scale::Test), 4),
            cell(wb_tso::litmus::mp().workload, 2),
            cell(wb_workloads::barrier_storm(4, 1), 4),
            cell(wb_tso::litmus::sb().workload, 2),
        ];
        let names: Vec<String> = cells.iter().map(|(w, _)| w.name.clone()).collect();
        let reports = run_all(RUN_BUDGET, cells, |sys| sys.report());
        assert_eq!(reports.iter().map(|r| r.name.clone()).collect::<Vec<_>>(), names);
        assert!(reports.iter().all(|r| r.cycles > 0));
    }

    #[test]
    #[should_panic(expected = "fft ended with")]
    fn run_all_panics_naming_an_unfinished_cell() {
        run_all(1, vec![cell(wb_workloads::splash::fft(4, Scale::Test), 4)], |sys| sys.now());
    }
}
