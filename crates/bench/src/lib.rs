//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this library holds the configuration sweep, run and
//! text-rendering machinery they share. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured results.

pub mod campaign;
pub mod sweep;
pub mod timing;

use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use writersblock::{Report, RunOutcome, System};

pub use timing::BenchGroup;

/// Default per-run cycle budget for evaluation runs.
pub const RUN_BUDGET: u64 = 200_000_000;

/// A single evaluation point: one workload on one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub bench: String,
    pub class: CoreClass,
    pub commit: CommitMode,
    pub protocol: ProtocolKind,
    pub report: Report,
}

/// Build the evaluation configuration for 16 cores of `class` with the
/// given commit mode (protocol inferred: WritersBlock for the relaxed
/// mode and for in-order/OoO when `wb_protocol` is set).
pub fn eval_config(class: CoreClass, commit: CommitMode, wb_protocol: bool) -> SystemConfig {
    // Evaluation sweeps run on the sparse engine: cycle-exact with the
    // dense reference (see DESIGN.md "The engine/component contract")
    // and much faster through barriers and other quiescent phases.
    let mut cfg = SystemConfig::new(class)
        .with_commit(commit)
        .with_engine(EngineMode::Sparse)
        .without_event_log();
    if wb_protocol {
        cfg = cfg.with_protocol(ProtocolKind::WritersBlock);
    }
    cfg
}

/// Run one workload to completion and return its report.
///
/// # Panics
///
/// Panics if the run deadlocks or exhausts [`RUN_BUDGET`] — both indicate
/// simulator bugs, not measurement noise.
pub fn run_one(workload: &Workload, cfg: SystemConfig) -> RunResult {
    let class = match cfg.core.rob_entries {
        32 => CoreClass::Slm,
        128 => CoreClass::Nhm,
        _ => CoreClass::Hsw,
    };
    let commit = cfg.core.commit_mode;
    let protocol = cfg.protocol;
    let mut sys = System::new(cfg, workload);
    let outcome = sys.run(RUN_BUDGET);
    assert_eq!(
        outcome,
        RunOutcome::Done,
        "{} on {class}/{commit} ended with {outcome:?} at cycle {}",
        workload.name,
        sys.now()
    );
    RunResult { bench: workload.name.clone(), class, commit, protocol, report: sys.report() }
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
    fn eval_config_protocols() {
        let c = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false);
        assert_eq!(c.protocol, ProtocolKind::WritersBlock);
        let c = eval_config(CoreClass::Slm, CommitMode::InOrder, true);
        assert_eq!(c.protocol, ProtocolKind::WritersBlock);
        let c = eval_config(CoreClass::Slm, CommitMode::InOrder, false);
        assert_eq!(c.protocol, ProtocolKind::BaseMesi);
        assert!(!c.record_events);
    }

    #[test]
    fn run_one_smoke() {
        let w = wb_workloads::splash::fft(4, wb_workloads::Scale::Test);
        let cfg = eval_config(CoreClass::Slm, CommitMode::OutOfOrderWb, false).with_cores(4);
        let r = run_one(&w, cfg);
        assert!(r.report.cycles > 0);
        assert_eq!(r.bench, "fft");
    }
}
