//! The untraced run (`--trace 0`): set-up, one warm-up pass carrying
//! the correctness gate, then timed passes of the identical cell list.
//! Host time is taken per cell as the best of the timed passes.

use std::time::Instant;

use wb_kernel::config::EngineMode;

use crate::cells::{Cell, Kind};
use crate::measure::{self, Model, Pass};
use crate::metrics::{self, ratio, summarize, Summary, Value, END_TO_END};

/// Timed passes never fewer than this, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// What one benchmark process found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub values: Vec<Value>,
    /// Cells per pass and how many of them did not end `Done` and verified.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check held.
    pub correct: bool,
    /// Why not, and the reproducer of every failed cell.
    pub notes: Vec<String>,
    pub cell_names: Vec<String>,
    /// Whole-cell wall of each cell in the warm-up (or reference) pass.
    pub cell_walls_s: Vec<f64>,
    pub pass_walls_s: Vec<f64>,
    pub model: Model,
    /// Lines worth reading first (the top layers of a traced run).
    pub headline: Vec<String>,
    /// The trace, one JSON span per line (traced runs).
    pub trace: Vec<String>,
}

impl Outcome {
    /// Cells not `Done` and verified ÷ cells attempted.
    pub fn fail_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Every cell of a kept pass that did not end `Done` and verified, with
/// why and a reproducer. Such cells are counted in `failed`; they do
/// not make the run incorrect (that is for two runs of one thing
/// disagreeing: engines, rig and `System`, passes).
pub fn note_failed(workload: &str, seed: u64, list: &[Cell], pass: &Pass, out: &mut Outcome) {
    for (cell, r) in list.iter().zip(&pass.cells).filter(|(_, r)| !r.ok) {
        out.notes.push(format!(
            "FAILED {}: {}; {}",
            cell.name,
            r.why.as_deref().unwrap_or("not done"),
            cell.reproducer(workload, seed)
        ));
    }
}

/// The torture cells re-run under Sparse must match Dense on cycles,
/// retired instructions and merged stats.
pub fn sparse_equals_dense(list: &[Cell], dense: &Pass, out: &mut Outcome) {
    let sparse_cells = measure::on_engine(list, EngineMode::Sparse);
    if sparse_cells.is_empty() {
        return;
    }
    let sparse = measure::run_pass(&sparse_cells, false, true);
    let dense_runs = list
        .iter()
        .zip(&dense.cells)
        .filter(|(c, _)| matches!(c.kind, Kind::Torture))
        .map(|(_, r)| r);
    for ((cell, s), d) in sparse_cells.iter().zip(&sparse.cells).zip(dense_runs) {
        let same = s.model.cycles == d.model.cycles
            && s.model.retired == d.model.retired
            && s.stats_json == d.stats_json;
        if !same {
            out.correct = false;
            out.notes.push(format!(
                "WRONG {}: Sparse (cycle {}, retired {}) differs from Dense (cycle {}, retired {})",
                cell.name, s.model.cycles, s.model.retired, d.model.cycles, d.model.retired
            ));
        }
    }
}

fn rate(num: u64, wall_ns: u64) -> f64 {
    ratio(num as f64 * 1e9, wall_ns as f64)
}

/// Run `workload` untraced for about `seconds` of timed passes.
/// `cold_setups` are set-up times, in seconds, the caller took in other
/// fresh processes: `setup_s` is the median of them and this process's.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    cold_setups: &[f64],
) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // Set-up is what a user pays on every launch, so each sample is
    // the first thing its process does.
    let (list, _, setup_ns) = measure::setup_once(workload, seed, smoke)?;
    let mut setups = vec![setup_ns as f64 / 1e9];
    setups.extend_from_slice(cold_setups);
    let setup = summarize(&setups);
    out.cell_names = list.iter().map(|c| c.name.clone()).collect();
    // Warm-up pass: discarded for timing, and the pass every check runs in.
    let warm = measure::run_pass(&list, true, true);
    note_failed(workload, seed, &list, &warm, &mut out);
    out.cell_walls_s = warm
        .cells
        .iter()
        .map(|r| r.walls.cell as f64 / 1e9)
        .collect();
    sparse_equals_dense(&list, &warm, &mut out);
    out.attempted = warm.attempted;
    out.failed = warm.failed;
    out.model = warm.model;
    // Timed passes of the identical list.
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    let mut longest = 0.0f64;
    // A smoke run is one timed pass, whatever `--seconds` says.
    let (want, seconds) = if smoke {
        (1, 0.0)
    } else {
        (MIN_PASSES, seconds)
    };
    while passes.len() < want || t0.elapsed().as_secs_f64() + longest <= seconds {
        let p = measure::run_pass(&list, false, false);
        if p.model != warm.model || p.failed != warm.failed {
            out.correct = false;
            out.notes.push(format!(
                "WRONG pass {}: simulated counts differ from the warm-up pass ({:?} vs {:?})",
                passes.len() + 1,
                p.model,
                warm.model
            ));
        }
        let wall = p.wall_ns as f64 / 1e9;
        longest = longest.max(wall);
        out.pass_walls_s.push(wall);
        passes.push(p);
    }
    // Host time per cell is its best over the passes. Interference on
    // this shared box only ever adds time, so the fastest of a cell's
    // runs is the least contaminated one: over 8 same-seed runs the
    // quartile spread of a pass was 1.3-2.6% this way against 3.6-5.8%
    // with per-cell medians. The per-pass rates ride along as
    // median/min/max/n.
    let best_wall = |f: fn(&measure::Walls) -> u64, count: fn(&measure::CellRun) -> bool| -> f64 {
        (0..list.len())
            .filter(|&i| count(&warm.cells[i]))
            .map(|i| {
                passes
                    .iter()
                    .map(|p| f(&p.cells[i].walls))
                    .min()
                    .unwrap_or(0) as f64
            })
            .sum()
    };
    // The cycle and instruction rates are over completed cells on both
    // sides of the division, so a cell that wedges moves `failed` and
    // `cells_per_s` and leaves the simulator's speed as it was.
    let run_ns = best_wall(|w| w.run, |r| r.ok);
    let cell_ns = best_wall(|w| w.cell, |_| true);
    let per_pass = |f: fn(&Pass) -> f64| -> Option<Summary> {
        Some(summarize(&passes.iter().map(f).collect::<Vec<f64>>()))
    };
    out.values = metrics::bind(
        &END_TO_END,
        &[
            (
                "sim_cycles_per_s",
                ratio(warm.done_cycles as f64 * 1e9, run_ns),
                per_pass(|p| rate(p.done_cycles, p.done_run_ns)),
            ),
            (
                "sim_instr_per_s",
                ratio(warm.done_retired as f64 * 1e9, run_ns),
                per_pass(|p| rate(p.done_retired, p.done_run_ns)),
            ),
            (
                "cells_per_s",
                ratio(warm.attempted as f64 * 1e9, cell_ns),
                per_pass(|p| rate(p.attempted, p.wall_ns)),
            ),
            ("setup_s", setup.median, Some(setup)),
            ("peak_rss_mb", measure::peak_rss_mb(), None),
        ],
    )?;
    Ok(out)
}
