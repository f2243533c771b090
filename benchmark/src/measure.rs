//! Running cells on `writersblock::System` and timing its public calls.

use std::time::Instant;

use wb_kernel::config::EngineMode;
use wb_kernel::Stats;
use wb_tso::TsoChecker;
use writersblock::{run_litmus, RunOutcome, System};

use crate::cells::{self, Cell, Kind};

/// Counts of the simulated machine. Deterministic: a change that only
/// speeds the simulator must leave every one identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Model {
    pub cycles: u64,
    pub retired: u64,
    pub blocked_writes: u64,
    pub flits: u64,
    pub msgs: u64,
    pub retransmits: u64,
    pub soft_detected: u64,
    /// `System::engine_visits()` (0 under Dense).
    pub visits: u64,
    /// `System::skipped_cycles()`.
    pub skipped: u64,
    /// Snapshot bytes (torture cells).
    pub snap_bytes: u64,
    /// Memory events handed to the TSO checker.
    pub tso_events: u64,
}

impl Model {
    pub fn add(&mut self, o: &Model) {
        self.cycles += o.cycles;
        self.retired += o.retired;
        self.blocked_writes += o.blocked_writes;
        self.flits += o.flits;
        self.msgs += o.msgs;
        self.retransmits += o.retransmits;
        self.soft_detected += o.soft_detected;
        self.visits += o.visits;
        self.skipped += o.skipped;
        self.snap_bytes += o.snap_bytes;
        self.tso_events += o.tso_events;
    }

    /// Every count by name, as the run record carries them.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("cycles", self.cycles),
            ("retired", self.retired),
            ("blocked_writes", self.blocked_writes),
            ("flits", self.flits),
            ("msgs", self.msgs),
            ("retransmits", self.retransmits),
            ("soft_detected", self.soft_detected),
            ("visits", self.visits),
            ("skipped", self.skipped),
            ("snap_bytes", self.snap_bytes),
            ("tso_events", self.tso_events),
        ]
    }

    fn from_stats(stats: &Stats, sys: &System) -> Model {
        Model {
            cycles: sys.now(),
            retired: sys.total_retired(),
            blocked_writes: stats.get("dir_writes_blocked"),
            flits: stats.get("mesh_flits"),
            msgs: stats.get("mesh_msgs"),
            retransmits: stats.get("link_retx"),
            soft_detected: stats.get("soft_detected"),
            visits: sys.engine_visits(),
            skipped: sys.skipped_cycles(),
            snap_bytes: 0,
            tso_events: 0,
        }
    }
}

/// Host nanoseconds around `System`'s public calls for one cell (or
/// summed over cells). These few reads per cell are the off-loop spans
/// of the trace and the walls behind the end-to-end rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Walls {
    /// Whole cell: `System::new` + run + every post-run call.
    pub cell: u64,
    pub new: u64,
    /// Inside `System::run`.
    pub run: u64,
    pub report: u64,
    pub snapshot: u64,
    pub restore: u64,
    pub tso: u64,
    pub audit: u64,
}

impl Walls {
    pub fn add(&mut self, o: &Walls) {
        self.cell += o.cell;
        self.new += o.new;
        self.run += o.run;
        self.report += o.report;
        self.snapshot += o.snapshot;
        self.restore += o.restore;
        self.tso += o.tso;
        self.audit += o.audit;
    }
}

/// One cell run on `System`.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// `Done` and verified. Anything else counts as a failed cell.
    pub ok: bool,
    /// Why not: how a run that did not finish ended, or the check (TSO,
    /// audit, forbidden outcome, restore) a finished one did not pass.
    pub why: Option<String>,
    pub model: Model,
    pub walls: Walls,
    /// `report().stats` as JSON, kept when asked for.
    pub stats_json: Option<String>,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn outcome_note(out: &RunOutcome, sys: &System) -> Option<String> {
    match out {
        RunOutcome::Done => None,
        RunOutcome::Budget => Some(format!("budget exhausted at cycle {}", sys.now())),
        RunOutcome::Wedge(r) | RunOutcome::Fault(r) => {
            Some(format!("{} at cycle {}", r.signature(), sys.now()))
        }
    }
}

/// Run `cell` once. `final_audit` adds a final coherence audit to cells
/// whose recipe has none (the warm-up pass's correctness gate);
/// `keep_stats` keeps the merged stats JSON for the rig comparison.
pub fn run_cell(cell: &Cell, final_audit: bool, keep_stats: bool) -> CellRun {
    let t_cell = Instant::now();
    let mut r = CellRun::default();
    if let Kind::Litmus(test) = &cell.kind {
        // Opaque: `run_litmus` builds, runs and checks its own systems,
        // so a litmus cell has a whole-cell wall and no cycle count.
        match run_litmus(test, &cell.cfg, [cell.cfg.seed], cell.budget) {
            Ok(_) => r.ok = true,
            Err(e) => r.why = Some(e.to_string()),
        }
        r.walls.cell = ns(t_cell);
        return r;
    }
    let t = Instant::now();
    let mut sys = System::new(cell.cfg.clone(), &cell.workload);
    r.walls.new = ns(t);
    let torture = matches!(cell.kind, Kind::Torture);
    let mut snap_bytes = 0;
    let out = if torture {
        let t = Instant::now();
        let first = sys.run(cells::TORTURE_SPLIT);
        r.walls.run += ns(t);
        if matches!(first, RunOutcome::Budget) {
            let t = Instant::now();
            let bytes = sys.snapshot();
            r.walls.snapshot = ns(t);
            snap_bytes = bytes.len() as u64;
            let t = Instant::now();
            let mut fresh = System::new(cell.cfg.clone(), &cell.workload);
            r.walls.new += ns(t);
            let t = Instant::now();
            let restored = fresh.restore(&bytes);
            r.walls.restore = ns(t);
            if let Err(e) = restored {
                r.why = Some(format!("restore failed: {e}"));
            }
            sys = fresh;
            let t = Instant::now();
            let out = sys.run(cell.budget);
            r.walls.run += ns(t);
            out
        } else {
            first
        }
    } else {
        let t = Instant::now();
        let out = sys.run(cell.budget);
        r.walls.run = ns(t);
        out
    };
    let t = Instant::now();
    let report = sys.report();
    r.walls.report = ns(t);
    r.model = Model::from_stats(&report.stats, &sys);
    r.model.snap_bytes = snap_bytes;
    r.why = r.why.or(outcome_note(&out, &sys));
    if keep_stats {
        r.stats_json = Some(report.stats.to_json());
    }
    if out.is_done() {
        if torture {
            let t = Instant::now();
            let log = sys.take_log();
            r.model.tso_events = log.len() as u64;
            let res = TsoChecker::new(&log).check();
            r.walls.tso = ns(t);
            if let Err(e) = res {
                r.why = Some(format!("TSO check failed: {e}"));
            }
        }
        if torture || final_audit || matches!(cell.kind, Kind::Soft) {
            let t = Instant::now();
            let audit = sys.run_audit(true);
            r.walls.audit = ns(t);
            if !audit.clean() {
                r.why = Some(format!("final audit: {audit}"));
            }
        }
        if let Kind::Spinlock { expect } = cell.kind {
            let got = sys.memory_word(wb_tso::litmus::X);
            if got != expect {
                r.why = Some(format!(
                    "spinlock counter is {got}, expected {expect}: lost updates"
                ));
            }
        }
        if matches!(cell.kind, Kind::Soft) && sys.soft_silent() != 0 {
            r.why = Some(format!("{} silent soft flips", sys.soft_silent()));
        }
    }
    r.ok = out.is_done() && r.why.is_none();
    // Tearing the machine down is part of what a cell costs.
    drop(sys);
    r.walls.cell = ns(t_cell);
    r
}

/// One pass over a cell list.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whole pass wall.
    pub wall_ns: u64,
    pub walls: Walls,
    /// Summed over every cell.
    pub model: Model,
    /// Cycles, retired instructions and `System::run` wall of completed
    /// cells only.
    pub done_cycles: u64,
    pub done_retired: u64,
    pub done_run_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-cell results, in list order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Account one more cell.
    pub fn push(&mut self, r: CellRun) {
        self.attempted += 1;
        self.failed += u64::from(!r.ok);
        self.walls.add(&r.walls);
        self.model.add(&r.model);
        if r.ok {
            self.done_cycles += r.model.cycles;
            self.done_retired += r.model.retired;
            self.done_run_ns += r.walls.run;
        }
        self.cells.push(r);
    }
}

/// Run every cell once, in list order, on this thread.
pub fn run_pass(list: &[Cell], final_audit: bool, keep_stats: bool) -> Pass {
    let t = Instant::now();
    let mut p = Pass::default();
    for cell in list {
        p.push(run_cell(cell, final_audit, keep_stats));
    }
    p.wall_ns = ns(t);
    p
}

/// Generate the workload and build every `System` of its cell list:
/// what a user pays before the first cycle runs. Each system is dropped
/// as soon as it is built, outside the timed stretch (tearing down is
/// not set-up). Returns (cells, generation ns, set-up ns).
pub fn setup_once(workload: &str, seed: u64, smoke: bool) -> Result<(Vec<Cell>, u64, u64), String> {
    let t = Instant::now();
    let list = cells::generate(workload, seed, smoke)?;
    let gen_ns = ns(t);
    let mut total = gen_ns;
    for cell in &list {
        let t = Instant::now();
        let sys = std::hint::black_box(System::new(cell.cfg.clone(), &cell.workload));
        total += ns(t);
        drop(sys);
    }
    Ok((list, gen_ns, total))
}

/// The torture cells of `list`, rebuilt for the other engine.
pub fn on_engine(list: &[Cell], engine: EngineMode) -> Vec<Cell> {
    list.iter()
        .filter(|c| matches!(c.kind, Kind::Torture))
        .map(|c| Cell {
            cfg: c.cfg.clone().with_engine(engine),
            ..c.clone()
        })
        .collect()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
