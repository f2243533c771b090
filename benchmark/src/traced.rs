//! The traced run (`--trace 1`): the same cells once more, first on
//! `System` (the untraced walls every share is divided by, and the
//! reference the rig must reproduce), then on the layer rig. Spans are
//! aggregated per (cell, span) in memory and written out at the end.
//! Nothing measured here feeds an end-to-end metric.

use std::time::Instant;

use writersblock::System;

use crate::cells::{Cell, Kind};
use crate::measure::{self, Model, Pass, Walls};
use crate::metrics::{self, ratio, PER_LAYER};
use crate::rig::{self, Acc, Profile, Rig, Span};
use crate::timed::{self, Outcome};

/// What the traced run accumulates over its iterations.
#[derive(Debug, Clone, Default)]
struct Totals {
    /// `System` walls over every cell / over the traced cells.
    all: Walls,
    traced: Walls,
    traced_cycles: u64,
    model: Model,
    /// Rig spans summed over the traced cells, and the rig's run wall.
    prof: Profile,
    rig_ns: u64,
    /// Cells by what ran on them.
    systems: u64,
    snapshots: u64,
    audits: u64,
    iterations: u64,
}

/// System-run seconds of cells the lap cost is calibrated on.
const CALIBRATE_S: f64 = 0.4;

/// What one lap costs in place: the same cells on the rig with the
/// clock on and off (off, on, on, off, so drift cancels), the wall
/// difference divided by the laps taken. Never below the bare cost of
/// back-to-back laps, which is what noise could otherwise pull it to.
fn calibrate_timer(list: &[Cell], pass: &Pass) -> Result<f64, String> {
    let mut budget = CALIBRATE_S * 1e9;
    let (mut on_ns, mut off_ns, mut laps) = (0u64, 0u64, 0u64);
    for (cell, r) in list.iter().zip(&pass.cells) {
        if !cell.traced || !r.ok {
            continue;
        }
        for timed in [false, true, true, false] {
            let mut rig = Rig::new(&cell.cfg, &cell.workload)?;
            if !timed {
                rig.prof.disable();
            }
            let t = Instant::now();
            std::hint::black_box(rig.run(r.model.cycles + 1));
            let wall = t.elapsed().as_nanos() as u64;
            if timed {
                on_ns += wall;
                laps += rig.prof.laps();
            } else {
                off_ns += wall;
            }
        }
        budget -= r.walls.run as f64;
        if budget <= 0.0 {
            break;
        }
    }
    let in_place = ratio(on_ns.saturating_sub(off_ns) as f64, laps as f64);
    Ok(in_place.max(rig::bare_lap_ns()))
}

/// Run `cell` on the rig and compare with `System`'s result.
fn rig_cell(cell: &Cell, want_cycles: u64, want_stats: &str) -> Result<(Profile, u64), String> {
    let mut rig = Rig::new(&cell.cfg, &cell.workload)?;
    let t = Instant::now();
    let done = rig.run(want_cycles + 1);
    let wall = t.elapsed().as_nanos() as u64;
    if !done {
        return Err(format!(
            "rig not done at cycle {} (System: {want_cycles})",
            rig.now()
        ));
    }
    if rig.now() != want_cycles {
        return Err(format!(
            "rig ended at cycle {}, System at {want_cycles}",
            rig.now()
        ));
    }
    if rig.merged_stats().to_json() != want_stats {
        return Err("rig's merged stats differ from System's".to_owned());
    }
    Ok((rig.prof.clone(), wall))
}

/// Host-time ratio of a run with `enable_timeline(1000)` to one
/// without (plain, sampled, sampled, plain), on the largest traced cell
/// that runs in under 0.3 s, or the cheapest when none does.
fn timeline_overhead(list: &[Cell], pass: &Pass) -> f64 {
    let traced = || {
        list.iter()
            .zip(&pass.cells)
            .filter(|(c, r)| c.traced && r.ok)
    };
    let pick = traced()
        .filter(|(_, r)| r.walls.run <= 300_000_000)
        .max_by_key(|(_, r)| r.walls.run)
        .or_else(|| traced().min_by_key(|(_, r)| r.walls.run));
    let Some((cell, _)) = pick else { return 0.0 };
    let time = |timeline: bool| -> f64 {
        let mut sys = System::new(cell.cfg.clone(), &cell.workload);
        if timeline {
            sys.enable_timeline(1000);
        }
        let t = Instant::now();
        std::hint::black_box(sys.run(cell.budget));
        t.elapsed().as_nanos() as f64
    };
    let (a, b, c, d) = (time(false), time(true), time(true), time(false));
    ratio(b + c, a + d)
}

/// Milliseconds per test of the exhaustive TSO oracle over the
/// enumerable litmus suite.
fn oracle_ms_per_test() -> Result<f64, String> {
    let suite = wb_tso::litmus::enumerable_suite();
    let t = Instant::now();
    for test in &suite {
        let outcomes = wb_tso::oracle::tso_outcomes(&test.workload, &test.observed)
            .map_err(|e| format!("oracle on {}: {e}", test.name))?;
        if test.forbidden.iter().any(|f| outcomes.contains(f)) {
            return Err(format!(
                "oracle allows a forbidden outcome of {}",
                test.name
            ));
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / 1e6 / suite.len() as f64)
}

/// The in-loop layers and the spans that make up each.
const LAYERS: [(&str, &[Span]); 5] = [
    ("cpu", &[Span::CpuTick, Span::CpuNextEvent]),
    (
        "cache",
        &[Span::CacheTick, Span::CacheHandleMsg, Span::CacheNextEvent],
    ),
    (
        "dir",
        &[Span::DirTick, Span::DirReceive, Span::DirNextEvent],
    ),
    (
        "mesh",
        &[
            Span::MeshTick,
            Span::MeshSend,
            Span::MeshDrain,
            Span::MeshNextEvent,
        ],
    ),
    ("sched", &[Span::Sched]),
];

/// Run `workload` traced for about `seconds`.
pub fn run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (list, gen_ns, _) = measure::setup_once(workload, seed, smoke)?;
    out.cell_names = list.iter().map(|c| c.name.clone()).collect();
    let mut timer_ns = 0.0;
    let mut tot = Totals::default();
    let mut rig_exact = true;
    let mut timeline_ratio = 0.0;
    let t0 = Instant::now();
    let mut longest = 0.0f64;
    let mut first_spans: Vec<(usize, Profile, u64)> = Vec::new();
    let mut first_pass = Pass::default();
    loop {
        let t_iter = Instant::now();
        // Each cell runs on `System` and then, at once, on the rig, so
        // the wall a share is divided by comes from the same stretch of
        // host time as the spans it divides.
        let mut pass = Pass::default();
        for (i, cell) in list.iter().enumerate() {
            let r = measure::run_cell(cell, false, true);
            if !matches!(cell.kind, Kind::Litmus(_)) {
                tot.systems += 1;
            }
            tot.snapshots += u64::from(r.walls.snapshot > 0);
            tot.audits += u64::from(r.walls.audit > 0);
            if cell.traced && r.ok {
                tot.traced.add(&r.walls);
                tot.traced_cycles += r.model.cycles;
                let stats = r.stats_json.as_deref().unwrap_or_default();
                match rig_cell(cell, r.model.cycles, stats) {
                    Ok((prof, wall)) => {
                        tot.prof.add(&prof);
                        tot.rig_ns += wall;
                        if tot.iterations == 0 {
                            first_spans.push((i, prof, wall));
                        }
                    }
                    Err(e) => {
                        rig_exact = false;
                        out.correct = false;
                        out.notes.push(format!("WRONG {}: {e}", cell.name));
                    }
                }
            }
            pass.push(r);
        }
        tot.all.add(&pass.walls);
        tot.model.add(&pass.model);
        if tot.iterations == 0 {
            timed::note_failed(workload, seed, &list, &pass, &mut out);
            timed::sparse_equals_dense(&list, &pass, &mut out);
            out.attempted = pass.attempted;
            out.failed = pass.failed;
            out.model = pass.model;
            out.cell_walls_s = pass
                .cells
                .iter()
                .map(|r| r.walls.cell as f64 / 1e9)
                .collect();
            timeline_ratio = timeline_overhead(&list, &pass);
            timer_ns = calibrate_timer(&list, &pass)?;
            first_pass = pass;
        } else if pass.model != out.model {
            out.correct = false;
            out.notes
                .push("WRONG: simulated counts differ between iterations".to_owned());
        }
        tot.iterations += 1;
        let wall = t_iter.elapsed().as_secs_f64();
        out.pass_walls_s.push(wall);
        longest = longest.max(wall);
        if smoke || t0.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    for (i, prof, wall) in &first_spans {
        let walls = &first_pass.cells[*i].walls;
        push_rows(
            &mut out.trace,
            workload,
            &list[*i].name,
            walls,
            prof,
            *wall,
            timer_ns,
        );
    }
    // The oracle belongs to the litmus suite: timed where that runs.
    let has_litmus = list.iter().any(|c| matches!(c.kind, Kind::Litmus(_)));
    let oracle_ms = if has_litmus {
        oracle_ms_per_test()?
    } else {
        0.0
    };

    let busy = |spans: &[Span]| -> f64 {
        spans
            .iter()
            .map(|&s| tot.prof.get(s).busy_ns(timer_ns))
            .sum()
    };
    let one = |s: Span| -> Acc { tot.prof.get(s) };
    let per = |s: Span, calls: u64| ratio(one(s).busy_ns(timer_ns), calls as f64);
    let run_ns = tot.traced.run as f64;
    let cell_ns = tot.all.cell as f64;
    let share = |spans: &[Span]| ratio(busy(spans), run_ns);
    let layer_shares: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|(name, spans)| (*name, share(spans)))
        .collect();
    let component_sum: f64 = layer_shares.iter().map(|(_, s)| s).sum();
    let residual = 1.0 - component_sum;
    let layer_share = |name: &str| -> f64 {
        layer_shares
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let msgs_delivered = one(Span::CacheHandleMsg).calls + one(Span::DirReceive).calls;
    let m = &tot.model;
    let executed = m.cycles.saturating_sub(m.skipped);
    let iters = tot.iterations as f64;

    out.values = metrics::bind(
        &PER_LAYER,
        &[
            (
                "cpu.tick_ns_per_visit",
                per(Span::CpuTick, one(Span::CpuTick).calls),
                None,
            ),
            ("cpu.tick_share", share(&[Span::CpuTick]), None),
            ("cpu.visits", one(Span::CpuTick).calls as f64 / iters, None),
            (
                "cpu.next_event_ns_per_call",
                per(Span::CpuNextEvent, one(Span::CpuNextEvent).calls),
                None,
            ),
            ("cpu.next_event_share", share(&[Span::CpuNextEvent]), None),
            (
                "cache.tick_ns_per_visit",
                per(Span::CacheTick, one(Span::CacheTick).calls),
                None,
            ),
            (
                "cache.handle_msg_ns_per_msg",
                per(Span::CacheHandleMsg, one(Span::CacheHandleMsg).calls),
                None,
            ),
            ("cache.share", layer_share("cache"), None),
            (
                "cache.msgs",
                one(Span::CacheHandleMsg).calls as f64 / iters,
                None,
            ),
            (
                "dir.tick_ns_per_visit",
                per(Span::DirTick, one(Span::DirTick).calls),
                None,
            ),
            (
                "dir.receive_ns_per_msg",
                per(Span::DirReceive, one(Span::DirReceive).calls),
                None,
            ),
            ("dir.share", layer_share("dir"), None),
            ("dir.visits", one(Span::DirTick).calls as f64 / iters, None),
            (
                "mesh.tick_ns_per_visit",
                per(Span::MeshTick, one(Span::MeshTick).calls),
                None,
            ),
            (
                "mesh.send_ns_per_msg",
                per(Span::MeshSend, one(Span::MeshSend).calls),
                None,
            ),
            (
                "mesh.drain_ns_per_msg",
                per(Span::MeshDrain, msgs_delivered),
                None,
            ),
            ("mesh.share", layer_share("mesh"), None),
            ("mesh.msgs", one(Span::MeshSend).calls as f64 / iters, None),
            (
                "mesh.retransmit_ratio",
                ratio(m.retransmits as f64, m.msgs as f64),
                None,
            ),
            (
                "sched.ns_per_op",
                per(Span::Sched, one(Span::Sched).calls),
                None,
            ),
            ("sched.ops", one(Span::Sched).calls as f64 / iters, None),
            ("sched.share", layer_share("sched"), None),
            (
                "engine.run_ns_per_cycle",
                ratio(run_ns, tot.traced_cycles as f64),
                None,
            ),
            ("engine.residual_share", residual, None),
            (
                "engine.visits_per_cycle",
                ratio(m.visits as f64, executed as f64),
                None,
            ),
            (
                "engine.skipped_cycle_share",
                ratio(m.skipped as f64, m.cycles as f64),
                None,
            ),
            (
                "engine.new_ms_per_cell",
                ratio(tot.all.new as f64 / 1e6, tot.systems as f64),
                None,
            ),
            (
                "stats.report_us_per_call",
                ratio(tot.all.report as f64 / 1e3, tot.systems as f64),
                None,
            ),
            ("stats.timeline_overhead_ratio", timeline_ratio, None),
            (
                "tso.check_ns_per_event",
                ratio(tot.all.tso as f64, m.tso_events as f64),
                None,
            ),
            ("tso.share", ratio(tot.all.tso as f64, cell_ns), None),
            ("tso.oracle_ms_per_test", oracle_ms, None),
            (
                "snap.snapshot_ms_per_cell",
                ratio(tot.all.snapshot as f64 / 1e6, tot.snapshots as f64),
                None,
            ),
            (
                "snap.restore_ms_per_cell",
                ratio(tot.all.restore as f64 / 1e6, tot.snapshots as f64),
                None,
            ),
            (
                "snap.bytes_per_cell",
                ratio(m.snap_bytes as f64, tot.snapshots as f64),
                None,
            ),
            (
                "snap.share",
                ratio((tot.all.snapshot + tot.all.restore) as f64, cell_ns),
                None,
            ),
            (
                "audit.final_us_per_cell",
                ratio(tot.all.audit as f64 / 1e3, tot.audits as f64),
                None,
            ),
            ("audit.share", ratio(tot.all.audit as f64, cell_ns), None),
            (
                "gen.workload_ms_per_cell",
                ratio(gen_ns as f64 / 1e6, list.len() as f64),
                None,
            ),
            ("model.cycles", out.model.cycles as f64, None),
            ("model.retired", out.model.retired as f64, None),
            (
                "model.ipc",
                ratio(out.model.retired as f64, out.model.cycles as f64),
                None,
            ),
            (
                "model.blocked_writes",
                out.model.blocked_writes as f64,
                None,
            ),
            ("model.flits", out.model.flits as f64, None),
            ("model.retransmits", out.model.retransmits as f64, None),
            ("model.soft_detected", out.model.soft_detected as f64, None),
            ("trace.timer_ns", timer_ns, None),
            (
                "trace.overhead_ratio",
                ratio(tot.rig_ns as f64, run_ns),
                None,
            ),
            ("trace.rig_exact", if rig_exact { 1.0 } else { 0.0 }, None),
        ],
    )?;

    let mut ranked = layer_shares.clone();
    ranked.push(("engine", residual));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.headline.push(format!(
        "top layers by share of System::run wall: {} {:.1}%, {} {:.1}% (all: {})",
        ranked[0].0,
        ranked[0].1 * 100.0,
        ranked[1].0,
        ranked[1].1 * 100.0,
        ranked
            .iter()
            .map(|(n, s)| format!("{n} {:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if component_sum > 1.05 {
        // A timing artefact (the host sped up or slowed down between a
        // cell's two runs), not a wrong output: said, not failed.
        out.notes.push(format!(
            "NOTE: component shares sum to {component_sum:.3} (> 1.05)"
        ));
    }
    Ok(out)
}

/// The spans of one traced cell as trace lines (name, parent, busy ns,
/// calls): `System`'s public calls under `cell`, the rig's phases under
/// `rig.run`.
fn push_rows(
    rows: &mut Vec<String>,
    workload: &str,
    cell: &str,
    w: &Walls,
    prof: &Profile,
    rig_ns: u64,
    timer_ns: f64,
) {
    let mut push = |span: &str, parent: &str, busy_ns: f64, calls: u64| {
        if calls != 0 {
            rows.push(format!(
                "{{\"workload\": {}, \"cell\": {}, \"span\": {}, \"parent\": {}, \"busy_ns\": {}, \"calls\": {calls}}}",
                metrics::json_str(workload),
                metrics::json_str(cell),
                metrics::json_str(span),
                metrics::json_str(parent),
                metrics::json_num(busy_ns.round()),
            ));
        }
    };
    push("cell", "", w.cell as f64, 1);
    push("engine.new", "cell", w.new as f64, 1);
    push("engine.run", "cell", w.run as f64, 1);
    push("stats.report", "cell", w.report as f64, 1);
    push(
        "snap.snapshot",
        "cell",
        w.snapshot as f64,
        u64::from(w.snapshot > 0),
    );
    push(
        "snap.restore",
        "cell",
        w.restore as f64,
        u64::from(w.restore > 0),
    );
    push("tso.check", "cell", w.tso as f64, u64::from(w.tso > 0));
    push(
        "audit.final",
        "cell",
        w.audit as f64,
        u64::from(w.audit > 0),
    );
    push("rig.run", "cell", rig_ns as f64, 1);
    for s in Span::ALL {
        let a = prof.get(s);
        push(
            s.name(),
            "rig.run",
            a.busy_ns(timer_ns),
            a.calls.max(u64::from(a.laps > 0)),
        );
    }
}
