//! Simulator throughput: dense ticking vs the activity-tracked sparse
//! engine, and serial vs parallel sweep execution.
//!
//! Emits `BENCH_sim_throughput.json`. Two families of entries:
//!
//! - `engine/<cell>/<dense|sparse>` — wall-clock per full run of
//!   one cell under each engine, with the run's merged counters
//!   (including a synthetic `sim_cycles` = final cycle) attached, so
//!   simulated cycles per wall-second and the dense/sparse
//!   speedup fall out of the JSON. Both engines are cycle-exact
//!   (pinned by the `engine_equivalence` integration suite), so the
//!   speedup is free. The two 256-core scaling cells (`fft256`,
//!   `barrier256`) are where the sparse engine earns its keep: the
//!   machine is never globally quiescent, but most components are
//!   individually asleep on any given cycle.
//! - `sweep/fault_matrix/<n>threads` — the fault-torture matrix (every
//!   standard fault plan on the paper's WritersBlock OoO configuration)
//!   on 1 vs 4 worker threads through `wb_bench::sweep`.
//!
//! The quiescence-heavy cells are RTO-bound fault runs: lossy links
//! with a 12000-cycle retransmission timeout park the whole machine on
//! future deadlines, exactly the shape dense ticking wastes cycles on.
//! `fft16` is the busy-dominated control (barrier spins hit in cache
//! every cycle — nothing sleeps, so it measures scheduler overhead).

use wb_bench::{sweep, BenchGroup, RUN_BUDGET};
use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::Stats;
use wb_workloads::{barrier_storm, splash, torture, Scale};
use writersblock::System;

/// Run `w` on `cfg` under `engine`; returns merged counters plus two
/// synthetic ones for throughput math: `sim_cycles` (final cycle) and
/// `engine_skipped_cycles` (cycles fast-forwarded, 0 under dense).
fn run_engine(engine: EngineMode, cfg: &SystemConfig, w: &Workload) -> Stats {
    let mut sys = System::new(cfg.clone().with_engine(engine), w);
    let out = sys.run(RUN_BUDGET);
    assert!(out.is_done(), "{}: {out}", w.name);
    let mut stats = sys.report().stats;
    stats.add("sim_cycles", sys.now());
    stats.add("engine_skipped_cycles", sys.skipped_cycles());
    stats
}

/// An RTO-bound cell: lossy links with a long fixed retransmission
/// timeout, so most of the simulated time is the machine parked on a
/// retransmission deadline. Cycle-exactness of exactly these cells is
/// pinned by `engine_equivalence::rto_bound_bench_cells_are_cycle_exact`.
fn rto_bound_cfg(protocol: ProtocolKind, mode: CommitMode, drop_1_in: u64) -> SystemConfig {
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(mode)
        .with_protocol(protocol)
        .with_seed(7)
        .with_jitter(25)
        .with_fault(FaultPlan::drop_everywhere(1, drop_1_in))
        .without_event_log();
    cfg.network.link.rto_min = 12_000;
    cfg.network.link.rto_max = 12_000;
    cfg
}

fn bench_engines(g: &mut BenchGroup) {
    g.sample_size(10);
    let torture = torture::workload(4, 7, 30);
    let fft16 = splash::fft(16, Scale::Test);
    let cells: Vec<(&str, SystemConfig, &Workload)> = vec![
        // Headline: nothing polls while parked, so nearly every parked
        // cycle is jumped over.
        ("rto_bound_mesi", rto_bound_cfg(ProtocolKind::BaseMesi, CommitMode::InOrder, 6), &torture),
        // The paper configuration under the same faults: SoS retry
        // polling keeps cores active through part of each RTO window,
        // so the win is smaller — a jump never crosses observable work.
        (
            "rto_bound_wb",
            rto_bound_cfg(ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 10),
            &torture,
        ),
        // Busy-dominated control: barrier spins hit in cache every
        // cycle, so there is almost nothing to sleep through and the
        // wheel must hold overhead near zero.
        (
            "fft16",
            SystemConfig::new(CoreClass::Hsw).with_commit(CommitMode::OutOfOrderWb).without_event_log(),
            &fft16,
        ),
    ];
    let engines = [EngineMode::Dense, EngineMode::Sparse];
    for (name, cfg, w) in &cells {
        for engine in engines {
            g.bench_with_stats(&format!("engine/{name}/{}", engine.name()), || {
                run_engine(engine, cfg, w)
            });
        }
    }
    // The two 256-core scaling anchors. One dense run of fft at this
    // size costs ~40 s of wall-clock, so these cells are single-sample
    // (the simulator is deterministic; repeats only re-measure the
    // allocator) — the scaling bin's serial mode remains the clean
    // source for ratios.
    g.sample_size(1);
    let fft256 = splash::fft(256, Scale::Test);
    let storm256 = barrier_storm(256, 1);
    let big = SystemConfig::new(CoreClass::Slm)
        .with_cores(256)
        .with_commit(CommitMode::OutOfOrderWb)
        .without_event_log();
    for (name, w) in [("fft256", &fft256), ("barrier256", &storm256)] {
        for engine in engines {
            g.bench_with_stats(&format!("engine/{name}/{}", engine.name()), || {
                run_engine(engine, &big, w)
            });
        }
    }
}

/// The full fault-plan matrix on the paper's configuration, as one
/// sweep: serial baseline vs 4 worker threads. Results are asserted
/// identical, so the scaling number comes with a determinism proof.
fn bench_sweep_scaling(g: &mut BenchGroup) {
    g.sample_size(5);
    let jobs: Vec<(FaultPlan, u64)> = FaultPlan::matrix()
        .into_iter()
        .flat_map(|p| (0..4u64).map(move |s| (p.clone(), s)))
        .collect();
    let run_cell = |(plan, seed): (FaultPlan, u64)| -> u64 {
        let w = torture::workload(4, 7 + seed, 20);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(7 + seed)
            .with_jitter(25)
            .with_fault(plan)
            .with_engine(EngineMode::Sparse)
            .without_event_log();
        let mut sys = System::new(cfg, &w);
        let out = sys.run(RUN_BUDGET);
        assert!(out.is_done(), "{out}");
        sys.now()
    };
    let mut outputs: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        g.bench(&format!("sweep/fault_matrix/{threads}threads"), || {
            let r = sweep::run_on(threads, jobs.clone(), run_cell);
            outputs.push(r.clone());
            r
        });
    }
    let first = &outputs[0];
    assert!(
        outputs.iter().all(|o| o == first),
        "sweep output depends on thread count — determinism broken"
    );
}

fn main() {
    let mut g = BenchGroup::new("sim_throughput");
    bench_engines(&mut g);
    bench_sweep_scaling(&mut g);
    g.finish();
}
