//! Dense vs sparse engine equivalence.
//!
//! The activity-tracked engine (`EngineMode::Sparse`) must be
//! *cycle-exact* with the dense reference: for any workload, seed,
//! chaos plan and fault plan, it produces the same `RunOutcome` at the
//! same final cycle, byte-identical stats JSON and an identical merged
//! event trace. These tests pin that contract across litmus races,
//! barrier-heavy kernels, chaos/fault torture cells, watchdog wedges
//! and budget exhaustion — including the self-checking `SparseVerify`
//! mode, which visits every unit and asserts every sleep claim cycle
//! by cycle.

use wb_cpu::Core;
use wb_integration::{built, cell_of, near_miss, one, spec};
use wb_isa::{Cond, Program, Reg, Workload};
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::trace::TraceFilter;
use wb_kernel::wedge::WedgeClass;
use wb_kernel::NodeId;
use wb_mem::{HomeMap, LineAddr};
use wb_mesh::Mesh;
use wb_protocol::messages::Dest;
use wb_protocol::{PrivateCache, ProtoMsg, ReadKind};
use wb_workloads::{splash, Scale};
use writersblock::{RunOutcome, System};

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    final_cycle: u64,
    retired: u64,
    stats_json: String,
    trace: Vec<String>,
}

/// Wedge reproducer lines carry the engine that produced them
/// (`"engine":"dense"` vs `"engine":"sparse"`); everything else about
/// the two runs must agree, so equivalence compares modulo that one key.
fn neutralize_engine(mut o: Observed) -> Observed {
    if let RunOutcome::Wedge(r) | RunOutcome::Fault(r) = &mut o.outcome {
        for engine in [EngineMode::SparseVerify, EngineMode::Sparse, EngineMode::Dense] {
            let key = format!("\"engine\":\"{}\"", engine.name());
            r.reproducer = r.reproducer.replace(&key, "\"engine\":\"*\"");
        }
    }
    o
}

fn run_with(engine: EngineMode, cfg: &SystemConfig, w: &Workload, budget: u64, trace: bool) -> Observed {
    let mut sys = System::new(cfg.clone().with_engine(engine), w);
    if trace {
        sys.set_trace(TraceFilter::all());
    }
    let outcome = sys.run(budget);
    if outcome.is_done() {
        // The end-of-run auditor is part of the equivalence contract:
        // it must pass in every engine and count identically in stats.
        sys.run_audit(true).assert_clean(&format!("{engine:?} final audit"));
    }
    let trace = sys.collect_trace().iter().map(ToString::to_string).collect();
    Observed {
        outcome,
        final_cycle: sys.now(),
        retired: sys.total_retired(),
        stats_json: sys.report().stats.to_json(),
        trace,
    }
}

/// Assert Sparse (and optionally the self-checking verify engine)
/// matches Dense byte for byte.
fn assert_equivalent(label: &str, cfg: &SystemConfig, w: &Workload, budget: u64, verify: bool) {
    let dense = run_with(EngineMode::Dense, cfg, w, budget, false);
    let sparse = run_with(EngineMode::Sparse, cfg, w, budget, false);
    assert_eq!(dense, sparse, "{label}: Sparse diverged from Dense");
    if verify {
        let sverified = run_with(EngineMode::SparseVerify, cfg, w, budget, false);
        assert_eq!(dense, sverified, "{label}: SparseVerify diverged from Dense");
    }
}

/// Litmus races: the message-passing test across many seeds, on both
/// protocols and the paper's relaxed commit mode.
#[test]
fn litmus_runs_are_cycle_exact() {
    for (cell, cfg, w) in built(&spec("eq-litmus-mp")) {
        assert_equivalent(&cell.id, &cfg, &w, cell.budget, cell.seed < 3);
    }
}

/// Barrier-heavy splash kernel, `splash::fft(4, ..)`'s four programs on
/// a 16-core mesh — a quiescence-dominated shape. Stays in Rust: a spec
/// sizes the machine to the workload.
#[test]
fn barrier_kernel_is_cycle_exact() {
    let w = splash::fft(4, Scale::Test);
    for class in [CoreClass::Slm, CoreClass::Hsw] {
        let cfg = SystemConfig::new(class)
            .with_commit(CommitMode::OutOfOrderWb)
            .without_event_log();
        assert_equivalent(&format!("fft {class}"), &cfg, &w, 10_000_000, class == CoreClass::Slm);
    }
}

/// A 64-core (8x8 mesh) machine: the first size where the old `u64`
/// sharer masks overflowed. All engines must agree byte for byte
/// — and again with two directory banks per node, so bank sharding
/// cannot silently perturb timing either.
#[test]
fn machine_at_64_cores_is_cycle_exact() {
    let (cell, mut cfg, w) = one("eq-torture-64");
    assert_equivalent(&cell.id, &cfg, &w, cell.budget, true);
    // No spec key sets the bank fan-out: this variant stays in Rust.
    cfg.memory.dir_banks_per_node = 2;
    assert_equivalent("64-core torture, 2 banks/node", &cfg, &w, cell.budget, false);
}

/// The 256-core (16x16 mesh) machine the sparse engine exists for:
/// most of the fleet sleeps at any instant, and a tick must only touch
/// live components. All engines agree byte for byte, with the sharded
/// directory (2 banks/node) riding along. No spec key drops a torture
/// cell's event log or sets the banks, so the test sets both.
#[test]
fn machine_at_256_cores_is_cycle_exact() {
    let line = r#"{"cores":256,"engine":"dense","jitter":25,"budget":8000000,"workloads":["torture/4x6"],"seeds":[17]}"#;
    let (cell, cfg, w) = cell_of(line);
    let mut cfg = cfg.without_event_log();
    assert_equivalent(&cell.id, &cfg, &w, cell.budget, false);
    cfg.memory.dir_banks_per_node = 2;
    let dense = run_with(EngineMode::Dense, &cfg, &w, cell.budget, false);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, cell.budget, false);
    assert_eq!(dense, sparse, "256-core torture, 2 banks/node: Sparse diverged");
}

/// The sparse engine must actually be sparse: on a 64-core machine
/// running a 2-core litmus race, visits per executed cycle must be a
/// small fraction of the dense engine's (which touches every pair,
/// bank and the mesh every cycle), and whole-machine quiescent gaps
/// must still be jumped. Stays in Rust: two programs on 64 cores.
#[test]
fn sparse_engine_visits_only_live_components() {
    let t = wb_tso::litmus::mp();
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(64)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(3)
        .with_jitter(30)
        .with_engine(EngineMode::Sparse);
    let mut sys = System::new(cfg, &t.workload);
    assert!(sys.run(2_000_000).is_done(), "mp must complete");
    let executed = sys.now() - sys.skipped_cycles();
    assert!(sys.skipped_cycles() > 0, "sparse engine never jumped");
    // Dense visits: 64 pairs + 64 banks + mesh + 64 drains per cycle.
    let dense_visits = executed * (64 + 64 + 1 + 64);
    assert!(
        sys.engine_visits() * 10 < dense_visits,
        "sparse engine visited {} of {} dense visits over {} executed cycles — not sparse",
        sys.engine_visits(),
        dense_visits,
        executed
    );

    // The run loop's own bookkeeping must be sparse too: on the
    // barrier storm (16x16 in release builds, a 10x10 stand-in in debug
    // builds) it may walk the whole machine — the run's set-up, its
    // first fault scan, an exact oldest-progress recompute when the
    // stale bound says a watchdog trip is possible — on at most one
    // executed cycle in a hundred. (Walking every core, cache and bank
    // after each tick was three such passes per executed cycle.)
    let (cell, cfg, w) = one(if cfg!(debug_assertions) { "eq-barrier-storm-100" } else { "eq-barrier-storm-256" });
    let mut sys = System::new(cfg, &w);
    assert!(sys.run(cell.budget).is_done(), "barrier storm must complete");
    let executed = sys.now() - sys.skipped_cycles();
    assert!(
        sys.watchdog_rescans() <= executed / 100,
        "run loop walked the whole machine {} times in {} executed cycles",
        sys.watchdog_rescans(),
        executed
    );
}

/// Litmus smoke on the 8x8 machine: two active cores in the corner of a
/// 64-core mesh, where home banks sit many hops away. Engines agree;
/// the run completes. Stays in Rust: two programs on 64 cores.
#[test]
fn litmus_smoke_at_8x8() {
    for t in [wb_tso::litmus::mp(), wb_tso::litmus::sb()] {
        for seed in 0..3u64 {
            let cfg = SystemConfig::new(CoreClass::Slm)
                .with_cores(64)
                .with_commit(CommitMode::OutOfOrderWb)
                .with_seed(seed)
                .with_jitter(30);
            assert_equivalent(&format!("{} 8x8 seed {seed}", t.name), &cfg, &t.workload, 2_000_000, seed == 0);
        }
    }
}

/// The merged event trace — every component's ring buffer, not just the
/// end state — is identical when the sparse engine skips sleeping units
/// and jumps quiescent windows.
#[test]
fn traces_are_identical_under_skip() {
    let (cell, cfg, w) = one("eq-sb-traced");
    let dense = run_with(EngineMode::Dense, &cfg, &w, cell.budget, true);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, cell.budget, true);
    assert!(!dense.trace.is_empty(), "trace cell must actually record events");
    assert_eq!(dense, sparse, "traced sb run diverged");
}

/// Chaos timing injection (delay storms, reorder amplification) stays
/// cycle-exact: chaos draws happen at injection, which no engine ever
/// suppresses.
#[test]
fn chaos_cells_are_cycle_exact() {
    for (cell, cfg, w) in built(&spec("eq-chaos")) {
        assert_equivalent(&cell.id, &cfg, &w, cell.budget, false);
    }
}

/// Link-fault cells: drops force RTO-timed retransmissions, the exact
/// future deadlines the mesh's `next_internal_event` must honour.
#[test]
fn fault_cells_are_cycle_exact() {
    for (cell, cfg, w) in built(&spec("eq-fault")) {
        assert_equivalent(&cell.id, &cfg, &w, cell.budget, true);
    }
}

/// The quiescence-heavy shape the sparse engine exists for: lossy links
/// with a long fixed RTO, so most of simulated time is the machine
/// parked on retransmission deadlines and nearly every cycle is jumped.
/// Pinned here (with SparseVerify on the BaseMesi variant) so jumping
/// those windows provably leaves the results byte-identical. No spec
/// key sets the RTO, so the test sets it.
#[test]
fn rto_bound_bench_cells_are_cycle_exact() {
    for (arm, fault, verify) in [("mesi-inorder", "drop-1-6", true), ("wb-ooo", "drop-1-10", false)] {
        let (cell, mut cfg, w) = cell_of(&format!(
            r#"{{"engine":"dense","jitter":25,"budget":8000000,"workloads":["torture/30x6"],"arms":["{arm}"],"faults":["{fault}"],"seeds":[7]}}"#
        ));
        (cfg.network.link.rto_min, cfg.network.link.rto_max) = (12_000, 12_000);
        assert_equivalent(&cell.id, &cfg, &w, cell.budget, verify);
    }
}

/// A soft-error cell on lossy links whose final audit scrub leaves a
/// long tail of recovery traffic (a `resil4` cell): the drain after
/// `run_audit(true)` runs on the run loop of each engine, and Dense,
/// Sparse and SparseVerify must end it on the same cycle with the same
/// stats.
#[test]
fn soft_final_drain_is_cycle_exact() {
    let (cell, cfg, w) = one("eq-soft-drain");
    let mut sys = System::new(cfg.clone(), &w);
    assert!(sys.run(cell.budget).is_done(), "{} finishes", cell.id);
    let end = sys.now();
    sys.run_audit(true).assert_clean("final audit");
    assert_eq!(sys.now() - end, 16_219, "the final scrub's recovery traffic drains for long");
    assert_equivalent(&cell.id, &cfg, &w, cell.budget, true);
}

/// Run a cell that must wedge on every engine: outcome, cycle, stats
/// and the whole `WedgeReport` (modulo the reproducer's engine token)
/// are those of Dense. Returns the dense observation.
fn assert_same_wedge(label: &str, cfg: &SystemConfig, w: &Workload, budget: u64) -> Observed {
    let dense = run_with(EngineMode::Dense, cfg, w, budget, false);
    match &dense.outcome {
        RunOutcome::Wedge(r) => {
            // The reproducer names the engine and the machine (with its
            // bank fan-out) so the one-liner replays exactly.
            assert!(
                r.reproducer.contains("\"engine\":\"dense\"") && r.reproducer.contains("\"machine\":\"table6\""),
                "reproducer must name the engine and the machine: {}",
                r.reproducer
            );
        }
        other => panic!("{label}: cell must wedge densely, got {other}"),
    }
    let dense = neutralize_engine(dense);
    for engine in [EngineMode::Sparse, EngineMode::SparseVerify] {
        let other = neutralize_engine(run_with(engine, cfg, w, budget, false));
        assert_eq!(dense, other, "{label}: wedge diverged under {engine:?}");
    }
    dense
}

/// The watchdog's wedge decision — and the diagnosis report it renders —
/// must land on exactly the dense cycle. This is the near-miss scenario:
/// a 4000-cycle RTO against a 2500-cycle stall window (625 before the
/// fault-plan widening), so the run *must* trip the watchdog.
#[test]
fn wedge_fires_at_the_same_cycle() {
    let (cfg, w) = near_miss(625);
    assert_eq!(cfg.effective_stall_window(), 2500);
    assert_same_wedge("near-miss", &cfg, &w, 8_000_000);
    // And with scaling restored the same cell completes — identically.
    let (cfg, w) = near_miss(2500);
    assert_eq!(cfg.effective_stall_window(), 10_000);
    assert_equivalent("near-miss scaled", &cfg, &w, 8_000_000, false);
}

/// A livelock, where messages keep flowing and the jump paths keep
/// synthesizing retry snapshots: the §3.4 Option-1 cell
/// ([`wb_workloads::directed::option1_spin`] with cacheable reads served from a
/// WritersBlock entry), whose spin-readers are re-invalidated round
/// after round while the blocked write starves — a livelock by design,
/// the reason the paper rejects Option 1. Without jitter the rounds
/// chain for good (with jitter 20 the write gets through).
#[test]
fn livelock_fires_at_the_same_cycle() {
    let (cell, cfg, w) = one("eq-option1-livelock");
    let dense = assert_same_wedge(&cell.id, &cfg, &w, cell.budget);
    let report = dense.outcome.wedge_report().expect("wedged");
    assert_eq!(report.class, WedgeClass::Livelock, "option1-spin is a livelock:\n{report}");
    assert_eq!(dense.final_cycle, 200_335);
}

/// The watchdog tracks each core on its own, and the sparse engine only
/// tells it about the cores a cycle visited. On 16 cores: seven halt at
/// once and seven after one store (drained, asleep), core 0 spins on a
/// flag nobody sets (retiring forever, visited every cycle) and core 1
/// walks remote lines over links that drop frames, with a retransmission
/// time-out far beyond the stall window. A core that waits on a dropped
/// frame sleeps — never visited, never drained — and must still trip
/// the watchdog on exactly the dense cycle. Stays in Rust: its programs
/// are written here, and no spec key sets the RTO.
#[test]
fn a_sleeping_wedged_core_trips_beside_a_spinning_one() {
    let spinner = {
        let mut p = Program::builder();
        p.imm(Reg(1), 0x9000);
        let top = p.here();
        p.load(Reg(3), Reg(1), 0);
        p.branch(Cond::Eq, Reg(3), Reg(0), top);
        p.halt();
        p.build()
    };
    let walker = {
        let mut p = Program::builder();
        for k in 0..64u64 {
            p.imm(Reg(1), 0x2_0000 + k * 0x440);
            p.imm(Reg(2), (1 << 32) | (k + 1));
            p.store(Reg(2), Reg(1), 0);
            p.load(Reg(3), Reg(1), 8);
        }
        p.halt();
        p.build()
    };
    let mut programs = vec![spinner, walker];
    for c in 2..16u64 {
        let mut p = Program::builder();
        if c >= 9 {
            p.imm(Reg(1), 0x8_0000 + c * 0x40);
            p.imm(Reg(2), (c << 32) | 1);
            p.store(Reg(2), Reg(1), 0);
        }
        p.halt();
        programs.push(p.build());
    }
    let w = Workload::new("spin-beside-wedge", programs);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(16)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(5)
        .with_jitter(25)
        .with_fault(FaultPlan::drop_everywhere(1, 12))
        .without_event_log();
    cfg.network.link.rto_min = 40_000;
    cfg.network.link.rto_max = 40_000;
    cfg.stall_window = 625;
    assert_eq!(cfg.effective_stall_window(), 2500);
    let dense = assert_same_wedge("spin beside wedge", &cfg, &w, 8_000_000);
    let report = dense.outcome.wedge_report().expect("wedged");
    let stalled: Vec<u16> = report.stalled_cores.iter().map(|&(c, _)| c).collect();
    assert!(stalled.contains(&1), "the walker must be reported stalled: {stalled:?}");
    assert!(!stalled.contains(&0), "the spinner retires every few cycles: {stalled:?}");
    assert!(
        stalled.iter().all(|&c| c == 1 || c >= 9),
        "cores 2-8 halt at once and must have drained: {stalled:?}"
    );
    assert!(dense.retired > 1000, "the spinner must have kept retiring ({})", dense.retired);
}

/// A typed fault that predates the run — here a snapshot whose cache 0
/// already carries one — is reported by every engine on the first
/// executed cycle, with equal reports. (The post-tick fault check only
/// looks at the units a cycle visited; the first check of a run looks
/// at all of them.)
///
/// No run can produce such a snapshot (a fault ends the run that raises
/// it, and the protocol has no known way to raise one), so the cell
/// builds it by surgery: it walks the snapshot of a healthy machine up
/// to cache 0 with the component crates' own `restore`, feeds that cache
/// a message it can only answer with a fault, and splices its bytes
/// back. The walk mirrors the order of `System::snapshot` (layout,
/// fingerprint, cycle, mesh, cores, caches). Stays in Rust: its
/// programs are written here, and its snapshot is spliced.
#[test]
fn a_restored_fault_is_reported_on_the_first_cycle() {
    // Busy at the snapshot cycle (every core is inside its nop stretch),
    // so no engine jumps before it executes that cycle.
    let programs: Vec<Program> = (0..4u64)
        .map(|c| {
            let mut p = Program::builder();
            p.imm(Reg(1), 0x1000 + c * 0x440);
            p.imm(Reg(2), (c << 32) | 1);
            p.store(Reg(2), Reg(1), 0);
            p.nops(3000);
            p.halt();
            p.build()
        })
        .collect();
    let w = Workload::new("restored-fault", programs);
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(9)
        .with_jitter(25);
    let mut healthy = System::new(cfg.clone(), &w);
    assert_eq!(healthy.run(300), RunOutcome::Budget);
    let snap = healthy.snapshot();

    let mut r = wb_kernel::snap::open(&snap).expect("own snapshot");
    r.u16().expect("layout");
    r.str().expect("fingerprint");
    let now = r.u64().expect("cycle");
    let net = &cfg.network;
    let mut mesh: Mesh<(Dest, ProtoMsg)> =
        Mesh::new(net.mesh_width, net.mesh_height, 4, net.hop_cycles, net.jitter, cfg.seed);
    mesh.restore(&mut r).expect("mesh");
    assert_eq!(r.usize().expect("core count"), 4);
    let mut cores: Vec<Core> = (0..4)
        .map(|i| {
            let program = w.programs[i].clone();
            Core::with_event_log(NodeId(i as u16), cfg.core.clone(), cfg.protocol, program, cfg.record_events)
        })
        .collect();
    for c in &mut cores {
        c.restore(&mut r).expect("core");
    }
    assert_eq!(r.usize().expect("cache count"), 4);
    let start = snap.len() - r.remaining();
    let home = HomeMap::new(4, cfg.memory.dir_banks_per_node);
    let mut cache = PrivateCache::new(NodeId(0), home, &cfg.memory, cfg.protocol);
    cache.restore(&mut r).expect("cache 0");
    let end = snap.len() - r.remaining();
    let stray =
        ProtoMsg::FwdGetS { line: LineAddr(0x7777), requester: NodeId(1), kind: ReadKind::Cacheable };
    cache.handle_msg(now, stray, &mut cores[0]);
    assert!(cache.fault().is_some(), "a forward for a line it does not own must fault the cache");
    let mut wounded = wb_kernel::SnapWriter::new();
    cache.snap(&mut wounded);
    let faulty = [&snap[..start], &wounded.into_bytes(), &snap[end..]].concat();

    let run = |engine: EngineMode| {
        let mut sys = System::new(cfg.clone().with_engine(engine), &w);
        sys.restore(&faulty).expect("spliced snapshot restores");
        let outcome = sys.run(1_000_000);
        neutralize_engine(Observed {
            outcome,
            final_cycle: sys.now(),
            retired: sys.total_retired(),
            stats_json: sys.report().stats.to_json(),
            trace: Vec::new(),
        })
    };
    let dense = run(EngineMode::Dense);
    assert!(matches!(dense.outcome, RunOutcome::Fault(_)), "got {}", dense.outcome);
    assert_eq!(dense.final_cycle, now + 1, "the fault is reported after the first executed cycle");
    let report = dense.outcome.wedge_report().expect("fault report");
    assert_eq!(report.class, WedgeClass::ProtocolFault);
    for engine in [EngineMode::Sparse, EngineMode::SparseVerify] {
        assert_eq!(dense, run(engine), "restored fault diverged under {engine:?}");
    }
}

/// Budget exhaustion lands on the same cycle with the same partial
/// stats: `splash::fft(4, ..)` on a 16-core mesh (stays in Rust, as the
/// barrier kernel).
#[test]
fn budget_exhaustion_is_cycle_exact() {
    let w = splash::fft(4, Scale::Test);
    let cfg =
        SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::OutOfOrderWb).without_event_log();
    let dense = run_with(EngineMode::Dense, &cfg, &w, 3_000, false);
    assert_eq!(dense.outcome, RunOutcome::Budget, "budget must run out in 3k cycles");
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 3_000, false);
    assert_eq!(dense, sparse, "budget cell diverged under Sparse");
}

/// On the barrier kernel (busy spinners, little to jump) skipping cycles
/// must change nothing while dense ticking visits every one of them:
/// `splash::fft(2, ..)` on a 16-core mesh (stays in Rust, as above).
#[test]
fn skip_engine_reaches_the_same_done_cycle() {
    let w = splash::fft(2, Scale::Test);
    let cfg =
        SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::InOrder).without_event_log();
    let dense = run_with(EngineMode::Dense, &cfg, &w, 10_000_000, false);
    assert_eq!(dense.outcome, RunOutcome::Done);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 10_000_000, false);
    assert_eq!(dense, sparse);
}

/// Timeline sampling is part of the equivalence contract: the periodic
/// sampler's next deadline is one the sparse jump never crosses, so the
/// engine lands every sample on exactly the dense cycle and the
/// exported window deltas are byte-identical, as are the traced
/// records. Pinned on a traced chaos cell, the adversarial shape for
/// deadline bookkeeping.
#[test]
fn timeline_sampling_is_cycle_exact() {
    let (cell, cfg, w) = one("timeline-chaos");
    let run = |engine: EngineMode| {
        let mut sys = System::new(cfg.clone().with_engine(engine), &w);
        sys.set_trace(TraceFilter::all());
        sys.enable_timeline(500);
        let outcome = sys.run(cell.budget);
        (outcome, sys.now(), sys.timeline_jsonl(), sys.collect_trace())
    };
    let (d_out, d_cycle, d_jsonl, d_trace) = run(EngineMode::Dense);
    assert!(
        d_jsonl.lines().count() >= 4,
        "cell must actually emit timeline windows, got:\n{d_jsonl}"
    );
    assert!(!d_trace.is_empty(), "cell must actually record trace events");
    // The sparse engine must land every sample on the dense cycle with
    // fully charged idle counters, even for cores asleep at the sample;
    // the verify engine visits everything while checking every sleep
    // claim, and the sampler's deadline must survive that too.
    for engine in [EngineMode::Sparse, EngineMode::SparseVerify] {
        let (out, cycle, jsonl, trace) = run(engine);
        assert_eq!(d_out, out, "{engine:?} timeline chaos cell outcome diverged");
        assert_eq!(d_cycle, cycle, "{engine:?} timeline chaos cell final cycle diverged");
        assert_eq!(d_jsonl, jsonl, "{engine:?} timeline JSONL diverged from Dense");
        assert_eq!(d_trace, trace, "{engine:?} traced records diverged from Dense");
    }
}
