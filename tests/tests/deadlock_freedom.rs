//! Deadlock-freedom regressions for the scenarios of Figure 5 and the
//! general guarantees of Section 3.5: SoS loads can never be blocked, so
//! lockdowns always lift and blocked writes always complete.

use wb_integration::{built, spec};
use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{CommitMode, CoreClass, MemoryConfig, SystemConfig};
use wb_kernel::trace::{TraceFilter, TraceSink};
use wb_kernel::wedge::{WaitParty, WedgeClass};
use wb_mem::Addr;
use wb_workloads::directed;
use writersblock::spec::{cells, CampaignSpec};
use writersblock::{Failure, RunOutcome, System};

/// The aggressive config for the Figure 5.A workload
/// ([`directed::racing`], eleven cold lines): the tiny-LLC machine.
/// Stays in Rust: it runs the workload's three programs on four cores.
fn dir_evict_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(seed)
        .with_jitter(20);
    cfg.memory = MemoryConfig::tiny_llc();
    cfg
}

/// Figure 5.A flavour: force directory evictions (tiny LLC) while
/// lockdowns are active — parked WritersBlock entries must not block the
/// SoS loads that resolve to conflicting directory sets.
#[test]
fn dir_eviction_under_lockdowns() {
    let w = directed::racing(11);
    for seed in 0..10u64 {
        System::new(dir_evict_cfg(seed), &w).verify(3_000_000).assert_pass("dir eviction");
    }
}

/// The same eviction-buffer pressure with the `wb_entry_squeeze` chaos
/// plan stretching the §3.5.1 window (slow responses + forwards keep
/// WritersBlock entries parked longer). Must still always drain.
#[test]
fn dir_eviction_under_chaos_squeeze() {
    let w = directed::racing(11);
    for seed in 0..4u64 {
        let cfg = dir_evict_cfg(seed).with_chaos(ChaosPlan::wb_entry_squeeze());
        System::new(cfg, &w).verify(8_000_000).assert_pass("dir eviction under chaos");
    }
}

/// Every cell of the spec named `name` must drain — through
/// `System::verify`, TSO check included, where the cell keeps the event
/// log — then `check` looks at the finished system.
fn all_drain(name: &str, check: impl Fn(&str, &System)) {
    for (cell, cfg, w) in built(&spec(name)) {
        let verify = cfg.record_events;
        let mut sys = System::new(cfg, &w);
        if verify {
            sys.verify(cell.budget).assert_pass(&cell.id);
        } else {
            assert_eq!(sys.run(cell.budget), RunOutcome::Done, "{}", cell.id);
        }
        check(&cell.id, &sys);
    }
}

/// Figure 5.B flavour: an SoS load resolving into the cacheline of a
/// blocked write must bypass the write's MSHR via a tear-off read.
#[test]
fn sos_load_bypasses_blocked_write() {
    // The load after the store must see the store's value (po-loc).
    all_drain("sos-bypass", |id, sys| assert_eq!(sys.arch_reg(1, Reg(7)), 1, "{id}: store-to-load order broken"));
}

/// Figure 5.B crossed over two cores and two lines
/// ([`directed::cross_sos`]): each core's write is blocked by the other's
/// lockdown, and each lockdown lifts only when that core's SoS load —
/// waiting on its own blocked write's MSHR while an older read makes the
/// line readable — binds the hit its bypass finds. On every WritersBlock
/// arm, with and without network jitter, the machine must drain.
#[test]
fn crossed_sos_loads_bind_their_bypass_hits() {
    all_drain("cross-sos", |_, _| ());
}

/// The same bypass scenario with directed chaos: while any lockdown is
/// live, every response-network message is stalled 300 cycles. The
/// tear-off escape hatch must still drain the machine (§3.5).
#[test]
fn sos_bypass_under_lockdown_vnet_stall() {
    all_drain("sos-bypass-stalled", |id, sys| assert_eq!(sys.arch_reg(1, Reg(7)), 1, "{id}: po-loc broken"));
}

/// Spin loops + locks + atomics + WritersBlock must never deadlock
/// (Section 3.7: no lockdowns past atomics).
#[test]
fn locks_and_atomics_never_deadlock() {
    all_drain("spinlock", |id, sys| assert_eq!(sys.memory_word(wb_tso::litmus::X), 8, "{id}: lost update"));
}

/// The deadlock detector itself must stay quiet across the whole
/// workload suite under the most aggressive configuration.
#[test]
fn suite_smoke_ooo_wb() {
    all_drain("suite-wb-ooo", |_, _| ());
}

/// Every benchmark, every commit mode, bigger core classes too.
#[test]
fn suite_smoke_all_modes_nhm() {
    all_drain("suite-nhm", |_, _| ());
}

/// Branch-y code under WritersBlock with unresolved addresses: the
/// reorder-over-unresolved-address case of Section 2 must be safe.
/// Stays in Rust: its programs are written here.
#[test]
fn unresolved_address_reordering_safe() {
    let x = 0x1000u64;
    let y = 0x2040u64;
    // Reader: address of the older load comes from a (slow) chain; the
    // younger load commits OoO over it.
    let mut p0 = Program::builder();
    p0.imm(Reg(1), x).imm(Reg(2), y).imm(Reg(6), 1);
    p0.load(Reg(5), Reg(1), 0);
    for _ in 0..30 {
        p0.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p0.alui(AluOp::Mul, Reg(6), Reg(6), 0);
    p0.alu(AluOp::Add, Reg(7), Reg(2), Reg(6)); // r7 = &y only after the chain
    p0.load(Reg(3), Reg(7), 0);
    p0.load(Reg(4), Reg(1), 0);
    p0.halt();
    let mut p1 = Program::builder();
    p1.imm(Reg(1), x).imm(Reg(2), y).imm(Reg(3), 1);
    p1.store(Reg(3), Reg(1), 0).store(Reg(3), Reg(2), 0).halt();
    let (prog0, prog1) = (p0.build(), p1.build());
    for seed in 0..30u64 {
        let w = Workload::new("unresolved", vec![prog0.clone(), prog1.clone()]);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(2)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_seed(seed)
            .with_jitter(25);
        let mut sys = System::new(cfg, &w);
        sys.verify(1_000_000).assert_pass("unresolved address");
        let (ra, rb) = (sys.arch_reg(0, Reg(3)), sys.arch_reg(0, Reg(4)));
        assert!(!(ra == 1 && rb == 0), "seed {seed}: forbidden outcome over unresolved address");
    }
}

// ---------------------------------------------------------------------------
// Wedge diagnosis: force the known §3.4 Option-1 pathology and check the
// watchdog names it correctly — and deterministically.
// ---------------------------------------------------------------------------

/// `campaigns/option1_spin.json`: [`directed::option1_spin`] with
/// Option 1 switched on, without jitter — a livelock by design.
fn option1_spin() -> System {
    let spec = CampaignSpec::parse(include_str!("../../campaigns/option1_spin.json")).expect("option1_spin spec");
    spec.system(&cells(&spec)[0])
}

/// Forcing the known §3.4 wedge yields a report with the right class
/// and the right participants: the starving writer and the hot line.
#[test]
fn option1_livelock_is_diagnosed() {
    let mut sys = option1_spin();
    sys.set_trace_sink(TraceSink::Capture(Vec::new()));
    let verdict = sys.verify(150_000);
    let sink_lines = sys.take_sink_lines();
    let Some(Failure::Wedge(rep)) = verdict.failure() else {
        panic!("Option 1 under spin-readers must wedge: {verdict}");
    };
    // The verdict's dedup key is the wedge report's own.
    assert_eq!(verdict.signature(), Some(rep.signature()));
    assert_eq!(rep.class, WedgeClass::Livelock, "wrong class:\n{rep}");
    assert!(rep.retries_in_window >= 16, "no retry storm:\n{rep}");
    // The starving writer (core 1) and the contested line are named.
    assert!(rep.involves(WaitParty::Core(1)), "writer not named:\n{rep}");
    assert!(rep.involves(WaitParty::Line(Addr::new(directed::X).line().0)), "hot line not named:\n{rep}");
    assert!(rep.stalled_cores.iter().any(|&(c, _)| c == 1), "writer not stalled:\n{rep}");
    assert!(rep.reproducer.contains("\"option1\":true"), "reproducer incomplete:\n{rep}");
    assert!(rep.reproducer.contains("\"chaos\":[\"off\"]"), "chaos state missing:\n{rep}");
    // The report reached the sink too (that is what users see).
    assert!(
        sink_lines.iter().any(|l| l.contains("livelock")),
        "report not emitted: {sink_lines:?}"
    );
}

/// A traced wedge comes with each participant line's last events as
/// text through the sink, as a red checker does, and writes no file:
/// no note in the report names a host path.
#[test]
fn traced_wedge_dumps_participant_lines() {
    let mut sys = option1_spin();
    sys.set_trace(TraceFilter::all());
    sys.set_trace_sink(TraceSink::Capture(Vec::new()));
    let verdict = sys.verify(150_000);
    let Some(Failure::Wedge(rep)) = verdict.failure() else {
        panic!("traced run returned {verdict}");
    };
    let lines = sys.take_sink_lines();
    let x = Addr::new(directed::X).line().0;
    let header = format!("last 64 traced events for line {x:#x}:");
    let at = lines
        .iter()
        .position(|l| *l == header)
        .unwrap_or_else(|| panic!("no dump for the hot line: {lines:?}"));
    let tag = format!("line {x:#x}");
    assert!(
        lines.get(at + 1).is_some_and(|l| l.contains(&tag)),
        "dump header not followed by a record on {tag}: {lines:?}"
    );
    for n in &rep.notes {
        assert!(!n.contains('/') && !n.contains(".json"), "note names a path: {n}");
    }
}

/// The per-line retry pressure behind a wedge must land in the stats
/// histograms: `nack_retries` (re-invalidation rounds per line) from
/// the livelock run, `tearoff_reads_served` from the SoS bypass run.
#[test]
fn wedge_pressure_lands_in_histograms() {
    let mut sys = option1_spin();
    let _ = sys.verify(150_000);
    let r = sys.report();
    let nacks = r.stats.hist("nack_retries").expect("nack_retries histogram missing");
    assert!(nacks.max() >= 16, "livelock retry storm not visible per line: max {}", nacks.max());

    // An SoS load on a *different word* of the blocked-write line: SB
    // forwarding cannot serve it, so it must go out as a tear-off read
    // (a same-word load would be store-forwarded and never reach the
    // directory). Whether a given seed's timing sets up the blocked
    // write varies; at least one in the scan must record a serve. The
    // programs are written here, and run on the `sos-bypass` machines.
    let x = 0x1000u64;
    let mut p0 = Program::builder();
    p0.imm(Reg(1), x).imm(Reg(2), 0x3080).imm(Reg(6), 1);
    p0.load(Reg(5), Reg(1), 0);
    for _ in 0..60 {
        p0.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p0.load(Reg(9), Reg(2), 0);
    p0.load(Reg(3), Reg(9), 0);
    p0.load(Reg(4), Reg(1), 0); // lockdown on x
    p0.halt();
    let mut p1 = Program::builder();
    p1.imm(Reg(1), x).imm(Reg(3), 1).imm(Reg(6), 1);
    for _ in 0..50 {
        p1.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p1.store(Reg(3), Reg(1), 0); // blocked by core 0's lockdown
    p1.load(Reg(7), Reg(1), 8); // SoS load, same line, other word
    p1.halt();
    let w = Workload::new("sos-other-word", vec![p0.build(), p1.build()]).with_init(Addr::new(0x3080), 0x2040);
    let served = built(&spec("sos-bypass")).into_iter().any(|(cell, cfg, _)| {
        let mut sys = System::new(cfg, &w);
        assert_eq!(sys.run(cell.budget), RunOutcome::Done, "{}", cell.id);
        sys.report().stats.hist("tearoff_reads_served").is_some_and(|h| h.count() >= 1)
    });
    assert!(served, "no seed in 0..20 recorded a tearoff_reads_served sample");
}

/// The same (seed, config, plan) must produce a byte-identical report —
/// wedge diagnosis is part of the deterministic surface.
#[test]
fn wedge_reports_are_deterministic() {
    let run = || {
        let mut sys = option1_spin();
        sys.set_trace_sink(TraceSink::Capture(Vec::new()));
        let verdict = sys.verify(150_000);
        (verdict, sys.take_sink_lines())
    };
    let ((verdict_a, sink_a), (verdict_b, sink_b)) = (run(), run());
    assert!(!verdict_a.passed(), "Option 1 under spin-readers must wedge");
    assert_eq!(verdict_a, verdict_b, "structured verdict diverged");
    assert_eq!(verdict_a.to_string(), verdict_b.to_string(), "rendered report diverged");
    assert_eq!(sink_a, sink_b, "sink output diverged");
}
