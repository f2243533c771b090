//! Observability integration tests: trace determinism and balanced
//! lockdown / WritersBlock windows, the ring-buffer dump on a
//! TSO-checker failure, and the tracing-off-by-default guarantee.

use writersblock::prelude::*;
use wb_kernel::TraceEvent;
use writersblock::{RunOutcome, System};

fn mp_cfg(seed: u64) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_cores(2)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(seed)
        .with_jitter(30)
}

/// An mp litmus run with full tracing enabled.
fn traced_mp_run(seed: u64) -> System {
    let litmus = wb_tso::litmus::mp();
    let mut sys = System::new(mp_cfg(seed), &litmus.workload);
    sys.set_trace(TraceFilter::all());
    assert_eq!(sys.run(200_000), RunOutcome::Done);
    sys
}

#[test]
fn trace_is_deterministic() {
    let a = traced_mp_run(3).collect_trace();
    let b = traced_mp_run(3).collect_trace();
    assert_eq!(a, b, "same seed must give identical records");
}

#[test]
fn traced_run_is_busy_and_balanced() {
    let records = traced_mp_run(1).collect_trace();
    assert!(records.len() > 20, "expected a busy trace, got {} records", records.len());
    // A drained run releases every lockdown and WritersBlock window it
    // began.
    let count = |want: fn(&TraceEvent) -> bool| records.iter().filter(|r| want(&r.event)).count();
    assert_eq!(
        count(|e| matches!(e, TraceEvent::LockdownBegin { .. })),
        count(|e| matches!(e, TraceEvent::LockdownEnd { .. })),
        "unbalanced lockdowns"
    );
    assert_eq!(
        count(|e| matches!(e, TraceEvent::WritersBlockBegin { .. })),
        count(|e| matches!(e, TraceEvent::WritersBlockEnd { .. })),
        "unbalanced WritersBlock windows"
    );
}

#[test]
fn checker_failure_dumps_ring_buffer() {
    // Two stores of the same value to one location make `rf` ambiguous —
    // the sanctioned way to force the checker red on a correct machine.
    let mut b = Program::builder();
    b.imm(Reg(1), 0x1000).imm(Reg(2), 7);
    b.store(Reg(2), Reg(1), 0);
    b.store(Reg(2), Reg(1), 0);
    b.load(Reg(3), Reg(1), 0);
    b.halt();
    let workload = Workload::new("dup-store", vec![b.build()]);
    let cfg = SystemConfig::new(CoreClass::Slm).with_cores(1);
    let mut sys = System::new(cfg, &workload);
    sys.set_trace(TraceFilter::all());
    sys.set_trace_sink(TraceSink::Capture(Vec::new()));
    assert_eq!(sys.run(2_000_000), RunOutcome::Done);
    assert!(sys.check_tso().is_err(), "duplicate store values must fail the checker");
    let lines = sys.take_sink_lines();
    assert!(lines.iter().any(|l| l.contains("TSO check FAILED")), "{lines:?}");
    let line_tag = format!("line {:#x}", Addr(0x1000).line().0);
    assert!(
        lines.iter().any(|l| l.contains(&line_tag)),
        "dump should show events for the offending {line_tag}: {lines:?}"
    );
}

#[test]
fn tracing_is_off_by_default() {
    let litmus = wb_tso::litmus::mp();
    let mut sys = System::new(mp_cfg(2), &litmus.workload);
    assert_eq!(sys.run(200_000), RunOutcome::Done);
    assert!(sys.collect_trace().is_empty(), "untraced run must record nothing");
}
