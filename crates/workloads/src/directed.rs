//! Directed workloads for the deadlock-freedom windows of Figure 5 and
//! the §3.4 Option-1 pathology. Each sets up one specific race by
//! construction; the tests and labs that drive them choose the seed,
//! the chaos/fault/soft plan and the machine.

use wb_isa::{AluOp, Cond, Program, Reg, Workload};
use wb_mem::Addr;

/// The contested address in every workload of this module.
pub const X: u64 = 0x1000;
const Y: u64 = 0x2040;
/// Pointer chain `Z1 -> Z2 -> Z3` in distinct lines, each link a miss.
const Z1: u64 = 0x3080;
const Z2: u64 = 0x4100;
const Z3: u64 = 0x5140;

/// Figure 5.A: two readers and a writer racing on the hot line [`X`]
/// while the readers chase through `colds` cold lines (stride 0x4000,
/// so they conflict in the directory sets) and re-read the hot line out
/// of order after each — lockdowns on `X` while directory entries are
/// allocated and evicted underneath. Named `fig5a-racing-<colds>`.
pub fn racing(colds: u64) -> Workload {
    let reader = {
        let mut p = Program::builder();
        p.imm(Reg(1), X);
        p.load(Reg(5), Reg(1), 0); // warm the hot line
        for i in 0..colds {
            p.imm(Reg(2), X + (i + 1) * 0x4000);
            p.load(Reg(3), Reg(2), 0);
            p.load(Reg(4), Reg(1), 0); // reordered hot read -> lockdowns
            p.alui(AluOp::Add, Reg(6), Reg(6), i);
        }
        p.halt();
        p.build()
    };
    let mut writer = Program::builder();
    writer.imm(Reg(1), X).imm(Reg(3), 1).imm(Reg(6), 1);
    for _ in 0..40 {
        writer.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    writer.store(Reg(3), Reg(1), 0);
    writer.halt();
    Workload::new(format!("fig5a-racing-{colds}"), vec![reader.clone(), writer.build(), reader])
}

/// Figure 5.B: core 0 holds a lockdown on [`X`] behind a pointer chase;
/// core 1 writes `X` (blocked by the lockdown), then its SoS load
/// targets the same line and must bypass the write's MSHR with a
/// tear-off read. Core 1's `r7` ends as 1 (the load sees its own store).
pub fn sos_bypass() -> Workload {
    let mut p0 = Program::builder();
    p0.imm(Reg(1), X).imm(Reg(2), Z1).imm(Reg(6), 1);
    p0.load(Reg(5), Reg(1), 0);
    for _ in 0..60 {
        p0.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p0.load(Reg(9), Reg(2), 0); // z1 -> z2
    p0.load(Reg(9), Reg(9), 0); // z2 -> y
    p0.load(Reg(3), Reg(9), 0); // ld y: long non-performed
    p0.load(Reg(4), Reg(1), 0); // ld x: lockdown
    p0.halt();

    let mut p1 = Program::builder();
    p1.imm(Reg(1), X).imm(Reg(3), 1).imm(Reg(6), 1);
    for _ in 0..50 {
        p1.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p1.store(Reg(3), Reg(1), 0); // write x: blocked by core 0's lockdown
    p1.load(Reg(7), Reg(1), 0); // SoS load on the SAME line as the write
    p1.halt();

    Workload::new("fig5b-sos-bypass", vec![p0.build(), p1.build()])
        .with_init(Addr::new(Z1), Z2)
        .with_init(Addr::new(Z2), Y)
}

/// Figure 5.B in a two-core, two-line cross: core 0 writes `X` and
/// then reads it, with a warm read of `Y` youngest; core 1 is the mirror
/// image on `Y`. Each warm read performs early and locks its line down,
/// so each write is blocked by the other core's lockdown, and each
/// lockdown lifts only when that core's SoS load — the read of its own
/// written line — performs.
///
/// The timing is set by construction, not by jitter: a chain of
/// multiplies releases three address computations one cycle apart. An
/// older read of the written line issues first (a Read MSHR), the store
/// commits and requests write permission next (a Write MSHR), and the
/// SoS load issues last, so it waits on the write's MSHR. The older
/// read's fill then makes the line readable while the SoS load still
/// waits on the blocked write: the SoS bypass finds the line readable
/// and must bind that hit (§3.5.2), or neither write ever completes.
pub fn cross_sos() -> Workload {
    let core = |c: u64, mine: u64, other: u64| {
        let mut p = Program::builder();
        p.imm(Reg(1), mine).imm(Reg(2), other).imm(Reg(3), ((c + 1) << 32) | 1).imm(Reg(6), 1);
        p.load(Reg(4), Reg(2), 0); // warm the other core's line
        for _ in 0..80 {
            p.alui(AluOp::Mul, Reg(6), Reg(6), 1);
        }
        p.alui(AluOp::Mul, Reg(6), Reg(6), 0);
        p.alu(AluOp::Add, Reg(9), Reg(1), Reg(6)); // released first
        p.alu(AluOp::Add, Reg(10), Reg(9), Reg(6)); // one cycle later
        p.store(Reg(3), Reg(10), 0); // st mine.w0: blocked by the other's lockdown
        p.load(Reg(5), Reg(9), 16); // ld mine.w2: the Read MSHR
        p.alu(AluOp::Add, Reg(11), Reg(10), Reg(6));
        p.alui(AluOp::Mul, Reg(11), Reg(11), 1); // released last
        p.load(Reg(7), Reg(11), 8); // ld mine.w1: the SoS load, on the Write MSHR
        p.load(Reg(8), Reg(2), 8); // ld other.w1: warm, locks the other's line down
        p.halt();
        p.build()
    };
    Workload::new("cross-sos", vec![core(0, X, Y), core(1, Y, X)])
}

/// Core 0 of both §3.4 workloads: warm [`X`], then commit `ld x` (a warm
/// hit, so a long-lived lockdown) over a pointer-chased `ld y` that stays
/// non-performed for four dependent miss latencies.
fn option1_holder() -> Program {
    let mut p0 = Program::builder();
    p0.imm(Reg(1), X).imm(Reg(2), Z1).imm(Reg(6), 1);
    p0.load(Reg(5), Reg(1), 0); // warm x
    for _ in 0..70 {
        p0.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p0.load(Reg(9), Reg(2), 0); // chase: z1 -> z2 -> z3 -> &y
    p0.load(Reg(9), Reg(9), 0);
    p0.load(Reg(9), Reg(9), 0);
    p0.load(Reg(3), Reg(9), 0); // ld y: non-performed for ~4 miss latencies
    p0.load(Reg(4), Reg(1), 0); // ld x: warm hit, long-lived lockdown
    p0.halt();
    p0.build()
}

/// A §3.4 workload: [`option1_holder`] on core 0, then `others`, over
/// the pointer chain `Z1 -> Z2 -> Z3 -> Y`.
fn option1_workload(name: &str, others: impl IntoIterator<Item = Program>) -> Workload {
    let progs = std::iter::once(option1_holder()).chain(others).collect();
    Workload::new(name, progs)
        .with_init(Addr::new(Z1), Z2)
        .with_init(Addr::new(Z2), Z3)
        .with_init(Addr::new(Z3), Y)
}

/// The §3.4 scenario with *unbounded* spin-readers on eight cores:
/// core 0 locks down [`X`] behind a pointer chase, core 1 writes `X`,
/// cores 2..8 spin-read `X` forever. Under Option 1 (cacheable
/// WritersBlock reads, `wb_cacheable_reads`) the directory
/// re-invalidates the spinners round after round and the write starves
/// — the livelock the paper rejects Option 1 for. The spinners keep
/// retiring, so a global retired-sum watchdog would never trip; the
/// per-core watchdog must trip on the writer.
///
/// Each re-invalidation round only targets the readers admitted during
/// the previous round, so a spinner whose re-read misses one round
/// window keeps its S copy and drops out of the game for good — simple
/// spin loops therefore let the rounds die out. The spinners here walk
/// `X` plus eight lines that conflict with it in their L1/L2 set
/// (stride 0x4000 covers both geometries), so every pass evicts `X` and
/// forces a fresh cacheable GetS: dropped-out readers re-enter within
/// one loop iteration and the rounds chain indefinitely.
pub fn option1_spin() -> Workload {
    let mut p1 = Program::builder();
    p1.imm(Reg(1), X).imm(Reg(3), 1).imm(Reg(6), 1);
    for _ in 0..110 {
        p1.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p1.alu(AluOp::Add, Reg(3), Reg(3), Reg(6));
    p1.store(Reg(3), Reg(1), 0); // the write that starves
    p1.halt();

    let spinner = || {
        let mut p = Program::builder();
        p.imm(Reg(2), 0).imm(Reg(3), u64::MAX);
        let top = p.here();
        for k in 0..9u64 {
            p.imm(Reg(5), X + k * 0x4000); // x + 8 set-conflicting lines
            p.load(Reg(4), Reg(5), 0);
        }
        p.alui(AluOp::Add, Reg(2), Reg(2), 1);
        p.branch(Cond::Lt, Reg(2), Reg(3), top); // spin forever
        p.halt();
        p.build()
    };
    option1_workload("option1-spin", std::iter::once(p1.build()).chain((2..8).map(|_| spinner())))
}

/// The §3.4 scenario with *bounded* spin-readers on `cores` cores, for
/// the Option 1 vs Option 2 ablation: core 0 as in [`option1_spin`];
/// core 1 writes `X` then `Y` after a delay, so its invalidation lands
/// inside core 0's lockdown window; cores 2.. spin-read `X`
/// `spin_iters` times and halt, so both options finish.
pub fn option1_bounded(cores: usize, spin_iters: u64) -> Workload {
    let mut p1 = Program::builder();
    p1.imm(Reg(1), X).imm(Reg(2), Y).imm(Reg(3), 1).imm(Reg(6), 1);
    for _ in 0..110 {
        p1.alui(AluOp::Mul, Reg(6), Reg(6), 1);
    }
    p1.alu(AluOp::Add, Reg(3), Reg(3), Reg(6)); // data depends on the delay
    p1.store(Reg(3), Reg(1), 0).store(Reg(3), Reg(2), 0).halt();

    let spinner = || {
        let mut p = Program::builder();
        p.imm(Reg(1), X).imm(Reg(2), 0).imm(Reg(3), spin_iters);
        let top = p.here();
        p.load(Reg(4), Reg(1), 0);
        p.alui(AluOp::Add, Reg(2), Reg(2), 1);
        p.branch(Cond::Lt, Reg(2), Reg(3), top);
        p.halt();
        p.build()
    };
    option1_workload(
        "option1_livelock",
        std::iter::once(p1.build()).chain((2..cores).map(|_| spinner())),
    )
}
