//! Code-generation helpers shared by the workload kernels.
//!
//! A thin layer over [`ProgramBuilder`] providing counted loops,
//! spinlocks, sense-free central barriers, and a register-resident LCG
//! for pseudo-random access patterns — the building blocks of every
//! synthetic kernel.

use wb_isa::{AluOp, Cond, ProgramBuilder, Reg};

/// Register conventions: r1-r15 are kernel scratch, the rest is reserved
/// by the helpers below.
pub mod regs {
    use wb_isa::Reg;
    /// Constant 1.
    pub const ONE: Reg = Reg(20);
    /// Number of cores.
    pub const NCORES: Reg = Reg(21);
    /// Barrier counter address.
    pub const BAR_ADDR: Reg = Reg(22);
    /// Barrier target (grows by NCORES each barrier).
    pub const BAR_TARGET: Reg = Reg(23);
    /// Sync scratch.
    pub const SYNC_T0: Reg = Reg(24);
    /// Sync scratch.
    pub const SYNC_T1: Reg = Reg(25);
    /// This core's id.
    pub const CORE_ID: Reg = Reg(28);
    /// LCG state.
    pub const LCG: Reg = Reg(29);
    /// Loop counters (nestable).
    pub const LOOP0: Reg = Reg(30);
    /// Inner loop counter.
    pub const LOOP1: Reg = Reg(31);
}

/// Shared memory layout used by every kernel. All bases are line- and
/// bank-spread so traffic distributes across the 16 directory banks.
pub mod layout {
    /// Central barrier counter.
    pub const BARRIER: u64 = 0x8000;
    /// Lock array: lock `i` lives at `LOCKS + i * 0x40` (one per line).
    pub const LOCKS: u64 = 0x9000;
    /// Shared data region.
    pub const SHARED: u64 = 0x100_000;
    /// Second shared region (histograms, accumulators).
    pub const SHARED2: u64 = 0x200_000;
    /// Per-core private region (64 KiB apart).
    pub fn private(core: usize) -> u64 {
        0x1_000_000 + (core as u64) * 0x10_000
    }
    /// Address of lock `i`.
    pub fn lock(i: u64) -> u64 {
        LOCKS + i * 0x40
    }
}

/// A per-core program generator.
pub struct Gen {
    /// The underlying builder (escape hatch for kernel-specific code).
    pub p: ProgramBuilder,
    core: usize,
    ncores: usize,
}

impl Gen {
    /// Start a program for `core` of `ncores`, with the helper registers
    /// initialized (constants, barrier bookkeeping, LCG seed).
    pub fn new(core: usize, ncores: usize, seed: u64) -> Self {
        let mut p = ProgramBuilder::new();
        p.imm(regs::ONE, 1);
        p.imm(regs::NCORES, ncores as u64);
        p.imm(regs::BAR_ADDR, layout::BARRIER);
        p.imm(regs::BAR_TARGET, 0);
        p.imm(regs::CORE_ID, core as u64);
        p.imm(regs::LCG, seed | 1);
        Gen { p, core, ncores }
    }

    /// This program's core index.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Core count of the workload.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// Emit a counted loop running `body` `n` times, using `counter` as
    /// the induction register (starts at 0, increments by 1).
    pub fn loop_n(&mut self, counter: Reg, n: u64, body: impl FnOnce(&mut Gen)) {
        self.p.imm(counter, 0);
        let top = self.p.here();
        body(self);
        self.p.alui(AluOp::Add, counter, counter, 1);
        let limit = regs::SYNC_T1;
        self.p.imm(limit, n);
        self.p.branch(Cond::Lt, counter, limit, top);
    }

    /// Emit a central barrier: `fetch_add(barrier, 1)`, then spin until
    /// the counter reaches the next multiple of `ncores`.
    pub fn barrier(&mut self) {
        let (t0, _t1) = (regs::SYNC_T0, regs::SYNC_T1);
        self.p.alu(AluOp::Add, regs::BAR_TARGET, regs::BAR_TARGET, regs::NCORES);
        self.p.amo_add(t0, regs::BAR_ADDR, 0, regs::ONE);
        let spin = self.p.here();
        self.p.load(t0, regs::BAR_ADDR, 0);
        self.p.branch(Cond::Lt, t0, regs::BAR_TARGET, spin);
    }

    /// Acquire the spinlock whose address is in `addr_reg`.
    ///
    /// Test-and-test-and-set: spin on a plain load (keeping the line
    /// shared among waiters) and only attempt the atomic swap when the
    /// lock was observed free — the standard contention-friendly idiom,
    /// and the one that exercises the paper's mechanism (spinning *loads*
    /// racing the releaser's *store*).
    pub fn lock(&mut self, addr_reg: Reg) {
        let t = regs::SYNC_T0;
        let spin = self.p.here();
        self.p.load(t, addr_reg, 0);
        self.p.branch(Cond::Ne, t, Reg::ZERO, spin);
        self.p.amo_swap(t, addr_reg, 0, regs::ONE);
        self.p.branch(Cond::Ne, t, Reg::ZERO, spin);
    }

    /// Release the spinlock at `addr_reg`.
    pub fn unlock(&mut self, addr_reg: Reg) {
        self.p.store(Reg::ZERO, addr_reg, 0);
    }

    /// Advance the LCG and leave a pseudo-random value in
    /// [`regs::LCG`].
    pub fn lcg_next(&mut self) {
        self.p.alui(AluOp::Mul, regs::LCG, regs::LCG, 6364136223846793005);
        self.p.alui(AluOp::Add, regs::LCG, regs::LCG, 1442695040888963407);
    }

    /// Compute a pseudo-random word address `base + 8 * (lcg_bits &
    /// (slots-1))` into `dst`. `slots` must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn random_addr(&mut self, dst: Reg, base: u64, slots: u64) {
        assert!(slots.is_power_of_two(), "slots must be a power of two");
        self.lcg_next();
        self.p.alui(AluOp::Shr, dst, regs::LCG, 33);
        self.p.alui(AluOp::And, dst, dst, slots - 1);
        self.p.alui(AluOp::Shl, dst, dst, 3);
        self.p.alui(AluOp::Add, dst, dst, base);
    }

    /// `dst = base + 8 * (index_reg & (slots-1))` — strided/indexed word
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn indexed_addr(&mut self, dst: Reg, base: u64, index_reg: Reg, slots: u64) {
        assert!(slots.is_power_of_two(), "slots must be a power of two");
        self.p.alui(AluOp::And, dst, index_reg, slots - 1);
        self.p.alui(AluOp::Shl, dst, dst, 3);
        self.p.alui(AluOp::Add, dst, dst, base);
    }

    /// A short chain of dependent ALU work (models computation between
    /// memory accesses); result accumulates into `acc`.
    pub fn compute(&mut self, acc: Reg, chain: usize) {
        for i in 0..chain {
            if i % 3 == 2 {
                self.p.alui(AluOp::Mul, acc, acc, 0x9e37);
            } else {
                self.p.alui(AluOp::Add, acc, acc, 0x5bd1e995 + i as u64);
            }
        }
    }

    /// Finish the program.
    pub fn build(mut self) -> wb_isa::Program {
        self.p.halt();
        self.p.build()
    }
}

/// Build one program per core with `f(core)` and wrap them in a named
/// workload.
pub fn make_workload(
    name: &str,
    ncores: usize,
    f: impl Fn(usize) -> wb_isa::Program,
) -> wb_isa::Workload {
    wb_isa::Workload::new(name, (0..ncores).map(f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_isa::{ArchState, Workload};
    use wb_mem::MainMemory;

    /// The generated sync primitives must be architecturally correct: run
    /// them single-core on the interpreter.
    #[test]
    fn loop_and_compute_run() {
        let mut g = Gen::new(0, 1, 42);
        g.p.imm(Reg(1), 0);
        g.loop_n(regs::LOOP0, 10, |g| {
            g.p.alui(AluOp::Add, Reg(1), Reg(1), 2);
        });
        let prog = g.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        st.run(&prog, &mut mem, 100_000).expect("halts");
        assert_eq!(st.reg(Reg(1)), 20);
    }

    #[test]
    fn barrier_single_core_passes() {
        let mut g = Gen::new(0, 1, 1);
        g.barrier();
        g.barrier();
        let prog = g.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        st.run(&prog, &mut mem, 100_000).expect("halts");
        assert_eq!(mem.read_word(wb_mem::Addr::new(layout::BARRIER)), 2);
    }

    #[test]
    fn lock_unlock_single_core() {
        let mut g = Gen::new(0, 1, 1);
        g.p.imm(Reg(1), layout::lock(0));
        g.lock(Reg(1));
        g.p.imm(Reg(2), 0x100_000).imm(Reg(3), 5).store(Reg(3), Reg(2), 0);
        g.unlock(Reg(1));
        let prog = g.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        st.run(&prog, &mut mem, 100_000).expect("halts");
        assert_eq!(mem.read_word(wb_mem::Addr::new(0x100_000)), 5);
        assert_eq!(mem.read_word(wb_mem::Addr::new(layout::lock(0))), 0, "lock released");
    }

    #[test]
    fn random_addr_in_range() {
        let mut g = Gen::new(0, 1, 7);
        // Store 3 random-address values and capture the addresses.
        for r in [Reg(1), Reg(2), Reg(3)] {
            g.random_addr(r, layout::SHARED, 64);
        }
        let prog = g.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        st.run(&prog, &mut mem, 100_000).expect("halts");
        for r in [Reg(1), Reg(2), Reg(3)] {
            let a = st.reg(r);
            assert!((layout::SHARED..layout::SHARED + 64 * 8).contains(&a));
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn two_core_barrier_on_interpreter_interleaved() {
        // Round-robin interpretation of two barrier programs must
        // terminate and leave the counter at 2.
        let mk = |core| {
            let mut g = Gen::new(core, 2, 1);
            g.barrier();
            g.build()
        };
        let w = Workload::new("bar", vec![mk(0), mk(1)]);
        let mut mem = MainMemory::new();
        let mut harts: Vec<ArchState> = vec![ArchState::new(), ArchState::new()];
        for _ in 0..10_000 {
            for (i, h) in harts.iter_mut().enumerate() {
                h.step(&w.programs[i], &mut mem);
            }
            if harts.iter().all(|h| h.halted()) {
                break;
            }
        }
        assert!(harts.iter().all(|h| h.halted()), "barrier deadlocked");
        assert_eq!(mem.read_word(wb_mem::Addr::new(layout::BARRIER)), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn random_addr_rejects_non_pow2() {
        let mut g = Gen::new(0, 1, 1);
        g.random_addr(Reg(1), 0, 3);
    }
}
