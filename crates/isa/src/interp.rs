//! Architectural interpreter — the golden model.
//!
//! Executes a [`Program`] one instruction at a time against a
//! [`MainMemory`]. Used to cross-check the out-of-order core (a single-core
//! OoO execution must produce the same architectural result as this
//! interpreter) and by the TSO interleaving enumerator for Table 2.

use crate::inst::{Inst, Reg};
use crate::program::Program;
use wb_mem::{Addr, MainMemory};

/// Architectural register + PC state of one hart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    regs: [u64; Reg::COUNT],
    pc: u32,
    halted: bool,
    retired: u64,
}

/// What a single [`ArchState::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpOutcome {
    /// Executed one instruction.
    Stepped,
    /// The hart is halted (explicit `Halt` or fell off the program end).
    Halted,
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl ArchState {
    /// Fresh state: all registers zero, PC at 0.
    pub fn new() -> Self {
        ArchState { regs: [0; Reg::COUNT], pc: 0, halted: false, retired: 0 }
    }

    /// Read an architectural register (`r0` reads zero).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write an architectural register (writes to `r0` are dropped).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Has the hart halted?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The effective address of a base+offset access.
    fn ea(&self, base: Reg, offset: i64) -> Addr {
        Addr::new(self.reg(base).wrapping_add(offset as u64))
    }

    /// Execute one instruction.
    ///
    /// # Panics
    ///
    /// Panics on an unaligned effective address (programs in this ISA must
    /// keep all accesses 8-byte aligned).
    pub fn step(&mut self, prog: &Program, mem: &mut MainMemory) -> InterpOutcome {
        if self.halted {
            return InterpOutcome::Halted;
        }
        let Some(inst) = prog.fetch(self.pc) else {
            self.halted = true;
            return InterpOutcome::Halted;
        };
        let mut next_pc = self.pc + 1;
        match inst {
            Inst::Imm { rd, value } => self.set_reg(rd, value),
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(rs1), imm);
                self.set_reg(rd, v);
            }
            Inst::Load { rd, base, offset } => {
                let v = mem.read_word(self.ea(base, offset));
                self.set_reg(rd, v);
            }
            Inst::Store { src, base, offset } => {
                mem.write_word(self.ea(base, offset), self.reg(src));
            }
            Inst::Amo { op, rd, base, offset, src, cmp } => {
                let a = self.ea(base, offset);
                let old = mem.read_word(a);
                if let Some(n) = op.apply(old, self.reg(src), self.reg(cmp)) {
                    mem.write_word(a, n);
                }
                self.set_reg(rd, old);
            }
            Inst::Branch { cond, rs1, rs2, target } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                self.retired += 1;
                return InterpOutcome::Halted;
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        InterpOutcome::Stepped
    }

    /// Run to completion (or until `max_steps` is hit, to guard against
    /// non-terminating spin loops). Returns the number of retired
    /// instructions, or `None` if the budget ran out first.
    pub fn run(&mut self, prog: &Program, mem: &mut MainMemory, max_steps: u64) -> Option<u64> {
        for _ in 0..max_steps {
            if self.step(prog, mem) == InterpOutcome::Halted {
                return Some(self.retired);
            }
        }
        if self.halted {
            Some(self.retired)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{AluOp, Cond};

    fn run_prog(b: ProgramBuilder) -> (ArchState, MainMemory) {
        let p = b.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        st.run(&p, &mut mem, 100_000).expect("program did not halt");
        (st, mem)
    }

    #[test]
    fn arithmetic_chain() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg(1), 10).addi(Reg(2), Reg(1), 5).alu(AluOp::Mul, Reg(3), Reg(1), Reg(2)).halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.reg(Reg(3)), 150);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg(1), 0x100).imm(Reg(2), 77).store(Reg(2), Reg(1), 8).load(Reg(3), Reg(1), 8).halt();
        let (st, mem) = run_prog(b);
        assert_eq!(st.reg(Reg(3)), 77);
        assert_eq!(mem.read_word(Addr::new(0x108)), 77);
    }

    #[test]
    fn loop_counts() {
        // for r1 in 0..10 { r2 += 2 }
        let mut b = ProgramBuilder::new();
        b.imm(Reg(3), 10);
        let top = b.here();
        b.addi(Reg(2), Reg(2), 2);
        b.addi(Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(3), top);
        b.halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.reg(Reg(2)), 20);
    }

    #[test]
    fn amo_swap_and_add() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg(1), 0x40)
            .imm(Reg(2), 5)
            .amo_swap(Reg(3), Reg(1), 0, Reg(2)) // r3 = 0, mem = 5
            .amo_add(Reg(4), Reg(1), 0, Reg(2)) // r4 = 5, mem = 10
            .load(Reg(5), Reg(1), 0)
            .halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.reg(Reg(3)), 0);
        assert_eq!(st.reg(Reg(4)), 5);
        assert_eq!(st.reg(Reg(5)), 10);
    }

    #[test]
    fn amo_cas_success_and_failure() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg(1), 0x40)
            .imm(Reg(2), 9)
            .amo_cas(Reg(3), Reg(1), 0, Reg(0), Reg(2)) // cmp 0: succeeds, mem=9
            .amo_cas(Reg(4), Reg(1), 0, Reg(0), Reg(2)) // cmp 0 vs 9: fails
            .load(Reg(5), Reg(1), 0)
            .halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.reg(Reg(3)), 0);
        assert_eq!(st.reg(Reg(4)), 9);
        assert_eq!(st.reg(Reg(5)), 9);
    }

    #[test]
    fn falls_off_end_halts() {
        let p = Program::from_insts(vec![Inst::Nop]);
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        assert_eq!(st.step(&p, &mut mem), InterpOutcome::Stepped);
        assert_eq!(st.step(&p, &mut mem), InterpOutcome::Halted);
        assert!(st.halted());
    }

    #[test]
    fn spin_loop_budget_exhausts() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.jump(top);
        let p = b.build();
        let mut st = ArchState::new();
        let mut mem = MainMemory::new();
        assert_eq!(st.run(&p, &mut mem, 100), None);
    }

    #[test]
    fn r0_always_zero() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg(0), 42).addi(Reg(1), Reg(0), 1).halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.reg(Reg(0)), 0);
        assert_eq!(st.reg(Reg(1)), 1);
    }
}
