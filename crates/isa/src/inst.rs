//! Instruction and operand definitions.

/// An architectural register, `r0`..`r31`. `r0` always reads zero and
/// writes to it are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 32;
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);

    /// Index for array addressing.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the register number is out of range.
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!((self.0 as usize) < Reg::COUNT);
        self.0 as usize
    }

    /// True for `r0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

// Not a declaration: the decoder range-checks the register number.
impl wb_kernel::Snap for Reg {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        w.u8(self.0);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        let n = r.u8()?;
        if (n as usize) >= Reg::COUNT {
            return Err(wb_kernel::SnapError::new(format!("register number {n} out of range")));
        }
        Ok(Reg(n))
    }
}

/// Arithmetic/logic operations. `Mul` models a multi-cycle unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Mul,
    Shl,
    Shr,
}

impl AluOp {
    /// Execution latency in cycles.
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            _ => 1,
        }
    }

    /// Apply the operation (wrapping semantics; shifts masked to 6 bits).
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Branch conditions (unsigned comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl Cond {
    /// Evaluate the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

/// Atomic read-modify-write flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// `rd = mem; mem = src` — an unconditional exchange (test-and-set
    /// spinlocks use this).
    Swap,
    /// `rd = mem; mem = mem + src` — fetch-and-add (ticket locks,
    /// barrier counters).
    Add,
    /// `rd = mem; if mem == cmp { mem = src }` — compare-and-swap. The
    /// compare value rides in `cmp`.
    Cas,
}

impl AmoOp {
    /// The value the atomic writes over `old`, or `None` when a
    /// compare-and-swap fails and leaves memory unchanged.
    pub fn apply(self, old: u64, src: u64, cmp: u64) -> Option<u64> {
        match self {
            AmoOp::Swap => Some(src),
            AmoOp::Add => Some(old.wrapping_add(src)),
            AmoOp::Cas => (old == cmp).then_some(src),
        }
    }
}

/// One instruction. Branch targets are absolute instruction indices,
/// resolved by [`crate::ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `rd = value`
    Imm { rd: Reg, value: u64 },
    /// `rd = rs1 <op> rs2`
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 <op> imm` — immediate-operand ALU, keeps programs compact.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: u64 },
    /// `rd = mem[rs_base + offset]` (8-byte load)
    Load { rd: Reg, base: Reg, offset: i64 },
    /// `mem[rs_base + offset] = src` (8-byte store)
    Store { src: Reg, base: Reg, offset: i64 },
    /// Atomic RMW on `mem[base + offset]`; old value returned in `rd`.
    Amo { op: AmoOp, rd: Reg, base: Reg, offset: i64, src: Reg, cmp: Reg },
    /// Conditional branch to `target` when `cond(rs1, rs2)` holds.
    Branch { cond: Cond, rs1: Reg, rs2: Reg, target: u32 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// No operation (also used as a squash-friendly filler).
    Nop,
    /// Stop fetching on this core.
    Halt,
}

impl Inst {
    /// Is this a memory operation (load, store or atomic)?
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. } | Inst::Amo { .. })
    }

    /// Is this a control-flow instruction?
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::Jump { .. })
    }

    /// Destination register, if the instruction writes one (writes to `r0`
    /// are reported as `None`).
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Inst::Imm { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Amo { rd, .. } => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// Source registers read by the instruction (excluding `r0`).
    pub fn sources(&self) -> Vec<Reg> {
        let mut out = Vec::with_capacity(3);
        let mut push = |r: Reg| {
            if !r.is_zero() {
                out.push(r);
            }
        };
        match *self {
            Inst::Alu { rs1, rs2, .. } => {
                push(rs1);
                push(rs2);
            }
            Inst::AluImm { rs1, .. } => push(rs1),
            Inst::Load { base, .. } => push(base),
            Inst::Store { src, base, .. } => {
                push(src);
                push(base);
            }
            Inst::Amo { base, src, cmp, op, .. } => {
                push(base);
                push(src);
                if op == AmoOp::Cas {
                    push(cmp);
                }
            }
            Inst::Branch { rs1, rs2, .. } => {
                push(rs1);
                push(rs2);
            }
            _ => {}
        }
        out
    }
}

impl std::fmt::Display for AluOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mul => "mul",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        })
    }
}

impl std::fmt::Display for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        })
    }
}

impl std::fmt::Display for AmoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AmoOp::Swap => "swap",
            AmoOp::Add => "add",
            AmoOp::Cas => "cas",
        })
    }
}

impl std::fmt::Display for Inst {
    /// Assembly-like rendering, e.g. `ld r3, [r1+8]` or `b.ne r1, r2, @5`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Inst::Imm { rd, value } => write!(f, "imm {rd}, {value:#x}"),
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            Inst::AluImm { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm:#x}"),
            Inst::Load { rd, base, offset } => write!(f, "ld {rd}, [{base}{offset:+}]"),
            Inst::Store { src, base, offset } => write!(f, "st {src}, [{base}{offset:+}]"),
            Inst::Amo { op, rd, base, offset, src, cmp } => {
                if op == AmoOp::Cas {
                    write!(f, "amo.{op} {rd}, [{base}{offset:+}], {cmp}=>{src}")
                } else {
                    write!(f, "amo.{op} {rd}, [{base}{offset:+}], {src}")
                }
            }
            Inst::Branch { cond, rs1, rs2, target } => write!(f, "b.{cond} {rs1}, {rs2}, @{target}"),
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::Nop => f.write_str("nop"),
            Inst::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_zero() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg(5).is_zero());
        assert_eq!(Reg(3).index(), 3);
        assert_eq!(Reg(3).to_string(), "r3");
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Mul.apply(6, 7), 42);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
        assert_eq!(AluOp::Shl.apply(1, 64), 1, "shift masked to 6 bits");
    }

    #[test]
    fn alu_latency() {
        assert_eq!(AluOp::Mul.latency(), 3);
        assert_eq!(AluOp::Add.latency(), 1);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(1, 2));
        assert!(Cond::Ge.eval(2, 2));
        assert!(!Cond::Lt.eval(2, 1));
    }

    #[test]
    fn dest_and_sources() {
        let i = Inst::Alu { op: AluOp::Add, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) };
        assert_eq!(i.dest(), Some(Reg(1)));
        assert_eq!(i.sources(), vec![Reg(2), Reg(3)]);

        let st = Inst::Store { src: Reg(4), base: Reg(5), offset: 8 };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources(), vec![Reg(4), Reg(5)]);

        let amo_cas =
            Inst::Amo { op: AmoOp::Cas, rd: Reg(1), base: Reg(2), offset: 0, src: Reg(3), cmp: Reg(4) };
        assert_eq!(amo_cas.sources(), vec![Reg(2), Reg(3), Reg(4)]);

        let amo_swap =
            Inst::Amo { op: AmoOp::Swap, rd: Reg(1), base: Reg(2), offset: 0, src: Reg(3), cmp: Reg(0) };
        assert_eq!(amo_swap.sources(), vec![Reg(2), Reg(3)]);
    }

    #[test]
    fn zero_register_filtered() {
        let i = Inst::Imm { rd: Reg(0), value: 7 };
        assert_eq!(i.dest(), None);
        let b = Inst::Branch { cond: Cond::Eq, rs1: Reg(0), rs2: Reg(0), target: 0 };
        assert!(b.sources().is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Inst::Imm { rd: Reg(1), value: 16 }.to_string(), "imm r1, 0x10");
        assert_eq!(
            Inst::Alu { op: AluOp::Mul, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) }.to_string(),
            "mul r1, r2, r3"
        );
        assert_eq!(Inst::Load { rd: Reg(4), base: Reg(5), offset: 8 }.to_string(), "ld r4, [r5+8]");
        assert_eq!(Inst::Store { src: Reg(4), base: Reg(5), offset: -8 }.to_string(), "st r4, [r5-8]");
        assert_eq!(
            Inst::Amo { op: AmoOp::Cas, rd: Reg(1), base: Reg(2), offset: 0, src: Reg(3), cmp: Reg(4) }
                .to_string(),
            "amo.cas r1, [r2+0], r4=>r3"
        );
        assert_eq!(
            Inst::Branch { cond: Cond::Ne, rs1: Reg(1), rs2: Reg(0), target: 5 }.to_string(),
            "b.ne r1, r0, @5"
        );
        assert_eq!(Inst::Jump { target: 2 }.to_string(), "j @2");
        assert_eq!(Inst::Nop.to_string(), "nop");
        assert_eq!(Inst::Halt.to_string(), "halt");
    }

    #[test]
    fn classification() {
        assert!(Inst::Load { rd: Reg(1), base: Reg(2), offset: 0 }.is_mem());
        assert!(Inst::Jump { target: 0 }.is_control());
        assert!(!Inst::Nop.is_mem());
        assert!(!Inst::Halt.is_control());
    }
}
