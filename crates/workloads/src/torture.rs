//! The torture recipe: pseudo-random racing programs for the TSO
//! checker.
//!
//! Every core runs a straight line of loads, stores and atomic swaps
//! over a handful of shared lines. Store and swap values are globally
//! unique (`core << 32 | k`), so the axiomatic checker can recover the
//! reads-from relation from values alone. This is the one generator in
//! the workspace: the `torture-<seed>` reproducers in
//! `benchmark/README.md` "Known failing inputs" and the cells of
//! `campaigns/regressions.jsonl` name programs produced by exactly this
//! code, so the order of RNG draws below is part of the contract
//! (pinned by `digest_pin`).
//!
//! A recipe — ops per core and line set — has a campaign-spec token
//! ([`token`]), and a workload is named `<token>-<seed>`, so a
//! reproducer can name the program it ran.

use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::SimRng;

/// The two-line hot set: every access races on one of two lines.
pub const HOT_LINES: [u64; 2] = [0x1000, 0x2040];

/// Operations per core of the farm's default recipe, `torture`.
const OPS: usize = 200;

/// The line set a torture program races on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lines {
    /// `n` line addresses strided so they hash across directory banks;
    /// [`program`] picks one of eight words inside a line, which
    /// exercises same-line different-word interleavings.
    Spread(u64),
    /// [`HOT_LINES`]: maximal racing.
    Hot,
}

impl Lines {
    /// The line addresses.
    fn addrs(self) -> Vec<u64> {
        match self {
            Lines::Spread(n) => (0..n).map(|i| 0x1000 + i * 0x440).collect(),
            Lines::Hot => HOT_LINES.to_vec(),
        }
    }
}

/// A recipe's campaign-spec token: `torture` for 200 ops over six
/// spread lines, else `torture/<ops>x<n>` with `n` the spread-line
/// count or `hot`.
pub fn token(ops: usize, lines: Lines) -> String {
    match lines {
        Lines::Spread(6) if ops == OPS => "torture".to_owned(),
        Lines::Spread(n) => format!("torture/{ops}x{n}"),
        Lines::Hot => format!("torture/{ops}xhot"),
    }
}

/// Inverse of [`token`]: the recipe's ops per core and line set.
pub fn recipe(token: &str) -> Option<(usize, Lines)> {
    if token == "torture" {
        return Some((OPS, Lines::Spread(6)));
    }
    let (ops, lines) = token.strip_prefix("torture/")?.split_once('x')?;
    let lines = match lines {
        "hot" => Lines::Hot,
        n => Lines::Spread(n.parse().ok().filter(|&n| n > 0)?),
    };
    Some((ops.parse().ok()?, lines))
}

/// The token and seed of a workload named by [`workload_on`].
pub fn parse_name(name: &str) -> Option<(&str, u64)> {
    let (token, seed) = name.rsplit_once('-')?;
    recipe(token)?;
    Some((token, seed.parse().ok()?))
}

/// `ops` random memory operations for `core` over `lines`, then `halt`:
/// half loads, four in ten stores, one in ten atomic swaps, and after
/// one operation in four a filler ALU instruction.
///
/// # Panics
///
/// Panics when `lines` is empty.
pub fn program(core: usize, rng: &mut SimRng, ops: usize, lines: &[u64]) -> Program {
    let mut p = Program::builder();
    let (addr_reg, val_reg, dst) = (Reg(1), Reg(2), Reg(3));
    let mut k: u64 = 1;
    for _ in 0..ops {
        let a = *rng.choose(lines).expect("torture needs a non-empty line set");
        let word = rng.below(8) * 8;
        p.imm(addr_reg, a + word);
        match rng.below(10) {
            0..=4 => {
                p.load(dst, addr_reg, 0);
            }
            5..=8 => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.store(val_reg, addr_reg, 0);
            }
            _ => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.amo_swap(dst, addr_reg, 0, val_reg);
            }
        }
        if rng.chance(1, 4) {
            p.alui(AluOp::Add, Reg(4), Reg(4), 1); // filler compute
        }
    }
    p.halt();
    p.build()
}

/// `<token>-<seed>` over `lines`: one RNG seeded with `seed` generates
/// the programs of cores `0..cores` in that order.
pub fn workload_on(cores: usize, seed: u64, ops: usize, lines: Lines) -> Workload {
    let mut rng = SimRng::new(seed);
    let addrs = lines.addrs();
    let programs = (0..cores).map(|c| program(c, &mut rng, ops, &addrs)).collect();
    Workload::new(format!("{}-{seed}", token(ops, lines)), programs)
}

/// The recipe over the default six spread lines.
pub fn workload(cores: usize, seed: u64, ops: usize) -> Workload {
    workload_on(cores, seed, ops, Lines::Spread(6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};
    use wb_isa::Inst;
    use wb_kernel::check::prelude::*;

    /// The line sets in use: spread sets of 1..=8 lines and the hot set.
    fn line_set() -> Gen<Lines> {
        (0u64..9).into_gen().prop_map(|n| if n == 0 { Lines::Hot } else { Lines::Spread(n) })
    }

    wb_proptest! {
        /// Every program ends in `halt` after one memory operation per
        /// op, every address is a listed line plus an aligned word,
        /// every store/swap value is globally unique, and the workload
        /// is a function of its inputs that the seed actually moves.
        #[test]
        fn workloads_are_well_formed_functions_of_their_inputs(
            cores in 1usize..9,
            seed in 0u64..1_000_000,
            ops in 0usize..65,
            lines in line_set(),
        ) {
            let w = workload_on(cores, seed, ops, lines);
            prop_assert_eq!(w.cores(), cores);
            let tok = token(ops, lines);
            prop_assert_eq!(parse_name(&w.name), Some((tok.as_str(), seed)));
            prop_assert_eq!(recipe(&tok), Some((ops, lines)));
            let addrs = lines.addrs();
            let mut values = BTreeSet::new();
            for p in &w.programs {
                prop_assert_eq!(p.iter().last(), Some(&Inst::Halt));
                prop_assert_eq!(p.iter().filter(|i| i.is_mem()).count(), ops);
                for i in p.iter() {
                    match *i {
                        Inst::Imm { rd: Reg(1), value } => {
                            let line = value & !0x3f;
                            prop_assert!(addrs.contains(&line), "address {value:#x} off the line set");
                            prop_assert_eq!(value % 8, 0, "address {value:#x} not word-aligned");
                        }
                        Inst::Imm { rd: Reg(2), value } => {
                            prop_assert!(values.insert(value), "store value {value:#x} reused");
                        }
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(&workload_on(cores, seed, ops, lines).programs, &w.programs);
            if ops >= 8 {
                prop_assert_ne!(&workload_on(cores, seed + 1, ops, lines).programs, &w.programs);
            }
        }
    }

    /// `torture-40` at 4 cores x 200 ops, the first of the programs
    /// `benchmark/README.md` lists as "Known failing inputs" (all of them
    /// pass since the SoS-bypass, tear-off and ECL-atomic fixes;
    /// `campaigns/regressions.jsonl` replays them). Lengths and digest
    /// were computed from `tests/tests/torture.rs`'s own
    /// `random_program` before it was deleted in favour of this module.
    #[test]
    fn digest_pin() {
        let w = workload(4, 40, 200);
        assert_eq!(w.name, "torture-40");
        let lens: Vec<usize> = w.programs.iter().map(Program::len).collect();
        assert_eq!(lens, [550, 555, 542, 553]);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", w.programs).hash(&mut h);
        assert_eq!(h.finish(), 0xee9f_4a9e_f73b_8b27);
    }
}
