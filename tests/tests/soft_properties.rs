//! System-level soft-error properties (in-tree `wb_proptest!` harness):
//!
//! 1. random soft plans on random torture cells: every landed flip is
//!    detected or masked (`soft_silent == 0`), the final audit is
//!    clean, and the run stays TSO-correct;
//! 2. recovery restores agreement *idempotently*: immediately re-running
//!    the final audit finds nothing left to scrub and no violations;
//! 3. `SoftPlan::none()` is byte-identical to `soft: None` — outcome,
//!    final cycle and stats JSON — in every engine mode;
//! 4. soft cells are cycle-exact: Dense and Sparse (and the verify
//!    engine on a subset) agree byte for byte with flips,
//!    poison/recovery and periodic audits in play.

use wb_isa::{Program, Reg, Workload};
use wb_kernel::check::prelude::*;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use wb_kernel::soft::{SoftClause, SoftPlan, SoftTarget};
use wb_kernel::SimRng;
use writersblock::System;

/// Random contended straight-line program (globally unique store
/// values, as in the torture recipe).
fn random_program(core: usize, rng: &mut SimRng, ops: usize, lines: &[u64]) -> Program {
    let mut p = Program::builder();
    let mut k: u64 = 1;
    for _ in 0..ops {
        let a = *rng.choose(lines).expect("non-empty");
        let word = rng.below(8) * 8;
        p.imm(Reg(1), a + word);
        match rng.below(10) {
            0..=4 => {
                p.load(Reg(3), Reg(1), 0);
            }
            5..=8 => {
                p.imm(Reg(2), ((core as u64) << 32) | k);
                k += 1;
                p.store(Reg(2), Reg(1), 0);
            }
            _ => {
                p.imm(Reg(2), ((core as u64) << 32) | k);
                k += 1;
                p.amo_swap(Reg(3), Reg(1), 0, Reg(2));
            }
        }
    }
    p.halt();
    p.build()
}

fn torture_workload(cores: usize, seed: u64, ops: usize) -> Workload {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let mut rng = SimRng::new(seed);
    let programs = (0..cores).map(|c| random_program(c, &mut rng, ops, &lines)).collect();
    Workload::new(format!("soft-prop-{seed}"), programs)
}

const COMBOS: [(ProtocolKind, CommitMode); 4] = [
    (ProtocolKind::BaseMesi, CommitMode::InOrder),
    (ProtocolKind::BaseMesi, CommitMode::OutOfOrder),
    (ProtocolKind::WritersBlock, CommitMode::InOrder),
    (ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb),
];

const TARGETS: [SoftTarget; 5] = [
    SoftTarget::CacheState,
    SoftTarget::CacheTag,
    SoftTarget::DirState,
    SoftTarget::Sharers,
    SoftTarget::Mshr,
];

/// A random 1–3 clause plan with fast strike rates (gaps 100..600).
fn soft_plan() -> Gen<SoftPlan> {
    (((0usize..5), (100u64..600)), ((0usize..5), (100u64..600)), ((0usize..5), (100u64..600)), (1usize..4))
        .into_gen()
        .prop_map(|((t1, g1), (t2, g2), (t3, g3), n)| {
            let all = [
                SoftClause { target: TARGETS[t1], mean_gap: g1 },
                SoftClause { target: TARGETS[t2], mean_gap: g2 },
                SoftClause { target: TARGETS[t3], mean_gap: g3 },
            ];
            SoftPlan { name: "random", clauses: all[..n].to_vec() }
        })
}

fn build(cfg: &SystemConfig, w: &Workload, engine: EngineMode) -> System {
    System::new(cfg.clone().with_engine(engine), w)
}

wb_proptest! {
    #![cases = 10]

    #[test]
    fn every_flip_is_detected_and_recovery_is_idempotent(
        plan in soft_plan(),
        seed in 0u64..1_000_000,
        combo in 0usize..4,
    ) {
        let (protocol, mode) = COMBOS[combo];
        let w = torture_workload(4, seed, 25);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(mode)
            .with_protocol(protocol)
            .with_seed(seed)
            .with_jitter(25)
            .with_soft(plan.clone());
        let mut sys = System::new(cfg, &w);
        let out = sys.run(8_000_000);
        prop_assert!(out.is_done(), "plan {plan} {protocol:?} {mode:?} seed {seed:#x}:\n{out}");
        let first = sys.run_audit(true);
        prop_assert!(
            first.clean(),
            "final audit not clean (plan {plan} seed {seed:#x}):\n{first}"
        );
        prop_assert_eq!(
            sys.soft_silent(), 0,
            "undetected flips escaped (plan {plan} seed {seed:#x})"
        );
        // Idempotence: everything was repaired; a second audit finds no
        // wounds left to scrub and agrees the books are consistent.
        let second = sys.run_audit(true);
        prop_assert!(second.clean(), "re-audit not clean:\n{second}");
        prop_assert_eq!(second.scrub_repairs, 0, "re-audit still found wounds to scrub");
        if let Err(e) = sys.check_tso() {
            prop_assert!(false, "TSO failed (plan {plan} seed {seed:#x}): {e}");
        }
    }

    #[test]
    fn empty_plan_is_byte_identical_in_every_engine(
        seed in 0u64..1_000_000,
        engine in 0usize..3,
    ) {
        let engine = [EngineMode::Dense, EngineMode::Sparse, EngineMode::SparseVerify][engine];
        let w = torture_workload(4, seed, 20);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(seed)
            .with_jitter(25);
        let mut base = build(&cfg, &w, engine);
        let mut soft = build(&cfg.clone().with_soft(SoftPlan::none()), &w, engine);
        let b = base.run(8_000_000);
        let s = soft.run(8_000_000);
        prop_assert_eq!(&b, &s, "outcome diverged under the empty plan ({engine:?})");
        prop_assert_eq!(base.now(), soft.now(), "final cycle diverged ({engine:?})");
        prop_assert_eq!(
            base.report().stats.to_json(),
            soft.report().stats.to_json(),
            "stats diverged under the empty plan ({engine:?}, seed {seed:#x})"
        );
        prop_assert_eq!(soft.soft_injected(), (0u64, 0u64));
    }

    #[test]
    fn soft_cells_are_cycle_exact(
        plan in soft_plan(),
        seed in 0u64..1_000_000,
    ) {
        let w = torture_workload(4, seed, 20);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(seed)
            .with_jitter(25)
            .with_soft(plan.clone());
        let run = |engine: EngineMode| {
            let mut sys = build(&cfg, &w, engine);
            let out = sys.run(8_000_000);
            (out, sys.now(), sys.report().stats.to_json())
        };
        let dense = run(EngineMode::Dense);
        // Soft strikes hit *sleeping* components — the adversarial
        // shape for the sparse engine's wake-on-strike marks.
        let sparse = run(EngineMode::Sparse);
        prop_assert_eq!(&dense, &sparse, "Sparse diverged (plan {plan} seed {seed:#x})");
        // The verify engine visits everything, asserting every claim —
        // expensive, so cross-check a subset of cases.
        if seed % 4 == 0 {
            let sverified = run(EngineMode::SparseVerify);
            prop_assert_eq!(
                &dense, &sverified,
                "SparseVerify diverged (plan {plan} seed {seed:#x})"
            );
        }
    }
}
