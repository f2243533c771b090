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
//!    engine on a subset) agree byte for byte with flips, repairs
//!    and periodic audits in play.

use wb_isa::Workload;
use wb_kernel::check::prelude::*;
use wb_kernel::config::{CoreClass, EngineMode, SystemConfig, ARMS};
use wb_kernel::soft::{SoftClause, SoftPlan, SoftTarget};
use wb_workloads::torture;
use wb_integration::{built, seeded, spec};
use writersblock::System;

const TARGETS: [SoftTarget; 5] = [
    SoftTarget::CacheState,
    SoftTarget::CacheTag,
    SoftTarget::DirState,
    SoftTarget::Sharers,
    SoftTarget::Mshr,
];

/// A random 1–3 clause plan with fast strike rates (gaps 100..600).
/// The cells that draw one stay in Rust: a spec names only the plans of
/// `SoftPlan::MATRIX`.
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
        arm in 0..ARMS.len(),
    ) {
        let (_, protocol, mode) = ARMS[arm];
        let w = torture::workload(4, seed, 25);
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(mode)
            .with_protocol(protocol)
            .with_seed(seed)
            .with_jitter(25)
            .with_soft(plan.clone());
        let mut sys = System::new(cfg, &w);
        // Drained, final audit clean, no flip undetected, TSO-green.
        let first = sys.verify(8_000_000);
        prop_assert!(first.passed(), "plan {plan} {protocol:?} {mode:?} seed {seed:#x}: {first}");
        // Idempotence: everything was repaired; a second audit finds no
        // wounds left to scrub and agrees the books are consistent.
        let second = sys.run_audit(true);
        prop_assert!(second.clean(), "re-audit not clean:\n{second}");
        prop_assert_eq!(second.scrub_repairs, 0, "re-audit still found wounds to scrub");
    }

    #[test]
    fn empty_plan_is_byte_identical_in_every_engine(
        seed in 0u64..1_000_000,
        engine in 0usize..3,
    ) {
        let engine = [EngineMode::Dense, EngineMode::Sparse, EngineMode::SparseVerify][engine];
        // The spec's two cells: soft errors off, and the empty plan.
        let mut spec = spec("soft-none");
        spec.seeds = vec![seed];
        let [(_, off, w), (_, none, _)] = <[_; 2]>::try_from(built(&spec)).expect("two cells");
        let mut base = build(&off, &w, engine);
        let mut soft = build(&none, &w, engine);
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
        // The plain cell of `soft-none`, under the random plan.
        let (cfg, w) = seeded("soft-none", seed);
        let cfg = cfg.with_soft(plan.clone());
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
