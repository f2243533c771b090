//! Random torture: pseudo-random multi-core programs with unique store
//! values (`wb_workloads::torture`), run on both protocols and all
//! commit modes, every execution taken through `System::verify` — it
//! must drain, audit clean and pass the axiomatic TSO checker.
//!
//! This is the broadest correctness net in the repository: it explores
//! protocol races (invalidation vs. lockdown vs. commit) far beyond the
//! directed litmus tests.

use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, ProtocolKind, SystemConfig, ARMS};
use wb_workloads::torture;
use writersblock::System;

/// Four cores of `class` committing by `mode`, jitter 25.
fn config(class: CoreClass, mode: CommitMode, seed: u64) -> SystemConfig {
    SystemConfig::new(class).with_cores(4).with_commit(mode).with_seed(seed).with_jitter(25)
}

/// A failing verdict names the seed, arm and plan in its reproducer.
fn must_pass(cfg: SystemConfig, w: &Workload, budget: u64) {
    System::new(cfg, w).verify(budget).assert_pass(&w.name);
}

fn torture(mode: CommitMode, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        must_pass(config(CoreClass::Slm, mode, seed), &torture::workload(4, seed, 40), 2_000_000);
    }
}

#[test]
fn torture_inorder() {
    torture(CommitMode::InOrder, 0..25);
}

#[test]
fn torture_ooo() {
    torture(CommitMode::OutOfOrder, 0..25);
}

#[test]
fn torture_ooo_wb() {
    torture(CommitMode::OutOfOrderWb, 0..25);
}

/// Two hot lines only: maximal racing.
#[test]
fn torture_ooo_wb_more_contention() {
    for seed in 100..120u64 {
        let w = torture::workload_on(4, seed, 30, &torture::HOT_LINES);
        must_pass(config(CoreClass::Slm, CommitMode::OutOfOrderWb, seed), &w, 2_000_000);
    }
}

/// Figure 9's configuration: the WritersBlock *protocol* under an
/// in-order-commit core (lockdowns happen for in-flight M-speculative
/// loads even though commit never reorders).
#[test]
fn torture_inorder_wb_protocol() {
    for seed in 200..220u64 {
        let cfg = config(CoreClass::Slm, CommitMode::InOrder, seed)
            .with_protocol(ProtocolKind::WritersBlock);
        must_pass(cfg, &torture::workload(4, seed, 40), 2_000_000);
    }
}

/// The HSW-class core (deepest window, most speculation) under torture.
#[test]
fn torture_hsw_ooo_wb() {
    for seed in 300..315u64 {
        let cfg = config(CoreClass::Hsw, CommitMode::OutOfOrderWb, seed);
        must_pass(cfg, &torture::workload(4, seed, 50), 2_000_000);
    }
}

/// The non-collapsible (FIFO) LQ variant under torture.
#[test]
fn torture_fifo_lq() {
    for seed in 400..415u64 {
        let mut cfg = config(CoreClass::Slm, CommitMode::OutOfOrderWb, seed);
        cfg.core.collapsible_lq = false;
        let w = torture::workload_on(4, seed, 40, &torture::spread_lines(4));
        must_pass(cfg, &w, 2_000_000);
    }
}

/// Every chaos plan in the standard matrix (delay storms, per-vnet
/// storms, hotspots, bounded starvation, reorder amplification, the
/// §3.5-window squeezes and the directed lockdown stall) across all
/// five arms. Chaos only stretches legal unordered-network timing, so
/// every run must still drain and pass every oracle; a failure prints
/// the cell's reproducer, plan included.
#[test]
fn torture_chaos_matrix() {
    use wb_kernel::chaos::ChaosPlan;
    let plans = ChaosPlan::matrix();
    assert!(plans.len() >= 8, "matrix shrank to {} plans", plans.len());
    // Independent cells: fan out over the deterministic sweep runner
    // (a panicking cell propagates when its scoped worker joins).
    let jobs: Vec<_> =
        plans.iter().flat_map(|p| ARMS.map(|(_, pr, m)| (p.clone(), pr, m))).collect();
    let w = torture::workload(4, 7, 25);
    wb_bench::sweep::run(jobs, |(plan, protocol, mode)| {
        let cfg = config(CoreClass::Slm, mode, 7).with_protocol(protocol).with_chaos(plan);
        must_pass(cfg, &w, 8_000_000);
    });
}

/// The ECL (early-commit-of-loads) mode — the paper's stall-on-use use
/// case — under random torture.
#[test]
fn torture_ecl() {
    torture(CommitMode::InOrderEcl, 500..525);
}

/// Under ECL an atomic reaches the ROB head while older loads, already
/// committed, may still wait for their data; it must not perform before
/// they do. With that rule missing, `torture-9046` at 200 ops without
/// jitter has a load read the value written by a later atomic of its
/// own core (a uniprocessor violation at 0x2108): the atomic fired on
/// "head of the ROB, store buffer empty" alone.
#[test]
fn ecl_atomic_waits_for_older_loads() {
    let cfg = config(CoreClass::Slm, CommitMode::InOrderEcl, 9046)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_jitter(0);
    must_pass(cfg, &torture::workload(4, 9046, 200), 2_000_000);
}

/// Programs that once failed at the tiny-LLC geometry of
/// `deadlock_freedom`'s eviction tests (four lines per bank, two ways, a
/// two-slot eviction buffer) over 24 spread lines, jitter 25. The first
/// five, one per arm: a parked `Owned` LLC eviction answered reads with
/// the LLC's own copy before the owner's writeback arrived, a stale
/// tear-off mostly read as a `UniprocViolation`. The last three
/// livelocked on the WritersBlock arms: a GetX the bank could not
/// allocate for was retried without a hint, so its writer's SoS load
/// waited on the write, the write on a way, the way on an eviction
/// slot, and the slot on a parked eviction held by that core's own
/// lockdown. Every cell must pass.
#[test]
fn tiny_llc_known_failures_by_arm() {
    const SEEDS: [(&str, u64); 8] = [
        ("mesi-inorder", 11),
        ("mesi-ooo", 19),
        ("wb-inorder", 52),
        ("wb-ooo", 57),
        ("wb-ecl", 63),
        ("wb-inorder", 302),
        ("wb-ooo", 43),
        ("wb-ecl", 81),
    ];
    wb_bench::sweep::run(SEEDS.to_vec(), |(arm, seed)| {
        let (protocol, mode) = wb_kernel::config::arm(arm).expect("a config::ARMS name");
        let mut cfg = config(CoreClass::Slm, mode, seed).with_protocol(protocol);
        cfg.memory.l3_bank_bytes = 4 * 64;
        cfg.memory.l3_ways = 2;
        cfg.memory.dir_evict_buffer = 2;
        must_pass(cfg, &torture::workload_on(4, seed, 200, &torture::spread_lines(24)), 8_000_000);
    });
}

/// The 22 programs that once wedged or failed the TSO check on some arm
/// (EXPERIMENTS.md "Known failures by arm" has their history: one
/// dropped SoS bypass hit, tear-offs served after the last lockdown
/// lifted, and an ECL atomic that ran ahead of older loads), each
/// replayed unchanged on all five arms at the jitter it was found with
/// (25) and at 0. Every cell must pass.
#[test]
fn known_failures_by_arm() {
    const AT_200_OPS: [u64; 17] = [
        40, 8001, 9020, 9046, 24014, 45002, 48042, 54009, 56039, 67013, 84016, 84019, 88041,
        97004, 97010, 102006, 105018,
    ];
    let smaller = [(25017, 100), (41140, 60), (52082, 40), (56077, 40), (177030, 40)];
    let jobs: Vec<_> = AT_200_OPS
        .map(|s| (s, 200))
        .into_iter()
        .chain(smaller)
        .flat_map(|(seed, ops)| {
            [25, 0].into_iter().flat_map(move |jitter| {
                ARMS.map(|(_, protocol, mode)| (seed, ops, jitter, protocol, mode))
            })
        })
        .collect();
    assert_eq!(jobs.len(), 22 * 2 * ARMS.len());
    wb_bench::sweep::run(jobs, |(seed, ops, jitter, protocol, mode)| {
        let cfg = config(CoreClass::Slm, mode, seed).with_protocol(protocol).with_jitter(jitter);
        must_pass(cfg, &torture::workload(4, seed, ops), 2_000_000);
    });
}
