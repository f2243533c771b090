//! Random torture: pseudo-random multi-core programs with unique store
//! values (`wb_workloads::torture`), run on both protocols and all
//! commit modes, every execution taken through `System::verify` — it
//! must drain, audit clean and pass the axiomatic TSO checker.
//!
//! This is the broadest correctness net in the repository: it explores
//! protocol races (invalidation vs. lockdown vs. commit) far beyond the
//! directed litmus tests.

use wb_bench::campaign::{self, cells, CampaignSpec};
use wb_integration::regressions;
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{CommitMode, CoreClass, SystemConfig, ARMS};
use wb_workloads::torture::{self, Lines};
use writersblock::System;

/// Every cell of every spec must pass; a failure prints its reproducer.
fn all_pass(specs: impl IntoIterator<Item = CampaignSpec>) {
    let jobs: Vec<_> = specs
        .into_iter()
        .flat_map(|spec| cells(&spec).into_iter().map(move |c| (spec.clone(), c)))
        .collect();
    wb_bench::sweep::run(jobs, |(spec, cell)| {
        let r = campaign::verify_cell(&spec, &cell);
        assert_eq!(r.outcome, "done", "{}: {}\n  reproducer: {}", cell.id, r.signature, r.reproducer);
    });
}

/// The tier-1 torture cells: four cores, jitter 25, Dense, 2M cycles.
fn tier1(keys: &str) {
    all_pass([parse(&format!(r#"{{"engine":"dense","jitter":25,"budget":2000000,{keys}}}"#))]);
}

fn parse(src: &str) -> CampaignSpec {
    CampaignSpec::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn torture_inorder() {
    tier1(r#""workloads":["torture/40x6"],"arms":["mesi-inorder"],"seeds":{"first":0,"count":25}"#);
}

#[test]
fn torture_ooo() {
    tier1(r#""workloads":["torture/40x6"],"arms":["mesi-ooo"],"seeds":{"first":0,"count":25}"#);
}

#[test]
fn torture_ooo_wb() {
    tier1(r#""workloads":["torture/40x6"],"arms":["wb-ooo"],"seeds":{"first":0,"count":25}"#);
}

/// Two hot lines only: maximal racing.
#[test]
fn torture_ooo_wb_more_contention() {
    tier1(r#""workloads":["torture/30xhot"],"arms":["wb-ooo"],"seeds":{"first":100,"count":20}"#);
}

/// Figure 9's configuration: the WritersBlock *protocol* under an
/// in-order-commit core (lockdowns happen for in-flight M-speculative
/// loads even though commit never reorders).
#[test]
fn torture_inorder_wb_protocol() {
    tier1(r#""workloads":["torture/40x6"],"arms":["wb-inorder"],"seeds":{"first":200,"count":20}"#);
}

/// The HSW-class core (deepest window, most speculation) under torture.
#[test]
fn torture_hsw_ooo_wb() {
    tier1(r#""workloads":["torture/50x6"],"class":"hsw","arms":["wb-ooo"],"seeds":{"first":300,"count":15}"#);
}

/// The non-collapsible (FIFO) LQ variant under torture: a core field
/// no spec key states, so its reproducer names it as unstated.
#[test]
fn torture_fifo_lq() {
    for seed in 400..415u64 {
        let mut cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_seed(seed)
            .with_jitter(25);
        cfg.core.collapsible_lq = false;
        let w = torture::workload_on(4, seed, 40, Lines::Spread(4));
        System::new(cfg, &w).verify(2_000_000).assert_pass(&w.name);
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
    let plans: Vec<String> = ChaosPlan::MATRIX.iter().map(|(name, _)| format!("{name:?}")).collect();
    assert!(plans.len() >= 8, "matrix shrank to {} plans", plans.len());
    let arms: Vec<String> = ARMS.iter().map(|(name, ..)| format!("{name:?}")).collect();
    all_pass([parse(&format!(
        r#"{{"engine":"dense","jitter":25,"budget":8000000,"workloads":["torture/25x6"],"arms":[{}],"chaos":[{}],"seeds":[7]}}"#,
        arms.join(","),
        plans.join(",")
    ))]);
}

/// The ECL (early-commit-of-loads) mode — the paper's stall-on-use use
/// case — under random torture.
#[test]
fn torture_ecl() {
    tier1(r#""workloads":["torture/40x6"],"arms":["wb-ecl"],"seeds":{"first":500,"count":25}"#);
}

/// The 22 programs that once wedged or failed the TSO check on some arm
/// (one dropped SoS bypass hit, tear-offs served after the last lockdown
/// lifted, and an ECL atomic that ran ahead of older loads), each on all
/// five arms at jitter 25 and 0: every line of
/// `campaigns/regressions.jsonl` on the Table-6 machine without soft
/// errors. The other two tables below take the rest of the file, so
/// every line runs. Every cell must pass.
#[test]
fn known_failures_by_arm() {
    assert_eq!(regressions(|_| true).len(), 236);
    let specs = regressions(|s| s.machine != "tiny-llc" && s.softs == ["off"]);
    assert_eq!(specs.len(), 220);
    all_pass(specs);
}

/// An ECL atomic must wait for older loads: the `known_failures_by_arm`
/// cell that showed it (`torture-9046@200` on `wb-ecl`, jitter 0),
/// replayed alone.
#[test]
fn ecl_atomic_waits_for_older_loads() {
    let specs = regressions(|s| s.seeds == [9046] && s.arms == ["wb-ecl"] && s.jitter == [0]);
    assert_eq!(specs.len(), 1);
    all_pass(specs);
}

/// The tiny-LLC livelocks (4 lines per bank, 2 ways, 2 eviction slots:
/// LLC evictions blocked behind lockdowns, §3.5.1), one seed per arm
/// that once wedged: the `tiny-llc` lines of `campaigns/regressions.jsonl`.
/// Every cell must pass.
#[test]
fn tiny_llc_known_failures_by_arm() {
    let specs = regressions(|s| s.machine == "tiny-llc");
    assert_eq!(specs.len(), 8);
    all_pass(specs);
}
