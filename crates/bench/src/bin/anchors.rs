//! The anchor cells: a small fixed suite whose simulated counts are
//! printed as sorted `name value` lines (`results/anchors.txt`).
//!
//! Four cheap cells anchor the suite — the `mp` litmus race (the
//! paper's core reordering scenario), a 4-core `fft` (barrier-heavy
//! kernel), a 4-core barrier storm (directory-bank pressure) and the
//! same `fft` under accelerated background soft-error radiation
//! (detection/recovery and audit overhead) — all on the sparse engine,
//! so every count is byte-reproducible on a given revision. Beside the
//! outcomes they record the scheduler's economics (`engine_visits`,
//! cycles jumped): a visits change means components stopped sleeping
//! even while outcomes stay green. A fixed campaign adds the farm's
//! counts. Host time is not recorded: it is `benchmark/`'s to measure.

use std::collections::BTreeMap;
use wb_bench::campaign::{self, CampaignSpec};
use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::soft::SoftPlan;
use wb_workloads::{barrier_storm, splash, Scale};
use writersblock::{RunOutcome, System};

const RUN_BUDGET: u64 = 50_000_000;

/// The campaign farm itself: a small fixed campaign runs to completion,
/// yielding its cell count, total simulated cycles and the checkpoint
/// size of a warmed cell — the counts a farm change would move.
const CAMPAIGN_SPEC: &str = r#"{
  "name": "anchors", "cores": 2, "engine": "sparse", "budget": 50000000,
  "workloads": ["mp", "sb", "fft"], "arms": ["wb-ooo"],
  "chaos": ["off"], "faults": ["off"], "seeds": [1, 2]
}"#;

struct Cell {
    name: &'static str,
    workload: Workload,
    cfg: SystemConfig,
}

fn smoke_cfg(cores: usize) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_cores(cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .without_event_log()
}

fn cells() -> Vec<Cell> {
    vec![
        Cell { name: "mp", workload: wb_tso::litmus::mp().workload, cfg: smoke_cfg(2) },
        Cell { name: "fft4", workload: splash::fft(4, Scale::Test), cfg: smoke_cfg(4) },
        Cell { name: "barrier4", workload: barrier_storm(4, 2), cfg: smoke_cfg(4) },
        // Soft-error anchor: fft under accelerated background radiation.
        // Records the detection/recovery counters and the audit overhead —
        // a change here means flips started escaping or the scrub got
        // slower.
        Cell {
            name: "soft4",
            workload: splash::fft(4, Scale::Test),
            cfg: smoke_cfg(4).with_soft(SoftPlan::background_radiation().accelerated(10)),
        },
    ]
}

/// Run one cell and record its deterministic metrics.
fn run_cell(cell: &Cell, metrics: &mut BTreeMap<String, u64>) {
    let mut sys = System::new(cell.cfg.clone(), &cell.workload);
    let outcome = sys.run(RUN_BUDGET);
    assert_eq!(
        outcome,
        RunOutcome::Done,
        "anchor cell {} ended with {outcome} at cycle {}", // allow(panic): bench binary
        cell.name,
        sys.now()
    );
    // Soft cells scrub latent wounds with a final audit before metrics
    // are read, so `soft_silent` reads a hard zero.
    if cell.cfg.soft.is_some() {
        sys.run_audit(true).assert_clean(cell.name);
    }
    let report = sys.report();
    let key = |k: &str| format!("{}_{k}", cell.name);
    for (k, v) in [
        (key("sim_cycles"), sys.now()),
        (key("retired"), sys.total_retired()),
        (key("mesh_flits"), report.stats.get("mesh_flits")),
        (key("mesh_msg_p99"), report.stats.hist("mesh_msg_cycles").map_or(0, |h| h.p99())),
        (key("read_miss_p90"), report.stats.hist("cache_read_miss_cycles").map_or(0, |h| h.p90())),
        (key("engine_visits"), sys.engine_visits()),
        (key("engine_skipped_cycles"), sys.skipped_cycles()),
        (key("engine_skip_windows"), sys.skip_windows()),
    ] {
        metrics.insert(k, v);
    }
    if cell.cfg.soft.is_some() {
        let (injected, _) = sys.soft_injected();
        for (k, v) in [
            (key("soft_injected"), injected),
            (key("soft_detected"), report.stats.get("soft_detected")),
            (key("soft_recovered"), report.stats.get("soft_recovered")),
            (key("soft_silent"), sys.soft_silent()),
            (key("audit_runs"), report.stats.get("audit_runs")),
            (key("audit_violations"), report.stats.get("audit_violations")),
            (
                key("soft_detect_p90"),
                report.stats.hist("soft_detect_latency").map_or(0, |h| h.p90()),
            ),
        ] {
            metrics.insert(k, v);
        }
    }
}

/// Run the fixed campaign and record the farm's metrics.
fn campaign_metrics(metrics: &mut BTreeMap<String, u64>) {
    let spec = CampaignSpec::parse(CAMPAIGN_SPEC)
        .unwrap_or_else(|e| panic!("anchor campaign spec: {e}")); // allow(panic): bench binary
    let dir = std::env::temp_dir().join(format!("wb-anchors-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4);
    let rep = campaign::run_campaign(&spec, &dir, threads, None)
        .unwrap_or_else(|e| panic!("anchor campaign: {e}")); // allow(panic): bench binary
    assert_eq!(rep.ran, rep.total, "fresh run executes every cell"); // allow(panic): bench binary

    let merged = std::fs::read_to_string(dir.join("merged.jsonl"))
        .unwrap_or_else(|e| panic!("reading merged.jsonl: {e}")); // allow(panic): bench binary
    let sim_cycles: u64 = merged
        .lines()
        .map(|l| {
            campaign::CellResult::parse_line(l)
                .unwrap_or_else(|e| panic!("merged.jsonl line: {e}")) // allow(panic): bench binary
                .cycles
        })
        .sum();
    let _ = std::fs::remove_dir_all(&dir);

    // Checkpoint size of a warmed 4-core fft — the representative
    // mid-run snapshot a warm-start farm would fork.
    let mut sys = System::new(smoke_cfg(4), &splash::fft(4, Scale::Test));
    let _ = sys.run(2_000);

    metrics.insert("campaign_cells".to_owned(), rep.total as u64);
    metrics.insert("campaign_sim_cycles".to_owned(), sim_cycles);
    metrics.insert("campaign_snapshot_bytes".to_owned(), sys.snapshot().len() as u64);
}

fn main() {
    let mut metrics = BTreeMap::new();
    for cell in &cells() {
        run_cell(cell, &mut metrics);
    }
    campaign_metrics(&mut metrics);
    for (name, value) in &metrics {
        println!("{name} {value}");
    }
}
