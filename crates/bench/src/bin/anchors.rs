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
use wb_bench::{eval_config, run_all};
use wb_isa::Workload;
use wb_kernel::config::{CoreClass, SystemConfig};
use wb_kernel::soft::SoftPlan;
use wb_workloads::{barrier_storm, splash, Scale};
use writersblock::System;

const RUN_BUDGET: u64 = 50_000_000;

/// The campaign farm itself: a small fixed campaign runs to completion,
/// yielding its cell count, total simulated cycles and the checkpoint
/// size of a warmed cell — the counts a farm change would move.
const CAMPAIGN_SPEC: &str = r#"{
  "name": "anchors", "cores": 2, "engine": "sparse", "budget": 50000000,
  "workloads": ["mp", "sb", "fft"], "arms": ["wb-ooo"],
  "chaos": ["off"], "faults": ["off"], "seeds": [1, 2]
}"#;

fn smoke_cfg(cores: usize) -> SystemConfig {
    eval_config(CoreClass::Slm, "wb-ooo").with_cores(cores)
}

/// The anchor cells, each under the name that prefixes its metrics.
fn cells() -> Vec<(&'static str, (Workload, SystemConfig))> {
    vec![
        ("mp", (wb_tso::litmus::mp().workload, smoke_cfg(2))),
        ("fft4", (splash::fft(4, Scale::Test), smoke_cfg(4))),
        ("barrier4", (barrier_storm(4, 2), smoke_cfg(4))),
        // Soft-error anchor: fft under accelerated background radiation.
        // Records the detection/recovery counters and the audit overhead —
        // a change here means flips started escaping or the scrub got
        // slower.
        (
            "soft4",
            (
                splash::fft(4, Scale::Test),
                smoke_cfg(4).with_soft(SoftPlan::background_radiation().accelerated(10)),
            ),
        ),
    ]
}

/// The deterministic metrics of one finished anchor cell, unprefixed.
fn cell_metrics(mut sys: System) -> Vec<(&'static str, u64)> {
    let soft = sys.config().soft.is_some();
    // Soft cells scrub latent wounds with a final audit before metrics
    // are read, so `soft_silent` reads a hard zero.
    if soft {
        sys.run_audit(true).assert_clean("soft anchor cell");
    }
    let report = sys.report();
    let mut metrics = vec![
        ("sim_cycles", sys.now()),
        ("retired", sys.total_retired()),
        ("mesh_flits", report.stats.get("mesh_flits")),
        ("mesh_msg_p99", report.stats.hist("mesh_msg_cycles").map_or(0, |h| h.p99())),
        ("read_miss_p90", report.stats.hist("cache_read_miss_cycles").map_or(0, |h| h.p90())),
        ("engine_visits", sys.engine_visits()),
        ("engine_skipped_cycles", sys.skipped_cycles()),
        ("engine_skip_windows", sys.skip_windows()),
    ];
    if soft {
        let (injected, _) = sys.soft_injected();
        metrics.extend([
            ("soft_injected", injected),
            ("soft_detected", report.stats.get("soft_detected")),
            ("soft_recovered", report.stats.get("soft_recovered")),
            ("soft_silent", sys.soft_silent()),
            ("audit_runs", report.stats.get("audit_runs")),
            ("audit_violations", report.stats.get("audit_violations")),
            ("soft_detect_p90", report.stats.hist("soft_detect_latency").map_or(0, |h| h.p90())),
        ]);
    }
    metrics
}

/// Run the fixed campaign and record the farm's metrics.
fn campaign_metrics(metrics: &mut BTreeMap<String, u64>) {
    let spec = CampaignSpec::parse(CAMPAIGN_SPEC)
        .unwrap_or_else(|e| panic!("anchor campaign spec: {e}")); // allow(panic): bench binary
    // The farm writes its results and manifest to disk; this scratch
    // directory is removed below and no metric depends on its path.
    #[allow(clippy::disallowed_methods, reason = "campaign scratch dir, removed after the run")]
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

    // Checkpoint size of a 4-core fft 2,000 cycles in — a
    // representative mid-run snapshot.
    let mut sys = System::new(smoke_cfg(4), &splash::fft(4, Scale::Test));
    let _ = sys.run(2_000);

    metrics.insert("campaign_cells".to_owned(), rep.total as u64);
    metrics.insert("campaign_sim_cycles".to_owned(), sim_cycles);
    metrics.insert("campaign_snapshot_bytes".to_owned(), sys.snapshot().len() as u64);
}

fn main() {
    let (names, cells): (Vec<_>, Vec<_>) = cells().into_iter().unzip();
    let mut metrics = BTreeMap::new();
    for (name, cell) in names.into_iter().zip(run_all(RUN_BUDGET, cells, cell_metrics)) {
        metrics.extend(cell.into_iter().map(|(k, v)| (format!("{name}_{k}"), v)));
    }
    campaign_metrics(&mut metrics);
    for (name, value) in &metrics {
        println!("{name} {value}");
    }
}
