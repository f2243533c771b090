//! The perf-regression gate: run a small fixed bench suite, append the
//! result to `results/ledger.jsonl`, and fail if any deterministic
//! metric regressed against the committed baseline.
//!
//! Four cheap cells anchor the suite — the `mp` litmus race (the
//! paper's core reordering scenario), a 4-core `fft` (barrier-heavy
//! kernel), a 4-core barrier storm (directory-bank pressure) and the
//! same `fft` under accelerated background soft-error radiation
//! (detection/recovery and audit overhead) — all on the sparse engine,
//! so every simulated metric is byte-reproducible on a given revision,
//! and the scheduler's economics (`engine_visits`, cycles jumped) gate
//! at the same 2% gate beside them: a visits regression means components
//! stopped sleeping even while outcomes — pinned byte-identical by the
//! equivalence suite — stay green. Host time is not recorded: it is
//! `benchmark/`'s to measure (see [`wb_bench::ledger`] for the gating
//! policy).
//!
//! | variable         | effect                                        |
//! |------------------|-----------------------------------------------|
//! | `WB_LEDGER_PATH` | ledger file (default `results/ledger.jsonl`)  |
//!
//! Exit status: 0 when clean (or when there is no baseline for this
//! configuration yet), 1 when a gated metric regressed.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use wb_bench::campaign::{self, CampaignSpec};
use wb_bench::ledger::{self, LedgerEntry};
use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::soft::SoftPlan;
use wb_workloads::{barrier_storm, splash, Scale};
use writersblock::{RunOutcome, System};

const GROUP: &str = "ledger-smoke";
const RUN_BUDGET: u64 = 50_000_000;

/// Second metric group: the campaign farm itself. A small fixed
/// campaign runs to completion, yielding its cell count, total
/// simulated cycles and the checkpoint size of a warmed cell — the
/// counts a farm regression would move.
const CAMPAIGN_GROUP: &str = "campaign";

const CAMPAIGN_SPEC: &str = r#"{
  "name": "ledger-campaign", "cores": 2, "engine": "sparse", "budget": 50000000,
  "workloads": ["mp", "sb", "fft"], "arms": ["wb-ooo"],
  "chaos": ["off"], "faults": ["off"], "seeds": [1, 2]
}"#;

struct Cell {
    name: &'static str,
    workload: Workload,
    cfg: SystemConfig,
}

fn cells() -> Vec<Cell> {
    let smoke_cfg = |cores: usize| {
        SystemConfig::new(CoreClass::Slm)
            .with_cores(cores)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_engine(EngineMode::Sparse)
            .without_event_log()
    };
    vec![
        Cell { name: "mp", workload: wb_tso::litmus::mp().workload, cfg: smoke_cfg(2) },
        Cell { name: "fft4", workload: splash::fft(4, Scale::Test), cfg: smoke_cfg(4) },
        Cell { name: "barrier4", workload: barrier_storm(4, 2), cfg: smoke_cfg(4) },
        // Soft-error anchor: fft under accelerated background radiation.
        // Gates the detection/recovery counters and the audit overhead —
        // a regression here means flips started escaping or the scrub
        // got slower.
        Cell {
            name: "soft4",
            workload: splash::fft(4, Scale::Test),
            cfg: smoke_cfg(4).with_soft(SoftPlan::background_radiation().accelerated(10)),
        },
    ]
}

/// Deterministic digest of the swept configuration: the cells, their
/// configs and the budget. `DefaultHasher::new()` uses fixed keys, so
/// the digest is stable across runs of the same build.
fn config_digest(cells: &[Cell]) -> String {
    let mut h = std::hash::DefaultHasher::new();
    RUN_BUDGET.hash(&mut h);
    for c in cells {
        c.name.hash(&mut h);
        c.workload.name.hash(&mut h);
        format!("{:?}", c.cfg).hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Run one cell and record its deterministic metrics.
fn run_cell(cell: &Cell, metrics: &mut BTreeMap<String, u64>) {
    let mut sys = System::new(cell.cfg.clone(), &cell.workload);
    let outcome = sys.run(RUN_BUDGET);
    assert_eq!(
        outcome,
        RunOutcome::Done,
        "ledger cell {} ended with {outcome} at cycle {}", // allow(panic): bench driver
        cell.name,
        sys.now()
    );
    // Soft cells scrub latent wounds with a final audit before metrics
    // are read, so `soft_silent` gates at a hard zero.
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
    eprintln!("{:<10} {:>10} cycles", cell.name, sys.now());
}

/// Run the fixed ledger campaign and report the farm's metric group.
fn campaign_metrics() -> BTreeMap<String, u64> {
    let spec = CampaignSpec::parse(CAMPAIGN_SPEC)
        .unwrap_or_else(|e| panic!("ledger campaign spec: {e}")); // allow(panic): bench driver
    let dir = std::env::temp_dir().join(format!("wb-ledger-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4);
    let rep = campaign::run_campaign(&spec, &dir, threads, None)
        .unwrap_or_else(|e| panic!("ledger campaign: {e}")); // allow(panic): bench driver
    assert_eq!(rep.ran, rep.total, "fresh run executes every cell"); // allow(panic): bench driver

    let merged = std::fs::read_to_string(dir.join("merged.jsonl"))
        .unwrap_or_else(|e| panic!("reading merged.jsonl: {e}")); // allow(panic): bench driver
    let sim_cycles: u64 = merged
        .lines()
        .map(|l| {
            campaign::CellResult::parse_line(l)
                .unwrap_or_else(|e| panic!("merged.jsonl line: {e}")) // allow(panic): bench driver
                .cycles
        })
        .sum();
    let _ = std::fs::remove_dir_all(&dir);

    // Checkpoint size of a warmed 4-core fft — the representative
    // mid-run snapshot a warm-start farm would fork. Deterministic, so
    // gated: unnoticed snapshot bloat is a real regression.
    let w = splash::fft(4, Scale::Test);
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .without_event_log();
    let mut sys = System::new(cfg, &w);
    let _ = sys.run(2_000);
    let snapshot_bytes = sys.snapshot().len() as u64;

    BTreeMap::from([
        ("campaign_cells".to_owned(), rep.total as u64),
        ("campaign_sim_cycles".to_owned(), sim_cycles),
        ("campaign_snapshot_bytes".to_owned(), snapshot_bytes),
    ])
}

fn main() {
    let cells = cells();
    let rev = git_rev();

    let mut metrics = BTreeMap::new();
    for cell in &cells {
        run_cell(cell, &mut metrics);
    }
    let smoke = LedgerEntry {
        rev: rev.clone(),
        config_digest: config_digest(&cells),
        group: GROUP.to_owned(),
        metrics,
    };
    let farm = {
        let mut h = std::hash::DefaultHasher::new();
        CAMPAIGN_SPEC.hash(&mut h);
        LedgerEntry {
            rev: rev.clone(),
            config_digest: format!("{:016x}", h.finish()),
            group: CAMPAIGN_GROUP.to_owned(),
            metrics: campaign_metrics(),
        }
    };
    let entries = [smoke, farm];

    let path =
        std::env::var("WB_LEDGER_PATH").unwrap_or_else(|_| "results/ledger.jsonl".to_owned());
    let existing = match std::fs::read_to_string(&path) {
        Ok(s) => ledger::parse_ledger(&s)
            .unwrap_or_else(|e| panic!("{path} is corrupt: {e}")), // allow(panic): bench driver
        Err(_) => Vec::new(),
    };

    let mut regressed = false;
    for entry in &entries {
        match ledger::baseline_for(&existing, &entry.group, &entry.config_digest) {
            Some(base) => {
                let cmp = ledger::compare(base, entry);
                print!("{}", ledger::render_comparison(&base.rev, &rev, &cmp));
                regressed |= ledger::has_regression(&cmp);
            }
            None => eprintln!(
                "no baseline for {} config {} in {path}; recording a fresh one",
                entry.group, entry.config_digest
            ),
        }
    }

    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display())); // allow(panic): bench driver
        }
    }
    let mut file = existing.iter().map(LedgerEntry::to_json_line).collect::<Vec<_>>().join("\n");
    if !file.is_empty() {
        file.push('\n');
    }
    for entry in &entries {
        file.push_str(&entry.to_json_line());
        file.push('\n');
    }
    std::fs::write(&path, file).unwrap_or_else(|e| panic!("writing {path}: {e}")); // allow(panic): bench driver
    eprintln!("appended {rev} to {path} ({} entries)", existing.len() + entries.len());

    if regressed {
        eprintln!("ledger: REGRESSION — a metric exceeded its gate");
        std::process::exit(1);
    }
}
