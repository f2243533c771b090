//! Machine-scaling sweep: 16 / 64 / 256 cores (4x4, 8x8, 16x16).
//!
//! The fig8/fig10 counterpart for machine size instead of core
//! aggressiveness: how the WritersBlock rates, Nack retry traffic and
//! directory-bank contention evolve as the machine grows. Every number
//! is a simulated count on the sparse engine (dense == sparse is pinned
//! by the `engine_equivalence` suite); host time is `benchmark/`'s to
//! measure (its `scale256` workload).
//!
//! Two workloads anchor the sweep: `fft` (the barrier-heavy fig-8
//! flagship) and `barrier-storm` (nothing but serialized fetch-adds —
//! the worst case for the barrier counter's home bank). Each cell's
//! stats embed, besides the usual run counters:
//!
//! - `sim_cycles` and the engine's `engine_visits` /
//!   `engine_skipped_cycles` / `engine_skip_windows`;
//! - the merged `dir_bank_occupancy` histogram plus per-bank re-keyed
//!   copies (`dir_bank007_occupancy`) and per-bank request counts
//!   (`dir_bank007_requests`), so bank imbalance is visible per size.
//!
//! Writes `BENCH_scaling.json` (`WB_BENCH_DIR` redirects). `--full`
//! adds radix and streamcluster; `--smoke` runs only the 64-core fft
//! cell `scripts/verify.sh` gates on.

use wb_bench::sweep;
use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::{json, Stats};
use wb_workloads::{barrier_storm, Scale};
use writersblock::{RunOutcome, System};

const RUN_BUDGET: u64 = 200_000_000;
/// The `--full` kernels converge slower at 256 cores; cap them tighter
/// so a wedged cell fails fast instead of burning the whole budget.
const FULL_BUDGET: u64 = 400_000_000;
const MAX_BANKS: usize = wb_kernel::MAX_NODES * 2;

#[derive(Clone, Copy)]
struct Cell {
    workload: &'static str,
    cores: usize,
    banks_per_node: usize,
    budget: u64,
}

/// `barrier` is the one-round barrier storm; any other name is a
/// suite kernel.
fn workload_for(cell: Cell) -> Workload {
    if cell.workload == "barrier" {
        return barrier_storm(cell.cores, 1);
    }
    wb_workloads::by_name(cell.workload, cell.cores, Scale::Test)
        .unwrap_or_else(|| panic!("unknown scaling workload {}", cell.workload)) // allow(panic): bench driver
}

/// Run one cell; returns its name and annotated stats.
fn run_cell(cell: Cell, bank_keys: &BankKeys) -> (String, Stats) {
    let w = workload_for(cell);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(cell.cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .without_event_log();
    cfg.memory.dir_banks_per_node = cell.banks_per_node;
    let name = format!("{}/c{:03}/b{}", cell.workload, cell.cores, cell.banks_per_node);
    let mut sys = System::new(cfg, &w);
    let outcome = sys.run(cell.budget);
    assert_eq!(outcome, RunOutcome::Done, "{name} ended with {outcome} at cycle {}", sys.now());

    let mut stats = sys.report().stats;
    stats.set("sim_cycles", sys.now());
    stats.set("engine_skipped_cycles", sys.skipped_cycles());
    stats.set("engine_skip_windows", sys.skip_windows());
    stats.set("engine_visits", sys.engine_visits());
    for (bank, s) in sys.dir_stats() {
        let requests = s.get("dir_gets") + s.get("dir_getx");
        if requests > 0 {
            stats.set(bank_keys.requests[bank], requests);
        }
        if let Some(h) = s.hist("dir_bank_occupancy") {
            stats.merge_hist(bank_keys.occupancy[bank], h);
        }
    }
    (name, stats)
}

/// Per-bank counter names. `Stats` keys are `&'static str`, so the
/// names for every possible bank index are leaked once up front.
struct BankKeys {
    occupancy: Vec<&'static str>,
    requests: Vec<&'static str>,
}

impl BankKeys {
    fn new() -> Self {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        BankKeys {
            occupancy: (0..MAX_BANKS).map(|b| leak(format!("dir_bank{b:03}_occupancy"))).collect(),
            requests: (0..MAX_BANKS).map(|b| leak(format!("dir_bank{b:03}_requests"))).collect(),
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let cell =
        |workload, cores, banks_per_node, budget| Cell { workload, cores, banks_per_node, budget };
    let cells: Vec<Cell> = if smoke {
        vec![cell("fft", 64, 2, RUN_BUDGET)]
    } else {
        let mut v = Vec::new();
        for workload in ["fft", "barrier"] {
            for cores in [16usize, 64, 256] {
                v.push(cell(workload, cores, 1, RUN_BUDGET));
            }
        }
        // One sharded point: does splitting each home node into two
        // banks relieve the barrier line's port pressure at 256 cores?
        v.push(cell("barrier", 256, 2, RUN_BUDGET));
        if full {
            // Two more kernel shapes: radix (all-to-all permutation
            // traffic) and streamcluster (read-mostly sharing with hot
            // medoid lines).
            for workload in ["radix", "streamcluster"] {
                for cores in [16usize, 64, 256] {
                    v.push(cell(workload, cores, 1, FULL_BUDGET));
                }
            }
        }
        v
    };

    let bank_keys = BankKeys::new();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let results = sweep::run_on(threads, cells, |cell| run_cell(cell, &bank_keys));

    let mut out = String::from("{\"group\":\"scaling\",\"benches\":[");
    for (i, (name, s)) in results.iter().enumerate() {
        let occ = s.hist("dir_bank_occupancy");
        eprintln!(
            "{:<24} {:>10} cycles  nack_retries={:<6} occ_p99={} occ_max={}",
            name,
            s.get("sim_cycles"),
            s.get("dir_nack_retries"),
            occ.map_or(0, |h| h.p99()),
            occ.map_or(0, |h| h.max()),
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"stats\":{}}}",
            json::escape(name),
            s.to_json()
        ));
    }
    out.push_str("]}");
    let dir = std::env::var("WB_BENCH_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = format!("{dir}/BENCH_scaling.json");
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("writing {path}: {e}")); // allow(panic): bench driver
    eprintln!("wrote {path}");
}
