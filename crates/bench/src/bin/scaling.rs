//! Machine-scaling sweep: 16 / 64 / 256 cores (4x4, 8x8, 16x16).
//!
//! The fig8/fig10 counterpart for machine size instead of core
//! aggressiveness: how the WritersBlock rates, Nack retry traffic and
//! directory-bank contention evolve as the machine grows, and what the
//! simulator itself sustains (simulated cycles per wall-second, dense
//! vs sparse) at each size.
//!
//! Two workloads anchor the sweep: `fft` (the barrier-heavy fig-8
//! flagship) and `barrier-storm` (nothing but serialized fetch-adds —
//! the worst case for the barrier counter's home bank). Each cell's
//! stats embed, besides the usual run counters:
//!
//! - `sim_cycles`, `wall_ns`, `sim_cycles_per_sec` — the throughput
//!   headline;
//! - the merged `dir_bank_occupancy` histogram plus per-bank re-keyed
//!   copies (`dir_bank007_occupancy`) and per-bank request counts
//!   (`dir_bank007_requests`), so bank imbalance is visible per size.
//!
//! Cells run on the parallel sweep runner; each cell times itself, so
//! with concurrent workers the wall numbers carry scheduler noise. Set
//! `WB_SCALING_SERIAL=1` for clean serial timing, `--smoke` for the
//! 64-core sparse-only cell `scripts/verify.sh` gates on.

use wb_bench::sweep;
use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::Stats;
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
    engine: EngineMode,
    banks_per_node: usize,
    budget: u64,
}

struct CellResult {
    name: String,
    wall_ns: u128,
    stats: Stats,
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

/// Run one cell and collect its annotated stats.
fn run_cell(cell: Cell, bank_keys: &BankKeys) -> CellResult {
    let w = workload_for(cell);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(cell.cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(cell.engine)
        .without_event_log();
    cfg.memory.dir_banks_per_node = cell.banks_per_node;
    let name = format!(
        "{}/c{:03}/b{}/{}",
        cell.workload,
        cell.cores,
        cell.banks_per_node,
        cell.engine.name()
    );
    let t0 = std::time::Instant::now();
    let mut sys = System::new(cfg, &w);
    let outcome = sys.run(cell.budget);
    let wall_ns = t0.elapsed().as_nanos();
    assert_eq!(outcome, RunOutcome::Done, "{name} ended with {outcome} at cycle {}", sys.now());

    let mut stats = sys.report().stats;
    let cycles = sys.now();
    stats.set("sim_cycles", cycles);
    stats.set("wall_ns", wall_ns as u64);
    stats.set("sim_cycles_per_sec", (cycles as u128 * 1_000_000_000 / wall_ns.max(1)) as u64);
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
    CellResult { name, wall_ns, stats }
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

/// `BENCH_scaling.json` in the `BenchGroup` schema (single-sample
/// cells: the simulator is deterministic, so repeat samples only
/// re-measure the allocator).
fn to_json(results: &[CellResult]) -> String {
    let mut out = String::from("{\"group\":\"scaling\",\"benches\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"median_ns\":{},\"mean_ns\":{},\"samples_ns\":[{}],\"stats\":{}}}",
            r.name,
            r.wall_ns,
            r.wall_ns,
            r.wall_ns,
            r.stats.to_json()
        ));
    }
    out.push_str("]}");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let cells: Vec<Cell> = if smoke {
        vec![Cell {
            workload: "fft",
            cores: 64,
            engine: EngineMode::Sparse,
            banks_per_node: 2,
            budget: RUN_BUDGET,
        }]
    } else {
        let mut v = Vec::new();
        for workload in ["fft", "barrier"] {
            for cores in [16usize, 64, 256] {
                for engine in [EngineMode::Dense, EngineMode::Sparse] {
                    v.push(Cell { workload, cores, engine, banks_per_node: 1, budget: RUN_BUDGET });
                }
            }
        }
        // One sharded point: does splitting each home node into two
        // banks relieve the barrier line's port pressure at 256 cores?
        v.push(Cell {
            workload: "barrier",
            cores: 256,
            engine: EngineMode::Sparse,
            banks_per_node: 2,
            budget: RUN_BUDGET,
        });
        if full {
            // Two more kernel shapes: radix (all-to-all permutation
            // traffic) and streamcluster (read-mostly sharing with hot
            // medoid lines). Dense ticking at 256 cores costs minutes of
            // wall-clock for no extra information — the equivalence
            // suite already pins dense==sparse — so the largest
            // size runs without the dense column.
            for workload in ["radix", "streamcluster"] {
                for cores in [16usize, 64, 256] {
                    for engine in [EngineMode::Dense, EngineMode::Sparse] {
                        if cores == 256 && engine == EngineMode::Dense {
                            continue;
                        }
                        v.push(Cell { workload, cores, engine, banks_per_node: 1, budget: FULL_BUDGET });
                    }
                }
            }
        }
        v
    };

    let bank_keys = BankKeys::new();
    let serial = std::env::var("WB_SCALING_SERIAL").is_ok_and(|v| v == "1");
    let threads = if serial {
        1
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    };
    let results = sweep::run_on(threads, cells, |cell| run_cell(cell, &bank_keys));

    for r in &results {
        let s = &r.stats;
        eprintln!(
            "{:<28} {:>10} cycles {:>12} cyc/s  nack_retries={:<6} occ_p99={}",
            r.name,
            s.get("sim_cycles"),
            s.get("sim_cycles_per_sec"),
            s.get("dir_nack_retries"),
            s.hist("dir_bank_occupancy").map_or(0, |h| h.p99()),
        );
    }

    let json = to_json(&results);
    wb_kernel::json::parse(&json).unwrap_or_else(|e| panic!("scaling JSON invalid: {e}")); // allow(panic): bench driver
    let dir = std::env::var("WB_BENCH_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = format!("{dir}/BENCH_scaling.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}")); // allow(panic): bench driver
    eprintln!("wrote {path}");
}
