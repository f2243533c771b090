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
//! the worst case for the barrier counter's home bank). Two tables go
//! to stdout (`results/scaling.txt`): protocol traffic per cell, with
//! the directory-occupancy percentiles and the two busiest banks'
//! request counts, and the sparse engine's work per cell.

use wb_bench::{eval_config, run_all, RUN_BUDGET};
use wb_isa::Workload;
use wb_kernel::config::CoreClass;
use wb_workloads::{barrier_storm, Scale};
use writersblock::{Report, System};

#[derive(Clone, Copy)]
struct Cell {
    workload: &'static str,
    cores: usize,
    banks_per_node: usize,
}

/// One finished cell: its report plus what the engine and the banks saw.
struct Row {
    report: Report,
    engine_visits: u64,
    /// Requests (GetS + GetX) per bank, busiest first.
    bank_requests: Vec<u64>,
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

fn summarize(sys: System) -> Row {
    let mut bank_requests: Vec<u64> =
        sys.dir_stats().map(|(_, s)| s.get("dir_gets") + s.get("dir_getx")).collect();
    bank_requests.sort_unstable_by(|a, b| b.cmp(a));
    Row { report: sys.report(), engine_visits: sys.engine_visits(), bank_requests }
}

fn main() {
    let cell = |workload, cores, banks_per_node| Cell { workload, cores, banks_per_node };
    let mut cells = Vec::new();
    for workload in ["fft", "barrier"] {
        for cores in [16usize, 64, 256] {
            cells.push(cell(workload, cores, 1));
        }
    }
    // Two sharded points: does splitting each home node into two banks
    // relieve the hot line's port pressure?
    cells.push(cell("fft", 64, 2));
    cells.push(cell("barrier", 256, 2));

    let runs = cells.iter().map(|&c| {
        let mut cfg = eval_config(CoreClass::Slm, "wb-ooo").with_cores(c.cores);
        cfg.memory.dir_banks_per_node = c.banks_per_node;
        (workload_for(c), cfg)
    });
    let rows = run_all(RUN_BUDGET, runs.collect(), summarize);
    let names =
        cells.iter().map(|c| format!("{}/c{:03}/b{}", c.workload, c.cores, c.banks_per_node));
    let rows: Vec<(String, Row)> = names.zip(rows).collect();

    println!("== Machine scaling: SLM-class OoO+WB cores on the sparse engine ==");
    println!(
        "{:<20}{:>9}{:>8}{:>8}{:>9}{:>10}{:>7}{:>5}{:>5}{:>10}{:>10}",
        "traffic", "cycles", "stores", "blocked", "blk/kst", "tear-offs", "nacks", "p99", "max",
        "bank-1st", "bank-2nd",
    );
    for (name, r) in &rows {
        let s = &r.report.stats;
        let occ = s.hist("dir_bank_occupancy");
        let bank = |i: usize| r.bank_requests.get(i).copied().unwrap_or(0);
        println!(
            "{:<20}{:>9}{:>8}{:>8}{:>9.3}{:>10}{:>7}{:>5}{:>5}{:>10}{:>10}",
            name,
            r.report.cycles,
            s.get("core_stores_committed") + s.get("core_amos_committed"),
            s.get("dir_writes_blocked"),
            r.report.blocked_writes_per_kilostore(),
            s.get("dir_tearoff_replies"),
            s.get("dir_nack_retries"),
            occ.map_or(0, |h| h.p99()),
            occ.map_or(0, |h| h.max()),
            bank(0),
            bank(1),
        );
    }
    println!("(p99/max: directory-bank occupancy; bank-1st/2nd: requests at the two busiest banks)");
    println!();
    println!(
        "{:<20}{:>9}{:>9}{:>8}{:>10}{:>10}{:>12}",
        "engine", "cycles", "jumped", "jumped%", "executed", "visits", "visits/exec"
    );
    for (name, r) in &rows {
        let cycles = r.report.cycles;
        let jumped = r.report.skipped_cycles;
        let executed = cycles - jumped;
        println!(
            "{:<20}{:>9}{:>9}{:>7.1}%{:>10}{:>10}{:>12.2}",
            name,
            cycles,
            jumped,
            jumped as f64 * 100.0 / cycles as f64,
            executed,
            r.engine_visits,
            r.engine_visits as f64 / executed.max(1) as f64,
        );
    }
    println!("(a dense tick visits 2n+b+1 units at n cores and b banks: pairs, drains, banks, the mesh)");
}
