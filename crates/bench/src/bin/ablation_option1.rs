//! Ablation: "Option 1" of Section 3.4 — serving *cacheable* copies from
//! a WritersBlock directory entry and re-invalidating the newcomers.
//!
//! The paper rejects this option because readers spinning on the blocked
//! location force the directory into perpetual re-invalidation rounds,
//! starving the write. This binary constructs the scenario — a lockdown
//! over a pointer-chased (two dependent misses) load delays a write
//! while other cores spin-read the same line — and compares both
//! options across seeds. The workload is `directed::option1_bounded`,
//! the bounded-spin sibling of the chaos lab's `option1_spin`.

use wb_bench::run_all;
use wb_kernel::config::{CommitMode, CoreClass, SystemConfig};
use wb_workloads::directed;

fn main() {
    let cores = 8;
    let seeds = 0..24u64;
    let w = directed::option1_bounded(cores, 4_000);
    println!(
        "Option 1 vs Option 2 under a blocked write with {} spin-readers, {} seeds\n",
        cores - 2,
        seeds.end
    );
    for option1 in [false, true] {
        let cells = seeds
            .clone()
            .map(|seed| {
                let mut cfg = SystemConfig::new(CoreClass::Slm)
                    .with_cores(cores)
                    .with_commit(CommitMode::OutOfOrderWb)
                    .with_seed(seed)
                    .with_jitter(20)
                    .without_event_log();
                cfg.wb_cacheable_reads = option1;
                (w.clone(), cfg)
            })
            .collect();
        let runs = run_all(3_000_000, cells, |sys| (sys.now(), sys.report().stats));
        let (mut blocked_runs, mut cycles_sum, mut reinv, mut cacheable) = (0u64, 0u64, 0u64, 0u64);
        for (cycles, stats) in runs {
            if stats.get("dir_writes_blocked") > 0 {
                blocked_runs += 1;
                cycles_sum += cycles;
            }
            reinv += stats.get("dir_option1_reinvalidations");
            cacheable += stats.get("dir_option1_cacheable_reads");
        }
        let total = seeds.end;
        println!(
            "{:<42} blocked-write runs {blocked_runs:>2}/{total}, avg cycles of those {:>7}, cacheable WB reads {cacheable}, re-invalidations {reinv}",
            if option1 {
                "Option 1 (cacheable + re-invalidate):"
            } else {
                "Option 2 (tear-off, the paper's choice):"
            },
            cycles_sum.checked_div(blocked_runs).unwrap_or(0),
        );
    }
    println!("\nOption 1's re-invalidation rounds delay the blocked write while readers spin (Section 3.4);");
    println!("with unbounded spin loops this becomes livelock, which is why the paper chooses Option 2.");
}
