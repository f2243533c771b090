//! Ablation: silent vs. non-silent evictions of shared lines (Section
//! 3.8). The paper chose silent shared evictions for its baseline,
//! citing ~9.6% lower traffic. This reproduces the traffic comparison.

use wb_bench::{eval_config, geomean, run_one};
use wb_kernel::config::{CommitMode, CoreClass};
use wb_workloads::{suite, Scale};

fn main() {
    println!("Eviction policy ablation (in-order commit, base MESI).");
    println!("The private caches are shrunk (L2 = 2 KiB) so shared lines actually evict\n");
    println!("{:<14} {:>12} {:>12} {:>9}", "bench", "silent", "non-silent", "traffic");
    let mut ratios = Vec::new();
    for w in suite(16, Scale::Test) {
        let mut cfg = eval_config(CoreClass::Slm, CommitMode::InOrder, false);
        cfg.memory.l2_bytes = 2 * 1024;
        cfg.memory.l1_bytes = 1024;
        let silent = run_one(&w, cfg.clone());
        cfg.memory.silent_shared_evictions = false;
        let loud = run_one(&w, cfg);
        let ratio = loud.report.network_flits() as f64 / silent.report.network_flits().max(1) as f64;
        ratios.push(ratio);
        println!(
            "{:<14} {:>12} {:>12} {:>8.3}x",
            w.name,
            silent.report.network_flits(),
            loud.report.network_flits(),
            ratio
        );
    }
    println!(
        "\nnon-silent / silent traffic geomean: {:.3}x (paper: silent saves ~9.6%)",
        geomean(&ratios)
    );
}
