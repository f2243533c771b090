//! Ablation: silent vs. non-silent evictions of shared lines (Section
//! 3.8). The paper chose silent shared evictions for its baseline,
//! citing ~9.6% lower traffic. This reproduces the traffic comparison.

use wb_bench::{eval_config, geomean, run_suite};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

fn main() {
    println!("Eviction policy ablation (in-order commit, base MESI).");
    println!("The private caches are shrunk (L2 = 2 KiB) so shared lines actually evict\n");
    println!("{:<14} {:>12} {:>12} {:>9}", "bench", "silent", "non-silent", "traffic");
    let mut silent = eval_config(CoreClass::Slm, "mesi-inorder");
    silent.memory.l2_bytes = 2 * 1024;
    silent.memory.l1_bytes = 1024;
    let mut loud = silent.clone();
    loud.memory.silent_shared_evictions = false;
    let mut ratios = Vec::new();
    for row in run_suite(Scale::Test, &[silent, loud]) {
        let (silent, loud) = (row[0].network_flits(), row[1].network_flits());
        let ratio = loud as f64 / silent.max(1) as f64;
        ratios.push(ratio);
        println!("{:<14} {:>12} {:>12} {:>8.3}x", row[0].name, silent, loud, ratio);
    }
    println!(
        "\nnon-silent / silent traffic geomean: {:.3}x (paper: silent saves ~9.6%)",
        geomean(&ratios)
    );
}
