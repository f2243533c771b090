//! Soft-error lab: flip bits inside the coherence protocol's own stored
//! state — cache line states and tags, directory states and sharer
//! sets, MSHR bookkeeping — and show that the guard-hash detectors plus
//! the repair path (a cache line restored in place, a directory entry
//! purged from every core) catch every strike before it becomes
//! architecturally visible.
//!
//! ```text
//! cargo run -p wb-examples --bin soft_lab
//! ```
//!
//! Three kinds of scenario run here:
//!
//! 1. Every plan in the standard soft matrix (state storms, tag flips,
//!    sharer-set bits, MSHR fields, double-entry, background radiation)
//!    against a racing workload on the paper's WritersBlock +
//!    OoO-commit configuration: each run must drain, pass a clean final
//!    coherence audit, account for every injected flip
//!    (`soft_silent == 0`) and stay TSO-green.
//! 2. Soft errors *and* a lossy interconnect at the same time — the
//!    directory's purge travels over links that are themselves dropping.
//! 3. A strike-rate sweep — acceleration x1..x50 over background
//!    radiation x 3 seeds — printing injected/detected/recovered counts
//!    and detection-latency percentiles from the `soft_detect_latency`
//!    histogram (the table in EXPERIMENTS.md).
//!
//! Each passing scenario prints a `soft smoke OK:` line; stdout is the
//! golden `results/soft_lab.txt`.

use wb_examples::{base_cfg, verified};
use writersblock::prelude::*;

fn smoke(label: &str, cfg: SystemConfig) {
    let plan = cfg.soft.as_ref().map(ToString::to_string).unwrap_or_else(|| "off".into());
    let sys = verified(&format!("{label} [{plan}]"), cfg);
    let s = sys.report().stats;
    let (injected, _) = sys.soft_injected();
    println!(
        "soft smoke OK: {label} [{plan}] drained in {} cycles, audit clean, tso green \
         (flips {}, detected {}, masked {}, recovered {}, audits {})",
        sys.now(),
        injected,
        s.get("soft_detected"),
        s.get("soft_masked"),
        s.get("soft_recovered"),
        s.get("audit_runs"),
    );
}

fn main() {
    // 1. The whole standard soft matrix over the racing workload. The
    //    matrix rates are soak-tuned; x20 acceleration lands a real
    //    barrage inside this short run.
    for plan in SoftPlan::matrix() {
        smoke("matrix", base_cfg(11).with_soft(plan.accelerated(20)));
    }

    // 2. Bit flips in the books while the links drop packets under
    //    them: the directory's purges must survive a lossy mesh.
    smoke(
        "soft+fault",
        base_cfg(13)
            .with_soft(SoftPlan::background_radiation().accelerated(20))
            .with_fault(FaultPlan::drop_everywhere(1, 50)),
    );
    smoke(
        "soft+chaos",
        base_cfg(17)
            .with_soft(SoftPlan::double_entry().accelerated(20))
            .with_chaos(ChaosPlan::reorder_amplify()),
    );

    // 3. Strike-rate sweep: background radiation accelerated x1..x50,
    //    3 seeds each, with detection-latency percentiles.
    println!();
    println!("strike-rate sweep (WritersBlock, OoO-commit, racing workload):");
    println!(
        "{:>6} {:>6} {:>9} {:>7} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "accel", "seed", "cycles", "flips", "detected", "recovered", "audits", "det p50", "det p90", "det p99"
    );
    for accel in [1u64, 5, 20, 50] {
        for seed in [2u64, 3, 5] {
            let plan = SoftPlan::background_radiation().accelerated(accel);
            let sys =
                verified(&format!("sweep x{accel} seed {seed}"), base_cfg(seed).with_soft(plan));
            let s = sys.report().stats;
            let (p50, p90, p99) = s.hist("soft_detect_latency").map_or((0, 0, 0), |h| {
                (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0))
            });
            let (injected, _) = sys.soft_injected();
            println!(
                "{:>6} {:>6} {:>9} {:>7} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}",
                format!("x{accel}"),
                seed,
                sys.now(),
                injected,
                s.get("soft_detected"),
                s.get("soft_recovered"),
                s.get("audit_runs"),
                p50,
                p90,
                p99,
            );
        }
    }

    println!();
    println!("soft lab: all scenarios OK");
}
