//! Fault lab: run the coherence protocol over a *lossy* interconnect and
//! show that the link-level reliable-delivery sublayer hides every drop,
//! duplicate and corruption from the protocol above it.
//!
//! ```text
//! cargo run -p wb-examples --bin fault_lab
//! ```
//!
//! Three kinds of scenario run here:
//!
//! 1. Every plan in the standard fault matrix (drops, duplicates,
//!    payload corruption, a lossy single link, mixed misery) against a
//!    hot-line racing workload on the paper's WritersBlock + OoO-commit
//!    configuration: each run must drain, audit clean and pass the TSO
//!    checker.
//! 2. Combined chaos+fault cells: adversarial timing above the link
//!    layer and loss below it at the same time.
//! 3. A loss-rate sweep — p in {0.1%, 1%, 5%, 10%} x 3 seeds — printing
//!    retransmission counts and recovery-latency percentiles from the
//!    `link_retx_cycles` histogram (the table in EXPERIMENTS.md).
//!
//! Each passing scenario prints a `fault smoke OK:` line; stdout is the
//! golden `results/fault_lab.txt`.

use wb_examples::{base_cfg, verified};
use writersblock::prelude::*;

fn smoke(label: &str, cfg: SystemConfig) {
    let plan = cfg.fault.as_ref().map(ToString::to_string).unwrap_or_else(|| "off".into());
    let sys = verified(&format!("{label} [{plan}]"), cfg);
    let s = sys.report().stats;
    println!(
        "fault smoke OK: {label} [{plan}] drained in {} cycles, tso green \
         (drops {}, dups {}, corrupt {}, retx {})",
        sys.now(),
        s.get("link_drops"),
        s.get("link_dups"),
        s.get("link_corrupt_injected"),
        s.get("link_retx"),
    );
}

fn main() {
    // 1. The whole standard fault matrix over the racing workload.
    for plan in FaultPlan::matrix() {
        smoke("matrix", base_cfg(11).with_fault(plan));
    }

    // 2. Chaos above the link layer, loss below it, at the same time.
    smoke(
        "chaos+fault",
        base_cfg(13)
            .with_chaos(ChaosPlan::reorder_amplify())
            .with_fault(FaultPlan::mixed_misery()),
    );
    smoke(
        "chaos+fault",
        base_cfg(17)
            .with_chaos(ChaosPlan::delay_storm())
            .with_fault(FaultPlan::drop_everywhere(1, 20)),
    );

    // 3. Loss-rate sweep: p in {0.1%, 1%, 5%, 10%} x 3 seeds, with
    //    recovery-latency percentiles from the link_retx_cycles hist.
    println!();
    println!("loss-rate sweep (WritersBlock, OoO-commit, racing workload):");
    println!(
        "{:>6} {:>6} {:>9} {:>7} {:>7} {:>6} {:>9} {:>9} {:>9}",
        "p", "seed", "cycles", "drops", "retx", "acks", "retx p50", "retx p90", "retx p99"
    );
    for &(num, den, label) in
        &[(1u64, 1000u64, "0.1%"), (1, 100, "1%"), (1, 20, "5%"), (1, 10, "10%")]
    {
        for seed in [2u64, 3, 5] {
            let plan = FaultPlan::drop_everywhere(num, den);
            let sys = verified(&format!("sweep 1/{den} seed {seed}"), base_cfg(seed).with_fault(plan));
            let s = sys.report().stats;
            let (p50, p90, p99) = s
                .hist("link_retx_cycles")
                .map_or((0, 0, 0), |h| (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0)));
            println!(
                "{:>6} {:>6} {:>9} {:>7} {:>7} {:>6} {:>9} {:>9} {:>9}",
                label,
                seed,
                sys.now(),
                s.get("link_drops"),
                s.get("link_retx"),
                s.get("link_acks"),
                p50,
                p90,
                p99,
            );
        }
    }

    println!();
    println!("fault lab: all scenarios OK");
}
