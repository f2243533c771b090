//! Chaos lab: drive the §3.5 deadlock-freedom windows with directed
//! adversarial timing plans and show the wedge diagnostics in action.
//!
//! ```text
//! cargo run -p wb-examples --bin chaos_lab
//! ```
//!
//! Three kinds of scenario run here:
//!
//! 1. Every plan in the standard chaos matrix against a hot-line racing
//!    workload: chaos only stretches legal unordered-network timing, so
//!    each run must drain, audit clean and pass the TSO checker.
//! 2. Directed plans aimed at the individual §3.5 windows (eviction
//!    buffer occupancy, SoS bypass under a stalled response network).
//! 3. The §3.4 Option-1 ablation under spin-readers: the run *must*
//!    wedge, and the watchdog must render an actionable livelock report.
//!
//! Each passing scenario prints a `chaos smoke OK:` line; stdout is the
//! golden `results/chaos_lab.txt`.

use wb_examples::base_cfg;
use wb_workloads::directed;
use writersblock::prelude::*;

/// Run one scenario through `System::verify`: it must drain, audit
/// clean and pass the TSO checker.
fn smoke(label: &str, w: &Workload, cfg: SystemConfig) {
    let plan = cfg.chaos.as_ref().map(ToString::to_string).unwrap_or_else(|| "off".into());
    let mut sys = System::new(cfg, w);
    sys.verify(8_000_000).assert_pass(&format!("{label} [{plan}]"));
    println!("chaos smoke OK: {label} [{plan}] drained in {} cycles, tso green", sys.now());
}

fn main() {
    // 1. The whole standard matrix over the Figure 5.A racing workload.
    let racing = directed::racing(9);
    for plan in ChaosPlan::matrix() {
        smoke("matrix", &racing, base_cfg(11).with_chaos(plan));
    }

    // 2a. §3.5.1: eviction-buffer pressure (tiny LLC) while the
    //     wb_entry_squeeze plan stretches the parked-entry window.
    let mut cfg = base_cfg(3).with_chaos(ChaosPlan::wb_entry_squeeze());
    cfg.memory.l3_bank_bytes = 4 * 64;
    cfg.memory.l3_ways = 2;
    cfg.memory.dir_evict_buffer = 2;
    smoke("evict-buffer squeeze", &racing, cfg);

    // 2b. §3.5.2: the SoS tear-off escape hatch while the response
    //     network stalls whenever a lockdown is live (directed mode).
    let cfg = base_cfg(5).with_cores(2).with_chaos(ChaosPlan::lockdown_vnet_stall(2));
    smoke("sos bypass under lockdown stall", &directed::sos_bypass(), cfg);

    // 3. The §3.4 Option-1 ablation must wedge — and the watchdog must
    //    say so, with the starving writer and the hot line named.
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(8)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(0)
        .with_jitter(20)
        .without_event_log();
    cfg.wb_cacheable_reads = true; // Option 1: the rejected design
    cfg.stall_window = 50_000;
    let mut sys = System::new(cfg, &directed::option1_spin());
    let verdict = sys.verify(150_000);
    let Some(Failure::Wedge(rep)) = verdict.failure() else {
        panic!("Option 1 under spin-readers must wedge, got: {verdict}");
    };
    assert_eq!(rep.class, WedgeClass::Livelock, "wrong diagnosis:\n{rep}");
    println!("\n--- the report a wedged run produces ---\n{rep}\n");
    println!("chaos smoke OK: option1 livelock diagnosed at cycle {}", rep.at_cycle);

    println!("chaos lab: all scenarios OK");
}
