//! Example binaries live in `src/bin/`; this library holds what the
//! chaos, fault and soft-error labs share: their machine and their
//! verified run of the Figure 5.A racing workload.

use wb_workloads::directed;
use writersblock::prelude::*;

/// The labs' machine: three SLM-class cores committing out of order
/// under WritersBlock, seeded, with 20 cycles of message jitter.
pub fn base_cfg(seed: u64) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_cores(3)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(20)
}

/// Run one cell of the Figure 5.A racing workload — readers and a
/// writer contending on one hot line, which exercises all three vnets
/// and every commit-side window while staying small enough to sweep,
/// and keeps the protocol books busy so soft-error flips land on state
/// that is actually consulted — through `System::verify` (drained,
/// final audit clean, zero silent flips, TSO-green) and return the
/// finished system for stat reporting.
///
/// # Panics
///
/// Panics, naming `what`, if the run fails any of those checks.
pub fn verified(what: &str, cfg: SystemConfig) -> System {
    let mut sys = System::new(cfg, &directed::racing(9));
    sys.verify(8_000_000).assert_pass(what);
    sys
}
