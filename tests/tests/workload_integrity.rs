//! End-to-end data-integrity: run every suite workload on the simulator
//! under every commit policy and check its interleaving-independent
//! invariant (atomic histograms, lock-protected counters, barrier
//! counts). A lost update, doubled replay or stale read anywhere in the
//! pipeline/protocol breaks these counts.

use wb_integration::{built, spec};
use wb_mem::Addr;
use wb_workloads::{invariants, Scale};
use writersblock::{RunOutcome, System};

/// Every suite kernel of the spec named `name`, on its arm `arm`.
fn run_and_check(name: &str, arm: &str) {
    let mut spec = spec(name);
    assert!(spec.arms.iter().any(|a| a == arm), "`{name}` has no arm `{arm}`");
    spec.arms = vec![arm.to_owned()];
    for (cell, cfg, w) in built(&spec) {
        let mut sys = System::new(cfg, &w);
        assert_eq!(sys.run(cell.budget), RunOutcome::Done, "{}", cell.id);
        invariants::check(&w.name, w.cores(), Scale::Test, |a: Addr| sys.memory_word(a))
            .unwrap_or_else(|e| panic!("{}: {e}", cell.id));
    }
}

#[test]
fn integrity_inorder() {
    run_and_check("integrity", "mesi-inorder");
}

#[test]
fn integrity_ooo() {
    run_and_check("integrity", "mesi-ooo");
}

#[test]
fn integrity_ooo_wb() {
    run_and_check("integrity", "wb-ooo");
}

#[test]
fn integrity_inorder_wb_protocol() {
    run_and_check("integrity", "wb-inorder");
}

#[test]
fn integrity_hsw_ooo_wb() {
    run_and_check("integrity-hsw", "wb-ooo");
}

#[test]
fn integrity_sixteen_cores_ooo_wb() {
    // The full 16-core configuration the figures use.
    run_and_check("integrity-16", "wb-ooo");
}

#[test]
fn integrity_ecl() {
    run_and_check("integrity", "wb-ecl");
}
