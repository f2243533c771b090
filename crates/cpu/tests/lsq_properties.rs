//! Property tests on the load/store queue invariants that the lockdown
//! machinery depends on (Sections 3.1-3.2 terminology).

use wb_kernel::check::prelude::*;
use wb_cpu::lsq::{ForwardResult, Lsq};
use wb_mem::Addr;

#[derive(Debug, Clone)]
enum LsqOp {
    AllocLoad,
    AllocAmo,
    AllocStore,
    PerformOldest,
    ResolveStore { value: u64 },
    SquashTail,
}

fn op_strategy() -> Gen<LsqOp> {
    prop_oneof![
        Just(LsqOp::AllocLoad),
        Just(LsqOp::AllocAmo),
        Just(LsqOp::AllocStore),
        Just(LsqOp::PerformOldest),
        (1u64..100).prop_map(|value| LsqOp::ResolveStore { value }),
        Just(LsqOp::SquashTail),
    ]
}

wb_proptest! {
    /// Core invariants under random operation sequences:
    /// - the SoS load is always the oldest non-performed load;
    /// - `is_ordered(seq)` iff no older non-performed load exists;
    /// - M-speculative implies performed and unordered;
    /// - squash never removes older entries.
    #[test]
    fn ordering_invariants(ops in vec_of(op_strategy(), 1..120)) {
        let mut lsq = Lsq::new(16, 16, 8);
        let mut next_seq = 1u64;
        let addr = Addr::new(0x40);
        for op in ops {
            match op {
                LsqOp::AllocLoad if !lsq.lq_full() => {
                    let r = lsq.alloc_load(next_seq, false, 0);
                    lsq.resolve_load(r, addr);
                    next_seq += 1;
                }
                LsqOp::AllocAmo if !lsq.lq_full() => {
                    let r = lsq.alloc_load(next_seq, true, 0);
                    lsq.resolve_load(r, addr);
                    next_seq += 1;
                }
                LsqOp::AllocStore if !lsq.sq_full() => {
                    lsq.alloc_store(next_seq);
                    next_seq += 1;
                }
                LsqOp::PerformOldest => {
                    if let Some(sos) = lsq.sos_ref() {
                        lsq.perform(sos, 0, 0);
                    }
                }
                LsqOp::ResolveStore { value } => {
                    let unresolved = lsq.stores().find(|(_, e)| e.addr.is_none()).map(|(r, _)| r);
                    if let Some(s) = unresolved {
                        lsq.resolve_store(s, addr);
                        lsq.store_data(s, value);
                    }
                }
                LsqOp::SquashTail if next_seq > 1 => {
                    let from = next_seq - 1;
                    lsq.squash(from);
                }
                _ => {}
            }

            // Invariant: SoS = oldest non-performed.
            let oldest_np = lsq.loads().find(|e| !e.performed()).map(|e| e.seq);
            prop_assert_eq!(lsq.sos_ref().map(|r| r.seq), oldest_np);

            // Invariant: the kept oldest non-performed atomic and oldest
            // unresolved store address equal a rescan.
            let oldest_amo = lsq.loads().find(|e| e.is_amo && !e.performed()).map(|e| e.seq);
            prop_assert_eq!(lsq.oldest_unperformed_amo(), oldest_amo);
            let unresolved_store = (1..next_seq).find(|&s| {
                lsq.stores().any(|(_, e)| e.seq == s && e.addr.is_none())
                    || lsq.loads().any(|e| e.seq == s && e.is_amo && e.addr.is_none())
            });
            prop_assert_eq!(lsq.oldest_unresolved_store(), unresolved_store);
            prop_assert!(lsq.marks_hold());

            // Invariant: is_ordered consistency.
            let refs: Vec<_> = (0..).map_while(|i| lsq.load_at(i).map(|(r, _)| r)).collect();
            for r in refs {
                let s = r.seq;
                let older_np = lsq.loads().any(|e| e.seq < s && !e.performed());
                prop_assert_eq!(lsq.is_ordered(s), !older_np, "seq {}", s);
                if lsq.is_mspec(r) {
                    prop_assert!(lsq.load(r).unwrap().performed());
                    prop_assert!(!lsq.is_ordered(s));
                }
            }

            // Invariant: LQ entries remain in program order.
            let mut prev = 0;
            for e in lsq.loads() {
                prop_assert!(e.seq > prev);
                prev = e.seq;
            }
        }
    }

    /// Forwarding returns the *youngest* older matching store's value.
    #[test]
    fn forwarding_youngest_wins(values in vec_of(1u64..1000, 1..8)) {
        let mut lsq = Lsq::new(16, 16, 8);
        let addr = Addr::new(0x80);
        let mut seq = 1u64;
        for v in &values {
            let st = lsq.alloc_store(seq);
            lsq.resolve_store(st, addr);
            lsq.store_data(st, *v);
            seq += 1;
        }
        // A load younger than all stores must forward the last value.
        prop_assert_eq!(lsq.forward(seq, addr), ForwardResult::Value(*values.last().unwrap()));
        // A load older than all stores sees nothing.
        prop_assert_eq!(lsq.forward(1, addr), ForwardResult::None);
        // A different word never forwards.
        prop_assert_eq!(lsq.forward(seq, Addr::new(0x88)), ForwardResult::None);
    }

    /// Committing stores in order through the SB preserves FIFO and the
    /// SB never exceeds capacity.
    #[test]
    fn store_buffer_fifo(count in 1usize..12) {
        let mut lsq = Lsq::new(16, 16, 8);
        for s in 1..=count as u64 {
            let st = lsq.alloc_store(s);
            lsq.resolve_store(st, Addr::new(0x100 + s * 8));
            lsq.store_data(st, s);
        }
        for s in 1..=count as u64 {
            prop_assert_eq!(lsq.oldest_store_seq(), Some(s));
            prop_assert!(lsq.commit_store(s));
        }
        let mut popped = Vec::new();
        while let Some(e) = lsq.sb_pop() {
            popped.push(e.seq);
        }
        let expect: Vec<u64> = (1..=count as u64).collect();
        prop_assert_eq!(popped, expect);
    }
}
