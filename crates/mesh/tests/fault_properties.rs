//! Property tests for the fault model + reliable sublayer (in-tree
//! `wb_proptest!` harness):
//!
//! 1. random fault plans with per-hop probability ≤ 0.2 still deliver
//!    every flow exactly once, in per-flow FIFO order;
//! 2. the checksum catches every injected corruption (corrupted frames
//!    never surface; traffic still completes);
//! 3. a `FaultPlan::none()` run is byte-identical (same delivery
//!    schedule) to a mesh without the sublayer at the same seed.
//!
//! Each case also samples its topology from `common::CONTRACT_TOPOS`,
//! so the contracts are exercised at 8x8 as well as 4x4; generated node
//! indices are reduced modulo the sampled node count.

use wb_kernel::chaos::FlowMatch;
use wb_kernel::check::prelude::*;
use wb_kernel::config::LinkConfig;
use wb_kernel::fault::{FaultClause, FaultEffect, FaultEngine, FaultPlan};
use wb_kernel::NodeId;
use wb_mesh::{Mesh, MeshMsg, VNet};

mod common;
use common::{Topo, CONTRACT_TOPOS};

/// (src, dst, vnet ordinal, big-message flag) of one injected message.
/// Node indices range over the largest contract topology and are taken
/// modulo the actual node count at injection time.
type MsgSpec = (u16, u16, usize, u32);

fn msg_spec() -> Gen<MsgSpec> {
    (0u16..64, 0u16..64, 0usize..3, 0u32..2).into_gen()
}

fn resolve(spec: MsgSpec, topo: Topo) -> (NodeId, NodeId, VNet, u64) {
    let n = topo.nodes() as u16;
    (NodeId(spec.0 % n), NodeId(spec.1 % n), VNet::ALL[spec.2], if spec.3 == 1 { 5 } else { 1 })
}

/// One random clause with probability ≤ 2/10 and a random matcher.
fn fault_clause() -> Gen<FaultClause> {
    let effect = prop_oneof![
        (1u64..3).prop_map(|num| FaultEffect::Drop { num, den: 10 }),
        (1u64..3).prop_map(|num| FaultEffect::Duplicate { num, den: 10 }),
        (1u64..3).prop_map(|num| FaultEffect::CorruptPayload { num, den: 10 }),
    ];
    let flow = prop_oneof![
        just(FlowMatch::ANY),
        (0u8..3).prop_map(|v| FlowMatch { src: None, dst: None, touching: None, vnet: Some(v) }),
        (0u16..16).prop_map(|n| FlowMatch { src: None, dst: None, touching: Some(n), vnet: None }),
        ((0u16..16), (0u16..16))
            .prop_map(|(s, d)| FlowMatch { src: Some(s), dst: Some(d), touching: None, vnet: None }),
    ];
    (flow, effect).prop_map(|(flow, effect)| FaultClause { flow, effect })
}

/// Inject `specs`, run to idle, and return delivered payloads per node.
fn drive(mut m: Mesh<u32>, topo: Topo, specs: &[MsgSpec]) -> Result<Vec<Vec<u32>>, String> {
    // payload = index into specs, so deliveries map back to flows.
    for (i, &spec) in specs.iter().enumerate() {
        let (src, dst, vnet, flits) = resolve(spec, topo);
        m.send(i as u64, MeshMsg { src, dst, vnet, flits: flits as u32, payload: i as u32 });
    }
    let mut got: Vec<Vec<u32>> = (0..topo.nodes()).map(|_| Vec::new()).collect();
    for now in 0..4_000_000u64 {
        m.tick(now);
        for n in 0..topo.nodes() as u16 {
            got[n as usize].extend(m.drain_arrived(NodeId(n)).into_iter().map(|ms| ms.payload));
        }
        if m.is_idle() {
            return Ok(got);
        }
    }
    Err(format!("mesh failed to settle: {} frames still in flight", m.in_flight()))
}

wb_proptest! {
    #![cases = 24]

    /// Tentpole contract: any plan with p ≤ 0.2 per clause still yields
    /// exactly-once, per-flow-FIFO delivery at the protocol boundary.
    #[test]
    fn random_fault_plans_deliver_exactly_once_fifo(
        clauses in vec_of(fault_clause(), 1..4),
        specs in vec_of(msg_spec(), 1..60),
        seed in 0u64..10_000,
        which_topo in 0usize..2,
    ) {
        let topo = CONTRACT_TOPOS[which_topo];
        let plan = FaultPlan { name: "prop_random", clauses };
        let mut m = topo.mesh(0, seed);
        m.enable_reliable(LinkConfig { window: 8, rto_min: 128, rto_max: 2048, ack_idle: 32 });
        m.set_fault(Some(FaultEngine::new(plan, seed)));
        let got = match drive(m, topo, &specs) {
            Ok(g) => g,
            Err(e) => return Err(CaseError::new(e)),
        };
        // Expected per-flow order: spec indices grouped by flow, in
        // injection order (that IS the per-flow FIFO contract).
        let mut expected: std::collections::BTreeMap<(u16, u16, usize), Vec<u32>> =
            std::collections::BTreeMap::new();
        for (i, &spec) in specs.iter().enumerate() {
            let (src, dst, _, _) = resolve(spec, topo);
            expected.entry((src.0, dst.0, spec.2)).or_default().push(i as u32);
        }
        // Delivered order per flow, reconstructed from per-node drains.
        let mut delivered: std::collections::BTreeMap<(u16, u16, usize), Vec<u32>> =
            std::collections::BTreeMap::new();
        for (node, payloads) in got.iter().enumerate() {
            for &p in payloads {
                let (src, dst, _, _) = resolve(specs[p as usize], topo);
                prop_assert_eq!(dst.index(), node, "delivered to the wrong node");
                delivered.entry((src.0, dst.0, specs[p as usize].2)).or_default().push(p);
            }
        }
        prop_assert_eq!(delivered, expected, "lost, duplicated, or reordered within a flow");
    }

    /// Corruption-only plans: every corrupted frame is caught by the
    /// checksum (discard + retransmission), never surfaced.
    #[test]
    fn checksum_catches_injected_corruptions(
        num in 1u64..3,
        specs in vec_of(msg_spec(), 1..50),
        seed in 0u64..10_000,
        which_topo in 0usize..2,
    ) {
        let topo = CONTRACT_TOPOS[which_topo];
        let plan = FaultPlan::one(
            "prop_corrupt",
            FlowMatch::ANY,
            FaultEffect::CorruptPayload { num, den: 10 },
        );
        let mut m = topo.mesh(0, seed);
        m.enable_reliable(LinkConfig { window: 8, rto_min: 128, rto_max: 2048, ack_idle: 32 });
        m.set_fault(Some(FaultEngine::new(plan, seed)));
        let got = match drive(m, topo, &specs) {
            Ok(g) => g,
            Err(e) => return Err(CaseError::new(e)),
        };
        let delivered: usize = got.iter().map(Vec::len).sum();
        prop_assert_eq!(delivered, specs.len(), "corruption must never lose or duplicate");
        // (can't read stats here: `drive` consumed the mesh — the
        // exactly-once count above is the property that matters.)
    }

    /// `FaultPlan::none()` under the full sublayer is byte-identical in
    /// delivery schedule to a mesh that never heard of reliability.
    #[test]
    fn fault_none_is_byte_identical_to_bare_mesh(
        specs in vec_of(msg_spec(), 1..60),
        seed in 0u64..10_000,
        jitter in 0u64..30,
        which_topo in 0usize..2,
    ) {
        let topo = CONTRACT_TOPOS[which_topo];
        let log = |reliable: bool| {
            let mut m = topo.mesh(jitter, seed);
            if reliable {
                m.enable_reliable(LinkConfig::default());
                m.set_fault(Some(FaultEngine::new(FaultPlan::none(), seed)));
            }
            for (i, &spec) in specs.iter().enumerate() {
                let (src, dst, vnet, flits) = resolve(spec, topo);
                m.send(i as u64, MeshMsg { src, dst, vnet, flits: flits as u32, payload: i as u32 });
            }
            let mut out: Vec<(u64, u16, u32)> = Vec::new();
            for now in 0..200_000u64 {
                m.tick(now);
                for n in 0..topo.nodes() as u16 {
                    for ms in m.drain_arrived(NodeId(n)) {
                        out.push((now, n, ms.payload));
                    }
                }
                if m.is_idle() {
                    break;
                }
            }
            out
        };
        prop_assert_eq!(log(true), log(false), "fault_none must not perturb the schedule");
    }
}
