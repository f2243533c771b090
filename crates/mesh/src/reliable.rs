//! Reliable-delivery sublayer for the mesh: a small transport protocol
//! that sits *under* the coherence protocol and *over* the raw links.
//!
//! When a [`FaultPlan`](wb_kernel::fault::FaultPlan) is active, links may
//! drop, duplicate, or corrupt frames. This module restores the
//! exactly-once, per-flow-FIFO delivery contract the protocol layer was
//! built on, so the coherence machines and the LSQ stay untouched and
//! unaware. The machinery is classic selective-repeat ARQ:
//!
//! - every data frame on a (src, dst, vnet) flow carries a **sequence
//!   number** (the same counter that drives per-flow FIFO release) and a
//!   **checksum** over the whole frame;
//! - receivers return **cumulative acks** (`ack = n` means "every seq
//!   `< n` arrived"), piggybacked on reverse-direction data frames or as
//!   standalone 1-flit ack frames once the reverse direction has been
//!   idle for `ack_idle` cycles;
//! - senders keep a bounded **retransmit buffer** (`window` frames);
//!   the oldest unacked frame is retransmitted when its timeout expires,
//!   with exponential backoff capped at `rto_max`. When the window is
//!   full, new sends queue in `pending` — backpressure, not loss;
//! - receivers **dedup** by sequence number: anything below the
//!   cumulative frontier, or already buffered out-of-order, is squashed.
//!
//! Corruption is modeled as an XOR of a non-zero mask into the carried
//! checksum (the payload is an opaque generic, so "flipping bits in it"
//! and "making the checksum disagree" are observationally identical to a
//! receiver that discards on mismatch and awaits retransmission).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use wb_kernel::config::LinkConfig;
use wb_kernel::{Cycle, NodeId};

/// Flow identity: (source, destination, vnet ordinal).
pub(crate) type FlowKey = (NodeId, NodeId, usize);

/// Link-layer control header attached to every frame while the reliable
/// sublayer is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkCtl {
    /// A protocol message: `seq` orders it within its flow, `ack`
    /// piggybacks the reverse flow's cumulative frontier, `check`
    /// covers the whole frame.
    Data { seq: u64, ack: u64, check: u64 },
    /// A standalone cumulative ack for the reverse flow (1 flit, no
    /// payload, never surfaced to the protocol layer).
    Ack { ack: u64, check: u64 },
}

impl LinkCtl {
    /// The sequence identity used for trace events (a data frame's seq,
    /// an ack frame's frontier).
    pub(crate) fn trace_seq(&self) -> u64 {
        match *self {
            LinkCtl::Data { seq, .. } => seq,
            LinkCtl::Ack { ack, .. } => ack,
        }
    }

    /// XOR a fault mask into the carried checksum (link corruption).
    pub(crate) fn corrupt(&mut self, mask: u64) {
        match self {
            LinkCtl::Data { check, .. } | LinkCtl::Ack { check, .. } => *check ^= mask,
        }
    }
}

/// Deterministic frame checksum. `DefaultHasher::new()` is SipHash with
/// fixed keys, so the value is stable for a given frame across runs —
/// exactly what a seeded simulator needs.
pub(crate) fn frame_check<T: Hash>(
    src: NodeId,
    dst: NodeId,
    vnet: usize,
    flits: u32,
    seq: Option<u64>,
    ack: u64,
    payload: Option<&T>,
) -> u64 {
    let mut h = DefaultHasher::new();
    (src.0, dst.0, vnet as u8, flits, seq, ack).hash(&mut h);
    if let Some(p) = payload {
        p.hash(&mut h);
    }
    h.finish()
}

/// One frame held in the sender's retransmit buffer.
#[derive(Debug, Clone)]
pub(crate) struct Unacked<T> {
    pub payload: T,
    pub flits: u32,
    pub seq: u64,
    /// Cycle the protocol first injected the message (latency baseline).
    pub first_sent: Cycle,
    /// Cycle of the most recent (re)transmission.
    pub last_sent: Cycle,
    /// Current retransmission timeout (doubles per attempt, capped).
    pub rto: u64,
    /// Retransmission attempts so far.
    pub retx: u32,
}

/// A message waiting for window space (backpressured, never lost).
#[derive(Debug, Clone)]
pub(crate) struct Pending<T> {
    pub payload: T,
    pub flits: u32,
    pub seq: u64,
    pub queued_at: Cycle,
}

/// Sender-side state of one flow. Removed from the map once drained, so
/// per-tick maintenance scans only flows with work outstanding.
#[derive(Debug, Clone)]
pub(crate) struct SendFlow<T> {
    pub unacked: VecDeque<Unacked<T>>,
    pub pending: VecDeque<Pending<T>>,
}

impl<T> Default for SendFlow<T> {
    fn default() -> Self {
        SendFlow { unacked: VecDeque::new(), pending: VecDeque::new() }
    }
}

impl<T> SendFlow<T> {
    pub fn is_drained(&self) -> bool {
        self.unacked.is_empty() && self.pending.is_empty()
    }
}

/// Receiver-side state of one flow. Persists for the run: the cumulative
/// frontier must survive idle periods or a restarted flow would
/// mis-classify fresh frames.
#[derive(Debug, Clone)]
pub(crate) struct RecvFlow {
    /// Every seq `< next_expected` has been received (cumulative ack value).
    pub next_expected: u64,
    /// Out-of-order seqs received beyond the frontier (bounded by the
    /// sender window).
    pub ooo: BTreeSet<u64>,
    /// Cycle an ack became owed (`None` when nothing is owed).
    pub owed_since: Option<Cycle>,
}

impl RecvFlow {
    pub fn new() -> Self {
        RecvFlow { next_expected: 0, ooo: BTreeSet::new(), owed_since: None }
    }

    /// What a data frame with `seq` should do at the link layer.
    /// Advances the frontier on acceptance.
    pub fn on_data(&mut self, seq: u64) -> RecvVerdict {
        if seq < self.next_expected || self.ooo.contains(&seq) {
            return RecvVerdict::Duplicate;
        }
        if seq == self.next_expected {
            self.next_expected += 1;
            while self.ooo.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else {
            self.ooo.insert(seq);
        }
        RecvVerdict::Fresh
    }
}

/// Outcome of link-layer receive processing for a data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvVerdict {
    /// First arrival: surface to the protocol layer.
    Fresh,
    /// Already seen: squash (and re-ack, the sender may have missed it).
    Duplicate,
}

/// The reliable sublayer's whole state: per-flow send/recv machines plus
/// the policy knobs.
#[derive(Debug, Clone)]
pub(crate) struct ReliableLink<T> {
    pub cfg: LinkConfig,
    pub send_flows: BTreeMap<FlowKey, SendFlow<T>>,
    pub recv_flows: BTreeMap<FlowKey, RecvFlow>,
    /// Number of recv flows currently owing an ack — lets the per-tick
    /// maintenance skip the recv scan entirely in the common case.
    pub owed_count: usize,
}

impl<T> ReliableLink<T> {
    pub fn new(cfg: LinkConfig) -> Self {
        ReliableLink { cfg, send_flows: BTreeMap::new(), recv_flows: BTreeMap::new(), owed_count: 0 }
    }

    /// The cumulative frontier to piggyback for `key`'s reverse flow,
    /// clearing the owed-ack state (the piggyback *is* the ack).
    pub fn take_piggyback_ack(&mut self, reverse: FlowKey) -> u64 {
        match self.recv_flows.get_mut(&reverse) {
            Some(r) => {
                if r.owed_since.take().is_some() {
                    self.owed_count -= 1;
                }
                r.next_expected
            }
            None => 0,
        }
    }

    /// Mark `key` as owing an ack since `now` (keeps the earliest stamp).
    pub fn mark_owed(&mut self, key: FlowKey, now: Cycle) {
        let r = self.recv_flows.entry(key).or_insert_with(RecvFlow::new);
        if r.owed_since.is_none() {
            r.owed_since = Some(now);
            self.owed_count += 1;
        }
    }

    /// Apply a cumulative ack to the flow's retransmit buffer, returning
    /// the retx attempt count of every newly-acked frame (for the
    /// `link_retx_count` histogram).
    pub fn apply_ack(&mut self, key: FlowKey, ack: u64) -> Vec<u32> {
        let mut acked_retx = Vec::new();
        if let Some(sf) = self.send_flows.get_mut(&key) {
            while sf.unacked.front().is_some_and(|u| u.seq < ack) {
                if let Some(u) = sf.unacked.pop_front() {
                    acked_retx.push(u.retx);
                }
            }
            if sf.is_drained() {
                self.send_flows.remove(&key);
            }
        }
        acked_retx
    }

    /// True when no flow holds unacked/pending frames and no ack is owed.
    pub fn is_idle(&self) -> bool {
        self.send_flows.is_empty() && self.owed_count == 0
    }
}

wb_kernel::snap_enum!(LinkCtl { 0 => Data { seq, ack, check }, 1 => Ack { ack, check } });
wb_kernel::snap_struct!(Unacked<T> { payload, flits, seq, first_sent, last_sent, rto, retx });
wb_kernel::snap_struct!(Pending<T> { payload, flits, seq, queued_at });
wb_kernel::snap_struct!(SendFlow<T> { unacked, pending });
wb_kernel::snap_struct!(RecvFlow { next_expected, ooo, owed_since });
// The ARQ state. The policy knobs (`cfg`) are configuration, not state:
// restore targets a link built with the same [`LinkConfig`].
wb_kernel::snap_component!(pub(crate) ReliableLink<T> { send_flows, recv_flows, owed_count });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_field_sensitive() {
        let c = |seq, ack, p: &u32| {
            frame_check(NodeId(1), NodeId(2), 0, 1, Some(seq), ack, Some(p))
        };
        assert_eq!(c(5, 2, &9), c(5, 2, &9));
        assert_ne!(c(5, 2, &9), c(6, 2, &9), "seq must be covered");
        assert_ne!(c(5, 2, &9), c(5, 3, &9), "ack must be covered");
        assert_ne!(c(5, 2, &9), c(5, 2, &10), "payload must be covered");
        assert_ne!(
            frame_check(NodeId(1), NodeId(2), 0, 1, Some(5), 2, Some(&9u32)),
            frame_check(NodeId(2), NodeId(1), 0, 1, Some(5), 2, Some(&9u32)),
            "endpoints must be covered"
        );
    }

    #[test]
    fn corruption_always_detected() {
        // Any non-zero XOR into the carried checksum must mismatch the
        // recomputed one (XOR by non-zero changes the value).
        let check = frame_check(NodeId(0), NodeId(3), 2, 5, Some(0), 0, Some(&77u64));
        let mut ctl = LinkCtl::Data { seq: 0, ack: 0, check };
        ctl.corrupt(0xdead_beef | 1);
        match ctl {
            LinkCtl::Data { check: carried, .. } => assert_ne!(carried, check),
            LinkCtl::Ack { .. } => unreachable!(),
        }
    }

    #[test]
    fn recv_flow_dedups_and_reorders() {
        let mut r = RecvFlow::new();
        assert_eq!(r.on_data(0), RecvVerdict::Fresh);
        assert_eq!(r.next_expected, 1);
        // Out of order: accepted at link layer, frontier holds.
        assert_eq!(r.on_data(2), RecvVerdict::Fresh);
        assert_eq!(r.next_expected, 1);
        // Duplicates of both kinds squash.
        assert_eq!(r.on_data(0), RecvVerdict::Duplicate);
        assert_eq!(r.on_data(2), RecvVerdict::Duplicate);
        // Gap fill advances past the buffered frame.
        assert_eq!(r.on_data(1), RecvVerdict::Fresh);
        assert_eq!(r.next_expected, 3);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn cumulative_ack_pops_prefix_only() {
        let mut link: ReliableLink<u32> = ReliableLink::new(LinkConfig::default());
        let key = (NodeId(0), NodeId(1), 0);
        let sf = link.send_flows.entry(key).or_default();
        for seq in 0..4 {
            sf.unacked.push_back(Unacked {
                payload: seq as u32,
                flits: 1,
                seq,
                first_sent: 0,
                last_sent: 0,
                rto: 256,
                retx: if seq == 1 { 2 } else { 0 },
            });
        }
        let acked = link.apply_ack(key, 2);
        assert_eq!(acked, vec![0, 2], "seqs 0 and 1 acked, seq 1 had 2 retx");
        let remaining = link.send_flows.get(&key).map(|s| s.unacked.len());
        assert_eq!(remaining, Some(2));
        // Acking everything drains and removes the flow.
        let _ = link.apply_ack(key, 4);
        assert!(link.send_flows.is_empty());
        assert!(link.is_idle());
    }

    #[test]
    fn owed_bookkeeping_balances() {
        let mut link: ReliableLink<u32> = ReliableLink::new(LinkConfig::default());
        let key = (NodeId(3), NodeId(0), 2);
        link.mark_owed(key, 10);
        link.mark_owed(key, 50); // earliest stamp wins
        assert_eq!(link.owed_count, 1);
        assert_eq!(link.recv_flows.get(&key).and_then(|r| r.owed_since), Some(10));
        // Piggybacking clears the debt exactly once.
        assert_eq!(link.take_piggyback_ack(key), 0);
        assert_eq!(link.owed_count, 0);
        assert_eq!(link.take_piggyback_ack(key), 0);
        assert_eq!(link.owed_count, 0);
    }
}
