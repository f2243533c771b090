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
use wb_kernel::{Cycle, NodeId, Snap, SnapError, SnapReader, SnapResult, SnapWriter};

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
/// the map holds only flows with work outstanding.
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

/// The reliable sublayer's whole state: per-flow send/recv machines,
/// their timers in deadline order, and the policy knobs.
///
/// The flow maps are the state; the two timer sets are derived from
/// them (every mutation below keeps both in step, restore rebuilds
/// them, and the online auditor checks them against a rebuild). They
/// let the per-tick upkeep and [`Mesh::next_internal_event`] read the
/// due prefix instead of scanning every flow.
///
/// [`Mesh::next_internal_event`]: crate::Mesh::next_internal_event
#[derive(Debug, Clone)]
pub(crate) struct ReliableLink<T> {
    pub cfg: LinkConfig,
    send_flows: BTreeMap<FlowKey, SendFlow<T>>,
    recv_flows: BTreeMap<FlowKey, RecvFlow>,
    /// `(retransmission deadline, flow)` of every send flow's window
    /// head: `last_sent + rto` of `unacked.front()`.
    rto_timers: TimerSet,
    /// `(owed_since, flow)` of every recv flow owing an ack; its
    /// standalone ack is due `ack_idle` cycles later.
    ack_timers: TimerSet,
}

/// The retransmission deadline of a window head.
fn rto_deadline<T>(u: &Unacked<T>) -> Cycle {
    u.last_sent.saturating_add(u.rto)
}

/// Timers in deadline order: `(cycle, flow)`, ties broken by flow key.
pub(crate) type TimerSet = BTreeSet<(Cycle, FlowKey)>;

impl<T> ReliableLink<T> {
    pub fn new(cfg: LinkConfig) -> Self {
        ReliableLink {
            cfg,
            send_flows: BTreeMap::new(),
            recv_flows: BTreeMap::new(),
            rto_timers: BTreeSet::new(),
            ack_timers: BTreeSet::new(),
        }
    }

    /// Flows with unacked or backpressured frames, in key order.
    pub fn send_flows(&self) -> &BTreeMap<FlowKey, SendFlow<T>> {
        &self.send_flows
    }

    /// Every flow that ever received a frame, in key order.
    pub fn recv_flows(&self) -> &BTreeMap<FlowKey, RecvFlow> {
        &self.recv_flows
    }

    /// The kept timer sets: `(rto, ack)`.
    pub fn timers(&self) -> (&TimerSet, &TimerSet) {
        (&self.rto_timers, &self.ack_timers)
    }

    /// Both timer sets rebuilt from the flows (restore adopts them, the
    /// auditor compares them with the kept ones).
    pub fn derive_timers(&self) -> (TimerSet, TimerSet) {
        let rto = self
            .send_flows
            .iter()
            .filter_map(|(&key, sf)| sf.unacked.front().map(|u| (rto_deadline(u), key)))
            .collect();
        let ack = self
            .recv_flows
            .iter()
            .filter_map(|(&key, r)| r.owed_since.map(|since| (since, key)))
            .collect();
        (rto, ack)
    }

    /// The cumulative frontier to piggyback for `key`'s reverse flow,
    /// clearing the owed-ack state (the piggyback *is* the ack).
    pub fn take_piggyback_ack(&mut self, reverse: FlowKey) -> u64 {
        match self.recv_flows.get_mut(&reverse) {
            Some(r) => {
                if let Some(since) = r.owed_since.take() {
                    self.ack_timers.remove(&(since, reverse));
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
            self.ack_timers.insert((now, key));
        }
    }

    /// Link-layer receive of data frame `seq` on `key` at `now`: the
    /// dedup verdict. Fresh or duplicate, an ack is owed — a duplicate
    /// usually means the sender missed the previous one.
    pub fn receive_data(&mut self, key: FlowKey, seq: u64, now: Cycle) -> RecvVerdict {
        let verdict = self.recv_flows.entry(key).or_insert_with(RecvFlow::new).on_data(seq);
        self.mark_owed(key, now);
        verdict
    }

    /// Must a new send on `key` queue behind a full window (or a queue
    /// that already formed)?
    pub fn must_queue(&self, key: FlowKey) -> bool {
        self.send_flows
            .get(&key)
            .is_some_and(|sf| sf.unacked.len() >= self.cfg.window || !sf.pending.is_empty())
    }

    /// Queue a backpressured send on `key`.
    pub fn queue(&mut self, key: FlowKey, p: Pending<T>) {
        self.send_flows.entry(key).or_default().pending.push_back(p);
    }

    /// Hold a just-transmitted frame in `key`'s retransmit buffer.
    pub fn push_unacked(&mut self, key: FlowKey, u: Unacked<T>) {
        let sf = self.send_flows.entry(key).or_default();
        if sf.unacked.is_empty() {
            self.rto_timers.insert((rto_deadline(&u), key));
        }
        sf.unacked.push_back(u);
    }

    /// The next backpressured send on `key`, if its window has room.
    pub fn pop_sendable(&mut self, key: FlowKey) -> Option<Pending<T>> {
        let sf = self.send_flows.get_mut(&key)?;
        if sf.unacked.len() >= self.cfg.window {
            return None;
        }
        sf.pending.pop_front()
    }

    /// Apply a cumulative ack to the flow's retransmit buffer, handing
    /// `acked` the retx attempt count of every newly-acked frame (for
    /// the `link_retx_count` histogram).
    pub fn apply_ack(&mut self, key: FlowKey, ack: u64, mut acked: impl FnMut(u32)) {
        let Some(sf) = self.send_flows.get_mut(&key) else { return };
        if let Some(head) = sf.unacked.front().filter(|u| u.seq < ack) {
            self.rto_timers.remove(&(rto_deadline(head), key));
            while sf.unacked.front().is_some_and(|u| u.seq < ack) {
                if let Some(u) = sf.unacked.pop_front() {
                    acked(u.retx);
                }
            }
            if let Some(head) = sf.unacked.front() {
                self.rto_timers.insert((rto_deadline(head), key));
            }
        }
        if sf.is_drained() {
            self.send_flows.remove(&key);
        }
    }

    /// Append to `keys` every flow whose window head's retransmission
    /// timeout has expired by `now`, in flow-key order.
    pub fn due_retransmits(&self, now: Cycle, keys: &mut Vec<FlowKey>) {
        keys.extend(self.rto_timers.iter().take_while(|&&(at, _)| at <= now).map(|&(_, key)| key));
        keys.sort_unstable();
    }

    /// Pop every owed ack whose `ack_idle` wait has expired by `now`
    /// into `due` as `(flow, cumulative frontier)`, in flow-key order.
    pub fn take_due_acks(&mut self, now: Cycle, due: &mut Vec<(FlowKey, u64)>) {
        let ack_idle = self.cfg.ack_idle;
        while let Some(&(since, key)) = self.ack_timers.first() {
            if now.saturating_sub(since) < ack_idle {
                break;
            }
            self.ack_timers.pop_first();
            if let Some(r) = self.recv_flows.get_mut(&key) {
                r.owed_since = None;
                due.push((key, r.next_expected));
            }
        }
        due.sort_unstable_by_key(|&(key, _)| key);
    }

    /// The earliest retransmission or standalone-ack deadline.
    pub fn next_deadline(&self) -> Option<Cycle> {
        let rto = self.rto_timers.first().map(|&(at, _)| at);
        let ack = self.ack_timers.first().map(|&(since, _)| since.saturating_add(self.cfg.ack_idle));
        match (rto, ack) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when no flow holds unacked/pending frames and no ack is owed.
    pub fn is_idle(&self) -> bool {
        self.send_flows.is_empty() && self.ack_timers.is_empty()
    }
}

impl<T: Clone> ReliableLink<T> {
    /// Retransmit `key`'s window head at `now`: back its timeout off
    /// (doubling, capped at `rto_max`), count the attempt, and return a
    /// copy of the frame to put back on the wire.
    pub fn retransmit(&mut self, key: FlowKey, now: Cycle) -> Option<Unacked<T>> {
        let rto_max = self.cfg.rto_max;
        let head = self.send_flows.get_mut(&key)?.unacked.front_mut()?;
        self.rto_timers.remove(&(rto_deadline(head), key));
        head.last_sent = now;
        head.rto = head.rto.saturating_mul(2).min(rto_max);
        head.retx += 1;
        self.rto_timers.insert((rto_deadline(head), key));
        Some(head.clone())
    }
}

wb_kernel::snap_enum!(LinkCtl { 0 => Data { seq, ack, check }, 1 => Ack { ack, check } });
wb_kernel::snap_struct!(Unacked<T> { payload, flits, seq, first_sent, last_sent, rto, retx });
wb_kernel::snap_struct!(Pending<T> { payload, flits, seq, queued_at });
wb_kernel::snap_struct!(SendFlow<T> { unacked, pending });
wb_kernel::snap_struct!(RecvFlow { next_expected, ooo, owed_since });

// The ARQ state: both flow maps, then the number of owed acks. The
// policy knobs (`cfg`) are configuration, not state: restore targets a
// link built with the same [`LinkConfig`]. The timer sets are derived
// and rebuilt from the flows.
impl<T: Snap> ReliableLink<T> {
    pub fn snap(&self, w: &mut SnapWriter) {
        self.send_flows.snap(w);
        self.recv_flows.snap(w);
        self.ack_timers.len().snap(w);
    }

    pub fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.send_flows.unsnap_into(r)?;
        self.recv_flows.unsnap_into(r)?;
        let owed = usize::unsnap(r)?;
        (self.rto_timers, self.ack_timers) = self.derive_timers();
        if owed != self.ack_timers.len() {
            return Err(SnapError::new(format!(
                "snapshot counts {owed} owed acks, its flows owe {}",
                self.ack_timers.len()
            )));
        }
        Ok(())
    }
}

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
        for seq in 0..4 {
            link.push_unacked(
                key,
                Unacked {
                    payload: seq as u32,
                    flits: 1,
                    seq,
                    first_sent: 0,
                    last_sent: seq,
                    rto: 256,
                    retx: if seq == 1 { 2 } else { 0 },
                },
            );
        }
        assert_eq!(link.next_deadline(), Some(256), "the head's timer runs");
        let mut acked = Vec::new();
        link.apply_ack(key, 2, |retx| acked.push(retx));
        assert_eq!(acked, vec![0, 2], "seqs 0 and 1 acked, seq 1 had 2 retx");
        let remaining = link.send_flows().get(&key).map(|s| s.unacked.len());
        assert_eq!(remaining, Some(2));
        assert_eq!(link.next_deadline(), Some(258), "the timer follows the new head");
        // Acking everything drains and removes the flow.
        link.apply_ack(key, 4, |_| {});
        assert!(link.send_flows().is_empty());
        assert!(link.is_idle());
        assert_eq!(link.next_deadline(), None);
    }

    #[test]
    fn owed_bookkeeping_balances() {
        let mut link: ReliableLink<u32> = ReliableLink::new(LinkConfig::default());
        let key = (NodeId(3), NodeId(0), 2);
        link.mark_owed(key, 10);
        link.mark_owed(key, 50); // earliest stamp wins
        assert_eq!(link.timers().1.len(), 1);
        assert_eq!(link.recv_flows().get(&key).and_then(|r| r.owed_since), Some(10));
        assert_eq!(link.next_deadline(), Some(10 + link.cfg.ack_idle));
        // Piggybacking clears the debt exactly once.
        assert_eq!(link.take_piggyback_ack(key), 0);
        assert!(link.timers().1.is_empty());
        assert_eq!(link.take_piggyback_ack(key), 0);
        assert!(link.is_idle());
        assert_eq!(link.derive_timers(), (BTreeSet::new(), BTreeSet::new()));
    }

    #[test]
    fn due_timers_come_out_in_flow_order() {
        let mut link: ReliableLink<u32> =
            ReliableLink::new(LinkConfig { window: 4, rto_min: 100, rto_max: 400, ack_idle: 10 });
        let (a, b) = ((NodeId(2), NodeId(0), 1), (NodeId(1), NodeId(3), 0));
        // `a` sorts after `b` by key but falls due first.
        for (key, sent) in [(a, 0), (b, 5)] {
            let u = Unacked { payload: 0, flits: 1, seq: 0, first_sent: sent, last_sent: sent, rto: 100, retx: 0 };
            link.push_unacked(key, u);
            link.mark_owed(key, sent);
        }
        let mut keys = Vec::new();
        link.due_retransmits(104, &mut keys);
        assert_eq!(keys, vec![a]);
        keys.clear();
        link.due_retransmits(105, &mut keys);
        assert_eq!(keys, vec![b, a], "flow-key order, not deadline order");
        let again = link.retransmit(a, 105).map(|u| (u.rto, u.retx));
        assert_eq!(again, Some((200, 1)), "backoff doubles the timeout");
        let mut due = Vec::new();
        link.take_due_acks(15, &mut due);
        assert_eq!(due, vec![(b, 0), (a, 0)]);
        assert_eq!(link.derive_timers().0, link.timers().0.clone(), "kept timers match the flows");
        assert!(link.timers().1.is_empty());
    }
}
