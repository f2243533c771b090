//! An LLC/directory bank.
//!
//! Each of the 16 tiles hosts one bank of the shared L3 plus the directory
//! slice for the lines that map to it. The protocol is a GEMS-style MESI
//! directory protocol: 3-hop read transactions with Unblock, transient
//! "busy" states that defer conflicting requests, and recall-based
//! directory evictions.
//!
//! The WritersBlock extension (Sections 3.3-3.5 of the paper) adds:
//!
//! - a `Nack` reply to an invalidation puts the in-flight write
//!   transaction into the **WritersBlock** condition: the write stays
//!   pending, *all* other writes for the line are queued (and hinted),
//!   while reads are served **uncacheable tear-off copies** of the
//!   pre-write data, never registering new sharers — Option 2 of Section
//!   3.4, the livelock-free choice;
//! - when the Nacking core's lockdown lifts, its deferred acknowledgement
//!   (`LockdownAck`) is redirected to the writer via the directory
//!   (`RedirAck`), because lockdowns do not retain the writer's identity;
//! - directory evictions whose invalidations hit lockdowns park the entry
//!   in an **eviction buffer** instead of blocking the allocating request
//!   (Section 3.5.1); when the buffer is full, reads fall back to
//!   uncacheable memory reads so SoS loads can never be blocked.
//!
//! A soft error detected in an entry's books is recovered the same way:
//! the entry **purges** every core, a write with no requester, so any
//! core that may hold a load bound to the line sees the invalidation and
//! a lockdown turns the purge into WritersBlock like any other write.
//!
//! A blocked write, a parked eviction and a purge each count the answers
//! they still wait for in one `Round`, and one path (`round_at`,
//! `settle_round`) decides for all three when reads queue, when they get
//! tear-offs and when queued writers are hinted.
//!
//! The livelock-prone "Option 1" (serve cacheable copies from a
//! WritersBlock entry and re-invalidate) is implemented behind the
//! `wb_cacheable_reads` ablation flag so the spin-loop livelock the paper
//! predicts can be demonstrated.

use crate::array::{Insert, SetAssocArray};
use crate::messages::{Dest, ProtoMsg, ReadKind};
use crate::sharers::SharerSet;
use crate::{DirWait, ProtocolError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use wb_kernel::config::{MemoryConfig, SystemConfig, DIR_BANK_PORTS, L3_HIT_CYCLES, MEM_CYCLES};
use wb_kernel::trace::{Category, CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, HeavyHitters, NodeId, Stats};
use wb_mem::{HomeMap, LineAddr, LineData, MainMemory};

/// Directory-entry coherence state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    /// No private copies; LLC data valid.
    Uncached,
    /// `sharers` hold S copies; LLC data valid.
    Shared,
    /// `owner` holds the line in E or M; LLC data possibly stale.
    Owned,
    /// A read transaction is in flight.
    BusyRead { requester: NodeId, waiting_datawb: bool, waiting_unblock: bool, grant_exclusive: bool },
    /// A write transaction is in flight. Its invalidations are answered
    /// to the writer; `round` counts the lockdowns that hold it (and
    /// Option 1's re-invalidations), and `sharers` holds only the readers
    /// Option 1 admitted and has not re-invalidated yet.
    BusyWrite { writer: NodeId, round: Round },
    /// Waiting for main memory.
    Fetching,
    /// A soft error was detected in this entry (guard mismatch), so its
    /// sharers and owner cannot be trusted: every core was sent a
    /// [`ProtoMsg::Purge`], and any of them may answer as the owner.
    /// Writes queue; reads queue until every core has answered and get
    /// tear-offs after that. Ends `Uncached`.
    Purging(Round),
}

/// The observable name of a line's state: its parked eviction's if it
/// has one, else its entry's, else `"Absent"`.
fn state_name(parked: Option<&Evicting>, state: Option<&DirState>) -> &'static str {
    let wb = |round: &Round, plain, blocked| if round.wb { blocked } else { plain };
    match (parked, state) {
        (Some(p), _) => wb(&p.round, "Evicting", "Evicting.wb"),
        (None, None) => "Absent",
        (None, Some(DirState::Uncached)) => "Uncached",
        (None, Some(DirState::Shared)) => "Shared",
        (None, Some(DirState::Owned)) => "Owned",
        (None, Some(DirState::BusyRead { .. })) => "BusyRead",
        (None, Some(DirState::BusyWrite { round, .. })) => wb(round, "BusyWrite", "BusyWrite.wb"),
        (None, Some(DirState::Fetching)) => "Fetching",
        (None, Some(DirState::Purging(round))) => wb(round, "Purging", "Purging.wb"),
    }
}

#[derive(Debug, Clone)]
struct DirEntry {
    state: DirState,
    sharers: SharerSet,
    owner: Option<NodeId>,
    data: LineData,
    queued: VecDeque<ProtoMsg>,
    /// Guard hash over (state code, owner, sharer words) — the
    /// parity/ECC word of the soft-error model. Maintained (and
    /// meaningful) only for stable states while soft errors are on; 0
    /// otherwise, so `SoftPlan::none()` stays byte-identical to no plan.
    guard: u64,
}

impl DirEntry {
    fn stable(&self) -> bool {
        matches!(self.state, DirState::Uncached | DirState::Shared | DirState::Owned)
    }

    /// Guard-hash input code of a stable state.
    fn stable_code(&self) -> Option<u64> {
        match self.state {
            DirState::Uncached => Some(0),
            DirState::Shared => Some(1),
            DirState::Owned => Some(2),
            _ => None,
        }
    }

    /// Start `writer`'s write. The copies it invalidates answer the
    /// writer, so from here on `sharers` holds only the readers that
    /// Option 1 admits while the write is blocked.
    fn start_write(&mut self, writer: NodeId) {
        self.state = DirState::BusyWrite { writer, round: Round::write() };
        self.sharers = SharerSet::EMPTY;
    }
}

/// Guard hash over a directory entry's protected words: stable-state
/// code, owner (0 = none, 1 + index otherwise), and the four sharer
/// bitset words.
fn dir_guard(code: u64, owner: Option<NodeId>, sharers: &SharerSet) -> u64 {
    let w = sharers.guard_words();
    let o = owner.map_or(0, |n| 1 + n.index() as u64);
    wb_kernel::soft::guard_hash(&[code, o, w[0], w[1], w[2], w[3]])
}

/// What a line's round still waits for: a blocked write's lockdowns, a
/// parked eviction's recalls or a purge's invalidations. Two rules
/// differ by kind, and `lockdowns`, set at construction, says which
/// holds: a write's WritersBlock ends when its last lockdown is passed
/// on, since the write may perform from then on and a tear-off could be
/// stale; an eviction's or a purge's lasts until the round ends.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Round {
    /// Answers not yet settled: InvAck / DataWb / LockdownAck, one per
    /// invalidated copy (a Nack answers, but owes its LockdownAck). A
    /// write's invalidations are answered to the writer, so its round
    /// counts each lockdown from its Nack until its LockdownAck is passed
    /// on, and each of Option 1's re-invalidations.
    pending: u32,
    /// Parties that may still bring newer data than the bank's copy:
    /// targets that have not answered, or a write no lockdown holds.
    /// Reads queue while any is left: a tear-off of the bank's copy could
    /// be stale.
    unheard: u32,
    /// True while the round is in WritersBlock.
    wb: bool,
    /// A write's lockdowns not yet passed on to the writer; `None` for an
    /// eviction or a purge.
    lockdowns: Option<u32>,
}

impl Round {
    /// A round over `targets` copies, `owners` of which may hold newer
    /// data than the bank.
    fn new(targets: u32, owners: u32) -> Self {
        Round { pending: targets, unheard: owners, wb: false, lockdowns: None }
    }

    /// A write's round: nothing to wait for until a Nack, but until then
    /// the write may perform at any moment, so reads queue.
    fn write() -> Self {
        Round { pending: 0, unheard: 1, wb: false, lockdowns: Some(0) }
    }

    /// A target's first answer (InvAck, DataWb or Nack) arrived.
    fn heard(&mut self) {
        self.unheard = self.unheard.saturating_sub(1);
    }

    /// An InvAck, DataWb or LockdownAck settled one target.
    fn settled(&mut self) {
        self.pending = self.pending.saturating_sub(1);
    }

    /// An InvAck or DataWb: a target's first answer, which also settles it.
    fn answered(&mut self) {
        self.heard();
        self.settled();
    }

    /// A Nack: the target answered but owes its LockdownAck. A write's
    /// target answers the writer, so for a write that LockdownAck is one
    /// more answer, and until it is passed on the write cannot perform:
    /// the bank's copy is current. Returns whether the round entered
    /// WritersBlock.
    fn nacked(&mut self) -> bool {
        match &mut self.lockdowns {
            Some(n) => {
                *n += 1;
                self.pending += 1;
                self.unheard = 0;
            }
            None => self.heard(),
        }
        !std::mem::replace(&mut self.wb, true)
    }

    /// Option 1's re-invalidations still unanswered (none but a write's).
    fn reinvalidating(&self) -> u32 {
        self.pending.saturating_sub(self.lockdowns.unwrap_or(self.pending))
    }

    /// `n` of a write's lockdowns were passed on to the writer. With none
    /// left the write may perform: WritersBlock ends and reads queue.
    fn lift(&mut self, n: u32) {
        if let Some(l) = &mut self.lockdowns {
            *l = l.saturating_sub(n);
            self.pending = self.pending.saturating_sub(n);
            if *l == 0 {
                self.wb = false;
                self.unheard = 1;
            }
        }
    }
}

/// Option 1's books for one write (Section 3.4), beside its `Round`. A
/// Nack or a LockdownAck does not say which invalidation it answers, the
/// writer's own or a re-invalidation; these sets do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Readmitted {
    /// Re-invalidated cores that have not settled.
    reinvalidated: SharerSet,
    /// The subset that Nacked: each owes the bank its LockdownAck.
    nacked: SharerSet,
    /// Cores whose Nack of the writer's invalidation owes a LockdownAck.
    owing: SharerSet,
}

impl Readmitted {
    /// A Nack from `n`. A re-invalidated core's first answers its
    /// re-invalidation (true); any other is a lockdown of the writer's.
    fn nack(&mut self, n: NodeId) -> bool {
        let reinvalidation = self.reinvalidated.contains(n) && !self.nacked.contains(n);
        if reinvalidation {
            self.nacked.insert(n);
        } else {
            self.owing.insert(n);
        }
        reinvalidation
    }

    /// An InvAck from `n`: does it settle a re-invalidation, and was the
    /// Nack taken for that re-invalidation the writer's after all?
    fn inv_ack(&mut self, n: NodeId) -> (bool, bool) {
        if !self.reinvalidated.contains(n) {
            return (false, false);
        }
        self.reinvalidated.remove(n);
        let writers = self.nacked.contains(n);
        if writers {
            self.nacked.remove(n);
            self.owing.insert(n);
        }
        (true, writers)
    }

    /// A LockdownAck from `n`: does it settle a re-invalidation, and is
    /// it the writer's? A core's lockdown lifts once, so one LockdownAck
    /// answers every Nack it sent; one that answers no known Nack is the
    /// writer's.
    fn lockdown_ack(&mut self, n: NodeId) -> (bool, bool) {
        let reinvalidation = self.nacked.contains(n);
        if reinvalidation {
            self.nacked.remove(n);
            self.reinvalidated.remove(n);
        }
        let owed = self.owing.contains(n) || !reinvalidation;
        self.owing.remove(n);
        (reinvalidation, owed)
    }
}

/// The round a line is in, with the bank's copy of the data, the
/// messages queued behind it and, for a blocked write, its writer.
struct RoundAt<'a> {
    round: &'a mut Round,
    data: &'a mut LineData,
    queued: &'a mut VecDeque<ProtoMsg>,
    writer: Option<NodeId>,
}

/// A directory entry parked mid-eviction (Section 3.5.1). While parked it
/// queues writes, and answers reads with tear-off copies once no owner's
/// writeback is outstanding.
#[derive(Debug, Clone)]
struct Evicting {
    line: LineAddr,
    data: LineData,
    round: Round,
    queued: VecDeque<ProtoMsg>,
}

/// Remove the reads waiting in `queued`; returns their requesters in
/// arrival order.
fn take_reads(queued: &mut VecDeque<ProtoMsg>) -> Vec<NodeId> {
    let mut reads = Vec::new();
    queued.retain(|m| match *m {
        ProtoMsg::GetS { requester, .. } => {
            reads.push(requester);
            false
        }
        _ => true,
    });
    reads
}

/// The requesters of the writes waiting in `queued`, in arrival order.
fn queued_writers(queued: &VecDeque<ProtoMsg>) -> Vec<NodeId> {
    queued
        .iter()
        .filter_map(|m| match *m {
            ProtoMsg::GetX { requester, .. } => Some(requester),
            _ => None,
        })
        .collect()
}

/// Remove the LockdownAcks a blocked write holds in `queued`; returns how
/// many there were.
fn take_lockdown_acks(queued: &mut VecDeque<ProtoMsg>) -> u32 {
    let before = queued.len();
    queued.retain(|m| !matches!(m, ProtoMsg::LockdownAck { .. }));
    (before - queued.len()) as u32
}

#[derive(Debug, Clone)]
enum Event {
    Process(ProtoMsg),
    /// A GetX the bank refused for want of an LLC way, tried again; its
    /// writer was hinted at the first refusal.
    RetryGetX { line: LineAddr, requester: NodeId },
    MemReady { line: LineAddr },
    UncachedMemRead { line: LineAddr, requester: NodeId },
}

/// Keys tracked per bank by the contended-line attribution sketch.
/// Tens of entries: linear scans beat a heap here and memory stays O(k)
/// no matter how many lines a chaos cell touches.
const HOT_LINES_TRACKED: usize = 32;

/// One LLC + directory bank.
pub struct Directory {
    /// Node (tile) hosting this bank — the mesh routing target.
    node: NodeId,
    /// Global bank index in `0..HomeMap::total_banks()`. With one bank
    /// per node this equals the node index; sharded machines host
    /// several banks per tile.
    bank: usize,
    l3: SetAssocArray<DirEntry>,
    evict_buf: Vec<Evicting>,
    evict_cap: usize,
    memory: MainMemory,
    /// Network arrivals waiting for a request port, in arrival order.
    /// The bank accepts at most [`DIR_BANK_PORTS`] per cycle; the queue
    /// depth is the bank-occupancy contention signal.
    ingress: VecDeque<(Cycle, ProtoMsg)>,
    events: VecDeque<(Cycle, Event)>,
    outbox: Vec<(Dest, ProtoMsg)>,
    retry_delay: u64,
    option1_cacheable_reads: bool,
    /// Option-1 ablation: cacheable copies handed out from a WritersBlock
    /// entry make the reader send a 3-hop Unblock the write transaction
    /// does not expect; this counts how many to absorb per line.
    stray_unblocks: std::collections::HashMap<LineAddr, u32>,
    /// Option-1 ablation: [`Readmitted`] per write in flight.
    readmitted: HashMap<LineAddr, Readmitted>,
    stats: Stats,
    tracer: Tracer,
    /// Cycle each line entered WritersBlock (first Nack), for the
    /// blocked-duration histogram. Covers both in-flight writes and
    /// parked evictions (a line is never in both at once).
    wb_since: HashMap<LineAddr, Cycle>,
    /// First "impossible state" seen by this bank; the offending message
    /// is dropped and the system surfaces this as `RunOutcome::Fault`.
    fault: Option<ProtocolError>,
    /// Per-line retry escalation (Nack-driven requeues, Option-1
    /// re-invalidation rounds) feeding the `nack_retries` histogram.
    retry_counts: HashMap<LineAddr, u64>,
    /// Per-line tear-off serve counts feeding the `tearoff_reads_served`
    /// histogram (cross-check for Figure 8's uncacheable-read counts).
    tearoff_counts: HashMap<LineAddr, u64>,
    /// Cycle attribution: top contended lines by WritersBlock-window
    /// cycles and Nack retries. Bounded space-saving sketch — NOT a
    /// per-line map — so chaos cells touching unbounded line sets stay
    /// O(k). Surfaced through [`Directory::hot_lines`] into the report
    /// leaderboard and wedge notes.
    hot: HeavyHitters,
    /// True when a non-empty soft-error plan is active (guards
    /// maintained and checked).
    soft_on: bool,
    /// Number of cores a purge invalidates.
    num_cores: usize,
    /// Cycle each still-undetected soft flip landed, keyed by line.
    wounds: HashMap<LineAddr, Cycle>,
    /// Pre-resolved handles for the counters on the request hot path
    /// (PR 5's `CounterHandle` pattern: no BTreeMap lookup per bump).
    h_gets: CounterHandle,
    h_getx: CounterHandle,
    h_tearoff_replies: CounterHandle,
    h_nack_retries: CounterHandle,
    h_invs_sent: CounterHandle,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("node", &self.node)
            .field("bank", &self.bank)
            .field("entries", &self.l3.len())
            .field("parked", &self.evict_buf.len())
            .finish()
    }
}

impl Directory {
    /// Build global bank `bank` of the machine described by `home`; the
    /// bank is hosted at `home.node_of(bank)`.
    pub fn new(bank: usize, home: &HomeMap, cfg: &SystemConfig) -> Self {
        let node = NodeId(home.node_of(bank) as u16);
        let mut d = Directory::with_memory_config(node, &cfg.memory, cfg.wb_cacheable_reads);
        d.bank = bank;
        d.tracer = Tracer::new(CompId::Dir(bank as u16));
        d
    }

    /// Build a single bank at `node` (bank index == node index, the
    /// one-bank-per-tile machine) from a memory configuration directly.
    pub fn with_memory_config(node: NodeId, mem: &MemoryConfig, option1: bool) -> Self {
        let sets = SetAssocArray::<DirEntry>::geometry(mem.l3_bank_bytes, mem.l3_ways);
        let mut stats = Stats::new();
        let h_gets = stats.handle("dir_gets");
        let h_getx = stats.handle("dir_getx");
        let h_tearoff_replies = stats.handle("dir_tearoff_replies");
        let h_nack_retries = stats.handle("dir_nack_retries");
        let h_invs_sent = stats.handle("dir_invs_sent");
        Directory {
            node,
            bank: node.index(),
            l3: SetAssocArray::new(sets, mem.l3_ways),
            evict_buf: Vec::new(),
            evict_cap: mem.dir_evict_buffer,
            memory: MainMemory::new(),
            ingress: VecDeque::new(),
            events: VecDeque::new(),
            outbox: Vec::new(),
            retry_delay: 25,
            option1_cacheable_reads: option1,
            stray_unblocks: std::collections::HashMap::new(),
            readmitted: HashMap::new(),
            stats,
            tracer: Tracer::new(CompId::Dir(node.0)),
            wb_since: HashMap::new(),
            fault: None,
            retry_counts: HashMap::new(),
            tearoff_counts: HashMap::new(),
            hot: HeavyHitters::new(HOT_LINES_TRACKED),
            soft_on: false,
            num_cores: 0,
            wounds: HashMap::new(),
            h_gets,
            h_getx,
            h_tearoff_replies,
            h_nack_retries,
            h_invs_sent,
        }
    }

    /// Record an "impossible state" instead of panicking. Only the first
    /// violation is kept (later ones are usually fallout); the counter
    /// still ticks for each.
    fn record_fault(&mut self, line: LineAddr, context: &'static str, detail: String) {
        self.stats.inc("dir_protocol_faults");
        if self.fault.is_none() {
            self.fault = Some(ProtocolError {
                at: format!("dir{}", self.bank),
                line: line.0,
                context: context.to_string(),
                detail,
            });
        }
    }

    /// The first protocol violation this bank has seen, if any.
    pub fn fault(&self) -> Option<&ProtocolError> {
        self.fault.as_ref()
    }

    /// A Nack-driven retry (requeue or Option-1 re-invalidation) for
    /// `line`: escalate its per-line count into the `nack_retries`
    /// histogram and the `dir_nack_retries` counter the livelock
    /// classifier watches.
    fn note_retry(&mut self, line: LineAddr) {
        self.stats.inc_h(self.h_nack_retries);
        // Each retry round costs the requester a retry_delay requeue:
        // attribute that to the line so spinning lines surface in the
        // hot-lines leaderboard even before their WB window closes.
        self.hot.add(line.0, self.retry_delay);
        let c = self.retry_counts.entry(line).or_insert(0);
        *c += 1;
        let c = *c;
        self.stats.record("nack_retries", c);
    }

    /// A tear-off copy served for `line` (from the LLC, a parked
    /// eviction, or uncacheable memory).
    fn note_tearoff(&mut self, line: LineAddr) {
        self.stats.inc_h(self.h_tearoff_replies);
        let c = self.tearoff_counts.entry(line).or_insert(0);
        *c += 1;
        let c = *c;
        self.stats.record("tearoff_reads_served", c);
    }

    /// Every transient or parked entry, with who it waits on and who is
    /// queued behind it — the directory's contribution to the wedge
    /// wait-for graph.
    pub fn wait_summary(&self) -> Vec<DirWait> {
        let queued_of = |q: &VecDeque<ProtoMsg>| -> Vec<u16> {
            q.iter().filter_map(|m| m.requester().map(|n| n.0)).collect()
        };
        let mut out: Vec<DirWait> = Vec::new();
        for (line, e) in self.l3.iter() {
            if e.stable() && e.queued.is_empty() {
                continue;
            }
            let waiting_on = match &e.state {
                DirState::BusyRead { requester: n, .. } | DirState::BusyWrite { writer: n, .. } => Some(n.0),
                DirState::Owned => e.owner.map(|o| o.0),
                _ => None,
            };
            let state = state_name(None, Some(&e.state));
            out.push(DirWait { line: line.0, state, waiting_on, queued: queued_of(&e.queued) });
        }
        for p in &self.evict_buf {
            out.push(DirWait {
                line: p.line.0,
                state: state_name(Some(p), None),
                waiting_on: None,
                queued: queued_of(&p.queued),
            });
        }
        out.sort_by_key(|w| w.line);
        out
    }

    /// The node hosting this bank.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This bank's global index (equals the node index on
    /// one-bank-per-tile machines).
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Enable/disable event tracing (state transitions, WritersBlock
    /// entry/exit).
    pub fn set_trace(&mut self, filter: TraceFilter) {
        self.tracer.set_filter(filter);
    }

    /// The bank's event tracer (for merging into a system timeline).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The observable state name of `line` at this bank.
    fn state_name(&self, line: LineAddr) -> &'static str {
        state_name(self.evict_buf.iter().find(|p| p.line == line), self.l3.get(line).map(|e| &e.state))
    }

    /// `line` left WritersBlock: close the stall histogram window.
    fn note_wb_exit(&mut self, now: Cycle, line: LineAddr) {
        if let Some(t0) = self.wb_since.remove(&line) {
            let stalled = now.saturating_sub(t0);
            self.stats.record("dir_wb_cycles", stalled);
            self.hot.add(line.0, stalled);
            self.tracer.record(now, TraceEvent::WritersBlockEnd { line: line.0 });
        }
    }

    /// Cycle attribution for this bank: the top contended lines by
    /// WritersBlock-window cycles plus Nack-retry requeue cost, as a
    /// bounded space-saving sketch (see [`wb_kernel::attr`]).
    pub fn hot_lines(&self) -> &HeavyHitters {
        &self.hot
    }

    /// Pre-load a word into this bank's backing memory (simulation setup).
    pub fn init_word(&mut self, addr: wb_mem::Addr, value: u64) {
        self.memory.write_word(addr, value);
    }

    /// The current architectural value of `addr` *as far as this bank
    /// knows*: LLC copy if fresh, else backing memory. Lines owned by a
    /// private cache must be resolved there instead.
    pub fn memory_value(&self, addr: wb_mem::Addr) -> u64 {
        let line = addr.line();
        if let Some(e) = self.l3.get(line) {
            if !matches!(e.state, DirState::Owned) {
                return e.data.word(addr.word_index());
            }
        }
        if let Some(p) = self.evict_buf.iter().find(|p| p.line == line) {
            return p.data.word(addr.word_index());
        }
        self.memory.read_word(addr)
    }

    /// Debug: describe the directory entry for `line`.
    pub fn debug_line(&self, line: LineAddr) -> String {
        let entry = self.l3.get(line).map(|e| {
            format!("state={:?} sharers={:#x} owner={:?} queued={}", e.state, e.sharers, e.owner, e.queued.len())
        });
        let parked = self.evict_buf.iter().find(|p| p.line == line).map(|p| format!("parked {:?}", p.round));
        let evs: Vec<String> = self.events.iter().map(|(due, e)| format!("@{due}:{e:?}")).collect();
        format!(
            "dir{} line {line}: {entry:?} {parked:?} ingress={} events=[{}]",
            self.bank,
            self.ingress.len(),
            evs.join("; ")
        )
    }

    /// Accept a message from the network. The message waits for one of
    /// the bank's request ports (at most [`DIR_BANK_PORTS`] acceptances
    /// per cycle); once accepted, processing happens after the bank's
    /// access latency.
    pub fn receive(&mut self, now: Cycle, msg: ProtoMsg) {
        self.ingress.push_back((now, msg));
    }

    /// Drain messages to inject into the mesh.
    pub fn drain_outbox(&mut self) -> Vec<(Dest, ProtoMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Allocation-free [`Directory::drain_outbox`]: append queued
    /// messages to `out` (which the caller clears and reuses).
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(Dest, ProtoMsg)>) {
        out.append(&mut self.outbox);
    }

    /// The earliest cycle at which ticking this bank can change state:
    /// `Some(now)` when the outbox has messages to inject or an event is
    /// already due, the minimum future event due-time otherwise, `None`
    /// when the event queue is empty. Parked evictions and queued
    /// requests only advance on *incoming* messages (tracked by the
    /// mesh's own `next_event`), so they carry no deadline here.
    ///
    /// This is also the sparse engine's sleep-eligibility hook: event
    /// due-times are absolute cycles, so the prediction is temporally
    /// stable — a sleeping bank's cached wake stays correct until a
    /// message is delivered to it (which wakes it at the glue layer).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        if !self.outbox.is_empty() || !self.ingress.is_empty() {
            next = Some(now);
        }
        for &(due, _) in &self.events {
            let due = due.max(now);
            next = Some(next.map_or(due, |n| n.min(due)));
        }
        next
    }

    /// True when no protocol messages await injection (`SparseVerify`
    /// asserts this stays true across a slept bank's shadow tick).
    pub fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Counter access for reports.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// True when no event, transient entry or parked eviction is pending.
    /// A `Purging` entry is not stable, so an in-flight purge keeps the
    /// bank (and the run) alive until every core has answered.
    pub fn is_idle(&self) -> bool {
        self.ingress.is_empty()
            && self.events.is_empty()
            && self.evict_buf.is_empty()
            && self.l3.iter().all(|(_, e)| e.stable() && e.queued.is_empty())
    }

    // ------------------------------------------------------------------
    // Soft errors: guards, detection, purge
    // ------------------------------------------------------------------

    /// Enable the soft-error guard machinery; `num_cores` is the purge's
    /// fan-out.
    pub fn set_soft(&mut self, on: bool, num_cores: usize) {
        self.soft_on = on;
        self.num_cores = num_cores;
    }

    /// The guard a stable entry should carry right now.
    fn entry_guard(e: &DirEntry) -> Option<u64> {
        e.stable_code().map(|c| dir_guard(c, e.owner, &e.sharers))
    }

    /// Is this stable entry's guard consistent with its protected words?
    fn guard_ok(e: &DirEntry) -> bool {
        match Self::entry_guard(e) {
            Some(h) => e.guard == h,
            None => true, // transient entries carry no valid guard
        }
    }

    /// Refresh the guard of `line` after an event legitimately mutated
    /// the entry (no-op for transient states; they reguard on return to
    /// stability).
    fn reguard(&mut self, line: LineAddr) {
        if !self.soft_on {
            return;
        }
        if let Some(e) = self.l3.get_mut(line) {
            if let Some(h) = Self::entry_guard(e) {
                e.guard = h;
            }
        }
    }

    /// Check the guard of `line` before interpreting its stored state;
    /// a mismatch purges the entry.
    fn check_guard(&mut self, now: Cycle, line: LineAddr) {
        if self.soft_on && self.l3.get(line).is_some_and(|e| e.stable() && !Self::guard_ok(e)) {
            self.purge(now, line);
        }
    }

    /// Recover wounded entry `line`: count the flip as detected and
    /// invalidate every core as a write with no requester would. Owners
    /// write back, lockdowns Nack, and the entry ends `Uncached` with the
    /// bank's data once every answer and lockdown is in.
    fn purge(&mut self, now: Cycle, line: LineAddr) {
        if let Some(t0) = self.wounds.remove(&line) {
            self.stats.record("soft_detect_latency", now.saturating_sub(t0));
        }
        self.stats.inc("soft_detected");
        self.stats.inc("dir_poisoned");
        let cores = self.num_cores as u32;
        debug_assert!(cores > 0, "set_soft must provide the core count");
        if let Some(e) = self.l3.get_mut(line) {
            e.state = DirState::Purging(Round::new(cores, cores));
        }
        for i in 0..self.num_cores {
            self.send(NodeId(i as u16), ProtoMsg::Purge { line });
        }
    }

    /// Every core has answered the purge of `line` and every lockdown
    /// has lifted: no private copy is left, so the bank's data is the
    /// line's value. Queued requests then drain.
    fn finish_purge(&mut self, now: Cycle, line: LineAddr) {
        if let Some(e) = self.l3.get_mut(line) {
            e.state = DirState::Uncached;
            e.sharers = SharerSet::EMPTY;
            e.owner = None;
        }
        self.reguard(line);
        self.note_wb_exit(now, line);
        self.stats.inc("soft_recovered");
        self.drain_queued(now, line);
    }

    /// Apply one soft flip of `target` kind to this bank's stored
    /// directory state. Victims are stable entries with empty queues and
    /// healthy guards; returns `false` when none qualify.
    pub fn soft_flip(&mut self, now: Cycle, target: wb_kernel::SoftTarget, rng: &mut wb_kernel::SimRng) -> bool {
        use wb_kernel::SoftTarget;
        let want_shared = target == SoftTarget::Sharers;
        let candidates: Vec<LineAddr> = self
            .l3
            .iter()
            .filter(|(_, e)| {
                e.stable()
                    && e.queued.is_empty()
                    && Self::guard_ok(e)
                    && (!want_shared || matches!(e.state, DirState::Shared))
            })
            .map(|(l, _)| l)
            .collect();
        match target {
            SoftTarget::DirState => {
                if candidates.is_empty() {
                    return false;
                }
                let line = candidates[rng.below_usize(candidates.len())];
                let e = self.l3.get_mut(line).expect("candidate resident");
                let others: Vec<DirState> = [DirState::Uncached, DirState::Shared, DirState::Owned]
                    .into_iter()
                    .filter(|s| *s != e.state)
                    .collect();
                e.state = others[rng.below_usize(others.len())].clone();
                self.wounds.insert(line, now);
                self.stats.inc("soft_injected");
                true
            }
            SoftTarget::Sharers => {
                if candidates.is_empty() {
                    return false;
                }
                let line = candidates[rng.below_usize(candidates.len())];
                let victim = NodeId(rng.below(self.num_cores as u64) as u16);
                let e = self.l3.get_mut(line).expect("candidate resident");
                e.sharers.toggle(victim);
                self.wounds.insert(line, now);
                self.stats.inc("soft_injected");
                true
            }
            // Cache-side targets are routed to private caches.
            SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => false,
        }
    }

    /// The online auditor's scrub: purge every stable entry whose guard
    /// mismatches (an undetected wound), in deterministic array order.
    /// Returns how many purges it started.
    pub fn scrub_wounds(&mut self, now: Cycle) -> u64 {
        if !self.soft_on {
            return 0;
        }
        let wounded: Vec<LineAddr> =
            self.l3.iter().filter(|(_, e)| e.stable() && !Self::guard_ok(e)).map(|(l, _)| l).collect();
        for &line in &wounded {
            self.purge(now, line);
        }
        wounded.len() as u64
    }

    /// Mark every line with in-flight directory-side activity; the
    /// auditor only checks directory–cache agreement on unmarked lines.
    pub fn audit_busy_lines(&self, mark: &mut dyn FnMut(LineAddr)) {
        for (l, e) in self.l3.iter() {
            if !e.stable() || !e.queued.is_empty() {
                mark(l);
            }
        }
        for p in &self.evict_buf {
            mark(p.line);
        }
        for (_, msg) in &self.ingress {
            mark(msg.line());
        }
        for (_, ev) in &self.events {
            match ev {
                Event::Process(m) => mark(m.line()),
                Event::RetryGetX { line, .. } | Event::MemReady { line } | Event::UncachedMemRead { line, .. } => {
                    mark(*line)
                }
            }
        }
        for (_, msg) in &self.outbox {
            mark(msg.line());
        }
        for l in self.stray_unblocks.keys() {
            mark(*l);
        }
        for l in self.wounds.keys() {
            mark(*l);
        }
    }

    /// The auditor's view of every stable entry: `(line, state code,
    /// owner, sharers)` with code 0 = Uncached, 1 = Shared, 2 = Owned.
    pub fn audit_entries(&self) -> Vec<(LineAddr, u64, Option<NodeId>, SharerSet)> {
        self.l3
            .iter()
            .filter_map(|(l, e)| e.stable_code().map(|c| (l, c, e.owner, e.sharers)))
            .collect()
    }

    /// Eviction-buffer occupancy against its configured capacity, for
    /// the auditor's leak bound.
    pub fn evict_buf_usage(&self) -> (usize, usize) {
        (self.evict_buf.len(), self.evict_cap)
    }

    /// Advance one cycle: accept waiting requests through the bank's
    /// ports, then handle every event that has become due.
    pub fn tick(&mut self, now: Cycle) {
        if !self.ingress.is_empty() {
            // One occupancy sample per busy cycle: how deep the request
            // queue is when the ports start accepting.
            self.stats.record("dir_bank_occupancy", self.ingress.len() as u64);
            for _ in 0..DIR_BANK_PORTS {
                match self.ingress.pop_front() {
                    Some((_, msg)) => {
                        self.events.push_back((now + L3_HIT_CYCLES, Event::Process(msg)));
                    }
                    None => break,
                }
            }
            if !self.ingress.is_empty() {
                // Requests left waiting for a port: the contention the
                // infinite-bandwidth model hid.
                self.stats.inc("dir_port_stall_cycles");
            }
        }
        // Events are *not* guaranteed to be in due-time order (memory
        // fetches land far in the future), so scan the whole queue —
        // in place, rotating not-yet-due events to the back (handlers
        // only ever push strictly-future events, so the first
        // `original length` pops see exactly the pre-tick queue).
        for _ in 0..self.events.len() {
            match self.events.pop_front() {
                Some((due, ev)) if due <= now => self.handle(now, ev),
                Some(entry) => self.events.push_back(entry),
                None => break,
            }
        }
    }

    fn send(&mut self, dst: NodeId, msg: ProtoMsg) {
        // Every directory-originated message targets a private cache.
        self.outbox.push((Dest::Cache(dst), msg));
    }

    fn requeue(&mut self, now: Cycle, msg: ProtoMsg, delay: u64) {
        self.events.push_back((now + delay, Event::Process(msg)));
    }

    fn handle(&mut self, now: Cycle, ev: Event) {
        // State transitions are observed around each event rather than
        // at every `entry.state = ...` site: one wiring point, and the
        // trace shows the externally-visible before/after per message.
        let traced_line = if self.tracer.wants(Category::Directory) {
            match &ev {
                Event::Process(msg) => Some(msg.line()),
                Event::RetryGetX { line, .. } | Event::MemReady { line } => Some(*line),
                Event::UncachedMemRead { .. } => None,
            }
        } else {
            None
        };
        let before = traced_line.map(|l| self.state_name(l));
        let guard_line = match (&ev, self.soft_on) {
            (Event::Process(msg), true) => Some(msg.line()),
            (Event::RetryGetX { line, .. } | Event::MemReady { line }, true) => Some(*line),
            _ => None,
        };
        if let Some(l) = guard_line {
            // Scrub before interpreting stored state: a flipped entry
            // purges (queueing this event's request if it targets the
            // line) instead of being acted on.
            self.check_guard(now, l);
        }
        self.handle_inner(now, ev);
        if let Some(l) = guard_line {
            self.reguard(l);
        }
        if let (Some(line), Some(before)) = (traced_line, before) {
            let after = self.state_name(line);
            if after != before {
                self.tracer.record(
                    now,
                    TraceEvent::DirTransition { line: line.0, from: before, to: after },
                );
            }
        }
    }

    fn handle_inner(&mut self, now: Cycle, ev: Event) {
        match ev {
            Event::Process(msg) => self.process(now, msg),
            Event::RetryGetX { line, requester } => self.on_getx(now, line, requester, true),
            Event::MemReady { line } => self.on_mem_ready(now, line),
            Event::UncachedMemRead { line, requester } => {
                let data = self.memory.read_line(line);
                self.tear_off_reply(line, requester, data);
            }
        }
    }

    fn process(&mut self, now: Cycle, msg: ProtoMsg) {
        match msg {
            ProtoMsg::GetS { line, requester, kind } => self.on_gets(now, line, requester, kind),
            ProtoMsg::GetX { line, requester } => self.on_getx(now, line, requester, false),
            ProtoMsg::PutM { line, requester, data } => self.on_putm(now, line, requester, data),
            ProtoMsg::PutS { line, requester } => self.on_puts(line, requester),
            ProtoMsg::Nack { line, from, data } => self.on_nack(now, line, from, data),
            ProtoMsg::LockdownAck { line, from } => self.on_lockdown_ack(now, line, from),
            ProtoMsg::InvAck { line, from } => self.on_inv_ack(now, line, from),
            ProtoMsg::DataWb { line, from, data } => self.on_datawb(now, line, from, data),
            ProtoMsg::Unblock { line, from } => self.on_unblock(now, line, from),
            other => {
                let line = other.line();
                self.record_fault(line, "receive", format!("unexpected message {other:?}"));
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn tear_off_reply(&mut self, line: LineAddr, requester: NodeId, data: LineData) {
        self.note_tearoff(line);
        self.send(
            requester,
            ProtoMsg::Data {
                line,
                data,
                acks_expected: 0,
                exclusive: false,
                cacheable: false,
                for_write: false,
            },
        );
    }

    fn on_gets(&mut self, now: Cycle, line: LineAddr, requester: NodeId, kind: ReadKind) {
        self.stats.inc_h(self.h_gets);
        // A round serves reads without registering them: the read
        // "performs without needing a directory entry" (Section 3.5.1) —
        // once nothing outstanding can bring newer data than the bank's;
        // until then the read waits for it. For a blocked write that is
        // Option 2 of Section 3.4, the paper's choice: an uncacheable
        // tear-off copy of the latest pre-write data.
        let option1 = self.option1_cacheable_reads && kind == ReadKind::Cacheable;
        if let Some(RoundAt { round, data, queued, writer }) = self.round_at(line) {
            if round.unheard > 0 {
                queued.push_back(ProtoMsg::GetS { line, requester, kind });
                return;
            }
            let data = *data;
            match (writer, self.l3.get_mut(line)) {
                (Some(_), Some(entry)) if option1 => {
                    // Option 1 ablation (Section 3.4): admit a cacheable
                    // copy that will have to be re-invalidated before the
                    // blocked write may proceed. Livelock-prone by design.
                    entry.sharers.insert(requester);
                    *self.stray_unblocks.entry(line).or_insert(0) += 1;
                    self.stats.inc("dir_option1_cacheable_reads");
                    self.send(
                        requester,
                        ProtoMsg::Data {
                            line,
                            data,
                            acks_expected: 0,
                            exclusive: false,
                            cacheable: true,
                            for_write: false,
                        },
                    );
                }
                _ => self.tear_off_reply(line, requester, data),
            }
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            if !self.fetch(now, ProtoMsg::GetS { line, requester, kind }) {
                // Uncacheable memory read: the SoS load can always make
                // progress even with every way and buffer slot tied up.
                self.events.push_back((now + MEM_CYCLES, Event::UncachedMemRead { line, requester }));
            }
            return;
        };
        let data = entry.data;
        match (&entry.state, kind) {
            (DirState::Uncached | DirState::Shared, ReadKind::TearOff) => {
                self.tear_off_reply(line, requester, data);
            }
            (DirState::Uncached | DirState::Shared, ReadKind::Cacheable) => {
                // An exclusive grant when no other copies exist.
                let exclusive = entry.state == DirState::Uncached;
                entry.state = DirState::BusyRead {
                    requester,
                    waiting_datawb: false,
                    waiting_unblock: true,
                    grant_exclusive: exclusive,
                };
                self.l3.touch(line, now);
                self.send(
                    requester,
                    ProtoMsg::Data {
                        line,
                        data,
                        acks_expected: 0,
                        exclusive,
                        cacheable: true,
                        for_write: false,
                    },
                );
            }
            (DirState::Owned, _) => {
                let owner = entry.owner.expect("Owned entry has an owner");
                if kind == ReadKind::Cacheable {
                    // 3-hop read: owner sends data to the requester and a
                    // copy back here; both become sharers.
                    entry.sharers = SharerSet::solo(owner);
                    entry.owner = None;
                    entry.state = DirState::BusyRead {
                        requester,
                        waiting_datawb: true,
                        waiting_unblock: true,
                        grant_exclusive: false,
                    };
                    self.l3.touch(line, now);
                } else {
                    // Fresh data lives at the owner; it serves the
                    // tear-off directly and keeps its state.
                    self.stats.inc_h(self.h_tearoff_replies);
                }
                self.send(owner, ProtoMsg::FwdGetS { line, requester, kind });
            }
            // Every other state is a transaction in flight: the read
            // waits for it.
            _ => entry.queued.push_back(ProtoMsg::GetS { line, requester, kind }),
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// A write request; `retried` when the bank refused it before.
    fn on_getx(&mut self, now: Cycle, line: LineAddr, requester: NodeId, retried: bool) {
        self.stats.inc_h(self.h_getx);
        if let Some(RoundAt { round, queued, .. }) = self.round_at(line) {
            // "Any write that encounters a WritersBlock" gets the hint
            // (Section 3.5.2) and waits its turn, as every write waits
            // behind a round.
            let hinted = round.wb;
            queued.push_back(ProtoMsg::GetX { line, requester });
            if hinted {
                self.send(requester, ProtoMsg::WbHint { line });
            }
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            if !self.fetch(now, ProtoMsg::GetX { line, requester }) {
                // Writes may wait (TSO allows it): retry after a delay.
                // Hint the writer at the first refusal, so its SoS load
                // reads around the write with a tear-off: the way this
                // write waits for may need an eviction slot held by a
                // parked eviction that waits on the writer's own
                // lockdown. The cache ignores a repeated hint.
                self.note_retry(line);
                if !retried {
                    self.send(requester, ProtoMsg::WbHint { line });
                }
                self.events.push_back((now + self.retry_delay, Event::RetryGetX { line, requester }));
            }
            return;
        };
        // The sharers to invalidate, or the owner to forward to. An owner
        // that asks is sending a stale prefetch request: it already holds
        // the line exclusively, and the cache ignores the data payload.
        let (invs, owner) = match entry.state {
            DirState::Uncached => (SharerSet::EMPTY, None),
            DirState::Shared => (entry.sharers.without(requester), None),
            DirState::Owned => (SharerSet::EMPTY, entry.owner.filter(|&o| o != requester)),
            // Every other state is a transaction in flight: the write
            // waits for it.
            _ => {
                entry.queued.push_back(ProtoMsg::GetX { line, requester });
                return;
            }
        };
        let data = entry.data;
        entry.start_write(requester);
        self.l3.touch(line, now);
        if self.option1_cacheable_reads {
            self.readmitted.insert(line, Readmitted::default());
        }
        if let Some(owner) = owner {
            self.send(owner, ProtoMsg::FwdGetX { line, requester });
            return;
        }
        self.send(
            requester,
            ProtoMsg::Data {
                line,
                data,
                acks_expected: invs.count() as u32,
                exclusive: false,
                cacheable: true,
                for_write: true,
            },
        );
        for target in invs {
            self.send(target, ProtoMsg::Inv { line, writer: Some(requester) });
            self.stats.inc_h(self.h_invs_sent);
        }
    }

    // ------------------------------------------------------------------
    // Writebacks and sharer removals
    // ------------------------------------------------------------------

    fn on_putm(&mut self, now: Cycle, line: LineAddr, requester: NodeId, data: LineData) {
        if let Some(i) = self.evict_buf.iter().position(|p| p.line == line && p.round.pending > 0) {
            // The recalled owner's PutM crossed our Recall: it carries the
            // data we were waiting for.
            self.evict_buf[i].data = data;
            self.evict_buf[i].round.pending = 0;
            self.send(requester, ProtoMsg::PutAck { line });
            self.complete_eviction(now, i);
            return;
        }
        match self.l3.get_mut(line) {
            // A PutM crossing an in-flight forward: the PutAck must not
            // reach the evicting owner before the forward does (they
            // travel on different virtual networks), or the owner drops
            // the data the forward needs. Defer until the transaction
            // completes (`drain_queued` judges it then).
            Some(entry) if !entry.stable() => {
                entry.queued.push_back(ProtoMsg::PutM { line, requester, data });
                return;
            }
            Some(entry) if entry.state == DirState::Owned && entry.owner == Some(requester) => {
                entry.data = data;
                entry.owner = None;
                entry.state = DirState::Uncached;
                self.stats.inc("dir_putm");
            }
            // Stale PutM (a forward consumed the line first). Ack so the
            // evictor can free its buffer.
            _ => self.stats.inc("dir_putm_stale"),
        }
        self.send(requester, ProtoMsg::PutAck { line });
    }

    fn on_puts(&mut self, line: LineAddr, requester: NodeId) {
        if let Some(entry) = self.l3.get_mut(line) {
            if matches!(entry.state, DirState::Shared) {
                entry.sharers.remove(requester);
                if entry.sharers.is_empty() {
                    entry.state = DirState::Uncached;
                }
            }
        }
        // In any other state the in-flight transaction's invalidations
        // handle this cache; no acknowledgement is needed for PutS.
    }

    // ------------------------------------------------------------------
    // WritersBlock machinery
    // ------------------------------------------------------------------

    fn on_nack(&mut self, now: Cycle, line: LineAddr, from: NodeId, data: Option<LineData>) {
        // A re-invalidated reader's lockdown: its LockdownAck will settle
        // the re-invalidation, and it holds no lockdown of the writer's.
        if self.readmitted.get_mut(&line).is_some_and(|r| r.nack(from)) {
            return;
        }
        let Some(RoundAt { round, data: bank_data, queued, writer }) = self.round_at(line) else {
            self.no_round(line, "Nack");
            return;
        };
        if let Some(d) = data {
            *bank_data = d;
        }
        let entering = round.nacked();
        let hints = if entering { queued_writers(queued) } else { Vec::new() };
        if writer.is_some() {
            self.l3.touch(line, now);
        }
        // Reads must never wait behind a lockdown (Section 3.4): a read
        // queued while the round was not blocked would now wait on it —
        // and if it serves an SoS load, deadlock. `settle_round` serves
        // the queued reads tear-offs once nothing can bring newer data.
        self.settle_round(now, line);
        // Writers that queued before the round blocked learn it now: an
        // unhinted writer's SoS load would wait on its own queued write.
        for r in hints {
            self.send(r, ProtoMsg::WbHint { line });
        }
        if !entering {
            return;
        }
        if self.evict_buf.iter().any(|p| p.line == line) {
            self.stats.inc("dir_evictions_blocked");
        }
        // The round's first Nack opens its WritersBlock window; a write's
        // is counted (Figure 8) and hinted. A write's Nack that arrives
        // after every earlier lockdown has lifted re-enters WritersBlock —
        // the write still misses that ack, so it has not performed and
        // the tear-offs above are current — but it is not a second
        // blocked write: the window in `wb_since` is still open and the
        // writer's MSHR keeps its hint.
        if let Entry::Vacant(since) = self.wb_since.entry(line) {
            since.insert(now);
            if let Some(writer) = writer {
                self.stats.inc("dir_writes_blocked");
                self.tracer
                    .record(now, TraceEvent::WritersBlockBegin { line: line.0, writer: writer.0 });
                self.send(writer, ProtoMsg::WbHint { line });
            }
        }
    }

    fn on_lockdown_ack(&mut self, now: Cycle, line: LineAddr, from: NodeId) {
        // A re-invalidated reader's ack settles its re-invalidation, and
        // is the writer's too only if the core also owes it one.
        let (reinvalidation, owed) =
            self.readmitted.get_mut(&line).map_or((false, true), |r| r.lockdown_ack(from));
        let Some(RoundAt { round, queued, writer, .. }) = self.round_at(line) else {
            self.no_round(line, "LockdownAck");
            return;
        };
        match writer {
            // The bank holds the writer's ack until it may pass it on.
            Some(_) => {
                if reinvalidation {
                    round.settled();
                }
                if owed {
                    queued.push_back(ProtoMsg::LockdownAck { line, from });
                }
                self.pass_on_acks(line);
            }
            None => round.settled(),
        }
        self.settle_round(now, line);
    }

    fn on_inv_ack(&mut self, now: Cycle, line: LineAddr, from: NodeId) {
        let (settles, writers) =
            self.readmitted.get_mut(&line).map_or((false, false), |r| r.inv_ack(from));
        match self.round_at(line) {
            Some(RoundAt { round, writer: None, .. }) => round.answered(),
            // An Option-1 re-invalidation answered: the last of its round
            // lets the next round start or the held acks go on.
            Some(RoundAt { round, writer: Some(_), .. }) if settles => {
                round.settled();
                if writers {
                    round.nacked();
                }
                if round.reinvalidating() == 0 {
                    self.pass_on_acks(line);
                }
            }
            _ => {
                self.stats.inc("dir_stray_inv_acks");
                return;
            }
        }
        self.settle_round(now, line);
    }

    /// Option 1's part of the blocked write at `line` (Section 3.4):
    /// re-invalidate the readers admitted since the last re-invalidations,
    /// and once none is unanswered, pass every held LockdownAck on to the
    /// writer. Passing one on earlier could let the write perform while an
    /// admitted reader still holds its copy. Without Option 1 no reader is
    /// admitted, so each LockdownAck goes on as it arrives.
    fn pass_on_acks(&mut self, line: LineAddr) {
        let Some(DirEntry { state: DirState::BusyWrite { writer, round }, sharers, queued, .. }) =
            self.l3.get_mut(line)
        else {
            return;
        };
        let writer = *writer;
        // A reader re-admitted before its last re-invalidation settled
        // waits for the next round: one answer settles one invalidation.
        let books = self.readmitted.get_mut(&line);
        let mut readers = SharerSet::EMPTY;
        for n in sharers.take() {
            match &books {
                Some(r) if r.reinvalidated.contains(n) => sharers.insert(n),
                _ => readers.insert(n),
            }
        }
        round.pending += readers.count() as u32;
        if let Some(r) = books {
            for target in readers {
                r.reinvalidated.insert(target);
            }
        }
        let acks = if round.reinvalidating() == 0 { take_lockdown_acks(queued) } else { 0 };
        round.lift(acks);
        for target in readers {
            self.send(target, ProtoMsg::Inv { line, writer: None });
            self.stats.inc("dir_option1_reinvalidations");
            self.note_retry(line);
        }
        for _ in 0..acks {
            self.stats.inc("dir_redir_acks");
            self.send(writer, ProtoMsg::RedirAck { line });
        }
    }

    /// `context` arrived for a line that has no round to answer.
    fn no_round(&mut self, line: LineAddr, context: &'static str) {
        let detail = match self.l3.get(line) {
            Some(e) => format!("in state {:?}", e.state),
            None => "no directory entry".to_string(),
        };
        self.record_fault(line, context, detail);
    }

    fn on_datawb(&mut self, now: Cycle, line: LineAddr, _from: NodeId, data: LineData) {
        // An owner's answer to a recall or a purge; a blocked write has
        // asked no one for data.
        if let Some(RoundAt { round, data: bank_data, writer: None, .. }) = self.round_at(line) {
            *bank_data = data;
            round.answered();
            self.settle_round(now, line);
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "DataWb", "no directory entry".to_string());
            return;
        };
        entry.data = data;
        match &mut entry.state {
            DirState::BusyRead { waiting_datawb, waiting_unblock, .. } => {
                *waiting_datawb = false;
                if !*waiting_unblock {
                    self.finalize_read(now, line);
                }
            }
            other => {
                let detail = format!("in state {other:?}");
                self.record_fault(line, "DataWb", detail);
            }
        }
    }

    fn on_unblock(&mut self, now: Cycle, line: LineAddr, from: NodeId) {
        // Absorb Unblocks from Option-1 cacheable WritersBlock reads —
        // but never one the current transaction is actually waiting for
        // (a stray from a spin-reader can still be in flight when the
        // blocked write finally performs and sends its own Unblock).
        let expected_here = match self.l3.get(line).map(|e| &e.state) {
            Some(DirState::BusyRead { requester, waiting_unblock, .. }) => {
                *waiting_unblock && *requester == from
            }
            Some(DirState::BusyWrite { writer, .. }) => *writer == from,
            _ => false,
        };
        if !expected_here {
            if let Some(n) = self.stray_unblocks.get_mut(&line) {
                *n -= 1;
                if *n == 0 {
                    self.stray_unblocks.remove(&line);
                }
                return;
            }
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "Unblock", "no directory entry".to_string());
            return;
        };
        let detail = match &mut entry.state {
            DirState::BusyRead { waiting_unblock, waiting_datawb, requester, .. } if *requester == from => {
                *waiting_unblock = false;
                if !*waiting_datawb {
                    self.finalize_read(now, line);
                }
                return;
            }
            DirState::BusyWrite { writer, .. } if *writer == from => {
                self.readmitted.remove(&line);
                entry.sharers = SharerSet::EMPTY;
                entry.owner = Some(from);
                entry.state = DirState::Owned;
                // The write finally performed; if it had been blocked in
                // WritersBlock, the stall window closes here.
                self.note_wb_exit(now, line);
                self.drain_queued(now, line);
                return;
            }
            DirState::BusyRead { requester, .. } => format!("from {from}, BusyRead requester is {requester}"),
            DirState::BusyWrite { writer, .. } => format!("from {from}, BusyWrite writer is {writer}"),
            other => format!("in state {other:?}"),
        };
        self.record_fault(line, "Unblock", detail);
    }

    fn finalize_read(&mut self, now: Cycle, line: LineAddr) {
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "finalize_read", "entry vanished mid-read".to_string());
            return;
        };
        if let DirState::BusyRead { requester, grant_exclusive, .. } = entry.state.clone() {
            if grant_exclusive {
                entry.owner = Some(requester);
                entry.sharers = SharerSet::EMPTY;
                entry.state = DirState::Owned;
            } else {
                entry.sharers.insert(requester);
                entry.owner = None;
                entry.state = DirState::Shared;
            }
            self.drain_queued(now, line);
        } else {
            let detail = format!("in state {:?}", entry.state);
            self.record_fault(line, "finalize_read", detail);
        }
    }

    /// The transaction at `line` completed: judge the PutMs that crossed
    /// it now, against the owner it left, and re-run the other queued
    /// requests. Judged a cycle later, a PutM could find the line moved
    /// on by a request already in the bank's pipeline — even back to its
    /// own sender, whose new copy the stale writeback would then wipe.
    fn drain_queued(&mut self, now: Cycle, line: LineAddr) {
        if let Some(entry) = self.l3.get_mut(line) {
            let queued = std::mem::take(&mut entry.queued);
            for m in &queued {
                if matches!(m, ProtoMsg::PutM { .. }) {
                    self.process(now, m.clone());
                }
            }
            for m in queued {
                if !matches!(m, ProtoMsg::PutM { .. }) {
                    self.requeue(now, m, 1);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation, eviction and memory
    // ------------------------------------------------------------------

    /// Allocate an LLC entry for the line `msg` asks for (evicting if
    /// needed), queue `msg` on it and start the memory fetch. False when
    /// no victim is available: the caller falls back to an allocation-
    /// free path (Section 3.5.1).
    fn fetch(&mut self, now: Cycle, msg: ProtoMsg) -> bool {
        let line = msg.line();
        if !self.try_allocate(now, line) {
            self.stats.inc("dir_alloc_fallbacks");
            return false;
        }
        let entry = self.l3.get_mut(line).expect("just allocated");
        entry.queued.push_back(msg);
        self.events.push_back((now + MEM_CYCLES, Event::MemReady { line }));
        true
    }

    fn try_allocate(&mut self, now: Cycle, line: LineAddr) -> bool {
        let buffer_free = self.evict_buf.len() < self.evict_cap;
        let fresh = DirEntry {
            state: DirState::Fetching,
            sharers: SharerSet::EMPTY,
            owner: None,
            data: LineData::new(),
            queued: VecDeque::new(),
            guard: 0,
        };
        let soft_on = self.soft_on;
        let res = self.l3.insert(line, fresh, now, |_, e| {
            // Busy entries are never evictable; Shared/Owned victims need
            // an eviction-buffer slot for their protocol action. A wounded
            // entry (guard mismatch) is pinned until detection repairs it —
            // evicting it would act on corrupt state.
            e.stable()
                && (matches!(e.state, DirState::Uncached) || buffer_free)
                && (!soft_on || Self::guard_ok(e))
        });
        match res {
            Insert::Done => true,
            Insert::Evicted(vline, v) => {
                self.dispose_victim(vline, v);
                true
            }
            Insert::NoVictim => false,
        }
    }

    fn dispose_victim(&mut self, vline: LineAddr, v: DirEntry) {
        debug_assert!(v.queued.is_empty(), "busy entries are not evictable");
        match v.state {
            DirState::Shared if !v.sharers.is_empty() => {
                self.stats.inc("dir_evictions_shared");
                self.evict_buf.push(Evicting {
                    line: vline,
                    data: v.data,
                    round: Round::new(v.sharers.count() as u32, 0),
                    queued: VecDeque::new(),
                });
                for target in v.sharers {
                    self.send(target, ProtoMsg::Inv { line: vline, writer: None });
                }
            }
            DirState::Uncached | DirState::Shared => {
                self.memory.write_line(vline, v.data);
                self.stats.inc("dir_evictions_clean");
            }
            DirState::Owned => {
                let owner = v.owner.expect("Owned entry has an owner");
                self.stats.inc("dir_evictions_owned");
                // The owner's copy may be newer than ours: it answers
                // with its data.
                self.evict_buf.push(Evicting {
                    line: vline,
                    data: v.data,
                    round: Round::new(1, 1),
                    queued: VecDeque::new(),
                });
                self.send(owner, ProtoMsg::Recall { line: vline });
            }
            other => {
                // The victim filter only admits stable entries, so this is
                // unreachable unless the protocol is broken; preserve the
                // data and report rather than abort.
                let detail = format!("evicting busy entry {other:?}");
                self.memory.write_line(vline, v.data);
                self.record_fault(vline, "evict", detail);
            }
        }
    }

    /// The round `line` is in: its parked eviction, its blocked (or not
    /// yet blocked) write, or its purge.
    fn round_at(&mut self, line: LineAddr) -> Option<RoundAt<'_>> {
        if let Some(p) = self.evict_buf.iter_mut().find(|p| p.line == line) {
            return Some(RoundAt { round: &mut p.round, data: &mut p.data, queued: &mut p.queued, writer: None });
        }
        let DirEntry { state, data, queued, .. } = self.l3.get_mut(line)?;
        let (round, writer) = match state {
            DirState::BusyWrite { writer, round } => (round, Some(*writer)),
            DirState::Purging(round) => (round, None),
            _ => return None,
        };
        Some(RoundAt { round, data, queued, writer })
    }

    /// After an answer to the round at `line`: once no answer can bring
    /// newer data, serve the reads it queued with tear-offs — they must
    /// never wait on a lockdown (Section 3.4). An eviction or a purge
    /// with nothing outstanding completes; a write goes on until its
    /// `Unblock`.
    fn settle_round(&mut self, now: Cycle, line: LineAddr) {
        let Some(RoundAt { round, data, queued, writer }) = self.round_at(line) else { return };
        if round.pending > 0 || writer.is_some() {
            if round.unheard == 0 {
                let data = *data;
                for r in take_reads(queued) {
                    self.tear_off_reply(line, r, data);
                }
            }
        } else if let Some(i) = self.evict_buf.iter().position(|p| p.line == line) {
            self.complete_eviction(now, i);
        } else {
            self.finish_purge(now, line);
        }
    }

    fn complete_eviction(&mut self, now: Cycle, idx: usize) {
        let p = self.evict_buf.swap_remove(idx);
        if p.round.wb {
            self.note_wb_exit(now, p.line);
        }
        self.memory.write_line(p.line, p.data);
        self.stats.inc("dir_evictions_completed");
        for m in p.queued {
            self.requeue(now, m, 1);
        }
    }

    fn on_mem_ready(&mut self, now: Cycle, line: LineAddr) {
        let data = self.memory.read_line(line);
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "MemReady", "fetch completed for missing entry".to_string());
            return;
        };
        debug_assert!(matches!(entry.state, DirState::Fetching));
        entry.data = data;
        entry.state = DirState::Uncached;
        self.stats.inc("dir_mem_fetches");
        self.drain_queued(now, line);
    }
}

// Every execution-visible field. Configuration-derived fields (`node`,
// `bank`, the eviction-buffer capacity, the Option-1 flag) and
// observability state (the tracer) are not listed: restore targets a
// bank built from the same [`SystemConfig`].
wb_kernel::snap_component!(pub Directory {
    l3, evict_buf, memory, ingress, events, outbox, stray_unblocks, readmitted, stats,
    wb_since, fault, retry_counts, tearoff_counts, hot, wounds,
});

wb_kernel::snap_enum!(DirState {
    0 => Uncached,
    1 => Shared,
    2 => Owned,
    3 => BusyRead { requester, waiting_datawb, waiting_unblock, grant_exclusive },
    4 => BusyWrite { writer, round },
    5 => Fetching,
    6 => Purging(round),
});
// The guard must round-trip verbatim: a snapshot taken between a flip
// and its detection carries the (now-mismatched) guard, and the restored
// run must detect it on the same cycle.
wb_kernel::snap_struct!(DirEntry { state, sharers, owner, data, queued, guard });
wb_kernel::snap_struct!(Round { pending, unheard, wb, lockdowns });
wb_kernel::snap_struct!(Readmitted { reinvalidated, nacked, owing });
wb_kernel::snap_struct!(Evicting { line, data, round, queued });
wb_kernel::snap_enum!(Event {
    0 => Process(msg),
    1 => MemReady { line },
    2 => UncachedMemRead { line, requester },
    3 => RetryGetX { line, requester },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(state: DirState, owner: Option<NodeId>, sharers: SharerSet) -> DirEntry {
        let mut e = DirEntry {
            state,
            sharers,
            owner,
            data: LineData::new(),
            queued: VecDeque::new(),
            guard: 0,
        };
        if let Some(c) = e.stable_code() {
            e.guard = dir_guard(c, e.owner, &e.sharers);
        }
        e
    }

    #[test]
    fn guard_detects_every_single_field_flip() {
        let base = entry(DirState::Shared, None, SharerSet::solo(NodeId(3)));
        assert!(Directory::guard_ok(&base));

        let mut state_flip = base.clone();
        state_flip.state = DirState::Owned;
        assert!(!Directory::guard_ok(&state_flip));

        let mut sharer_flip = base.clone();
        sharer_flip.sharers.toggle(NodeId(100));
        assert!(!Directory::guard_ok(&sharer_flip));

        let mut drop_flip = base.clone();
        drop_flip.sharers.toggle(NodeId(3));
        assert!(!Directory::guard_ok(&drop_flip));
    }

    #[test]
    fn transient_entries_skip_guard_checks() {
        let e = entry(DirState::Fetching, None, SharerSet::EMPTY);
        assert!(Directory::guard_ok(&e));
        assert_eq!(Directory::entry_guard(&e), None);
    }
}
