//! Load queue, store queue, store buffer and lockdown table.
//!
//! Terminology follows Section 3.1 of the paper:
//!
//! - a load is **performed** when it has bound its value;
//! - a load is **ordered** (w.r.t. loads) when every older load (and
//!   atomic) has performed; the oldest non-performed load is the **SoS
//!   load** (source of speculation);
//! - a performed but unordered load is **M-speculative** and, under the
//!   WritersBlock protocol, holds a **lockdown**: invalidations matching
//!   its line are Nacked and acknowledged only when the lockdown lifts;
//! - loads committed out of order export their lockdowns to the **LDT**
//!   (lockdown table, Section 4.2).
//!
//! The LQ and the SQ are [`SlotQueue`]s: an entry is named by a [`Ref`],
//! its slot checked against its sequence number, and walks follow the
//! queue's sequence order. The store buffer and the LDT are plain FIFO
//! and list. The questions the pipeline asks every cycle — the SoS load,
//! the oldest non-performed atomic and the oldest unresolved store
//! address — are kept up to date by the methods that allocate, resolve,
//! perform and remove entries rather than rescanned. An LQ entry changes
//! only through those methods.

use crate::slots::{Ref, Sequenced, Slot, SlotQueue};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Bound;
use wb_kernel::{Cycle, Snap, SnapError};
use wb_mem::{Addr, LineAddr};

/// Load lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadState {
    /// Address not yet computed.
    WaitAddr,
    /// Address known; memory access not yet issued (or must be retried).
    Ready,
    /// A cache request is outstanding.
    Requested,
    /// Value bound (irrevocable once committed).
    Performed,
}

/// One load-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct LqEntry {
    pub seq: u64,
    pub addr: Option<Addr>,
    pub state: LoadState,
    pub value: u64,
    /// Cycle at which consumers may use the value (models hit latency).
    pub wake_at: Cycle,
    /// The "seen" bit: an invalidation matched this load while it was in
    /// lockdown (Figure 2.B).
    pub seen: bool,
    /// A tear-off copy was refused because the load was unordered; retry
    /// the request only once it becomes the SoS load (Section 3.4).
    pub retry_when_sos: bool,
    /// Value obtained by store-to-load forwarding.
    pub forwarded: bool,
    /// This entry is an atomic RMW occupying the LQ for ordering.
    pub is_amo: bool,
    /// Committed but still resident (non-collapsible LQ mode): the entry
    /// keeps holding its own lockdown until it drains from the head.
    pub committed: bool,
    /// The committed load's value has reached the register file (always
    /// true for loads committed after performing; ECL loads deliver
    /// later).
    pub delivered: bool,
}

impl LqEntry {
    fn new(seq: u64, is_amo: bool) -> Self {
        LqEntry {
            seq,
            addr: None,
            state: LoadState::WaitAddr,
            value: 0,
            wake_at: 0,
            seen: false,
            retry_when_sos: false,
            forwarded: false,
            is_amo,
            committed: false,
            delivered: false,
        }
    }

    /// Has this load bound a value?
    pub fn performed(&self) -> bool {
        self.state == LoadState::Performed
    }
}

/// One store-queue entry (pre-commit).
#[derive(Debug, Clone, Copy)]
pub struct SqEntry {
    pub seq: u64,
    pub addr: Option<Addr>,
    pub data: Option<u64>,
}

/// One store-buffer entry (post-commit, pre-perform).
#[derive(Debug, Clone, Copy)]
pub struct SbEntry {
    pub seq: u64,
    pub addr: Addr,
    pub data: u64,
}

/// A lockdown exported by a load committed out of order (Section 4.2).
#[derive(Debug, Clone, Copy)]
pub struct LdtEntry {
    pub line: LineAddr,
    pub seq: u64,
    pub seen: bool,
}

/// What store-to-load forwarding found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older same-address store: go to the cache.
    None,
    /// Forward this value from the youngest older matching store.
    Value(u64),
    /// An older matching store exists but its data (or the atomic's
    /// result) is not available yet: wait.
    Wait,
}

/// An LQ entry in its queue: the entry, its slot, and the ROB slot of
/// its instruction (which a committed load outlives in the
/// non-collapsible and ECL modes).
#[derive(Debug, Clone, Copy)]
struct Load {
    e: LqEntry,
    slot: Slot,
    rob: Slot,
}

impl Sequenced for Load {
    fn seq(&self) -> u64 {
        self.e.seq
    }
    fn slot(&self) -> Slot {
        self.slot
    }
    fn set_slot(&mut self, slot: Slot) {
        self.slot = slot;
    }
}

/// An SQ entry in its queue, with its slot.
#[derive(Debug, Clone, Copy)]
struct Store {
    e: SqEntry,
    slot: Slot,
}

impl Sequenced for Store {
    fn seq(&self) -> u64 {
        self.e.seq
    }
    fn slot(&self) -> Slot {
        self.slot
    }
    fn set_slot(&mut self, slot: Slot) {
        self.slot = slot;
    }
}

/// The load/store machinery of one core.
#[derive(Debug)]
pub struct Lsq {
    lq: SlotQueue<Load>,
    sq: SlotQueue<Store>,
    sb: VecDeque<SbEntry>,
    ldt: Vec<LdtEntry>,
    /// Capacity of the post-commit store buffer: the store queue's
    /// (Table 6's "SQ/SB" column).
    sb_cap: usize,
    ldt_cap: usize,
    /// Lines whose invalidation we Nacked and still owe an Ack for.
    /// Ordered so release traffic is deterministic.
    pending_acks: BTreeSet<LineAddr>,
    /// The SoS load: the oldest non-performed load or atomic.
    sos: Option<Ref>,
    /// The oldest non-performed atomic.
    amo: Option<Ref>,
    /// The oldest store or atomic with an unresolved address (its
    /// sequence number: it may be in either queue).
    unresolved: Option<u64>,
}

/// The LSQ's kept answers: the SoS load, the oldest non-performed
/// atomic and the oldest unresolved store or atomic.
type Marks = (Option<Ref>, Option<Ref>, Option<u64>);

impl Lsq {
    /// Build with the Table 6 capacities; the store buffer holds as many
    /// stores as the store queue. Allocates nothing until entries arrive.
    pub fn new(lq_cap: usize, sq_cap: usize, ldt_cap: usize) -> Self {
        Lsq {
            lq: SlotQueue::new(lq_cap),
            sq: SlotQueue::new(sq_cap),
            sb: VecDeque::new(),
            ldt: Vec::new(),
            sb_cap: sq_cap,
            ldt_cap,
            pending_acks: BTreeSet::new(),
            sos: None,
            amo: None,
            unresolved: None,
        }
    }

    // ------------------------------------------------------------- capacity

    /// Room for another load?
    pub fn lq_full(&self) -> bool {
        self.lq.is_full()
    }

    /// Room for another store?
    pub fn sq_full(&self) -> bool {
        self.sq.is_full()
    }

    /// Room in the post-commit store buffer?
    pub fn sb_full(&self) -> bool {
        self.sb.len() >= self.sb_cap
    }

    /// Room in the lockdown table?
    pub fn ldt_full(&self) -> bool {
        self.ldt.len() >= self.ldt_cap
    }

    // ----------------------------------------------------------- allocation

    /// Allocate an LQ entry at dispatch for the instruction in ROB slot
    /// `rob`.
    ///
    /// # Panics
    ///
    /// Panics if the LQ is full (callers must check
    /// [`Lsq::lq_full`] first) or `seq` is not increasing.
    pub fn alloc_load(&mut self, seq: u64, is_amo: bool, rob: Slot) -> Ref {
        let r = self.lq.push(Load { e: LqEntry::new(seq, is_amo), slot: 0, rob });
        self.sos = self.sos.or(Some(r));
        if is_amo {
            self.amo = self.amo.or(Some(r));
            self.unresolved = self.unresolved.or(Some(seq));
        }
        r
    }

    /// Allocate an SQ entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the SQ is full or `seq` is not increasing.
    pub fn alloc_store(&mut self, seq: u64) -> Ref {
        let r = self.sq.push(Store { e: SqEntry { seq, addr: None, data: None }, slot: 0 });
        self.unresolved = self.unresolved.or(Some(seq));
        r
    }

    // -------------------------------------------------------------- lookups

    /// The LQ reference of the load `seq`, found by binary search: a
    /// cache completion names its loads by sequence number.
    pub fn find_load(&self, seq: u64) -> Option<Ref> {
        self.lq.find(seq)
    }

    /// The SQ reference of the store `seq` (for restore).
    pub fn find_store(&self, seq: u64) -> Option<Ref> {
        self.sq.find(seq)
    }

    /// The LQ entry `r` names, while it is in the LQ.
    pub fn load(&self, r: Ref) -> Option<&LqEntry> {
        self.lq.get(r).map(|l| &l.e)
    }

    /// The LQ entry `r` names, to update. Every caller knows the entry
    /// is there; debug builds check it.
    fn load_mut(&mut self, r: Ref) -> Option<&mut LqEntry> {
        let e = self.lq.get_mut(r).map(|l| &mut l.e);
        debug_assert!(e.is_some(), "load {} is not in the LQ", r.seq);
        e
    }

    /// The ROB slot of the load `r`'s instruction.
    pub fn rob_slot(&self, r: Ref) -> Option<Slot> {
        self.lq.get(r).map(|l| l.rob)
    }

    /// Link the load `r` to ROB slot `rob` (restore rebuilds the links).
    pub fn set_rob_slot(&mut self, r: Ref, rob: Slot) {
        if let Some(l) = self.lq.get_mut(r) {
            l.rob = rob;
        }
    }

    /// The SQ entry `r` names.
    pub fn store(&self, r: Ref) -> Option<&SqEntry> {
        self.sq.get(r).map(|s| &s.e)
    }

    /// The SQ entry `r` names, to update (as [`Lsq::load_mut`]).
    fn store_mut(&mut self, r: Ref) -> Option<&mut SqEntry> {
        let e = self.sq.get_mut(r).map(|s| &mut s.e);
        debug_assert!(e.is_some(), "store {} is not in the SQ", r.seq);
        e
    }

    /// The LQ entry at position `i` (program order) and its reference.
    pub fn load_at(&self, i: usize) -> Option<(Ref, &LqEntry)> {
        self.lq.at(i).map(|l| (Ref { seq: l.e.seq, slot: l.slot }, &l.e))
    }

    /// The LQ entry `r` names once it has bound its value.
    pub fn bound(&self, r: Ref) -> Option<&LqEntry> {
        self.load(r).filter(|e| e.performed())
    }

    /// Iterate over LQ entries in program order.
    pub fn loads(&self) -> impl Iterator<Item = &LqEntry> {
        self.lq.iter().map(|l| &l.e)
    }

    /// LQ entries with their references and ROB slots, in program order.
    pub fn load_links(&self) -> impl Iterator<Item = (Ref, Slot, &LqEntry)> {
        self.lq.iter_refs().map(|(r, l)| (r, l.rob, &l.e))
    }

    /// SQ entries with their references, in program order.
    pub fn stores(&self) -> impl Iterator<Item = (Ref, &SqEntry)> {
        self.sq.iter_refs().map(|(r, s)| (r, &s.e))
    }

    /// The LQ entries from `r`'s on (none when `r` left the LQ).
    fn loads_from(&self, r: Ref) -> impl Iterator<Item = &LqEntry> {
        let pos = self.lq.position(r).unwrap_or(self.lq.len());
        self.lq.iter_from(pos).map(|l| &l.e)
    }

    /// Iterate over SB entries, oldest first.
    pub fn sb_entries(&self) -> impl Iterator<Item = &SbEntry> {
        self.sb.iter()
    }

    /// The oldest store-buffer entry.
    pub fn sb_head(&self) -> Option<&SbEntry> {
        self.sb.front()
    }

    /// Pop the store-buffer head after it performed.
    pub fn sb_pop(&mut self) -> Option<SbEntry> {
        self.sb.pop_front()
    }

    /// Is the store buffer empty (atomics require this)?
    pub fn sb_empty(&self) -> bool {
        self.sb.is_empty()
    }

    // ------------------------------------------------------------- updates

    /// The load or atomic `r` computed its address; a load becomes Ready
    /// to issue.
    pub fn resolve_load(&mut self, r: Ref, addr: Addr) {
        let Some(e) = self.load_mut(r) else { return };
        e.addr = Some(addr);
        if !e.is_amo {
            e.state = LoadState::Ready;
        } else if self.unresolved == Some(r.seq) {
            self.unresolved = self.first_unresolved(0);
        }
    }

    /// The store `r` computed its address.
    pub fn resolve_store(&mut self, r: Ref, addr: Addr) {
        let Some(e) = self.store_mut(r) else { return };
        e.addr = Some(addr);
        if self.unresolved == Some(r.seq) {
            // Every older store has resolved.
            let next = self.sq.position(r).map_or(0, |p| p + 1);
            self.unresolved = self.first_unresolved(next);
        }
    }

    /// The store `r` captured its data.
    pub fn store_data(&mut self, r: Ref, data: u64) {
        if let Some(e) = self.store_mut(r) {
            e.data = Some(data);
        }
    }

    /// Bind `value` to the load or atomic `r`: it performs now, and
    /// consumers may use the value from `wake_at` (the hit latency).
    /// Every way a load or atomic obtains its value — store forwarding,
    /// a cache hit, a fill, a tear-off, the atomic's own read — ends
    /// here.
    pub fn perform(&mut self, r: Ref, value: u64, wake_at: Cycle) {
        let Some(e) = self.load_mut(r) else { return };
        e.value = value;
        e.state = LoadState::Performed;
        e.wake_at = wake_at;
        self.performed(r);
    }

    /// The load `r` takes its value from an older store.
    pub fn mark_forwarded(&mut self, r: Ref) {
        if let Some(e) = self.load_mut(r) {
            e.forwarded = true;
        }
    }

    /// The load `r` sent a request to the cache.
    pub fn set_requested(&mut self, r: Ref) {
        if let Some(e) = self.load_mut(r) {
            e.state = LoadState::Requested;
        }
    }

    /// The load `r` was refused a tear-off copy: it goes back to Ready
    /// and retries only as the SoS load (Section 3.4).
    pub fn retry_at_sos(&mut self, r: Ref) {
        if let Some(e) = self.load_mut(r) {
            e.state = LoadState::Ready;
            e.retry_when_sos = true;
        }
    }

    // ------------------------------------------------------- kept answers

    /// After `r` performed: move the SoS and oldest-atomic marks past it.
    fn performed(&mut self, r: Ref) {
        if self.sos == Some(r) || self.amo == Some(r) {
            let next = self.lq.position(r).map_or(self.lq.len(), |p| p + 1);
            if self.sos == Some(r) {
                self.sos = self.first_unperformed(next, false);
            }
            if self.amo == Some(r) {
                self.amo = self.first_unperformed(next, true);
            }
        }
    }

    /// The oldest non-performed load (or only atomic) from LQ position
    /// `pos` on.
    fn first_unperformed(&self, pos: usize, amo_only: bool) -> Option<Ref> {
        self.lq.iter_refs_from(pos).find(|(_, l)| !l.e.performed() && (l.e.is_amo || !amo_only)).map(|(r, _)| r)
    }

    /// The oldest store or atomic with an unresolved address, where no
    /// store before SQ position `sq_from` has one. An unresolved atomic
    /// has not performed, so the LQ walk starts at the oldest
    /// non-performed atomic.
    fn first_unresolved(&self, sq_from: usize) -> Option<u64> {
        let sq = self.sq.iter_from(sq_from).find(|s| s.e.addr.is_none()).map(|s| s.e.seq);
        let amo = self.amo.and_then(|a| self.loads_from(a).find(|e| e.is_amo && e.addr.is_none()));
        match (sq, amo.map(|e| e.seq)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether both queues' slot lists are consistent, and the kept
    /// answers rescanned: one pass over each queue.
    fn rescan(&self) -> (bool, Marks) {
        let (mut sos, mut amo, mut unresolved_amo, mut unresolved_store) = (None, None, None, None);
        let lq = self.lq.consistent(|r, l| {
            let waiting = !l.e.performed();
            sos = sos.or(Some(r).filter(|_| waiting));
            amo = amo.or(Some(r).filter(|_| waiting && l.e.is_amo));
            // As `first_unresolved` walks: from the oldest non-performed atomic on.
            unresolved_amo = unresolved_amo.or(Some(r.seq).filter(|_| amo.is_some() && l.e.is_amo && l.e.addr.is_none()));
        });
        let sq = self.sq.consistent(|r, s| unresolved_store = unresolved_store.or(Some(r.seq).filter(|_| s.e.addr.is_none())));
        (lq && sq, (sos, amo, unresolved_store.into_iter().chain(unresolved_amo).min()))
    }

    /// Recompute every kept answer from the queues (after a restore).
    fn rebuild_marks(&mut self) {
        (self.sos, self.amo, self.unresolved) = self.rescan().1;
    }

    /// Do the kept answers equal a rescan of the queues, and are the
    /// queues' slot lists consistent? Checked by the core once per tick
    /// in debug builds.
    pub fn marks_hold(&self) -> bool {
        let (consistent, marks) = self.rescan();
        consistent && marks == (self.sos, self.amo, self.unresolved)
    }

    // ------------------------------------------------------------- ordering

    /// The SoS load: the oldest non-performed load or atomic. `None`
    /// when every load has performed.
    pub fn sos(&self) -> Option<(Ref, &LqEntry)> {
        self.sos.and_then(|s| Some((s, self.load(s)?)))
    }

    /// The reference of the SoS load.
    pub fn sos_ref(&self) -> Option<Ref> {
        self.sos
    }

    /// Is the load `seq` ordered with respect to loads (every older load
    /// performed)?
    pub fn is_ordered(&self, seq: u64) -> bool {
        self.sos.is_none_or(|sos| seq <= sos.seq)
    }

    /// The oldest non-performed atomic's sequence number, if any.
    pub fn oldest_unperformed_amo(&self) -> Option<u64> {
        self.amo.map(|a| a.seq)
    }

    /// Is there a non-performed atomic older than `seq`? Loads may not
    /// enter lockdown past an atomic (Section 3.7).
    pub fn older_unperformed_amo(&self, seq: u64) -> bool {
        self.amo.is_some_and(|a| a.seq < seq)
    }

    /// Is there a non-performed load (or atomic) older than `seq`?
    /// Equivalent to "memory order of all previous loads is established"
    /// — Bell-Lipasti condition 6 for *any* instruction in the base
    /// protocol, where a pending load may yet trigger a consistency
    /// squash that nothing younger must have committed past.
    pub fn older_unperformed_load(&self, seq: u64) -> bool {
        self.sos.is_some_and(|sos| sos.seq < seq)
    }

    /// Is `seq` currently the SoS load?
    pub fn is_sos(&self, seq: u64) -> bool {
        self.sos.is_some_and(|s| s.seq == seq)
    }

    /// Is the load `r` M-speculative (performed but unordered)?
    pub fn is_mspec(&self, r: Ref) -> bool {
        self.bound(r).is_some() && !self.is_ordered(r.seq)
    }

    // ----------------------------------------------------------- forwarding

    /// Store-to-load forwarding: search the SQ and SB for the youngest
    /// store older than `seq` to the same word.
    ///
    /// An older store with an *unresolved address* does NOT cause a wait:
    /// the load proceeds D-speculatively and is squashed if the address
    /// later conflicts.
    pub fn forward(&self, seq: u64, addr: Addr) -> ForwardResult {
        // The *youngest* older writer to the word wins, across the SQ
        // (uncommitted stores), the SB (committed stores) and non-
        // performed atomics — an atomic's value only exists at perform
        // time, so matching one forces a wait. Every SB store is older
        // than every SQ store and every non-performed atomic (neither
        // lets a younger store commit), so the SB is searched only when
        // neither matched.
        let sq = self.sq.iter().rev().map(|s| &s.e).skip_while(|e| e.seq >= seq).find(|e| e.addr == Some(addr));
        let amo = self.amo.filter(|a| a.seq < seq).and_then(|a| {
            self.loads_from(a)
                .take_while(|e| e.seq < seq)
                .filter(|e| e.is_amo && e.addr == Some(addr) && !e.performed())
                .last()
        });
        match (sq, amo) {
            (_, Some(a)) if sq.is_none_or(|s| a.seq > s.seq) => ForwardResult::Wait,
            (Some(s), _) => s.data.map_or(ForwardResult::Wait, ForwardResult::Value),
            _ => match self.sb.iter().rev().find(|e| e.addr == addr) {
                Some(e) => ForwardResult::Value(e.data),
                None => ForwardResult::None,
            },
        }
    }

    /// The oldest (first-allocated) uncommitted store's sequence number.
    pub fn oldest_store_seq(&self) -> Option<u64> {
        self.sq.front().map(|s| s.e.seq)
    }

    /// The oldest store (or atomic) with an unresolved address, if any
    /// (Bell-Lipasti condition 4).
    pub fn oldest_unresolved_store(&self) -> Option<u64> {
        self.unresolved
    }

    // ------------------------------------------------------------ lockdowns

    /// M-speculative LQ loads matching `line`, oldest first: performed
    /// entries younger than the SoS load.
    fn mspec(&self, line: LineAddr) -> impl DoubleEndedIterator<Item = (Ref, &LqEntry)> {
        let from = self.sos.and_then(|s| self.lq.position(s)).unwrap_or(self.lq.len());
        self.lq
            .iter_refs_from(from)
            .map(|(r, l)| (r, &l.e))
            .filter(move |(_, e)| e.performed() && e.addr.is_some_and(|a| a.line() == line))
    }

    /// Lines currently protected by a lockdown: M-speculative LQ loads
    /// and LDT entries (Section 3.2 / 4.2).
    pub fn has_lockdown(&self, line: LineAddr) -> bool {
        self.ldt.iter().any(|e| e.line == line) || self.mspec(line).next().is_some()
    }

    /// The oldest M-speculative LQ load matching `line` that is younger
    /// than `after`.
    pub fn mspec_match(&self, line: LineAddr, after: u64) -> Option<Ref> {
        self.mspec(line).find(|(r, _)| r.seq > after).map(|(r, _)| r)
    }

    /// Mark the youngest lockdown for `line` as seen (the S bit) and
    /// record that an Ack is owed. Sets the bit on every LDT entry of the
    /// line, per Section 4.2.
    pub fn mark_seen(&mut self, line: LineAddr) {
        for e in self.ldt.iter_mut().filter(|e| e.line == line) {
            e.seen = true;
        }
        let youngest = self.mspec(line).next_back().map(|(r, _)| r);
        if let Some(e) = youngest.and_then(|r| self.load_mut(r)) {
            e.seen = true;
        }
        self.pending_acks.insert(line);
    }

    /// Is an Ack owed for `line`?
    pub fn owes_ack(&self, line: LineAddr) -> bool {
        self.pending_acks.contains(&line)
    }

    /// The first line after `after` (in line order) whose last lockdown
    /// has lifted and whose deferred Ack must now be sent; it leaves the
    /// pending set. Calling this with the previous answer until it
    /// returns `None` releases every such line in ascending order.
    pub fn next_release(&mut self, after: Option<LineAddr>) -> Option<LineAddr> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        let line = self.pending_acks.range((from, Bound::Unbounded)).copied().find(|&l| !self.has_lockdown(l))?;
        self.pending_acks.remove(&line);
        Some(line)
    }

    /// Release LDT entries whose loads have become ordered (every older
    /// load performed). Returns how many were released.
    pub fn release_ldt(&mut self) -> usize {
        let before = self.ldt.len();
        match self.sos {
            None => self.ldt.clear(),
            Some(s) => self.ldt.retain(|e| e.seq > s.seq),
        }
        before - self.ldt.len()
    }

    /// Export the lockdown of a load committed while M-speculative into
    /// the LDT (Section 4.2). Returns false when the LDT is full — the
    /// caller must then refuse the out-of-order commit.
    pub fn export_to_ldt(&mut self, seq: u64, line: LineAddr, seen: bool) -> bool {
        if self.ldt_full() {
            return false;
        }
        self.ldt.push(LdtEntry { line, seq, seen });
        true
    }

    // ------------------------------------------------------- commit / drain

    /// After the entry `r` left LQ position `pos`: recompute any mark it
    /// held (every younger entry has moved up to `pos`).
    fn removed_load(&mut self, r: Ref, pos: usize) {
        if self.sos == Some(r) {
            self.sos = self.first_unperformed(pos, false);
        }
        if self.amo == Some(r) {
            self.amo = self.first_unperformed(pos, true);
        }
        if self.unresolved == Some(r.seq) {
            self.unresolved = self.first_unresolved(0);
        }
    }

    /// Remove a committed load from the (collapsible) LQ. `None` when `r`
    /// is not in the LQ.
    pub fn commit_load(&mut self, r: Ref) -> Option<LqEntry> {
        let pos = self.lq.position(r)?;
        let (_, l) = self.lq.remove(pos)?;
        self.removed_load(r, pos);
        Some(l.e)
    }

    /// Non-collapsible mode: mark the load committed but keep its entry
    /// (it retains its own lockdown, footnote 10 of the paper). Returns a
    /// copy of the entry; `None` as [`Lsq::commit_load`].
    pub fn commit_load_in_place(&mut self, r: Ref) -> Option<LqEntry> {
        let e = &mut self.lq.get_mut(r)?.e;
        e.committed = true;
        e.delivered = true;
        Some(*e)
    }

    /// ECL variant of [`Lsq::commit_load_in_place`]: the value has not
    /// reached the register file yet; the entry may not drain until it
    /// does.
    pub fn commit_load_early(&mut self, r: Ref) {
        if let Some(e) = self.load_mut(r) {
            e.committed = true;
            e.delivered = false;
        }
    }

    /// Mark an early-committed load's value as delivered.
    pub fn mark_delivered(&mut self, r: Ref) {
        if let Some(e) = self.load_mut(r) {
            e.delivered = true;
        }
    }

    /// Non-collapsible mode: drain committed entries from the LQ head
    /// (FIFO). An entry may leave once it is performed and ordered —
    /// its lockdown has lifted. Returns how many entries drained.
    pub fn drain_committed_head(&mut self) -> usize {
        let mut n = 0;
        while let Some(l) = self.lq.front() {
            let e = &l.e;
            if !(e.committed && e.delivered && e.performed() && self.is_ordered(e.seq)) {
                break;
            }
            if let Some((r, _)) = self.lq.pop_front() {
                self.removed_load(r, 0);
                n += 1;
            }
        }
        n
    }

    /// Move the oldest store, `seq`, from the SQ into the SB. Returns
    /// false, changing nothing, unless `seq` is the SQ head with its
    /// address and data in place.
    ///
    /// # Panics
    ///
    /// Panics if the SB is full.
    pub fn commit_store(&mut self, seq: u64) -> bool {
        assert!(!self.sb_full(), "SB overflow");
        let Some(&SqEntry { seq: head, addr: Some(addr), data: Some(data) }) = self.sq.front().map(|s| &s.e) else {
            return false;
        };
        if head != seq {
            return false;
        }
        self.sq.pop_front();
        self.sb.push_back(SbEntry { seq, addr, data });
        true
    }

    /// Remove every entry with `seq >= from` (squash). Committed state
    /// (SB, LDT) is never squashed. Returns the number of removed loads.
    /// A kept answer at or past `from` clears: every older entry it
    /// could have named was already past it.
    pub fn squash(&mut self, from: u64) -> usize {
        let removed = self.lq.truncate_from(from);
        self.sq.truncate_from(from);
        for mark in [&mut self.sos, &mut self.amo] {
            if mark.is_some_and(|m| m.seq >= from) {
                *mark = None;
            }
        }
        if self.unresolved.is_some_and(|u| u >= from) {
            self.unresolved = None;
        }
        removed
    }

    /// The oldest load in `{Requested, Performed}` younger than
    /// `writer_seq` that read word `addr` — the victim of a memory-order
    /// violation when a store resolves its address late. The walk goes
    /// from the youngest load back to the writer.
    pub fn conflict_victim(&self, writer_seq: u64, addr: Addr) -> Option<Ref> {
        self.lq
            .iter_refs()
            .rev()
            .take_while(|(r, _)| r.seq > writer_seq)
            .filter(|(_, l)| {
                !l.e.is_amo
                    && l.e.addr == Some(addr)
                    && matches!(l.e.state, LoadState::Requested | LoadState::Performed)
            })
            .last()
            .map(|(r, _)| r)
    }

    /// Occupancies for stall accounting.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.lq.len(), self.sq.len(), self.sb.len())
    }

    /// Serialize the queues (in program order) and the deferred-ack set.
    /// Capacities are configuration, the kept answers are rebuilt from
    /// the queues and slots are not written: restore targets an LSQ built
    /// with the same limits, and [`Core::restore`](crate::Core::restore)
    /// links the LQ back to the ROB.
    pub fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        w.usize(self.lq.len());
        for l in self.lq.iter() {
            l.e.snap(w);
        }
        w.usize(self.sq.len());
        for s in self.sq.iter() {
            s.e.snap(w);
        }
        self.sb.snap(w);
        self.ldt.snap(w);
        self.pending_acks.snap(w);
    }

    /// Inverse of [`Lsq::snap`].
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        let lq = Vec::<LqEntry>::unsnap(r)?;
        let sq = Vec::<SqEntry>::unsnap(r)?;
        self.lq.clear();
        self.sq.clear();
        for e in lq {
            check_arrival(self.lq.is_full(), self.lq.back(), e.seq, "LQ")?;
            self.lq.push(Load { e, slot: 0, rob: Slot::MAX });
        }
        for e in sq {
            check_arrival(self.sq.is_full(), self.sq.back(), e.seq, "SQ")?;
            self.sq.push(Store { e, slot: 0 });
        }
        self.sb.unsnap_into(r)?;
        self.ldt.unsnap_into(r)?;
        self.pending_acks.unsnap_into(r)?;
        self.rebuild_marks();
        Ok(())
    }
}

/// Restore refuses a queue it could not have written: one past its
/// capacity or out of sequence order.
fn check_arrival(full: bool, back: Option<Ref>, seq: u64, queue: &str) -> wb_kernel::SnapResult<()> {
    if full || back.is_some_and(|b| b.seq >= seq) {
        return Err(SnapError::new(format!("{queue} entry {seq} is past the capacity or out of order")));
    }
    Ok(())
}

wb_kernel::snap_enum!(LoadState { 0 => WaitAddr, 1 => Ready, 2 => Requested, 3 => Performed });
wb_kernel::snap_struct!(LqEntry {
    seq, addr, state, value, wake_at, seen, retry_when_sos, forwarded, is_amo, committed,
    delivered,
});
wb_kernel::snap_struct!(SqEntry { seq, addr, data });
wb_kernel::snap_struct!(SbEntry { seq, addr, data });
wb_kernel::snap_struct!(LdtEntry { line, seq, seen });

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u64) -> Addr {
        Addr::new(a)
    }

    fn lsq() -> Lsq {
        Lsq::new(8, 8, 4)
    }

    fn load(l: &mut Lsq, seq: u64) -> Ref {
        l.alloc_load(seq, false, 0)
    }

    #[test]
    fn capacity_checks() {
        let mut l = Lsq::new(2, 1, 1);
        load(&mut l, 1);
        load(&mut l, 2);
        assert!(l.lq_full());
        l.alloc_store(3);
        assert!(l.sq_full());
    }

    #[test]
    fn sos_and_ordering() {
        let mut l = lsq();
        let r: Vec<Ref> = (1..=3).map(|s| load(&mut l, s)).collect();
        assert_eq!(l.sos_ref(), Some(r[0]));
        // Perform the youngest: M-speculative.
        l.resolve_load(r[2], addr(0x40));
        l.perform(r[2], 0, 0);
        assert!(l.is_mspec(r[2]));
        assert!(!l.is_ordered(3));
        assert!(l.is_ordered(1), "the SoS load itself is ordered");
        // Perform the older two: everything ordered.
        for &x in &r[..2] {
            l.perform(x, 0, 0);
        }
        assert_eq!(l.sos_ref(), None);
        assert!(l.is_ordered(3));
        assert!(!l.is_mspec(r[2]));
    }

    #[test]
    fn forwarding_from_sq_and_sb() {
        let mut l = lsq();
        let st = l.alloc_store(1);
        l.resolve_store(st, addr(0x40));
        load(&mut l, 2);
        // Data not ready -> wait.
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        l.store_data(st, 10);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(10));
        assert_eq!(l.forward(2, addr(0x48)), ForwardResult::None);
        // Committed store in SB forwards too.
        l.store_data(st, 11);
        assert!(l.commit_store(1));
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(11));
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut l = lsq();
        for (seq, v) in [(1, 10u64), (2, 20)] {
            let st = l.alloc_store(seq);
            l.resolve_store(st, addr(0x40));
            l.store_data(st, v);
        }
        load(&mut l, 3);
        assert_eq!(l.forward(3, addr(0x40)), ForwardResult::Value(20));
        // A store younger than the load is invisible.
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(10));
    }

    #[test]
    fn amo_blocks_forwarding_until_performed() {
        let mut l = lsq();
        let amo = l.alloc_load(1, true, 0);
        l.resolve_load(amo, addr(0x40));
        load(&mut l, 2);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        l.perform(amo, 0, 0);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::None, "performed amo wrote the cache");
    }

    #[test]
    fn unresolved_store_tracking() {
        let mut l = lsq();
        let st = l.alloc_store(5);
        let amo = l.alloc_load(6, true, 0); // an atomic's address counts too
        assert_eq!(l.oldest_unresolved_store(), Some(5));
        l.resolve_store(st, addr(0x40));
        assert_eq!(l.oldest_unresolved_store(), Some(6));
        l.resolve_load(amo, addr(0x48));
        assert_eq!(l.oldest_unresolved_store(), None);
    }

    #[test]
    fn lockdown_matching_and_seen() {
        let mut l = lsq();
        let sos = load(&mut l, 1); // stays non-performed: the SoS load
        let r2 = load(&mut l, 2);
        let r3 = load(&mut l, 3);
        for r in [r2, r3] {
            l.resolve_load(r, addr(0x40));
            l.perform(r, 0, 0);
        }
        let line = addr(0x40).line();
        assert!(l.has_lockdown(line));
        assert_eq!(l.mspec_match(line, 0), Some(r2));
        assert_eq!(l.mspec_match(line, 2), Some(r3));
        assert_eq!(l.mspec_match(line, 3), None);
        l.mark_seen(addr(0x40).line());
        assert!(l.load(r3).unwrap().seen, "S bit goes to the youngest match");
        assert!(!l.load(r2).unwrap().seen);
        assert!(l.owes_ack(addr(0x40).line()));
        // Nothing released while the lockdown stands.
        assert_eq!(l.next_release(None), None);
        // Perform the SoS load: everything ordered, ack released.
        l.perform(sos, 0, 0);
        assert_eq!(l.next_release(None), Some(line));
        assert_eq!(l.next_release(Some(line)), None);
        assert!(!l.owes_ack(addr(0x40).line()));
    }

    #[test]
    fn ldt_export_and_release() {
        let mut l = Lsq::new(8, 8, 2);
        let sos = load(&mut l, 1);
        let r2 = load(&mut l, 2);
        l.resolve_load(r2, addr(0x40));
        l.perform(r2, 0, 0);
        // Commit load 2 out of order: export to LDT.
        let entry = l.commit_load(r2).unwrap();
        assert!(l.export_to_ldt(2, entry.addr.unwrap().line(), entry.seen));
        assert!(l.has_lockdown(addr(0x40).line()));
        // LDT capacity enforced.
        assert!(l.export_to_ldt(3, addr(0x80).line(), false));
        assert!(!l.export_to_ldt(4, addr(0xc0).line(), false));
        // SoS performs: LDT entries release.
        l.perform(sos, 0, 0);
        assert_eq!(l.release_ldt(), 2);
        assert!(!l.has_lockdown(addr(0x40).line()));
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut l = lsq();
        let r1 = load(&mut l, 1);
        let r3 = load(&mut l, 3);
        let s2 = l.alloc_store(2);
        let s4 = l.alloc_store(4);
        assert_eq!(l.squash(3), 1);
        assert!(l.load(r1).is_some());
        assert!(l.load(r3).is_none());
        assert!(l.store(s2).is_some());
        assert!(l.store(s4).is_none());
    }

    #[test]
    fn conflict_victims_found() {
        let mut l = lsq();
        l.alloc_store(1);
        let r2 = load(&mut l, 2);
        let r3 = load(&mut l, 3);
        l.resolve_load(r2, addr(0x40));
        l.perform(r2, 0, 0);
        l.resolve_load(r3, addr(0x48));
        l.set_requested(r3);
        assert_eq!(l.conflict_victim(1, addr(0x40)), Some(r2));
        assert_eq!(l.conflict_victim(1, addr(0x48)), Some(r3));
        assert_eq!(l.conflict_victim(1, addr(0x50)), None);
        assert_eq!(l.conflict_victim(2, addr(0x40)), None, "only younger loads are victims");
    }

    #[test]
    fn amo_ordering_restrictions() {
        let mut l = lsq();
        let amo = l.alloc_load(1, true, 0); // non-performed atomic
        load(&mut l, 2);
        assert!(l.older_unperformed_amo(2));
        l.perform(amo, 0, 0);
        assert!(!l.older_unperformed_amo(2));
    }

    #[test]
    fn sb_fifo() {
        let mut l = lsq();
        for seq in [1, 2] {
            let st = l.alloc_store(seq);
            l.resolve_store(st, addr(0x40 + 8 * seq));
            l.store_data(st, seq);
        }
        assert!(!l.commit_store(2), "only the SQ head commits");
        assert!(l.commit_store(1));
        assert!(l.commit_store(2));
        assert!(!l.sb_empty());
        assert_eq!(l.sb_head().unwrap().seq, 1);
        assert_eq!(l.sb_pop().unwrap().seq, 1);
        assert_eq!(l.sb_pop().unwrap().seq, 2);
        assert!(l.sb_empty());
    }
}
