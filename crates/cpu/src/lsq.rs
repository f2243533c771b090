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
//! Every queue is kept sorted by sequence number, so an entry is found by
//! binary search. The questions the pipeline asks every cycle — the SoS
//! load, the oldest non-performed atomic, the oldest unresolved store
//! address and how many loads are Ready — are kept up to date by the
//! methods that allocate, resolve, perform and remove entries rather than
//! rescanned. An LQ entry changes only through those methods.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Bound;
use wb_kernel::{Cycle, Snap};
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
#[derive(Debug, Clone)]
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

/// The load/store machinery of one core.
#[derive(Debug)]
pub struct Lsq {
    lq: VecDeque<LqEntry>,
    sq: VecDeque<SqEntry>,
    sb: VecDeque<SbEntry>,
    ldt: Vec<LdtEntry>,
    lq_cap: usize,
    /// Capacity of the store queue and of the post-commit store buffer
    /// alike (Table 6's "SQ/SB" column).
    sq_cap: usize,
    ldt_cap: usize,
    /// Lines whose invalidation we Nacked and still owe an Ack for.
    /// Ordered so release traffic is deterministic.
    pending_acks: BTreeSet<LineAddr>,
    /// The SoS load: the oldest non-performed load or atomic.
    sos: Option<u64>,
    /// The oldest non-performed atomic.
    amo: Option<u64>,
    /// The oldest store or atomic with an unresolved address.
    unresolved: Option<u64>,
}

impl Lsq {
    /// Build with the Table 6 capacities; the store buffer holds as many
    /// stores as the store queue.
    pub fn new(lq_cap: usize, sq_cap: usize, ldt_cap: usize) -> Self {
        Lsq {
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            sb: VecDeque::new(),
            ldt: Vec::new(),
            lq_cap,
            sq_cap,
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
        self.lq.len() >= self.lq_cap
    }

    /// Room for another store?
    pub fn sq_full(&self) -> bool {
        self.sq.len() >= self.sq_cap
    }

    /// Room in the post-commit store buffer?
    pub fn sb_full(&self) -> bool {
        self.sb.len() >= self.sq_cap
    }

    /// Room in the lockdown table?
    pub fn ldt_full(&self) -> bool {
        self.ldt.len() >= self.ldt_cap
    }

    // ----------------------------------------------------------- allocation

    /// Allocate an LQ entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the LQ is full (callers must check
    /// [`Lsq::lq_full`] first) or `seq` is not increasing.
    pub fn alloc_load(&mut self, seq: u64, is_amo: bool) {
        assert!(!self.lq_full(), "LQ overflow");
        if let Some(last) = self.lq.back() {
            assert!(last.seq < seq, "loads must be allocated in program order");
        }
        self.lq.push_back(LqEntry::new(seq, is_amo));
        self.sos = self.sos.or(Some(seq));
        if is_amo {
            self.amo = self.amo.or(Some(seq));
            self.unresolved = self.unresolved.or(Some(seq));
        }
    }

    /// Allocate an SQ entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the SQ is full or `seq` is not increasing.
    pub fn alloc_store(&mut self, seq: u64) {
        assert!(!self.sq_full(), "SQ overflow");
        if let Some(last) = self.sq.back() {
            assert!(last.seq < seq, "stores must be allocated in program order");
        }
        self.sq.push_back(SqEntry { seq, addr: None, data: None });
        self.unresolved = self.unresolved.or(Some(seq));
    }

    // -------------------------------------------------------------- lookups

    fn lq_pos(&self, seq: u64) -> Option<usize> {
        self.lq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    fn sq_pos(&self, seq: u64) -> Option<usize> {
        self.sq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// LQ entries from the first with a sequence number of at least `seq`.
    fn loads_from(&self, seq: u64) -> std::collections::vec_deque::Iter<'_, LqEntry> {
        self.lq.range(self.lq.partition_point(|e| e.seq < seq)..)
    }

    /// Borrow the LQ entry for `seq`.
    pub fn load(&self, seq: u64) -> Option<&LqEntry> {
        self.lq_pos(seq).map(|i| &self.lq[i])
    }

    /// The LQ entry for `seq`, to update. Every caller knows the entry
    /// is there; debug builds check it.
    fn load_mut(&mut self, seq: u64) -> Option<&mut LqEntry> {
        let i = self.lq_pos(seq);
        debug_assert!(i.is_some(), "load {seq} is not in the LQ");
        i.map(|i| &mut self.lq[i])
    }

    /// The SQ entry for `seq`, to update (as [`Lsq::load_mut`]).
    fn store_mut(&mut self, seq: u64) -> Option<&mut SqEntry> {
        let i = self.sq_pos(seq);
        debug_assert!(i.is_some(), "store {seq} is not in the SQ");
        i.map(|i| &mut self.sq[i])
    }

    /// The LQ entry at position `i` (program order).
    pub fn load_at(&self, i: usize) -> Option<&LqEntry> {
        self.lq.get(i)
    }

    /// Borrow the SQ entry for `seq`.
    pub fn store(&self, seq: u64) -> Option<&SqEntry> {
        self.sq_pos(seq).map(|i| &self.sq[i])
    }

    /// The LQ entry for `seq` once it has bound its value.
    pub fn bound(&self, seq: u64) -> Option<&LqEntry> {
        self.load(seq).filter(|e| e.performed())
    }

    /// Iterate over LQ entries in program order.
    pub fn loads(&self) -> impl Iterator<Item = &LqEntry> {
        self.lq.iter()
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

    /// The load or atomic `seq` computed its address; a load becomes
    /// Ready to issue.
    pub fn resolve_load(&mut self, seq: u64, addr: Addr) {
        let Some(e) = self.load_mut(seq) else { return };
        e.addr = Some(addr);
        if !e.is_amo {
            e.state = LoadState::Ready;
        } else if self.unresolved == Some(seq) {
            self.unresolved = self.first_unresolved(seq + 1);
        }
    }

    /// The store `seq` computed its address.
    pub fn resolve_store(&mut self, seq: u64, addr: Addr) {
        let Some(e) = self.store_mut(seq) else { return };
        e.addr = Some(addr);
        if self.unresolved == Some(seq) {
            self.unresolved = self.first_unresolved(seq + 1);
        }
    }

    /// The store `seq` captured its data.
    pub fn store_data(&mut self, seq: u64, data: u64) {
        if let Some(e) = self.store_mut(seq) {
            e.data = Some(data);
        }
    }

    /// Bind `value` to the load or atomic `seq`: it performs now, and
    /// consumers may use the value from `wake_at` (the hit latency).
    /// Every way a load or atomic obtains its value — store forwarding,
    /// a cache hit, a fill, a tear-off, the atomic's own read — ends
    /// here.
    pub fn perform(&mut self, seq: u64, value: u64, wake_at: Cycle) {
        let Some(e) = self.load_mut(seq) else { return };
        e.value = value;
        e.state = LoadState::Performed;
        e.wake_at = wake_at;
        self.performed(seq);
    }

    /// The load `seq` takes its value from an older store.
    pub fn mark_forwarded(&mut self, seq: u64) {
        if let Some(e) = self.load_mut(seq) {
            e.forwarded = true;
        }
    }

    /// The load `seq` sent a request to the cache.
    pub fn set_requested(&mut self, seq: u64) {
        if let Some(e) = self.load_mut(seq) {
            e.state = LoadState::Requested;
        }
    }

    /// The load `seq` was refused a tear-off copy: it goes back to Ready
    /// and retries only as the SoS load (Section 3.4).
    pub fn retry_at_sos(&mut self, seq: u64) {
        if let Some(e) = self.load_mut(seq) {
            e.state = LoadState::Ready;
            e.retry_when_sos = true;
        }
    }

    // ------------------------------------------------------- kept answers

    /// After `seq` performed: move the SoS and oldest-atomic marks past it.
    fn performed(&mut self, seq: u64) {
        if self.sos == Some(seq) {
            self.sos = self.first_unperformed(seq + 1, false);
        }
        if self.amo == Some(seq) {
            self.amo = self.first_unperformed(seq + 1, true);
        }
    }

    /// The oldest non-performed load (or only atomic) from `seq` on.
    fn first_unperformed(&self, seq: u64, amo_only: bool) -> Option<u64> {
        self.loads_from(seq).find(|e| !e.performed() && (e.is_amo || !amo_only)).map(|e| e.seq)
    }

    /// The oldest store or atomic from `seq` on with an unresolved
    /// address. An unresolved atomic has not performed, so the LQ search
    /// starts at the oldest non-performed atomic.
    fn first_unresolved(&self, seq: u64) -> Option<u64> {
        let sq = self.sq.range(self.sq.partition_point(|e| e.seq < seq)..).find(|e| e.addr.is_none());
        let amo = self.amo.and_then(|a| self.loads_from(seq.max(a)).find(|e| e.is_amo && e.addr.is_none()));
        match (sq.map(|e| e.seq), amo.map(|e| e.seq)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Recompute every kept answer from the queues (after a restore).
    fn rebuild_marks(&mut self) {
        self.sos = self.first_unperformed(0, false);
        self.amo = self.first_unperformed(0, true);
        self.unresolved = self.first_unresolved(0);
    }

    /// Do the kept answers equal a rescan of the queues? Checked by the
    /// core once per tick in debug builds.
    pub fn marks_hold(&self) -> bool {
        self.sos == self.first_unperformed(0, false)
            && self.amo == self.first_unperformed(0, true)
            && self.unresolved == self.first_unresolved(0)
    }

    // ------------------------------------------------------------- ordering

    /// The SoS load: the oldest non-performed load or atomic. `None`
    /// when every load has performed.
    pub fn sos(&self) -> Option<&LqEntry> {
        self.sos.and_then(|s| self.load(s))
    }

    /// The sequence number of the SoS load.
    pub fn sos_seq(&self) -> Option<u64> {
        self.sos
    }

    /// Is the load `seq` ordered with respect to loads (every older load
    /// performed)?
    pub fn is_ordered(&self, seq: u64) -> bool {
        self.sos.is_none_or(|sos| seq <= sos)
    }

    /// The oldest non-performed atomic, if any.
    pub fn oldest_unperformed_amo(&self) -> Option<u64> {
        self.amo
    }

    /// Is there a non-performed atomic older than `seq`? Loads may not
    /// enter lockdown past an atomic (Section 3.7).
    pub fn older_unperformed_amo(&self, seq: u64) -> bool {
        self.amo.is_some_and(|a| a < seq)
    }

    /// Is there a non-performed load (or atomic) older than `seq`?
    /// Equivalent to "memory order of all previous loads is established"
    /// — Bell-Lipasti condition 6 for *any* instruction in the base
    /// protocol, where a pending load may yet trigger a consistency
    /// squash that nothing younger must have committed past.
    pub fn older_unperformed_load(&self, seq: u64) -> bool {
        self.sos.is_some_and(|sos| sos < seq)
    }

    /// Is `seq` currently the SoS load?
    pub fn is_sos(&self, seq: u64) -> bool {
        self.sos == Some(seq)
    }

    /// Is the load M-speculative (performed but unordered)?
    pub fn is_mspec(&self, seq: u64) -> bool {
        self.bound(seq).is_some() && !self.is_ordered(seq)
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
        let older_stores = self.sq.partition_point(|e| e.seq < seq);
        let sq = self.sq.range(..older_stores).rev().find(|e| e.addr == Some(addr));
        let amo = self.amo.filter(|&a| a < seq).and_then(|a| {
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
        self.sq.front().map(|e| e.seq)
    }

    /// The oldest store (or atomic) with an unresolved address, if any
    /// (Bell-Lipasti condition 4).
    pub fn oldest_unresolved_store(&self) -> Option<u64> {
        self.unresolved
    }

    // ------------------------------------------------------------ lockdowns

    /// M-speculative LQ loads matching `line`, oldest first: performed
    /// entries younger than the SoS load.
    fn mspec(&self, line: LineAddr) -> impl DoubleEndedIterator<Item = &LqEntry> {
        let from = self.sos.map_or(self.lq.len(), |s| self.lq.partition_point(|e| e.seq < s));
        self.lq.range(from..).filter(move |e| e.performed() && e.addr.is_some_and(|a| a.line() == line))
    }

    /// Lines currently protected by a lockdown: M-speculative LQ loads
    /// and LDT entries (Section 3.2 / 4.2).
    pub fn has_lockdown(&self, line: LineAddr) -> bool {
        self.ldt.iter().any(|e| e.line == line) || self.mspec(line).next().is_some()
    }

    /// The oldest M-speculative LQ load matching `line` that is younger
    /// than `after`.
    pub fn mspec_match(&self, line: LineAddr, after: u64) -> Option<u64> {
        self.mspec(line).find(|e| e.seq > after).map(|e| e.seq)
    }

    /// Mark the youngest lockdown for `line` as seen (the S bit) and
    /// record that an Ack is owed. Sets the bit on every LDT entry of the
    /// line, per Section 4.2.
    pub fn mark_seen(&mut self, line: LineAddr) {
        for e in self.ldt.iter_mut().filter(|e| e.line == line) {
            e.seen = true;
        }
        let youngest = self.mspec(line).next_back().map(|e| e.seq);
        if let Some(e) = youngest.and_then(|s| self.load_mut(s)) {
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
            Some(s) => self.ldt.retain(|e| e.seq > s),
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

    /// After the entry `seq` left the LQ: recompute any mark it held.
    fn removed_load(&mut self, seq: u64) {
        if self.sos == Some(seq) {
            self.sos = self.first_unperformed(seq, false);
        }
        if self.amo == Some(seq) {
            self.amo = self.first_unperformed(seq, true);
        }
        if self.unresolved == Some(seq) {
            self.unresolved = self.first_unresolved(seq);
        }
    }

    /// Remove a committed load from the (collapsible) LQ. `None` when no
    /// entry has that sequence number.
    pub fn commit_load(&mut self, seq: u64) -> Option<LqEntry> {
        let e = self.lq.remove(self.lq_pos(seq)?)?;
        self.removed_load(seq);
        Some(e)
    }

    /// Non-collapsible mode: mark the load committed but keep its entry
    /// (it retains its own lockdown, footnote 10 of the paper). Returns a
    /// copy of the entry; `None` as [`Lsq::commit_load`].
    pub fn commit_load_in_place(&mut self, seq: u64) -> Option<LqEntry> {
        let i = self.lq_pos(seq)?;
        let e = &mut self.lq[i];
        e.committed = true;
        e.delivered = true;
        Some(*e)
    }

    /// ECL variant of [`Lsq::commit_load_in_place`]: the value has not
    /// reached the register file yet; the entry may not drain until it
    /// does.
    pub fn commit_load_early(&mut self, seq: u64) {
        if let Some(e) = self.load_mut(seq) {
            e.committed = true;
            e.delivered = false;
        }
    }

    /// Mark an early-committed load's value as delivered.
    pub fn mark_delivered(&mut self, seq: u64) {
        if let Some(e) = self.load_mut(seq) {
            e.delivered = true;
        }
    }

    /// Non-collapsible mode: drain committed entries from the LQ head
    /// (FIFO). An entry may leave once it is performed and ordered —
    /// its lockdown has lifted. Returns how many entries drained.
    pub fn drain_committed_head(&mut self) -> usize {
        let mut n = 0;
        while let Some(e) = self.lq.front() {
            if e.committed && e.delivered && e.performed() && self.is_ordered(e.seq) {
                let seq = e.seq;
                self.lq.pop_front();
                self.removed_load(seq);
                n += 1;
            } else {
                break;
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
        let Some(&SqEntry { seq: head, addr: Some(addr), data: Some(data) }) = self.sq.front() else {
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
        let before = self.lq.len();
        let keep = self.lq.partition_point(|e| e.seq < from);
        self.lq.truncate(keep);
        self.sq.truncate(self.sq.partition_point(|e| e.seq < from));
        for mark in [&mut self.sos, &mut self.amo, &mut self.unresolved] {
            if mark.is_some_and(|m| m >= from) {
                *mark = None;
            }
        }
        before - self.lq.len()
    }

    /// The oldest load in `{Requested, Performed}` younger than
    /// `writer_seq` that read word `addr` — the victim of a memory-order
    /// violation when a store resolves its address late.
    pub fn conflict_victim(&self, writer_seq: u64, addr: Addr) -> Option<u64> {
        self.loads_from(writer_seq + 1)
            .find(|e| {
                !e.is_amo
                    && e.addr == Some(addr)
                    && matches!(e.state, LoadState::Requested | LoadState::Performed)
            })
            .map(|e| e.seq)
    }

    /// Occupancies for stall accounting.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.lq.len(), self.sq.len(), self.sb.len())
    }

    /// Serialize the queues and the deferred-ack set. Capacities are
    /// configuration, and the kept answers are rebuilt from the queues:
    /// restore targets an LSQ built with the same limits.
    pub fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.lq.snap(w);
        self.sq.snap(w);
        self.sb.snap(w);
        self.ldt.snap(w);
        self.pending_acks.snap(w);
    }

    /// Inverse of [`Lsq::snap`].
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        self.lq.unsnap_into(r)?;
        self.sq.unsnap_into(r)?;
        self.sb.unsnap_into(r)?;
        self.ldt.unsnap_into(r)?;
        self.pending_acks.unsnap_into(r)?;
        self.rebuild_marks();
        Ok(())
    }
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

    #[test]
    fn capacity_checks() {
        let mut l = Lsq::new(2, 1, 1);
        l.alloc_load(1, false);
        l.alloc_load(2, false);
        assert!(l.lq_full());
        l.alloc_store(3);
        assert!(l.sq_full());
    }

    #[test]
    fn sos_and_ordering() {
        let mut l = lsq();
        l.alloc_load(1, false);
        l.alloc_load(2, false);
        l.alloc_load(3, false);
        assert_eq!(l.sos_seq(), Some(1));
        // Perform the youngest: M-speculative.
        l.resolve_load(3, addr(0x40));
        l.perform(3, 0, 0);
        assert!(l.is_mspec(3));
        assert!(!l.is_ordered(3));
        assert!(l.is_ordered(1), "the SoS load itself is ordered");
        // Perform the older two: everything ordered.
        for s in [1, 2] {
            l.perform(s, 0, 0);
        }
        assert_eq!(l.sos_seq(), None);
        assert!(l.is_ordered(3));
        assert!(!l.is_mspec(3));
    }

    #[test]
    fn forwarding_from_sq_and_sb() {
        let mut l = lsq();
        l.alloc_store(1);
        l.resolve_store(1, addr(0x40));
        l.alloc_load(2, false);
        // Data not ready -> wait.
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        l.store_data(1, 10);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(10));
        assert_eq!(l.forward(2, addr(0x48)), ForwardResult::None);
        // Committed store in SB forwards too.
        l.store_data(1, 11);
        assert!(l.commit_store(1));
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(11));
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut l = lsq();
        for (seq, v) in [(1, 10u64), (2, 20)] {
            l.alloc_store(seq);
            l.resolve_store(seq, addr(0x40));
            l.store_data(seq, v);
        }
        l.alloc_load(3, false);
        assert_eq!(l.forward(3, addr(0x40)), ForwardResult::Value(20));
        // A store younger than the load is invisible.
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(10));
    }

    #[test]
    fn amo_blocks_forwarding_until_performed() {
        let mut l = lsq();
        l.alloc_load(1, true); // atomic
        l.resolve_load(1, addr(0x40));
        l.alloc_load(2, false);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        l.perform(1, 0, 0);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::None, "performed amo wrote the cache");
    }

    #[test]
    fn unresolved_store_tracking() {
        let mut l = lsq();
        l.alloc_store(5);
        l.alloc_load(6, true); // an atomic's address counts too
        assert_eq!(l.oldest_unresolved_store(), Some(5));
        l.resolve_store(5, addr(0x40));
        assert_eq!(l.oldest_unresolved_store(), Some(6));
        l.resolve_load(6, addr(0x48));
        assert_eq!(l.oldest_unresolved_store(), None);
    }

    #[test]
    fn lockdown_matching_and_seen() {
        let mut l = lsq();
        l.alloc_load(1, false); // stays non-performed: the SoS load
        l.alloc_load(2, false);
        l.alloc_load(3, false);
        for s in [2, 3] {
            l.resolve_load(s, addr(0x40));
            l.perform(s, 0, 0);
        }
        let line = addr(0x40).line();
        assert!(l.has_lockdown(line));
        assert_eq!(l.mspec_match(line, 0), Some(2));
        assert_eq!(l.mspec_match(line, 2), Some(3));
        assert_eq!(l.mspec_match(line, 3), None);
        l.mark_seen(addr(0x40).line());
        assert!(l.load(3).unwrap().seen, "S bit goes to the youngest match");
        assert!(!l.load(2).unwrap().seen);
        assert!(l.owes_ack(addr(0x40).line()));
        // Nothing released while the lockdown stands.
        assert_eq!(l.next_release(None), None);
        // Perform the SoS load: everything ordered, ack released.
        l.perform(1, 0, 0);
        assert_eq!(l.next_release(None), Some(line));
        assert_eq!(l.next_release(Some(line)), None);
        assert!(!l.owes_ack(addr(0x40).line()));
    }

    #[test]
    fn ldt_export_and_release() {
        let mut l = Lsq::new(8, 8, 2);
        l.alloc_load(1, false); // SoS
        l.alloc_load(2, false);
        l.resolve_load(2, addr(0x40));
        l.perform(2, 0, 0);
        // Commit load 2 out of order: export to LDT.
        let entry = l.commit_load(2).unwrap();
        assert!(l.export_to_ldt(2, entry.addr.unwrap().line(), entry.seen));
        assert!(l.has_lockdown(addr(0x40).line()));
        // LDT capacity enforced.
        assert!(l.export_to_ldt(3, addr(0x80).line(), false));
        assert!(!l.export_to_ldt(4, addr(0xc0).line(), false));
        // SoS performs: LDT entries release.
        l.perform(1, 0, 0);
        assert_eq!(l.release_ldt(), 2);
        assert!(!l.has_lockdown(addr(0x40).line()));
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut l = lsq();
        l.alloc_load(1, false);
        l.alloc_load(3, false);
        l.alloc_store(2);
        l.alloc_store(4);
        assert_eq!(l.squash(3), 1);
        assert!(l.load(1).is_some());
        assert!(l.load(3).is_none());
        assert!(l.store(2).is_some());
        assert!(l.store(4).is_none());
    }

    #[test]
    fn conflict_victims_found() {
        let mut l = lsq();
        l.alloc_store(1);
        l.alloc_load(2, false);
        l.alloc_load(3, false);
        l.resolve_load(2, addr(0x40));
        l.perform(2, 0, 0);
        l.resolve_load(3, addr(0x48));
        l.set_requested(3);
        assert_eq!(l.conflict_victim(1, addr(0x40)), Some(2));
        assert_eq!(l.conflict_victim(1, addr(0x48)), Some(3));
        assert_eq!(l.conflict_victim(1, addr(0x50)), None);
        assert_eq!(l.conflict_victim(2, addr(0x40)), None, "only younger loads are victims");
    }

    #[test]
    fn amo_ordering_restrictions() {
        let mut l = lsq();
        l.alloc_load(1, true); // non-performed atomic
        l.alloc_load(2, false);
        assert!(l.older_unperformed_amo(2));
        l.perform(1, 0, 0);
        assert!(!l.older_unperformed_amo(2));
    }

    #[test]
    fn sb_fifo() {
        let mut l = lsq();
        for seq in [1, 2] {
            l.alloc_store(seq);
            l.resolve_store(seq, addr(0x40 + 8 * seq));
            l.store_data(seq, seq);
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
