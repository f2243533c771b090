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

use std::collections::BTreeSet;
use wb_kernel::Cycle;
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
#[derive(Debug, Clone)]
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

    /// Bind `value`: the load performs now, and consumers may use the
    /// value from `wake_at` (the hit latency). Every way a load or
    /// atomic obtains its value — store forwarding, a cache hit, a
    /// fill, a tear-off, the atomic's own read — ends here.
    pub fn perform(&mut self, value: u64, wake_at: Cycle) {
        self.value = value;
        self.state = LoadState::Performed;
        self.wake_at = wake_at;
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
    lq: Vec<LqEntry>,
    sq: Vec<SqEntry>,
    sb: Vec<SbEntry>,
    ldt: Vec<LdtEntry>,
    lq_cap: usize,
    /// Capacity of the store queue and of the post-commit store buffer
    /// alike (Table 6's "SQ/SB" column).
    sq_cap: usize,
    ldt_cap: usize,
    /// Lines whose invalidation we Nacked and still owe an Ack for.
    /// Ordered so release traffic is deterministic.
    pending_acks: BTreeSet<LineAddr>,
}

impl Lsq {
    /// Build with the Table 6 capacities; the store buffer holds as many
    /// stores as the store queue.
    pub fn new(lq_cap: usize, sq_cap: usize, ldt_cap: usize) -> Self {
        Lsq {
            lq: Vec::new(),
            sq: Vec::new(),
            sb: Vec::new(),
            ldt: Vec::new(),
            lq_cap,
            sq_cap,
            ldt_cap,
            pending_acks: BTreeSet::new(),
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
        if let Some(last) = self.lq.last() {
            assert!(last.seq < seq, "loads must be allocated in program order");
        }
        self.lq.push(LqEntry::new(seq, is_amo));
    }

    /// Allocate an SQ entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the SQ is full.
    pub fn alloc_store(&mut self, seq: u64) {
        assert!(!self.sq_full(), "SQ overflow");
        self.sq.push(SqEntry { seq, addr: None, data: None });
    }

    // -------------------------------------------------------------- lookups

    /// Borrow the LQ entry for `seq`.
    pub fn load(&self, seq: u64) -> Option<&LqEntry> {
        self.lq.iter().find(|e| e.seq == seq)
    }

    /// Mutably borrow the LQ entry for `seq`.
    pub fn load_mut(&mut self, seq: u64) -> Option<&mut LqEntry> {
        self.lq.iter_mut().find(|e| e.seq == seq)
    }

    /// Borrow the SQ entry for `seq`.
    pub fn store(&self, seq: u64) -> Option<&SqEntry> {
        self.sq.iter().find(|e| e.seq == seq)
    }

    /// Mutably borrow the SQ entry for `seq`.
    pub fn store_mut(&mut self, seq: u64) -> Option<&mut SqEntry> {
        self.sq.iter_mut().find(|e| e.seq == seq)
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
        self.sb.first()
    }

    /// Pop the store-buffer head after it performed.
    pub fn sb_pop(&mut self) -> Option<SbEntry> {
        if self.sb.is_empty() {
            None
        } else {
            Some(self.sb.remove(0))
        }
    }

    /// Is the store buffer empty (atomics require this)?
    pub fn sb_empty(&self) -> bool {
        self.sb.is_empty()
    }

    // ------------------------------------------------------------- ordering

    /// The SoS load: the oldest non-performed load or atomic. `None`
    /// when every load has performed.
    pub fn sos(&self) -> Option<&LqEntry> {
        self.lq.iter().find(|e| !e.performed())
    }

    /// The sequence number of the SoS load.
    pub fn sos_seq(&self) -> Option<u64> {
        self.sos().map(|e| e.seq)
    }

    /// Is the load `seq` ordered with respect to loads (every older load
    /// performed)?
    pub fn is_ordered(&self, seq: u64) -> bool {
        match self.sos_seq() {
            None => true,
            Some(sos) => seq <= sos,
        }
    }

    /// Is there a non-performed atomic older than `seq`? Loads may not
    /// enter lockdown past an atomic (Section 3.7).
    pub fn older_unperformed_amo(&self, seq: u64) -> bool {
        self.lq.iter().any(|e| e.is_amo && !e.performed() && e.seq < seq)
    }

    /// Is there a non-performed load (or atomic) older than `seq`?
    /// Equivalent to "memory order of all previous loads is established"
    /// — Bell-Lipasti condition 6 for *any* instruction in the base
    /// protocol, where a pending load may yet trigger a consistency
    /// squash that nothing younger must have committed past.
    pub fn older_unperformed_load(&self, seq: u64) -> bool {
        match self.sos_seq() {
            None => false,
            Some(sos) => sos < seq,
        }
    }

    /// Is `seq` currently the SoS load?
    pub fn is_sos(&self, seq: u64) -> bool {
        self.sos_seq() == Some(seq)
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
        // time, so matching one forces a wait.
        let mut best: Option<(u64, ForwardResult)> = None;
        let mut consider = |s: u64, r: ForwardResult| {
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, r));
            }
        };
        for e in &self.sq {
            if e.seq < seq && e.addr == Some(addr) {
                consider(
                    e.seq,
                    match e.data {
                        Some(v) => ForwardResult::Value(v),
                        None => ForwardResult::Wait,
                    },
                );
            }
        }
        for e in &self.lq {
            if e.is_amo && e.seq < seq && e.addr == Some(addr) && !e.performed() {
                consider(e.seq, ForwardResult::Wait);
            }
        }
        for e in &self.sb {
            if e.addr == addr {
                consider(e.seq, ForwardResult::Value(e.data));
            }
        }
        best.map(|(_, r)| r).unwrap_or(ForwardResult::None)
    }

    /// The oldest (first-allocated) uncommitted store's sequence number.
    pub fn oldest_store_seq(&self) -> Option<u64> {
        self.sq.first().map(|e| e.seq)
    }

    /// The oldest store (or atomic) with an unresolved address, if any
    /// (Bell-Lipasti condition 4).
    pub fn oldest_unresolved_store(&self) -> Option<u64> {
        let sq = self.sq.iter().filter(|e| e.addr.is_none()).map(|e| e.seq).min();
        let amo = self.lq.iter().filter(|e| e.is_amo && e.addr.is_none()).map(|e| e.seq).min();
        match (sq, amo) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // ------------------------------------------------------------ lockdowns

    /// Lines currently protected by a lockdown: M-speculative LQ loads
    /// and LDT entries (Section 3.2 / 4.2).
    pub fn has_lockdown(&self, line: LineAddr) -> bool {
        if self.ldt.iter().any(|e| e.line == line) {
            return true;
        }
        let Some(sos) = self.sos_seq() else { return false };
        self.lq.iter().any(|e| {
            e.performed() && e.seq > sos && e.addr.is_some_and(|a| a.line() == line)
        })
    }

    /// M-speculative LQ loads matching `line`, oldest first.
    pub fn mspec_matches(&self, line: LineAddr) -> Vec<u64> {
        let Some(sos) = self.sos_seq() else { return Vec::new() };
        self.lq
            .iter()
            .filter(|e| e.performed() && e.seq > sos && e.addr.is_some_and(|a| a.line() == line))
            .map(|e| e.seq)
            .collect()
    }

    /// Mark the youngest lockdown for `line` as seen (the S bit) and
    /// record that an Ack is owed. Sets the bit on every LDT entry of the
    /// line, per Section 4.2.
    pub fn mark_seen(&mut self, line: LineAddr) {
        for e in self.ldt.iter_mut().filter(|e| e.line == line) {
            e.seen = true;
        }
        if let Some(&youngest) = self.mspec_matches(line).last() {
            if let Some(e) = self.load_mut(youngest) {
                e.seen = true;
            }
        }
        self.pending_acks.insert(line);
    }

    /// Is an Ack owed for `line`?
    pub fn owes_ack(&self, line: LineAddr) -> bool {
        self.pending_acks.contains(&line)
    }

    /// Lines whose last lockdown has lifted and whose deferred Ack must
    /// now be sent. Clears them from the pending set.
    pub fn collect_releases(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        let pending: Vec<LineAddr> = self.pending_acks.iter().copied().collect();
        for line in pending {
            if !self.has_lockdown(line) {
                self.pending_acks.remove(&line);
                out.push(line);
            }
        }
        out
    }

    /// Release LDT entries whose loads have become ordered (every older
    /// load performed). Returns how many were released.
    pub fn release_ldt(&mut self) -> usize {
        let sos = self.sos_seq();
        let before = self.ldt.len();
        match sos {
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

    /// Remove a committed load from the (collapsible) LQ.
    pub fn commit_load(&mut self, seq: u64) -> LqEntry {
        let i = self.lq.iter().position(|e| e.seq == seq).expect("committing unknown load");
        self.lq.remove(i)
    }

    /// Non-collapsible mode: mark the load committed but keep its entry
    /// (it retains its own lockdown, footnote 10 of the paper). Returns a
    /// copy of the entry.
    pub fn commit_load_in_place(&mut self, seq: u64) -> LqEntry {
        let e = self.load_mut(seq).expect("committing unknown load");
        e.committed = true;
        e.delivered = true;
        e.clone()
    }

    /// ECL variant of [`Lsq::commit_load_in_place`]: the value has not
    /// reached the register file yet; the entry may not drain until it
    /// does.
    pub fn commit_load_early(&mut self, seq: u64) -> LqEntry {
        let e = self.load_mut(seq).expect("committing unknown load");
        e.committed = true;
        e.delivered = false;
        e.clone()
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
        while let Some(e) = self.lq.first() {
            if e.committed && e.delivered && e.performed() && self.is_ordered(e.seq) {
                self.lq.remove(0);
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// Move a committed store from the SQ into the SB.
    ///
    /// # Panics
    ///
    /// Panics if the store is incomplete or the SB is full.
    pub fn commit_store(&mut self, seq: u64) {
        assert!(!self.sb_full(), "SB overflow");
        let i = self.sq.iter().position(|e| e.seq == seq).expect("committing unknown store");
        let e = self.sq.remove(i);
        self.sb.push(SbEntry {
            seq,
            addr: e.addr.expect("store committed without address"),
            data: e.data.expect("store committed without data"),
        });
    }

    /// Remove every entry with `seq >= from` (squash). Committed state
    /// (SB, LDT) is never squashed. Returns the number of removed loads.
    pub fn squash(&mut self, from: u64) -> usize {
        let before = self.lq.len();
        self.lq.retain(|e| e.seq < from);
        self.sq.retain(|e| e.seq < from);
        before - self.lq.len()
    }

    /// All loads in `{Requested, Performed}` younger than `writer_seq`
    /// that read word `addr` — the victims of a memory-order violation
    /// when a store resolves its address late.
    pub fn conflict_victims(&self, writer_seq: u64, addr: Addr) -> Vec<u64> {
        self.lq
            .iter()
            .filter(|e| {
                e.seq > writer_seq
                    && !e.is_amo
                    && e.addr == Some(addr)
                    && matches!(e.state, LoadState::Requested | LoadState::Performed)
            })
            .map(|e| e.seq)
            .collect()
    }

    /// Occupancies for stall accounting.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.lq.len(), self.sq.len(), self.sb.len())
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
// The queues and the deferred-ack set. Capacities are configuration:
// restore targets an LSQ built with the same limits.
wb_kernel::snap_component!(pub Lsq { lq, sq, sb, ldt, pending_acks });

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
        let e = l.load_mut(3).unwrap();
        e.addr = Some(addr(0x40));
        e.perform(0, 0);
        assert!(l.is_mspec(3));
        assert!(!l.is_ordered(3));
        assert!(l.is_ordered(1), "the SoS load itself is ordered");
        // Perform the older two: everything ordered.
        for s in [1, 2] {
            l.load_mut(s).unwrap().perform(0, 0);
        }
        assert_eq!(l.sos_seq(), None);
        assert!(l.is_ordered(3));
        assert!(!l.is_mspec(3));
    }

    #[test]
    fn forwarding_from_sq_and_sb() {
        let mut l = lsq();
        l.alloc_store(1);
        let s = l.store_mut(1).unwrap();
        s.addr = Some(addr(0x40));
        s.data = Some(10);
        l.alloc_load(2, false);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(10));
        assert_eq!(l.forward(2, addr(0x48)), ForwardResult::None);
        // Data not ready -> wait.
        l.store_mut(1).unwrap().data = None;
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        // Committed store in SB forwards too.
        l.store_mut(1).unwrap().data = Some(11);
        l.commit_store(1);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Value(11));
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut l = lsq();
        for (seq, v) in [(1, 10u64), (2, 20)] {
            l.alloc_store(seq);
            let s = l.store_mut(seq).unwrap();
            s.addr = Some(addr(0x40));
            s.data = Some(v);
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
        let a = l.load_mut(1).unwrap();
        a.addr = Some(addr(0x40));
        l.alloc_load(2, false);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::Wait);
        l.load_mut(1).unwrap().perform(0, 0);
        assert_eq!(l.forward(2, addr(0x40)), ForwardResult::None, "performed amo wrote the cache");
    }

    #[test]
    fn unresolved_store_tracking() {
        let mut l = lsq();
        l.alloc_store(5);
        l.alloc_load(6, true); // an atomic's address counts too
        assert_eq!(l.oldest_unresolved_store(), Some(5));
        l.store_mut(5).unwrap().addr = Some(addr(0x40));
        assert_eq!(l.oldest_unresolved_store(), Some(6));
        l.load_mut(6).unwrap().addr = Some(addr(0x48));
        assert_eq!(l.oldest_unresolved_store(), None);
    }

    #[test]
    fn lockdown_matching_and_seen() {
        let mut l = lsq();
        l.alloc_load(1, false); // stays non-performed: the SoS load
        l.alloc_load(2, false);
        l.alloc_load(3, false);
        for s in [2, 3] {
            let e = l.load_mut(s).unwrap();
            e.addr = Some(addr(0x40));
            e.perform(0, 0);
        }
        assert!(l.has_lockdown(addr(0x40).line()));
        assert_eq!(l.mspec_matches(addr(0x40).line()), vec![2, 3]);
        l.mark_seen(addr(0x40).line());
        assert!(l.load(3).unwrap().seen, "S bit goes to the youngest match");
        assert!(!l.load(2).unwrap().seen);
        assert!(l.owes_ack(addr(0x40).line()));
        // Nothing released while the lockdown stands.
        assert!(l.collect_releases().is_empty());
        // Perform the SoS load: everything ordered, ack released.
        l.load_mut(1).unwrap().perform(0, 0);
        assert_eq!(l.collect_releases(), vec![addr(0x40).line()]);
        assert!(!l.owes_ack(addr(0x40).line()));
    }

    #[test]
    fn ldt_export_and_release() {
        let mut l = Lsq::new(8, 8, 2);
        l.alloc_load(1, false); // SoS
        l.alloc_load(2, false);
        let e = l.load_mut(2).unwrap();
        e.addr = Some(addr(0x40));
        e.perform(0, 0);
        // Commit load 2 out of order: export to LDT.
        let entry = l.commit_load(2);
        assert!(l.export_to_ldt(2, entry.addr.unwrap().line(), entry.seen));
        assert!(l.has_lockdown(addr(0x40).line()));
        // LDT capacity enforced.
        assert!(l.export_to_ldt(3, addr(0x80).line(), false));
        assert!(!l.export_to_ldt(4, addr(0xc0).line(), false));
        // SoS performs: LDT entries release.
        l.load_mut(1).unwrap().perform(0, 0);
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
        let e = l.load_mut(2).unwrap();
        e.addr = Some(addr(0x40));
        e.perform(0, 0);
        let e = l.load_mut(3).unwrap();
        e.addr = Some(addr(0x48));
        e.state = LoadState::Requested;
        assert_eq!(l.conflict_victims(1, addr(0x40)), vec![2]);
        assert_eq!(l.conflict_victims(1, addr(0x48)), vec![3]);
        assert!(l.conflict_victims(1, addr(0x50)).is_empty());
    }

    #[test]
    fn amo_ordering_restrictions() {
        let mut l = lsq();
        l.alloc_load(1, true); // non-performed atomic
        l.alloc_load(2, false);
        assert!(l.older_unperformed_amo(2));
        l.load_mut(1).unwrap().perform(0, 0);
        assert!(!l.older_unperformed_amo(2));
    }

    #[test]
    fn sb_fifo() {
        let mut l = lsq();
        for seq in [1, 2] {
            l.alloc_store(seq);
            let s = l.store_mut(seq).unwrap();
            s.addr = Some(addr(0x40 + 8 * seq));
            s.data = Some(seq);
        }
        l.commit_store(1);
        l.commit_store(2);
        assert!(!l.sb_empty());
        assert_eq!(l.sb_head().unwrap().seq, 1);
        assert_eq!(l.sb_pop().unwrap().seq, 1);
        assert_eq!(l.sb_pop().unwrap().seq, 2);
        assert!(l.sb_empty());
    }
}
