//! The private cache hierarchy of one core (L1 + L2) and its coherence
//! controller.
//!
//! Coherence is tracked at the private-hierarchy level: the L2 array holds
//! the authoritative state and data; the L1 array is an inclusive subset
//! used only to decide hit latency (4 vs. 12 cycles, Table 6). This is the
//! standard "private cache complex" arrangement of GEMS-style models.
//!
//! The controller implements the cache side of both protocols:
//!
//! - **base MESI**: invalidations that match M-speculative loads squash
//!   them (delegated to the core through [`CoreSide`]), acknowledgements
//!   are immediate;
//! - **WritersBlock**: invalidations that hit a lockdown are Nacked to the
//!   directory (Section 3.3); the acknowledgement is deferred until the
//!   core calls [`PrivateCache::release_lockdown`]; SoS loads bypass
//!   blocked write MSHRs with tear-off reads (Section 3.5.2); evictions
//!   under a lockdown are suppressed rather than squashing (Section 3.8).

use crate::array::{Insert, SetAssocArray};
use crate::messages::{Dest, ProtoMsg, ReadKind};
use crate::mshr::{Mshr, MshrFile, MshrKind};
use crate::{CoreSide, InvalResponse, MshrWait, ProtocolError};
use std::collections::HashMap;
use wb_kernel::config::{MemoryConfig, ProtocolKind, L1_HIT_CYCLES, L2_HIT_CYCLES, MSHRS};
use wb_kernel::trace::{CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, HeavyHitters, NodeId, Stats};
use wb_mem::{Addr, HomeMap, LineAddr, LineData};

/// Identifies a load at the core so completions can be matched to LQ
/// entries (the core uses the load's sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReadTag(pub u64);

wb_kernel::snap_struct!(ReadTag { 0 });

/// Outcome of a [`PrivateCache::load_access`]. A dropped `Hit` is a load
/// that never binds the value it was handed, so the result must be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a dropped Hit leaves the load waiting for a value it was already given"]
pub enum LoadAccess {
    /// The line is readable: the value is bound now, consumers wake after
    /// `latency` cycles (4 for an L1 hit, 12 for an L2 hit).
    Hit { value: u64, latency: u64 },
    /// A miss: the load now waits on an MSHR; a [`Completion::LoadData`]
    /// will carry its tag later.
    Miss,
    /// No MSHR could be allocated; the core should retry next cycle.
    Blocked,
}

/// Events the cache delivers to the core (drained once per cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// Line data arrived for the listed waiting loads. With
    /// `cacheable: false` this is a tear-off copy: *at most one* load may
    /// use it, and only if it is ordered (the SoS load) — Section 3.4.
    LoadData { tags: Vec<ReadTag>, line: LineAddr, data: LineData, cacheable: bool },
    /// The line is now writable (M): stores to it at the store-buffer
    /// head may perform.
    WriteReady { line: LineAddr },
    /// The directory hinted that our write request for `line` is blocked
    /// in WritersBlock (Section 3.5.2).
    WriteBlocked { line: LineAddr },
}

/// Stable coherence state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Shared, clean.
    S,
    /// Exclusive, clean (silently upgradable to M).
    E,
    /// Modified.
    M,
    /// Shared with a GetX outstanding (readable; upgrade in flight).
    SmAd,
}

impl PState {
    fn readable(self) -> bool {
        true // every resident state keeps readable data
    }
    fn exclusive(self) -> bool {
        matches!(self, PState::E | PState::M)
    }

    /// Code word fed to the guard hash (distinct per state).
    fn code(self) -> u64 {
        match self {
            PState::S => 0,
            PState::E => 1,
            PState::M => 2,
            PState::SmAd => 3,
        }
    }
}

/// Guard hash protecting a line's stored tag and coherence state — the
/// per-line parity/ECC word of the soft-error model. 64 bits also let
/// detection *decode* the true pre-flip state: the array key is the
/// true tag, so re-hashing the key against each candidate state finds
/// the unique one the guard was computed over.
fn line_guard(tag: u64, state: PState) -> u64 {
    wb_kernel::soft::guard_hash(&[tag, state.code()])
}

#[derive(Debug, Clone, Copy)]
struct L2Line {
    state: PState,
    data: LineData,
    /// Redundant stored tag (the line address), the soft-error target of
    /// [`wb_kernel::SoftTarget::CacheTag`]. The array's lookup key plane
    /// is never flipped, so a corrupted stored tag is detectable against
    /// it via the guard.
    tag: u64,
    /// Guard hash over (tag, state); refreshed on every legitimate
    /// write, checked before every use while soft errors are enabled.
    guard: u64,
}

/// A line parked after eviction, awaiting PutAck (MI_A) or already
/// superseded by a forward (II_A).
#[derive(Debug, Clone, Copy)]
struct EvictBufEntry {
    line: LineAddr,
    data: LineData,
    /// false = MI_A (our PutM stands), true = II_A (a forward consumed the
    /// line; the directory will still PutAck our stale PutM).
    superseded: bool,
}

/// A completed write fill that could not allocate an L2 way yet.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    line: LineAddr,
    data: LineData,
}

/// Keys tracked per cache by the contended-line attribution sketch
/// (same bound as the directory side: tens of entries, O(k) forever).
const HOT_LINES_TRACKED: usize = 32;

/// The private cache hierarchy and coherence controller of one core.
pub struct PrivateCache {
    node: NodeId,
    home: HomeMap,
    protocol: ProtocolKind,
    silent_shared_evictions: bool,
    l1: SetAssocArray<()>,
    l2: SetAssocArray<L2Line>,
    mshrs: MshrFile,
    evict_buf: Vec<EvictBufEntry>,
    pending_fills: Vec<PendingFill>,
    outbox: Vec<(Dest, ProtoMsg)>,
    completions: Vec<Completion>,
    /// Emptied lists of waiting loads: a retired completion's, or a
    /// freed MSHR's that no load joined. A new MSHR takes one, so a miss
    /// allocates only while the pool warms up. Capacity, not state: not
    /// snapshotted.
    spare_tags: Vec<Vec<ReadTag>>,
    stats: Stats,
    tracer: Tracer,
    /// Cycle each active lockdown began (first Nack sent), for the
    /// lockdown-duration histogram.
    lockdown_since: HashMap<LineAddr, Cycle>,
    /// Cycle attribution: top contended lines by blocked-write stall
    /// and lockdown-held cycles. Bounded space-saving sketch — NOT a
    /// per-line map — surfaced via [`PrivateCache::hot_lines`].
    hot: HeavyHitters,
    /// First "impossible state" seen by this cache; the offending
    /// message is dropped and the system surfaces `RunOutcome::Fault`.
    fault: Option<ProtocolError>,
    /// True when a non-empty soft-error plan is active: guards are
    /// computed, checked, and repaired. False keeps every guard word 0
    /// so `SoftPlan::none()` runs are byte-identical to `soft: None`.
    soft_on: bool,
    /// Cycle each still-undetected soft flip landed, keyed by line —
    /// feeds the `soft_detect_latency` histogram at detection time.
    wounds: HashMap<LineAddr, Cycle>,
    /// Pre-resolved handles for the per-access hot-path counters
    /// (PR 5's `CounterHandle` pattern: no BTreeMap lookup per bump).
    h_load_accesses: CounterHandle,
    h_l1_hits: CounterHandle,
    h_l2_hits: CounterHandle,
    h_load_misses: CounterHandle,
    h_stores_performed: CounterHandle,
}

impl std::fmt::Debug for PrivateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateCache")
            .field("node", &self.node)
            .field("mshrs_in_use", &self.mshrs.in_use())
            .field("l2_lines", &self.l2.len())
            .finish()
    }
}

impl PrivateCache {
    /// Build a private cache for `node` in a system whose directory
    /// banks are laid out by `home`, from the Table 6 memory
    /// configuration.
    pub fn new(node: NodeId, home: HomeMap, mem: &MemoryConfig, protocol: ProtocolKind) -> Self {
        let l1_sets = SetAssocArray::<()>::geometry(mem.l1_bytes, mem.l1_ways);
        let l2_sets = SetAssocArray::<L2Line>::geometry(mem.l2_bytes, mem.l2_ways);
        let mut stats = Stats::new();
        let h_load_accesses = stats.handle("cache_load_accesses");
        let h_l1_hits = stats.handle("cache_l1_hits");
        let h_l2_hits = stats.handle("cache_l2_hits");
        let h_load_misses = stats.handle("cache_load_misses");
        let h_stores_performed = stats.handle("cache_stores_performed");
        PrivateCache {
            node,
            home,
            protocol,
            silent_shared_evictions: mem.silent_shared_evictions,
            l1: SetAssocArray::new(l1_sets, mem.l1_ways),
            l2: SetAssocArray::new(l2_sets, mem.l2_ways),
            mshrs: MshrFile::new(MSHRS),
            evict_buf: Vec::new(),
            pending_fills: Vec::new(),
            outbox: Vec::new(),
            completions: Vec::new(),
            spare_tags: Vec::new(),
            stats,
            tracer: Tracer::new(CompId::Cache(node.0)),
            lockdown_since: HashMap::new(),
            hot: HeavyHitters::new(HOT_LINES_TRACKED),
            fault: None,
            soft_on: false,
            wounds: HashMap::new(),
            h_load_accesses,
            h_l1_hits,
            h_l2_hits,
            h_load_misses,
            h_stores_performed,
        }
    }

    /// Record an "impossible state" instead of panicking; only the first
    /// violation is kept, later ones are usually fallout.
    fn record_fault(&mut self, line: LineAddr, context: &'static str, detail: String) {
        self.stats.inc("cache_protocol_faults");
        if self.fault.is_none() {
            self.fault = Some(ProtocolError {
                at: format!("cache{}", self.node.index()),
                line: line.0,
                context: context.to_string(),
                detail,
            });
        }
    }

    /// The first protocol violation this cache has seen, if any.
    pub fn fault(&self) -> Option<&ProtocolError> {
        self.fault.as_ref()
    }

    /// Cycle attribution for this cache: top contended lines by
    /// blocked-write stall and lockdown-held cycles, as a bounded
    /// space-saving sketch (see [`wb_kernel::attr`]).
    pub fn hot_lines(&self) -> &HeavyHitters {
        &self.hot
    }

    /// Lines this cache currently holds a lockdown on (sorted).
    pub fn lockdown_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lockdown_since.keys().map(|l| l.0).collect();
        v.sort_unstable();
        v
    }

    /// Number of live lockdowns (for the chaos lockdown signal).
    pub fn active_lockdowns(&self) -> usize {
        self.lockdown_since.len()
    }

    /// Every outstanding MSHR, with its blocked-write status — this
    /// cache's contribution to the wedge wait-for graph.
    pub fn mshr_summary(&self) -> Vec<MshrWait> {
        let mut v: Vec<MshrWait> = self
            .mshrs
            .iter()
            .map(|m| MshrWait {
                line: m.line.0,
                kind: m.kind.label(),
                blocked: m.blocked_hint,
                issued_at: m.issued_at,
            })
            .collect();
        v.sort_by_key(|w| (w.line, w.issued_at));
        v
    }

    /// The node this cache belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Enable/disable event tracing (MSHR and lockdown events).
    pub fn set_trace(&mut self, filter: TraceFilter) {
        self.tracer.set_filter(filter);
    }

    /// The cache's event tracer (for merging into a system timeline).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record an MSHR free: trace the event and feed the latency
    /// histograms (read/write miss latency; blocked-write stall).
    fn note_mshr_free(&mut self, now: Cycle, m: &Mshr) {
        let latency = now.saturating_sub(m.issued_at);
        match m.kind {
            MshrKind::Write => {
                self.stats.record("cache_write_miss_cycles", latency);
                if let Some(b) = m.blocked_at {
                    let stalled = now.saturating_sub(b);
                    self.stats.record("cache_blocked_write_cycles", stalled);
                    self.hot.add(m.line.0, stalled);
                }
            }
            MshrKind::Read | MshrKind::TearOff => {
                self.stats.record("cache_read_miss_cycles", latency);
            }
        }
        self.tracer.record(
            now,
            TraceEvent::MshrFree { line: m.line.0, kind: m.kind.label(), latency },
        );
    }

    /// A Nack was sent for `line`: the lockdown window opens now (if it
    /// is not already open).
    fn note_lockdown_begin(&mut self, now: Cycle, line: LineAddr) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.lockdown_since.entry(line) {
            e.insert(now);
            self.tracer.record(now, TraceEvent::LockdownBegin { line: line.0 });
        }
    }

    /// The node hosting the directory bank that owns `line`. Messages
    /// route by node; the receiving tile dispatches to the right bank.
    fn home(&self, line: LineAddr) -> NodeId {
        NodeId(self.home.home_node(line) as u16)
    }

    fn send_cache(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.outbox.push((Dest::Cache(dst), msg));
    }

    fn send_dir(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.outbox.push((Dest::Dir(dst), msg));
    }

    /// Drain messages to be injected into the mesh this cycle.
    pub fn drain_outbox(&mut self) -> Vec<(Dest, ProtoMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Allocation-free [`PrivateCache::drain_outbox`]: append queued
    /// messages to `out` (which the caller clears and reuses).
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(Dest, ProtoMsg)>) {
        out.append(&mut self.outbox);
    }

    /// Core-facing completion events, oldest first, until
    /// [`PrivateCache::retire_completions`].
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Drop the completion events the core has applied. The buffer
    /// keeps its capacity, and each `LoadData`'s list of waiting loads
    /// goes back to the pool new MSHRs take theirs from.
    pub fn retire_completions(&mut self) {
        for c in self.completions.drain(..) {
            if let Completion::LoadData { tags, .. } = c {
                spare(&mut self.spare_tags, tags);
            }
        }
    }

    /// Allocate an MSHR ([`MshrFile::alloc`]) with a list of waiting
    /// loads from the spare pool.
    fn alloc_mshr(&mut self, line: LineAddr, kind: MshrKind, sos: bool, now: Cycle) -> Option<&mut Mshr> {
        let m = self.mshrs.alloc(line, kind, sos, now)?;
        if let Some(tags) = self.spare_tags.pop() {
            m.waiting_loads = tags;
        }
        Some(m)
    }

    /// True when core-facing completion events wait to be drained.
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// True when [`PrivateCache::ensure_writable`] would change nothing
    /// for `line`: it is writable or its `GetX` is in flight, and its
    /// stored state passes the soft-error guard check (a wounded line is
    /// not settled: `ensure_writable` would repair it).
    pub fn write_settled(&self, line: LineAddr) -> bool {
        (self.is_writable(line) || self.mshrs.find(line, MshrKind::Write).is_some())
            && (!self.soft_on || self.l2.get(line).is_none_or(|pl| Self::guard_ok(line, pl)))
    }

    /// The earliest cycle at which ticking this cache can change state:
    /// `Some(now)` when something is actionable (outbox messages to
    /// inject, completions for the core, or a deferred fill retrying
    /// every cycle), `None` otherwise. MSHRs and parked evictions only
    /// advance on incoming messages, which the mesh's own
    /// `next_internal_event` and the per-node drain units track.
    ///
    /// This is the sparse engine's sleep-eligibility hook: a cache
    /// returning `None` may be skipped entirely until a message is
    /// delivered to it (wake-on-message at the system glue), because
    /// every state transition here is driven by `handle_msg`, the
    /// paired core's calls, or one of the four queues tested below.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.outbox.is_empty()
            || !self.completions.is_empty()
            || !self.pending_fills.is_empty()
        {
            Some(now)
        } else {
            None
        }
    }

    /// True when no protocol messages await injection (`SparseVerify`
    /// asserts this stays true across a slept cache's shadow tick).
    pub fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Counter access for reports.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Debug: describe all outstanding MSHRs and the state of `line`.
    pub fn debug_line(&self, line: LineAddr) -> String {
        let st = self.l2.get(line).map(|l| format!("{:?}", l.state));
        let mshrs: Vec<String> = self
            .mshrs
            .iter()
            .map(|m| {
                format!(
                    "{:?}:{:?} data={} acks={:?}/{} hint={} waiters={}",
                    m.line, m.kind, m.data_received, m.acks_expected, m.acks_received, m.blocked_hint,
                    m.waiting_loads.len()
                )
            })
            .collect();
        let eb: Vec<String> = self.evict_buf.iter().map(|e| format!("{}sup={}", e.line, e.superseded)).collect();
        format!(
            "node{} line {line} state={st:?} mshrs=[{}] fills={} evbuf=[{}]",
            self.node.index(),
            mshrs.join("; "),
            self.pending_fills.len(),
            eb.join(";")
        )
    }

    /// True when no transaction, parked eviction or deferred fill is
    /// outstanding.
    pub fn is_idle(&self) -> bool {
        self.mshrs.is_empty() && self.evict_buf.is_empty() && self.pending_fills.is_empty()
    }

    // ------------------------------------------------------------------
    // Soft errors: guards and in-place repair
    // ------------------------------------------------------------------

    /// Enable or disable the soft-error guard machinery. Called by the
    /// system when a non-empty [`wb_kernel::SoftPlan`] is configured;
    /// disabled caches keep every guard word at 0 so `SoftPlan::none()`
    /// snapshots are byte-identical to `soft: None`.
    pub fn set_soft(&mut self, on: bool) {
        self.soft_on = on;
    }

    /// Is the stored (tag, state, guard) triple of a resident line
    /// self-consistent? The array key `l` is the true tag.
    fn guard_ok(l: LineAddr, pl: &L2Line) -> bool {
        pl.tag == l.0 && pl.guard == line_guard(pl.tag, pl.state)
    }

    /// Build a fresh line with its guard (0 while soft errors are off).
    fn mk_line(&self, line: LineAddr, state: PState, data: LineData) -> L2Line {
        let guard = if self.soft_on { line_guard(line.0, state) } else { 0 };
        L2Line { state, data, tag: line.0, guard }
    }

    /// Refresh the guard of `line` after a legitimate state write.
    fn reguard(&mut self, line: LineAddr) {
        if !self.soft_on {
            return;
        }
        if let Some(l2) = self.l2.get_mut(line) {
            l2.tag = line.0;
            l2.guard = line_guard(line.0, l2.state);
        }
    }

    /// Check the guard of `line` before acting on its stored state, and
    /// repair a mismatch in place: detection and recovery are one step.
    /// The array key is the true tag and no flip hits the guard word, so
    /// hashing the key against each candidate state finds the state the
    /// guard was sealed over; restoring it (and the tag) leaves the line
    /// exactly as it was before the flip. Its data words are never
    /// flipped, so nothing is written back or re-fetched, and a line
    /// pinned by a lockdown or an M-speculative load stays put.
    fn check_guard(&mut self, now: Cycle, line: LineAddr) {
        if !self.soft_on {
            return;
        }
        let Some(pl) = self.l2.get(line) else { return };
        if Self::guard_ok(line, pl) {
            return;
        }
        let guard = pl.guard;
        if let Some(t0) = self.wounds.remove(&line) {
            self.stats.record("soft_detect_latency", now.saturating_sub(t0));
        }
        self.stats.inc("soft_detected");
        let decoded = [PState::S, PState::E, PState::M, PState::SmAd]
            .into_iter()
            .find(|s| guard == line_guard(line.0, *s));
        let Some(state) = decoded else {
            // Outside the single-flip model: no state matches the guard.
            self.record_fault(line, "soft", "guard decodes to no state".to_string());
            return;
        };
        if let Some(l2) = self.l2.get_mut(line) {
            l2.state = state;
            l2.tag = line.0;
        }
        self.stats.inc("soft_recovered");
    }

    /// Scrub the MSHR file against its ECC shadows; every corrected
    /// entry counts as detected + recovered in one step.
    fn scrub_mshrs(&mut self, now: Cycle) -> u64 {
        let fixed = self.mshrs.scrub();
        let n = fixed.len() as u64;
        for line in fixed {
            if let Some(t0) = self.wounds.remove(&line) {
                self.stats.record("soft_detect_latency", now.saturating_sub(t0));
            }
            self.stats.inc("soft_detected");
            self.stats.inc("soft_recovered");
        }
        n
    }

    /// Apply one soft flip of `target` kind to this cache's stored
    /// state, drawing victims from `rng`. Returns `false` when no
    /// eligible victim exists (the engine counts it as missed).
    ///
    /// Eligibility keeps the model honest without double-wounding:
    /// stable resident lines only (no transients), healthy guard, no
    /// outstanding MSHR on the line, no lockdown, not parked in the
    /// evict buffer.
    pub fn soft_flip(&mut self, now: Cycle, target: wb_kernel::SoftTarget, rng: &mut wb_kernel::SimRng) -> bool {
        use wb_kernel::SoftTarget;
        match target {
            SoftTarget::CacheState | SoftTarget::CacheTag => {
                let candidates: Vec<LineAddr> = self
                    .l2
                    .iter()
                    .filter(|(l, pl)| {
                        matches!(pl.state, PState::S | PState::E | PState::M)
                            && Self::guard_ok(*l, pl)
                            && !self.mshrs.iter().any(|m| m.line == *l)
                            && !self.lockdown_since.contains_key(l)
                            && !self.evict_buf.iter().any(|e| e.line == *l)
                    })
                    .map(|(l, _)| l)
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                let line = candidates[rng.below_usize(candidates.len())];
                let l2 = self.l2.get_mut(line).expect("candidate resident");
                if target == SoftTarget::CacheState {
                    let others: Vec<PState> = [PState::S, PState::E, PState::M]
                        .into_iter()
                        .filter(|s| *s != l2.state)
                        .collect();
                    l2.state = others[rng.below_usize(others.len())];
                } else {
                    l2.tag ^= 1u64 << rng.below(64);
                }
                self.wounds.insert(line, now);
                self.stats.inc("soft_injected");
                true
            }
            SoftTarget::Mshr => {
                let n = self.mshrs.in_use();
                if n == 0 {
                    return false;
                }
                let idx = rng.below_usize(n);
                match self.mshrs.soft_flip_nth(idx, rng) {
                    Some(line) => {
                        self.wounds.insert(line, now);
                        self.stats.inc("soft_injected");
                        true
                    }
                    None => false,
                }
            }
            // Directory targets are routed to directory banks.
            SoftTarget::DirState | SoftTarget::Sharers => false,
        }
    }

    /// Residency of `line` for the auditor: `Some(exclusive)` when
    /// resident, `None` otherwise.
    pub fn resident_excl(&self, line: LineAddr) -> Option<bool> {
        self.l2.get(line).map(|l| l.state.exclusive())
    }

    /// Every resident line with its exclusivity, in deterministic array
    /// order — the auditor's view for SWMR and agreement checks.
    pub fn resident_lines(&self) -> Vec<(LineAddr, bool)> {
        self.l2.iter().map(|(l, pl)| (l, pl.state.exclusive())).collect()
    }

    /// Mark every line with in-flight cache-side activity; the auditor
    /// only checks directory–cache agreement on lines no one marks.
    pub fn audit_busy_lines(&self, mark: &mut dyn FnMut(LineAddr)) {
        for m in self.mshrs.iter() {
            mark(m.line);
        }
        for e in &self.evict_buf {
            mark(e.line);
        }
        for f in &self.pending_fills {
            mark(f.line);
        }
        for (_, m) in &self.outbox {
            mark(m.line());
        }
        for c in &self.completions {
            match c {
                Completion::LoadData { line, .. }
                | Completion::WriteReady { line }
                | Completion::WriteBlocked { line } => mark(*line),
            }
        }
        for l in self.lockdown_since.keys() {
            mark(*l);
        }
        for l in self.wounds.keys() {
            mark(*l);
        }
    }

    /// MSHR occupancy against the file's capacity, for the auditor's
    /// leak bound.
    pub fn mshr_usage(&self) -> (usize, usize) {
        (self.mshrs.in_use(), self.mshrs.capacity())
    }

    /// Entries parked in the eviction buffer (superseded ones included),
    /// for the auditor's end-of-run drain check.
    pub fn evict_buf_len(&self) -> usize {
        self.evict_buf.len()
    }

    /// Synchronous scrub for the online auditor: detect and repair every
    /// outstanding wound (guard scan + MSHR ECC scrub). Returns the
    /// number of repairs performed.
    pub fn audit_scrub(&mut self, now: Cycle) -> u64 {
        if !self.soft_on {
            return 0;
        }
        let wounded: Vec<LineAddr> = self
            .l2
            .iter()
            .filter(|(l, pl)| !Self::guard_ok(*l, pl))
            .map(|(l, _)| l)
            .collect();
        for &line in &wounded {
            self.check_guard(now, line);
        }
        self.scrub_mshrs(now) + wounded.len() as u64
    }

    // ------------------------------------------------------------------
    // Core-facing operations
    // ------------------------------------------------------------------

    /// Read `addr` for the load tagged `tag`. `sos` marks the core's
    /// current source-of-speculation load, which is entitled to the
    /// reserved MSHR and to tear-off bypasses of blocked writes.
    pub fn load_access(&mut self, now: Cycle, tag: ReadTag, addr: Addr, sos: bool) -> LoadAccess {
        let line = addr.line();
        self.stats.inc_h(self.h_load_accesses);
        self.check_guard(now, line);
        if let Some(l2) = self.l2.get(line) {
            if l2.state.readable() {
                let value = l2.data.word(addr.word_index());
                let latency = if self.l1.contains(line) {
                    self.stats.inc_h(self.h_l1_hits);
                    L1_HIT_CYCLES
                } else {
                    self.stats.inc_h(self.h_l2_hits);
                    self.fill_l1(line, now);
                    L2_HIT_CYCLES
                };
                self.l2.touch(line, now);
                return LoadAccess::Hit { value, latency };
            }
        }
        self.stats.inc_h(self.h_load_misses);

        // Piggyback on an outstanding transaction when possible.
        if let Some(w) = self.mshrs.find_mut(line, MshrKind::Write) {
            if !(sos && w.blocked_hint) {
                if !w.waiting_loads.contains(&tag) {
                    w.waiting_loads.push(tag);
                }
                return LoadAccess::Miss;
            }
            // SoS load bypassing a blocked write: fresh tear-off read on a
            // new (possibly reserved) MSHR — Section 3.5.2.
            if let Some(t) = self.mshrs.find_mut(line, MshrKind::TearOff) {
                if !t.waiting_loads.contains(&tag) {
                    t.waiting_loads.push(tag);
                }
                return LoadAccess::Miss;
            }
            if let Some(t) = self.alloc_mshr(line, MshrKind::TearOff, true, now) {
                t.waiting_loads.push(tag);
                self.stats.inc("cache_sos_bypass_reads");
                self.tracer.record(now, TraceEvent::MshrAlloc { line: line.0, kind: "TearOff" });
                let home = self.home(line);
                self.send_dir(home, ProtoMsg::GetS { line, requester: self.node, kind: ReadKind::TearOff });
                return LoadAccess::Miss;
            }
            return LoadAccess::Blocked;
        }
        for kind in [MshrKind::Read, MshrKind::TearOff] {
            if let Some(m) = self.mshrs.find_mut(line, kind) {
                if !m.waiting_loads.contains(&tag) {
                    m.waiting_loads.push(tag);
                }
                return LoadAccess::Miss;
            }
        }
        // Fresh read.
        let Some(m) = self.alloc_mshr(line, MshrKind::Read, sos, now) else {
            self.stats.inc("cache_mshr_blocked");
            return LoadAccess::Blocked;
        };
        m.waiting_loads.push(tag);
        self.tracer.record(now, TraceEvent::MshrAlloc { line: line.0, kind: "Read" });
        let home = self.home(line);
        self.send_dir(home, ProtoMsg::GetS { line, requester: self.node, kind: ReadKind::Cacheable });
        LoadAccess::Miss
    }

    /// Is the line currently writable (E or M)?
    pub fn is_writable(&self, line: LineAddr) -> bool {
        self.l2.get(line).is_some_and(|l| l.state.exclusive())
    }

    /// Make sure `line` is (or is becoming) writable. Returns `true` when
    /// it already is; otherwise issues a GetX (write-permission prefetch)
    /// if none is outstanding and returns `false`.
    pub fn ensure_writable(&mut self, now: Cycle, line: LineAddr) -> bool {
        self.check_guard(now, line);
        if self.is_writable(line) {
            return true;
        }
        if self.mshrs.find(line, MshrKind::Write).is_some() {
            return false;
        }
        if self.alloc_mshr(line, MshrKind::Write, false, now).is_none() {
            self.stats.inc("cache_mshr_blocked");
            return false;
        }
        self.stats.inc("cache_getx_issued");
        self.tracer.record(now, TraceEvent::MshrAlloc { line: line.0, kind: "Write" });
        if let Some(l2) = self.l2.get_mut(line) {
            debug_assert_eq!(l2.state, PState::S);
            l2.state = PState::SmAd;
            self.reguard(line);
        }
        let home = self.home(line);
        self.send_dir(home, ProtoMsg::GetX { line, requester: self.node });
        false
    }

    /// Perform a store: write `value` to `addr`. Requires write
    /// permission; returns `false` (and issues nothing) otherwise.
    /// On success the line is M and the store is globally visible.
    pub fn store_perform(&mut self, now: Cycle, addr: Addr, value: u64) -> bool {
        let line = addr.line();
        self.check_guard(now, line);
        let Some(l2) = self.l2.get_mut(line) else { return false };
        if !l2.state.exclusive() {
            return false;
        }
        l2.state = PState::M;
        l2.data.set_word(addr.word_index(), value);
        self.reguard(line);
        self.l2.touch(line, now);
        self.stats.inc_h(self.h_stores_performed);
        true
    }

    /// Perform an atomic read-modify-write on `addr`: returns the old
    /// value if write permission is held, applying `new` as replacement.
    pub fn rmw_perform(&mut self, now: Cycle, addr: Addr, new: impl FnOnce(u64) -> u64) -> Option<u64> {
        let line = addr.line();
        self.check_guard(now, line);
        let l2 = self.l2.get_mut(line)?;
        if !l2.state.exclusive() {
            return None;
        }
        let old = l2.data.word(addr.word_index());
        l2.state = PState::M;
        l2.data.set_word(addr.word_index(), new(old));
        self.reguard(line);
        self.l2.touch(line, now);
        self.stats.inc("cache_rmws_performed");
        Some(old)
    }

    /// Read a word from a readable resident line (used by the LSQ to bind
    /// values for loads waking on a fill).
    pub fn read_word(&self, addr: Addr) -> Option<u64> {
        let l2 = self.l2.get(addr.line())?;
        l2.state.readable().then(|| l2.data.word(addr.word_index()))
    }

    /// The value of `addr` if this cache holds its line exclusively (E or
    /// M) — i.e. this cache is the architecturally authoritative copy.
    /// Used for end-of-run memory state resolution.
    pub fn exclusive_word(&self, addr: Addr) -> Option<u64> {
        let l2 = self.l2.get(addr.line())?;
        l2.state.exclusive().then(|| l2.data.word(addr.word_index()))
    }

    /// The core lifted the last lockdown for `line` after having Nacked an
    /// invalidation: send the deferred acknowledgement to the directory,
    /// which redirects it to the blocked writer (Figure 3.B steps 4-5).
    pub fn release_lockdown(&mut self, now: Cycle, line: LineAddr) {
        self.stats.inc("cache_lockdown_acks");
        if let Some(t0) = self.lockdown_since.remove(&line) {
            let held = now.saturating_sub(t0);
            self.stats.record("cache_lockdown_cycles", held);
            self.hot.add(line.0, held);
            self.tracer.record(now, TraceEvent::LockdownEnd { line: line.0, held });
        }
        let home = self.home(line);
        self.send_dir(home, ProtoMsg::LockdownAck { line, from: self.node });
    }

    /// Does an outstanding write for `line` carry a blocked hint?
    pub fn write_blocked(&self, line: LineAddr) -> bool {
        self.mshrs.find(line, MshrKind::Write).is_some_and(|m| m.blocked_hint)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn fill_l1(&mut self, line: LineAddr, now: Cycle) {
        if !self.l1.contains(line) {
            // L1 victims leave silently; L1 is a latency filter only.
            let _ = self.l1.insert(line, (), now, |_, _| true);
        } else {
            self.l1.touch(line, now);
        }
    }

    fn drop_line(&mut self, line: LineAddr) {
        self.l1.remove(line);
        self.l2.remove(line);
    }

    /// Allocate (or refresh) an L2 line, evicting as needed. Returns
    /// false when no victim was available (caller retries).
    fn fill_l2(&mut self, now: Cycle, line: LineAddr, data: LineData, state: PState, core: &mut dyn CoreSide) -> bool {
        if let Some(l2) = self.l2.get_mut(line) {
            l2.data = data;
            l2.state = state;
            self.reguard(line);
            if self.soft_on && self.wounds.remove(&line).is_some() {
                // A legitimate overwrite destroyed the flipped bits
                // before detection: count the wound as masked, not
                // silent (it can no longer corrupt anything).
                self.stats.inc("soft_masked");
            }
            self.l2.touch(line, now);
            self.fill_l1(line, now);
            return true;
        }
        // Choose a victim: stable lines only; under WritersBlock, lines
        // protecting a lockdown are pinned (Section 3.8 — no squash, and a
        // dirty line cannot leave silently); wounded lines are pinned
        // until an access repairs them (evicting on flipped state could
        // lose data). The array asks only about the target set's ways
        // that would beat its current victim.
        let wb = self.protocol == ProtocolKind::WritersBlock;
        let soft_on = self.soft_on;
        let lq: &dyn CoreSide = core;
        let evictable = |l: LineAddr, pl: &L2Line| {
            !(matches!(pl.state, PState::SmAd)
                || (wb && pl.state.exclusive() && lq.has_mspec(l))
                || (soft_on && !Self::guard_ok(l, pl)))
        };
        let fresh = self.mk_line(line, state, data);
        match self.l2.insert(line, fresh, now, evictable) {
            Insert::Done => {
                self.fill_l1(line, now);
                true
            }
            Insert::Evicted(vline, vpayload) => {
                self.l1.remove(vline);
                self.handle_victim(now, vline, vpayload, core);
                self.fill_l1(line, now);
                true
            }
            Insert::NoVictim => {
                self.stats.inc("cache_fill_no_victim");
                false
            }
        }
    }

    fn handle_victim(&mut self, now: Cycle, vline: LineAddr, v: L2Line, core: &mut dyn CoreSide) {
        match v.state {
            PState::S => {
                if self.silent_shared_evictions {
                    // Section 3.8: silent eviction — the directory keeps us
                    // in the sharing list, so a future write still reaches
                    // our LQ via an invalidation. Nothing to do.
                    self.stats.inc("cache_silent_evictions");
                } else {
                    // Non-silent eviction of a shared line (ablation): the
                    // directory forgets us, so in the base protocol any
                    // M-speculative load on this line must be squashed; in
                    // WritersBlock such lines revert to a *silent*
                    // eviction instead (Section 3.8).
                    if self.protocol == ProtocolKind::WritersBlock && core.has_mspec(vline) {
                        self.stats.inc("cache_evictions_kept_silent");
                    } else {
                        if self.protocol == ProtocolKind::BaseMesi {
                            core.on_eviction(now, vline);
                        }
                        self.stats.inc("cache_puts_evictions");
                        let home = self.home(vline);
                        self.send_dir(home, ProtoMsg::PutS { line: vline, requester: self.node });
                    }
                }
            }
            PState::E | PState::M => {
                // Non-silent by necessity (dirty or exclusively tracked):
                // in the base protocol squash M-speculative loads on the
                // line (the directory will no longer invalidate us);
                // under WritersBlock this only happens when no lockdown
                // exists (pinning filtered the rest).
                if self.protocol == ProtocolKind::BaseMesi {
                    core.on_eviction(now, vline);
                }
                self.stats.inc("cache_putm_evictions");
                self.evict_buf.push(EvictBufEntry { line: vline, data: v.data, superseded: false });
                let home = self.home(vline);
                self.send_dir(home, ProtoMsg::PutM { line: vline, requester: self.node, data: v.data });
            }
            PState::SmAd => {
                // The eviction filter pins transient lines, so this state
                // is unreachable unless the protocol is broken.
                self.record_fault(vline, "evict", "evicting transient line".to_string());
            }
        }
    }

    fn finish_write(&mut self, now: Cycle, line: LineAddr, core: &mut dyn CoreSide) {
        let m = self.mshrs.free(line, MshrKind::Write).expect("write MSHR present");
        self.note_mshr_free(now, &m);
        // If the line is already exclusive locally (a stale prefetch, e.g.
        // a GetX that raced with a silent E->M upgrade), keep the local
        // data: the directory's payload may be older than ours.
        let data = match self.l2.get(line) {
            Some(l2) if l2.state.exclusive() => l2.data,
            _ => m.pending_data.expect("completed write carries data"),
        };
        if !self.fill_l2(now, line, data, PState::M, core) {
            // No victim available: retry the fill until one frees up. The
            // transaction is complete from the directory's point of view,
            // so unblock it now.
            self.pending_fills.push(PendingFill { line, data });
        }
        let home = self.home(line);
        self.send_dir(home, ProtoMsg::Unblock { line, from: self.node });
        self.completions.push(Completion::WriteReady { line });
        if m.waiting_loads.is_empty() {
            spare(&mut self.spare_tags, m.waiting_loads);
        } else {
            self.completions.push(Completion::LoadData {
                tags: m.waiting_loads,
                line,
                data,
                cacheable: true,
            });
        }
        self.stats.inc("cache_writes_completed");
    }

    /// Retry deferred fills (and, under soft errors, scrub the MSHR
    /// shadows); call once per cycle.
    pub fn tick(&mut self, now: Cycle, core: &mut dyn CoreSide) {
        if self.soft_on {
            self.scrub_mshrs(now);
        }
        if self.pending_fills.is_empty() {
            return;
        }
        let fills = std::mem::take(&mut self.pending_fills);
        for f in fills {
            if !self.fill_l2(now, f.line, f.data, PState::M, core) {
                self.pending_fills.push(f);
            }
        }
    }

    // ------------------------------------------------------------------
    // Network-facing message handling
    // ------------------------------------------------------------------

    /// Handle one protocol message addressed to this cache.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (e.g. a forward for a line we
    /// provably cannot own) — these indicate simulator bugs, not workload
    /// behaviour.
    pub fn handle_msg(&mut self, now: Cycle, msg: ProtoMsg, core: &mut dyn CoreSide) {
        if self.soft_on {
            // Scrub the MSHR shadows and repair any wound on the line
            // this message touches before interpreting stored state.
            self.scrub_mshrs(now);
            self.check_guard(now, msg.line());
        }
        match msg {
            ProtoMsg::Data { line, data, acks_expected, exclusive, cacheable, for_write } => {
                self.on_data(now, line, data, acks_expected, exclusive, cacheable, for_write, core);
            }
            ProtoMsg::InvAck { line, .. } | ProtoMsg::RedirAck { line } => {
                if let Some(m) = self.mshrs.find_mut(line, MshrKind::Write) {
                    m.acks_received += 1;
                    if m.write_complete() {
                        self.finish_write(now, line, core);
                    }
                } else {
                    self.stats.inc("cache_stray_acks");
                }
            }
            ProtoMsg::WbHint { line } => {
                if let Some(m) = self.mshrs.find_mut(line, MshrKind::Write) {
                    if !m.blocked_hint {
                        m.blocked_hint = true;
                        m.blocked_at = Some(now);
                        self.stats.inc("cache_wb_hints");
                        self.completions.push(Completion::WriteBlocked { line });
                    }
                }
            }
            ProtoMsg::Inv { line, writer } => self.on_inv(now, line, writer, core),
            ProtoMsg::FwdGetS { line, requester, kind } => self.on_fwd_gets(now, line, requester, kind),
            ProtoMsg::FwdGetX { line, requester } => self.on_fwd_getx(now, line, requester, core),
            ProtoMsg::Recall { line } => self.on_recall(now, line, core),
            ProtoMsg::PutAck { line } => {
                if let Some(i) = self.evict_buf.iter().position(|e| e.line == line) {
                    self.evict_buf.swap_remove(i);
                }
            }
            ProtoMsg::Purge { line } => {
                // A write with no requester: the owner (resident E/M, or a
                // PutM still in flight) gives the line back as to a Recall,
                // anyone else invalidates as for an eviction's Inv.
                let owner = self.is_writable(line)
                    || self.evict_buf.iter().any(|e| e.line == line && !e.superseded);
                if owner {
                    self.on_recall(now, line, core);
                } else {
                    self.on_inv(now, line, None, core);
                }
            }
            other => {
                let line = other.line();
                self.record_fault(line, "receive", format!("unexpected message {other:?}"));
            }
        }
        if self.soft_on {
            // Message handling may have mutated MSHR protected fields
            // (acks, data, hints): refresh every ECC shadow.
            self.mshrs.reshadow_all();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        now: Cycle,
        line: LineAddr,
        data: LineData,
        acks_expected: u32,
        exclusive: bool,
        cacheable: bool,
        for_write: bool,
        core: &mut dyn CoreSide,
    ) {
        if for_write {
            // A GetX reply: it belongs to the write MSHR even when a read
            // to the same line is also outstanding.
            if let Some(m) = self.mshrs.find_mut(line, MshrKind::Write) {
                m.data_received = true;
                m.acks_expected = Some(acks_expected);
                m.pending_data = Some(data);
                if m.write_complete() {
                    self.finish_write(now, line, core);
                }
            } else {
                self.stats.inc("cache_stray_data");
            }
            return;
        }
        if !cacheable {
            // Tear-off reply: satisfy whichever read transaction asked.
            self.stats.inc("cache_tearoff_data");
            for kind in [MshrKind::TearOff, MshrKind::Read] {
                if let Some(m) = self.mshrs.free(line, kind) {
                    self.note_mshr_free(now, &m);
                    if m.waiting_loads.is_empty() {
                        spare(&mut self.spare_tags, m.waiting_loads);
                    } else {
                        self.completions.push(Completion::LoadData {
                            tags: m.waiting_loads,
                            line,
                            data,
                            cacheable: false,
                        });
                    }
                    return;
                }
            }
            // Both transactions already satisfied elsewhere; drop.
            return;
        }
        if self.mshrs.find(line, MshrKind::Read).is_some() {
            let m = self.mshrs.free(line, MshrKind::Read).expect("just found");
            self.note_mshr_free(now, &m);
            let state = if exclusive { PState::E } else { PState::S };
            let filled = self.fill_l2(now, line, data, state, core);
            if !filled {
                // Rare: every way pinned. Serve the waiting loads from the
                // message data without caching the line (we stay a
                // registered sharer; invalidations still reach the LQ).
                self.stats.inc("cache_uncached_fills");
            }
            self.completions.push(Completion::LoadData { tags: m.waiting_loads, line, data, cacheable: true });
            let home = self.home(line);
            self.send_dir(home, ProtoMsg::Unblock { line, from: self.node });
            return;
        }
        let _ = acks_expected;
        self.stats.inc("cache_stray_data");
    }

    fn on_inv(&mut self, now: Cycle, line: LineAddr, writer: Option<NodeId>, core: &mut dyn CoreSide) {
        self.stats.inc("cache_invs_received");
        // Drop any readable copy (plain Inv never targets an owner; an
        // owner is reached through FwdGetX/Recall).
        if let Some(l2) = self.l2.get(line) {
            debug_assert!(
                matches!(l2.state, PState::S | PState::SmAd),
                "Inv hit owner state {:?} for {line}",
                l2.state
            );
        }
        self.drop_line(line);
        match core.on_invalidation(now, line) {
            InvalResponse::Ack => match writer {
                Some(w) => self.send_cache(w, ProtoMsg::InvAck { line, from: self.node }),
                None => {
                    let home = self.home(line);
                    self.send_dir(home, ProtoMsg::InvAck { line, from: self.node });
                }
            },
            InvalResponse::Nack => {
                debug_assert_eq!(self.protocol, ProtocolKind::WritersBlock);
                self.stats.inc("cache_nacks_sent");
                self.note_lockdown_begin(now, line);
                let home = self.home(line);
                self.send_dir(home, ProtoMsg::Nack { line, from: self.node, data: None });
            }
        }
    }

    fn current_owner_data(&mut self, line: LineAddr) -> Option<(LineData, bool)> {
        if let Some(l2) = self.l2.get(line) {
            if l2.state.exclusive() {
                return Some((l2.data, false));
            }
        }
        if let Some(e) = self.evict_buf.iter_mut().find(|e| e.line == line && !e.superseded) {
            e.superseded = true;
            return Some((e.data, true));
        }
        None
    }

    fn on_fwd_gets(&mut self, now: Cycle, line: LineAddr, requester: NodeId, kind: ReadKind) {
        let Some((data, from_buf)) = self.current_owner_data(line) else {
            self.record_fault(line, "FwdGetS", "cache is not owner".to_string());
            return;
        };
        match kind {
            ReadKind::TearOff => {
                // Serve an uncacheable copy; keep ownership (nothing
                // changes hands). Un-supersede the buffer entry if that is
                // where the data lives.
                if from_buf {
                    if let Some(e) = self.evict_buf.iter_mut().find(|e| e.line == line) {
                        e.superseded = false;
                    }
                }
                self.send_cache(requester,
                    ProtoMsg::Data { line, data, acks_expected: 0, exclusive: false, cacheable: false, for_write: false },
                );
            }
            ReadKind::Cacheable => {
                self.send_cache(requester,
                    ProtoMsg::Data { line, data, acks_expected: 0, exclusive: false, cacheable: true, for_write: false },
                );
                let home = self.home(line);
                self.send_dir(home, ProtoMsg::DataWb { line, from: self.node, data });
                if !from_buf {
                    if let Some(l2) = self.l2.get_mut(line) {
                        l2.state = PState::S;
                        self.reguard(line);
                        self.l2.touch(line, now);
                    }
                }
            }
        }
    }

    fn on_fwd_getx(&mut self, now: Cycle, line: LineAddr, requester: NodeId, core: &mut dyn CoreSide) {
        let Some((data, _)) = self.current_owner_data(line) else {
            self.record_fault(line, "FwdGetX", "cache is not owner".to_string());
            return;
        };
        self.drop_line(line);
        match core.on_invalidation(now, line) {
            InvalResponse::Ack => {
                // 3-hop: the requester needs no further acks.
                self.send_cache(requester,
                    ProtoMsg::Data { line, data, acks_expected: 0, exclusive: false, cacheable: true, for_write: true },
                );
            }
            InvalResponse::Nack => {
                // Figure 3.B step 3: Data to the writer (who must await one
                // redirected ack) and Nack+Data to the directory so the LLC
                // can serve tear-off reads meanwhile.
                self.stats.inc("cache_nacks_sent");
                self.note_lockdown_begin(now, line);
                self.send_cache(requester,
                    ProtoMsg::Data { line, data, acks_expected: 1, exclusive: false, cacheable: true, for_write: true },
                );
                let home = self.home(line);
                self.send_dir(home, ProtoMsg::Nack { line, from: self.node, data: Some(data) });
            }
        }
    }

    fn on_recall(&mut self, now: Cycle, line: LineAddr, core: &mut dyn CoreSide) {
        let Some((data, _)) = self.current_owner_data(line) else {
            self.record_fault(line, "Recall", "cache is not owner".to_string());
            return;
        };
        self.drop_line(line);
        let home = self.home(line);
        match core.on_invalidation(now, line) {
            InvalResponse::Ack => {
                self.send_dir(home, ProtoMsg::DataWb { line, from: self.node, data });
            }
            InvalResponse::Nack => {
                self.stats.inc("cache_nacks_sent");
                self.note_lockdown_begin(now, line);
                self.send_dir(home, ProtoMsg::Nack { line, from: self.node, data: Some(data) });
            }
        }
    }
}

// Every execution-visible field. Configuration-derived fields (`node`,
// `home`, geometry) and observability state (the tracer) are not
// listed: restore targets a cache built from the same
// [`wb_kernel::config::SystemConfig`]. `wounds` is the soft-error
// layer: the cycle each undetected wound landed; the corrupted state
// itself lives inside the L2 lines.
/// Keep an emptied list of waiting loads for a later MSHR (one that
/// never allocated is not worth keeping).
fn spare(pool: &mut Vec<Vec<ReadTag>>, mut tags: Vec<ReadTag>) {
    if tags.capacity() > 0 {
        tags.clear();
        pool.push(tags);
    }
}

wb_kernel::snap_component!(pub PrivateCache {
    l1, l2, mshrs, evict_buf, pending_fills, outbox, completions, stats,
    lockdown_since, hot, fault, wounds,
});

wb_kernel::snap_enum!(PState { 0 => S, 1 => E, 2 => M, 3 => SmAd });
// v2: the redundant tag and its guard word must round-trip verbatim — a
// snapshot may capture an undetected wound.
wb_kernel::snap_struct!(L2Line { state, data, tag, guard });
wb_kernel::snap_struct!(EvictBufEntry { line, data, superseded });
wb_kernel::snap_struct!(PendingFill { line, data });
wb_kernel::snap_enum!(Completion {
    0 => LoadData { tags, line, data, cacheable },
    1 => WriteReady { line },
    2 => WriteBlocked { line },
});
