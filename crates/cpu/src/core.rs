//! The out-of-order core pipeline.
//!
//! A dynamically-scheduled core with register dataflow (operands are
//! captured at dispatch or at producer writeback, so WAR hazards —
//! Bell-Lipasti condition 2 — can never block commit), branch prediction
//! with squash-and-refetch, D-speculation past unresolved store addresses
//! with memory-order-violation squashes, and three commit policies:
//!
//! - [`CommitMode::InOrder`]: conventional head-only commit;
//! - [`CommitMode::OutOfOrder`]: safe Bell-Lipasti out-of-order commit —
//!   consistency (condition 6) is enforced, so a load reordered past an
//!   older non-performed load cannot commit;
//! - [`CommitMode::OutOfOrderWb`]: condition 6 relaxed for loads using
//!   lockdowns + the LDT; requires the WritersBlock protocol underneath.
//!
//! The core implements [`CoreSide`], the invalidation hook of the private
//! cache: in the base protocol an invalidation that matches an
//! M-speculative load squashes it (Figure 2.A); under WritersBlock it
//! sets the S bit and Nacks (Figure 2.B), deferring the acknowledgement
//! until the lockdown lifts.

use crate::lsq::{ForwardResult, LoadState, Lsq};
use crate::predictor::Bimodal;
use wb_isa::{AmoOp, Inst, Program, Reg};
use wb_kernel::config::{CommitMode, CoreConfig, ProtocolKind};
use wb_kernel::trace::{Category, CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, NodeId, Stats};
use wb_mem::{Addr, LineAddr};
use wb_protocol::{Completion, CoreSide, InvalResponse, LoadAccess, PrivateCache, ReadTag};
use wb_tso::{ExecutionLog, MemEvent, MemOp};

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    /// Waiting for operands (occupies an IQ slot).
    WaitOps,
    /// In a functional unit; result ready at the cycle inside.
    Executing { done_at: Cycle },
    /// Waiting for the memory system (loads, atomics).
    WaitMem,
    /// Completed; result (if any) final.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Operand {
    /// Producer sequence number when still in flight.
    src: Option<u64>,
    value: u64,
    ready: bool,
}

impl Operand {
    fn ready_with(value: u64) -> Self {
        Operand { src: None, value, ready: true }
    }
    fn waiting(src: u64) -> Self {
        Operand { src: Some(src), value: 0, ready: false }
    }
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: u32,
    inst: Inst,
    state: EState,
    result: u64,
    has_result: bool,
    ops: Vec<Operand>,
    predicted_taken: bool,
    actual_taken: bool,
    /// For stores: address handed to the LSQ.
    addr_done: bool,
    data_done: bool,
}

impl RobEntry {
    fn ops_ready(&self) -> bool {
        self.ops.iter().all(|o| o.ready)
    }
    fn is_load(&self) -> bool {
        matches!(self.inst, Inst::Load { .. })
    }
    fn is_store(&self) -> bool {
        matches!(self.inst, Inst::Store { .. })
    }
    fn is_amo(&self) -> bool {
        matches!(self.inst, Inst::Amo { .. })
    }
    fn is_branch(&self) -> bool {
        matches!(self.inst, Inst::Branch { .. })
    }
}

/// Word-align an effective address (wrong-path address arithmetic may
/// produce unaligned garbage; real hardware would fault, we mask).
fn align(ea: u64) -> Addr {
    Addr(ea & !7)
}

/// A snapshot of why a core is failing to make forward progress,
/// exported for wedge diagnosis (see `wb_kernel::wedge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInfo {
    /// Stable reason tag: `"rob-head-load"`, `"rob-head-amo"`,
    /// `"sb-drain"`, `"sb-full"`, `"unperformed-load"`, … .
    pub kind: &'static str,
    /// Sequence number of the blocking instruction, if identifiable.
    pub seq: Option<u64>,
    /// Cache line being waited on, if identifiable.
    pub line: Option<u64>,
}

/// One out-of-order core.
pub struct Core {
    id: NodeId,
    cfg: CoreConfig,
    protocol: ProtocolKind,
    program: Program,
    pc: u32,
    fetch_halted: bool,
    halted: bool,
    fetch_stall_until: Cycle,
    next_seq: u64,
    rob: Vec<RobEntry>,
    lsq: Lsq,
    arch_regs: [u64; Reg::COUNT],
    last_commit_seq: [u64; Reg::COUNT],
    rat: [Option<u64>; Reg::COUNT],
    predictor: Bimodal,
    /// Lines whose stores resolved this cycle and want an early GetX
    /// (drained in `drain_store_buffer`).
    prefetch_writes: Vec<LineAddr>,
    /// ECL mode: loads committed before their data returned, awaiting
    /// value delivery (seq -> destination register).
    ecl_pending: Vec<(u64, Option<Reg>)>,
    stats: Stats,
    /// Pre-resolved counter slots for the per-cycle hot path.
    h_cycles: CounterHandle,
    h_stall_rob: CounterHandle,
    h_stall_lq: CounterHandle,
    h_stall_sq: CounterHandle,
    h_stall_other: CounterHandle,
    /// Pre-resolved counter slots for the per-instruction hot path.
    h_dispatched: CounterHandle,
    h_loads_committed: CounterHandle,
    h_stores_committed: CounterHandle,
    h_stores_performed: CounterHandle,
    h_loads_forwarded: CounterHandle,
    tracer: Tracer,
    log: ExecutionLog,
    record_events: bool,
    retired: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("pc", &self.pc)
            .field("rob", &self.rob.len())
            .field("halted", &self.halted)
            .finish()
    }
}

impl Core {
    /// Build a core running `program`. `record_events` controls whether
    /// committed memory instructions are logged for the TSO checker.
    pub fn new(id: NodeId, cfg: CoreConfig, protocol: ProtocolKind, program: Program) -> Self {
        Core::with_event_log(id, cfg, protocol, program, true)
    }

    /// [`Core::new`] with explicit event-log control.
    pub fn with_event_log(
        id: NodeId,
        cfg: CoreConfig,
        protocol: ProtocolKind,
        program: Program,
        record_events: bool,
    ) -> Self {
        if matches!(cfg.commit_mode, CommitMode::OutOfOrderWb | CommitMode::InOrderEcl) {
            assert_eq!(
                protocol,
                ProtocolKind::WritersBlock,
                "relaxed commit requires the WritersBlock protocol"
            );
        }
        let mut stats = Stats::new();
        let h_cycles = stats.handle("core_cycles");
        let h_stall_rob = stats.handle("core_stall_rob");
        let h_stall_lq = stats.handle("core_stall_lq");
        let h_stall_sq = stats.handle("core_stall_sq");
        let h_stall_other = stats.handle("core_stall_other");
        let h_dispatched = stats.handle("core_dispatched");
        let h_loads_committed = stats.handle("core_loads_committed");
        let h_stores_committed = stats.handle("core_stores_committed");
        let h_stores_performed = stats.handle("core_stores_performed");
        let h_loads_forwarded = stats.handle("core_loads_forwarded");
        Core {
            id,
            predictor: Bimodal::new(cfg.predictor_entries),
            lsq: Lsq::new(cfg.lq_entries, cfg.sq_entries, cfg.sb_entries, cfg.ldt_entries),
            cfg,
            protocol,
            program,
            pc: 0,
            fetch_halted: false,
            halted: false,
            fetch_stall_until: 0,
            next_seq: 1,
            rob: Vec::new(),
            arch_regs: [0; Reg::COUNT],
            last_commit_seq: [0; Reg::COUNT],
            rat: [None; Reg::COUNT],
            prefetch_writes: Vec::new(),
            ecl_pending: Vec::new(),
            stats,
            h_cycles,
            h_stall_rob,
            h_stall_lq,
            h_stall_sq,
            h_stall_other,
            h_dispatched,
            h_loads_committed,
            h_stores_committed,
            h_stores_performed,
            h_loads_forwarded,
            tracer: Tracer::new(CompId::Core(id.0)),
            log: ExecutionLog::new(),
            record_events,
            retired: 0,
        }
    }

    /// The core's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Has the core committed its `Halt`?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Is the core completely drained (halted, empty ROB-relevant state,
    /// empty store buffer)?
    pub fn drained(&self) -> bool {
        self.halted && self.lsq.sb_empty() && self.ecl_pending.is_empty()
    }

    /// Why this core is not making forward progress right now, for
    /// wedge diagnosis. `None` when drained (nothing left to do).
    pub fn stall_info(&self) -> Option<StallInfo> {
        if self.drained() {
            return None;
        }
        if let Some(head) = self.rob.first() {
            let line = if head.is_load() || head.is_amo() {
                self.lsq.load(head.seq).and_then(|e| e.addr).map(|a| a.line().0)
            } else if head.is_store() {
                self.lsq.store(head.seq).and_then(|e| e.addr).map(|a| a.line().0)
            } else {
                None
            };
            let (kind, line) = match head.state {
                EState::WaitMem if head.is_amo() => ("rob-head-amo", line),
                EState::WaitMem => ("rob-head-load", line),
                EState::WaitOps => ("rob-head-waitops", line),
                EState::Executing { .. } => ("rob-head-exec", line),
                EState::Done => {
                    // The head itself is finished, so commit is gated on
                    // something younger/structural: a full store buffer,
                    // or (OoO modes) an older non-performed load.
                    if self.lsq.sb_full() {
                        let l = self.lsq.sb_head().map(|s| s.addr.line().0);
                        ("sb-full", l)
                    } else if let Some(l) = self
                        .lsq
                        .loads()
                        .filter(|e| !e.performed())
                        .min_by_key(|e| e.seq)
                    {
                        ("unperformed-load", l.addr.map(|a| a.line().0))
                    } else {
                        ("commit-blocked", line)
                    }
                }
            };
            return Some(StallInfo { kind, seq: Some(head.seq), line });
        }
        // ROB empty: the core is halted (or fetch-stalled) but not
        // drained — the store buffer or ECL deliveries hold it open.
        if let Some(sb) = self.lsq.sb_head() {
            return Some(StallInfo {
                kind: "sb-drain",
                seq: Some(sb.seq),
                line: Some(sb.addr.line().0),
            });
        }
        if let Some(&(seq, _)) = self.ecl_pending.first() {
            return Some(StallInfo { kind: "ecl-pending", seq: Some(seq), line: None });
        }
        Some(StallInfo { kind: "fetch", seq: None, line: None })
    }

    /// Dynamic instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Architectural value of `r` (committed state).
    pub fn arch_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.arch_regs[r.index()]
        }
    }

    /// Counter access.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Enable event tracing with `filter` (see [`wb_kernel::trace`]).
    pub fn set_trace(&mut self, filter: TraceFilter) {
        self.tracer.set_filter(filter);
    }

    /// The core's event ring buffer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Take the memory-event log (for the TSO checker).
    pub fn take_log(&mut self) -> ExecutionLog {
        std::mem::take(&mut self.log)
    }

    /// One-line pipeline snapshot for debugging stuck simulations.
    pub fn debug_snapshot(&self) -> String {
        let head = self.rob.first().map(|e| format!("{:?}@pc{} {:?}", e.inst, e.pc, e.state));
        let (lq, sq, sb) = self.lsq.occupancy();
        format!(
            "core{} pc={} halted={} rob={} lq={} sq={} sb={} head={:?}",
            self.id.index(),
            self.pc,
            self.halted,
            self.rob.len(),
            lq,
            sq,
            sb,
            head
        )
    }

    fn rob_index(&self, seq: u64) -> Option<usize> {
        self.rob.iter().position(|e| e.seq == seq)
    }

    fn waitops_count(&self) -> usize {
        // Scheduler occupancy: stores whose address generation already
        // issued wait for their data in the SQ, not in the IQ.
        self.rob
            .iter()
            .filter(|e| e.state == EState::WaitOps && !(e.is_store() && e.addr_done))
            .count()
    }

    // ------------------------------------------------------------------
    // The cycle
    // ------------------------------------------------------------------

    /// Advance one cycle, interacting with this core's private cache.
    pub fn tick(&mut self, now: Cycle, cache: &mut PrivateCache) {
        if self.halted && self.lsq.sb_empty() && self.ecl_pending.is_empty() {
            return;
        }
        self.process_completions(now, cache);
        self.writeback(now);
        self.execute_amo(now, cache);
        self.commit(now);
        self.drain_store_buffer(now, cache);
        self.issue_loads(now, cache);
        self.issue(now);
        self.dispatch(now);
        self.release_lockdowns(now, cache);
        self.stats.inc_h(self.h_cycles);
    }

    /// Which Figure 10 stall bucket a no-commit cycle charges, given the
    /// current structural occupancy. Shared by [`Core::commit`],
    /// [`Core::apply_idle_cycles`] and [`Core::idle_stat_deltas`] so
    /// dense and bulk-charged accounting can never drift apart.
    fn idle_stall_key(&self) -> &'static str {
        if self.rob.len() >= self.cfg.rob_entries {
            "core_stall_rob"
        } else if self.lsq.lq_full() {
            "core_stall_lq"
        } else if self.lsq.sq_full() {
            "core_stall_sq"
        } else {
            "core_stall_other"
        }
    }

    fn idle_stall_handle(&self) -> CounterHandle {
        match self.idle_stall_key() {
            "core_stall_rob" => self.h_stall_rob,
            "core_stall_lq" => self.h_stall_lq,
            "core_stall_sq" => self.h_stall_sq,
            _ => self.h_stall_other,
        }
    }

    /// The named counter deltas `k` idle cycles produce — exactly what
    /// [`Core::apply_idle_cycles`] adds. The `SparseVerify` engine
    /// applies one cycle's worth to a pre-tick snapshot of a sleeping
    /// core and compares against the real tick.
    pub fn idle_stat_deltas(&self, k: u64) -> Vec<(&'static str, u64)> {
        let mut v = Vec::new();
        if k == 0 || self.drained() {
            return v;
        }
        v.push(("core_cycles", k));
        if !self.halted && (!self.rob.is_empty() || !self.fetch_halted) {
            v.push((self.idle_stall_key(), k));
        }
        v
    }

    /// Bulk-account `k` cycles in which [`Core::tick`] would have run but
    /// made no progress: the sparse engine's equivalent of `k` idle
    /// dense ticks. The caller must have established (via
    /// [`Core::next_event`]) that the core is inert across the window, so
    /// the only observable effect of those ticks is counter upkeep:
    /// `core_cycles` always advances, and `commit` charges exactly one
    /// stall bucket per cycle unless the core is halted or sits on an
    /// empty pipeline with fetch stopped.
    ///
    /// The engine calls this per core at that core's own wake, charging
    /// exactly the cycles *this* core slept through (the stall bucket
    /// chosen is stable across the slept window because the core's
    /// state did not change while it slept).
    pub fn apply_idle_cycles(&mut self, k: u64) {
        if k == 0 || self.drained() {
            return;
        }
        self.stats.add_h(self.h_cycles, k);
        if !self.halted && (!self.rob.is_empty() || !self.fetch_halted) {
            let h = self.idle_stall_handle();
            self.stats.add_h(h, k);
        }
    }

    /// Earliest future cycle at which [`Core::tick`] could do observable
    /// work, or `None` when the core is drained. `Some(now)` means the
    /// core must be ticked densely this cycle. The check mirrors the tick
    /// phases one by one; where an action's outcome depends on cache
    /// state it errs towards `Some(now)` (skipping less is always safe).
    pub fn next_event(&self, now: Cycle, cache: &PrivateCache) -> Option<Cycle> {
        if self.drained() {
            return None;
        }
        fn merge(next: &mut Option<Cycle>, c: Cycle) {
            *next = Some(next.map_or(c, |n| n.min(c)));
        }
        // process_completions: anything the cache finished is consumed.
        if cache.has_completions() {
            return Some(now);
        }
        let mut next: Option<Cycle> = None;
        // writeback / deliver_ecl_values: performed loads wake at
        // `wake_at`, functional units at `done_at`. issue(): a WaitOps
        // entry acts as soon as its operands are ready.
        for &(seq, _) in &self.ecl_pending {
            if let Some(e) = self.lsq.load(seq) {
                if e.performed() {
                    if e.wake_at <= now {
                        return Some(now);
                    }
                    merge(&mut next, e.wake_at);
                }
            }
        }
        for e in &self.rob {
            match e.state {
                EState::WaitMem if e.is_load() || e.is_amo() => {
                    if let Some(lq) = self.lsq.load(e.seq) {
                        if lq.performed() {
                            if lq.wake_at <= now {
                                return Some(now);
                            }
                            merge(&mut next, lq.wake_at);
                        }
                    }
                }
                EState::Executing { done_at } => {
                    if done_at <= now {
                        return Some(now);
                    }
                    merge(&mut next, done_at);
                }
                EState::WaitOps => {
                    let acts = match e.inst {
                        Inst::Store { .. } => {
                            (e.ops[0].ready && !e.addr_done)
                                || (e.ops[1].ready && !e.data_done)
                        }
                        Inst::Alu { .. }
                        | Inst::AluImm { .. }
                        | Inst::Branch { .. }
                        | Inst::Load { .. }
                        | Inst::Amo { .. } => e.ops_ready(),
                        _ => false,
                    };
                    if acts {
                        return Some(now);
                    }
                }
                _ => {}
            }
        }
        // execute_amo: a head atomic with a drained SB either performs
        // (line writable) or issues/charges a GetX via ensure_writable —
        // unless a write MSHR is already outstanding (a true no-op).
        if let Some(head) = self.rob.first() {
            if head.is_amo()
                && head.state == EState::WaitMem
                && self.lsq.sb_empty()
                && self
                    .lsq
                    .load(head.seq)
                    .is_some_and(|l| !l.performed() && l.addr.is_some())
            {
                let line = self.lsq.load(head.seq).unwrap().addr.unwrap().line();
                if cache.is_writable(line) || !cache.has_write_mshr(line) {
                    return Some(now);
                }
            }
        }
        // commit: replicate the scan exactly (in-order modes stop at the
        // first non-committable entry).
        if !self.halted {
            let oldest_unresolved_branch = self
                .rob
                .iter()
                .filter(|e| e.is_branch() && e.state != EState::Done)
                .map(|e| e.seq)
                .min();
            let oldest_unresolved_store = self.lsq.oldest_unresolved_store();
            let in_order =
                matches!(self.cfg.commit_mode, CommitMode::InOrder | CommitMode::InOrderEcl);
            for idx in 0..self.rob.len().min(self.cfg.commit_depth) {
                if self.can_commit(idx, idx == 0, oldest_unresolved_branch, oldest_unresolved_store)
                {
                    return Some(now);
                }
                if in_order {
                    break;
                }
            }
        }
        // drain_store_buffer: pending prefetches always act; every SB
        // line gets an ensure_writable (a no-op only when writable or
        // already requested); a writable head store performs.
        if !self.prefetch_writes.is_empty() {
            return Some(now);
        }
        for e in self.lsq.sb_entries() {
            let line = e.addr.line();
            if !cache.is_writable(line) && !cache.has_write_mshr(line) {
                return Some(now);
            }
        }
        if let Some(head) = self.lsq.sb_head() {
            if cache.is_writable(head.addr.line()) {
                return Some(now);
            }
        }
        // issue_loads: a Ready load acts unless suppressed (SoS-retry or
        // owed-ack gating) or store-forwarding says Wait; even a blocked
        // cache access charges a counter, so any other outcome acts.
        for e in self.lsq.loads() {
            if e.is_amo || e.state != LoadState::Ready {
                continue;
            }
            let Some(addr) = e.addr else { continue };
            let sos = self.lsq.is_sos(e.seq);
            if e.retry_when_sos && !sos {
                continue;
            }
            if !sos && self.lsq.owes_ack(addr.line()) {
                continue;
            }
            if self.lsq.forward(e.seq, addr) != ForwardResult::Wait {
                return Some(now);
            }
        }
        // SoS tear-off bypass retries every cycle while the write MSHR
        // carries a blocked hint.
        if let Some(sos) = self.lsq.sos_seq() {
            if let Some(e) = self.lsq.load(sos) {
                if !e.is_amo && e.state == LoadState::Requested {
                    if let Some(addr) = e.addr {
                        if cache.write_blocked(addr.line()) {
                            return Some(now);
                        }
                    }
                }
            }
        }
        // dispatch: fetches whenever structures have room, possibly
        // gated by a squash-penalty timer.
        if !self.fetch_halted && !self.halted {
            let inst = self.program.fetch(self.pc).unwrap_or(Inst::Halt);
            let lsq_room = match inst {
                Inst::Load { .. } | Inst::Amo { .. } => !self.lsq.lq_full(),
                Inst::Store { .. } => !self.lsq.sq_full(),
                _ => true,
            };
            if self.rob.len() < self.cfg.rob_entries
                && self.waitops_count() < self.cfg.iq_entries
                && lsq_room
            {
                if now >= self.fetch_stall_until {
                    return Some(now);
                }
                merge(&mut next, self.fetch_stall_until);
            }
        }
        next
    }

    // ------------------------------------------------------------------
    // Completions from the cache
    // ------------------------------------------------------------------

    fn process_completions(&mut self, now: Cycle, cache: &mut PrivateCache) {
        for c in cache.take_completions() {
            match c {
                Completion::LoadData { tags, line, data, cacheable } => {
                    if cacheable {
                        for t in tags {
                            self.bind_load(now, t.0, line, &data);
                        }
                    } else {
                        // A tear-off copy: usable once, and only by an
                        // ordered load (Section 3.4).
                        let mut used = false;
                        for t in tags {
                            let Some(e) = self.lsq.load_mut(t.0) else { continue };
                            if e.performed() {
                                continue;
                            }
                            let sos = self.lsq.is_sos(t.0);
                            let e = self.lsq.load_mut(t.0).expect("still present");
                            if sos && !used {
                                used = true;
                                let idx = e.addr.expect("requested load has addr").word_index();
                                e.value = data.word(idx);
                                e.state = LoadState::Performed;
                                e.wake_at = now + 1;
                                self.stats.inc("core_tearoff_binds");
                            } else {
                                e.state = LoadState::Ready;
                                e.retry_when_sos = true;
                                self.stats.inc("core_tearoff_retries");
                            }
                        }
                    }
                }
                Completion::WriteReady { .. } => {}
                Completion::WriteBlocked { .. } => {
                    self.stats.inc("core_write_blocked_hints");
                }
            }
        }
    }

    fn bind_load(&mut self, now: Cycle, seq: u64, line: LineAddr, data: &wb_mem::LineData) {
        // Reordered = an older load has not performed yet at bind time
        // (computed before this load flips to Performed; skipped entirely
        // when LSQ tracing is off so the bind path stays scan-free).
        let tracing = self.tracer.wants(Category::Lsq);
        let reordered = tracing && !self.lsq.is_ordered(seq);
        let Some(e) = self.lsq.load_mut(seq) else { return };
        if e.performed() || e.is_amo {
            return;
        }
        let Some(addr) = e.addr else { return };
        if addr.line() != line {
            return;
        }
        e.value = data.word(addr.word_index());
        e.state = LoadState::Performed;
        e.wake_at = now + 1;
        self.tracer.record(now, TraceEvent::LoadBind { seq, line: line.0, reordered });
    }

    // ------------------------------------------------------------------
    // Writeback: finish executing instructions, resolve branches
    // ------------------------------------------------------------------

    fn writeback(&mut self, now: Cycle) {
        self.deliver_ecl_values(now);
        // Loads whose value has arrived become Done.
        let mut finished: Vec<(u64, u64)> = Vec::new(); // (seq, value)
        for e in &self.rob {
            if e.state == EState::WaitMem && (e.is_load() || e.is_amo()) {
                if let Some(lq) = self.lsq.load(e.seq) {
                    if lq.performed() && lq.wake_at <= now {
                        finished.push((e.seq, lq.value));
                    }
                }
            }
        }
        for (seq, value) in finished {
            let i = self.rob_index(seq).expect("load in ROB");
            self.rob[i].state = EState::Done;
            self.rob[i].result = value;
            self.rob[i].has_result = true;
            self.broadcast(seq, value);
        }
        // Functional units.
        let done: Vec<u64> = self
            .rob
            .iter()
            .filter(|e| matches!(e.state, EState::Executing { done_at } if done_at <= now))
            .map(|e| e.seq)
            .collect();
        for seq in done {
            // A mispredict squash earlier in this loop may have removed
            // younger completed entries.
            let Some(i) = self.rob_index(seq) else { continue };
            self.rob[i].state = EState::Done;
            if self.rob[i].has_result {
                let v = self.rob[i].result;
                self.broadcast(seq, v);
            }
            if self.rob[i].is_branch() {
                let e = &self.rob[i];
                let (taken, predicted, pc) = (e.actual_taken, e.predicted_taken, e.pc);
                let target = match e.inst {
                    Inst::Branch { target, .. } => target,
                    _ => unreachable!(),
                };
                self.predictor.update(pc, target, taken);
                if taken != predicted {
                    self.stats.inc("core_squash_branch");
                    let redirect = if taken { target } else { pc + 1 };
                    self.squash_after(now, seq, redirect);
                }
            }
        }
    }

    /// ECL mode: early-committed loads whose data has now arrived deliver
    /// their value to the register file, consumers, and the event log.
    fn deliver_ecl_values(&mut self, now: Cycle) {
        if self.ecl_pending.is_empty() {
            return;
        }
        let ready: Vec<(u64, Option<Reg>)> = self
            .ecl_pending
            .iter()
            .filter(|(seq, _)| {
                self.lsq.load(*seq).is_some_and(|e| e.performed() && e.wake_at <= now)
            })
            .copied()
            .collect();
        if ready.is_empty() {
            return;
        }
        self.ecl_pending.retain(|(seq, _)| !ready.iter().any(|(s, _)| s == seq));
        for (seq, rd) in ready {
            self.lsq.mark_delivered(seq);
            let (value, addr) = {
                let e = self.lsq.load(seq).expect("just checked");
                (e.value, e.addr.expect("performed load has addr"))
            };
            if let Some(r) = rd {
                if seq >= self.last_commit_seq[r.index()] {
                    self.arch_regs[r.index()] = value;
                    self.last_commit_seq[r.index()] = seq;
                }
                if self.rat[r.index()] == Some(seq) {
                    self.rat[r.index()] = None;
                }
            }
            self.broadcast(seq, value);
            if self.record_events {
                self.log.push(MemEvent {
                    core: self.id.index(),
                    seq,
                    addr,
                    op: MemOp::Load { value },
                });
            }
            self.stats.inc("core_ecl_loads_delivered");
        }
    }

    fn broadcast(&mut self, seq: u64, value: u64) {
        for e in &mut self.rob {
            for o in &mut e.ops {
                if o.src == Some(seq) {
                    o.src = None;
                    o.value = value;
                    o.ready = true;
                }
            }
        }
    }

    /// Squash every instruction *younger than* `seq` and refetch at
    /// `redirect`.
    fn squash_after(&mut self, now: Cycle, seq: u64, redirect: u32) {
        self.squash_from(now, seq + 1, redirect);
    }

    /// Squash every instruction with sequence `>= from`.
    fn squash_from(&mut self, now: Cycle, from: u64, redirect: u32) {
        self.rob.retain(|e| e.seq < from);
        self.lsq.squash(from);
        // Rebuild the RAT from surviving producers.
        self.rat = [None; Reg::COUNT];
        for e in &self.rob {
            if let Some(r) = e.inst.dest() {
                self.rat[r.index()] = Some(e.seq);
            }
        }
        self.pc = redirect;
        self.fetch_stall_until = now + self.cfg.squash_penalty;
        self.fetch_halted = false;
        self.stats.inc("core_squashes");
    }

    // ------------------------------------------------------------------
    // Atomics (Section 3.7): execute at the ROB head with a drained SB
    // ------------------------------------------------------------------

    fn execute_amo(&mut self, now: Cycle, cache: &mut PrivateCache) {
        let Some(head) = self.rob.first() else { return };
        if !head.is_amo() || head.state != EState::WaitMem {
            return;
        }
        let seq = head.seq;
        let Inst::Amo { op, .. } = head.inst else { unreachable!() };
        let (src_v, cmp_v) = {
            let e = &self.rob[0];
            let src_v = e.ops[1].value;
            let cmp_v = e.ops.get(2).map(|o| o.value).unwrap_or(0);
            (src_v, cmp_v)
        };
        let Some(lq) = self.lsq.load(seq) else { return };
        if lq.performed() {
            return;
        }
        let Some(addr) = lq.addr else { return };
        // The atomic's load may not bypass the store buffer (Section 3.7).
        if !self.lsq.sb_empty() {
            return;
        }
        if !cache.ensure_writable(now, addr.line()) {
            return;
        }
        let mut wrote = true;
        let old = cache
            .rmw_perform(now, addr, |old| match op {
                AmoOp::Swap => src_v,
                AmoOp::Add => old.wrapping_add(src_v),
                AmoOp::Cas => {
                    if old == cmp_v {
                        src_v
                    } else {
                        wrote = false;
                        old
                    }
                }
            })
            .expect("just ensured writable");
        let new = match op {
            AmoOp::Swap => src_v,
            AmoOp::Add => old.wrapping_add(src_v),
            AmoOp::Cas => {
                if wrote {
                    src_v
                } else {
                    old
                }
            }
        };
        let lq = self.lsq.load_mut(seq).expect("amo in LQ");
        lq.value = old;
        lq.state = LoadState::Performed;
        lq.wake_at = now + 1;
        self.stats.inc("core_amos_performed");
        // Log: a successful RMW is an atomic read+write; a failed CAS is
        // just a read (logging it as weaker-than-executed is conservative
        // for the checker).
        if self.record_events {
            if wrote {
                self.log.push(MemEvent {
                    core: self.id.index(),
                    seq,
                    addr,
                    op: MemOp::Rmw { old, new, performed_at: now },
                });
            } else {
                self.log.push(MemEvent {
                    core: self.id.index(),
                    seq,
                    addr,
                    op: MemOp::Load { value: old },
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self, now: Cycle) {
        if self.halted {
            return;
        }
        let width = self.cfg.width;
        let mode = self.cfg.commit_mode;
        let oldest_unresolved_branch =
            self.rob.iter().filter(|e| e.is_branch() && e.state != EState::Done).map(|e| e.seq).min();
        let oldest_unresolved_store = self.lsq.oldest_unresolved_store();
        let mut committed = 0;
        let mut idx = 0;
        while idx < self.rob.len().min(self.cfg.commit_depth) && committed < width {
            if self.halted {
                break;
            }
            let at_head = idx == 0;
            if self.can_commit(idx, at_head, oldest_unresolved_branch, oldest_unresolved_store) {
                self.do_commit(now, idx);
                committed += 1;
            } else {
                if matches!(mode, CommitMode::InOrder | CommitMode::InOrderEcl) {
                    break;
                }
                idx += 1;
            }
        }
        // Figure 10 stall accounting: a cycle in which nothing committed,
        // attributed to the full structure that caused it.
        if committed == 0 && !self.halted && (!self.rob.is_empty() || !self.fetch_halted) {
            let h = self.idle_stall_handle();
            self.stats.inc_h(h);
        }
    }

    fn can_commit(
        &self,
        idx: usize,
        at_head: bool,
        oldest_unresolved_branch: Option<u64>,
        oldest_unresolved_store: Option<u64>,
    ) -> bool {
        let e = &self.rob[idx];
        // Condition 1: completed — except ECL loads, which may retire from
        // the head with their data still in flight (Section 1: early
        // commit of loads), provided the address is resolved, no older
        // atomic is pending (Section 3.7) and the protocol can hide any
        // reordering among them.
        if e.state != EState::Done {
            if self.cfg.commit_mode == CommitMode::InOrderEcl
                && e.is_load()
                && at_head
                && self
                    .lsq
                    .load(e.seq)
                    .is_some_and(|l| l.addr.is_some())
                && !self.lsq.older_unperformed_amo(e.seq)
            {
                // fall through: commit early
            } else {
                return false;
            }
        }
        // Halt commits only from the head (it ends the program).
        if matches!(e.inst, Inst::Halt) && !at_head {
            return false;
        }
        // Condition 3: no older unresolved branch.
        if oldest_unresolved_branch.is_some_and(|b| e.seq > b) {
            return false;
        }
        // Condition 4: no older store/atomic with an unresolved address.
        if oldest_unresolved_store.is_some_and(|s| e.seq > s) {
            return false;
        }
        // Condition 6: consistency — and squash safety. No instruction of
        // ANY kind may commit past a load that could still be squashed
        // for consistency recovery: in the base protocol that is any
        // older non-performed load (a younger M-speculative load bound to
        // it may be inval-squashed, and the refetch must not replay
        // irrevocably committed work); under WritersBlock only loads past
        // a non-performed atomic can still be inval-squashed (Section
        // 3.7), so only atomics gate commit.
        match self.cfg.commit_mode {
            CommitMode::InOrder => {}
            CommitMode::OutOfOrder => {
                if self.lsq.older_unperformed_load(e.seq) {
                    return false;
                }
            }
            CommitMode::OutOfOrderWb | CommitMode::InOrderEcl => {
                if self.lsq.older_unperformed_amo(e.seq) {
                    return false;
                }
            }
        }
        if e.is_load()
            && !self.lsq.is_ordered(e.seq) {
                // A reordered load: only the relaxed modes may bind it
                // irrevocably — via the LDT (Section 4.2), or by keeping
                // the FIFO LQ entry as the lockdown holder (ECL).
                if !matches!(
                    self.cfg.commit_mode,
                    CommitMode::OutOfOrderWb | CommitMode::InOrderEcl
                ) {
                    return false;
                }
                if self.lsq.older_unperformed_amo(e.seq) {
                    return false; // no lockdowns past atomics (Section 3.7)
                }
                if self.cfg.commit_mode == CommitMode::OutOfOrderWb
                    && self.cfg.collapsible_lq
                    && self.lsq.ldt_full()
                {
                    return false;
                }
            }
        if e.is_store() {
            // load->store order: all prior loads must be ordered
            // (performed); stores commit in order; SB must have room.
            if self.lsq.sos_seq().is_some_and(|sos| sos < e.seq) {
                return false;
            }
            if self.lsq.loads().any(|l| l.seq < e.seq && !l.performed()) {
                return false;
            }
            // Stores leave the SQ in order: only the oldest SQ entry may
            // commit.
            if self.lsq.oldest_store_seq() != Some(e.seq) {
                return false;
            }
            if self.lsq.sb_full() {
                return false;
            }
            // Address and data must be final.
            if !e.addr_done || !e.data_done {
                return false;
            }
        }
        true
    }

    fn do_commit(&mut self, now: Cycle, idx: usize) {
        let e = self.rob.remove(idx);
        // Architectural register state: guard against an older commit
        // overwriting a younger one (out-of-order commit). Loads without
        // a materialized ROB result (ECL commits, or loads committed
        // between perform and wake-up) write the register from their LQ
        // value below / at delivery instead.
        if let Some(r) = e.inst.dest() {
            if e.has_result && e.seq >= self.last_commit_seq[r.index()] {
                self.arch_regs[r.index()] = e.result;
                self.last_commit_seq[r.index()] = e.seq;
            }
            if self.rat[r.index()] == Some(e.seq) && e.has_result {
                self.rat[r.index()] = None;
            }
        }
        match e.inst {
            Inst::Load { .. } => {
                if self.cfg.commit_mode == CommitMode::InOrderEcl
                    && !self.lsq.load(e.seq).is_some_and(|l| l.performed())
                {
                    // Early commit of a load still in flight: the FIFO LQ
                    // entry stays (it will hold the lockdown if the load
                    // performs out of order); the value is delivered to
                    // the register file when it arrives.
                    self.lsq.commit_load_early(e.seq);
                    self.ecl_pending.push((e.seq, e.inst.dest()));
                    self.stats.inc("core_ecl_loads_committed");
                    self.stats.inc_h(self.h_loads_committed);
                    self.retired += 1;
                    return;
                }
                let mspec = !self.lsq.is_ordered(e.seq);
                let lq = if self.cfg.collapsible_lq
                    && self.cfg.commit_mode != CommitMode::InOrderEcl
                {
                    self.lsq.commit_load(e.seq)
                } else {
                    // Footnote 8 / ECL: a FIFO LQ keeps committed loads
                    // resident until they reach the head; the entry itself
                    // holds the lockdown, so nothing is exported to the LDT.
                    self.lsq.commit_load_in_place(e.seq)
                };
                let addr = lq.addr.expect("performed load has addr");
                if !e.has_result {
                    // Performed but committed before wake-up: the value
                    // lives in the LQ entry, not the ROB result.
                    if let Some(r) = e.inst.dest() {
                        if e.seq >= self.last_commit_seq[r.index()] {
                            self.arch_regs[r.index()] = lq.value;
                            self.last_commit_seq[r.index()] = e.seq;
                        }
                        if self.rat[r.index()] == Some(e.seq) {
                            self.rat[r.index()] = None;
                        }
                        // Consumers that captured the dependency still
                        // need the wake-up broadcast.
                        self.broadcast(e.seq, lq.value);
                    }
                }
                if self.record_events {
                    self.log.push(MemEvent {
                        core: self.id.index(),
                        seq: e.seq,
                        addr,
                        op: MemOp::Load { value: lq.value },
                    });
                }
                self.stats.inc_h(self.h_loads_committed);
                self.tracer.record(
                    now,
                    TraceEvent::LoadCommit { seq: e.seq, line: addr.line().0, reordered: mspec },
                );
                if mspec {
                    self.stats.inc("core_loads_ooo_committed");
                    if self.cfg.collapsible_lq && self.cfg.commit_mode == CommitMode::OutOfOrderWb {
                        // Irrevocably binding a reordered load: export the
                        // lockdown to the LDT (Section 4.2).
                        let ok = self.lsq.export_to_ldt(e.seq, addr.line(), lq.seen);
                        debug_assert!(ok, "LDT space was checked in can_commit");
                    }
                }
            }
            Inst::Store { .. } => {
                self.lsq.commit_store(e.seq);
                self.stats.inc_h(self.h_stores_committed);
            }
            Inst::Amo { .. } => {
                self.lsq.commit_load(e.seq);
                self.stats.inc("core_amos_committed");
            }
            Inst::Halt => {
                self.halted = true;
            }
            _ => {}
        }
        self.retired += 1;
    }

    // ------------------------------------------------------------------
    // Store buffer drain + write-permission prefetch
    // ------------------------------------------------------------------

    fn drain_store_buffer(&mut self, now: Cycle, cache: &mut PrivateCache) {
        // Early (address-resolution-time) write-permission prefetches.
        for line in std::mem::take(&mut self.prefetch_writes) {
            let _ = cache.ensure_writable(now, line);
        }
        // Prefetch write permission for every line in the SB (Section
        // 3.6: writes can be requested in any order; the paper's
        // aggressive cores prefetch while waiting).
        let lines: Vec<LineAddr> = {
            let mut v: Vec<LineAddr> = self.lsq.sb_entries().map(|e| e.addr.line()).collect();
            v.dedup();
            v
        };
        for line in lines {
            let _ = cache.ensure_writable(now, line);
        }
        // Perform the head store (stores are performed in order).
        if let Some(head) = self.lsq.sb_head().copied() {
            if cache.is_writable(head.addr.line()) && cache.store_perform(now, head.addr, head.data) {
                if self.record_events {
                    self.log.push(MemEvent {
                        core: self.id.index(),
                        seq: head.seq,
                        addr: head.addr,
                        op: MemOp::Store { value: head.data, performed_at: now },
                    });
                }
                self.lsq.sb_pop();
                self.stats.inc_h(self.h_stores_performed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Load memory issue
    // ------------------------------------------------------------------

    fn issue_loads(&mut self, now: Cycle, cache: &mut PrivateCache) {
        let mut slots = self.cfg.width;
        let ready: Vec<u64> = self
            .lsq
            .loads()
            .filter(|e| !e.is_amo && e.state == LoadState::Ready && e.addr.is_some())
            .map(|e| e.seq)
            .collect();
        for seq in ready {
            if slots == 0 {
                break;
            }
            let sos = self.lsq.is_sos(seq);
            let e = self.lsq.load(seq).expect("just listed");
            let addr = e.addr.expect("ready load has addr");
            if e.retry_when_sos && !sos {
                continue;
            }
            // Optimization of Section 3.4: do not issue unordered loads
            // for a line with an active lockdown that has already been
            // invalidated — they would only receive unusable tear-offs.
            if !sos && self.lsq.owes_ack(addr.line()) {
                continue;
            }
            match self.lsq.forward(seq, addr) {
                ForwardResult::Value(v) => {
                    let e = self.lsq.load_mut(seq).expect("present");
                    e.value = v;
                    e.state = LoadState::Performed;
                    e.wake_at = now + 1;
                    e.forwarded = true;
                    self.stats.inc_h(self.h_loads_forwarded);
                    slots -= 1;
                }
                ForwardResult::Wait => {}
                ForwardResult::None => {
                    slots -= 1;
                    match cache.load_access(now, ReadTag(seq), addr, sos) {
                        LoadAccess::Hit { value, latency } => {
                            let e = self.lsq.load_mut(seq).expect("present");
                            e.value = value;
                            e.state = LoadState::Performed;
                            e.wake_at = now + latency;
                        }
                        LoadAccess::Miss => {
                            let e = self.lsq.load_mut(seq).expect("present");
                            e.state = LoadState::Requested;
                        }
                        LoadAccess::Blocked => {
                            self.stats.inc("core_load_issue_blocked");
                        }
                    }
                }
            }
        }
        // The SoS load bypasses a blocked write MSHR with a fresh
        // tear-off read (Section 3.5.2).
        if let Some(sos) = self.lsq.sos_seq() {
            if let Some(e) = self.lsq.load(sos) {
                if !e.is_amo && e.state == LoadState::Requested {
                    if let Some(addr) = e.addr {
                        if cache.write_blocked(addr.line()) {
                            let _ = cache.load_access(now, ReadTag(sos), addr, true);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue (schedule) + address generation
    // ------------------------------------------------------------------

    fn issue(&mut self, now: Cycle) {
        let mut slots = self.cfg.width;
        let mut i = 0;
        while i < self.rob.len() && slots > 0 {
            let e = &self.rob[i];
            if e.state != EState::WaitOps {
                i += 1;
                continue;
            }
            match e.inst {
                Inst::Alu { op, .. }
                    if e.ops_ready() => {
                        let v = op.apply(e.ops[0].value, e.ops[1].value);
                        let ent = &mut self.rob[i];
                        ent.result = v;
                        ent.has_result = true;
                        ent.state = EState::Executing { done_at: now + op.latency() };
                        slots -= 1;
                    }
                Inst::AluImm { op, imm, .. }
                    if e.ops_ready() => {
                        let v = op.apply(e.ops[0].value, imm);
                        let ent = &mut self.rob[i];
                        ent.result = v;
                        ent.has_result = true;
                        ent.state = EState::Executing { done_at: now + op.latency() };
                        slots -= 1;
                    }
                Inst::Branch { cond, .. }
                    if e.ops_ready() => {
                        let taken = cond.eval(e.ops[0].value, e.ops[1].value);
                        let ent = &mut self.rob[i];
                        ent.actual_taken = taken;
                        ent.state = EState::Executing { done_at: now + 1 };
                        slots -= 1;
                    }
                Inst::Load { offset, .. }
                    if e.ops_ready() => {
                        let addr = align(e.ops[0].value.wrapping_add(offset as u64));
                        let seq = e.seq;
                        let ent = &mut self.rob[i];
                        ent.state = EState::WaitMem;
                        let lq = self.lsq.load_mut(seq).expect("load in LQ");
                        lq.addr = Some(addr);
                        lq.state = LoadState::Ready;
                        slots -= 1;
                    }
                Inst::Store { offset, .. } => {
                    let seq = e.seq;
                    let base_ready = e.ops[0].ready;
                    let data_ready = e.ops[1].ready;
                    let addr_done = e.addr_done;
                    let data_done = e.data_done;
                    let mut consumed = false;
                    if base_ready && !addr_done {
                        let addr = align(self.rob[i].ops[0].value.wrapping_add(offset as u64));
                        self.rob[i].addr_done = true;
                        self.lsq.store_mut(seq).expect("store in SQ").addr = Some(addr);
                        consumed = true;
                        if self.cfg.write_prefetch_at_resolve {
                            // Aggressive write-permission prefetch
                            // (Section 3.1.2); harmless if squashed.
                            self.prefetch_writes.push(addr.line());
                        }
                        // Late address resolution: squash younger loads
                        // that speculatively read this word (memory-order
                        // violation).
                        if self.memory_order_check(now, seq, addr) {
                            return; // squash invalidated iteration state
                        }
                    }
                    if data_ready && !data_done {
                        self.rob[i].data_done = true;
                        self.lsq.store_mut(seq).expect("store in SQ").data = Some(self.rob[i].ops[1].value);
                    }
                    if self.rob[i].addr_done && self.rob[i].data_done {
                        self.rob[i].state = EState::Done;
                    }
                    if consumed {
                        slots -= 1;
                    }
                }
                Inst::Amo { offset, .. }
                    if e.ops_ready() => {
                        let addr = align(e.ops[0].value.wrapping_add(offset as u64));
                        let seq = e.seq;
                        self.rob[i].state = EState::WaitMem;
                        let lq = self.lsq.load_mut(seq).expect("amo in LQ");
                        lq.addr = Some(addr);
                        slots -= 1;
                        if self.memory_order_check(now, seq, addr) {
                            return;
                        }
                    }
                // Imm/Nop/Jump/Halt were completed at dispatch.
                _ => {}
            }
            i += 1;
        }
    }

    /// Squash younger loads that already read `addr` before this older
    /// writer resolved it. Returns true if a squash happened.
    fn memory_order_check(&mut self, now: Cycle, writer_seq: u64, addr: Addr) -> bool {
        let victims = self.lsq.conflict_victims(writer_seq, addr);
        if let Some(&oldest) = victims.first() {
            self.stats.inc("core_squash_memorder");
            let redirect = self
                .rob_index(oldest)
                .map(|i| self.rob[i].pc)
                .expect("victim load is in the ROB");
            self.squash_from(now, oldest, redirect);
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (fetch + decode + rename)
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: Cycle) {
        if now < self.fetch_stall_until || self.fetch_halted || self.halted {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            if self.waitops_count() >= self.cfg.iq_entries {
                break;
            }
            let inst = self.program.fetch(self.pc).unwrap_or(Inst::Halt);
            match inst {
                Inst::Load { .. } | Inst::Amo { .. } if self.lsq.lq_full() => break,
                Inst::Store { .. } if self.lsq.sq_full() => break,
                _ => {}
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let pc = self.pc;
            let ops = self.capture_operands(&inst);
            let mut entry = RobEntry {
                seq,
                pc,
                inst,
                state: EState::WaitOps,
                result: 0,
                has_result: false,
                ops,
                predicted_taken: false,
                actual_taken: false,
                addr_done: false,
                data_done: false,
            };
            match inst {
                Inst::Imm { value, .. } => {
                    entry.result = value;
                    entry.has_result = true;
                    entry.state = EState::Done;
                }
                Inst::Nop => entry.state = EState::Done,
                Inst::Jump { target } => {
                    entry.state = EState::Done;
                    self.pc = target;
                }
                Inst::Halt => {
                    entry.state = EState::Done;
                    self.fetch_halted = true;
                }
                Inst::Branch { target, .. } => {
                    let predicted = self.predictor.predict(pc, target);
                    entry.predicted_taken = predicted;
                    self.pc = if predicted { target } else { pc + 1 };
                }
                Inst::Load { .. } => {
                    self.lsq.alloc_load(seq, false);
                    self.pc = pc + 1;
                }
                Inst::Amo { .. } => {
                    self.lsq.alloc_load(seq, true);
                    self.pc = pc + 1;
                }
                Inst::Store { .. } => {
                    self.lsq.alloc_store(seq);
                    self.pc = pc + 1;
                }
                _ => self.pc = pc + 1,
            }
            if !matches!(inst, Inst::Jump { .. } | Inst::Branch { .. } | Inst::Halt) && entry.state == EState::Done {
                self.pc = pc + 1;
            }
            // Register the destination in the RAT.
            if let Some(r) = inst.dest() {
                self.rat[r.index()] = Some(seq);
            }
            self.rob.push(entry);
            self.stats.inc_h(self.h_dispatched);
            if matches!(inst, Inst::Halt) {
                break;
            }
        }
    }

    fn capture_operands(&self, inst: &Inst) -> Vec<Operand> {
        let regs: Vec<Reg> = match *inst {
            Inst::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::AluImm { rs1, .. } => vec![rs1],
            Inst::Load { base, .. } => vec![base],
            Inst::Store { base, src, .. } => vec![base, src],
            Inst::Amo { op, base, src, cmp, .. } => {
                if op == AmoOp::Cas {
                    vec![base, src, cmp]
                } else {
                    vec![base, src]
                }
            }
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            _ => vec![],
        };
        regs.iter()
            .map(|&r| {
                if r.is_zero() {
                    return Operand::ready_with(0);
                }
                match self.rat[r.index()] {
                    None => Operand::ready_with(self.arch_regs[r.index()]),
                    Some(p) => {
                        match self.rob.iter().find(|e| e.seq == p) {
                            Some(producer) if producer.state == EState::Done => {
                                Operand::ready_with(producer.result)
                            }
                            Some(_) => Operand::waiting(p),
                            None => {
                                // An ECL-committed load still in flight:
                                // its broadcast arrives at value delivery.
                                debug_assert!(
                                    self.ecl_pending.iter().any(|(s, _)| *s == p),
                                    "RAT points to a vanished producer"
                                );
                                Operand::waiting(p)
                            }
                        }
                    }
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Lockdown releases
    // ------------------------------------------------------------------

    fn release_lockdowns(&mut self, now: Cycle, cache: &mut PrivateCache) {
        if !self.cfg.collapsible_lq || self.cfg.commit_mode == CommitMode::InOrderEcl {
            self.lsq.drain_committed_head();
        }
        self.lsq.release_ldt();
        for line in self.lsq.collect_releases() {
            cache.release_lockdown(now, line);
            self.stats.inc("core_lockdown_releases");
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serialize the core's mutable state. Configuration (id, core
    /// config, protocol, program) and the tracer are reconstructed from
    /// the builder, not the snapshot; ROB instruction words are refetched
    /// from the program by PC on restore (which is why this pair is
    /// written by hand and is not a `snap_component!` declaration).
    pub fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        use wb_kernel::Snap;
        w.u32(self.pc);
        w.bool(self.fetch_halted);
        w.bool(self.halted);
        w.u64(self.fetch_stall_until);
        w.u64(self.next_seq);
        w.usize(self.rob.len());
        for e in &self.rob {
            w.u64(e.seq);
            w.u32(e.pc);
            e.state.snap(w);
            w.u64(e.result);
            w.bool(e.has_result);
            e.ops.snap(w);
            w.bool(e.predicted_taken);
            w.bool(e.actual_taken);
            w.bool(e.addr_done);
            w.bool(e.data_done);
        }
        self.lsq.snap(w);
        self.arch_regs.snap(w);
        self.last_commit_seq.snap(w);
        self.rat.snap(w);
        self.predictor.snap(w);
        self.prefetch_writes.snap(w);
        self.ecl_pending.snap(w);
        self.stats.snap(w);
        self.log.snap(w);
        w.u64(self.retired);
    }

    /// Inverse of [`Core::snap`], applied over a freshly built core with
    /// the same configuration and program.
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        use wb_kernel::Snap;
        self.pc = r.u32()?;
        self.fetch_halted = r.bool()?;
        self.halted = r.bool()?;
        self.fetch_stall_until = r.u64()?;
        self.next_seq = r.u64()?;
        let n = r.len_for(8)?;
        let mut rob = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            let pc = r.u32()?;
            let state = EState::unsnap(r)?;
            let result = r.u64()?;
            let has_result = r.bool()?;
            let ops: Vec<Operand> = Vec::unsnap(r)?;
            let predicted_taken = r.bool()?;
            let actual_taken = r.bool()?;
            let addr_done = r.bool()?;
            let data_done = r.bool()?;
            // The instruction word is not serialized: programs are
            // immutable, so the dispatch-time fetch replays exactly.
            let inst = self.program.fetch(pc).unwrap_or(Inst::Halt);
            rob.push(RobEntry {
                seq,
                pc,
                inst,
                state,
                result,
                has_result,
                ops,
                predicted_taken,
                actual_taken,
                addr_done,
                data_done,
            });
        }
        self.rob = rob;
        self.lsq.restore(r)?;
        self.arch_regs.unsnap_into(r)?;
        self.last_commit_seq.unsnap_into(r)?;
        self.rat.unsnap_into(r)?;
        self.predictor.unsnap_into(r)?;
        self.prefetch_writes.unsnap_into(r)?;
        self.ecl_pending.unsnap_into(r)?;
        self.stats.unsnap_into(r)?;
        self.log.unsnap_into(r)?;
        self.retired = r.u64()?;
        Ok(())
    }
}

wb_kernel::snap_enum!(EState { 0 => WaitOps, 1 => Executing { done_at }, 2 => WaitMem, 3 => Done });
wb_kernel::snap_struct!(Operand { src, value, ready });

// ----------------------------------------------------------------------
// The invalidation hook (Figure 2)
// ----------------------------------------------------------------------

impl CoreSide for Core {
    fn on_invalidation(&mut self, now: Cycle, line: LineAddr) -> InvalResponse {
        match self.protocol {
            ProtocolKind::BaseMesi => {
                // Figure 2.A: squash M-speculative loads matching the
                // line, then acknowledge.
                let victims = self.lsq.mspec_matches(line);
                if let Some(&oldest) = victims.first() {
                    self.stats.inc("core_squash_inval");
                    if let Some(i) = self.rob_index(oldest) {
                        let redirect = self.rob[i].pc;
                        self.squash_from(now, oldest, redirect);
                    }
                }
                InvalResponse::Ack
            }
            ProtocolKind::WritersBlock => {
                // Loads past a non-performed atomic may not hold
                // lockdowns (Section 3.7): squash those instead.
                let ineligible: Vec<u64> = self
                    .lsq
                    .mspec_matches(line)
                    .into_iter()
                    .filter(|&s| self.lsq.older_unperformed_amo(s))
                    .collect();
                if let Some(&oldest) = ineligible.first() {
                    self.stats.inc("core_squash_inval");
                    if let Some(i) = self.rob_index(oldest) {
                        let redirect = self.rob[i].pc;
                        self.squash_from(now, oldest, redirect);
                    }
                }
                // Figure 2.B: surviving matches go into (or already are
                // in) lockdown; set the S bit and withhold the Ack.
                if self.lsq.has_lockdown(line) {
                    self.lsq.mark_seen(line);
                    self.stats.inc("core_lockdowns_seen");
                    InvalResponse::Nack
                } else {
                    InvalResponse::Ack
                }
            }
        }
    }

    fn has_mspec(&self, line: LineAddr) -> bool {
        self.lsq.has_lockdown(line)
    }

    fn on_eviction(&mut self, now: Cycle, line: LineAddr) {
        // A non-silent eviction in the base protocol: squash matching
        // M-speculative loads (Section 3.8) — the directory will no
        // longer tell us about writes to this line.
        let victims = self.lsq.mspec_matches(line);
        if let Some(&oldest) = victims.first() {
            self.stats.inc("core_squash_eviction");
            if let Some(i) = self.rob_index(oldest) {
                let redirect = self.rob[i].pc;
                self.squash_from(now, oldest, redirect);
            }
        }
    }
}
