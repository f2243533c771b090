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
//!
//! Every phase of [`Core::tick`] acts only where one of the `&self`
//! phase guards says it has work, and [`Core::next_event`] — the sparse
//! engine's sleep claim — asks the same guards, so each pipeline rule is
//! stated once for both.
//!
//! The tick neither rescans, searches nor allocates. The ROB, like the
//! LSQ's queues, is a [`SlotQueue`]: every reference to an in-flight
//! instruction (the RAT, the ROB-LSQ links, the entries due at writeback,
//! the LSQ's marks) is its slot, checked against its sequence number,
//! and a walk from an entry starts at its position. Operands live inline
//! in their entry, and the answers a phase would otherwise rescan for
//! (IQ occupancy, issuable entries, the oldest unresolved branch, the
//! entries due at writeback, and the LSQ's SoS load, oldest pending
//! atomic and oldest unresolved store) are kept by the steps that change
//! them. Debug builds check every kept answer and every link against a
//! rescan at the end of each tick.

use std::collections::VecDeque;

use crate::lsq::{ForwardResult, LoadState, LqEntry, Lsq};
use crate::predictor::Bimodal;
use crate::slots::{Ref, Sequenced, Slot, SlotQueue};
use wb_isa::{AmoOp, Inst, Program, Reg};
use wb_kernel::config::{CommitMode, CoreConfig, ProtocolKind, PREDICTOR_ENTRIES, SQUASH_PENALTY};
use wb_kernel::trace::{Category, CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, NodeId, Snap, SnapError, Stats};
use wb_mem::{Addr, LineAddr};
use wb_protocol::{Completion, CoreSide, InvalResponse, LoadAccess, PrivateCache, ReadTag};
use wb_tso::{ExecutionLog, MemEvent, MemOp};

/// `EState::WaitMem`'s wake cycle while the load has not bound a value.
const UNBOUND: Cycle = Cycle::MAX;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    /// Waiting for operands (occupies an IQ slot).
    WaitOps,
    /// In a functional unit; result ready at the cycle inside.
    Executing { done_at: Cycle },
    /// Waiting for the memory system (loads, atomics). Once the LQ entry
    /// binds its value, `wake_at` copies the cycle consumers may use it
    /// ([`UNBOUND`] until then).
    WaitMem { wake_at: Cycle },
    /// Completed; result (if any) final.
    Done,
}

impl EState {
    /// The cycle writeback completes this entry, once that is known.
    fn due(self) -> Option<Cycle> {
        match self {
            EState::Executing { done_at: t } | EState::WaitMem { wake_at: t } if t != UNBOUND => Some(t),
            _ => None,
        }
    }
}

/// Most source operands an instruction reads (a compare-and-swap's
/// base, source and compare value).
const MAX_OPS: usize = 3;

/// The source registers `inst` reads, in operand order, and how many.
fn source_regs(inst: &Inst) -> ([Reg; MAX_OPS], usize) {
    let z = Reg::ZERO;
    match *inst {
        Inst::Alu { rs1, rs2, .. } | Inst::Branch { rs1, rs2, .. } => ([rs1, rs2, z], 2),
        Inst::AluImm { rs1, .. } => ([rs1, z, z], 1),
        Inst::Load { base, .. } => ([base, z, z], 1),
        Inst::Store { base, src, .. } => ([base, src, z], 2),
        Inst::Amo { op: AmoOp::Cas, base, src, cmp, .. } => ([base, src, cmp], 3),
        Inst::Amo { base, src, .. } => ([base, src, z], 2),
        _ => ([z; MAX_OPS], 0),
    }
}

/// One in-flight instruction. Its operands are inline: slot `i` of
/// `ops` holds the operand's value once it is ready, or its producer's
/// sequence number while bit `i` of `waiting` is set (the count is the
/// instruction's, [`source_regs`]).
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    result: u64,
    ops: [u64; MAX_OPS],
    inst: Inst,
    state: EState,
    pc: u32,
    /// This entry's ROB slot.
    slot: Slot,
    /// A load's or atomic's LQ slot, a store's SQ slot (its entry there
    /// has the same sequence number).
    lsq: Slot,
    waiting: u8,
    /// Operand slots of younger entries captured waiting on this one;
    /// its broadcast stops once it has woken that many. Saturates at
    /// `u8::MAX`, which means "not counted": the broadcast walks on.
    consumers: u8,
    has_result: bool,
    predicted_taken: bool,
    actual_taken: bool,
    /// For stores: address handed to the LSQ.
    addr_done: bool,
    data_done: bool,
}

impl RobEntry {
    fn op_ready(&self, i: usize) -> bool {
        self.waiting & (1 << i) == 0
    }
    /// Operand `i`'s value: 0 while it waits, or when the instruction has
    /// no such operand.
    fn op(&self, i: usize) -> u64 {
        if self.op_ready(i) {
            self.ops[i]
        } else {
            0
        }
    }
    /// The producer `seq` broadcast `value`: every slot waiting on it
    /// takes it. Returns how many did.
    fn wake(&mut self, seq: u64, value: u64) -> u8 {
        let mut woke = 0;
        let mut w = self.waiting;
        while w != 0 {
            let i = w.trailing_zeros() as usize;
            w &= w - 1;
            if self.ops[i] == seq {
                self.ops[i] = value;
                self.waiting &= !(1 << i);
                woke += 1;
            }
        }
        woke
    }
    /// Scheduler occupancy: a waiting entry holds an IQ slot, except a
    /// store whose address generation already issued (it waits for its
    /// data in the SQ).
    fn in_iq(&self) -> bool {
        matches!(self.state, EState::WaitOps) && !(self.is_store() && self.addr_done)
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
    /// The reference of this load's, atomic's or store's LQ or SQ entry.
    fn lsq_ref(&self) -> Ref {
        Ref { seq: self.seq, slot: self.lsq }
    }

    /// Issue guard: a waiting entry executes once the operands it needs
    /// are ready. A store generates its address and captures its data
    /// separately, and completes on the pass after both are in (an
    /// address that squashed younger loads ends its pass early).
    fn can_issue(&self) -> bool {
        self.can_issue_waiting_on(self.waiting)
    }

    /// [`RobEntry::can_issue`] were `waiting` the operands' wait mask.
    fn can_issue_waiting_on(&self, waiting: u8) -> bool {
        matches!(self.state, EState::WaitOps)
            && match self.inst {
                Inst::Store { .. } => {
                    (waiting & 1 == 0 && !self.addr_done)
                        || (waiting & 2 == 0 && !self.data_done)
                        || (self.addr_done && self.data_done)
                }
                Inst::Alu { .. }
                | Inst::AluImm { .. }
                | Inst::Branch { .. }
                | Inst::Load { .. }
                | Inst::Amo { .. } => waiting == 0,
                _ => false,
            }
    }
}

impl Sequenced for RobEntry {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn slot(&self) -> Slot {
        self.slot
    }
    fn set_slot(&mut self, slot: Slot) {
        self.slot = slot;
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

/// The commit scan's per-cycle bounds (Bell-Lipasti conditions 3 and
/// 4): the oldest unresolved branch and the oldest store or atomic with
/// an unresolved address.
type CommitBounds = (Option<u64>, Option<u64>);

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
    /// In-flight instructions in sequence order (out-of-order commit and
    /// squashes leave gaps in the numbering).
    rob: SlotQueue<RobEntry>,
    /// ROB entries holding an IQ slot ([`RobEntry::in_iq`]).
    iq_used: usize,
    /// ROB entries that can issue ([`RobEntry::can_issue`]).
    issuable: usize,
    /// The oldest branch in the ROB that has not resolved.
    oldest_branch: Option<u64>,
    /// Every ROB entry whose writeback cycle is known
    /// ([`EState::due`]), ordered by that cycle, then sequence number.
    due: VecDeque<(Cycle, Ref)>,
    lsq: Lsq,
    arch_regs: [u64; Reg::COUNT],
    last_commit_seq: [u64; Reg::COUNT],
    /// Each register's in-flight producer.
    rat: [Option<Ref>; Reg::COUNT],
    predictor: Bimodal,
    /// Lines whose stores resolved this cycle and want an early GetX
    /// (drained in `drain_store_buffer`).
    prefetch_writes: Vec<LineAddr>,
    /// ECL mode: loads committed before their data returned, awaiting
    /// value delivery (LQ entry -> destination register).
    ecl_pending: Vec<(Ref, Option<Reg>)>,
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
        let rob_entries = cfg.rob_entries;
        Core {
            id,
            predictor: Bimodal::new(PREDICTOR_ENTRIES),
            lsq: Lsq::new(cfg.lq_entries, cfg.sq_entries, cfg.ldt_entries),
            cfg,
            protocol,
            program,
            pc: 0,
            fetch_halted: false,
            halted: false,
            fetch_stall_until: 0,
            next_seq: 1,
            rob: SlotQueue::new(rob_entries),
            iq_used: 0,
            issuable: 0,
            oldest_branch: None,
            due: VecDeque::new(),
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
        if let Some(head) = self.rob.front() {
            let line = if head.is_load() || head.is_amo() {
                self.lsq.load(head.lsq_ref()).and_then(|e| e.addr).map(|a| a.line().0)
            } else if head.is_store() {
                self.lsq.store(head.lsq_ref()).and_then(|e| e.addr).map(|a| a.line().0)
            } else {
                None
            };
            let (kind, line) = match head.state {
                EState::WaitMem { .. } if head.is_amo() => ("rob-head-amo", line),
                EState::WaitMem { .. } => ("rob-head-load", line),
                EState::WaitOps => ("rob-head-waitops", line),
                EState::Executing { .. } => ("rob-head-exec", line),
                EState::Done => {
                    // The head itself is finished, so commit is gated on
                    // something younger/structural: a full store buffer,
                    // or (OoO modes) an older non-performed load.
                    if self.lsq.sb_full() {
                        let l = self.lsq.sb_head().map(|s| s.addr.line().0);
                        ("sb-full", l)
                    } else if let Some((_, l)) = self.lsq.sos() {
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
        if let Some(&(l, _)) = self.ecl_pending.first() {
            return Some(StallInfo { kind: "ecl-pending", seq: Some(l.seq), line: None });
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
        let head = self.rob.front().map(|e| format!("{:?}@pc{} {:?}", e.inst, e.pc, e.state));
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

    /// The oldest unresolved branch from position `i` on.
    fn first_unresolved_branch(&self, i: usize) -> Option<u64> {
        self.rob.iter_from(i).find(|e| e.is_branch() && !matches!(e.state, EState::Done)).map(|e| e.seq)
    }

    /// Do the kept answers (IQ occupancy, issuable count, oldest
    /// unresolved branch, the due list, `WaitMem`'s bind cycles, the
    /// LSQ's marks) and every slot link agree with a rescan? Checked once
    /// per tick in debug builds.
    fn kept_answers_hold(&self) -> bool {
        // One pass over the ROB for its slot table, the counts, the bind
        // cycles and the links to the LSQ.
        let (mut iq_used, mut issuable, mut due) = (0, 0, 0);
        let mut rob = true;
        let consistent = self.rob.consistent(|r, e| {
            iq_used += usize::from(e.in_iq());
            issuable += usize::from(e.can_issue());
            due += usize::from(e.state.due().is_some());
            let bound = match e.state {
                EState::WaitMem { wake_at } => wake_at == self.lsq.bound(e.lsq_ref()).map_or(UNBOUND, |l| l.wake_at),
                _ => true,
            };
            let linked = if e.is_load() || e.is_amo() {
                self.lsq.rob_slot(e.lsq_ref()) == Some(r.slot)
            } else {
                !e.is_store() || self.lsq.store(e.lsq_ref()).is_some()
            };
            rob &= bound && linked;
        });
        consistent && rob && self.iq_used == iq_used
            && self.issuable == issuable
            && self.oldest_branch == self.first_unresolved_branch(0)
            && self.due_holds(due)
            && self.links_hold()
            && self.lsq.marks_hold()
    }

    /// The due list names exactly the `due` ROB entries whose writeback
    /// cycle is known, each at that cycle, in (cycle, sequence) order.
    fn due_holds(&self, due: usize) -> bool {
        self.due.iter().zip(self.due.iter().skip(1)).all(|(a, b)| (a.0, a.1.seq) < (b.0, b.1.seq))
            && self.due.iter().all(|&(t, r)| self.rob.get(r).is_some_and(|e| e.state.due() == Some(t)))
            && self.due.len() == due
    }

    /// Do the slot references the ROB pass above did not check name what
    /// a rescan finds: each LQ entry's ROB entry,
    /// which a committed load has left (non-collapsible and ECL modes
    /// keep it in the LQ); and each RAT producer and ECL delivery?
    fn links_hold(&self) -> bool {
        let lsq_to_rob =
            self.lsq.load_links().all(|(l, rob, e)| self.rob.holds(Ref { seq: l.seq, slot: rob }) != e.committed);
        let ecl = |seq: u64| self.ecl_pending.iter().any(|(l, _)| l.seq == seq);
        let rat = self.rat.iter().enumerate().all(|(i, p)| {
            p.is_none_or(|p| match self.rob.get(p) {
                Some(e) => e.inst.dest().is_some_and(|d| d.index() == i),
                None => self.rob.find(p.seq).is_none() && ecl(p.seq),
            })
        });
        let ecl_loads = self.ecl_pending.iter().all(|&(l, _)| self.lsq.load(l).is_some_and(|e| !e.delivered));
        lsq_to_rob && rat && ecl_loads
    }

    // ------------------------------------------------------------------
    // The cycle
    // ------------------------------------------------------------------

    /// Advance one cycle, interacting with this core's private cache.
    pub fn tick(&mut self, now: Cycle, cache: &mut PrivateCache) {
        if self.drained() {
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
        debug_assert!(self.kept_answers_hold(), "core {}: a kept answer drifted", self.id.index());
    }

    /// The Figure 10 stall bucket a cycle without a commit charges, given
    /// the current structural occupancy — `None` when the core is halted
    /// or sits on an empty pipeline with fetch stopped. Shared by
    /// [`Core::commit`], [`Core::apply_idle_cycles`] and
    /// [`Core::idle_stat_deltas`] so dense and bulk-charged accounting
    /// can never drift apart.
    fn idle_stall(&self) -> Option<(&'static str, CounterHandle)> {
        if self.halted || (self.rob.is_empty() && self.fetch_halted) {
            None
        } else if self.rob.len() >= self.cfg.rob_entries {
            Some(("core_stall_rob", self.h_stall_rob))
        } else if self.lsq.lq_full() {
            Some(("core_stall_lq", self.h_stall_lq))
        } else if self.lsq.sq_full() {
            Some(("core_stall_sq", self.h_stall_sq))
        } else {
            Some(("core_stall_other", self.h_stall_other))
        }
    }

    /// The named counter deltas `k` idle cycles produce — exactly what
    /// [`Core::apply_idle_cycles`] adds. The `SparseVerify` engine
    /// applies one cycle's worth to a pre-tick snapshot of a sleeping
    /// core and compares against the real tick.
    pub fn idle_stat_deltas(&self, k: u64) -> Vec<(&'static str, u64)> {
        if k == 0 || self.drained() {
            return Vec::new();
        }
        let mut v = vec![("core_cycles", k)];
        v.extend(self.idle_stall().map(|(key, _)| (key, k)));
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
        if let Some((_, h)) = self.idle_stall() {
            self.stats.add_h(h, k);
        }
    }

    /// Earliest future cycle at which [`Core::tick`] could do observable
    /// work, or `None` when the core is drained. `Some(now)` means the
    /// core must be ticked densely this cycle. Every answer comes from
    /// the phase guards the tick itself acts on; where a phase's outcome
    /// depends on cache state they err towards `Some(now)` (skipping less
    /// is always safe).
    pub fn next_event(&self, now: Cycle, cache: &PrivateCache) -> Option<Cycle> {
        if self.drained() {
            return None;
        }
        // The cheap questions first: most busy cores answer here.
        if cache.has_completions() || self.issuable > 0 {
            return Some(now);
        }
        let acts_now = self.amo_due(cache).is_some()
            || (!self.halted && self.next_committable(0, self.commit_bounds()).is_some())
            || self.sb_drain_due(cache)
            || self.lsq.loads().any(|e| self.load_issue(e).is_some_and(|(.., f)| f != ForwardResult::Wait))
            || self.sos_bypass(cache).is_some();
        if acts_now {
            return Some(now);
        }
        // Timed wakes: ECL deliveries and loads at `wake_at`, functional
        // units at `done_at`; fetch resumes at the end of a squash
        // penalty.
        let rob = self.due.front().map(|&(t, _)| t);
        let timed = self.ecl_pending.iter().filter_map(|&(l, _)| self.ecl_wake(l)).chain(rob).min();
        let fetch = (!self.fetch_halted && !self.halted && self.dispatch_room().is_some())
            .then_some(self.fetch_stall_until);
        timed.into_iter().chain(fetch).min().map(|t| t.max(now))
    }

    // ------------------------------------------------------------------
    // Phase guards: what a tick phase would act on, asked by the phase
    // itself and by `next_event`
    // ------------------------------------------------------------------

    /// Writeback (ECL): the cycle the early-committed load `l` can
    /// deliver its value, once it is bound.
    fn ecl_wake(&self, l: Ref) -> Option<Cycle> {
        self.lsq.bound(l).map(|l| l.wake_at)
    }

    /// Atomics (Section 3.7): the ROB-head atomic that acts this cycle —
    /// its address is resolved, the store buffer has drained (its load
    /// may not bypass the SB), every older load has performed (under ECL
    /// older loads commit before their data returns, so reaching the
    /// head does not imply it), and its line is writable (it performs)
    /// or `ensure_writable` has work (the GetX). Returns the atomic's LQ
    /// entry and address.
    fn amo_due(&self, cache: &PrivateCache) -> Option<(Ref, Addr)> {
        let head = self.rob.front().filter(|e| e.is_amo() && matches!(e.state, EState::WaitMem { .. }))?;
        let addr = self.lsq.load(head.lsq_ref()).filter(|l| !l.performed())?.addr?;
        let line = addr.line();
        (self.lsq.sb_empty()
            && !self.lsq.older_unperformed_load(head.seq)
            && (cache.is_writable(line) || !cache.write_settled(line)))
        .then_some((head.lsq_ref(), addr))
    }

    /// Commit: this cycle's scan bounds.
    fn commit_bounds(&self) -> CommitBounds {
        (self.oldest_branch, self.lsq.oldest_unresolved_store())
    }

    /// Commit: the first ROB index at or after `from` (within the commit
    /// depth) that may commit; in-order modes stop at the first entry
    /// that cannot, and every mode stops at the first entry younger than
    /// a bound (conditions 3 and 4 then fail for the rest of the ROB).
    fn next_committable(&self, from: usize, bounds: CommitBounds) -> Option<usize> {
        let in_order = matches!(self.cfg.commit_mode, CommitMode::InOrder | CommitMode::InOrderEcl);
        let limit = match bounds {
            (Some(b), Some(s)) => b.min(s),
            (b, s) => b.or(s).unwrap_or(u64::MAX),
        };
        let end = self.rob.len().min(self.cfg.commit_depth).max(from);
        for (idx, e) in (from..end).zip(self.rob.iter_from(from)) {
            if e.seq > limit {
                return None;
            }
            if self.can_commit(e, idx == 0, bounds) {
                return Some(idx);
            }
            if in_order {
                return None;
            }
        }
        None
    }

    /// Store-buffer drain: an early write-permission prefetch is queued,
    /// an SB line's write permission is not settled yet (Section 3.6:
    /// writes may be requested in any order), or the head store can
    /// perform.
    fn sb_drain_due(&self, cache: &PrivateCache) -> bool {
        !self.prefetch_writes.is_empty()
            || self.lsq.sb_entries().any(|e| !cache.write_settled(e.addr.line()))
            || self.lsq.sb_head().is_some_and(|h| cache.is_writable(h.addr.line()))
    }

    /// Load issue: a Ready load with a known address that is not held
    /// back — one refused a tear-off retries only as the SoS load, and
    /// (Section 3.4) an unordered load does not issue to a line with an
    /// active lockdown that was already invalidated: it would only
    /// receive an unusable tear-off. Returns the address, whether the
    /// load is the SoS load, and what store forwarding says (`Wait`
    /// leaves it for a later cycle; anything else acts, even a cache
    /// access that comes back blocked charges a counter).
    fn load_issue(&self, e: &LqEntry) -> Option<(Addr, bool, ForwardResult)> {
        if e.is_amo || e.state != LoadState::Ready {
            return None;
        }
        let addr = e.addr?;
        let sos = self.lsq.is_sos(e.seq);
        if !sos && (e.retry_when_sos || self.lsq.owes_ack(addr.line())) {
            return None;
        }
        Some((addr, sos, self.lsq.forward(e.seq, addr)))
    }

    /// SoS bypass (Section 3.5.2): the SoS load waits on a request while
    /// its line's write MSHR carries a blocked hint; it retries its cache
    /// access every cycle, bypassing the blocked write with a fresh
    /// tear-off read. Returns the load's LQ entry and address.
    fn sos_bypass(&self, cache: &PrivateCache) -> Option<(Ref, Addr)> {
        let (r, e) = self.lsq.sos().filter(|(_, e)| !e.is_amo && e.state == LoadState::Requested)?;
        let addr = e.addr?;
        cache.write_blocked(addr.line()).then_some((r, addr))
    }

    /// Dispatch: the next instruction, if the ROB, the scheduler and (for
    /// memory instructions) its LSQ queue have room for it.
    fn dispatch_room(&self) -> Option<Inst> {
        if self.rob.len() >= self.cfg.rob_entries || self.iq_used >= self.cfg.iq_entries {
            return None;
        }
        let inst = self.program.fetch(self.pc).unwrap_or(Inst::Halt);
        let full = match inst {
            Inst::Load { .. } | Inst::Amo { .. } => self.lsq.lq_full(),
            Inst::Store { .. } => self.lsq.sq_full(),
            _ => false,
        };
        (!full).then_some(inst)
    }

    // ------------------------------------------------------------------
    // Completions from the cache
    // ------------------------------------------------------------------

    /// Apply the cache's completions, then retire them: the cache keeps
    /// their emptied lists of waiting loads for its next misses.
    fn process_completions(&mut self, now: Cycle, cache: &mut PrivateCache) {
        for c in cache.completions() {
            match c {
                Completion::LoadData { tags, line, data, cacheable: true } => {
                    for t in tags {
                        self.bind_load(now, t.0, *line, data);
                    }
                }
                Completion::LoadData { tags, data, cacheable: false, .. } => {
                    // A tear-off copy: usable once, and only by an ordered
                    // load (Section 3.4).
                    let mut used = false;
                    for t in tags {
                        let Some(r) = self.lsq.find_load(t.0) else { continue };
                        let Some(e) = self.lsq.load(r).filter(|e| !e.performed()) else { continue };
                        match e.addr.filter(|_| !used && self.lsq.is_sos(t.0)) {
                            Some(addr) => {
                                used = true;
                                self.perform(r, data.word(addr.word_index()), now + 1);
                                self.stats.inc("core_tearoff_binds");
                            }
                            None => {
                                self.lsq.retry_at_sos(r);
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
        cache.retire_completions();
    }

    /// A fill for the load `seq` arrived: the tag names it by sequence
    /// number, mapped to its LQ entry once here.
    fn bind_load(&mut self, now: Cycle, seq: u64, line: LineAddr, data: &wb_mem::LineData) {
        // Reordered = an older load has not performed yet at bind time
        // (computed before this load flips to Performed; skipped entirely
        // when LSQ tracing is off so the bind path stays scan-free).
        let tracing = self.tracer.wants(Category::Lsq);
        let reordered = tracing && !self.lsq.is_ordered(seq);
        let Some(r) = self.lsq.find_load(seq) else { return };
        let Some(e) = self.lsq.load(r) else { return };
        if e.performed() || e.is_amo {
            return;
        }
        let Some(addr) = e.addr else { return };
        if addr.line() != line {
            return;
        }
        self.perform(r, data.word(addr.word_index()), now + 1);
        self.tracer.record(now, TraceEvent::LoadBind { seq, line: line.0, reordered });
    }

    /// Bind `value` to the load or atomic `l` ([`Lsq::perform`]) and
    /// copy its wake cycle into the ROB entry waiting on it, which is now
    /// due at writeback.
    fn perform(&mut self, l: Ref, value: u64, wake_at: Cycle) {
        self.lsq.perform(l, value, wake_at);
        let Some(at) = self.lsq.rob_slot(l).map(|slot| Ref { seq: l.seq, slot }) else { return };
        if let Some(EState::WaitMem { wake_at: w }) = self.rob.get_mut(at).map(|e| &mut e.state) {
            debug_assert_eq!(*w, UNBOUND, "load {} bound twice", l.seq);
            *w = wake_at;
            self.insert_due(wake_at, at);
        }
    }

    /// Add the ROB entry `r`, due at writeback in cycle `t`, to the due
    /// list. A new entry is usually due last, so the walk for its place
    /// starts at the end.
    fn insert_due(&mut self, t: Cycle, r: Ref) {
        let before = |&(u, q): &(Cycle, Ref)| (u, q.seq) < (t, r.seq);
        if self.due.back().is_none_or(before) {
            self.due.push_back((t, r));
        } else {
            let at = self.due.iter().rposition(before).map_or(0, |p| p + 1);
            self.due.insert(at, (t, r));
        }
    }

    // ------------------------------------------------------------------
    // Writeback: finish executing instructions, resolve branches
    // ------------------------------------------------------------------

    fn writeback(&mut self, now: Cycle) {
        self.deliver_ecl_values(now);
        // Loads whose value has arrived and functional units that have
        // finished complete, oldest first. Every entry the due list holds
        // by now is due exactly now, unless a tick was skipped while one
        // was due: then they are put in sequence order first. A
        // mispredict squash removes every younger entry from the list.
        let due_now = self.due.iter().take_while(|&&(t, _)| t <= now).count();
        if due_now == 0 {
            return;
        }
        if self.due[0].0 < now {
            self.due.make_contiguous()[..due_now].sort_unstable_by_key(|&(_, r)| r.seq);
        }
        for _ in 0..due_now {
            let Some(&(t, r)) = self.due.front().filter(|&&(t, _)| t <= now) else { break };
            self.due.pop_front();
            let Some(e) = self.rob.get_mut(r) else {
                debug_assert!(false, "due entry {} is not in the ROB", r.seq);
                continue;
            };
            match e.state {
                EState::WaitMem { .. } => {
                    // The wake cycle is a copy of the bound load's; a load
                    // missing here retries next cycle.
                    let Some(value) = self.lsq.bound(e.lsq_ref()).map(|l| l.value) else {
                        debug_assert!(false, "load {} woke without a bound LQ entry", r.seq);
                        e.state = EState::WaitMem { wake_at: now + 1 };
                        self.insert_due(now + 1, r);
                        continue;
                    };
                    e.state = EState::Done;
                    e.result = value;
                    e.has_result = true;
                    let consumers = e.consumers;
                    self.broadcast_from(r, value, consumers);
                }
                EState::Executing { .. } => {
                    e.state = EState::Done;
                    let (inst, result, consumers) = (e.inst, e.has_result.then_some(e.result), e.consumers);
                    let (taken, predicted, pc) = (e.actual_taken, e.predicted_taken, e.pc);
                    if let Some(v) = result {
                        self.broadcast_from(r, v, consumers);
                    }
                    if let Inst::Branch { target, .. } = inst {
                        if self.oldest_branch == Some(r.seq) {
                            let next = self.rob.position(r).map_or(self.rob.len(), |p| p + 1);
                            self.oldest_branch = self.first_unresolved_branch(next);
                        }
                        self.predictor.update(pc, target, taken);
                        if taken != predicted {
                            self.stats.inc("core_squash_branch");
                            let redirect = if taken { target } else { pc + 1 };
                            self.squash_from(now, r.seq + 1, redirect);
                        }
                    }
                }
                _ => debug_assert!(false, "due entry {} was due at {t} but is {:?}", r.seq, e.state),
            }
        }
    }

    /// ECL mode: early-committed loads whose data has now arrived deliver
    /// their value to the register file, consumers, and the event log.
    fn deliver_ecl_values(&mut self, now: Cycle) {
        if self.ecl_pending.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.ecl_pending.len() {
            let (l, rd) = self.ecl_pending[i];
            let arrived = self.lsq.bound(l).filter(|e| e.wake_at <= now);
            debug_assert!(arrived.is_none_or(|e| e.addr.is_some()), "bound load {} has no address", l.seq);
            let Some((value, addr)) = arrived.and_then(|e| Some((e.value, e.addr?))) else {
                i += 1;
                continue;
            };
            self.ecl_pending.remove(i);
            self.lsq.mark_delivered(l);
            if let Some(r) = rd {
                self.retire_reg(r, l.seq, value);
            }
            // The load left the ROB at commit, so every entry there is
            // younger; its consumers are not counted.
            self.broadcast(0, l.seq, value, u8::MAX);
            self.log_mem(l.seq, addr, MemOp::Load { value });
            self.stats.inc("core_ecl_loads_delivered");
        }
    }

    /// Write `value`, produced by instruction `seq`, to architectural
    /// register `r` — unless a younger instruction already retired into
    /// it (out-of-order commit) — and release the RAT mapping `seq` still
    /// holds.
    fn retire_reg(&mut self, r: Reg, seq: u64, value: u64) {
        let i = r.index();
        if seq >= self.last_commit_seq[i] {
            self.arch_regs[i] = value;
            self.last_commit_seq[i] = seq;
        }
        if self.rat[i].is_some_and(|p| p.seq == seq) {
            self.rat[i] = None;
        }
    }

    /// Append a committed memory operation to the TSO checker's log.
    fn log_mem(&mut self, seq: u64, addr: Addr, op: MemOp) {
        if self.record_events {
            self.log.push(MemEvent { core: self.id.index(), seq, addr, op });
        }
    }

    /// The producer `seq` has its value: wake its `consumers` operand
    /// slots ([`RobEntry::consumers`]), which are in the entries from
    /// ROB position `from` on.
    fn broadcast(&mut self, from: usize, seq: u64, value: u64, consumers: u8) {
        let mut left = consumers;
        if left == 0 {
            return;
        }
        for i in from..self.rob.len() {
            let Some(e) = self.rob.at_mut(i) else { break };
            let before = e.waiting;
            if before == 0 {
                continue;
            }
            let woke = e.wake(seq, value);
            if woke == 0 {
                continue;
            }
            if !e.can_issue_waiting_on(before) && e.can_issue() {
                self.issuable += 1;
            }
            if left != u8::MAX {
                left -= woke;
                if left == 0 {
                    debug_assert!(
                        self.rob.iter_from(i + 1).all(|e| (0..MAX_OPS).all(|k| e.op_ready(k) || e.ops[k] != seq)),
                        "a consumer of {seq} was not counted"
                    );
                    break;
                }
            }
        }
    }

    /// [`Core::broadcast`] by the ROB entry `r`, from the entry after it.
    fn broadcast_from(&mut self, r: Ref, value: u64, consumers: u8) {
        let from = self.rob.position(r).map_or(self.rob.len(), |p| p + 1);
        self.broadcast(from, r.seq, value, consumers);
    }

    /// Squash every instruction with sequence `>= from`.
    fn squash_from(&mut self, now: Cycle, from: u64, redirect: u32) {
        self.rob.truncate_from(from);
        self.lsq.squash(from);
        self.due.retain(|&(_, r)| r.seq < from);
        if self.oldest_branch.is_some_and(|b| b >= from) {
            // Every older branch had resolved.
            self.oldest_branch = None;
        }
        // Rebuild the RAT and the IQ occupancy from surviving entries.
        self.rat = [None; Reg::COUNT];
        self.iq_used = 0;
        self.issuable = 0;
        for (at, e) in self.rob.iter_refs() {
            if let Some(r) = e.inst.dest() {
                self.rat[r.index()] = Some(at);
            }
            self.iq_used += usize::from(e.in_iq());
            self.issuable += usize::from(e.can_issue());
        }
        self.pc = redirect;
        self.fetch_stall_until = now + SQUASH_PENALTY;
        self.fetch_halted = false;
        self.stats.inc("core_squashes");
    }

    /// Squash from the load `victim` (the oldest one a consistency or
    /// memory-order hazard hit) and refetch it, charging `counter`. A
    /// victim that already committed is not squashed. Returns whether
    /// there was a victim.
    fn squash_victim(&mut self, now: Cycle, victim: Option<Ref>, counter: &'static str) -> bool {
        let Some(l) = victim else { return false };
        self.stats.inc(counter);
        let at = self.lsq.rob_slot(l).map(|slot| Ref { seq: l.seq, slot });
        if let Some(redirect) = at.and_then(|at| self.rob.get(at)).map(|e| e.pc) {
            self.squash_from(now, l.seq, redirect);
        }
        true
    }

    // ------------------------------------------------------------------
    // Atomics (Section 3.7): execute at the ROB head with a drained SB
    // ------------------------------------------------------------------

    fn execute_amo(&mut self, now: Cycle, cache: &mut PrivateCache) {
        let Some((l, addr)) = self.amo_due(cache) else { return };
        if !cache.ensure_writable(now, addr.line()) {
            return;
        }
        // `amo_due` found an atomic at the head, and its line is writable.
        let Some(head @ &RobEntry { inst: Inst::Amo { op, .. }, .. }) = self.rob.front() else {
            debug_assert!(false, "amo_due found no atomic at the ROB head");
            return;
        };
        let (src, cmp) = (head.op(1), head.op(2));
        let Some(old) = cache.rmw_perform(now, addr, |old| op.apply(old, src, cmp).unwrap_or(old)) else {
            debug_assert!(false, "the atomic's line was not writable after ensure_writable");
            return;
        };
        self.perform(l, old, now + 1);
        self.stats.inc("core_amos_performed");
        // Log: a successful RMW is an atomic read+write; a failed CAS is
        // just a read (logging it as weaker-than-executed is conservative
        // for the checker).
        let op = match op.apply(old, src, cmp) {
            Some(new) => MemOp::Rmw { old, new, performed_at: now },
            None => MemOp::Load { value: old },
        };
        self.log_mem(l.seq, addr, op);
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self, now: Cycle) {
        if self.halted {
            return;
        }
        let bounds = self.commit_bounds();
        let (mut committed, mut idx) = (0, 0);
        while committed < self.cfg.width && !self.halted {
            let Some(i) = self.next_committable(idx, bounds) else { break };
            self.do_commit(now, i);
            committed += 1;
            idx = i;
        }
        // Figure 10 stall accounting: a cycle in which nothing committed,
        // attributed to the full structure that caused it.
        if committed == 0 {
            if let Some((_, h)) = self.idle_stall() {
                self.stats.inc_h(h);
            }
        }
    }

    fn can_commit(
        &self,
        e: &RobEntry,
        at_head: bool,
        (oldest_unresolved_branch, oldest_unresolved_store): CommitBounds,
    ) -> bool {
        // Condition 1: completed — except ECL loads, which may retire from
        // the head with their data still in flight (Section 1: early
        // commit of loads), provided the address is resolved, no older
        // atomic is pending (Section 3.7) and the protocol can hide any
        // reordering among them.
        if !matches!(e.state, EState::Done) {
            let early = self.cfg.commit_mode == CommitMode::InOrderEcl
                && e.is_load()
                && at_head
                && self.lsq.load(e.lsq_ref()).is_some_and(|l| l.addr.is_some())
                && !self.lsq.older_unperformed_amo(e.seq);
            if !early {
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
        if e.is_load() && !self.lsq.is_ordered(e.seq) {
            // A reordered load: only the relaxed modes may bind it
            // irrevocably — via the LDT (Section 4.2), or by keeping the
            // FIFO LQ entry as the lockdown holder (ECL).
            if !matches!(self.cfg.commit_mode, CommitMode::OutOfOrderWb | CommitMode::InOrderEcl) {
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
            if self.lsq.older_unperformed_load(e.seq) {
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
        let Some((at, e)) = self.rob.remove(idx) else {
            debug_assert!(false, "next_committable named ROB index {idx} past the tail");
            return;
        };
        if e.state.due().is_some() {
            // An ECL load bound but not yet woken leaves the due list.
            self.due.retain(|&(_, r)| r != at);
        }
        // Architectural register state. Loads without a materialized ROB
        // result (ECL commits, or loads committed between perform and
        // wake-up) write the register from their LQ value below / at
        // delivery instead.
        if let (Some(r), true) = (e.inst.dest(), e.has_result) {
            self.retire_reg(r, e.seq, e.result);
        }
        match e.inst {
            Inst::Load { .. } => {
                let l = e.lsq_ref();
                if self.cfg.commit_mode == CommitMode::InOrderEcl && self.lsq.bound(l).is_none() {
                    // Early commit of a load still in flight: the FIFO LQ
                    // entry stays (it will hold the lockdown if the load
                    // performs out of order); the value is delivered to
                    // the register file when it arrives.
                    self.lsq.commit_load_early(l);
                    self.ecl_pending.push((l, e.inst.dest()));
                    self.stats.inc("core_ecl_loads_committed");
                    self.stats.inc_h(self.h_loads_committed);
                    self.retired += 1;
                    return;
                }
                let mspec = !self.lsq.is_ordered(e.seq);
                let lq = if self.cfg.collapsible_lq
                    && self.cfg.commit_mode != CommitMode::InOrderEcl
                {
                    self.lsq.commit_load(l)
                } else {
                    // Footnote 8 / ECL: a FIFO LQ keeps committed loads
                    // resident until they reach the head; the entry itself
                    // holds the lockdown, so nothing is exported to the LDT.
                    self.lsq.commit_load_in_place(l)
                };
                // `can_commit` admitted a performed load, which has an
                // LQ entry with an address. One without is neither
                // retired nor logged.
                let Some((lq, addr)) = lq.and_then(|l| Some((l, l.addr?))) else {
                    debug_assert!(false, "committed load {} has no LQ entry with an address", e.seq);
                    return;
                };
                if !e.has_result {
                    // Performed but committed before wake-up: the value
                    // lives in the LQ entry, not the ROB result.
                    if let Some(r) = e.inst.dest() {
                        self.retire_reg(r, e.seq, lq.value);
                        // Consumers that captured the dependency still
                        // need the wake-up broadcast; they follow the
                        // removed entry's place.
                        self.broadcast(idx, e.seq, lq.value, e.consumers);
                    }
                }
                self.log_mem(e.seq, addr, MemOp::Load { value: lq.value });
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
                let moved = self.lsq.commit_store(e.seq);
                debug_assert!(moved, "can_commit admitted a store that is not the complete SQ head");
                self.stats.inc_h(self.h_stores_committed);
            }
            Inst::Amo { .. } => {
                let removed = self.lsq.commit_load(e.lsq_ref()).is_some();
                debug_assert!(removed, "committed atomic {} has no LQ entry", e.seq);
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
        if !self.sb_drain_due(cache) {
            return;
        }
        // Early (address-resolution-time) write-permission prefetches.
        for &line in &self.prefetch_writes {
            let _ = cache.ensure_writable(now, line);
        }
        self.prefetch_writes.clear();
        // Prefetch write permission for every line in the SB (Section
        // 3.6: writes can be requested in any order; the paper's
        // aggressive cores prefetch while waiting), once per run of
        // stores to the same line.
        let mut last = None;
        for e in self.lsq.sb_entries() {
            let line = e.addr.line();
            if last != Some(line) {
                let _ = cache.ensure_writable(now, line);
                last = Some(line);
            }
        }
        // Perform the head store (stores are performed in order).
        if let Some(head) = self.lsq.sb_head().copied() {
            if cache.is_writable(head.addr.line()) && cache.store_perform(now, head.addr, head.data) {
                self.log_mem(head.seq, head.addr, MemOp::Store { value: head.data, performed_at: now });
                self.lsq.sb_pop();
                self.stats.inc_h(self.h_stores_performed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Load memory issue
    // ------------------------------------------------------------------

    fn issue_loads(&mut self, now: Cycle, cache: &mut PrivateCache) {
        // Issuing changes no LQ position, so the walk goes by index.
        let mut slots = self.cfg.width;
        let mut i = 0;
        while slots > 0 {
            let Some((r, e)) = self.lsq.load_at(i) else { break };
            i += 1;
            let Some((addr, sos, fwd)) = self.load_issue(e) else { continue };
            match fwd {
                ForwardResult::Value(v) => {
                    self.lsq.mark_forwarded(r);
                    self.perform(r, v, now + 1);
                    self.stats.inc_h(self.h_loads_forwarded);
                    slots -= 1;
                }
                ForwardResult::Wait => {}
                ForwardResult::None => {
                    slots -= 1;
                    if !self.access_cache(now, cache, r, addr, sos) {
                        self.stats.inc("core_load_issue_blocked");
                    }
                }
            }
        }
        // The bypass takes no issue slot: the SoS load must always make
        // progress (Section 3.5.2). A hit binds like any other.
        if let Some((r, addr)) = self.sos_bypass(cache) {
            self.access_cache(now, cache, r, addr, true);
        }
    }

    /// Send load `l` to the cache and apply the answer: a hit binds the
    /// value after the hit latency, a miss waits for the fill (or a
    /// tear-off). Returns `false` when the cache refused the access; the
    /// load stays Ready and retries.
    fn access_cache(&mut self, now: Cycle, cache: &mut PrivateCache, l: Ref, addr: Addr, sos: bool) -> bool {
        match cache.load_access(now, ReadTag(l.seq), addr, sos) {
            LoadAccess::Hit { value, latency } => self.perform(l, value, now + latency),
            LoadAccess::Miss => self.lsq.set_requested(l),
            LoadAccess::Blocked => return false,
        }
        true
    }

    // ------------------------------------------------------------------
    // Issue (schedule) + address generation
    // ------------------------------------------------------------------

    fn issue(&mut self, now: Cycle) {
        let mut slots = self.cfg.width;
        let mut i = 0;
        while slots > 0 && self.issuable > 0 {
            let Some(skip) = self.rob.iter_from(i).position(RobEntry::can_issue) else { break };
            i += skip;
            let (Some(r), Some(e)) = (self.rob.ref_at(i), self.rob.at_mut(i)) else { break };
            match e.inst {
                Inst::Alu { op, .. } => {
                    let done_at = now + op.latency();
                    e.result = op.apply(e.op(0), e.op(1));
                    e.has_result = true;
                    e.state = EState::Executing { done_at };
                    self.insert_due(done_at, r);
                    self.iq_used -= 1;
                    slots -= 1;
                }
                Inst::AluImm { op, imm, .. } => {
                    let done_at = now + op.latency();
                    e.result = op.apply(e.op(0), imm);
                    e.has_result = true;
                    e.state = EState::Executing { done_at };
                    self.insert_due(done_at, r);
                    self.iq_used -= 1;
                    slots -= 1;
                }
                Inst::Branch { cond, .. } => {
                    e.actual_taken = cond.eval(e.op(0), e.op(1));
                    e.state = EState::Executing { done_at: now + 1 };
                    self.insert_due(now + 1, r);
                    self.iq_used -= 1;
                    slots -= 1;
                }
                Inst::Load { offset, .. } | Inst::Amo { offset, .. } => {
                    // Address generation; the memory access itself is
                    // issue_loads' (a load) or execute_amo's (an atomic).
                    let addr = align(e.op(0).wrapping_add(offset as u64));
                    let (is_amo, l) = (e.is_amo(), e.lsq_ref());
                    e.state = EState::WaitMem { wake_at: UNBOUND };
                    self.iq_used -= 1;
                    self.lsq.resolve_load(l, addr);
                    slots -= 1;
                    if is_amo && self.memory_order_check(now, r.seq, addr) {
                        return; // squash invalidated iteration state
                    }
                }
                Inst::Store { offset, .. } => {
                    let st = e.lsq_ref();
                    let data = (e.op_ready(1) && !e.data_done).then(|| e.op(1));
                    let mut consumed = false;
                    if e.op_ready(0) && !e.addr_done {
                        let addr = align(e.op(0).wrapping_add(offset as u64));
                        e.addr_done = true;
                        self.iq_used -= 1;
                        self.lsq.resolve_store(st, addr);
                        consumed = true;
                        if self.cfg.write_prefetch_at_resolve {
                            // Aggressive write-permission prefetch
                            // (Section 3.1.2); harmless if squashed.
                            self.prefetch_writes.push(addr.line());
                        }
                        if self.memory_order_check(now, r.seq, addr) {
                            return; // squash invalidated iteration state
                        }
                    }
                    let Some(e) = self.rob.at_mut(i) else { break };
                    if let Some(v) = data {
                        e.data_done = true;
                        self.lsq.store_data(st, v);
                    }
                    if e.addr_done && e.data_done {
                        e.state = EState::Done;
                    }
                    if consumed {
                        slots -= 1;
                    }
                }
                // Imm/Nop/Jump/Halt were completed at dispatch.
                _ => {}
            }
            self.issuable -= usize::from(self.rob.at(i).is_some_and(|e| !e.can_issue()));
            i += 1;
        }
    }

    /// Late address resolution by the store or atomic `writer_seq`:
    /// squash younger loads that already read `addr` (a memory-order
    /// violation). Returns true if a squash happened.
    fn memory_order_check(&mut self, now: Cycle, writer_seq: u64, addr: Addr) -> bool {
        let victim = self.lsq.conflict_victim(writer_seq, addr);
        self.squash_victim(now, victim, "core_squash_memorder")
    }

    // ------------------------------------------------------------------
    // Dispatch (fetch + decode + rename)
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: Cycle) {
        if now < self.fetch_stall_until || self.fetch_halted || self.halted {
            return;
        }
        for _ in 0..self.cfg.width {
            let Some(inst) = self.dispatch_room() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            let pc = self.pc;
            let slot = self.rob.next_slot();
            let (ops, waiting) = self.capture_operands(&inst);
            let mut entry = RobEntry {
                seq,
                pc,
                inst,
                state: EState::WaitOps,
                result: 0,
                has_result: false,
                ops,
                waiting,
                consumers: 0,
                slot,
                lsq: 0,
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
                    entry.lsq = self.lsq.alloc_load(seq, false, slot).slot;
                    self.pc = pc + 1;
                }
                Inst::Amo { .. } => {
                    entry.lsq = self.lsq.alloc_load(seq, true, slot).slot;
                    self.pc = pc + 1;
                }
                Inst::Store { .. } => {
                    entry.lsq = self.lsq.alloc_store(seq).slot;
                    self.pc = pc + 1;
                }
                _ => self.pc = pc + 1,
            }
            if !matches!(inst, Inst::Jump { .. } | Inst::Branch { .. } | Inst::Halt) && entry.state == EState::Done {
                self.pc = pc + 1;
            }
            self.iq_used += usize::from(entry.in_iq());
            self.issuable += usize::from(entry.can_issue());
            if entry.is_branch() {
                self.oldest_branch = self.oldest_branch.or(Some(seq));
            }
            let at = self.rob.push(entry);
            debug_assert_eq!(at.slot, slot, "dispatch filled another ROB slot than it named");
            // Register the destination in the RAT.
            if let Some(r) = inst.dest() {
                self.rat[r.index()] = Some(at);
            }
            self.stats.inc_h(self.h_dispatched);
            if matches!(inst, Inst::Halt) {
                break;
            }
        }
    }

    /// Read `inst`'s source operands: a value from a completed producer
    /// or the register file, or the sequence number of the in-flight
    /// producer to wait for (the returned mask's bits).
    fn capture_operands(&mut self, inst: &Inst) -> ([u64; MAX_OPS], u8) {
        let (regs, n) = source_regs(inst);
        let mut ops = [0; MAX_OPS];
        let mut waiting = 0;
        for (i, r) in regs[..n].iter().enumerate() {
            if r.is_zero() {
                continue;
            }
            ops[i] = match self.rat[r.index()] {
                None => self.arch_regs[r.index()],
                Some(p) => match self.rob.get_mut(p) {
                    Some(e) if matches!(e.state, EState::Done) => e.result,
                    producer => {
                        // Still executing, or an ECL-committed load in
                        // flight: its broadcast arrives at value delivery.
                        debug_assert!(
                            producer.is_some() || self.ecl_pending.iter().any(|(l, _)| l.seq == p.seq),
                            "RAT points to a vanished producer"
                        );
                        if let Some(e) = producer {
                            e.consumers = e.consumers.saturating_add(1);
                        }
                        waiting |= 1 << i;
                        p.seq
                    }
                },
            };
        }
        (ops, waiting)
    }

    // ------------------------------------------------------------------
    // Lockdown releases
    // ------------------------------------------------------------------

    fn release_lockdowns(&mut self, now: Cycle, cache: &mut PrivateCache) {
        if !self.cfg.collapsible_lq || self.cfg.commit_mode == CommitMode::InOrderEcl {
            self.lsq.drain_committed_head();
        }
        self.lsq.release_ldt();
        let mut after = None;
        while let Some(line) = self.lsq.next_release(after) {
            cache.release_lockdown(now, line);
            self.stats.inc("core_lockdown_releases");
            after = Some(line);
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
        w.u32(self.pc);
        w.bool(self.fetch_halted);
        w.bool(self.halted);
        w.u64(self.fetch_stall_until);
        w.u64(self.next_seq);
        w.usize(self.rob.len());
        for e in self.rob.iter() {
            w.u64(e.seq);
            w.u32(e.pc);
            e.state.snap(w);
            w.u64(e.result);
            w.bool(e.has_result);
            // The operands, each as its producer while it waits, its
            // value (0 while it waits) and its ready bit.
            let n = source_regs(&e.inst).1;
            w.usize(n);
            for i in 0..n {
                (!e.op_ready(i)).then_some(e.ops[i]).snap(w);
                w.u64(e.op(i));
                w.bool(e.op_ready(i));
            }
            w.bool(e.predicted_taken);
            w.bool(e.actual_taken);
            w.bool(e.addr_done);
            w.bool(e.data_done);
        }
        self.lsq.snap(w);
        self.arch_regs.snap(w);
        self.last_commit_seq.snap(w);
        // References are written as the sequence numbers they name.
        self.rat.map(|p| p.map(|p| p.seq)).snap(w);
        self.predictor.snap(w);
        self.prefetch_writes.snap(w);
        w.usize(self.ecl_pending.len());
        for (l, rd) in &self.ecl_pending {
            (l.seq, *rd).snap(w);
        }
        self.stats.snap(w);
        self.log.snap(w);
        w.u64(self.retired);
    }

    /// Inverse of [`Core::snap`], applied over a core built with the same
    /// configuration and program. Slots are not written: the restored
    /// entries take new ones, and every reference is found again by its
    /// sequence number.
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        self.pc = r.u32()?;
        self.fetch_halted = r.bool()?;
        self.halted = r.bool()?;
        self.fetch_stall_until = r.u64()?;
        self.next_seq = r.u64()?;
        let n = r.len_for(8)?;
        self.rob.clear();
        for _ in 0..n {
            let seq = r.u64()?;
            let pc = r.u32()?;
            // The instruction word is not serialized: programs are
            // immutable, so the dispatch-time fetch replays exactly.
            let inst = self.program.fetch(pc).unwrap_or(Inst::Halt);
            let state = EState::unsnap(r)?;
            let result = r.u64()?;
            let has_result = r.bool()?;
            let reads = source_regs(&inst).1;
            let count = r.usize()?;
            if count != reads {
                return Err(SnapError::new(format!("ROB entry {seq} has {count} operands; pc {pc} reads {reads}")));
            }
            let (mut ops, mut waiting) = ([0; MAX_OPS], 0);
            for (i, slot) in ops.iter_mut().enumerate().take(count) {
                let src = Option::<u64>::unsnap(r)?;
                let value = r.u64()?;
                *slot = match (r.bool()?, src) {
                    (true, _) => value,
                    (false, Some(p)) => {
                        waiting |= 1 << i;
                        p
                    }
                    (false, None) => return Err(SnapError::new(format!("ROB entry {seq} waits on no producer"))),
                };
            }
            let predicted_taken = r.bool()?;
            let actual_taken = r.bool()?;
            let addr_done = r.bool()?;
            let data_done = r.bool()?;
            if self.rob.is_full() || self.rob.back().is_some_and(|b| b.seq >= seq) {
                return Err(SnapError::new(format!("ROB entry {seq} is past the capacity or out of order")));
            }
            self.rob.push(RobEntry {
                seq,
                pc,
                inst,
                state,
                result,
                has_result,
                ops,
                waiting,
                consumers: u8::MAX,
                slot: 0,
                lsq: 0,
                predicted_taken,
                actual_taken,
                addr_done,
                data_done,
            });
        }
        self.iq_used = self.rob.iter().filter(|e| e.in_iq()).count();
        self.issuable = self.rob.iter().filter(|e| e.can_issue()).count();
        self.oldest_branch = self.first_unresolved_branch(0);
        self.lsq.restore(r)?;
        self.relink()?;
        self.arch_regs.unsnap_into(r)?;
        self.last_commit_seq.unsnap_into(r)?;
        let rat = <[Option<u64>; Reg::COUNT]>::unsnap(r)?;
        self.rat = rat.map(|p| p.map(|p| self.rob.find(p).unwrap_or(Ref::detached(p))));
        self.predictor.unsnap_into(r)?;
        self.prefetch_writes.unsnap_into(r)?;
        self.ecl_pending.clear();
        for (seq, rd) in Vec::<(u64, Option<Reg>)>::unsnap(r)? {
            let l =
                self.lsq.find_load(seq).ok_or_else(|| SnapError::new(format!("ECL load {seq} is not in the LQ")))?;
            self.ecl_pending.push((l, rd));
        }
        self.stats.unsnap_into(r)?;
        self.log.unsnap_into(r)?;
        self.retired = r.u64()?;
        Ok(())
    }
}

impl Core {
    /// After a restore: link each ROB memory instruction and its LQ or
    /// SQ entry both ways, copy each `WaitMem`'s bind cycle, and rebuild
    /// the due list from the entries.
    fn relink(&mut self) -> wb_kernel::SnapResult<()> {
        for i in 0..self.rob.len() {
            let (Some(at), Some(e)) = (self.rob.ref_at(i), self.rob.at(i)) else { break };
            let l = if e.is_load() || e.is_amo() {
                self.lsq.find_load(e.seq)
            } else if e.is_store() {
                self.lsq.find_store(e.seq)
            } else {
                continue;
            };
            let l = l.ok_or_else(|| SnapError::new(format!("ROB entry {} has no LSQ entry", e.seq)))?;
            if !e.is_store() {
                self.lsq.set_rob_slot(l, at.slot);
            }
            let wake = self.lsq.bound(l).map_or(UNBOUND, |b| b.wake_at);
            if let Some(e) = self.rob.at_mut(i) {
                e.lsq = l.slot;
                if let EState::WaitMem { wake_at } = &mut e.state {
                    *wake_at = wake;
                }
            }
        }
        self.due.clear();
        for (at, e) in self.rob.iter_refs() {
            if let Some(t) = e.state.due() {
                self.due.push_back((t, at));
            }
        }
        self.due.make_contiguous().sort_unstable_by_key(|&(t, r)| (t, r.seq));
        Ok(())
    }
}

impl Snap for EState {
    /// `WaitMem`'s wake cycle is a copy of its LQ entry's and is not
    /// written: [`Core::restore`] copies it back.
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        match *self {
            EState::WaitOps => w.u8(0),
            EState::Executing { done_at } => {
                w.u8(1);
                w.u64(done_at);
            }
            EState::WaitMem { .. } => w.u8(2),
            EState::Done => w.u8(3),
        }
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        match r.u8()? {
            0 => Ok(EState::WaitOps),
            1 => Ok(EState::Executing { done_at: r.u64()? }),
            2 => Ok(EState::WaitMem { wake_at: UNBOUND }),
            3 => Ok(EState::Done),
            t => Err(SnapError::new(format!("bad EState tag {t:#x}"))),
        }
    }
}

// ----------------------------------------------------------------------
// The invalidation hook (Figure 2)
// ----------------------------------------------------------------------

impl CoreSide for Core {
    fn on_invalidation(&mut self, now: Cycle, line: LineAddr) -> InvalResponse {
        match self.protocol {
            ProtocolKind::BaseMesi => {
                // Figure 2.A: squash M-speculative loads matching the
                // line, then acknowledge.
                let victim = self.lsq.mspec_match(line, 0);
                self.squash_victim(now, victim, "core_squash_inval");
                InvalResponse::Ack
            }
            ProtocolKind::WritersBlock => {
                // Loads past a non-performed atomic may not hold
                // lockdowns (Section 3.7): squash those instead.
                let victim = self.lsq.oldest_unperformed_amo().and_then(|amo| self.lsq.mspec_match(line, amo));
                self.squash_victim(now, victim, "core_squash_inval");
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
        let victim = self.lsq.mspec_match(line, 0);
        self.squash_victim(now, victim, "core_squash_eviction");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ROB is walked every tick (issue, writeback, `next_event`): an
    /// entry past 96 bytes made that walk measurably slower on 256-core
    /// cells, so the operands stay inline and packed.
    #[test]
    fn rob_entry_stays_within_96_bytes() {
        let size = std::mem::size_of::<RobEntry>();
        assert!(size <= 96, "RobEntry is {size} bytes");
    }
}
