//! The engine: which units a cycle visits, and how far `now` may jump.
//!
//! There is one cycle body, [`System::cycle`]. Its phases — system
//! deadlines, arrival delivery, component ticks, outbox injection, the
//! network — are written once; the three [`EngineMode`]s differ only in
//! the visit set they feed it ([`ALL`], [`DUE`], [`CHECKED`]).
//!
//! A *unit* is what the activity wheel schedules: a core+cache pair, a
//! directory bank, the mesh, or one node's arrival drain. A unit is
//! *active* in a cycle when the wheel has it due or a message reaches
//! it that cycle; every other unit is asleep, and a sleeping unit's
//! tick is a no-op by contract (see DESIGN.md "The engine/component
//! contract").

use crate::system::{comp_of, RunOutcome, System};
use crate::watchdog::Watchdog;
use wb_kernel::config::EngineMode;
use wb_kernel::soft::{SoftEngine, SoftTarget};
use wb_kernel::trace::{Category, CompId, TraceEvent};
use wb_kernel::{Cycle, NodeId};
use wb_mesh::MeshMsg;
use wb_protocol::messages::Dest;
use wb_protocol::ProtocolError;

/// Visit every unit, in index order, without consulting the wheel
/// (`EngineMode::Dense`, and [`System::tick`] under every engine).
const ALL: u8 = 0;
/// Visit the wheel's due set plus the recipients of this cycle's
/// messages (`EngineMode::Sparse`).
const DUE: u8 = 1;
/// Compute the `DUE` set, visit everything, and assert that every unit
/// outside the set does nothing observable (`EngineMode::SparseVerify`).
const CHECKED: u8 = 2;

/// A sparse visit list as unit indices.
fn ids(list: &[u32]) -> impl Iterator<Item = usize> + Clone + '_ {
    list.iter().map(|&u| u as usize)
}

impl System {
    // ------------------------------------------------------------------
    // Activity-wheel unit layout
    // ------------------------------------------------------------------

    /// Wheel unit of core+cache pair `i`. The two sleep and wake as one
    /// unit because they are mutually coupled within a cycle
    /// (`cache.tick(&mut core)` then `core.tick(&mut cache)`).
    pub(crate) fn unit_pair(&self, i: usize) -> usize {
        i
    }

    /// Wheel unit of directory bank `b` (global bank id).
    pub(crate) fn unit_dir(&self, b: usize) -> usize {
        self.cores.len() + b
    }

    /// Wheel unit of the mesh's internal machinery (flight movement,
    /// ARQ deadlines) — arrival delivery belongs to the drain units.
    pub(crate) fn unit_mesh(&self) -> usize {
        self.cores.len() + self.dirs.len()
    }

    /// Wheel unit of node `i`'s arrival-drain step (phase 1).
    /// One-shot: armed by the mesh park log at `park + 1`, never
    /// rescheduled by the visit itself — a parked-but-blocked arrival
    /// is released by the drain that its in-order filler re-arms.
    pub(crate) fn unit_drain(&self, i: usize) -> usize {
        self.cores.len() + self.dirs.len() + 1 + i
    }

    /// A pair's next event: the min of its two component hooks.
    pub(crate) fn pair_next_event(&self, i: usize, now: Cycle) -> Option<Cycle> {
        let cache = self.caches[i].next_event(now);
        let core = self.cores[i].next_event(now, &self.caches[i]);
        match (cache, core) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // ------------------------------------------------------------------
    // The cycle body
    // ------------------------------------------------------------------

    /// Advance the whole system one cycle, visiting every unit.
    pub fn tick(&mut self) {
        self.cycle::<ALL>();
        if self.cfg.engine.is_sparse() {
            // An all-units cycle goes around the wheel: whatever it
            // changed, every unit is re-evaluated at the next sparse
            // cycle, drains included, so the park log is spent.
            self.sched.wake_all(self.now);
            self.mesh.clear_parked_nodes();
        }
    }

    /// One cycle of the machine over visit set `V`.
    ///
    /// Under [`DUE`] every unit outside the active set is provably
    /// inert (its `next_event` is in the future, no message reached it,
    /// and a component tick before its own next event is a no-op by
    /// contract), so skipping the visit is byte-identical to [`ALL`] —
    /// including stats, which are bulk-charged per core at its own
    /// activation. [`CHECKED`] executes that proof obligation.
    fn cycle<const V: u8>(&mut self) {
        let t = self.now;
        let n = self.cores.len();
        // Phase 0: system-level deadlines. The sample must see fully
        // charged idle counters.
        if self.timeline.as_ref().is_some_and(|tl| tl.due(t)) {
            if V != ALL {
                self.flush_idle_charges();
            }
            let totals = self.aggregate_stats();
            if let Some(tl) = self.timeline.as_mut() {
                tl.sample(t, &totals);
            }
        }
        // Soft-error strikes land between cycles, before any component
        // interprets its stored state this cycle. The schedule is a pure
        // function of (seed, plan), so every engine mode flips the same
        // bits on the same cycles.
        if let Some(mut eng) = self.soft.take() {
            for target in eng.fire(t) {
                let applied = match target {
                    SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => {
                        let i = eng.rng_mut().below(n as u64) as usize;
                        if V != ALL {
                            // A flip can change the struck component's
                            // next event; wake it (spuriously on a miss
                            // — harmless, one no-op visit).
                            self.sched.wake_at(self.unit_pair(i), t);
                        }
                        self.caches[i].soft_flip(t, target, eng.rng_mut())
                    }
                    SoftTarget::DirState | SoftTarget::Sharers => {
                        let b = eng.rng_mut().below(self.dirs.len() as u64) as usize;
                        if V != ALL {
                            self.sched.wake_at(self.unit_dir(b), t);
                        }
                        self.dirs[b].soft_flip(t, target, eng.rng_mut())
                    }
                };
                if applied {
                    eng.note_applied();
                } else {
                    eng.note_missed();
                }
            }
            self.soft = Some(eng);
        }
        if self.next_audit_at.is_some_and(|at| t >= at) {
            // `run_audit` ends with a full `wake_all`, so the scrub's
            // repair traffic (and anything else it disturbed) turns
            // this into a full-visit cycle under every engine.
            self.run_audit(false);
            self.next_audit_at = Some(t + self.audit_every);
        }
        if self.chaos_wants_signal {
            let lockdown_live = self.caches.iter().any(|c| c.active_lockdowns() > 0);
            self.mesh.set_chaos_signal(lockdown_live);
        }
        // Pop the due set and split it into this cycle's active sets.
        // After the loop `due` holds only the due drain *nodes*, sorted
        // ascending so phase 1 visits them in node order.
        let mut due = std::mem::take(&mut self.scratch_due);
        let mut pairs = std::mem::take(&mut self.list_pairs);
        let mut dirs_l = std::mem::take(&mut self.list_dirs);
        let mesh_unit = self.unit_mesh();
        let mut mesh_due = false;
        if V != ALL {
            due.clear();
            pairs.clear();
            dirs_l.clear();
            self.sched.take_due(t, &mut due);
            let mut nd = 0;
            for k in 0..due.len() {
                let u = due[k] as usize;
                if u < n {
                    self.activate_pair(u, t, &mut pairs);
                } else if u < mesh_unit {
                    self.activate_dir(u - n, &mut dirs_l);
                } else if u == mesh_unit {
                    mesh_due = true;
                } else {
                    due[nd] = (u - mesh_unit - 1) as u32;
                    nd += 1;
                }
            }
            due.truncate(nd);
            due.sort_unstable();
        }
        // Phase 1: deliver mesh arrivals to caches / directory banks.
        // Every recipient joins the active set (wake-on-message).
        if V == DUE {
            for &node in &due {
                self.deliver_arrivals::<V>(node as usize, &mut pairs, &mut dirs_l);
            }
        } else {
            for i in 0..n {
                let released = self.deliver_arrivals::<V>(i, &mut pairs, &mut dirs_l);
                // An unscheduled node must release nothing, or the
                // sparse engine would have missed a delivery.
                if V == CHECKED {
                    assert!(
                        released == 0 || due.binary_search(&(i as u32)).is_ok(),
                        "SparseVerify: node {i} released {released} arrival(s) at cycle {t} with no drain scheduled",
                    );
                }
            }
        }
        // Phases 2–3: directory banks and deferred cache work, then the
        // core pipelines; ascending ids within each.
        if V == DUE {
            pairs.sort_unstable();
            dirs_l.sort_unstable();
            self.tick_units::<V>(ids(&dirs_l), ids(&pairs));
        } else {
            self.tick_units::<V>(0..self.dirs.len(), 0..n);
        }
        // Phase 4: inject outbound protocol messages, in ascending node
        // order. Under `DUE` only nodes with an active pair or an active
        // hosted bank can have queued any: outboxes are filled only by
        // the actions of active components and drained the same cycle.
        let sent_any = if V == DUE {
            let mut nodes = std::mem::take(&mut self.list_nodes);
            nodes.clear();
            nodes.extend_from_slice(&pairs);
            nodes.extend(dirs_l.iter().map(|&b| self.home.node_of(b as usize) as u32));
            nodes.sort_unstable();
            nodes.dedup();
            let sent = self.inject_outboxes(ids(&nodes));
            self.list_nodes = nodes;
            sent
        } else {
            self.inject_outboxes(0..n)
        };
        // Phase 5: the network. It is active when it has internal work
        // or took new traffic this cycle; parked arrivals arm drain
        // units.
        let mesh_active = mesh_due || sent_any;
        if V != DUE || mesh_active {
            if V == CHECKED && !mesh_active {
                self.tick_sleeping_mesh();
            } else {
                self.mesh.tick(t);
            }
            if V != ALL {
                self.drain_park_log();
            }
        }
        if V != ALL {
            // Reschedule every unit the sparse engine visits from its
            // fresh post-tick state and clear the active sets. Drain
            // units are one-shot — only a new park re-arms them.
            for i in ids(&pairs) {
                self.active_pair[i] = false;
                self.charged_until[i] = t + 1;
                let e = self.pair_next_event(i, t + 1);
                self.sched.set(self.unit_pair(i), e);
            }
            for b in ids(&dirs_l) {
                self.active_dir[b] = false;
                let e = self.dirs[b].next_event(t + 1);
                self.sched.set(self.unit_dir(b), e);
            }
            if mesh_active {
                let e = self.mesh.next_internal_event(t + 1);
                self.sched.set(mesh_unit, e);
            }
            self.engine_visits +=
                (pairs.len() + dirs_l.len() + due.len() + usize::from(mesh_active)) as u64;
            if V == CHECKED {
                // Every core really ticked, so the idle frontier stays
                // current.
                for cu in &mut self.charged_until {
                    *cu = t + 1;
                }
            }
            due.clear();
        }
        self.scratch_due = due;
        self.list_pairs = pairs;
        self.list_dirs = dirs_l;
        self.now = t + 1;
    }

    /// Phase 1 at node `i`: release its arrivals from the mesh and hand
    /// each to its cache or home bank, activating the recipient unless
    /// the cycle visits everything anyway. Returns how many it released.
    fn deliver_arrivals<const V: u8>(
        &mut self,
        i: usize,
        pairs: &mut Vec<u32>,
        dirs_l: &mut Vec<u32>,
    ) -> usize {
        let t = self.now;
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        arrivals.clear();
        self.mesh.drain_arrived_into(NodeId(i as u16), &mut arrivals);
        let released = arrivals.len();
        for m in arrivals.drain(..) {
            let (dest, msg) = m.payload;
            if self.tracer.wants(Category::Protocol) {
                self.tracer.record(
                    t,
                    TraceEvent::MsgRecv {
                        msg: msg.mnemonic(),
                        src: m.src.0,
                        to: comp_of(dest),
                        line: msg.line().0,
                    },
                );
            }
            match dest {
                Dest::Cache(_) => {
                    if V != ALL {
                        self.activate_pair(i, t, pairs);
                    }
                    self.caches[i].handle_msg(t, msg, &mut self.cores[i])
                }
                // Routing delivers by node; the hosting tile
                // dispatches to whichever of its banks owns the line.
                Dest::Dir(_) => {
                    let b = self.home.bank_of(msg.line());
                    if V != ALL {
                        self.activate_dir(b, dirs_l);
                    }
                    self.dirs[b].receive(t, msg)
                }
            }
        }
        self.scratch_arrivals = arrivals;
        released
    }

    /// Phases 2–3 over `banks` and `pairs` (ascending): banks, then
    /// caches, then cores. Under [`CHECKED`] a unit outside the active
    /// set ticks too, but must hold its sleep claim and change nothing;
    /// a sleeping core's cycle must match the bulk idle-charging
    /// prediction counter for counter.
    fn tick_units<const V: u8>(
        &mut self,
        banks: impl Iterator<Item = usize>,
        pairs: impl Iterator<Item = usize> + Clone,
    ) {
        let t = self.now;
        for b in banks {
            if V == CHECKED && !self.active_dir[b] {
                let claim = self.dirs[b].next_event(t);
                assert!(
                    claim.is_none_or(|c| c > t),
                    "SparseVerify: bank {b} slept through its own event at cycle {t} ({claim:?})"
                );
                let pre = self.dirs[b].stats().clone();
                self.dirs[b].tick(t);
                assert_eq!(
                    self.dirs[b].stats(),
                    &pre,
                    "SparseVerify: sleeping bank {b} acted at cycle {t}"
                );
                assert!(
                    self.dirs[b].outbox_is_empty(),
                    "SparseVerify: sleeping bank {b} queued a message at cycle {t}"
                );
            } else {
                self.dirs[b].tick(t);
            }
        }
        for i in pairs.clone() {
            if V == CHECKED && !self.active_pair[i] {
                let claim = self.pair_next_event(i, t);
                assert!(
                    claim.is_none_or(|c| c > t),
                    "SparseVerify: pair {i} slept through its own event at cycle {t} ({claim:?})"
                );
                let pre = self.caches[i].stats().clone();
                let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
                cache.tick(t, core);
                assert_eq!(
                    self.caches[i].stats(),
                    &pre,
                    "SparseVerify: sleeping cache {i} acted at cycle {t}"
                );
                assert!(
                    self.caches[i].outbox_is_empty(),
                    "SparseVerify: sleeping cache {i} queued a message at cycle {t}"
                );
            } else {
                let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
                cache.tick(t, core);
            }
        }
        for i in pairs {
            if V == CHECKED && !self.active_pair[i] {
                let pre_retired = self.cores[i].retired();
                let mut predicted = self.cores[i].stats().clone();
                for (key, v) in self.cores[i].idle_stat_deltas(1) {
                    predicted.add(key, v);
                }
                self.cores[i].tick(t, &mut self.caches[i]);
                assert_eq!(
                    self.cores[i].retired(),
                    pre_retired,
                    "SparseVerify: sleeping core {i} retired at cycle {t}"
                );
                assert_eq!(
                    self.cores[i].stats(),
                    &predicted,
                    "SparseVerify: sleeping core {i} diverged from idle accounting at cycle {t}"
                );
            } else {
                self.cores[i].tick(t, &mut self.caches[i]);
            }
        }
    }

    /// Phase 4 at `nodes` (ascending): move each node's cache and bank
    /// outboxes into the mesh. Returns whether anything was sent.
    fn inject_outboxes(&mut self, nodes: impl Iterator<Item = usize>) -> bool {
        let t = self.now;
        let (data_flits, ctrl_flits) =
            (self.cfg.network.data_flits, self.cfg.network.control_flits);
        let mut sent_any = false;
        for i in nodes {
            let from = NodeId(i as u16);
            // Cache messages precede directory messages so the trace
            // records which component sent each message (the first
            // `cache_n` entries of the scratch buffer are the cache's;
            // a directory message's sending bank is recomputed from its
            // line, since only the home bank ever speaks for a line).
            self.scratch_outbox.clear();
            self.caches[i].drain_outbox_into(&mut self.scratch_outbox);
            let cache_n = self.scratch_outbox.len();
            for b in self.home.banks_at(i) {
                self.dirs[b].drain_outbox_into(&mut self.scratch_outbox);
            }
            for (k, (dest, msg)) in self.scratch_outbox.drain(..).enumerate() {
                let sender = if k < cache_n {
                    CompId::Cache(i as u16)
                } else {
                    CompId::Dir(self.home.bank_of(msg.line()) as u16)
                };
                let flits = msg.flits(data_flits, ctrl_flits);
                if self.tracer.wants(Category::Protocol) {
                    self.tracer.record(
                        t,
                        TraceEvent::MsgSend {
                            msg: msg.mnemonic(),
                            from: sender,
                            to: comp_of(dest),
                            line: msg.line().0,
                            vnet: msg.vnet().index() as u8,
                            flits,
                        },
                    );
                }
                self.mesh.send(
                    t,
                    MeshMsg { src: from, dst: dest.node(), vnet: msg.vnet(), flits, payload: (dest, msg) },
                );
                sent_any = true;
            }
        }
        sent_any
    }

    /// [`CHECKED`] phase 5 when the sparse engine would have skipped the
    /// mesh: it ticks, and must do visibly nothing.
    fn tick_sleeping_mesh(&mut self) {
        let t = self.now;
        let claim = self.mesh.next_internal_event(t);
        assert!(
            claim.is_none_or(|c| c > t),
            "SparseVerify: mesh slept through its own event at cycle {t} ({claim:?})"
        );
        let pre = self.mesh.stats().clone();
        self.mesh.tick(t);
        assert_eq!(self.mesh.stats(), &pre, "SparseVerify: sleeping mesh acted at cycle {t}");
        assert!(
            self.mesh.parked_nodes().is_empty(),
            "SparseVerify: sleeping mesh parked an arrival at cycle {t}"
        );
    }

    /// Schedule a drain visit at `park + 1` for every node the mesh
    /// parked an arrival at this cycle, then clear the log.
    fn drain_park_log(&mut self) {
        let drain_base = self.unit_drain(0);
        let parks = self.mesh.parked_nodes().len();
        for k in 0..parks {
            let nd = self.mesh.parked_nodes()[k] as usize;
            self.sched.wake_at(drain_base + nd, self.now + 1);
        }
        if parks != 0 {
            self.mesh.clear_parked_nodes();
        }
    }

    /// Activate pair `i` for the current cycle (idempotent): bulk-charge
    /// its idle debt up to `t` and add it to the visit list.
    fn activate_pair(&mut self, i: usize, t: Cycle, list: &mut Vec<u32>) {
        if self.active_pair[i] {
            return;
        }
        self.active_pair[i] = true;
        list.push(i as u32);
        let k = t.saturating_sub(self.charged_until[i]);
        if k > 0 {
            self.cores[i].apply_idle_cycles(k);
        }
        self.charged_until[i] = t;
    }

    /// Activate bank `b` for the current cycle (idempotent).
    fn activate_dir(&mut self, b: usize, list: &mut Vec<u32>) {
        if !self.active_dir[b] {
            self.active_dir[b] = true;
            list.push(b as u32);
        }
    }

    /// Bulk-charge every core's outstanding sparse idle debt up to
    /// `now` (exclusive). No-op under the dense engine and when the
    /// frontier is already current. Called before every run exit and
    /// before any externally visible stats read, so observable state is
    /// byte-identical to dense accounting.
    fn flush_idle_charges(&mut self) {
        if !self.cfg.engine.is_sparse() {
            return;
        }
        let t = self.now;
        for (i, c) in self.cores.iter_mut().enumerate() {
            let k = t.saturating_sub(self.charged_until[i]);
            if k > 0 {
                c.apply_idle_cycles(k);
                self.charged_until[i] = t;
            }
        }
    }

    // ------------------------------------------------------------------
    // The run loop and the jump
    // ------------------------------------------------------------------

    /// Run until [`System::done`], a wedge, or `max_cycles`.
    ///
    /// The watchdog tracks the last cycle at which *each* core retired
    /// an instruction (not a global sum: one spinning core retiring
    /// forever must not mask a permanently wedged neighbour). It trips
    /// when the worst per-core stall — or, once every core has drained,
    /// the time the memory system has failed to go idle — exceeds
    /// the configuration's `effective_stall_window()`, and then
    /// diagnoses the wedge from live state. That window is the
    /// configured `stall_window`, widened with the mesh
    /// diameter and while a fault plan is active, so long flights and
    /// retransmission delays are not misread as wedges. Typed protocol
    /// faults abort the run as soon as they are raised.
    ///
    /// The bookkeeping after each executed cycle costs O(units that
    /// cycle visited), not O(cores): see `watchdog.rs` for the invariant.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        // The watchdog's buffers live in `System` for reuse across runs;
        // take them out so the loop can lend `self` and `wd` separately.
        let mut wd = std::mem::take(&mut self.watchdog);
        let outcome = self.run_loop(&mut wd, max_cycles);
        self.watchdog = wd;
        outcome
    }

    fn run_loop(&mut self, wd: &mut Watchdog, max_cycles: u64) -> RunOutcome {
        wd.start(
            self.now,
            self.cfg.effective_stall_window(),
            self.retry_activity(),
            self.cores.iter().map(|c| (c.retired(), c.drained())),
        );
        let deadline = self.now.saturating_add(max_cycles);
        self.deadline = Some(deadline);
        let engine = self.cfg.engine;
        // Any all-units ticking between runs self-accounted its cycles;
        // the sparse idle-charge frontier starts at `now`.
        for cu in &mut self.charged_until {
            *cu = self.now;
        }
        let mut first_check = true;
        while self.now < deadline {
            // The machine can only be done once every core has drained.
            if wd.all_drained() && self.memory_idle() {
                self.flush_idle_charges();
                return RunOutcome::Done;
            }
            // SparseVerify never jumps: it executes every cycle to
            // check the sparse engine's sleep claims against dense
            // reality.
            if engine == EngineMode::Sparse {
                self.try_jump_sparse(wd, deadline);
                if self.now >= deadline {
                    break;
                }
            }
            match engine {
                EngineMode::Dense => self.cycle::<ALL>(),
                EngineMode::Sparse => self.cycle::<DUE>(),
                EngineMode::SparseVerify => self.cycle::<CHECKED>(),
            }
            // A fault may predate this run (a restored snapshot), so the
            // first check looks at everyone, as do the engines that tick
            // the whole machine (Dense and SparseVerify).
            let fault = if engine == EngineMode::Sparse && !first_check {
                self.observe_visited(wd, ids(&self.list_pairs), ids(&self.list_dirs))
            } else {
                wd.rescans += 2;
                self.observe_visited(wd, 0..self.cores.len(), 0..self.dirs.len())
            };
            first_check = false;
            if let Some(e) = fault {
                self.flush_idle_charges();
                let stalled = wd.stalled_cores(self.now, |i| self.cores[i].drained());
                let report = self.diagnose(stalled, 0, Some(e));
                return RunOutcome::Fault(Box::new(report));
            }
            wd.note_cycle(self.now, || self.retry_activity());
            if wd.tripped(self.now) {
                self.flush_idle_charges();
                let retries = wd.retries_in_window(self.now, self.retry_activity());
                let stalled = wd.stalled_cores(self.now, |i| self.cores[i].drained());
                let report = self.diagnose(stalled, retries, None);
                return RunOutcome::Wedge(Box::new(report));
            }
        }
        self.flush_idle_charges();
        if self.done() {
            RunOutcome::Done
        } else {
            RunOutcome::Budget
        }
    }

    /// The earliest cycle at which any system-level deadline fires
    /// (timeline sample, soft-error strike, periodic audit): `Some(now)`
    /// if one is due this cycle, the minimum future deadline otherwise.
    fn system_deadline(&self) -> Option<Cycle> {
        let deadlines = [
            self.timeline.as_ref().map(|tl| tl.next_sample_at()),
            self.soft.as_ref().and_then(SoftEngine::next_fire),
            self.next_audit_at,
        ];
        deadlines.into_iter().flatten().min().map(|c| c.max(self.now))
    }

    /// Sparse-engine fast-forward: when neither the wheel nor a system
    /// deadline schedules anything for this cycle, jump `now` to the
    /// earliest scheduled wake. The jump is capped at the cycle of the
    /// last tick dense mode would execute before the watchdog trips
    /// (and at `deadline`), with the watchdog snapshots dense ticking
    /// would have taken synthesized, so wedge and budget outcomes land
    /// on exactly the dense cycle. There is no bulk idle charge here —
    /// each core's debt is charged at its own next activation. The
    /// wheel's bound may be early (lazily invalidated entries): an
    /// early landing executes one inert sparse cycle and re-probes, it
    /// never diverges.
    fn try_jump_sparse(&mut self, wd: &mut Watchdog, deadline: Cycle) {
        let start = self.now;
        let wheel = self.sched.earliest().unwrap_or(Cycle::MAX);
        if wheel <= start {
            return;
        }
        let wake = wheel.min(self.system_deadline().unwrap_or(Cycle::MAX));
        if wake <= start {
            return;
        }
        let target = wd.jump_target(start, wake, deadline);
        if target <= start {
            return;
        }
        self.skipped_cycles += target - start;
        self.skip_windows += 1;
        self.now = target;
        // `retry_activity` reads no idle-charged counter, so pending
        // idle debt cannot skew the synthesized snapshots.
        wd.note_jump(start, target, || self.retry_activity());
    }

    /// Total retry-shaped protocol activity: Nack-driven directory
    /// retries, Option-1 re-invalidation rounds, tear-off read retries
    /// and Nacks sent. A wedge during which this keeps climbing is a
    /// livelock (messages flow, nobody retires), not a deadlock.
    fn retry_activity(&self) -> u64 {
        let mut total = 0;
        for d in &self.dirs {
            total += d.stats().get("dir_nack_retries") + d.stats().get("dir_option1_reinvalidations");
        }
        for c in &self.caches {
            total += c.stats().get("cache_nacks_sent");
        }
        for c in &self.cores {
            total += c.stats().get("core_tearoff_retries");
        }
        total
    }

    /// The post-tick checks over the units a cycle visited (`pairs` and
    /// `banks`, ascending): the first typed protocol fault recorded by a
    /// cache, then by a directory bank; without one, every visited
    /// core's progress goes to the watchdog. Only a visited unit can
    /// have retired, drained or raised a fault this cycle: a sleeping
    /// core's counters cannot move, message delivery and soft strikes
    /// activate their target first, and an audit wakes everything.
    fn observe_visited(
        &self,
        wd: &mut Watchdog,
        pairs: impl Iterator<Item = usize> + Clone,
        mut banks: impl Iterator<Item = usize>,
    ) -> Option<ProtocolError> {
        let fault = pairs
            .clone()
            .find_map(|i| self.caches[i].fault())
            .or_else(|| banks.find_map(|b| self.dirs[b].fault()));
        if fault.is_none() {
            for i in pairs {
                let c = &self.cores[i];
                wd.observe(self.now, i, c.retired(), c.drained());
            }
        }
        fault.cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::config::{CommitMode, CoreClass, SystemConfig};

    /// The oracle must be able to fail: a 2-core `mp` machine under
    /// `SparseVerify`, handed to a test that breaks one wheel entry.
    fn mp_under_verify() -> System {
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(2)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_engine(EngineMode::SparseVerify);
        System::new(cfg, &wb_tso::litmus::mp().workload)
    }

    #[test]
    #[should_panic(expected = "slept through its own event")]
    fn verify_trips_when_a_busy_pair_loses_its_wake() {
        let mut sys = mp_under_verify();
        let _ = sys.run(3);
        let busy = (0..2)
            .find(|&i| sys.pair_next_event(i, sys.now) == Some(sys.now))
            .expect("a core is still fetching at cycle 3");
        sys.sched.set(sys.unit_pair(busy), None);
        let _ = sys.run(1);
    }

    #[test]
    #[should_panic(expected = "with no drain scheduled")]
    fn verify_trips_when_a_parked_arrival_loses_its_drain() {
        let mut sys = mp_under_verify();
        let node = loop {
            assert!(!sys.done(), "mp finished without ever parking an arrival");
            let _ = sys.run(1);
            let due = |i: &usize| {
                sys.mesh.has_arrivals_at(NodeId(*i as u16))
                    && sys.sched.wake_of(sys.unit_drain(*i)) == Some(sys.now)
            };
            if let Some(i) = (0..2).find(due) {
                break i;
            }
        };
        sys.sched.set(sys.unit_drain(node), None);
        let _ = sys.run(1);
    }
}
