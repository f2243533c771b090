//! The full system: cores + private caches + directory banks + mesh.

use crate::report::Report;
use crate::watchdog::Watchdog;
use wb_cpu::Core;
use wb_isa::{Reg, Workload};
use wb_kernel::audit::{AuditKind, AuditReport, AuditViolation};
use wb_kernel::chaos::ChaosEngine;
use wb_kernel::config::{EngineMode, SystemConfig};
use wb_kernel::fault::FaultEngine;
use wb_kernel::soft::{SoftEngine, SoftTarget};
use wb_kernel::trace::{self, Category, CompId, Record, TraceEvent, TraceFilter, TraceSink, Tracer};
use wb_kernel::wedge::{self, WaitEdge, WaitParty, WedgeClass, WedgeReport};
use wb_kernel::{ActivitySched, Cycle, HeavyHitters, NodeId, Stats, Timeline};
use wb_mem::{Addr, HomeMap};
use wb_mesh::{Mesh, MeshMsg};
use wb_protocol::messages::Dest;
use wb_protocol::{Directory, PrivateCache, ProtoMsg, ProtocolError, SharerSet};
use wb_tso::{CheckError, ExecutionLog, TsoChecker};

/// How a [`System::run`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every core halted and the memory system drained.
    Done,
    /// The cycle budget ran out first.
    Budget,
    /// Some core made no progress for a whole stall window while work
    /// was still pending. The report classifies the wedge (deadlock,
    /// livelock, or starvation) from live machine state — none of these
    /// must ever happen under WritersBlock (Section 3.5).
    Wedge(Box<WedgeReport>),
    /// A protocol component reached an "impossible" state and recorded a
    /// typed fault instead of panicking the process.
    Fault(Box<WedgeReport>),
}

impl RunOutcome {
    /// Did the run complete cleanly?
    pub fn is_done(&self) -> bool {
        matches!(self, RunOutcome::Done)
    }

    /// The wedge report, for `Wedge` and `Fault` outcomes.
    pub fn wedge_report(&self) -> Option<&WedgeReport> {
        match self {
            RunOutcome::Wedge(r) | RunOutcome::Fault(r) => Some(r),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Done => write!(f, "done"),
            RunOutcome::Budget => write!(f, "cycle budget exhausted"),
            RunOutcome::Wedge(r) | RunOutcome::Fault(r) => write!(f, "{r}"),
        }
    }
}

/// The trace identity of a message destination.
fn comp_of(dest: Dest) -> CompId {
    match dest {
        Dest::Cache(n) => CompId::Cache(n.0),
        Dest::Dir(n) => CompId::Dir(n.0),
    }
}

/// A full simulated multicore.
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    mesh: Mesh<(Dest, ProtoMsg)>,
    cores: Vec<Core>,
    caches: Vec<PrivateCache>,
    /// All directory banks, indexed by global bank id; bank `b` is
    /// hosted at node `home.node_of(b)`.
    dirs: Vec<Directory>,
    /// Line-to-bank-to-node home mapping shared with every cache.
    home: HomeMap,
    init_mem: Vec<(Addr, u64)>,
    workload_name: String,
    /// When set, every delivered protocol message for this line is
    /// emitted through the sink (see [`System::trace_line`]).
    trace_line: Option<wb_mem::LineAddr>,
    /// System-glue event ring (message delivery and injection).
    tracer: Tracer,
    /// Where human-readable trace lines go (stderr by default).
    sink: TraceSink,
    /// The installed chaos plan has a directed `StallWhileSignal`
    /// clause, so `tick` must push the lockdown-live signal each cycle.
    chaos_wants_signal: bool,
    /// Scratch buffers reused across `tick` calls so the per-cycle hot
    /// path performs no allocation once warm.
    scratch_arrivals: Vec<MeshMsg<(Dest, ProtoMsg)>>,
    scratch_outbox: Vec<(Dest, ProtoMsg)>,
    /// Interval sampler: when enabled, every `sample_every` cycles
    /// the aggregated stats delta lands in a window ring. The sample
    /// deadline is merged into `quiescent_until` as one more
    /// `next_event` source, so Skip mode lands samples on exactly the
    /// dense cycles and the exported JSONL stays byte-identical.
    timeline: Option<Timeline>,
    /// Cycles fast-forwarded and windows taken by the skip engine.
    /// Engine diagnostics only — deliberately NOT part of [`Report`]
    /// stats, which must be byte-identical across engine modes.
    skipped_cycles: u64,
    skip_windows: u64,
    /// Adaptive probe throttle: after a failed quiescence probe the
    /// next one waits `probe_stride` cycles (doubling up to
    /// [`Self::MAX_PROBE_STRIDE`]), so busy phases pay almost nothing
    /// for the skip engine. Not probing a cycle just means ticking it
    /// densely — exactness never depends on the throttle.
    probe_stride: u64,
    next_probe_at: Cycle,
    /// Soft-error injector (`None` when `cfg.soft` is absent or the
    /// empty plan — both leave runs byte-identical to a soft-free
    /// build). Flips are applied at the top of `tick`, and the firing
    /// schedule is merged into `quiescent_until` so Skip never jumps
    /// over one.
    soft: Option<SoftEngine>,
    /// Online-auditor cadence in cycles (0 = periodic audits off; the
    /// end-of-run audit is always available via [`System::run_audit`]).
    audit_every: u64,
    /// Next scheduled periodic audit, merged into `quiescent_until`
    /// like the timeline sampler so Skip stays cycle-exact.
    next_audit_at: Option<Cycle>,
    /// Auditor outcome counters, merged into [`System::report`] stats.
    audit_runs: u64,
    audit_violations: u64,
    /// Calendar-wheel activity scheduler (see [`wb_kernel::sched`]).
    /// Sized for every unit — core+cache pairs, directory banks, the
    /// mesh, and per-node arrival-drain units — whenever the engine is
    /// not Dense; zero-unit (dormant) otherwise. The skip engines use
    /// it as the probe index behind `quiescent_until`; the sparse
    /// engines drive the whole per-cycle visit set from it.
    sched: ActivitySched,
    /// Per-core exclusive idle-accounting frontier for the sparse
    /// engines: every cycle below `charged_until[i]` is reflected in
    /// core `i`'s counters, either by a real tick or by
    /// [`Core::apply_idle_cycles`] bulk-charged at the core's next
    /// activation. Flushed before any external stats read (timeline
    /// samples, run exits), so observable state never carries debt.
    charged_until: Vec<Cycle>,
    /// Sparse-engine diagnostic: component visits actually executed
    /// (pair, bank, mesh and drain visits). Like `skipped_cycles`,
    /// engine diagnostics — never part of [`Report`] stats.
    engine_visits: u64,
    /// Scratch for the wheel's due set (reused, allocation-free).
    scratch_due: Vec<u32>,
    /// Sparse per-cycle active sets: membership flags plus insertion
    /// lists, sorted before each phase so visit order matches the
    /// dense engine's ascending iteration exactly. The lists outlive
    /// the tick: they are what the run loop's post-tick checks walk.
    active_pair: Vec<bool>,
    active_dir: Vec<bool>,
    list_pairs: Vec<u32>,
    list_dirs: Vec<u32>,
    /// Scratch for the nodes that inject this sparse cycle (phase 4).
    list_nodes: Vec<u32>,
    /// Wedge-watchdog bookkeeping of the current (or last) run; kept
    /// here so its buffers are reused across runs.
    watchdog: Watchdog,
}

/// A sparse visit list as unit indices.
fn ids(list: &[u32]) -> impl Iterator<Item = usize> + Clone + '_ {
    list.iter().map(|&u| u as usize)
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload_name)
            .field("cycle", &self.now)
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl System {
    /// Build a system for `workload`. Cores beyond the workload's
    /// programs idle (empty programs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SystemConfig::validate`]) or the workload needs more cores than
    /// configured.
    pub fn new(cfg: SystemConfig, workload: &Workload) -> Self {
        cfg.validate();
        assert!(
            workload.cores() <= cfg.num_cores,
            "workload '{}' needs {} cores, system has {}",
            workload.name,
            workload.cores(),
            cfg.num_cores
        );
        let n = cfg.num_cores;
        let cores = (0..n)
            .map(|i| {
                let prog = workload.programs.get(i).cloned().unwrap_or_default();
                Core::with_event_log(NodeId(i as u16), cfg.core.clone(), cfg.protocol, prog, cfg.record_events)
            })
            .collect();
        let home = HomeMap::new(n, cfg.memory.dir_banks_per_node);
        let caches: Vec<PrivateCache> = (0..n)
            .map(|i| PrivateCache::new(NodeId(i as u16), home, &cfg.memory, cfg.protocol))
            .collect();
        let mut dirs: Vec<Directory> =
            (0..home.total_banks()).map(|b| Directory::new(b, &home, &cfg)).collect();
        for (addr, value) in &workload.init_mem {
            dirs[home.bank_of(addr.line())].init_word(*addr, *value);
        }
        let net = &cfg.network;
        let mut mesh =
            Mesh::new(net.mesh_width, net.mesh_height, n, net.hop_cycles, net.jitter, cfg.seed);
        if let Some(plan) = &cfg.chaos {
            mesh.set_chaos(Some(ChaosEngine::new(plan.clone(), cfg.seed)));
        }
        if let Some(plan) = &cfg.fault {
            // Lossy links need the ARQ sublayer underneath the protocol;
            // without a fault plan neither is constructed, keeping the
            // fast path byte-identical to a pre-fault-model system.
            mesh.enable_reliable(cfg.network.link.clone());
            mesh.set_fault(Some(FaultEngine::new(plan.clone(), cfg.seed)));
        }
        let chaos_wants_signal = mesh.chaos_wants_signal();
        let soft = match &cfg.soft {
            Some(plan) if !plan.is_none() => Some(SoftEngine::new(plan.clone(), cfg.seed)),
            _ => None,
        };
        let mut caches = caches;
        if soft.is_some() {
            // Guards are maintained (and flips possible) only with a
            // live plan; `SoftPlan::none()` keeps every guard word 0 so
            // its snapshots stay byte-identical to `soft: None`.
            for c in &mut caches {
                c.set_soft(true);
            }
            for d in &mut dirs {
                d.set_soft(true, n);
            }
        }
        // With flips landing, detection must not depend on the workload
        // happening to touch the wounded line: a periodic audit scrub
        // bounds every wound's lifetime well below the wedge watchdog.
        let audit_every = if soft.is_some() { 10_000 } else { 0 };
        let next_audit_at = (audit_every > 0).then_some(audit_every);
        // Unit-id layout in the activity wheel: pairs (core+cache),
        // then banks in global order, then the mesh, then one
        // arrival-drain unit per node. Dense mode keeps the wheel
        // empty (zero units) so every mark is a no-op.
        let units = if cfg.engine.uses_wheel() { n + home.total_banks() + 1 + n } else { 0 };
        let mut sched = ActivitySched::new(units);
        if sched.units() != 0 {
            sched.wake_all(0);
        }
        if cfg.engine.is_sparse() {
            // Sparse engines learn which nodes received arrivals from
            // the mesh's park log (wake-on-message for drain units).
            mesh.set_park_log(true);
        }
        System {
            now: 0,
            mesh,
            cores,
            caches,
            dirs,
            home,
            init_mem: workload.init_mem.clone(),
            workload_name: workload.name.clone(),
            trace_line: None,
            tracer: Tracer::new(CompId::System),
            sink: TraceSink::default(),
            chaos_wants_signal,
            scratch_arrivals: Vec::new(),
            scratch_outbox: Vec::new(),
            timeline: None,
            skipped_cycles: 0,
            skip_windows: 0,
            probe_stride: 1,
            next_probe_at: 0,
            soft,
            audit_every,
            next_audit_at,
            audit_runs: 0,
            audit_violations: 0,
            sched,
            charged_until: vec![0; n],
            engine_visits: 0,
            scratch_due: Vec::new(),
            active_pair: vec![false; n],
            active_dir: vec![false; home.total_banks()],
            list_pairs: Vec::new(),
            list_dirs: Vec::new(),
            list_nodes: Vec::new(),
            watchdog: Watchdog::default(),
            cfg,
        }
    }

    /// Enable (or retime) the periodic online audit: every `every`
    /// cycles the auditor scrubs wounds and checks the coherence
    /// invariants. `0` disables periodic runs. Scheduled like the
    /// timeline sampler — merged into the skip engine's `next_event`
    /// set, so audits land on identical cycles in every engine mode.
    pub fn enable_audit(&mut self, every: u64) {
        self.audit_every = every;
        self.next_audit_at = (every > 0).then(|| self.now + every);
    }

    /// Ceiling for the adaptive probe throttle. Worst case a quiescent
    /// window starts this many cycles late — negligible against the
    /// multi-thousand-cycle windows skipping exists for.
    const MAX_PROBE_STRIDE: u64 = 32;

    /// Cycles the engine fast-forwarded instead of ticking (0 in dense
    /// mode). Diagnostic: not part of [`Report`] stats, which stay
    /// byte-identical across engine modes.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Number of quiescent windows the engine jumped over.
    pub fn skip_windows(&self) -> u64 {
        self.skip_windows
    }

    /// Component visits executed by the sparse engines (0 elsewhere).
    /// A dense tick visits every pair, bank, drain and the mesh each
    /// cycle; this counter divided by cycles executed measures how much
    /// of the machine was actually live. Diagnostic only — never part
    /// of [`Report`] stats.
    pub fn engine_visits(&self) -> u64 {
        self.engine_visits
    }

    /// Passes over *every* core (or every cache and bank) the run loop's
    /// bookkeeping took, over all runs so far: the per-run set-up, full
    /// fault scans, all-core progress walks and exact oldest-progress
    /// recomputes. A dense-ticking engine takes two per executed cycle
    /// (it visits everyone); the sparse engine takes one only when a
    /// stale bound says a watchdog trip is possible. Diagnostic only —
    /// never part of [`Report`] stats or snapshots.
    pub fn watchdog_rescans(&self) -> u64 {
        self.watchdog.rescans
    }

    // ------------------------------------------------------------------
    // Activity-wheel unit layout
    // ------------------------------------------------------------------

    /// Wheel unit of core+cache pair `i`. The two sleep and wake as one
    /// unit because they are mutually coupled within a cycle
    /// (`cache.tick(&mut core)` then `core.tick(&mut cache)`).
    fn unit_pair(&self, i: usize) -> usize {
        i
    }

    /// Wheel unit of directory bank `b` (global bank id).
    fn unit_dir(&self, b: usize) -> usize {
        self.cores.len() + b
    }

    /// Wheel unit of the mesh's internal machinery (flight movement,
    /// ARQ deadlines) — arrival delivery belongs to the drain units.
    fn unit_mesh(&self) -> usize {
        self.cores.len() + self.dirs.len()
    }

    /// Wheel unit of node `i`'s arrival-drain step (dense phase 1).
    /// One-shot: armed by the mesh park log at `park + 1`, never
    /// rescheduled by the visit itself — a parked-but-blocked arrival
    /// is released by the drain that its in-order filler re-arms.
    fn unit_drain(&self, i: usize) -> usize {
        self.cores.len() + self.dirs.len() + 1 + i
    }

    /// A pair's next event: the min of its two component hooks.
    fn pair_next_event(&self, i: usize, now: Cycle) -> Option<Cycle> {
        let cache = self.caches[i].next_event(now);
        let core = self.cores[i].next_event(now, &self.caches[i]);
        match (cache, core) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Enable timeline sampling: every `sample_every` cycles the delta
    /// of every counter and histogram (aggregated across components)
    /// is recorded as a [`wb_kernel::TimelineWindow`]. Enabling
    /// mid-run starts the first window at the current cycle. Sampling
    /// is engine-exact: the deadline is a `next_event` source, so
    /// Dense and Skip runs produce byte-identical timelines.
    pub fn enable_timeline(&mut self, sample_every: u64) {
        let tl = Timeline::new(sample_every);
        self.timeline = Some(if self.now == 0 {
            tl
        } else {
            tl.with_origin(self.now, &self.aggregate_stats())
        });
    }

    /// The interval sampler, when enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// The sampled timeline as JSONL (one window per line), with a
    /// final partial window closed at the current cycle. Empty string
    /// when sampling was never enabled.
    pub fn timeline_jsonl(&self) -> String {
        match &self.timeline {
            None => String::new(),
            Some(tl) => {
                let mut tl = tl.clone();
                tl.flush(self.now, &self.aggregate_stats());
                tl.to_jsonl()
            }
        }
    }

    /// Emit every delivered protocol message touching `line` through the
    /// trace sink (stderr by default) — the protocol debugging tool
    /// behind the `protocol_trace` example.
    pub fn trace_line(&mut self, line: Option<wb_mem::LineAddr>) {
        self.trace_line = line;
    }

    /// Enable event tracing on every component (cores, caches,
    /// directory banks, mesh, and the system glue) with `filter`.
    /// `TraceFilter::OFF` turns it back off; recorded events are kept.
    pub fn set_trace(&mut self, filter: TraceFilter) {
        for c in &mut self.cores {
            c.set_trace(filter);
        }
        for c in &mut self.caches {
            c.set_trace(filter);
        }
        for d in &mut self.dirs {
            d.set_trace(filter);
        }
        self.mesh.set_trace(filter);
        self.tracer.set_filter(filter);
    }

    /// Swap the human-readable trace sink (default: stderr), returning
    /// the previous one. `TraceSink::Capture` makes output testable.
    pub fn set_trace_sink(&mut self, sink: TraceSink) -> TraceSink {
        std::mem::replace(&mut self.sink, sink)
    }

    /// Lines collected by a [`TraceSink::Capture`] sink (empty for
    /// other sinks).
    pub fn take_sink_lines(&mut self) -> Vec<String> {
        self.sink.take_lines()
    }

    /// Every recorded event, merged into one cycle-ordered timeline.
    /// Same-cycle records keep a fixed component order (system glue,
    /// cores, caches, directories, mesh), so the result is
    /// deterministic for a deterministic simulation.
    pub fn collect_trace(&self) -> Vec<Record> {
        trace::merge_records(self.trace_sources())
    }

    /// Every component's tracer in the fixed merge order (system glue,
    /// cores, caches, directories, mesh).
    fn trace_sources(&self) -> Vec<&Tracer> {
        let mut sources: Vec<&Tracer> = vec![&self.tracer];
        sources.extend(self.cores.iter().map(|c| c.tracer()));
        sources.extend(self.caches.iter().map(|c| c.tracer()));
        sources.extend(self.dirs.iter().map(|d| d.tracer()));
        sources.push(self.mesh.tracer());
        sources
    }

    /// Chrome trace-event JSON of everything recorded so far — loads
    /// in `chrome://tracing` or <https://ui.perfetto.dev>. When the
    /// timeline sampler is enabled its windows ride along as counter
    /// tracks (`"ph":"C"`), plotting per-window deltas over time.
    pub fn chrome_trace(&self) -> String {
        let counters = match &self.timeline {
            None => Vec::new(),
            Some(tl) => {
                let mut tl = tl.clone();
                tl.flush(self.now, &self.aggregate_stats());
                tl.counter_tracks()
            }
        };
        let samples: Vec<trace::CounterSample> = counters
            .iter()
            .map(|(cycle, track, value)| trace::CounterSample {
                cycle: *cycle,
                track,
                value: *value,
            })
            .collect();
        trace::chrome_trace_json_ext(&self.collect_trace(), &samples)
    }

    /// Emit the last `n` recorded events touching cache line `line`
    /// (every event when `line` is `None`) through the trace sink.
    pub fn dump_trace_for_line(&mut self, line: Option<u64>, n: usize) {
        // Filter while merging: re-sorting every recorded event just to
        // print the last few matching ones is wasted work on big traces.
        let matching =
            trace::merge_records_where(self.trace_sources(), |r| {
                line.is_none() || r.event.line() == line
            });
        for r in &matching[matching.len().saturating_sub(n)..] {
            self.sink.emit(&r.to_string());
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Advance the whole system one cycle.
    pub fn tick(&mut self) {
        if self.timeline.as_ref().is_some_and(|tl| tl.due(self.now)) {
            let totals = self.aggregate_stats();
            if let Some(tl) = self.timeline.as_mut() {
                tl.sample(self.now, &totals);
            }
        }
        let n = self.cores.len();
        // Soft-error strikes land between cycles, before any component
        // interprets its stored state this cycle. The schedule is a pure
        // function of (seed, plan), so every engine mode flips the same
        // bits on the same cycles.
        if let Some(mut eng) = self.soft.take() {
            for target in eng.fire(self.now) {
                let applied = match target {
                    SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => {
                        let i = eng.rng_mut().below(n as u64) as usize;
                        if self.sched.units() != 0 {
                            // A flip can change the struck component's
                            // next event; wake it (spuriously on a miss
                            // — harmless, one no-op visit).
                            self.sched.wake_at(self.unit_pair(i), self.now);
                        }
                        self.caches[i].soft_flip(self.now, target, eng.rng_mut())
                    }
                    SoftTarget::DirState | SoftTarget::Sharers => {
                        let b = eng.rng_mut().below(self.dirs.len() as u64) as usize;
                        if self.sched.units() != 0 {
                            self.sched.wake_at(self.unit_dir(b), self.now);
                        }
                        self.dirs[b].soft_flip(self.now, target, eng.rng_mut())
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
        if self.next_audit_at.is_some_and(|at| self.now >= at) {
            self.run_audit(false);
            self.next_audit_at = Some(self.now + self.audit_every);
        }
        if self.chaos_wants_signal {
            let lockdown_live = self.caches.iter().any(|c| c.active_lockdowns() > 0);
            self.mesh.set_chaos_signal(lockdown_live);
        }
        // 1. Deliver mesh arrivals to caches / directory banks.
        for i in 0..n {
            self.scratch_arrivals.clear();
            self.mesh.drain_arrived_into(NodeId(i as u16), &mut self.scratch_arrivals);
            for m in self.scratch_arrivals.drain(..) {
                let (dest, msg) = m.payload;
                if self.trace_line == Some(msg.line()) {
                    self.sink.emit(&format!(
                        "[{:>8}] {} -> {:?}: {:?}",
                        self.now, m.src, dest, msg
                    ));
                }
                if self.tracer.wants(Category::Protocol) {
                    self.tracer.record(
                        self.now,
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
                        if self.sched.units() != 0 {
                            // Wake-on-message: the recipient acts this
                            // cycle regardless of its cached wake time.
                            // (Unit ids inlined: pair i is unit i, bank
                            // b is unit n + b — see `unit_pair`.)
                            self.sched.wake_at(i, self.now);
                        }
                        self.caches[i].handle_msg(self.now, msg, &mut self.cores[i])
                    }
                    // Routing delivers by node; the hosting tile
                    // dispatches to whichever of its banks owns the line.
                    Dest::Dir(_) => {
                        let b = self.home.bank_of(msg.line());
                        if self.sched.units() != 0 {
                            self.sched.wake_at(n + b, self.now);
                        }
                        self.dirs[b].receive(self.now, msg)
                    }
                }
            }
        }
        // 2. Directory banks and deferred cache work.
        for d in &mut self.dirs {
            d.tick(self.now);
        }
        for i in 0..n {
            let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
            cache.tick(self.now, core);
        }
        // 3. Cores (pipeline).
        for i in 0..n {
            self.cores[i].tick(self.now, &mut self.caches[i]);
        }
        // 4. Inject outbound protocol messages.
        let (data_flits, ctrl_flits) =
            (self.cfg.network.data_flits, self.cfg.network.control_flits);
        let mut sent_any = false;
        for i in 0..n {
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
                        self.now,
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
                    self.now,
                    MeshMsg { src: from, dst: dest.node(), vnet: msg.vnet(), flits, payload: (dest, msg) },
                );
                sent_any = true;
            }
        }
        // 5. The network.
        self.mesh.tick(self.now);
        if self.sched.units() != 0 {
            if sent_any {
                self.sched.wake_at(self.unit_mesh(), self.now);
            }
            self.drain_park_log();
        }
        self.now += 1;
    }

    /// Schedule a drain visit at `park + 1` for every node the mesh
    /// parked an arrival at this cycle, then clear the log. The log is
    /// only populated under the sparse engines (`set_park_log`);
    /// elsewhere this is a no-op.
    fn drain_park_log(&mut self) {
        let drain_base = self.cores.len() + self.dirs.len() + 1;
        let parks = self.mesh.parked_nodes().len();
        for k in 0..parks {
            let nd = self.mesh.parked_nodes()[k] as usize;
            self.sched.wake_at(drain_base + nd, self.now + 1);
        }
        if parks != 0 {
            self.mesh.clear_parked_nodes();
        }
    }

    /// Advance one cycle visiting only live components
    /// (`EngineMode::Sparse`). The wheel's due set plus everything a
    /// delivery touches this cycle is the active set; every unit
    /// outside it is provably inert (its `next_event` is in the
    /// future, no message reached it, and a component tick before its
    /// own next event is a no-op by contract), so skipping the visit
    /// is byte-identical to the dense engine — including stats, which
    /// are bulk-charged per core at its own activation.
    fn tick_sparse(&mut self) {
        let t = self.now;
        let n = self.cores.len();
        // Phase 0: system-level deadlines, in dense order. The sample
        // must see fully charged idle counters.
        if self.timeline.as_ref().is_some_and(|tl| tl.due(t)) {
            self.flush_idle_charges();
            let totals = self.aggregate_stats();
            if let Some(tl) = self.timeline.as_mut() {
                tl.sample(t, &totals);
            }
        }
        if let Some(mut eng) = self.soft.take() {
            for target in eng.fire(t) {
                let applied = match target {
                    SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => {
                        let i = eng.rng_mut().below(n as u64) as usize;
                        self.sched.wake_at(self.unit_pair(i), t);
                        self.caches[i].soft_flip(t, target, eng.rng_mut())
                    }
                    SoftTarget::DirState | SoftTarget::Sharers => {
                        let b = eng.rng_mut().below(self.dirs.len() as u64) as usize;
                        self.sched.wake_at(self.unit_dir(b), t);
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
            // this into a dense-equivalent full-visit cycle.
            self.run_audit(false);
            self.next_audit_at = Some(t + self.audit_every);
        }
        if self.chaos_wants_signal {
            let lockdown_live = self.caches.iter().any(|c| c.active_lockdowns() > 0);
            self.mesh.set_chaos_signal(lockdown_live);
        }
        // Pop the due set and split it into this cycle's active sets.
        // After the loop `due` holds only the due drain *nodes*, sorted
        // ascending so phase 1 visits them in dense node order.
        let mut due = std::mem::take(&mut self.scratch_due);
        let mut pairs = std::mem::take(&mut self.list_pairs);
        let mut dirs_l = std::mem::take(&mut self.list_dirs);
        due.clear();
        pairs.clear();
        dirs_l.clear();
        self.sched.take_due(t, &mut due);
        let mesh_unit = n + self.dirs.len();
        let mut mesh_due = false;
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
        // Phase 1: deliver arrivals at nodes with a scheduled drain.
        // Every recipient joins the active set (wake-on-message).
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        for k in 0..due.len() {
            let i = due[k] as usize;
            arrivals.clear();
            self.mesh.drain_arrived_into(NodeId(i as u16), &mut arrivals);
            for m in arrivals.drain(..) {
                let (dest, msg) = m.payload;
                if self.trace_line == Some(msg.line()) {
                    self.sink.emit(&format!("[{:>8}] {} -> {:?}: {:?}", t, m.src, dest, msg));
                }
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
                        self.activate_pair(i, t, &mut pairs);
                        self.caches[i].handle_msg(t, msg, &mut self.cores[i])
                    }
                    Dest::Dir(_) => {
                        let b = self.home.bank_of(msg.line());
                        self.activate_dir(b, &mut dirs_l);
                        self.dirs[b].receive(t, msg)
                    }
                }
            }
        }
        self.scratch_arrivals = arrivals;
        // Phases 2–3: tick the active set in dense component order
        // (banks, then caches, then cores; ascending ids).
        pairs.sort_unstable();
        dirs_l.sort_unstable();
        for k in 0..dirs_l.len() {
            self.dirs[dirs_l[k] as usize].tick(t);
        }
        for k in 0..pairs.len() {
            let i = pairs[k] as usize;
            let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
            cache.tick(t, core);
        }
        for k in 0..pairs.len() {
            let i = pairs[k] as usize;
            self.cores[i].tick(t, &mut self.caches[i]);
        }
        // Phase 4: inject from nodes with an active pair or an active
        // hosted bank, in ascending node order like the dense engine.
        // Inactive components cannot have queued messages: outboxes are
        // filled only by the actions of active components and drained
        // the same cycle.
        let mut nodes = std::mem::take(&mut self.list_nodes);
        nodes.clear();
        nodes.extend_from_slice(&pairs);
        nodes.extend(dirs_l.iter().map(|&b| self.home.node_of(b as usize) as u32));
        nodes.sort_unstable();
        nodes.dedup();
        let (data_flits, ctrl_flits) =
            (self.cfg.network.data_flits, self.cfg.network.control_flits);
        let mut sent_any = false;
        for &node in &nodes {
            let i = node as usize;
            let from = NodeId(i as u16);
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
        self.list_nodes = nodes;
        // Phase 5: the network runs when it has internal work or took
        // new traffic this cycle; parked arrivals arm drain units.
        let mesh_active = mesh_due || sent_any;
        if mesh_active {
            self.mesh.tick(t);
            self.drain_park_log();
        }
        // Reschedule every visited unit from its fresh post-tick state
        // and clear the active sets. Drain units are one-shot — only a
        // new park re-arms them.
        for k in 0..pairs.len() {
            let i = pairs[k] as usize;
            self.active_pair[i] = false;
            self.charged_until[i] = t + 1;
            let e = self.pair_next_event(i, t + 1);
            self.sched.set(self.unit_pair(i), e);
        }
        for k in 0..dirs_l.len() {
            let b = dirs_l[k] as usize;
            self.active_dir[b] = false;
            let e = self.dirs[b].next_event(t + 1);
            self.sched.set(self.unit_dir(b), e);
        }
        if mesh_active {
            let e = self.mesh.next_internal_event(t + 1);
            self.sched.set(self.unit_mesh(), e);
        }
        self.engine_visits +=
            (pairs.len() + dirs_l.len() + due.len() + usize::from(mesh_active)) as u64;
        due.clear();
        self.scratch_due = due;
        self.list_pairs = pairs;
        self.list_dirs = dirs_l;
        self.now = t + 1;
    }

    /// `EngineMode::SparseVerify`: compute the sparse engine's active
    /// set, then execute the *full* dense cycle, asserting every unit
    /// the sparse engine would have skipped really was inert — its
    /// sleep claim holds, its tick changes no stats, it releases no
    /// arrivals and sends no messages, and each sleeping core's cycle
    /// matches the bulk idle-charging prediction exactly.
    fn tick_sparse_verify(&mut self) {
        let t = self.now;
        let n = self.cores.len();
        // Phase 0 — identical to `tick_sparse`.
        if self.timeline.as_ref().is_some_and(|tl| tl.due(t)) {
            self.flush_idle_charges();
            let totals = self.aggregate_stats();
            if let Some(tl) = self.timeline.as_mut() {
                tl.sample(t, &totals);
            }
        }
        if let Some(mut eng) = self.soft.take() {
            for target in eng.fire(t) {
                let applied = match target {
                    SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => {
                        let i = eng.rng_mut().below(n as u64) as usize;
                        self.sched.wake_at(self.unit_pair(i), t);
                        self.caches[i].soft_flip(t, target, eng.rng_mut())
                    }
                    SoftTarget::DirState | SoftTarget::Sharers => {
                        let b = eng.rng_mut().below(self.dirs.len() as u64) as usize;
                        self.sched.wake_at(self.unit_dir(b), t);
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
            self.run_audit(false);
            self.next_audit_at = Some(t + self.audit_every);
        }
        if self.chaos_wants_signal {
            let lockdown_live = self.caches.iter().any(|c| c.active_lockdowns() > 0);
            self.mesh.set_chaos_signal(lockdown_live);
        }
        // The active set the sparse engine would compute.
        let mut due = std::mem::take(&mut self.scratch_due);
        let mut pairs = std::mem::take(&mut self.list_pairs);
        let mut dirs_l = std::mem::take(&mut self.list_dirs);
        due.clear();
        pairs.clear();
        dirs_l.clear();
        self.sched.take_due(t, &mut due);
        let mesh_unit = n + self.dirs.len();
        let mut mesh_due = false;
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
        // Phase 1: drain EVERY node; an unscheduled node must release
        // nothing, or the sparse engine would have missed a delivery.
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        for i in 0..n {
            let scheduled = due.binary_search(&(i as u32)).is_ok();
            arrivals.clear();
            self.mesh.drain_arrived_into(NodeId(i as u16), &mut arrivals);
            assert!(
                scheduled || arrivals.is_empty(),
                "SparseVerify: node {i} released {} arrival(s) at cycle {t} with no drain scheduled",
                arrivals.len()
            );
            for m in arrivals.drain(..) {
                let (dest, msg) = m.payload;
                if self.trace_line == Some(msg.line()) {
                    self.sink.emit(&format!("[{:>8}] {} -> {:?}: {:?}", t, m.src, dest, msg));
                }
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
                        self.activate_pair(i, t, &mut pairs);
                        self.caches[i].handle_msg(t, msg, &mut self.cores[i])
                    }
                    Dest::Dir(_) => {
                        let b = self.home.bank_of(msg.line());
                        self.activate_dir(b, &mut dirs_l);
                        self.dirs[b].receive(t, msg)
                    }
                }
            }
        }
        self.scratch_arrivals = arrivals;
        // Phase 2: every bank and cache ticks; sleeping ones must hold
        // their sleep claim and change nothing.
        for b in 0..self.dirs.len() {
            if self.active_dir[b] {
                self.dirs[b].tick(t);
            } else {
                let claim = self.dirs[b].next_event(t);
                assert!(
                    claim.map_or(true, |c| c > t),
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
            }
        }
        for i in 0..n {
            if self.active_pair[i] {
                let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
                cache.tick(t, core);
            } else {
                let claim = self.pair_next_event(i, t);
                assert!(
                    claim.map_or(true, |c| c > t),
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
            }
        }
        // Phase 3: every core ticks; a sleeping core's cycle must match
        // the bulk idle-charging prediction counter for counter.
        for i in 0..n {
            if self.active_pair[i] {
                self.cores[i].tick(t, &mut self.caches[i]);
            } else {
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
            }
        }
        // Phase 4: dense injection from every node (a sleeping node's
        // outboxes were just asserted empty, so draining is a no-op).
        let (data_flits, ctrl_flits) =
            (self.cfg.network.data_flits, self.cfg.network.control_flits);
        let mut sent_any = false;
        for i in 0..n {
            let from = NodeId(i as u16);
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
        // Phase 5: the mesh always ticks; when the sparse engine would
        // have skipped it, it must do visibly nothing.
        let mesh_active = mesh_due || sent_any;
        if !mesh_active {
            let claim = self.mesh.next_internal_event(t);
            assert!(
                claim.map_or(true, |c| c > t),
                "SparseVerify: mesh slept through its own event at cycle {t} ({claim:?})"
            );
            let pre = self.mesh.stats().clone();
            self.mesh.tick(t);
            assert_eq!(self.mesh.stats(), &pre, "SparseVerify: sleeping mesh acted at cycle {t}");
            assert!(
                self.mesh.parked_nodes().is_empty(),
                "SparseVerify: sleeping mesh parked an arrival at cycle {t}"
            );
        } else {
            self.mesh.tick(t);
        }
        self.drain_park_log();
        // Reschedule exactly the units the sparse engine would have
        // visited — the others keep their (now verified) wheel state.
        for k in 0..pairs.len() {
            let i = pairs[k] as usize;
            self.active_pair[i] = false;
            let e = self.pair_next_event(i, t + 1);
            self.sched.set(self.unit_pair(i), e);
        }
        for k in 0..dirs_l.len() {
            let b = dirs_l[k] as usize;
            self.active_dir[b] = false;
            let e = self.dirs[b].next_event(t + 1);
            self.sched.set(self.unit_dir(b), e);
        }
        if mesh_active {
            let e = self.mesh.next_internal_event(t + 1);
            self.sched.set(self.unit_mesh(), e);
        }
        self.engine_visits +=
            (pairs.len() + dirs_l.len() + due.len() + usize::from(mesh_active)) as u64;
        // Every core really ticked, so the idle frontier stays current.
        for cu in &mut self.charged_until {
            *cu = t + 1;
        }
        due.clear();
        self.scratch_due = due;
        self.list_pairs = pairs;
        self.list_dirs = dirs_l;
        self.now = t + 1;
    }

    /// Is everything finished and drained?
    pub fn done(&self) -> bool {
        self.cores.iter().all(|c| c.drained()) && self.memory_idle()
    }

    /// Has the memory system (caches, directory banks, mesh) gone idle?
    fn memory_idle(&self) -> bool {
        self.caches.iter().all(|c| c.is_idle())
            && self.dirs.iter().all(|d| d.is_idle())
            && self.mesh.is_idle()
    }

    /// Run until [`System::done`], a wedge, or `max_cycles`. The stall
    /// window comes from [`WatchdogConfig`](wb_kernel::config::WatchdogConfig)
    /// and is automatically widened while a fault plan is active, so
    /// retransmission delays are not misread as wedges.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        self.run_watchdog(max_cycles, self.cfg.effective_stall_window())
    }

    /// Run with an explicit per-core stall window.
    ///
    /// The watchdog tracks the last cycle at which *each* core retired
    /// an instruction (not a global sum: one spinning core retiring
    /// forever must not mask a permanently wedged neighbour). It trips
    /// when the worst per-core stall — or, once every core has drained,
    /// the time the memory system has failed to go idle — exceeds
    /// `stall_window`, and then diagnoses the wedge from live state.
    /// Typed protocol faults abort the run as soon as they are raised.
    ///
    /// The bookkeeping after each executed cycle costs O(units that
    /// cycle visited), not O(cores): see `watchdog.rs` for the invariant.
    pub fn run_watchdog(&mut self, max_cycles: u64, stall_window: u64) -> RunOutcome {
        let mut wd = std::mem::take(&mut self.watchdog);
        let outcome = self.run_loop(&mut wd, max_cycles, stall_window);
        self.watchdog = wd;
        outcome
    }

    fn run_loop(&mut self, wd: &mut Watchdog, max_cycles: u64, stall_window: u64) -> RunOutcome {
        wd.start(
            self.now,
            stall_window,
            self.retry_activity(),
            self.cores.iter().map(|c| (c.retired(), c.drained())),
        );
        let deadline = self.now.saturating_add(max_cycles);
        let engine = self.cfg.engine;
        if engine.is_sparse() {
            // Any dense ticking between runs self-accounted its cycles;
            // the sparse idle-charge frontier starts at `now`.
            for cu in &mut self.charged_until {
                *cu = self.now;
            }
        }
        let mut first_check = true;
        while self.now < deadline {
            // The machine can only be done once every core has drained.
            if wd.all_drained() && self.memory_idle() {
                self.flush_idle_charges();
                return RunOutcome::Done;
            }
            match engine {
                EngineMode::Skip | EngineMode::SkipVerify => self.try_skip(wd, deadline),
                EngineMode::Sparse => self.try_jump_sparse(wd, deadline),
                // SparseVerify never jumps: it executes every cycle to
                // check the sparse engine's sleep claims against dense
                // reality.
                EngineMode::Dense | EngineMode::SparseVerify => {}
            }
            if self.now >= deadline {
                break;
            }
            match engine {
                EngineMode::Sparse => self.tick_sparse(),
                EngineMode::SparseVerify => self.tick_sparse_verify(),
                _ => self.tick(),
            }
            // A fault may predate this run (a restored snapshot), so the
            // first check looks at everyone, as do the engines that tick
            // the whole machine (Dense, Skip and both Verify modes).
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

    /// Bulk-charge every core's outstanding sparse idle debt up to
    /// `now` (exclusive). No-op outside the sparse engines and when the
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

    /// The earliest cycle at which any system-level deadline fires
    /// (timeline sample, soft-error strike, periodic audit): `Some(now)`
    /// if one is due this cycle, the minimum future deadline otherwise.
    fn system_deadline(&self) -> Option<Cycle> {
        let now = self.now;
        let mut next: Option<Cycle> = None;
        let deadlines = [
            self.timeline.as_ref().map(|tl| tl.next_sample_at()),
            self.soft.as_ref().and_then(SoftEngine::next_fire),
            self.next_audit_at,
        ];
        for e in deadlines {
            match e {
                Some(c) if c <= now => return Some(now),
                Some(c) => next = Some(next.map_or(c, |n| n.min(c))),
                None => {}
            }
        }
        next
    }

    /// The earliest cycle at which any component can act: `Some(now)`
    /// when something is actionable this cycle, the minimum future
    /// event otherwise, `None` when the whole machine is quiescent.
    /// Between `now` and the returned cycle every `tick` is a no-op
    /// except for idle-cycle counter upkeep on the cores.
    ///
    /// Wheel-backed (the former linear min-scan over every component is
    /// gone): only units whose cached wake is due are recomputed and
    /// re-posted; sleeping units are never visited, so a probe costs
    /// O(active) instead of O(cores + banks). Exactness is unchanged —
    /// a sleeping unit's cached wake equals a fresh recompute because
    /// its state cannot have changed since it was posted (deliveries
    /// mark the wheel, and a component's own tick is a no-op before its
    /// `next_event`; predictions are absolute cycles, so they are
    /// temporally stable).
    fn quiescent_until(&mut self) -> Option<Cycle> {
        let now = self.now;
        let mut next: Option<Cycle> = None;
        match self.system_deadline() {
            Some(c) if c <= now => return Some(now),
            Some(c) => next = Some(c),
            None => {}
        }
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        self.sched.take_due(now, &mut due);
        let mut busy = false;
        for k in 0..due.len() {
            let u = due[k] as usize;
            let e = self.unit_probe_event(u, now);
            busy |= matches!(e, Some(c) if c <= now);
            self.sched.set(u, e);
        }
        due.clear();
        self.scratch_due = due;
        if busy {
            return Some(now);
        }
        match self.sched.earliest() {
            // Defensive: a stale lower bound surfacing as due would only
            // make the probe conservatively report "busy" (no skip, one
            // dense tick) — never an early jump.
            Some(c) if c <= now => Some(now),
            Some(c) => Some(next.map_or(c, |n| n.min(c))),
            None => next,
        }
    }

    /// Fresh `next_event` recompute for one wheel unit, as used by the
    /// skip-engine probe. Pairs and banks use their component hooks;
    /// the mesh uses its *full* hook (parked arrivals included, since
    /// the skip probe has no separate drain schedule); drain units are
    /// never re-armed here — the full mesh hook already holds the probe
    /// busy while arrivals are pending.
    fn unit_probe_event(&self, u: usize, now: Cycle) -> Option<Cycle> {
        let n = self.cores.len();
        let nb = self.dirs.len();
        if u < n {
            self.pair_next_event(u, now)
        } else if u < n + nb {
            self.dirs[u - n].next_event(now)
        } else if u == n + nb {
            self.mesh.next_event(now)
        } else {
            None
        }
    }

    /// Cycle-skipping fast-forward (`EngineMode::Skip` / `SkipVerify`):
    /// when no component can act this cycle, jump `now` to the earliest
    /// next event, bulk-accounting the cores' idle cycles and
    /// synthesizing the watchdog snapshots dense ticking would have
    /// taken. The jump is capped at the cycle of the last tick dense
    /// mode would execute before the watchdog trips (and at `deadline`),
    /// so wedge and budget outcomes land on exactly the dense cycle.
    /// `SkipVerify` instead ticks the window densely and asserts the
    /// inertness claim cycle by cycle.
    fn try_skip(&mut self, wd: &mut Watchdog, deadline: Cycle) {
        if self.now < self.next_probe_at {
            return;
        }
        let wake = self.quiescent_until();
        if wake == Some(self.now) {
            // Busy: back off the next probe so active phases pay a
            // vanishing fraction of a tick for the skip engine.
            self.probe_stride = (self.probe_stride * 2).min(Self::MAX_PROBE_STRIDE);
            self.next_probe_at = self.now + self.probe_stride;
            return;
        }
        let target = wd.jump_target(self.now, wake.unwrap_or(Cycle::MAX), deadline);
        if target <= self.now {
            // Quiescent but capped (watchdog / deadline): nothing will
            // change until progress does, so back off as when busy.
            self.probe_stride = (self.probe_stride * 2).min(Self::MAX_PROBE_STRIDE);
            self.next_probe_at = self.now + self.probe_stride;
            return;
        }
        // Additive-increase/multiplicative-decrease in reverse: halve
        // the stride on success rather than resetting it, so workloads
        // whose quiescent windows are only a few cycles long (mesh-hop
        // gaps between busy phases) don't buy them with a full-system
        // probe every cycle.
        self.probe_stride = (self.probe_stride / 2).max(1);
        self.next_probe_at = 0;
        let start = self.now;
        let k = target - start;
        self.skipped_cycles += k;
        self.skip_windows += 1;
        match self.cfg.engine {
            EngineMode::Dense | EngineMode::Sparse | EngineMode::SparseVerify => {
                unreachable!("try_skip is only called by the skip engines")
            }
            EngineMode::Skip => {
                for c in &mut self.cores {
                    c.apply_idle_cycles(k);
                }
                self.now = target;
            }
            EngineMode::SkipVerify => {
                // Predict the only state the window may change — idle
                // counters on the cores — then tick densely and compare.
                let predicted: Vec<Stats> = self
                    .cores
                    .iter()
                    .map(|c| {
                        let mut s = c.stats().clone();
                        for (key, n) in c.idle_stat_deltas(k) {
                            s.add(key, n);
                        }
                        s
                    })
                    .collect();
                let pre_retired: Vec<u64> = self.cores.iter().map(Core::retired).collect();
                let pre_mesh = self.mesh.stats().clone();
                let pre_caches: Vec<Stats> =
                    self.caches.iter().map(|c| c.stats().clone()).collect();
                let pre_dirs: Vec<Stats> = self.dirs.iter().map(|d| d.stats().clone()).collect();
                for _ in 0..k {
                    assert!(
                        self.quiescent_until().map_or(true, |w| w >= target),
                        "SkipVerify: an event appeared inside a window declared inert \
                         ({start}..{target}, at cycle {})",
                        self.now
                    );
                    self.tick();
                }
                for (i, c) in self.cores.iter().enumerate() {
                    assert_eq!(
                        c.retired(),
                        pre_retired[i],
                        "SkipVerify: core {i} retired inside an inert window ({start}..{target})"
                    );
                    assert_eq!(
                        c.stats(),
                        &predicted[i],
                        "SkipVerify: core {i} diverged from bulk idle accounting \
                         over ({start}..{target})"
                    );
                }
                assert_eq!(
                    self.mesh.stats(),
                    &pre_mesh,
                    "SkipVerify: the mesh acted inside an inert window ({start}..{target})"
                );
                for (i, c) in self.caches.iter().enumerate() {
                    assert_eq!(
                        c.stats(),
                        &pre_caches[i],
                        "SkipVerify: cache {i} acted inside an inert window ({start}..{target})"
                    );
                }
                for (i, d) in self.dirs.iter().enumerate() {
                    assert_eq!(
                        d.stats(),
                        &pre_dirs[i],
                        "SkipVerify: directory {i} acted inside an inert window \
                         ({start}..{target})"
                    );
                }
            }
        }
        wd.note_jump(start, target, || self.retry_activity());
    }

    /// Sparse-engine fast-forward: when the wheel schedules nothing for
    /// this cycle, jump `now` to the earliest scheduled wake, capped by
    /// the watchdog and the deadline exactly like [`System::try_skip`].
    /// Unlike the skip engine there is no probe throttle (the wheel's
    /// `earliest()` is a cheap first-hit scan, not a machine-wide
    /// recompute) and no bulk idle charge here — each core's debt is
    /// charged at its own next activation. The wheel's bound may be
    /// early (lazily invalidated entries): an early landing executes
    /// one inert sparse cycle and re-probes, it never diverges.
    fn try_jump_sparse(&mut self, wd: &mut Watchdog, deadline: Cycle) {
        let wheel = self.sched.earliest();
        if matches!(wheel, Some(c) if c <= self.now) {
            return;
        }
        let sys = self.system_deadline();
        if sys == Some(self.now) {
            return;
        }
        let wake = match (wheel, sys) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap_or(Cycle::MAX),
        };
        let start = self.now;
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

    /// Activate pair `i` for the current sparse cycle (idempotent):
    /// bulk-charge its idle debt up to `t` and add it to the visit list.
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

    /// Activate bank `b` for the current sparse cycle (idempotent).
    fn activate_dir(&mut self, b: usize, list: &mut Vec<u32>) {
        if !self.active_dir[b] {
            self.active_dir[b] = true;
            list.push(b as u32);
        }
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

    /// One-line command-equivalent description of this run, printed in
    /// every wedge report so a failure can be replayed byte-for-byte.
    fn reproducer(&self) -> String {
        let c = &self.cfg;
        let engine = match c.engine {
            EngineMode::Dense => "dense",
            EngineMode::Skip => "skip",
            EngineMode::SkipVerify => "skip-verify",
            EngineMode::Sparse => "sparse",
            EngineMode::SparseVerify => "sparse-verify",
        };
        let mut s = format!(
            "workload={} seed={:#x} cores={} protocol={:?} commit={:?} jitter={} engine={} dir_banks_per_node={}",
            self.workload_name,
            c.seed,
            c.num_cores,
            c.protocol,
            c.core.commit_mode,
            c.network.jitter,
            engine,
            c.memory.dir_banks_per_node,
        );
        if c.wb_cacheable_reads {
            s.push_str(" option1=true");
        }
        match &c.chaos {
            Some(p) => s.push_str(&format!(" chaos={p}")),
            None => s.push_str(" chaos=off"),
        }
        match &c.fault {
            Some(p) => s.push_str(&format!(" fault={p}")),
            None => s.push_str(" fault=off"),
        }
        match &c.soft {
            Some(p) => s.push_str(&format!(" soft={p}")),
            None => s.push_str(" soft=off"),
        }
        s
    }

    /// Extract a wait-for graph from live machine state, classify the
    /// wedge, and render the report through the trace sink.
    ///
    /// Edges (all deterministic — inputs are sorted, duplicates merged):
    /// - `core -> line`: the ROB head (or store buffer / unperformed
    ///   load) is waiting on a cache line;
    /// - `cache -> line`: an MSHR transaction for the line is in flight;
    /// - `line -> cache`: a directory transaction for the line waits on
    ///   that cache to respond, or the cache holds the line locked down;
    /// - `cache -> core`: a lockdown only lifts when that core commits
    ///   its bound loads;
    /// - `cache -> line`: the cache's request is queued at the home bank
    ///   behind the line's current transaction;
    /// - `dir -> line`: the line occupies an eviction-buffer slot.
    fn diagnose(
        &mut self,
        stalled: Vec<(u16, u64)>,
        retries_in_window: u64,
        error: Option<ProtocolError>,
    ) -> WedgeReport {
        // Retries accumulating over the stall window that indicate the
        // machine is spinning (livelock), not stuck (deadlock). Scaled
        // up under a fault plan: retransmission-driven Nack chatter is
        // expected there, not evidence of spinning.
        let livelock_retries = self.cfg.effective_livelock_retries();
        let mut edges: Vec<WaitEdge> = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            if let Some(s) = core.stall_info() {
                if let Some(line) = s.line {
                    let why = match s.seq {
                        Some(q) => format!("{} (seq {q})", s.kind),
                        None => s.kind.to_string(),
                    };
                    edges.push(WaitEdge {
                        from: WaitParty::Core(i as u16),
                        to: WaitParty::Line(line),
                        why,
                    });
                }
            }
        }
        for (i, cache) in self.caches.iter().enumerate() {
            for m in cache.mshr_summary() {
                let blocked = if m.blocked { " (write blocked by lockdown)" } else { "" };
                edges.push(WaitEdge {
                    from: WaitParty::Cache(i as u16),
                    to: WaitParty::Line(m.line),
                    why: format!("MSHR {}{} since cycle {}", m.kind, blocked, m.issued_at),
                });
            }
            for line in cache.lockdown_lines() {
                edges.push(WaitEdge {
                    from: WaitParty::Line(line),
                    to: WaitParty::Cache(i as u16),
                    why: "lockdown held, invalidation ack deferred".to_string(),
                });
                edges.push(WaitEdge {
                    from: WaitParty::Cache(i as u16),
                    to: WaitParty::Core(i as u16),
                    why: "lockdown lifts when bound loads commit".to_string(),
                });
            }
        }
        for d in &self.dirs {
            for w in d.wait_summary() {
                if let Some(target) = w.waiting_on {
                    edges.push(WaitEdge {
                        from: WaitParty::Line(w.line),
                        to: WaitParty::Cache(target),
                        why: format!("{} transaction in flight", w.state),
                    });
                }
                for q in &w.queued {
                    edges.push(WaitEdge {
                        from: WaitParty::Cache(*q),
                        to: WaitParty::Line(w.line),
                        why: format!("request queued behind {}", w.state),
                    });
                }
                if w.state.starts_with("Evicting") {
                    edges.push(WaitEdge {
                        from: WaitParty::Dir(d.bank() as u16),
                        to: WaitParty::Line(w.line),
                        why: "eviction-buffer slot held".to_string(),
                    });
                }
            }
        }
        edges.sort_by(|a, b| (a.from, a.to, &a.why).cmp(&(b.from, b.to, &b.why)));
        edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

        // Under a soft plan, audit before classifying: a wedge caused by
        // an undetected flip should read as corruption, not deadlock.
        let wedge_audit = self.soft.is_some().then(|| self.run_audit(false));
        let corrupted = wedge_audit.as_ref().is_some_and(|a| {
            !a.violations.is_empty() || a.scrub_repairs > 0
        }) || self.soft_silent() > 0;

        let cycle = wedge::find_cycle(&edges);
        let class = if error.is_some() {
            WedgeClass::ProtocolFault
        } else if corrupted {
            WedgeClass::SilentCorruption
        } else if retries_in_window >= livelock_retries {
            WedgeClass::Livelock
        } else if cycle.is_some() {
            WedgeClass::Deadlock
        } else {
            WedgeClass::Starvation
        };
        let participants = match (&class, cycle) {
            (WedgeClass::Deadlock, Some(cyc)) => cyc,
            _ => {
                // Everything reachable from a stalled core in two hops:
                // the line it waits on and whoever holds that line.
                let mut ps: Vec<WaitParty> = Vec::new();
                for &(c, _) in &stalled {
                    ps.push(WaitParty::Core(c));
                    for e in &edges {
                        if e.from == WaitParty::Core(c) {
                            ps.push(e.to);
                            for e2 in &edges {
                                if e2.from == e.to {
                                    ps.push(e2.to);
                                }
                            }
                        }
                    }
                }
                ps.sort_unstable();
                ps.dedup();
                ps
            }
        };

        let mut notes = Vec::new();
        let in_flight = self.mesh.in_flight_summary(self.now);
        notes.push(format!("{} protocol messages in flight", in_flight.len()));
        for &(src, dst, vnet, age) in in_flight.iter().take(4) {
            notes.push(format!("  oldest: {src} -> {dst} vnet{vnet}, in flight {age} cycles"));
        }
        let (hot_lines, _) = self.hot_attribution();
        let top = hot_lines.top(4);
        if !top.is_empty() {
            notes.push("hot lines by attributed stall cycles:".to_string());
            for e in &top {
                notes.push(format!("  line {:#x}: {} cycles (\u{00b1}{})", e.key, e.count, e.err));
            }
        }
        if self.cfg.chaos.is_some() {
            let (touched, injected) = self.mesh.chaos_injected();
            notes.push(format!("chaos delayed {touched} messages by {injected} cycles total"));
        }
        if self.cfg.fault.is_some() {
            let (dropped, duplicated, corrupted) = self.mesh.fault_injected();
            let st = self.mesh.stats();
            notes.push(format!(
                "link faults: {dropped} dropped, {duplicated} duplicated, {corrupted} corrupted; \
                 {} retransmissions, {} standalone acks, {} backpressured sends",
                st.get("link_retx"),
                st.get("link_acks"),
                st.get("link_backpressure_msgs"),
            ));
        }
        if let Some(a) = &wedge_audit {
            let (injected, missed) = self.soft_injected();
            let st = self.aggregate_stats();
            notes.push(format!(
                "soft errors: {injected} injected ({missed} strikes missed), {} detected, \
                 {} masked, {} silent",
                st.get("soft_detected"),
                st.get("soft_masked"),
                self.soft_silent(),
            ));
            notes.push(format!(
                "audit at wedge: {} checks, {} scrub repairs, {} violations",
                a.checks,
                a.scrub_repairs,
                a.violations.len(),
            ));
            if a.scrub_repairs > 0 {
                notes.push(
                    "  unrepaired wound found live at wedge time — corruption was in \
                     flight when the machine stalled"
                        .to_string(),
                );
            }
            for v in a.violations.iter().take(6) {
                notes.push(format!("  {}: {}", v.kind.label(), v.detail));
            }
        }

        let mut report = WedgeReport {
            class,
            at_cycle: self.now,
            reproducer: self.reproducer(),
            stalled_cores: stalled,
            retries_in_window,
            edges,
            participants,
            error: error.map(|e| e.to_string()),
            notes,
        };
        self.emit_wedge(&mut report);
        report
    }

    /// Render `report` through the trace sink and, when event tracing
    /// is on, dump a chrome trace of the run next to it.
    fn emit_wedge(&mut self, report: &mut WedgeReport) {
        if self.tracer.filter().enabled() {
            let stem: String = self
                .workload_name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path =
                std::env::temp_dir().join(format!("wb-wedge-{stem}-{:#x}.json", self.cfg.seed));
            match std::fs::write(&path, self.chrome_trace()) {
                Ok(()) => report.notes.push(format!("chrome trace dumped to {}", path.display())),
                Err(e) => report.notes.push(format!("chrome trace dump failed: {e}")),
            }
        } else {
            report.notes.push(
                "event tracing off; call System::set_trace before the run for a chrome trace dump"
                    .to_string(),
            );
        }
        let text = report.to_string();
        for line in text.lines() {
            self.sink.emit(line);
        }
    }

    /// `(dropped, duplicated, corrupted)` frames injected by the link
    /// fault engine so far — `(0, 0, 0)` without a fault plan.
    pub fn fault_injected(&self) -> (u64, u64, u64) {
        self.mesh.fault_injected()
    }

    /// `(injected, missed)` soft-error strikes so far — `(0, 0)`
    /// without a live soft plan.
    pub fn soft_injected(&self) -> (u64, u64) {
        self.soft.as_ref().map_or((0, 0), |e| (e.injected, e.missed))
    }

    /// Soft flips whose detection is still outstanding: injected minus
    /// (detected + masked). Nonzero at end of run — after the final
    /// audit scrub — means a corruption escaped every guard.
    pub fn soft_silent(&self) -> u64 {
        let s = self.aggregate_stats();
        s.get("soft_injected").saturating_sub(s.get("soft_detected") + s.get("soft_masked"))
    }

    /// One pass of the online coherence invariant auditor.
    ///
    /// Phase 1 (soft plan active only) scrubs: every cache detects and
    /// repairs its outstanding wounds synchronously, and every wounded
    /// directory entry is rebuilt from direct cache probes (the same
    /// `(present, excl)` encoding the async [`ProtoMsg::AuditProbe`]
    /// path uses). Phase 2 checks the global invariants — SWMR,
    /// directory–cache agreement on quiet lines, MSHR / eviction-buffer
    /// occupancy bounds, ARQ window sanity. `final_run` additionally
    /// requires every transient structure to have drained.
    ///
    /// Scrub repairs are the recovery path doing its job, not
    /// violations; a non-clean report means the machine reached a state
    /// the protocol must never produce.
    pub fn run_audit(&mut self, final_run: bool) -> AuditReport {
        let now = self.now;
        let mut checks: u64 = 0;
        let mut scrub_repairs: u64 = 0;
        let mut violations: Vec<AuditViolation> = Vec::new();
        if self.soft.is_some() {
            for i in 0..self.cores.len() {
                scrub_repairs += self.caches[i].audit_scrub(now, &mut self.cores[i]);
            }
            for b in 0..self.dirs.len() {
                for line in self.dirs[b].audit_wounds() {
                    let mut owner: Option<NodeId> = None;
                    let mut sharers = SharerSet::EMPTY;
                    let mut parked = SharerSet::EMPTY;
                    for (i, c) in self.caches.iter().enumerate() {
                        let node = NodeId(i as u16);
                        match c.probe_line(line) {
                            (true, true) => {
                                if let Some(prev) = owner {
                                    violations.push(AuditViolation {
                                        kind: AuditKind::MultipleWriters,
                                        detail: format!(
                                            "line {line}: exclusive at {prev} and {node} \
                                             during wound rebuild"
                                        ),
                                    });
                                }
                                owner = Some(node);
                            }
                            (true, false) => sharers.insert(node),
                            (false, true) => parked.insert(node),
                            (false, false) => {}
                        }
                    }
                    if self.dirs[b].audit_repair(now, line, owner, sharers, parked) {
                        scrub_repairs += 1;
                    }
                }
            }
            if final_run {
                // Repairing a dirty line resynchronises it with the home
                // through the ordinary eviction path (PutM/PutAck), so a
                // final scrub leaves real protocol traffic in flight.
                // Drain it — with further strikes and periodic audits
                // suspended — before passing the verdict below.
                let eng = self.soft.take();
                let next_audit = self.next_audit_at.take();
                let mut fuel = 100_000u64;
                while !self.done() && fuel > 0 {
                    self.tick();
                    fuel -= 1;
                }
                self.soft = eng;
                self.next_audit_at = next_audit;
                if fuel == 0 {
                    violations.push(AuditViolation {
                        kind: AuditKind::UnrepairedWound,
                        detail: "recovery traffic failed to drain after the final scrub"
                            .to_string(),
                    });
                }
            }
        }
        // Lines with any in-flight activity are exempt from agreement
        // checks: their books are allowed to disagree mid-transaction.
        let mut busy: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        {
            let mut mark = |l: wb_mem::LineAddr| {
                busy.insert(l.0);
            };
            for c in &self.caches {
                c.audit_busy_lines(&mut mark);
            }
            for d in &self.dirs {
                d.audit_busy_lines(&mut mark);
            }
            self.mesh.for_each_payload(|(_, msg)| mark(msg.line()));
        }
        // SWMR: at most one cache may hold a line writable, busy or not
        // — the protocol never grants two exclusive copies.
        let mut residents: std::collections::BTreeMap<u64, Vec<(u16, bool)>> =
            std::collections::BTreeMap::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (line, excl) in c.resident_lines() {
                residents.entry(line.0).or_default().push((i as u16, excl));
            }
        }
        for (line, holders) in &residents {
            checks += 1;
            let excl: Vec<u16> =
                holders.iter().filter(|(_, e)| *e).map(|(n, _)| *n).collect();
            if excl.len() > 1 {
                violations.push(AuditViolation {
                    kind: AuditKind::MultipleWriters,
                    detail: format!("line {line:#x}: exclusive at cores {excl:?}"),
                });
            }
        }
        // Directory–cache agreement on quiet lines.
        for d in &self.dirs {
            for (line, code, owner, sharers) in d.audit_entries() {
                if busy.contains(&line.0) {
                    continue;
                }
                checks += 1;
                let holders = residents.get(&line.0).map_or(&[][..], |v| &v[..]);
                match code {
                    0 => {
                        if !holders.is_empty() {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!(
                                    "line {line}: home says Uncached, copies at {holders:?}"
                                ),
                            });
                        }
                    }
                    1 => {
                        for &(node, excl) in holders {
                            if excl {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: home says Shared, dirty copy at n{node}"
                                    ),
                                });
                            } else if !sharers.contains(NodeId(node)) {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: copy at n{node} outside the sharer set"
                                    ),
                                });
                            }
                        }
                    }
                    _ => {
                        let Some(o) = owner else {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!("line {line}: Owned entry without an owner"),
                            });
                            continue;
                        };
                        for &(node, _) in holders {
                            if node != o.0 {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: home says owned by {o}, copy at n{node}"
                                    ),
                                });
                            }
                        }
                        if self.caches[o.index()].resident_excl(line) != Some(true) {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!(
                                    "line {line}: home says owned by {o}, which holds no \
                                     writable copy"
                                ),
                            });
                        }
                    }
                }
            }
        }
        // Occupancy / leak bounds.
        for (i, c) in self.caches.iter().enumerate() {
            checks += 1;
            let (used, cap) = c.mshr_usage();
            if used > cap {
                violations.push(AuditViolation {
                    kind: AuditKind::MshrLeak,
                    detail: format!("cache {i}: {used} MSHRs in use, capacity {cap}"),
                });
            }
            if final_run && used > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::MshrLeak,
                    detail: format!("cache {i}: {used} MSHRs still allocated at end of run"),
                });
            }
            if final_run && c.evict_buf_len() > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!(
                        "cache {i}: {} eviction-buffer entries at end of run",
                        c.evict_buf_len()
                    ),
                });
            }
        }
        for d in &self.dirs {
            checks += 1;
            let (used, cap) = d.evict_buf_usage();
            if used > cap {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!("dir bank {}: {used} parked evictions, capacity {cap}", d.bank()),
                });
            }
            if final_run && used > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!(
                        "dir bank {}: {used} parked evictions at end of run",
                        d.bank()
                    ),
                });
            }
        }
        checks += 1;
        for detail in self.mesh.audit_reliable() {
            violations.push(AuditViolation { kind: AuditKind::ArqWindow, detail });
        }
        self.audit_runs += 1;
        self.audit_violations += violations.len() as u64;
        if self.sched.units() != 0 {
            // The scrub may have queued repair traffic anywhere (and a
            // final-run drain densely ticked the machine): wake every
            // unit so no engine sleeps through audit-induced work.
            self.sched.wake_all(self.now);
        }
        AuditReport { at_cycle: now, final_run, checks, scrub_repairs, violations }
    }

    /// Total instructions retired across all cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired()).sum()
    }

    /// Architectural register value of a core (for litmus observation).
    pub fn arch_reg(&self, core: usize, r: Reg) -> u64 {
        self.cores[core].arch_reg(r)
    }

    /// The current architectural value of a memory word: the exclusive
    /// private copy if one exists, else the LLC/memory copy at its home
    /// bank.
    pub fn memory_word(&self, addr: Addr) -> u64 {
        for c in &self.caches {
            if let Some(v) = c.exclusive_word(addr) {
                return v;
            }
        }
        self.dirs[self.home.bank_of(addr.line())].memory_value(addr)
    }

    /// Collect the merged memory-event log (consumes the cores' logs).
    pub fn take_log(&mut self) -> ExecutionLog {
        let mut log = ExecutionLog::new();
        for (a, v) in &self.init_mem {
            log.set_init(*a, *v);
        }
        for c in &mut self.cores {
            log.merge(c.take_log());
        }
        log
    }

    /// Run the axiomatic TSO checker over the execution so far.
    ///
    /// On failure the recent trace context for the offending cache line
    /// is dumped through the trace sink (when tracing was enabled), so
    /// a red checker comes with the protocol history that produced it.
    ///
    /// # Errors
    ///
    /// Forwards the first [`CheckError`] — any error means the simulated
    /// machine violated TSO (or the workload reused store values).
    pub fn check_tso(&mut self) -> Result<(), CheckError> {
        let log = self.take_log();
        let res = TsoChecker::new(&log).check();
        if let Err(e) = &res {
            self.dump_check_failure(e);
        }
        res
    }

    /// Emit the failing line's recent trace history through the sink.
    fn dump_check_failure(&mut self, e: &CheckError) {
        const DUMP_LAST: usize = 64;
        let line = match e {
            CheckError::ValueNotFound { addr, .. }
            | CheckError::AmbiguousValue { addr, .. }
            | CheckError::CoherenceTie { addr }
            | CheckError::UniprocViolation { addr }
            | CheckError::AtomicityViolation { addr, .. } => Some(addr.line().0),
            // A ppo cycle has no single offending address: dump everything.
            CheckError::TsoViolation => None,
        };
        self.sink.emit(&format!("TSO check FAILED: {e}"));
        let silent = self.soft_silent();
        if silent > 0 {
            self.sink.emit(&format!(
                "note: silent corruption suspected — {silent} soft flip(s) were never \
                 detected; this failure may be a soft error, not a protocol bug"
            ));
        }
        if !self.tracer.filter().enabled() {
            self.sink.emit("(event tracing was off; call System::set_trace before the run for protocol history)");
            return;
        }
        match line {
            Some(l) => self.sink.emit(&format!("last {DUMP_LAST} traced events for line {l:#x}:")),
            None => self.sink.emit(&format!("last {DUMP_LAST} traced events:")),
        }
        self.dump_trace_for_line(line, DUMP_LAST);
    }

    /// Debug: protocol state of `line` at every cache and its home bank.
    pub fn debug_line(&self, line: wb_mem::LineAddr) -> String {
        let mut out: Vec<String> = self.caches.iter().map(|c| c.debug_line(line)).collect();
        out.push(self.dirs[self.home.bank_of(line)].debug_line(line));
        out.join("\n")
    }

    /// Multi-line debug snapshot of every core (for stuck simulations).
    pub fn debug_snapshot(&self) -> String {
        self.cores.iter().map(|c| c.debug_snapshot()).collect::<Vec<_>>().join("\n")
    }

    /// Per-bank directory statistics, `(global bank index, stats)`.
    ///
    /// [`System::report`] merges every bank into one [`Stats`], which is
    /// what correctness checks compare; scaling studies need the
    /// unmerged view to see whether traffic actually spreads across
    /// banks or piles onto a hot one.
    pub fn dir_stats(&self) -> impl Iterator<Item = (usize, &Stats)> {
        self.dirs.iter().map(|d| (d.bank(), d.stats()))
    }

    /// Every component's counters and histograms merged into one
    /// registry — the same totals [`System::report`] carries, also
    /// snapshotted by the timeline sampler every window.
    fn aggregate_stats(&self) -> Stats {
        let mut stats = Stats::new();
        for c in &self.cores {
            stats.merge(c.stats());
        }
        for c in &self.caches {
            stats.merge(c.stats());
        }
        for d in &self.dirs {
            stats.merge(d.stats());
        }
        stats.merge(self.mesh.stats());
        if let Some(eng) = &self.soft {
            stats.add("soft_strikes_missed", eng.missed);
        }
        stats.add("audit_runs", self.audit_runs);
        stats.add("audit_violations", self.audit_violations);
        stats
    }

    /// Merged cycle attribution: the union hot-line sketch across every
    /// directory bank and private cache, plus a per-bank sketch keyed
    /// by global bank index (weight = the bank's total attributed
    /// cycles). Deterministic: components merge in fixed index order,
    /// heaviest-first within each merge.
    fn hot_attribution(&self) -> (HeavyHitters, HeavyHitters) {
        let mut lines = HeavyHitters::new(32);
        let mut banks = HeavyHitters::new(16);
        for d in &self.dirs {
            lines.merge(d.hot_lines());
            banks.add(d.bank() as u64, d.hot_lines().total());
        }
        for c in &self.caches {
            lines.merge(c.hot_lines());
        }
        (lines, banks)
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Layout version of the `System` payload inside the WBSNAP frame.
    /// Bump whenever any component's wire layout changes.
    const SNAP_LAYOUT: u16 = 3;

    /// The activity wheel a sparse engine *would* hold at this instant,
    /// recomputed from component state alone. Stored in every snapshot:
    /// being a pure function of component state it is byte-identical
    /// across engine modes (a sleeping unit's cached wake equals a
    /// fresh recompute — temporal stability), keeping whole snapshots
    /// engine-independent while letting a sparse restore resume without
    /// a wake-all thundering herd.
    fn canonical_sched(&self) -> ActivitySched {
        let now = self.now;
        let n = self.cores.len();
        let nb = self.dirs.len();
        let mut table = ActivitySched::new(n + nb + 1 + n);
        table.advance_to(now);
        for i in 0..n {
            table.set(i, self.pair_next_event(i, now));
        }
        for b in 0..nb {
            table.set(n + b, self.dirs[b].next_event(now));
        }
        table.set(n + nb, self.mesh.next_internal_event(now));
        for i in 0..n {
            // Pending arrivals (including blocked ones) get a drain at
            // `now`; a spurious drain visit releases nothing and is
            // harmless.
            let due = self.mesh.has_arrivals_at(NodeId(i as u16));
            table.set(self.unit_drain(i), due.then_some(now));
        }
        table
    }

    /// Configuration fingerprint stored in every snapshot and compared
    /// on restore: a snapshot only restores into a system built from
    /// the same workload and configuration. The engine mode is
    /// deliberately excluded — reports are byte-identical across
    /// engines, so cross-engine restore is legal (and tested).
    fn snap_fingerprint(&self) -> String {
        let c = &self.cfg;
        format!(
            "workload={} seed={:#x} cores={} banks={} protocol={:?} commit={:?} jitter={} \
             option1={} chaos={} fault={} soft={}",
            self.workload_name,
            c.seed,
            c.num_cores,
            c.memory.dir_banks_per_node,
            c.protocol,
            c.core.commit_mode,
            c.network.jitter,
            c.wb_cacheable_reads,
            c.chaos.as_ref().map_or_else(|| "off".to_string(), |p| p.to_string()),
            c.fault.as_ref().map_or_else(|| "off".to_string(), |p| p.to_string()),
            c.soft.as_ref().map_or_else(|| "off".to_string(), |p| p.to_string()),
        )
    }

    /// Serialize the complete mutable simulation state into a framed
    /// binary snapshot. `restore(snapshot(S))` followed by `run` is
    /// byte-identical (reports, timelines, outcomes) to running `S`
    /// straight through, in every engine mode. Tracers, trace sinks and
    /// the line-trace filter are debug surface and are not captured.
    pub fn snapshot(&self) -> Vec<u8> {
        use wb_kernel::Snap;
        wb_kernel::snap::snapshot(|w| {
            w.u16(Self::SNAP_LAYOUT);
            w.str(&self.snap_fingerprint());
            w.u64(self.now);
            self.mesh.snap(w);
            w.usize(self.cores.len());
            for c in &self.cores {
                c.snap(w);
            }
            w.usize(self.caches.len());
            for c in &self.caches {
                c.snap(w);
            }
            w.usize(self.dirs.len());
            for d in &self.dirs {
                d.snap(w);
            }
            self.timeline.snap(w);
            w.u64(self.skipped_cycles);
            w.u64(self.skip_windows);
            w.u64(self.probe_stride);
            w.u64(self.next_probe_at);
            w.u64(self.audit_every);
            self.next_audit_at.snap(w);
            w.u64(self.audit_runs);
            w.u64(self.audit_violations);
            match &self.soft {
                Some(eng) => {
                    w.bool(true);
                    eng.snap(w);
                }
                None => w.bool(false),
            }
            // Layout 3: the canonical activity-wheel table. Recomputed
            // fresh from component state (never the live wheel), so the
            // bytes are engine-independent and `snapshot` stays `&self`.
            self.canonical_sched().snap(w);
        })
    }

    /// The snapshot as a self-validating JSON envelope (see
    /// [`wb_kernel::snap::to_json`]): hex payload plus length and
    /// checksum, parseable by `wb_kernel::json`.
    pub fn snapshot_json(&self) -> String {
        wb_kernel::snap::to_json(&self.snapshot())
    }

    /// Restore state captured by [`System::snapshot`] into this system.
    /// The receiver must have been built from the same workload and
    /// configuration; structural mismatches are rejected, not patched.
    ///
    /// # Errors
    ///
    /// Fails on truncated or corrupt input, a layout-version mismatch,
    /// or a configuration fingerprint that differs from this system's.
    pub fn restore(&mut self, bytes: &[u8]) -> wb_kernel::SnapResult<()> {
        use wb_kernel::Snap;
        let mut r = wb_kernel::snap::open(bytes)?;
        let layout = r.u16()?;
        if layout != Self::SNAP_LAYOUT {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot layout {layout} unsupported (this build reads {})",
                Self::SNAP_LAYOUT
            )));
        }
        let fp = r.str()?;
        let ours = self.snap_fingerprint();
        if fp != ours {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot was taken under a different configuration:\n  theirs: {fp}\n  ours:   {ours}"
            )));
        }
        self.now = r.u64()?;
        self.mesh.restore(&mut r)?;
        let n = r.usize()?;
        if n != self.cores.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} cores, system has {}",
                self.cores.len()
            )));
        }
        for c in &mut self.cores {
            c.restore(&mut r)?;
        }
        let n = r.usize()?;
        if n != self.caches.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} caches, system has {}",
                self.caches.len()
            )));
        }
        for c in &mut self.caches {
            c.restore(&mut r)?;
        }
        let n = r.usize()?;
        if n != self.dirs.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} directory banks, system has {}",
                self.dirs.len()
            )));
        }
        for d in &mut self.dirs {
            d.restore(&mut r)?;
        }
        self.timeline = Option::unsnap(&mut r)?;
        self.skipped_cycles = r.u64()?;
        self.skip_windows = r.u64()?;
        self.probe_stride = r.u64()?;
        self.next_probe_at = r.u64()?;
        self.audit_every = r.u64()?;
        self.next_audit_at = Option::unsnap(&mut r)?;
        self.audit_runs = r.u64()?;
        self.audit_violations = r.u64()?;
        if r.bool()? {
            // Fingerprint equality guarantees both sides carry a plan.
            let eng = self.soft.as_mut().ok_or_else(|| {
                wb_kernel::SnapError::new("snapshot carries a soft engine, system has none")
            })?;
            eng.restore(&mut r)?;
        }
        let table = ActivitySched::unsnap(&mut r)?;
        let n = self.cores.len();
        let expected = n + self.dirs.len() + 1 + n;
        if table.units() != expected {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot wake table has {} units, system has {expected}",
                table.units()
            )));
        }
        match self.cfg.engine {
            // The canonical table is exactly what the sparse engines
            // need: fresh per-unit recomputes as of the snapshot cycle.
            EngineMode::Sparse | EngineMode::SparseVerify => self.sched = table,
            // The skip probe semantics differ on the mesh unit (full
            // hook, no drain schedule): start conservatively and let the
            // first probe recompute everything.
            EngineMode::Skip | EngineMode::SkipVerify => self.sched.wake_all(self.now),
            EngineMode::Dense => {}
        }
        r.finish()
    }

    /// Restore from a JSON envelope produced by [`System::snapshot_json`].
    ///
    /// # Errors
    ///
    /// Fails on a bad envelope (format, length or checksum) or on any
    /// error [`System::restore`] reports for the decoded payload.
    pub fn restore_json(&mut self, src: &str) -> wb_kernel::SnapResult<()> {
        let bytes = wb_kernel::snap::from_json(src)?;
        self.restore(&bytes)
    }

    /// Re-seed every random stream (mesh jitter, chaos, link faults)
    /// and the recorded configuration seed — the warm-start forking
    /// primitive: restore one warmed snapshot, then fork it into many
    /// distinct runs by re-seeding each. Accumulated counters and
    /// architectural state are kept; only future randomness changes.
    pub fn reseed(&mut self, seed: u64) {
        self.cfg.seed = seed;
        self.mesh.reseed(seed);
        if let Some(eng) = &mut self.soft {
            eng.reseed(seed, self.now);
        }
    }

    /// Aggregate statistics report, including the hot-lines leaderboard
    /// and engine skip diagnostics (the latter outside `stats`, which
    /// must stay byte-identical across engine modes).
    pub fn report(&self) -> Report {
        let mut r = Report::new(&self.workload_name, self.now);
        r.stats = self.aggregate_stats();
        r.skipped_cycles = self.skipped_cycles;
        r.skip_windows = self.skip_windows;
        let (lines, banks) = self.hot_attribution();
        r.hot_lines = lines.top(16);
        r.hot_banks = banks.top(8);
        r
    }
}
