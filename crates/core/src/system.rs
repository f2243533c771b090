//! The full system: cores + private caches + directory banks + mesh.

use crate::report::Report;
use crate::watchdog::Watchdog;
use wb_cpu::Core;
use wb_isa::{Reg, Workload};
use wb_kernel::chaos::ChaosEngine;
use wb_kernel::config::SystemConfig;
use wb_kernel::fault::FaultEngine;
use wb_kernel::soft::SoftEngine;
use wb_kernel::trace::{self, CompId, Record, TraceFilter, TraceSink, Tracer};
use wb_kernel::wedge::WedgeReport;
use wb_kernel::{ActivitySched, Cycle, HeavyHitters, NodeId, Stats, Timeline};
use wb_mem::{Addr, HomeMap};
use wb_mesh::{Mesh, MeshMsg};
use wb_protocol::messages::Dest;
use wb_protocol::{Directory, PrivateCache, ProtoMsg};
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

/// Traced events a red checker or a wedge report dumps per line.
pub(crate) const DUMP_LAST: usize = 64;

/// The trace identity of a message destination.
pub(crate) fn comp_of(dest: Dest) -> CompId {
    match dest {
        Dest::Cache(n) => CompId::Cache(n.0),
        Dest::Dir(n) => CompId::Dir(n.0),
    }
}

/// A full simulated multicore. The fields are crate-visible because
/// the `impl System` is split by concern across `engine`, `diagnose`,
/// `audit` and `snapshot`.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) now: Cycle,
    pub(crate) mesh: Mesh<(Dest, ProtoMsg)>,
    pub(crate) cores: Vec<Core>,
    pub(crate) caches: Vec<PrivateCache>,
    /// All directory banks, indexed by global bank id; bank `b` is
    /// hosted at node `home.node_of(b)`.
    pub(crate) dirs: Vec<Directory>,
    /// Line-to-bank-to-node home mapping shared with every cache.
    pub(crate) home: HomeMap,
    init_mem: Vec<(Addr, u64)>,
    pub(crate) workload_name: String,
    /// Programs in the workload: the core count its spec states.
    pub(crate) workload_cores: usize,
    /// The cycle the current (or last) run stops at, its budget spent.
    pub(crate) deadline: Option<Cycle>,
    /// System-glue event ring (message delivery and injection).
    pub(crate) tracer: Tracer,
    /// Where human-readable trace lines go (stderr by default).
    pub(crate) sink: TraceSink,
    /// The installed chaos plan has a directed `StallWhileSignal`
    /// clause, so a cycle must push the lockdown-live signal.
    pub(crate) chaos_wants_signal: bool,
    /// Scratch buffers reused across cycles so the per-cycle hot path
    /// performs no allocation once warm.
    pub(crate) scratch_arrivals: Vec<MeshMsg<(Dest, ProtoMsg)>>,
    pub(crate) scratch_outbox: Vec<(Dest, ProtoMsg)>,
    /// Interval sampler: when enabled, every `sample_every` cycles
    /// the aggregated stats delta lands in a window ring. The sample
    /// deadline is a system deadline the jump never crosses, so every
    /// engine lands samples on exactly the dense cycles and the
    /// exported JSONL stays byte-identical.
    pub(crate) timeline: Option<Timeline>,
    /// Cycles fast-forwarded and windows jumped by the sparse engine.
    /// Engine diagnostics only — deliberately NOT part of [`Report`]
    /// stats, which must be byte-identical across engine modes.
    pub(crate) skipped_cycles: u64,
    pub(crate) skip_windows: u64,
    /// Soft-error injector (`None` when `cfg.soft` is absent or the
    /// empty plan — both leave runs byte-identical to a soft-free
    /// build). Flips are applied at the top of a cycle, and the firing
    /// schedule is a system deadline the jump never crosses.
    pub(crate) soft: Option<SoftEngine>,
    /// Online-auditor cadence in cycles (0 = periodic audits off; the
    /// end-of-run audit is always available via [`System::run_audit`]).
    pub(crate) audit_every: u64,
    /// Next scheduled periodic audit; a system deadline like the
    /// timeline sample.
    pub(crate) next_audit_at: Option<Cycle>,
    /// Auditor outcome counters, merged into [`System::report`] stats.
    pub(crate) audit_runs: u64,
    pub(crate) audit_violations: u64,
    /// Calendar-wheel activity scheduler (see [`wb_kernel::sched`]).
    /// Sized for every unit — core+cache pairs, directory banks, the
    /// mesh, and per-node arrival-drain units — under the sparse
    /// engines, which drive the per-cycle visit set from it; zero-unit
    /// (dormant) under Dense.
    pub(crate) sched: ActivitySched,
    /// Per-core exclusive idle-accounting frontier for the sparse
    /// engines: every cycle below `charged_until[i]` is reflected in
    /// core `i`'s counters, either by a real tick or by
    /// [`Core::apply_idle_cycles`] bulk-charged at the core's next
    /// activation. Flushed before any external stats read (timeline
    /// samples, run exits), so observable state never carries debt.
    pub(crate) charged_until: Vec<Cycle>,
    /// Sparse-engine diagnostic: component visits actually executed
    /// (pair, bank, mesh and drain visits). Like `skipped_cycles`,
    /// engine diagnostics — never part of [`Report`] stats.
    pub(crate) engine_visits: u64,
    /// Scratch for the wheel's due set (reused, allocation-free).
    pub(crate) scratch_due: Vec<u32>,
    /// Sparse per-cycle active sets: membership flags plus insertion
    /// lists, sorted before each phase so visit order matches the
    /// dense engine's ascending iteration exactly. The lists outlive
    /// the cycle: they are what the run loop's post-tick checks walk.
    pub(crate) active_pair: Vec<bool>,
    pub(crate) active_dir: Vec<bool>,
    pub(crate) list_pairs: Vec<u32>,
    pub(crate) list_dirs: Vec<u32>,
    /// Scratch for the nodes that inject this sparse cycle (phase 4).
    pub(crate) list_nodes: Vec<u32>,
    /// Wedge-watchdog bookkeeping of the current (or last) run; kept
    /// here so its buffers are reused across runs.
    pub(crate) watchdog: Watchdog,
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
        let units = if cfg.engine.is_sparse() { n + home.total_banks() + 1 + n } else { 0 };
        let mut sched = ActivitySched::new(units);
        if cfg.engine.is_sparse() {
            sched.wake_all(0);
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
            workload_cores: workload.cores(),
            deadline: None,
            tracer: Tracer::new(CompId::System),
            sink: TraceSink::default(),
            chaos_wants_signal,
            scratch_arrivals: Vec::new(),
            scratch_outbox: Vec::new(),
            timeline: None,
            skipped_cycles: 0,
            skip_windows: 0,
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

    /// Component visits executed by the sparse engines (0 under Dense).
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

    /// Enable timeline sampling: every `sample_every` cycles the delta
    /// of every counter and histogram (aggregated across components)
    /// is recorded as a [`wb_kernel::TimelineWindow`]. Enabling
    /// mid-run starts the first window at the current cycle. Sampling
    /// is engine-exact: the deadline is one the sparse jump never
    /// crosses, so every engine produces byte-identical timelines.
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

    /// Emit a header and the last `n` recorded events touching cache
    /// line `line` (every event when `line` is `None`) through the
    /// trace sink — the history a red checker or a wedge report comes
    /// with (64 events per line).
    pub fn dump_trace_for_line(&mut self, line: Option<u64>, n: usize) {
        match line {
            Some(l) => self.sink.emit(&format!("last {n} traced events for line {l:#x}:")),
            None => self.sink.emit(&format!("last {n} traced events:")),
        }
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

    /// Is everything finished and drained?
    pub fn done(&self) -> bool {
        self.cores.iter().all(|c| c.drained()) && self.memory_idle()
    }

    /// Has the memory system (caches, directory banks, mesh) gone idle?
    pub(crate) fn memory_idle(&self) -> bool {
        self.caches.iter().all(|c| c.is_idle())
            && self.dirs.iter().all(|d| d.is_idle())
            && self.mesh.is_idle()
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
        // A ppo cycle has no single offending line: dump everything.
        let (_, line) = crate::verdict::variant_and_line(e);
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
    pub(crate) fn aggregate_stats(&self) -> Stats {
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
    pub(crate) fn hot_attribution(&self) -> (HeavyHitters, HeavyHitters) {
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
