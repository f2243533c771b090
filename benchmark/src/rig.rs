//! The layer rig: the simulated machine assembled from the component
//! crates' public constructors exactly as `System::new` does, stepped
//! through the phases of `System::tick` / `System::tick_sparse` with a
//! lap clock between phases. It exists so per-layer host time can be
//! measured from outside `writersblock::System` before a profiler is
//! built into its loop; every traced cell must end on the same cycle
//! with byte-identical merged stats, or the benchmark fails.
//!
//! Not replicated (no traced cell uses them): soft-error strikes,
//! periodic audits, timelines, event tracing and the wedge watchdog.

use std::time::Instant;

use wb_cpu::Core;
use wb_isa::Workload;
use wb_kernel::chaos::ChaosEngine;
use wb_kernel::config::{EngineMode, SystemConfig};
use wb_kernel::fault::FaultEngine;
use wb_kernel::{ActivitySched, Cycle, NodeId, Stats};
use wb_mem::HomeMap;
use wb_mesh::{Mesh, MeshMsg};
use wb_protocol::messages::Dest;
use wb_protocol::{Directory, PrivateCache, ProtoMsg};

/// A timed span of the rig's loop. `Glue` is the rig's own bookkeeping
/// (delivery partitioning, outbox collection, jump logic), reported as
/// part of the tracing overhead, never as a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    CpuTick,
    CpuNextEvent,
    CacheTick,
    CacheHandleMsg,
    CacheNextEvent,
    DirTick,
    DirReceive,
    DirNextEvent,
    MeshTick,
    MeshSend,
    MeshDrain,
    MeshNextEvent,
    Sched,
    Glue,
}

impl Span {
    pub const ALL: [Span; 14] = [
        Span::CpuTick,
        Span::CpuNextEvent,
        Span::CacheTick,
        Span::CacheHandleMsg,
        Span::CacheNextEvent,
        Span::DirTick,
        Span::DirReceive,
        Span::DirNextEvent,
        Span::MeshTick,
        Span::MeshSend,
        Span::MeshDrain,
        Span::MeshNextEvent,
        Span::Sched,
        Span::Glue,
    ];

    /// Span name in `trace.jsonl`: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Span::CpuTick => "cpu.tick",
            Span::CpuNextEvent => "cpu.next_event",
            Span::CacheTick => "cache.tick",
            Span::CacheHandleMsg => "cache.handle_msg",
            Span::CacheNextEvent => "cache.next_event",
            Span::DirTick => "dir.tick",
            Span::DirReceive => "dir.receive",
            Span::DirNextEvent => "dir.next_event",
            Span::MeshTick => "mesh.tick",
            Span::MeshSend => "mesh.send",
            Span::MeshDrain => "mesh.drain",
            Span::MeshNextEvent => "mesh.next_event",
            Span::Sched => "sched.ops",
            Span::Glue => "rig.glue",
        }
    }
}

/// Accumulated time and counts of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Wall nanoseconds between the laps that closed this span, timer
    /// cost included (subtract `laps * timer_ns`).
    pub ns: u64,
    /// Calls into the layer (ticks, messages, scheduler operations).
    pub calls: u64,
    /// Clock reads charged to this span.
    pub laps: u64,
}

impl Acc {
    pub fn add(&mut self, o: &Acc) {
        self.ns += o.ns;
        self.calls += o.calls;
        self.laps += o.laps;
    }

    /// Busy time with the calibrated clock cost taken out.
    pub fn busy_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - self.laps as f64 * timer_ns).max(0.0)
    }
}

/// Lap clock: every nanosecond of a rig run lands in exactly one span.
/// One clock read per phase boundary; a phase with an empty batch is
/// never bracketed (its few branch instructions fall into the next lap).
#[derive(Debug, Clone)]
pub struct Profile {
    /// Off for the calibration runs that measure what the laps cost.
    enabled: bool,
    last: Instant,
    acc: [Acc; Span::ALL.len()],
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            enabled: true,
            last: Instant::now(),
            acc: [Acc::default(); Span::ALL.len()],
        }
    }
}

impl Profile {
    /// Restart the lap clock without charging anyone.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }

    /// Stop reading the clock: the same machine, untimed.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Clock reads made so far.
    pub fn laps(&self) -> u64 {
        self.acc.iter().map(|a| a.laps).sum()
    }

    /// Charge the time since the previous lap to `span`.
    #[inline]
    pub fn lap(&mut self, span: Span, calls: u64) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        let a = &mut self.acc[span as usize];
        a.ns += t.duration_since(self.last).as_nanos() as u64;
        a.calls += calls;
        a.laps += 1;
        self.last = t;
    }

    pub fn get(&self, span: Span) -> Acc {
        self.acc[span as usize]
    }

    pub fn add(&mut self, other: &Profile) {
        for (a, o) in self.acc.iter_mut().zip(&other.acc) {
            a.add(o);
        }
    }
}

/// Cost of one lap in nanoseconds with nothing between laps: the floor
/// of the inflation every bracket carries (the traced run measures the
/// cost in place, with real work around the clock reads).
pub fn bare_lap_ns() -> f64 {
    const N: u64 = 200_000;
    let mut p = Profile::default();
    // Warm the clock path, then measure a run of back-to-back laps.
    for _ in 0..1000 {
        p.lap(Span::Glue, 0);
    }
    let t0 = Instant::now();
    for _ in 0..N {
        p.lap(Span::Glue, 0);
    }
    std::hint::black_box(&p);
    t0.elapsed().as_nanos() as f64 / N as f64
}

type Msg = (Dest, ProtoMsg);

/// The machine, outside `System`.
pub struct Rig {
    sparse: bool,
    now: Cycle,
    mesh: Mesh<Msg>,
    cores: Vec<Core>,
    caches: Vec<PrivateCache>,
    dirs: Vec<Directory>,
    home: HomeMap,
    chaos_wants_signal: bool,
    data_flits: u32,
    ctrl_flits: u32,
    /// Sparse only: the wake table, fed by `next_event` after each
    /// visit and by message delivery (the mesh park log).
    sched: ActivitySched,
    charged_until: Vec<Cycle>,
    active_pair: Vec<bool>,
    active_dir: Vec<bool>,
    node_dir_live: Vec<bool>,
    // Scratch, reused across cycles.
    due: Vec<u32>,
    pairs: Vec<u32>,
    banks: Vec<u32>,
    arrivals: Vec<MeshMsg<Msg>>,
    to_cache: Vec<(usize, ProtoMsg)>,
    to_dir: Vec<(usize, ProtoMsg)>,
    outbox: Vec<Msg>,
    sends: Vec<MeshMsg<Msg>>,
    wakes: Vec<Option<Cycle>>,
    /// Component visits executed (the rig's `engine_visits`).
    pub visits: u64,
    /// Cycles jumped over.
    pub skipped: u64,
    pub prof: Profile,
}

fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl Rig {
    /// Assemble the machine as `System::new` does. Only `Dense` and
    /// `Sparse` are supported, and no soft-error plan.
    pub fn new(cfg: &SystemConfig, workload: &Workload) -> Result<Rig, String> {
        let sparse = match cfg.engine {
            EngineMode::Dense => false,
            EngineMode::Sparse => true,
            other => return Err(format!("rig supports Dense and Sparse, not {other:?}")),
        };
        if cfg.soft.as_ref().is_some_and(|p| !p.is_none()) {
            return Err("rig has no soft-error engine".to_owned());
        }
        cfg.validate();
        let n = cfg.num_cores;
        let cores = (0..n)
            .map(|i| {
                let prog = workload.programs.get(i).cloned().unwrap_or_default();
                Core::with_event_log(
                    NodeId(i as u16),
                    cfg.core.clone(),
                    cfg.protocol,
                    prog,
                    cfg.record_events,
                )
            })
            .collect();
        let home = HomeMap::new(n, cfg.memory.dir_banks_per_node);
        let caches = (0..n)
            .map(|i| PrivateCache::new(NodeId(i as u16), home, &cfg.memory, cfg.protocol))
            .collect();
        let mut dirs: Vec<Directory> = (0..home.total_banks())
            .map(|b| Directory::new(b, &home, cfg))
            .collect();
        for (addr, value) in &workload.init_mem {
            dirs[home.bank_of(addr.line())].init_word(*addr, *value);
        }
        let net = &cfg.network;
        let mut mesh = Mesh::new(
            net.mesh_width,
            net.mesh_height,
            n,
            net.hop_cycles,
            net.jitter,
            cfg.seed,
        );
        if let Some(plan) = &cfg.chaos {
            mesh.set_chaos(Some(ChaosEngine::new(plan.clone(), cfg.seed)));
        }
        if let Some(plan) = &cfg.fault {
            mesh.enable_reliable(cfg.network.link.clone());
            mesh.set_fault(Some(FaultEngine::new(plan.clone(), cfg.seed)));
        }
        let chaos_wants_signal = mesh.chaos_wants_signal();
        let nb = home.total_banks();
        let mut sched = ActivitySched::new(if sparse { n + nb + 1 + n } else { 0 });
        if sparse {
            sched.wake_all(0);
            mesh.set_park_log(true);
        }
        Ok(Rig {
            sparse,
            now: 0,
            mesh,
            cores,
            caches,
            dirs,
            home,
            chaos_wants_signal,
            data_flits: net.data_flits,
            ctrl_flits: net.control_flits,
            sched,
            charged_until: vec![0; n],
            active_pair: vec![false; n],
            active_dir: vec![false; nb],
            node_dir_live: vec![false; n],
            due: Vec::new(),
            pairs: Vec::new(),
            banks: Vec::new(),
            arrivals: Vec::new(),
            to_cache: Vec::new(),
            to_dir: Vec::new(),
            outbox: Vec::new(),
            sends: Vec::new(),
            wakes: Vec::new(),
            visits: 0,
            skipped: 0,
            prof: Profile::default(),
        })
    }

    pub fn now(&self) -> Cycle {
        self.now
    }

    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(Core::retired).sum()
    }

    /// `System::done`.
    pub fn done(&self) -> bool {
        self.cores.iter().all(Core::drained)
            && self.caches.iter().all(PrivateCache::is_idle)
            && self.dirs.iter().all(Directory::is_idle)
            && self.mesh.is_idle()
    }

    /// Run until done or `max_cycles`; true when done. No watchdog: a
    /// cell that would wedge simply runs out of cycles here.
    pub fn run(&mut self, max_cycles: u64) -> bool {
        let deadline = self.now.saturating_add(max_cycles);
        self.prof.start();
        let mut done = false;
        while self.now < deadline {
            if self.done() {
                done = true;
                break;
            }
            if self.sparse {
                if !self.try_jump(deadline) {
                    break;
                }
                self.tick_sparse();
            } else {
                self.tick_dense();
            }
        }
        let done = done || self.done();
        self.flush_idle_charges();
        self.prof.lap(Span::Glue, 0);
        done
    }

    /// Merged stats as `System::report().stats` carries them (`System`
    /// adds its two audit counters; none ran here, so they are 0).
    pub fn merged_stats(&self) -> Stats {
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
        stats.add("audit_runs", 0);
        stats.add("audit_violations", 0);
        stats
    }

    fn flush_idle_charges(&mut self) {
        if !self.sparse {
            return;
        }
        for (i, c) in self.cores.iter_mut().enumerate() {
            let k = self.now.saturating_sub(self.charged_until[i]);
            if k > 0 {
                c.apply_idle_cycles(k);
                self.charged_until[i] = self.now;
            }
        }
    }

    /// `System::try_jump_sparse` without the watchdog cap (which only
    /// binds on a run that is about to be declared wedged), preceded by
    /// the chaos signal `tick_sparse` pushes (cache state, which it
    /// reads, does not change in a jump). False when the jump reached
    /// the deadline.
    fn try_jump(&mut self, deadline: Cycle) -> bool {
        self.push_chaos_signal();
        self.prof.lap(Span::Glue, 0);
        // One bracket covers `earliest` here and `take_due` at the top
        // of `tick_sparse`; the jump arithmetic between them is a few
        // instructions.
        let wheel = self.sched.earliest();
        if matches!(wheel, Some(c) if c <= self.now) {
            return true;
        }
        let target = wheel.unwrap_or(Cycle::MAX).min(deadline);
        if target > self.now {
            self.skipped += target - self.now;
            self.now = target;
        }
        self.now < deadline
    }

    fn push_chaos_signal(&mut self) {
        if self.chaos_wants_signal {
            let live = self.caches.iter().any(|c| c.active_lockdowns() > 0);
            self.mesh.set_chaos_signal(live);
        }
    }

    /// Split drained arrivals by destination layer. Caches and banks
    /// are disjoint components, so delivering all cache messages and
    /// then all bank messages (each in arrival order) is the same
    /// machine as `System`'s interleaved delivery; it lets each layer's
    /// deliveries be timed as one batch. Closes with a `Glue` lap.
    fn partition_arrivals(&mut self) {
        for m in self.arrivals.drain(..) {
            let (dest, msg) = m.payload;
            match dest {
                Dest::Cache(node) => self.to_cache.push((node.0 as usize, msg)),
                Dest::Dir(_) => self.to_dir.push((self.home.bank_of(msg.line()), msg)),
            }
        }
        self.prof.lap(Span::Glue, 0);
    }

    /// Deliver the partitioned arrivals (phase 1). Under Sparse every
    /// recipient joins the active set (wake-on-message).
    fn deliver(&mut self) {
        let t = self.now;
        let nc = self.to_cache.len() as u64;
        if nc != 0 {
            let mut batch = std::mem::take(&mut self.to_cache);
            if self.sparse {
                for &(i, _) in &batch {
                    self.activate_pair(i);
                }
                self.prof.lap(Span::Glue, 0);
            }
            for (i, msg) in batch.drain(..) {
                self.caches[i].handle_msg(t, msg, &mut self.cores[i]);
            }
            self.to_cache = batch;
            self.prof.lap(Span::CacheHandleMsg, nc);
        }
        let nd = self.to_dir.len() as u64;
        if nd != 0 {
            let mut batch = std::mem::take(&mut self.to_dir);
            for (b, msg) in batch.drain(..) {
                if self.sparse && !self.active_dir[b] {
                    self.active_dir[b] = true;
                    self.banks.push(b as u32);
                }
                self.dirs[b].receive(t, msg);
            }
            self.to_dir = batch;
            self.prof.lap(Span::DirReceive, nd);
        }
    }

    /// Collect the outboxes of node `i` (cache first, then its banks),
    /// in `System`'s injection order.
    fn collect_outbox(&mut self, i: usize) {
        self.outbox.clear();
        self.caches[i].drain_outbox_into(&mut self.outbox);
        for b in self.home.banks_at(i) {
            self.dirs[b].drain_outbox_into(&mut self.outbox);
        }
        let from = NodeId(i as u16);
        for (dest, msg) in self.outbox.drain(..) {
            let flits = msg.flits(self.data_flits, self.ctrl_flits);
            self.sends.push(MeshMsg {
                src: from,
                dst: dest.node(),
                vnet: msg.vnet(),
                flits,
                payload: (dest, msg),
            });
        }
    }

    /// Inject the collected messages (phase 4); true when any was sent.
    fn inject(&mut self) -> bool {
        self.prof.lap(Span::Glue, 0);
        let n = self.sends.len() as u64;
        if n == 0 {
            return false;
        }
        let t = self.now;
        let mut sends = std::mem::take(&mut self.sends);
        for m in sends.drain(..) {
            self.mesh.send(t, m);
        }
        self.sends = sends;
        self.prof.lap(Span::MeshSend, n);
        true
    }

    /// `System::tick`: every unit is due every cycle.
    fn tick_dense(&mut self) {
        let t = self.now;
        let n = self.cores.len();
        self.push_chaos_signal();
        self.prof.lap(Span::Glue, 0);
        for i in 0..n {
            self.mesh
                .drain_arrived_into(NodeId(i as u16), &mut self.arrivals);
        }
        self.prof.lap(Span::MeshDrain, n as u64);
        if !self.arrivals.is_empty() {
            self.partition_arrivals();
            self.deliver();
        }
        for d in &mut self.dirs {
            d.tick(t);
        }
        self.prof.lap(Span::DirTick, self.dirs.len() as u64);
        for i in 0..n {
            let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
            cache.tick(t, core);
        }
        self.prof.lap(Span::CacheTick, n as u64);
        for i in 0..n {
            self.cores[i].tick(t, &mut self.caches[i]);
        }
        self.prof.lap(Span::CpuTick, n as u64);
        for i in 0..n {
            self.collect_outbox(i);
        }
        self.inject();
        self.mesh.tick(t);
        self.prof.lap(Span::MeshTick, 1);
        self.now = t + 1;
    }

    /// Activate pair `i` for this cycle: bulk-charge its idle debt.
    fn activate_pair(&mut self, i: usize) {
        if self.active_pair[i] {
            return;
        }
        self.active_pair[i] = true;
        self.pairs.push(i as u32);
        let k = self.now.saturating_sub(self.charged_until[i]);
        if k > 0 {
            self.cores[i].apply_idle_cycles(k);
        }
        self.charged_until[i] = self.now;
    }

    /// Arm a drain visit at `now + 1` for every node the mesh parked an
    /// arrival at (`System::drain_park_log`).
    fn drain_park_log(&mut self) {
        let parks = self.mesh.parked_nodes().len();
        if parks == 0 {
            return;
        }
        let drain_base = self.cores.len() + self.dirs.len() + 1;
        for k in 0..parks {
            let nd = self.mesh.parked_nodes()[k] as usize;
            self.sched.wake_at(drain_base + nd, self.now + 1);
        }
        self.mesh.clear_parked_nodes();
        self.prof.lap(Span::Sched, parks as u64);
    }

    /// `System::tick_sparse`: visit only the wake table's due set plus
    /// everything a delivery touches, then feed each visited unit's
    /// `next_event` back into the table.
    fn tick_sparse(&mut self) {
        let t = self.now;
        let n = self.cores.len();
        let nb = self.dirs.len();
        let mesh_unit = n + nb;
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.sched.take_due(t, &mut due);
        self.prof.lap(Span::Sched, 2);
        let mut mesh_due = false;
        let mut nd = 0;
        for k in 0..due.len() {
            let u = due[k] as usize;
            if u < n {
                self.activate_pair(u);
            } else if u < mesh_unit {
                if !self.active_dir[u - n] {
                    self.active_dir[u - n] = true;
                    self.banks.push((u - n) as u32);
                }
            } else if u == mesh_unit {
                mesh_due = true;
            } else {
                due[nd] = (u - mesh_unit - 1) as u32;
                nd += 1;
            }
        }
        due.truncate(nd);
        due.sort_unstable();
        // Phase 1: arrivals at nodes with a scheduled drain.
        if !due.is_empty() {
            self.prof.lap(Span::Glue, 0);
            for &i in &due {
                self.mesh
                    .drain_arrived_into(NodeId(i as u16), &mut self.arrivals);
            }
            self.prof.lap(Span::MeshDrain, due.len() as u64);
            if !self.arrivals.is_empty() {
                self.partition_arrivals();
                self.deliver();
            }
        }
        // Phases 2-3: the active set in dense component order.
        self.pairs.sort_unstable();
        self.banks.sort_unstable();
        let (np, nbk) = (self.pairs.len(), self.banks.len());
        self.prof.lap(Span::Glue, 0);
        if nbk != 0 {
            for k in 0..nbk {
                self.dirs[self.banks[k] as usize].tick(t);
            }
            self.prof.lap(Span::DirTick, nbk as u64);
        }
        if np != 0 {
            for k in 0..np {
                let i = self.pairs[k] as usize;
                let (cache, core) = (&mut self.caches[i], &mut self.cores[i]);
                cache.tick(t, core);
            }
            self.prof.lap(Span::CacheTick, np as u64);
            for k in 0..np {
                let i = self.pairs[k] as usize;
                self.cores[i].tick(t, &mut self.caches[i]);
            }
            self.prof.lap(Span::CpuTick, np as u64);
        }
        // Phase 4: inject from nodes with an active pair or hosted bank.
        for k in 0..nbk {
            self.node_dir_live[self.home.node_of(self.banks[k] as usize)] = true;
        }
        for i in 0..n {
            if self.active_pair[i] || self.node_dir_live[i] {
                self.collect_outbox(i);
            }
        }
        let sent_any = self.inject();
        // Phase 5: the network, when it has internal work or new traffic.
        let mesh_active = mesh_due || sent_any;
        if mesh_active {
            self.mesh.tick(t);
            self.prof.lap(Span::MeshTick, 1);
            self.drain_park_log();
        }
        // Reschedule every visited unit from its post-tick state: probe
        // `next_event` only after a visit, never machine-wide.
        self.wakes.clear();
        if np != 0 {
            for k in 0..np {
                let i = self.pairs[k] as usize;
                self.wakes.push(self.caches[i].next_event(t + 1));
            }
            self.prof.lap(Span::CacheNextEvent, np as u64);
            for k in 0..np {
                let i = self.pairs[k] as usize;
                let e = self.cores[i].next_event(t + 1, &self.caches[i]);
                self.wakes[k] = min_opt(self.wakes[k], e);
            }
            self.prof.lap(Span::CpuNextEvent, np as u64);
        }
        if nbk != 0 {
            for k in 0..nbk {
                self.wakes
                    .push(self.dirs[self.banks[k] as usize].next_event(t + 1));
            }
            self.prof.lap(Span::DirNextEvent, nbk as u64);
        }
        let mesh_wake = if mesh_active {
            let e = self.mesh.next_internal_event(t + 1);
            self.prof.lap(Span::MeshNextEvent, 1);
            e
        } else {
            None
        };
        for k in 0..np {
            let i = self.pairs[k] as usize;
            self.active_pair[i] = false;
            self.charged_until[i] = t + 1;
            self.sched.set(i, self.wakes[k]);
        }
        for k in 0..nbk {
            let b = self.banks[k] as usize;
            self.active_dir[b] = false;
            self.node_dir_live[self.home.node_of(b)] = false;
            self.sched.set(n + b, self.wakes[np + k]);
        }
        if mesh_active {
            self.sched.set(mesh_unit, mesh_wake);
        }
        let sets = np + nbk + usize::from(mesh_active);
        if sets != 0 {
            self.prof.lap(Span::Sched, sets as u64);
        }
        self.visits += (np + nbk + due.len() + usize::from(mesh_active)) as u64;
        self.pairs.clear();
        self.banks.clear();
        due.clear();
        self.due = due;
        self.now = t + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::chaos::ChaosPlan;
    use wb_kernel::config::{CommitMode, CoreClass};
    use wb_kernel::fault::FaultPlan;
    use wb_kernel::soft::SoftPlan;
    use writersblock::System;

    fn cfg(cores: usize, engine: EngineMode) -> SystemConfig {
        SystemConfig::new(CoreClass::Slm)
            .with_cores(cores)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_engine(engine)
            .with_seed(7)
            .with_jitter(25)
    }

    /// The rig must end on `System`'s cycle with byte-identical merged
    /// stats and the same visit and skip counts.
    fn assert_same_as_system(cfg: SystemConfig, w: &Workload) {
        let mut sys = System::new(cfg.clone(), w);
        assert!(
            sys.run(50_000_000).is_done(),
            "{} did not finish on System",
            w.name
        );
        let mut rig = Rig::new(&cfg, w).expect("rig builds");
        assert!(
            rig.run(sys.now() + 1),
            "{} did not finish on the rig",
            w.name
        );
        assert_eq!(
            rig.now(),
            sys.now(),
            "{} under {:?}: final cycle",
            w.name,
            cfg.engine
        );
        assert_eq!(rig.total_retired(), sys.total_retired());
        assert_eq!(
            rig.merged_stats().to_json(),
            sys.report().stats.to_json(),
            "{} under {:?}",
            w.name,
            cfg.engine
        );
        assert_eq!(rig.visits, sys.engine_visits());
        assert_eq!(rig.skipped, sys.skipped_cycles());
    }

    #[test]
    fn rig_equals_system_on_mp_under_both_engines() {
        let w = wb_tso::litmus::mp().workload;
        for engine in [EngineMode::Dense, EngineMode::Sparse] {
            assert_same_as_system(cfg(w.cores(), engine), &w);
        }
    }

    #[test]
    fn rig_equals_system_on_fft4_under_both_engines() {
        let w = wb_workloads::splash::fft(4, wb_workloads::Scale::Test);
        for engine in [EngineMode::Dense, EngineMode::Sparse] {
            assert_same_as_system(cfg(4, engine), &w);
        }
    }

    #[test]
    fn rig_equals_system_under_link_faults_and_chaos() {
        let w = wb_workloads::splash::radix(4, wb_workloads::Scale::Test);
        for engine in [EngineMode::Dense, EngineMode::Sparse] {
            assert_same_as_system(cfg(4, engine).with_fault(FaultPlan::mixed_misery()), &w);
            assert_same_as_system(cfg(4, engine).with_chaos(ChaosPlan::wb_entry_squeeze()), &w);
        }
    }

    #[test]
    fn rig_refuses_what_it_does_not_replicate() {
        let w = wb_tso::litmus::mp().workload;
        assert!(Rig::new(&cfg(2, EngineMode::Skip), &w).is_err());
        assert!(Rig::new(
            &cfg(2, EngineMode::Sparse).with_soft(SoftPlan::background_radiation()),
            &w
        )
        .is_err());
    }

    #[test]
    fn disabled_profile_takes_no_laps() {
        let mut p = Profile::default();
        p.lap(Span::CpuTick, 3);
        assert_eq!((p.get(Span::CpuTick).calls, p.laps()), (3, 1));
        p.disable();
        p.lap(Span::CpuTick, 3);
        assert_eq!(p.laps(), 1);
        let a = Acc {
            ns: 100,
            calls: 1,
            laps: 2,
        };
        assert_eq!(a.busy_ns(30.0), 40.0);
        assert_eq!(a.busy_ns(80.0), 0.0);
    }
}
