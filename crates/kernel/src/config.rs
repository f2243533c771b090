//! System configuration, mirroring Table 6 of the paper.
//!
//! The paper evaluates three core classes — Silvermont-like (SLM),
//! Nehalem-like (NHM) and Haswell-like (HSW) — on a 16-core tiled multicore
//! with private L1/L2, a shared banked L3 with an embedded directory, and a
//! 4x4 2D-mesh interconnect.

/// The three simulated core classes of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreClass {
    /// Silvermont-class: IQ 16, ROB 32, LQ 10, SQ/SB 16.
    Slm,
    /// Nehalem-class: IQ 32, ROB 128, LQ 48, SQ/SB 36.
    Nhm,
    /// Haswell-class: IQ 60, ROB 192, LQ 72, SQ/SB 42.
    Hsw,
}

impl CoreClass {
    /// All classes, in the order the paper plots them.
    pub const ALL: [CoreClass; 3] = [CoreClass::Slm, CoreClass::Nhm, CoreClass::Hsw];

    /// Short label used in figure output ("SLM", "NHM", "HSW").
    pub fn label(self) -> &'static str {
        match self {
            CoreClass::Slm => "SLM",
            CoreClass::Nhm => "NHM",
            CoreClass::Hsw => "HSW",
        }
    }

    /// Inverse of [`CoreClass::label`], in any case (`"slm"`, `"NHM"`).
    ///
    /// # Errors
    ///
    /// Fails on any other name.
    pub fn parse(name: &str) -> Result<CoreClass, String> {
        CoreClass::ALL
            .into_iter()
            .find(|c| c.label().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown core class `{name}`"))
    }
}

impl std::fmt::Display for CoreClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How instructions leave the reorder buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitMode {
    /// Conventional in-order commit from the ROB head.
    InOrder,
    /// Safe out-of-order commit per Bell-Lipasti: all six conditions are
    /// enforced, including consistency (condition 6), so a load reordered
    /// with respect to an older non-performed load cannot commit.
    OutOfOrder,
    /// Out-of-order commit with the consistency condition relaxed for loads
    /// via lockdowns + the WritersBlock protocol (the paper's proposal).
    /// Requires [`ProtocolKind::WritersBlock`].
    OutOfOrderWb,
    /// In-order commit with *early commit of loads* (ECL): a load may
    /// retire from the ROB head before its data returns, as in the DEC
    /// Alpha 21164 (stall-on-use) and DeSC — the paper's other motivating
    /// use cases (Section 1). Requires [`ProtocolKind::WritersBlock`]:
    /// early-committed loads are irrevocably bound, so a reordering among
    /// them must be hidden, not squashed.
    InOrderEcl,
}

impl CommitMode {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            CommitMode::InOrder => "InOrder",
            CommitMode::OutOfOrder => "OoO",
            CommitMode::OutOfOrderWb => "OoO+WB",
            CommitMode::InOrderEcl => "ECL+WB",
        }
    }
}

impl std::fmt::Display for CommitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which coherence protocol the directory and private caches speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Base MESI directory protocol (GEMS-style): invalidations that hit
    /// M-speculative loads squash them.
    BaseMesi,
    /// MESI extended with the WritersBlock transient state: invalidations
    /// that hit lockdowns are Nacked and the write is delayed (Section 3).
    WritersBlock,
}

impl ProtocolKind {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::BaseMesi => "MESI",
            ProtocolKind::WritersBlock => "WritersBlock",
        }
    }
}

/// Out-of-order core parameters (Table 6, top block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched and committed per cycle.
    pub width: usize,
    /// Instruction queue (scheduler) entries.
    pub iq_entries: usize,
    /// Reorder buffer entries. The ROB is collapsible when committing
    /// out of order.
    pub rob_entries: usize,
    /// Load queue entries (collapsible under out-of-order commit).
    pub lq_entries: usize,
    /// Store queue entries (FIFO). The post-commit store buffer has as
    /// many (Table 6's "SQ/SB" column).
    pub sq_entries: usize,
    /// Lockdown table entries for loads committed out of order (32 in the
    /// paper).
    pub ldt_entries: usize,
    /// How instructions leave the ROB.
    pub commit_mode: CommitMode,
    /// How far past the ROB head commit may search for committable
    /// instructions. The paper uses a commit depth equal to the ROB size.
    pub commit_depth: usize,
    /// Request write permission as soon as a store *resolves its
    /// address* (Section 3.1.2: "as early as the store resolves its
    /// address"), instead of waiting for the store to commit into the
    /// store buffer. Speculative prefetches may invalidate other caches
    /// spuriously but never violate TSO.
    pub write_prefetch_at_resolve: bool,
    /// Collapsible load queue (the paper's choice, Section 4.2): loads
    /// committed out of order leave the LQ immediately, exporting their
    /// lockdowns to the LDT. With `false` the LQ is a FIFO: committed
    /// loads occupy their entry (holding their own lockdown, footnote 10)
    /// until they reach the head — the paper's footnote-8 alternative.
    pub collapsible_lq: bool,
}

impl CoreConfig {
    /// The configuration of Table 6 for a given class, with in-order commit.
    pub fn for_class(class: CoreClass) -> Self {
        let (iq, rob, lq, sq) = match class {
            CoreClass::Slm => (16, 32, 10, 16),
            CoreClass::Nhm => (32, 128, 48, 36),
            CoreClass::Hsw => (60, 192, 72, 42),
        };
        CoreConfig {
            width: 4,
            iq_entries: iq,
            rob_entries: rob,
            lq_entries: lq,
            sq_entries: sq,
            ldt_entries: 32,
            commit_mode: CommitMode::InOrder,
            commit_depth: rob,
            write_prefetch_at_resolve: false,
            collapsible_lq: true,
        }
    }
}

/// Entries in the bimodal branch predictor table.
pub const PREDICTOR_ENTRIES: usize = 512;

/// Extra cycles of front-end refill after a squash (mispredict or
/// memory-order violation) before fetch resumes.
pub const SQUASH_PENALTY: u64 = 5;

/// Private L1 data cache hit latency in cycles (Table 6).
pub const L1_HIT_CYCLES: u64 = 4;

/// Private L2 hit latency in cycles (Table 6).
pub const L2_HIT_CYCLES: u64 = 12;

/// Shared L3 (directory bank) access latency in cycles (Table 6).
pub const L3_HIT_CYCLES: u64 = 35;

/// Main memory access latency in cycles (Table 6).
pub const MEM_CYCLES: u64 = 160;

/// MSHRs at the private cache. One is reserved for SoS loads
/// (Section 3.5.2: resource partitioning), so there must be at least
/// two.
pub const MSHRS: usize = 16;
const _: () = assert!(MSHRS >= 2, "need at least 2 MSHRs (1 reserved for SoS loads)");

/// Requests one directory bank accepts per cycle. Arrivals beyond this
/// wait in the bank's occupancy queue: contention is modeled rather
/// than infinite-bandwidth.
pub const DIR_BANK_PORTS: usize = 4;
const _: () = assert!(DIR_BANK_PORTS >= 1, "a directory bank needs at least one port");

/// Cache and memory hierarchy parameters (Table 6, middle block). The
/// latencies, the MSHR count and the bank ports are the constants
/// above; the 64-byte line is `wb_mem::LINE_BYTES`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Private L1 data cache: total bytes, associativity.
    pub l1_bytes: usize,
    pub l1_ways: usize,
    /// Private L2: total bytes, associativity.
    pub l2_bytes: usize,
    pub l2_ways: usize,
    /// Shared L3: bytes *per bank*, associativity.
    pub l3_bank_bytes: usize,
    pub l3_ways: usize,
    /// Entries in the directory eviction buffer that parks WritersBlock
    /// entries under eviction (Section 3.5.1).
    pub dir_evict_buffer: usize,
    /// Directory banks hosted per home node. Lines interleave across
    /// `num_cores * dir_banks_per_node` banks; each bank has its own
    /// [`DIR_BANK_PORTS`] request ports, occupancy queue and
    /// `next_event` hook, so directory bandwidth scales independently
    /// of core count.
    pub dir_banks_per_node: usize,
    /// Evict shared lines silently (the paper's chosen baseline, Section
    /// 3.8). When false, shared-line evictions notify the directory, and in
    /// the base protocol squash M-speculative loads.
    pub silent_shared_evictions: bool,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 128 * 1024,
            l2_ways: 8,
            l3_bank_bytes: 1024 * 1024,
            l3_ways: 8,
            dir_evict_buffer: 8,
            dir_banks_per_node: 1,
            silent_shared_evictions: true,
        }
    }
}

impl MemoryConfig {
    /// The memory geometries a campaign spec names with its `machine`
    /// key: Table 6's, and [`MemoryConfig::tiny_llc`].
    pub const MACHINES: [crate::Named<MemoryConfig>; 2] = [("table6", Self::default), ("tiny-llc", Self::tiny_llc)];

    /// Table 6's hierarchy with a tiny LLC: four 64-byte lines per bank
    /// in two ways and a two-slot eviction buffer, so directory
    /// evictions and parked WritersBlock entries (Section 3.5.1) are
    /// constant.
    pub fn tiny_llc() -> Self {
        MemoryConfig { l3_bank_bytes: 4 * 64, l3_ways: 2, dir_evict_buffer: 2, ..Self::default() }
    }

    /// The [`MemoryConfig::MACHINES`] entry called `name`.
    ///
    /// # Errors
    ///
    /// Fails on any other name.
    pub fn machine(name: &str) -> Result<Self, String> {
        let (_, make) = Self::MACHINES.iter().find(|(n, _)| *n == name).ok_or_else(|| format!("unknown machine `{name}`"))?;
        Ok(make())
    }

    /// Inverse of [`MemoryConfig::machine`].
    pub fn machine_name(&self) -> Option<&'static str> {
        Self::MACHINES.iter().find(|(_, make)| make() == *self).map(|(n, _)| *n)
    }
}

/// Reliable-delivery (link-layer ARQ) parameters. Only consulted when a
/// fault plan is installed: a fault-free mesh never constructs the
/// reliable sublayer, keeping the fast path byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkConfig {
    /// Maximum unacknowledged frames per (src, dst, vnet) flow. Further
    /// sends are parked in a pending queue (backpressure into `send`).
    pub window: usize,
    /// Initial retransmission timeout in cycles. Must exceed the worst
    /// fault-free round trip, or clean traffic retransmits spuriously.
    pub rto_min: u64,
    /// Backoff cap: the per-frame timeout doubles on every
    /// retransmission up to this bound.
    pub rto_max: u64,
    /// Cycles a received-but-unacknowledged flow may sit idle before
    /// the receiver emits a standalone cumulative ACK (no reverse
    /// traffic to piggyback on).
    pub ack_idle: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // rto_min comfortably above the worst fault-free RTT on a 4x4
        // mesh (6 hops x 6 cycles + serialization + jitter, both ways).
        LinkConfig { window: 32, rto_min: 256, rto_max: 4096, ack_idle: 64 }
    }
}

/// Interconnect parameters (Table 6, bottom block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Mesh dimensions; 4x4 for 16 nodes.
    pub mesh_width: usize,
    pub mesh_height: usize,
    /// Cycles for a flit to traverse one switch-to-switch hop.
    pub hop_cycles: u64,
    /// Flits in a data-carrying message.
    pub data_flits: u32,
    /// Flits in a control message.
    pub control_flits: u32,
    /// Extra, random, per-message delay in [0, jitter] cycles used by the
    /// litmus harness to widen the explored interleaving space. Zero for
    /// performance runs.
    pub jitter: u64,
    /// Reliable-delivery sublayer tuning (active only under a fault plan).
    pub link: LinkConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            mesh_width: 4,
            mesh_height: 4,
            hop_cycles: 6,
            data_flits: 5,
            control_flits: 1,
            jitter: 0,
            link: LinkConfig::default(),
        }
    }
}

/// The default watchdog window ([`SystemConfig::stall_window`]).
pub const STALL_WINDOW: u64 = 200_000;

/// Multiplier on both watchdog thresholds while a fault plan is
/// installed: retransmission round trips (`rto_min`, doubled per retry)
/// legitimately stretch every protocol interaction.
pub const FAULT_SCALE: u64 = 4;

/// Retry-class events accumulating across one stall window that make
/// the diagnosis Livelock rather than Deadlock/Starvation (before the
/// topology and fault scaling of [`SystemConfig::effective_livelock_retries`]).
pub const LIVELOCK_RETRIES: u64 = 16;

/// Which simulation engine drives `System::run`.
///
/// There is one cycle body (`writersblock`'s `engine` module); the
/// modes differ only in *which units a cycle visits*. All three are
/// cycle-exact with each other — `RunOutcome`, final `Stats`, timelines
/// and the merged trace are identical — which is what lets the
/// equivalence suites pin the fast engine to the reference one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Visit every unit on every cycle. The reference oracle the
    /// equivalence suites compare against.
    #[default]
    Dense,
    /// The engine. Each core+cache pair, directory bank, the mesh and
    /// each node's arrival drain is a unit in a calendar-wheel
    /// scheduler ([`crate::sched::ActivitySched`]) keyed by its
    /// `next_event` hook and woken eagerly on message delivery; a cycle
    /// visits only the due units and the recipients of that cycle's
    /// messages — O(active) instead of O(cores) — and when nothing is
    /// due `now` jumps to the earliest wake.
    Sparse,
    /// The self-checking mode: compute the set `Sparse` would visit,
    /// then visit *everything*, asserting each unit outside the set did
    /// nothing observable. Never jumps.
    SparseVerify,
}

impl EngineMode {
    /// Exists only so `benchmark/src/rig.rs`'s
    /// `rig_refuses_what_it_does_not_replicate` (which this PR may not
    /// edit) keeps compiling: a value the rig still refuses. Nothing in
    /// the root workspace may reference it; the next `benchmark`-archetype
    /// PR removes that line and this shim together.
    #[doc(hidden)]
    #[deprecated(note = "the skip engine was removed; use `EngineMode::Sparse`")]
    #[allow(non_upper_case_globals)]
    pub const Skip: EngineMode = EngineMode::SparseVerify;

    /// True for the modes that drive the activity wheel (everything
    /// but the dense reference engine).
    pub fn is_sparse(self) -> bool {
        self != EngineMode::Dense
    }

    /// The mode's name in campaign specs and wedge reproducers.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Dense => "dense",
            EngineMode::Sparse => "sparse",
            EngineMode::SparseVerify => "sparse-verify",
        }
    }

    /// Inverse of [`EngineMode::name`].
    ///
    /// # Errors
    ///
    /// Fails on an unknown name; the names of the removed skip engines
    /// are rejected with their replacement, so a stale campaign spec or
    /// an old wedge reproducer fails before any cell runs.
    pub fn parse(name: &str) -> Result<EngineMode, String> {
        match name {
            "dense" => Ok(EngineMode::Dense),
            "sparse" => Ok(EngineMode::Sparse),
            "sparse-verify" => Ok(EngineMode::SparseVerify),
            "skip" => Err("engine \"skip\" was removed; use \"sparse\"".to_owned()),
            "skip-verify" => {
                Err("engine \"skip-verify\" was removed; use \"sparse-verify\"".to_owned())
            }
            other => Err(format!("unknown engine `{other}`")),
        }
    }
}

/// The five protocol/commit arms, by their names in campaign specs:
/// the baseline, Bell-Lipasti out-of-order commit that squashes on a
/// consistency hazard, the WritersBlock protocol under in-order commit
/// (Figure 9), the paper's proposal, and early commit of loads. Every
/// matrix test and the campaign farm iterate this table; a sixth arm is
/// added here and nowhere else.
pub const ARMS: [(&str, ProtocolKind, CommitMode); 5] = [
    ("mesi-inorder", ProtocolKind::BaseMesi, CommitMode::InOrder),
    ("mesi-ooo", ProtocolKind::BaseMesi, CommitMode::OutOfOrder),
    ("wb-inorder", ProtocolKind::WritersBlock, CommitMode::InOrder),
    ("wb-ooo", ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb),
    ("wb-ecl", ProtocolKind::WritersBlock, CommitMode::InOrderEcl),
];

/// The [`ARMS`] entry called `name`.
pub fn arm(name: &str) -> Option<(ProtocolKind, CommitMode)> {
    ARMS.iter().find(|(n, ..)| *n == name).map(|&(_, protocol, commit)| (protocol, commit))
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    pub num_cores: usize,
    pub core: CoreConfig,
    pub memory: MemoryConfig,
    pub network: NetworkConfig,
    pub protocol: ProtocolKind,
    /// RNG seed for the run (drives jitter and any randomized workload).
    pub seed: u64,
    /// Ablation: serve cacheable copies from a WritersBlock directory entry
    /// and re-invalidate (the livelock-prone "Option 1" of Section 3.4).
    /// Only for the livelock demonstration; keep `false` otherwise.
    pub wb_cacheable_reads: bool,
    /// Record every committed memory instruction for the TSO checker.
    /// Litmus/torture runs need this; long benchmark runs turn it off
    /// (the log grows with every committed load).
    pub record_events: bool,
    /// Adversarial network schedule (delay storms, hotspots, bounded
    /// starvation, lockdown-directed stalls). `None` leaves the mesh
    /// byte-identical to a chaos-free build.
    pub chaos: Option<crate::chaos::ChaosPlan>,
    /// Link-level fault schedule (drops, duplicates, corruption).
    /// Installing a plan — even the empty [`crate::fault::FaultPlan::none`]
    /// — enables the reliable-delivery sublayer; `None` leaves the mesh
    /// byte-identical to a fault-free build.
    pub fault: Option<crate::fault::FaultPlan>,
    /// Soft-error schedule: seeded bit flips into stored protocol state
    /// (cache line state/tags, directory entries, sharer sets, MSHRs),
    /// detected by guard hashes and repaired (a cache line in place, a
    /// directory entry by purging the line from every core).
    /// `None` *and* the empty [`crate::soft::SoftPlan::none`] both leave
    /// runs byte-identical to a soft-error-free build.
    pub soft: Option<crate::soft::SoftPlan>,
    /// The wedge watchdog's one knob: cycles a core may go without
    /// retiring (or the drained memory system without going idle)
    /// before the watchdog trips, on the 4x4 machine without a fault
    /// plan. The window in force is
    /// [`SystemConfig::effective_stall_window`]: this one, scaled up
    /// with the mesh diameter and by [`FAULT_SCALE`] while a fault plan
    /// is active, so neither long flights nor loss-induced
    /// retransmission stalls are misclassified as deadlock/livelock.
    pub stall_window: u64,
    /// Simulation engine (see [`EngineMode`]). Cycle-exact either way.
    pub engine: EngineMode,
}

impl SystemConfig {
    /// A 16-core system of the given class with the base MESI protocol and
    /// in-order commit — the paper's baseline.
    pub fn new(class: CoreClass) -> Self {
        SystemConfig {
            num_cores: 16,
            core: CoreConfig::for_class(class),
            memory: MemoryConfig::default(),
            network: NetworkConfig::default(),
            protocol: ProtocolKind::BaseMesi,
            seed: 0x5eed_cafe,
            wb_cacheable_reads: false,
            record_events: true,
            chaos: None,
            fault: None,
            soft: None,
            stall_window: STALL_WINDOW,
            engine: EngineMode::Dense,
        }
    }

    /// Builder-style: disable memory-event recording (benchmark runs).
    pub fn without_event_log(mut self) -> Self {
        self.record_events = false;
        self
    }

    /// Builder-style: set the number of cores. The mesh is resized to
    /// the most-square *exact* rectangle (`width * height == n`), so no
    /// mesh node is ever left without a core mapped to it — `validate`
    /// rejects over-provisioned meshes. Prime counts degrade to `n x 1`.
    pub fn with_cores(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one core");
        self.num_cores = n;
        let mut h = 1;
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                h = d;
            }
            d += 1;
        }
        self.network.mesh_width = n / h;
        self.network.mesh_height = h;
        self
    }

    /// Builder-style: set the commit mode (and switch the protocol to
    /// WritersBlock when the relaxed mode requires it).
    pub fn with_commit(mut self, mode: CommitMode) -> Self {
        self.core.commit_mode = mode;
        if matches!(mode, CommitMode::OutOfOrderWb | CommitMode::InOrderEcl) {
            self.protocol = ProtocolKind::WritersBlock;
        }
        self
    }

    /// Builder-style: set the coherence protocol.
    pub fn with_protocol(mut self, p: ProtocolKind) -> Self {
        self.protocol = p;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: random message jitter for litmus exploration.
    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.network.jitter = jitter;
        self
    }

    /// Builder-style: install an adversarial network schedule.
    pub fn with_chaos(mut self, plan: crate::chaos::ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builder-style: install a link-level fault schedule (and thereby
    /// the reliable-delivery sublayer).
    pub fn with_fault(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder-style: install a soft-error (stored-state bit-flip)
    /// schedule with guard-hash detection and repair.
    pub fn with_soft(mut self, plan: crate::soft::SoftPlan) -> Self {
        self.soft = Some(plan);
        self
    }

    /// Builder-style: select the simulation engine.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Watchdog multiplier derived from the mesh diameter in hop
    /// cycles, normalised to the 4x4/6-cycle machine the absolute
    /// windows were tuned on (diameter 6 hops x 6 cycles = 36). A
    /// 16x16 mesh at the same hop latency yields 5: serialized line
    /// transfers behind a hot barrier line legitimately take that much
    /// longer end to end, and an unscaled window calls a legal 16x16
    /// barrier run wedged.
    pub fn topology_scale(&self) -> u64 {
        const REF_DIAMETER_CYCLES: u64 = 36;
        let hops = (self.network.mesh_width - 1 + self.network.mesh_height - 1) as u64;
        (hops.saturating_mul(self.network.hop_cycles) / REF_DIAMETER_CYCLES).max(1)
    }

    /// Scale a 4x4, fault-free watchdog threshold to this machine: by
    /// [`SystemConfig::topology_scale`], and by [`FAULT_SCALE`] while a
    /// fault plan is installed.
    fn watchdog_scaled(&self, threshold: u64) -> u64 {
        let fault = if self.fault.is_some() { FAULT_SCALE } else { 1 };
        threshold.saturating_mul(self.topology_scale()).saturating_mul(fault)
    }

    /// The stall window the watchdog uses: the configured one, scaled
    /// by the mesh diameter and while a fault plan is installed
    /// (retransmission round trips stretch every protocol interaction
    /// without anything being wedged).
    pub fn effective_stall_window(&self) -> u64 {
        self.watchdog_scaled(self.stall_window)
    }

    /// The livelock-classification threshold in force:
    /// [`LIVELOCK_RETRIES`] scaled like the stall window (retransmissions
    /// and longer flight times inflate retry-shaped activity).
    pub fn effective_livelock_retries(&self) -> u64 {
        self.watchdog_scaled(LIVELOCK_RETRIES)
    }

    /// Panics if the configuration is internally inconsistent.
    ///
    /// # Panics
    ///
    /// - commit mode `OutOfOrderWb` combined with the base MESI protocol
    ///   (irrevocably bound reordered loads would be unsound);
    /// - a mesh too small for the node count, or one with nodes left
    ///   unmapped (`mesh_width * mesh_height != num_cores`);
    /// - more than [`crate::MAX_NODES`] cores (sharer bitsets are
    ///   fixed-width);
    /// - zero directory banks per node.
    pub fn validate(&self) {
        if matches!(self.core.commit_mode, CommitMode::OutOfOrderWb | CommitMode::InOrderEcl) {
            assert_eq!(
                self.protocol,
                ProtocolKind::WritersBlock,
                "relaxed consistency commit requires the WritersBlock protocol"
            );
        }
        assert!(
            self.network.mesh_width * self.network.mesh_height >= self.num_cores,
            "mesh {}x{} cannot host {} nodes",
            self.network.mesh_width,
            self.network.mesh_height,
            self.num_cores
        );
        assert!(
            self.network.mesh_width * self.network.mesh_height == self.num_cores,
            "mesh {}x{} leaves {} nodes unmapped (no home bank routes to them); \
             size the mesh exactly, e.g. via with_cores",
            self.network.mesh_width,
            self.network.mesh_height,
            self.network.mesh_width * self.network.mesh_height - self.num_cores
        );
        assert!(
            self.num_cores <= crate::MAX_NODES,
            "{} cores exceed MAX_NODES = {} (directory sharer bitsets are fixed-width)",
            self.num_cores,
            crate::MAX_NODES
        );
        assert!(self.memory.dir_banks_per_node >= 1, "need at least one directory bank per node");
        assert!(self.core.width >= 1);
        if let Some(p) = &self.fault {
            p.validate();
        }
        if let Some(p) = &self.soft {
            p.validate();
        }
        let link = &self.network.link;
        assert!(link.window >= 1, "reliable link needs a window of at least one frame");
        assert!(link.rto_min >= 1 && link.rto_max >= link.rto_min, "rto_min..rto_max malformed");
        assert!(self.stall_window >= 1, "zero stall window would trip immediately");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_slm_values() {
        let c = CoreConfig::for_class(CoreClass::Slm);
        assert_eq!((c.iq_entries, c.rob_entries, c.lq_entries, c.sq_entries), (16, 32, 10, 16));
        assert_eq!(c.width, 4);
        assert_eq!(c.ldt_entries, 32);
    }

    #[test]
    fn table6_nhm_values() {
        let c = CoreConfig::for_class(CoreClass::Nhm);
        assert_eq!((c.iq_entries, c.rob_entries, c.lq_entries, c.sq_entries), (32, 128, 48, 36));
    }

    #[test]
    fn table6_hsw_values() {
        let c = CoreConfig::for_class(CoreClass::Hsw);
        assert_eq!((c.iq_entries, c.rob_entries, c.lq_entries, c.sq_entries), (60, 192, 72, 42));
    }

    #[test]
    fn table6_memory_values() {
        let m = MemoryConfig::default();
        assert_eq!(m.l1_bytes, 32 * 1024);
        assert_eq!((L1_HIT_CYCLES, L2_HIT_CYCLES, L3_HIT_CYCLES, MEM_CYCLES), (4, 12, 35, 160));
    }

    #[test]
    fn table6_network_values() {
        let n = NetworkConfig::default();
        assert_eq!((n.mesh_width, n.mesh_height), (4, 4));
        assert_eq!(n.hop_cycles, 6);
        assert_eq!((n.data_flits, n.control_flits), (5, 1));
    }

    #[test]
    fn with_commit_switches_protocol() {
        let cfg = SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::OutOfOrderWb);
        assert_eq!(cfg.protocol, ProtocolKind::WritersBlock);
        cfg.validate();
        let cfg = SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::InOrderEcl);
        assert_eq!(cfg.protocol, ProtocolKind::WritersBlock);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "WritersBlock")]
    fn validate_rejects_ecl_on_base_mesi() {
        let mut cfg = SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::InOrderEcl);
        cfg.protocol = ProtocolKind::BaseMesi;
        cfg.validate();
    }

    #[test]
    fn new_knobs_default_off() {
        let c = CoreConfig::for_class(CoreClass::Slm);
        assert!(c.collapsible_lq, "the paper's choice is the default");
        assert!(!c.write_prefetch_at_resolve);
        assert_eq!(CommitMode::InOrderEcl.label(), "ECL+WB");
    }

    #[test]
    #[should_panic(expected = "WritersBlock")]
    fn validate_rejects_unsound_combo() {
        let mut cfg = SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::OutOfOrderWb);
        cfg.protocol = ProtocolKind::BaseMesi;
        cfg.validate();
    }

    #[test]
    fn with_cores_resizes_mesh_exactly() {
        for n in [1, 2, 3, 4, 6, 12, 16, 64, 100, 256] {
            let cfg = SystemConfig::new(CoreClass::Slm).with_cores(n);
            assert_eq!(cfg.network.mesh_width * cfg.network.mesh_height, n, "exact for {n}");
            assert!(cfg.network.mesh_width >= cfg.network.mesh_height);
            cfg.validate();
        }
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(64);
        assert_eq!((cfg.network.mesh_width, cfg.network.mesh_height), (8, 8));
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(256);
        assert_eq!((cfg.network.mesh_width, cfg.network.mesh_height), (16, 16));
        // Primes degrade to a 1-high chain rather than wasting nodes.
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(7);
        assert_eq!((cfg.network.mesh_width, cfg.network.mesh_height), (7, 1));
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn validate_rejects_unmapped_mesh_nodes() {
        let mut cfg = SystemConfig::new(CoreClass::Slm);
        cfg.num_cores = 14; // 4x4 mesh, 2 nodes without a home
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "MAX_NODES")]
    fn validate_rejects_oversized_machines() {
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(512);
        cfg.validate();
    }

    #[test]
    fn watchdog_scales_only_under_fault() {
        let cfg = SystemConfig::new(CoreClass::Slm);
        assert_eq!(cfg.effective_stall_window(), 200_000);
        assert_eq!(cfg.effective_livelock_retries(), 16);
        let cfg = cfg.with_fault(crate::fault::FaultPlan::drop_everywhere(1, 10));
        assert_eq!(cfg.effective_stall_window(), 800_000);
        assert_eq!(cfg.effective_livelock_retries(), 64);
        cfg.validate();
        // Chaos alone does not scale: delays are bounded by the plan.
        let cfg = SystemConfig::new(CoreClass::Slm).with_chaos(crate::chaos::ChaosPlan::quiet());
        assert_eq!(cfg.effective_stall_window(), 200_000);
    }

    #[test]
    fn watchdog_scales_with_mesh_diameter() {
        // The 4x4 tuning point is the identity.
        assert_eq!(SystemConfig::new(CoreClass::Slm).topology_scale(), 1);
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(64);
        assert_eq!(cfg.topology_scale(), 2); // 14 hops x 6 cycles / 36
        let cfg = SystemConfig::new(CoreClass::Slm).with_cores(256);
        assert_eq!(cfg.topology_scale(), 5); // 30 hops x 6 cycles / 36
        assert_eq!(cfg.effective_stall_window(), 1_000_000);
        assert_eq!(cfg.effective_livelock_retries(), 80);
        // Fault and topology scaling compose.
        let cfg = cfg.with_fault(crate::fault::FaultPlan::drop_everywhere(1, 10));
        assert_eq!(cfg.effective_stall_window(), 4_000_000);
    }

    #[test]
    fn bank_knobs_default_sane() {
        let m = MemoryConfig::default();
        assert_eq!(m.dir_banks_per_node, 1);
    }

    #[test]
    fn link_defaults_are_sane() {
        let l = LinkConfig::default();
        assert!(l.rto_min > 70, "rto_min must exceed the worst fault-free RTT");
        assert!(l.rto_max >= l.rto_min);
        assert!(l.window >= 1);
    }

    #[test]
    #[should_panic(expected = "rto_min..rto_max")]
    fn validate_rejects_inverted_rto() {
        let mut cfg = SystemConfig::new(CoreClass::Slm);
        cfg.network.link.rto_max = 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "probability above 1")]
    fn validate_checks_fault_plan() {
        let mut cfg = SystemConfig::new(CoreClass::Slm);
        cfg.fault = Some(crate::fault::FaultPlan::drop_everywhere(3, 2));
        cfg.validate();
    }

    #[test]
    fn arms_are_the_five_named_ones_and_round_trip() {
        let names: Vec<&str> = ARMS.iter().map(|&(n, ..)| n).collect();
        assert_eq!(names, ["mesi-inorder", "mesi-ooo", "wb-inorder", "wb-ooo", "wb-ecl"]);
        for (i, &(name, protocol, commit)) in ARMS.iter().enumerate() {
            assert_eq!(arm(name), Some((protocol, commit)));
            assert!(ARMS[..i].iter().all(|&(n, p, c)| n != name && (p, c) != (protocol, commit)));
            // Every arm is a configuration `validate` accepts.
            SystemConfig::new(CoreClass::Slm).with_commit(commit).with_protocol(protocol).validate();
        }
        assert_eq!(arm("wb"), None);
    }

    #[test]
    fn labels() {
        assert_eq!(CoreClass::Slm.label(), "SLM");
        assert_eq!(CommitMode::OutOfOrderWb.label(), "OoO+WB");
        assert_eq!(ProtocolKind::WritersBlock.label(), "WritersBlock");
        assert_eq!(format!("{}", CoreClass::Hsw), "HSW");
        assert_eq!(format!("{}", CommitMode::InOrder), "InOrder");
    }

    #[test]
    fn core_class_parse_round_trips_labels_in_any_case() {
        for class in CoreClass::ALL {
            assert_eq!(CoreClass::parse(class.label()), Ok(class));
            assert_eq!(CoreClass::parse(&class.label().to_lowercase()), Ok(class));
        }
        for junk in ["xyz", "", "slm2", " slm"] {
            assert_eq!(CoreClass::parse(junk), Err(format!("unknown core class `{junk}`")));
        }
    }
}
