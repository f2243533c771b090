//! Crash-resumable campaign farm.
//!
//! A *campaign* is a matrix of simulation cells — workload × protocol
//! arm × chaos plan × fault plan × soft-error plan × seed — described
//! by a JSON spec
//! (parsed with the in-tree [`wb_kernel::json`] parser) and executed on
//! the deterministic sweep runner ([`crate::sweep`]). Results stream to
//! `<out>/results.jsonl` in completion order; after every flushed
//! result line the cell's id is appended to `<out>/manifest`, so a
//! `kill -9` at any instant loses at most the cell in flight. Re-running
//! the same campaign into the same directory reads the manifest, runs
//! only the missing cells, and writes `<out>/merged.jsonl` in spec
//! order — byte-identical to an uninterrupted run, because every cell
//! result is a pure function of the spec (no wall-clock, no host state;
//! the workspace `clippy.toml` disallows host-time reads outside
//! `timing`).
//!
//! Two extra modes ride on the snapshot subsystem:
//!
//! * **Warm-start forking** (`"warmup": N` in the spec): each
//!   (workload, arm, chaos, fault) group is run once for `N` cycles
//!   under a fixed warm seed, snapshotted, and every seed cell restores
//!   that one snapshot and [`writersblock::System::reseed`]s itself —
//!   thousands of seeds for the price of one warm-up.
//! * **Fuzzing** ([`run_fuzz`]): mines torture/litmus cells under the
//!   chaos, fault and soft-error matrices with a tightened watchdog,
//!   and dedupes every failing [`Verdict`] by its signature into
//!   `<out>/wedges.jsonl` — each line a distinct failure mode with its
//!   one-command reproducer.
//!
//! Farm and fuzz cells alike are judged by [`System::verify`], so a
//! cell that *completes* still passes through the final coherence audit
//! and the silent-flip account: an undetected bit flip is recorded as
//! `corrupt` with a `silent-corruption|…` signature instead of slipping
//! through as a clean run. (Cells run without the event log, so the
//! farm's verdict has no TSO half.)

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::sweep;
use wb_isa::Workload;
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{self, CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::json::{self, Json};
use wb_kernel::soft::SoftPlan;
use wb_workloads::torture;
use writersblock::{Failure, System, Verdict};

/// Fixed seed every warm-start snapshot is taken under; forks restore
/// it and immediately reseed to their own cell seed.
pub const WARM_SEED: u64 = 0x5eed_0001;

/// Per-cell budget for fuzz-mined cells: long enough for the tightened
/// watchdog (stall window 2500) to classify a wedge, short enough to
/// mine hundreds of cells per round.
pub const FUZZ_BUDGET: u64 = 2_000_000;

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// A parsed campaign spec: the full cell matrix plus execution knobs.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub name: String,
    /// Core count used when *generating* suite workloads; each cell's
    /// machine is sized to its workload's own core count.
    pub cores: usize,
    pub class: CoreClass,
    pub engine: EngineMode,
    pub jitter: u64,
    /// Default per-cell cycle budget.
    pub budget: u64,
    /// Per-workload budget overrides (e.g. radix/streamcluster need 2x).
    pub budgets: BTreeMap<String, u64>,
    /// Warm-start cycles (0 = run every cell from reset).
    pub warmup: u64,
    pub workloads: Vec<String>,
    pub arms: Vec<String>,
    pub chaos: Vec<String>,
    pub faults: Vec<String>,
    pub softs: Vec<String>,
    pub seeds: Vec<u64>,
}

fn want_str(v: &Json, key: &str) -> Result<String, String> {
    v.as_str().map(str::to_owned).ok_or_else(|| format!("spec key `{key}` must be a string"))
}

fn want_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("spec key `{key}` must be an unsigned integer"))
}

fn want_str_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    let arr = v.as_arr().ok_or_else(|| format!("spec key `{key}` must be an array"))?;
    if arr.is_empty() {
        return Err(format!("spec key `{key}` must not be empty"));
    }
    arr.iter().map(|e| want_str(e, key)).collect()
}

impl CampaignSpec {
    /// Parse and validate a spec. Every workload/arm/chaos/fault name is
    /// resolved against the registries here, so a typo fails before any
    /// cell runs rather than mid-campaign.
    pub fn parse(src: &str) -> Result<CampaignSpec, String> {
        let doc = json::parse(src).map_err(|e| format!("campaign spec: {e}"))?;
        let obj = doc.as_obj().ok_or("campaign spec must be a JSON object")?;
        let mut spec = CampaignSpec {
            name: "campaign".to_owned(),
            cores: 4,
            class: CoreClass::Slm,
            engine: EngineMode::Sparse,
            jitter: 0,
            budget: crate::RUN_BUDGET,
            budgets: BTreeMap::new(),
            warmup: 0,
            workloads: vec![],
            arms: vec!["wb-ooo".to_owned()],
            chaos: vec!["off".to_owned()],
            faults: vec!["off".to_owned()],
            softs: vec!["off".to_owned()],
            seeds: vec![1],
        };
        for (k, v) in obj {
            match k.as_str() {
                "name" => spec.name = want_str(v, k)?,
                "cores" => spec.cores = want_u64(v, k)? as usize,
                "class" => {
                    spec.class = match want_str(v, k)?.as_str() {
                        "slm" => CoreClass::Slm,
                        "nhm" => CoreClass::Nhm,
                        "hsw" => CoreClass::Hsw,
                        other => return Err(format!("unknown core class `{other}`")),
                    }
                }
                "engine" => spec.engine = EngineMode::parse(&want_str(v, k)?)?,
                "jitter" => spec.jitter = want_u64(v, k)?,
                "budget" => spec.budget = want_u64(v, k)?,
                "budgets" => {
                    let o = v.as_obj().ok_or("spec key `budgets` must be an object")?;
                    for (w, b) in o {
                        spec.budgets.insert(w.clone(), want_u64(b, "budgets")?);
                    }
                }
                "warmup" => spec.warmup = want_u64(v, k)?,
                "workloads" => spec.workloads = want_str_list(v, k)?,
                "arms" => spec.arms = want_str_list(v, k)?,
                "chaos" => spec.chaos = want_str_list(v, k)?,
                "faults" => spec.faults = want_str_list(v, k)?,
                "softs" => spec.softs = want_str_list(v, k)?,
                "seeds" => {
                    // Either an explicit list, or {"first": F, "count": N}
                    // for warm-start fleets of thousands.
                    if let Some(arr) = v.as_arr() {
                        spec.seeds = arr.iter().map(|e| want_u64(e, k)).collect::<Result<_, _>>()?;
                        if spec.seeds.is_empty() {
                            return Err("spec key `seeds` must not be empty".to_owned());
                        }
                    } else if v.as_obj().is_some() {
                        let first = want_u64(
                            v.get("first").ok_or("seeds object needs `first`")?,
                            "seeds.first",
                        )?;
                        let count = want_u64(
                            v.get("count").ok_or("seeds object needs `count`")?,
                            "seeds.count",
                        )?;
                        if count == 0 {
                            return Err("seeds.count must be positive".to_owned());
                        }
                        spec.seeds = (0..count).map(|i| first.wrapping_add(i)).collect();
                    } else {
                        return Err("spec key `seeds` must be an array or object".to_owned());
                    }
                }
                other => return Err(format!("unknown spec key `{other}`")),
            }
        }
        if spec.workloads.is_empty() {
            return Err("spec key `workloads` is required".to_owned());
        }
        for w in &spec.workloads {
            workload_by_name(w, spec.cores)?;
        }
        for a in &spec.arms {
            arm_by_name(a)?;
        }
        for c in &spec.chaos {
            chaos_by_name(c)?;
        }
        for f in &spec.faults {
            fault_by_name(f)?;
        }
        for s in &spec.softs {
            soft_by_name(s)?;
        }
        for w in spec.budgets.keys() {
            if !spec.workloads.contains(w) {
                return Err(format!("budget override for `{w}` which is not in `workloads`"));
            }
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

/// Resolve a workload name: litmus tests, the barrier storm, or any of
/// the 12 suite kernels (generated at `cores` cores, `Scale::Test`).
pub fn workload_by_name(name: &str, cores: usize) -> Result<Workload, String> {
    use wb_tso::litmus;
    match name {
        "mp" => return Ok(litmus::mp().workload),
        "mp-warm" => return Ok(litmus::mp_warm().workload),
        "sb" => return Ok(litmus::sb().workload),
        "lb" => return Ok(litmus::lb().workload),
        "corr" => return Ok(litmus::corr().workload),
        "iriw" => return Ok(litmus::iriw().workload),
        "mp-transitive" => return Ok(litmus::mp_transitive().workload),
        "two-plus-two-w" => return Ok(litmus::two_plus_two_w().workload),
        "barrier-storm" => return Ok(wb_workloads::barrier_storm(cores, 4)),
        _ => {}
    }
    wb_workloads::by_name(name, cores, wb_workloads::Scale::Test)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Resolve a protocol arm name ([`config::ARMS`]) to (protocol, commit mode).
pub fn arm_by_name(name: &str) -> Result<(ProtocolKind, CommitMode), String> {
    config::arm(name).ok_or_else(|| format!("unknown arm `{name}`"))
}

/// Resolve a chaos plan name (`"off"` = none).
pub fn chaos_by_name(name: &str) -> Result<Option<ChaosPlan>, String> {
    Ok(Some(match name {
        "off" => return Ok(None),
        "delay-storm" => ChaosPlan::delay_storm(),
        "request-storm" => ChaosPlan::request_storm(),
        "forward-storm" => ChaosPlan::forward_storm(),
        "response-storm" => ChaosPlan::response_storm(),
        "reorder-amplify" => ChaosPlan::reorder_amplify(),
        "wb-entry-squeeze" => ChaosPlan::wb_entry_squeeze(),
        "hotspot" => ChaosPlan::hotspot(0),
        other => return Err(format!("unknown chaos plan `{other}`")),
    }))
}

/// Resolve a fault plan name (`"off"` = none; `"drop-N-M"` drops N/M of
/// all hops).
pub fn fault_by_name(name: &str) -> Result<Option<FaultPlan>, String> {
    Ok(Some(match name {
        "off" => return Ok(None),
        "drop-response" => FaultPlan::drop_response(),
        "drop-forward" => FaultPlan::drop_forward(),
        "duplicate-storm" => FaultPlan::duplicate_storm(),
        "corrupt-everywhere" => FaultPlan::corrupt_everywhere(),
        "mixed-misery" => FaultPlan::mixed_misery(),
        other => {
            let parts: Vec<&str> = other.split('-').collect();
            match parts.as_slice() {
                ["drop", num, den] => match (num.parse(), den.parse()) {
                    (Ok(n), Ok(d)) if d > 0u64 => FaultPlan::drop_everywhere(n, d),
                    _ => return Err(format!("bad drop rate in `{other}`")),
                },
                _ => return Err(format!("unknown fault plan `{other}`")),
            }
        }
    }))
}

/// Resolve a soft-error plan name (`"off"` = none). A `-xN` suffix
/// accelerates every clause rate `N`-fold (mean gaps divided) — e.g.
/// `"background-radiation-x20"` — because the standard matrix rates
/// are soak-tuned and short campaign cells would otherwise finish
/// before a single strike lands.
pub fn soft_by_name(name: &str) -> Result<Option<SoftPlan>, String> {
    if name == "off" {
        return Ok(None);
    }
    let (base, accel) = match name.rsplit_once("-x") {
        Some((b, n)) if !n.is_empty() && n.bytes().all(|c| c.is_ascii_digit()) => {
            let n: u64 = n.parse().map_err(|_| format!("bad acceleration in `{name}`"))?;
            if n == 0 {
                return Err(format!("zero acceleration in `{name}`"));
            }
            (b, n)
        }
        _ => (name, 1),
    };
    let plan = match base {
        "none" => SoftPlan::none(),
        "cache-state-storm" => SoftPlan::cache_state_storm(),
        "tag-flips" => SoftPlan::tag_flips(),
        "dir-state-storm" => SoftPlan::dir_state_storm(),
        "sharer-bits" => SoftPlan::sharer_bits(),
        "mshr-fields" => SoftPlan::mshr_fields(),
        "background-radiation" => SoftPlan::background_radiation(),
        "double-entry" => SoftPlan::double_entry(),
        other => return Err(format!("unknown soft plan `{other}`")),
    };
    Ok(Some(if accel > 1 { plan.accelerated(accel) } else { plan }))
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// One point of the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Stable id, unique within the campaign; the manifest key.
    pub id: String,
    pub workload: String,
    pub arm: String,
    pub chaos: String,
    pub fault: String,
    pub soft: String,
    pub seed: u64,
    pub budget: u64,
}

impl Cell {
    /// Warm-start group key: everything but the seed.
    fn group(&self) -> String {
        format!("{}+{}+{}+{}+{}", self.workload, self.arm, self.chaos, self.fault, self.soft)
    }
}

/// Expand the spec into its cell matrix, in spec order (workload
/// outermost, seed innermost). Ids are stable across runs — they key
/// the resume manifest.
pub fn cells(spec: &CampaignSpec) -> Vec<Cell> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        let budget = spec.budgets.get(w).copied().unwrap_or(spec.budget);
        for arm in &spec.arms {
            for chaos in &spec.chaos {
                for fault in &spec.faults {
                    for soft in &spec.softs {
                        for &seed in &spec.seeds {
                            out.push(Cell {
                                id: format!("{w}+{arm}+{chaos}+{fault}+{soft}+s{seed}"),
                                workload: w.clone(),
                                arm: arm.clone(),
                                chaos: chaos.clone(),
                                fault: fault.clone(),
                                soft: soft.clone(),
                                seed,
                                budget,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Build the system configuration for one cell (machine sized to the
/// workload's own core count; `seed` may be overridden for warm-starts).
pub fn cell_config(spec: &CampaignSpec, cell: &Cell, cores: usize, seed: u64) -> SystemConfig {
    // Names were validated at parse time; resolution cannot fail here.
    let (protocol, commit) = arm_by_name(&cell.arm).expect("arm validated at parse");
    let mut cfg = SystemConfig::new(spec.class)
        .with_cores(cores)
        .with_commit(commit)
        .with_protocol(protocol)
        .with_engine(spec.engine)
        .with_seed(seed)
        .with_jitter(spec.jitter)
        .without_event_log();
    if let Some(p) = chaos_by_name(&cell.chaos).expect("chaos validated at parse") {
        cfg = cfg.with_chaos(p);
    }
    if let Some(p) = fault_by_name(&cell.fault).expect("fault validated at parse") {
        cfg = cfg.with_fault(p);
    }
    if let Some(p) = soft_by_name(&cell.soft).expect("soft validated at parse") {
        cfg = cfg.with_soft(p);
    }
    cfg
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The deterministic outcome of one cell. Contains nothing derived from
/// the host (no wall time, no hostname): the merged campaign output
/// must be byte-identical however many times the run was interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub id: String,
    /// `done` | `budget` | `wedge` | `fault` | `corrupt` — the last for a
    /// run that completed but failed an oracle of [`System::verify`]: a
    /// dirty final audit or injected flips that were never detected.
    pub outcome: String,
    /// As of the end of the run, before the final audit's drain ticks.
    pub cycles: u64,
    pub retired: u64,
    /// [`Verdict::signature`] (dedup key), empty for `done` and `budget`.
    pub signature: String,
    /// One-command reproducer, empty for `done` and `budget`.
    pub reproducer: String,
}

impl CellResult {
    /// Summarize the verdict on cell `id`.
    fn from_verdict(id: &str, v: &Verdict) -> CellResult {
        let outcome = match v.failure() {
            None => "done",
            Some(Failure::Budget) => "budget",
            Some(Failure::Wedge(_)) => "wedge",
            Some(Failure::Fault(_)) => "fault",
            Some(Failure::Audit(_) | Failure::SilentFlips(_) | Failure::Tso(_)) => "corrupt",
        };
        // A spent budget is a property of the spec, not a failure mode
        // to dedup or replay.
        let failed = !matches!(outcome, "done" | "budget");
        CellResult {
            id: id.to_owned(),
            outcome: outcome.to_owned(),
            cycles: v.cycles,
            retired: v.retired,
            signature: v.signature().filter(|_| failed).unwrap_or_default(),
            reproducer: if failed { v.reproducer.clone() } else { String::new() },
        }
    }

    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"outcome\":\"{}\",\"cycles\":{},\"retired\":{},\"sig\":\"{}\",\"repro\":\"{}\"}}",
            json::escape(&self.id),
            json::escape(&self.outcome),
            self.cycles,
            self.retired,
            json::escape(&self.signature),
            json::escape(&self.reproducer),
        )
    }

    pub fn parse_line(line: &str) -> Result<CellResult, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("result line missing `{k}`"))
        };
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k).and_then(Json::as_u64).ok_or_else(|| format!("result line missing `{k}`"))
        };
        Ok(CellResult {
            id: field("cell")?,
            outcome: field("outcome")?,
            cycles: num("cycles")?,
            retired: num("retired")?,
            signature: field("sig")?,
            reproducer: field("repro")?,
        })
    }
}

/// Run one cell from reset (or from a warm snapshot) and summarize.
fn run_cell(spec: &CampaignSpec, cell: &Cell, warm: Option<&[u8]>) -> CellResult {
    let w = workload_by_name(&cell.workload, spec.cores).expect("workload validated at parse");
    let cores = w.cores();
    let mut sys = match warm {
        Some(bytes) => {
            let mut sys = System::new(cell_config(spec, cell, cores, WARM_SEED), &w);
            sys.restore(bytes).expect("warm snapshot restores into its own configuration");
            sys.reseed(cell.seed);
            sys
        }
        None => System::new(cell_config(spec, cell, cores, cell.seed), &w),
    };
    CellResult::from_verdict(&cell.id, &sys.verify(cell.budget))
}

/// Compute the warm snapshot for one cell group: run the group's
/// configuration for `spec.warmup` cycles under [`WARM_SEED`].
fn warm_snapshot(spec: &CampaignSpec, cell: &Cell) -> Vec<u8> {
    let w = workload_by_name(&cell.workload, spec.cores).expect("workload validated at parse");
    let cores = w.cores();
    let mut sys = System::new(cell_config(spec, cell, cores, WARM_SEED), &w);
    let _ = sys.run(spec.warmup);
    sys.snapshot()
}

// ---------------------------------------------------------------------------
// The farm
// ---------------------------------------------------------------------------

/// What a [`run_campaign`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Total cells in the spec matrix.
    pub total: usize,
    /// Cells executed by this invocation.
    pub ran: usize,
    /// Cells skipped because the manifest already had them.
    pub resumed: usize,
    pub wedges: usize,
    pub faults: usize,
    /// Cells that completed but failed an oracle (outcome `corrupt`).
    pub corrupt: usize,
}

fn read_lines(path: &Path) -> Vec<String> {
    match fs::read_to_string(path) {
        Ok(s) => s.lines().map(str::to_owned).collect(),
        Err(_) => Vec::new(),
    }
}

/// Run (or resume) a campaign into `out`.
///
/// Crash-safety protocol: each worker appends its result line to
/// `results.jsonl` and syncs it *before* appending the cell id to
/// `manifest`. A cell is therefore only ever marked complete once its
/// result is durable; a kill between the two writes re-runs the cell on
/// resume (its duplicate result line is deduplicated at merge time —
/// harmless, since cell results are deterministic). `kill_after`
/// hard-aborts the process after that many completions — the hook the
/// crash-resume smoke test uses to die at a deterministic point, with
/// exactly the file state a `kill -9` would leave.
pub fn run_campaign(
    spec: &CampaignSpec,
    out: &Path,
    threads: usize,
    kill_after: Option<usize>,
) -> Result<CampaignReport, String> {
    fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let all = cells(spec);
    {
        let mut seen = BTreeSet::new();
        for c in &all {
            if !seen.insert(&c.id) {
                return Err(format!("duplicate cell id `{}` in spec matrix", c.id));
            }
        }
    }

    // Resume state: the manifest is the source of truth; result lines
    // without a manifest entry (torn writes, killed pre-manifest) are
    // dropped and their cells re-run.
    let done: BTreeSet<String> = read_lines(&out.join("manifest")).into_iter().collect();
    let mut by_id: BTreeMap<String, String> = BTreeMap::new();
    for line in read_lines(&out.join("results.jsonl")) {
        if let Ok(r) = CellResult::parse_line(&line) {
            if done.contains(&r.id) {
                by_id.insert(r.id, line);
            }
        }
    }
    let todo: Vec<Cell> = all.iter().filter(|c| !by_id.contains_key(&c.id)).cloned().collect();
    let resumed = all.len() - todo.len();

    // Warm-start: one snapshot per (workload, arm, chaos, fault) group,
    // computed up front on the same worker pool. Deterministic, so a
    // resumed campaign recomputes byte-identical snapshots.
    let warm: BTreeMap<String, Vec<u8>> = if spec.warmup > 0 {
        let groups: Vec<Cell> = {
            let mut seen = BTreeSet::new();
            todo.iter().filter(|c| seen.insert(c.group())).cloned().collect()
        };
        let keys: Vec<String> = groups.iter().map(Cell::group).collect();
        let snaps = sweep::run_on(threads, groups, |c| warm_snapshot(spec, &c));
        keys.into_iter().zip(snaps).collect()
    } else {
        BTreeMap::new()
    };

    let open_append = |name: &str| {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join(name))
            .map_err(|e| format!("opening {}/{name}: {e}", out.display()))
    };
    let mut results_file = open_append("results.jsonl")?;
    // A kill mid-write can leave a torn final line with no newline; seal
    // it so the first fresh append starts on its own line. (The torn
    // line's cell has no manifest entry, so it re-runs regardless.)
    if let Ok(s) = fs::read_to_string(out.join("results.jsonl")) {
        if !s.is_empty() && !s.ends_with('\n') {
            writeln!(results_file).map_err(|e| format!("sealing results.jsonl: {e}"))?;
        }
    }
    let sink = Mutex::new((results_file, open_append("manifest")?, 0usize));

    let fresh: Vec<CellResult> = sweep::run_on(threads, todo, |cell| {
        let r = run_cell(spec, &cell, warm.get(&cell.group()).map(Vec::as_slice));
        let line = r.to_json_line();
        let mut s = sink.lock().expect("campaign sink");
        let (results, manifest, completed) = &mut *s;
        // Result first, durable, then the manifest entry that marks it
        // complete — the order the resume protocol depends on.
        writeln!(results, "{line}").and_then(|()| results.sync_data()).expect("writing results");
        writeln!(manifest, "{}", r.id).and_then(|()| manifest.sync_data()).expect("writing manifest");
        *completed += 1;
        if kill_after.is_some_and(|k| *completed >= k) {
            // Simulated power-cut for the crash-resume smoke: no
            // destructors, no flushes beyond what is already durable.
            std::process::abort();
        }
        r
    });

    for r in &fresh {
        by_id.insert(r.id.clone(), r.to_json_line());
    }
    let mut merged = String::new();
    for c in &all {
        let line = by_id.get(&c.id).ok_or_else(|| format!("cell `{}` produced no result", c.id))?;
        merged.push_str(line);
        merged.push('\n');
    }
    fs::write(out.join("merged.jsonl"), &merged)
        .map_err(|e| format!("writing {}/merged.jsonl: {e}", out.display()))?;

    let count = |kind: &str| {
        by_id.values().filter(|l| l.contains(&format!("\"outcome\":\"{kind}\""))).count()
    };
    Ok(CampaignReport {
        total: all.len(),
        ran: fresh.len(),
        resumed,
        wedges: count("wedge"),
        faults: count("fault"),
        corrupt: count("corrupt"),
    })
}

// ---------------------------------------------------------------------------
// Fuzzing
// ---------------------------------------------------------------------------

/// What a [`run_fuzz`] call found.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Cells executed across all rounds.
    pub cells: usize,
    /// Cells whose verdict was a failure (a spent budget aside).
    pub hits: usize,
    /// Signatures not previously present in `wedges.jsonl`.
    pub fresh: Vec<String>,
}

/// Aggressive watchdog/retransmit settings so marginal cells classify
/// as wedges inside [`FUZZ_BUDGET`] instead of limping to completion.
fn fuzz_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(2)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(25)
        .without_event_log();
    cfg.network.link.rto_min = 4000;
    cfg.network.link.rto_max = 4000;
    cfg.watchdog.stall_window = 2500;
    cfg.watchdog.fault_scale = 1;
    cfg
}

/// Mine chaos/fault/soft/litmus cells for failures and dedupe them by
/// signature into `<out>/wedges.jsonl`. Each round draws a fresh
/// seed (`seed0 + round`) and sweeps the full chaos, fault and
/// accelerated soft-error matrices over a torture workload plus the
/// `mp`/`sb` litmus races; any failing cell whose
/// [`Verdict::signature`] has not been seen before is appended with
/// its reproducer. A *completed* run is still a failure if the final
/// coherence audit finds violations or any injected flip was never
/// detected; those mine a `silent-corruption|<plan>|<violation kinds>`
/// signature, keyed by plan and violation class — not by seed — so
/// each corruption mode dedupes to one line.
pub fn run_fuzz(
    out: &Path,
    threads: usize,
    rounds: usize,
    seed0: u64,
) -> Result<FuzzReport, String> {
    fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let wedges_path = out.join("wedges.jsonl");
    let mut known: BTreeSet<String> = read_lines(&wedges_path)
        .iter()
        .filter_map(|l| json::parse(l).ok())
        .filter_map(|d| d.get("sig").and_then(Json::as_str).map(str::to_owned))
        .collect();
    let mut wedges = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&wedges_path)
        .map_err(|e| format!("opening {}: {e}", wedges_path.display()))?;

    let mut report = FuzzReport { cells: 0, hits: 0, fresh: Vec::new() };
    for round in 0..rounds {
        let seed = seed0.wrapping_add(round as u64);
        let mut jobs: Vec<(String, SystemConfig, Workload)> = Vec::new();
        for (i, fp) in FaultPlan::matrix().into_iter().enumerate() {
            let label = format!("fault:{fp}");
            let w = torture::workload(2, seed ^ (i as u64), 15);
            jobs.push((label, fuzz_config(seed).with_fault(fp), w));
        }
        for (i, cp) in ChaosPlan::matrix().into_iter().enumerate() {
            let label = format!("chaos:{cp}");
            let w = torture::workload(2, seed ^ (0x1000 + i as u64), 15);
            jobs.push((label, fuzz_config(seed).with_chaos(cp), w));
        }
        for name in ["mp", "sb"] {
            let w = workload_by_name(name, 2).expect("litmus names resolve");
            let cfg = fuzz_config(seed).with_fault(FaultPlan::drop_everywhere(1, 12));
            jobs.push((format!("litmus:{name}"), cfg, w));
        }
        for (i, sp) in SoftPlan::matrix().into_iter().filter(|p| !p.is_none()).enumerate() {
            // Matrix rates are soak-tuned; accelerate so every fuzz
            // cell takes a real barrage inside FUZZ_BUDGET.
            let sp = sp.accelerated(20);
            let label = format!("soft:{sp}");
            let w = torture::workload(2, seed ^ (0x2000 + i as u64), 15);
            jobs.push((label, fuzz_config(seed).with_soft(sp), w));
        }
        report.cells += jobs.len();
        let hits = sweep::run_on(threads, jobs, |(label, cfg, w)| {
            let r = CellResult::from_verdict(&label, &System::new(cfg, &w).verify(FUZZ_BUDGET));
            (!r.signature.is_empty()).then_some((label, r.signature, r.reproducer))
        });
        for (label, sig, repro) in hits.into_iter().flatten() {
            report.hits += 1;
            if known.insert(sig.clone()) {
                let line = format!(
                    "{{\"sig\":\"{}\",\"cell\":\"{}\",\"repro\":\"{}\"}}",
                    json::escape(&sig),
                    json::escape(&label),
                    json::escape(&repro),
                );
                writeln!(wedges, "{line}")
                    .and_then(|()| wedges.sync_data())
                    .map_err(|e| format!("writing wedges.jsonl: {e}"))?;
                report.fresh.push(sig);
            }
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("wb-campaign-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    const TINY: &str = r#"{
        "name": "tiny", "cores": 2, "engine": "sparse", "budget": 20000000,
        "workloads": ["mp", "sb"], "arms": ["wb-ooo"],
        "chaos": ["off", "delay-storm"], "faults": ["off"], "seeds": [1, 2]
    }"#;

    #[test]
    fn spec_parses_with_defaults_and_rejects_junk() {
        let spec = CampaignSpec::parse(TINY).expect("tiny spec parses");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.arms, ["wb-ooo"]);
        assert_eq!(cells(&spec).len(), 2 * 2 * 2);
        for (src, needle) in [
            (r#"{"workloads":["nope"]}"#, "unknown workload"),
            (r#"{"workloads":["mp"],"arms":["x"]}"#, "unknown arm"),
            (r#"{"workloads":["mp"],"chaos":["x"]}"#, "unknown chaos"),
            (r#"{"workloads":["mp"],"faults":["drop-1-0"]}"#, "bad drop rate"),
            (r#"{"workloads":["mp"],"softs":["x"]}"#, "unknown soft plan"),
            (r#"{"workloads":["mp"],"softs":["tag-flips-x0"]}"#, "zero acceleration"),
            (r#"{"workloads":["mp"],"frobnicate":1}"#, "unknown spec key"),
            (r#"{"workloads":["mp"],"budgets":{"fft":1}}"#, "not in `workloads`"),
            (r#"{}"#, "`workloads` is required"),
        ] {
            let e = CampaignSpec::parse(src).expect_err(src);
            assert!(e.contains(needle), "{src}: got {e}");
        }
    }

    #[test]
    fn removed_engines_are_rejected_with_their_replacement() {
        // A stale spec must fail at parse time, before any cell runs.
        for (name, replacement) in [("skip", "sparse"), ("skip-verify", "sparse-verify")] {
            let src = format!(r#"{{"workloads":["mp"],"engine":"{name}"}}"#);
            let e = CampaignSpec::parse(&src).expect_err(&src);
            assert_eq!(e, format!(r#"engine "{name}" was removed; use "{replacement}""#));
        }
        let spec = CampaignSpec::parse(r#"{"workloads":["mp"]}"#).expect("parses");
        assert_eq!(spec.engine, EngineMode::Sparse);
    }

    #[test]
    fn seed_ranges_and_budget_overrides_expand() {
        let spec = CampaignSpec::parse(
            r#"{"workloads":["mp","sb"],"seeds":{"first":10,"count":3},
                "budget":500,"budgets":{"sb":900}}"#,
        )
        .expect("parses");
        let cs = cells(&spec);
        assert_eq!(cs.len(), 6);
        assert_eq!(cs[0].seed, 10);
        assert_eq!(cs[2].seed, 12);
        assert_eq!(cs[0].budget, 500);
        assert_eq!(cs[5].budget, 900);
        assert_eq!(cs[0].id, "mp+wb-ooo+off+off+off+s10");
    }

    /// The soft axis expands like chaos/faults, resolves accelerated
    /// names, and lands in the cell configuration.
    #[test]
    fn soft_axis_expands_and_resolves() {
        let spec = CampaignSpec::parse(
            r#"{"workloads":["mp"],"softs":["off","background-radiation-x20"],"seeds":[3]}"#,
        )
        .expect("parses");
        let cs = cells(&spec);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].id, "mp+wb-ooo+off+off+off+s3");
        assert_eq!(cs[1].id, "mp+wb-ooo+off+off+background-radiation-x20+s3");
        assert!(cell_config(&spec, &cs[0], 2, 3).soft.is_none());
        let plan = cell_config(&spec, &cs[1], 2, 3).soft.expect("soft plan installed");
        assert_eq!(plan.name, "background_radiation");
        assert_eq!(plan.clauses[0].mean_gap, 400, "x20 acceleration applied");
        assert!(soft_by_name("tag-flips").expect("known").is_some());
        assert!(soft_by_name("off").expect("off").is_none());
        // Both cells pass every oracle, so the farm still calls them done.
        for c in &cs {
            let r = run_cell(&spec, c, None);
            assert_eq!((r.outcome.as_str(), r.signature.as_str()), ("done", ""), "{}", c.id);
        }
    }

    /// Every way a verdict can fail lands in a farm outcome; the three
    /// oracle failures of a completed run are `corrupt`, never `done`.
    #[test]
    fn failing_verdicts_map_to_outcomes() {
        use wb_kernel::audit::{AuditKind, AuditViolation};
        use wb_kernel::wedge::{WedgeClass, WedgeReport};
        let report = |class| {
            Box::new(WedgeReport {
                class,
                at_cycle: 9,
                reproducer: "workload=mp seed=0x3".to_owned(),
                stalled_cores: vec![(0, 2500)],
                retries_in_window: 0,
                edges: Vec::new(),
                participants: Vec::new(),
                error: None,
                notes: Vec::new(),
            })
        };
        let verdict = |failure| Verdict {
            cycles: 9,
            retired: 4,
            reproducer: "workload=mp seed=0x3".to_owned(),
            soft_plan: "tag_flips",
            silent: 1,
            failure: Some(failure),
        };
        let leak = AuditViolation { kind: AuditKind::MshrLeak, detail: "cache 0".to_owned() };
        for (failure, outcome) in [
            (Failure::Wedge(report(WedgeClass::Deadlock)), "wedge"),
            (Failure::Fault(report(WedgeClass::ProtocolFault)), "fault"),
            (Failure::Audit(vec![leak]), "corrupt"),
            (Failure::SilentFlips(1), "corrupt"),
            (Failure::Tso(wb_tso::CheckError::TsoViolation), "corrupt"),
        ] {
            let v = verdict(failure);
            let r = CellResult::from_verdict("cell", &v);
            assert_eq!((r.outcome.as_str(), r.cycles, r.retired), (outcome, 9, 4));
            assert_eq!(Some(&r.signature), v.signature().as_ref());
            assert!(!r.signature.is_empty(), "{outcome} cell without a dedup key");
            assert_eq!(r.reproducer, "workload=mp seed=0x3");
        }
        let r = CellResult::from_verdict("cell", &verdict(Failure::Budget));
        assert_eq!(
            (r.outcome.as_str(), r.signature.as_str(), r.reproducer.as_str()),
            ("budget", "", "")
        );
    }

    /// The committed standard campaign spec stays valid, covers the
    /// full 12-kernel suite, and carries the 2x budgets the scaling
    /// sweep established for radix and streamcluster.
    #[test]
    fn standard_spec_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/standard.json");
        let src = fs::read_to_string(path).expect("campaigns/standard.json exists");
        let spec = CampaignSpec::parse(&src).expect("standard spec parses");
        assert_eq!(spec.workloads.len(), 12, "full suite");
        assert_eq!(spec.budgets.get("radix"), Some(&400_000_000));
        assert_eq!(spec.budgets.get("streamcluster"), Some(&400_000_000));
        assert_eq!(spec.budget, 200_000_000);
        assert_eq!(cells(&spec).len(), 12 * 4);
    }

    #[test]
    fn result_lines_roundtrip() {
        let r = CellResult {
            id: "mp+wb-ooo+off+off+s1".to_owned(),
            outcome: "wedge".to_owned(),
            cycles: 123,
            retired: 4,
            signature: "deadlock|core0|a->b:c|".to_owned(),
            reproducer: "cargo run \"x\"".to_owned(),
        };
        assert_eq!(CellResult::parse_line(&r.to_json_line()).expect("roundtrips"), r);
        assert!(CellResult::parse_line("{\"cell\":\"x\"").is_err(), "torn line rejected");
    }

    /// An interrupted campaign — manifest truncated mid-run, with both a
    /// torn half-line and an unconfirmed (flushed-but-unmanifested)
    /// result — resumes to a merged output byte-identical to an
    /// uninterrupted run.
    #[test]
    fn resume_after_simulated_crash_is_byte_identical() {
        let spec = CampaignSpec::parse(TINY).expect("parses");
        let reference = tmp_dir("ref");
        let rep = run_campaign(&spec, &reference, 2, None).expect("reference run");
        assert_eq!((rep.total, rep.ran, rep.resumed), (8, 8, 0));
        let merged = fs::read(reference.join("merged.jsonl")).expect("merged exists");

        // Forge the crash: keep 3 completed cells, plus one result line
        // whose manifest entry never landed, plus a torn final line.
        let crashed = tmp_dir("crash");
        fs::create_dir_all(&crashed).expect("mkdir");
        let results = fs::read_to_string(reference.join("results.jsonl")).expect("results");
        let manifest = fs::read_to_string(reference.join("manifest")).expect("manifest");
        let keep = |s: &str, n: usize| {
            s.lines().take(n).map(|l| format!("{l}\n")).collect::<String>()
        };
        let mut partial = keep(&results, 4);
        partial.push_str("{\"cell\":\"torn");
        fs::write(crashed.join("results.jsonl"), partial).expect("write");
        fs::write(crashed.join("manifest"), keep(&manifest, 3)).expect("write");

        let rep = run_campaign(&spec, &crashed, 2, None).expect("resumed run");
        assert_eq!(rep.resumed, 3, "three cells were durable");
        assert_eq!(rep.ran, 5, "five cells re-ran (incl. the unconfirmed one)");
        assert_eq!(
            fs::read(crashed.join("merged.jsonl")).expect("merged"),
            merged,
            "resumed merge must be byte-identical to the uninterrupted run"
        );
        // Fully-resumed rerun is a no-op that still rewrites merged.jsonl.
        let rep = run_campaign(&spec, &crashed, 2, None).expect("no-op rerun");
        assert_eq!((rep.ran, rep.resumed), (0, 8));
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&crashed);
    }

    /// Warm-start campaigns are deterministic across independent runs
    /// and record post-warmup cycles (warm cycles included in `cycles`).
    #[test]
    fn warm_start_campaign_is_deterministic() {
        let spec = CampaignSpec::parse(
            r#"{"name":"warm","cores":2,"budget":20000000,"warmup":2000,"jitter":25,
                "workloads":["fft"],"arms":["wb-ooo"],
                "seeds":{"first":1,"count":4}}"#,
        )
        .expect("parses");
        let a = tmp_dir("warm-a");
        let b = tmp_dir("warm-b");
        run_campaign(&spec, &a, 2, None).expect("run a");
        run_campaign(&spec, &b, 1, None).expect("run b");
        let ma = fs::read(a.join("merged.jsonl")).expect("a merged");
        assert_eq!(ma, fs::read(b.join("merged.jsonl")).expect("b merged"));
        let first = CellResult::parse_line(
            String::from_utf8(ma).expect("utf8").lines().next().expect("one line"),
        )
        .expect("parses");
        assert!(first.cycles >= 2000, "cycles include the warm-up prefix");
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }

    /// The fuzz miner finds at least one wedge signature on the lossy
    /// litmus cells and never records the same signature twice.
    #[test]
    fn fuzz_dedupes_by_signature() {
        let out = tmp_dir("fuzz");
        let rep = run_fuzz(&out, 2, 2, 7).expect("fuzz runs");
        assert!(rep.cells > 0);
        let lines = read_lines(&out.join("wedges.jsonl"));
        assert_eq!(lines.len(), rep.fresh.len());
        let sigs: BTreeSet<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .expect("wedge line parses")
                    .get("sig")
                    .and_then(Json::as_str)
                    .expect("has sig")
                    .to_owned()
            })
            .collect();
        assert_eq!(sigs.len(), lines.len(), "signatures are unique");
        // A second pass over the same seeds adds nothing new.
        let rep2 = run_fuzz(&out, 2, 2, 7).expect("fuzz reruns");
        assert!(rep2.fresh.is_empty(), "rerun re-mined only known signatures");
        let _ = fs::remove_dir_all(&out);
    }
}
