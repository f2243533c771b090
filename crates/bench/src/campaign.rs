//! Crash-resumable campaign farm — the one matrix runner.
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
//! the workspace `clippy.toml` disallows host-time reads).
//!
//! Every run also rewrites `<out>/wedges.jsonl` from the merged results:
//! the first failing cell in spec order of each distinct signature, in
//! `merged.jsonl`'s line format (so with its reproducer); empty for a
//! clean campaign. Mining for failures is a spec like any other: the
//! `torture` workload draws each cell's program from its seed, and the
//! chaos, fault and soft-error axes put any workload under injection.
//!
//! Cells are judged by [`System::verify`], so a cell that *completes*
//! still passes through the final coherence audit and the silent-flip
//! account: an undetected bit flip is recorded as `corrupt` with a
//! `silent-corruption|…` signature instead of slipping through as a
//! clean run. (Cells run without the event log, so the farm's verdict
//! has no TSO half.)

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

/// The workload name whose program depends on the cell's seed: a cell
/// with seed `s` runs `torture::workload(spec.cores, s, TORTURE_OPS)`.
const TORTURE: &str = "torture";

/// Operations per core of a `torture` cell's program.
const TORTURE_OPS: usize = 200;

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
                "cores" => {
                    spec.cores = want_u64(v, k)? as usize;
                    if !(1..=wb_kernel::MAX_NODES).contains(&spec.cores) {
                        return Err(format!("spec key `cores` must be in 1..={}", wb_kernel::MAX_NODES));
                    }
                }
                "class" => spec.class = CoreClass::parse(&want_str(v, k)?)?,
                "engine" => spec.engine = EngineMode::parse(&want_str(v, k)?)?,
                "jitter" => spec.jitter = want_u64(v, k)?,
                "budget" => spec.budget = want_u64(v, k)?,
                "budgets" => {
                    let o = v.as_obj().ok_or("spec key `budgets` must be an object")?;
                    for (w, b) in o {
                        spec.budgets.insert(w.clone(), want_u64(b, "budgets")?);
                    }
                }
                "workloads" => spec.workloads = want_str_list(v, k)?,
                "arms" => spec.arms = want_str_list(v, k)?,
                "chaos" => spec.chaos = want_str_list(v, k)?,
                "faults" => spec.faults = want_str_list(v, k)?,
                "softs" => spec.softs = want_str_list(v, k)?,
                "seeds" => {
                    // Either an explicit list, or {"first": F, "count": N}
                    // for fleets of thousands.
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
        for w in spec.workloads.iter().filter(|w| *w != TORTURE) {
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

/// Resolve a seed-independent workload name: litmus tests, the barrier
/// storm, or any of the 12 suite kernels (generated at `cores` cores,
/// `Scale::Test`). `torture` is not one: a torture cell's program comes
/// from its seed.
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

/// Build the system configuration for one cell under `seed` (machine
/// sized to the workload's own core count). A [`TORTURE`] cell keeps the
/// event log, so its verdict includes the TSO check: only its programs
/// store globally unique values, which the checker needs to tell writes
/// apart.
pub fn cell_config(spec: &CampaignSpec, cell: &Cell, cores: usize, seed: u64) -> SystemConfig {
    // Names were validated at parse time; resolution cannot fail here.
    let (protocol, commit) = arm_by_name(&cell.arm).expect("arm validated at parse");
    let mut cfg = SystemConfig::new(spec.class)
        .with_cores(cores)
        .with_commit(commit)
        .with_protocol(protocol)
        .with_engine(spec.engine)
        .with_seed(seed)
        .with_jitter(spec.jitter);
    if cell.workload != TORTURE {
        cfg = cfg.without_event_log();
    }
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

/// The program a cell runs: a [`TORTURE`] cell's is drawn from its seed,
/// any other's from its workload name alone.
fn cell_workload(spec: &CampaignSpec, cell: &Cell) -> Workload {
    if cell.workload == TORTURE {
        torture::workload(spec.cores, cell.seed, TORTURE_OPS)
    } else {
        workload_by_name(&cell.workload, spec.cores).expect("workload validated at parse")
    }
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
        let failed = Self::is_failure(outcome);
        CellResult {
            id: id.to_owned(),
            outcome: outcome.to_owned(),
            cycles: v.cycles,
            retired: v.retired,
            signature: v.signature().filter(|_| failed).unwrap_or_default(),
            reproducer: if failed { v.reproducer.clone() } else { String::new() },
        }
    }

    /// A failure mode to dedup and replay: `wedge`, `fault` or
    /// `corrupt`. A spent budget is a property of the spec, not one.
    fn is_failure(outcome: &str) -> bool {
        !matches!(outcome, "done" | "budget")
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

/// Run one cell from reset through `System::verify` and summarize.
fn verify_cell(spec: &CampaignSpec, cell: &Cell) -> CellResult {
    let w = cell_workload(spec, cell);
    let mut sys = System::new(cell_config(spec, cell, w.cores(), cell.seed), &w);
    CellResult::from_verdict(&cell.id, &sys.verify(cell.budget))
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
    let mut by_id: BTreeMap<String, CellResult> = BTreeMap::new();
    for line in read_lines(&out.join("results.jsonl")) {
        if let Ok(r) = CellResult::parse_line(&line) {
            if done.contains(&r.id) {
                by_id.insert(r.id.clone(), r);
            }
        }
    }
    let todo: Vec<Cell> = all.iter().filter(|c| !by_id.contains_key(&c.id)).cloned().collect();
    let resumed = all.len() - todo.len();

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
        let r = verify_cell(spec, &cell);
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

    let ran = fresh.len();
    for r in fresh {
        by_id.insert(r.id.clone(), r);
    }
    let merged = all
        .iter()
        .map(|c| by_id.get(&c.id).ok_or_else(|| format!("cell `{}` produced no result", c.id)))
        .collect::<Result<Vec<&CellResult>, String>>()?;
    let write = |name: &str, lines: &[&CellResult]| {
        let text: String = lines.iter().map(|r| r.to_json_line() + "\n").collect();
        let path = out.join(name);
        fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("merged.jsonl", &merged)?;
    write("wedges.jsonl", &first_per_signature(&merged))?;

    let count = |kind: &str| merged.iter().filter(|r| r.outcome == kind).count();
    Ok(CampaignReport {
        total: all.len(),
        ran,
        resumed,
        wedges: count("wedge"),
        faults: count("fault"),
        corrupt: count("corrupt"),
    })
}

/// The first failing result of each distinct signature, in the order
/// given: the lines of `wedges.jsonl`.
fn first_per_signature<'a>(results: &[&'a CellResult]) -> Vec<&'a CellResult> {
    let mut seen = BTreeSet::new();
    results
        .iter()
        .copied()
        .filter(|r| CellResult::is_failure(&r.outcome) && seen.insert(&r.signature))
        .collect()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    // The farm's tests exercise its files on disk; each gets its own
    // scratch directory, keyed by process id and tag.
    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        #[allow(clippy::disallowed_methods, reason = "campaign test scratch dir")]
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
            (r#"{"workloads":["mp"],"class":"xyz"}"#, "unknown core class"),
            (r#"{"workloads":["torture"],"arms":["wb-ooo"],"cores":0}"#, "`cores` must be in 1..=256"),
            (r#"{"workloads":["torture"],"arms":["wb-ooo"],"cores":300}"#, "`cores` must be in 1..=256"),
            (r#"{"workloads":["mp"],"chaos":["x"]}"#, "unknown chaos"),
            (r#"{"workloads":["mp"],"faults":["drop-1-0"]}"#, "bad drop rate"),
            (r#"{"workloads":["mp"],"softs":["x"]}"#, "unknown soft plan"),
            (r#"{"workloads":["mp"],"softs":["tag-flips-x0"]}"#, "zero acceleration"),
            (r#"{"workloads":["mp"],"frobnicate":1}"#, "unknown spec key"),
            (r#"{"workloads":["mp"],"warmup":2000}"#, "unknown spec key"),
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
            let r = verify_cell(&spec, c);
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

    /// The committed torture recipe: the seeded torture program at 4
    /// cores on all five arms, jitter 25, over a seed range.
    #[test]
    fn torture_spec_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/torture.json");
        let src = fs::read_to_string(path).expect("campaigns/torture.json exists");
        let spec = CampaignSpec::parse(&src).expect("torture spec parses");
        assert_eq!(spec.workloads, [TORTURE]);
        assert_eq!(spec.cores, 4);
        assert_eq!(spec.arms.len(), config::ARMS.len(), "all five arms");
        assert_eq!((spec.jitter, spec.budget), (25, 2_000_000));
        assert!(spec.seeds.len() > 1, "a seed range");
        assert_eq!(cells(&spec).len(), config::ARMS.len() * spec.seeds.len());
    }

    /// The soft-error torture recipe: `torture` on all five arms under
    /// background radiation at 20x and 5x, with the budget the tier-1
    /// soft cells use.
    #[test]
    fn soft_torture_spec_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/soft_torture.json");
        let src = fs::read_to_string(path).expect("campaigns/soft_torture.json exists");
        let spec = CampaignSpec::parse(&src).expect("soft_torture spec parses");
        assert_eq!(spec.workloads, [TORTURE]);
        assert_eq!(spec.arms.len(), config::ARMS.len(), "all five arms");
        assert_eq!(spec.softs, ["background-radiation-x20", "background-radiation-x5"]);
        assert_eq!((spec.jitter, spec.budget), (25, 8_000_000));
        assert_eq!(spec.seeds, (0..400).collect::<Vec<u64>>());
        assert_eq!(cells(&spec).len(), 4000);
    }

    /// Only torture cells keep the event log (and so get the TSO check):
    /// the other workloads do not store unique values.
    #[test]
    fn only_torture_cells_keep_the_event_log() {
        let spec = CampaignSpec::parse(r#"{"workloads":["torture","mp"],"seeds":[1]}"#)
            .expect("parses");
        let logs: Vec<(String, bool)> = cells(&spec)
            .iter()
            .map(|c| (c.workload.clone(), cell_config(&spec, c, 4, c.seed).record_events))
            .collect();
        assert_eq!(logs, [("torture".to_owned(), true), ("mp".to_owned(), false)]);
    }

    /// A `torture` cell's program comes from its seed: two seeds, two
    /// programs, and the verdict's reproducer names `torture-<seed>`.
    #[test]
    fn torture_cells_draw_their_program_from_the_seed() {
        let spec =
            CampaignSpec::parse(r#"{"workloads":["torture"],"seeds":[5,6]}"#).expect("parses");
        let cs = cells(&spec);
        let (a, b) = (cell_workload(&spec, &cs[0]), cell_workload(&spec, &cs[1]));
        assert_eq!((a.cores(), b.cores()), (4, 4));
        assert_ne!(a.programs, b.programs, "seeds 5 and 6 ran the same program");
        for (c, w) in cs.iter().zip([a, b]) {
            assert_eq!(w.programs, torture::workload(4, c.seed, TORTURE_OPS).programs);
            let v = System::new(cell_config(&spec, c, w.cores(), c.seed), &w).verify(1);
            let name = format!("torture-{}", c.seed);
            assert!(v.reproducer.contains(&name), "{name} not in {}", v.reproducer);
        }
    }

    /// `wedges.jsonl` holds one line per distinct signature — the first
    /// failing cell in spec order — and skips passing and out-of-budget
    /// cells.
    #[test]
    fn wedges_keep_the_first_cell_of_each_signature() {
        let result = |id: &str, outcome: &str, sig: &str| CellResult {
            id: id.to_owned(),
            outcome: outcome.to_owned(),
            cycles: 9,
            retired: 4,
            signature: sig.to_owned(),
            reproducer: if sig.is_empty() { String::new() } else { format!("repro {id}") },
        };
        let results = [
            result("a", "done", ""),
            result("b", "wedge", "deadlock|x"),
            result("c", "budget", ""),
            result("d", "fault", "fault|y"),
            result("e", "wedge", "deadlock|x"),
            result("f", "corrupt", "silent-corruption|tag_flips|silent-flip"),
            result("g", "fault", "fault|y"),
        ];
        let refs: Vec<&CellResult> = results.iter().collect();
        let ids: Vec<&str> = first_per_signature(&refs).iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["b", "d", "f"]);
        assert!(first_per_signature(&refs[..1]).is_empty(), "a clean run files nothing");
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
        let wedges = fs::read(reference.join("wedges.jsonl")).expect("wedges exists");
        assert!(wedges.is_empty(), "the tiny campaign is clean, so it files no signature");

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
        assert_eq!(fs::read(crashed.join("wedges.jsonl")).expect("wedges"), wedges);
        // Fully-resumed rerun is a no-op that still rewrites merged.jsonl.
        let rep = run_campaign(&spec, &crashed, 2, None).expect("no-op rerun");
        assert_eq!((rep.ran, rep.resumed), (0, 8));
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&crashed);
    }

    /// A campaign's merged output is a function of its spec alone: a
    /// 2-thread and a 1-thread run write byte-identical `merged.jsonl`.
    #[test]
    fn campaign_output_is_thread_count_independent() {
        let spec = CampaignSpec::parse(
            r#"{"name":"threads","cores":2,"budget":20000000,"jitter":25,
                "workloads":["fft"],"arms":["wb-ooo"],
                "seeds":{"first":1,"count":4}}"#,
        )
        .expect("parses");
        let a = tmp_dir("threads-a");
        let b = tmp_dir("threads-b");
        run_campaign(&spec, &a, 2, None).expect("run a");
        run_campaign(&spec, &b, 1, None).expect("run b");
        let ma = fs::read_to_string(a.join("merged.jsonl")).expect("a merged");
        assert_eq!(ma, fs::read_to_string(b.join("merged.jsonl")).expect("b merged"));
        assert_eq!(ma.lines().count(), 4, "one line per seed");
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }
}
