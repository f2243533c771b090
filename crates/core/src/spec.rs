//! The one description of a simulation cell: the campaign spec.
//!
//! A *campaign spec* is a JSON object that describes a matrix of cells —
//! workload × protocol arm × chaos plan × fault plan × soft-error plan ×
//! jitter × seed on one machine. It is the only way a cell is described:
//! the campaign farm (`wb_bench::campaign`) runs specs, the reproducer
//! of a wedge report or a failing verdict is a one-cell spec on one line
//! ([`crate::System::reproducer`]), and the configuration fingerprint a snapshot carries
//! is that line without the run's engine and budget. Paste a reproducer
//! into a file and `campaign FILE --out DIR` replays the cell.
//!
//! | key            | value                                            | default     |
//! |----------------|--------------------------------------------------|-------------|
//! | `name`         | campaign name                                    | `campaign`  |
//! | `cores`        | cores of generated suite and torture programs    | 4           |
//! | `class`        | `slm`, `nhm` or `hsw` (Table 6)                  | `slm`       |
//! | `machine`      | `table6`, or `tiny-llc` ([`MemoryConfig::tiny_llc`]) | `table6` |
//! | `engine`       | `dense`, `sparse` or `sparse-verify`             | `sparse`    |
//! | `jitter`       | a number or a list: an axis                      | 0           |
//! | `stall_window` | the watchdog window                              | 200000      |
//! | `option1`      | §3.4's Option 1 (`wb_cacheable_reads`)           | false       |
//! | `budget`       | cycle budget per cell                            | [`RUN_BUDGET`] |
//! | `budgets`      | per-workload budget overrides                    | none        |
//! | `workloads`    | names (required), see [`workload_by_name`], or torture tokens | |
//! | `arms`         | [`config::ARMS`] names                           | `wb-ooo`    |
//! | `chaos`, `faults`, `softs` | plan names (`ChaosPlan::by_name` etc.) | `off`   |
//! | `seeds`        | a list, or `{"first": F, "count": N}`            | 1           |
//!
//! A torture token (`torture`, `torture/200x24`, `torture/30xhot`: see
//! [`torture::token`]) draws each cell's program from the cell's seed.
//! Any other name is seed-independent ([`workload_by_name`]). No key
//! sets the event log: the workload decides it ([`cell_config`]).

use std::collections::BTreeMap;
use std::fmt::Display;

use wb_isa::Workload;
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{self, CoreClass, CoreConfig, EngineMode, MemoryConfig, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::json::{self, Json};
use wb_kernel::soft::SoftPlan;
use wb_tso::litmus;
use wb_workloads::{directed, torture};

use crate::System;

/// Default per-cell cycle budget (and the evaluation runs' budget).
pub const RUN_BUDGET: u64 = 200_000_000;

/// Put after the JSON of a line whose run has settings no spec key
/// states; [`CampaignSpec::parse`] refuses such a line rather than
/// replay a different cell.
const UNSTATED: &str = " # unstated: ";

/// A parsed campaign spec: the full cell matrix plus execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub name: String,
    /// Core count used when *generating* suite and torture workloads;
    /// each cell's machine is sized to its workload's own core count.
    pub cores: usize,
    pub class: CoreClass,
    /// Memory geometry: a [`MemoryConfig::MACHINES`] name.
    pub machine: String,
    pub engine: EngineMode,
    /// Network jitter of each cell: an axis.
    pub jitter: Vec<u64>,
    /// The watchdog window ([`SystemConfig::stall_window`]).
    pub stall_window: u64,
    /// Option 1 of §3.4 ([`SystemConfig::wb_cacheable_reads`]).
    pub option1: bool,
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

fn want_list<T>(v: &Json, key: &str, item: impl Fn(&Json, &str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let arr = v.as_arr().ok_or_else(|| format!("spec key `{key}` must be an array"))?;
    if arr.is_empty() {
        return Err(format!("spec key `{key}` must not be empty"));
    }
    arr.iter().map(|e| item(e, key)).collect()
}

impl CampaignSpec {
    /// Parse and validate a spec. Every workload/arm/plan/machine name
    /// is resolved here, so a typo fails before any cell runs rather
    /// than mid-campaign.
    pub fn parse(src: &str) -> Result<CampaignSpec, String> {
        if let Some((_, rest)) = src.split_once(UNSTATED) {
            return Err(format!("the cell has settings a campaign spec cannot state: {}", rest.trim()));
        }
        let doc = json::parse(src).map_err(|e| format!("campaign spec: {e}"))?;
        let obj = doc.as_obj().ok_or("campaign spec must be a JSON object")?;
        let mut spec = CampaignSpec {
            name: "campaign".to_owned(),
            cores: 4,
            class: CoreClass::Slm,
            machine: "table6".to_owned(),
            engine: EngineMode::Sparse,
            jitter: vec![0],
            stall_window: config::STALL_WINDOW,
            option1: false,
            budget: RUN_BUDGET,
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
                "machine" => spec.machine = want_str(v, k)?,
                "engine" => spec.engine = EngineMode::parse(&want_str(v, k)?)?,
                "jitter" => {
                    spec.jitter = if v.as_arr().is_some() { want_list(v, k, want_u64)? } else { vec![want_u64(v, k)?] };
                }
                "stall_window" => {
                    spec.stall_window = want_u64(v, k)?;
                    if spec.stall_window == 0 {
                        return Err("spec key `stall_window` must be positive".to_owned());
                    }
                }
                "option1" => match v {
                    Json::Bool(b) => spec.option1 = *b,
                    _ => return Err("spec key `option1` must be true or false".to_owned()),
                },
                "budget" => spec.budget = want_u64(v, k)?,
                "budgets" => {
                    let o = v.as_obj().ok_or("spec key `budgets` must be an object")?;
                    for (w, b) in o {
                        spec.budgets.insert(w.clone(), want_u64(b, "budgets")?);
                    }
                }
                "workloads" => spec.workloads = want_list(v, k, want_str)?,
                "arms" => spec.arms = want_list(v, k, want_str)?,
                "chaos" => spec.chaos = want_list(v, k, want_str)?,
                "faults" => spec.faults = want_list(v, k, want_str)?,
                "softs" => spec.softs = want_list(v, k, want_str)?,
                "seeds" => {
                    // Either an explicit list, or {"first": F, "count": N}
                    // for fleets of thousands.
                    if v.as_arr().is_some() {
                        spec.seeds = want_list(v, k, want_u64)?;
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
                        let last = first.checked_add(count - 1).ok_or("seeds.first + seeds.count passes u64::MAX")?;
                        spec.seeds = (first..=last).collect();
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
        MemoryConfig::machine(&spec.machine)?;
        for w in spec.workloads.iter().filter(|w| torture::recipe(w).is_none()) {
            workload_by_name(w, spec.cores)?;
        }
        for a in &spec.arms {
            config::arm(a).ok_or_else(|| format!("unknown arm `{a}`"))?;
        }
        for c in &spec.chaos {
            ChaosPlan::by_name(c)?;
        }
        for f in &spec.faults {
            FaultPlan::by_name(f)?;
        }
        for s in &spec.softs {
            SoftPlan::by_name(s)?;
        }
        for w in spec.budgets.keys() {
            if !spec.workloads.contains(w) {
                return Err(format!("budget override for `{w}` which is not in `workloads`"));
            }
        }
        Ok(spec)
    }

    /// The system of one of this spec's cells, at reset.
    pub fn system(&self, cell: &Cell) -> System {
        let w = cell_workload(self, cell);
        System::new(cell_config(self, cell, w.cores(), cell.seed), &w)
    }

    /// The spec on one line of JSON, which [`CampaignSpec::parse`] reads
    /// back. `run` adds how the cells are run — engine and budgets — to
    /// what they are.
    pub fn to_line(&self, run: bool) -> String {
        fn list<T: Display>(items: &[T], quote: bool) -> String {
            let q = if quote { "\"" } else { "" };
            let items: Vec<String> =
                items.iter().map(|i| format!("{q}{}{q}", json::escape(&i.to_string()))).collect();
            format!("[{}]", items.join(","))
        }
        let mut s = format!(
            "{{\"name\":\"{}\",\"cores\":{},\"class\":\"{}\",\"machine\":\"{}\"",
            json::escape(&self.name),
            self.cores,
            self.class.label().to_lowercase(),
            self.machine,
        );
        if run {
            s += &format!(",\"engine\":\"{}\",\"budget\":{}", self.engine.name(), self.budget);
            if !self.budgets.is_empty() {
                let b: Vec<String> =
                    self.budgets.iter().map(|(w, b)| format!("\"{}\":{b}", json::escape(w))).collect();
                s += &format!(",\"budgets\":{{{}}}", b.join(","));
            }
        }
        s += &format!(
            ",\"jitter\":{},\"stall_window\":{},\"option1\":{},\"workloads\":{},\"arms\":{},\
             \"chaos\":{},\"faults\":{},\"softs\":{},\"seeds\":{}}}",
            list(&self.jitter, false),
            self.stall_window,
            self.option1,
            list(&self.workloads, true),
            list(&self.arms, true),
            list(&self.chaos, true),
            list(&self.faults, true),
            list(&self.softs, true),
            list(&self.seeds, false),
        );
        s
    }
}

/// Builds a workload for a core count.
type Make = fn(usize) -> Workload;

/// The seed-independent workloads a spec can name beside the suite
/// kernels (litmus tests, the directed workloads of Figure 5 and §3.4,
/// the barrier storm): name, whether its cells keep the event log, and
/// builder. A name builds one program at a core count, so a builder
/// with a parameter is registered at one value, named with it.
const NAMED: [(&str, bool, Make); 14] = [
    ("mp", false, |_| litmus::mp().workload),
    ("mp-warm", false, |_| litmus::mp_warm().workload),
    ("sb", false, |_| litmus::sb().workload),
    ("lb", false, |_| litmus::lb().workload),
    ("corr", false, |_| litmus::corr().workload),
    ("iriw", false, |_| litmus::iriw().workload),
    ("mp-transitive", false, |_| litmus::mp_transitive().workload),
    ("two-plus-two-w", false, |_| litmus::two_plus_two_w().workload),
    ("spinlock-4", false, |_| litmus::spinlock(4).workload),
    ("fig5a-racing-11", true, |_| directed::racing(11)),
    ("fig5b-sos-bypass", true, |_| directed::sos_bypass()),
    ("cross-sos", true, |_| directed::cross_sos()),
    ("barrier-storm", false, |cores| wb_workloads::barrier_storm(cores, 4)),
    ("option1-spin", false, |_| directed::option1_spin()),
];

/// Resolve a seed-independent workload name: a [`NAMED`] workload or
/// one of the 12 suite kernels (generated at `cores` cores,
/// `Scale::Test`). The workload is named `name`, so a reproducer names
/// it the way a spec does. A torture token is not one: a torture cell's
/// program comes from its seed.
pub fn workload_by_name(name: &str, cores: usize) -> Result<Workload, String> {
    let mut w = match NAMED.iter().find(|(n, ..)| *n == name) {
        Some((.., make)) => make(cores),
        None => wb_workloads::by_name(name, cores, wb_workloads::Scale::Test)
            .ok_or_else(|| format!("unknown workload `{name}`"))?,
    };
    w.name = name.to_owned();
    Ok(w)
}

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
    pub jitter: u64,
    pub seed: u64,
    pub budget: u64,
}

/// Expand the spec into its cell matrix, in spec order (workload
/// outermost, seed innermost). Ids are stable across runs — they key
/// the resume manifest — and name the jitter only when the spec lists
/// more than one.
pub fn cells(spec: &CampaignSpec) -> Vec<Cell> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        let budget = spec.budgets.get(w).copied().unwrap_or(spec.budget);
        for arm in &spec.arms {
            for chaos in &spec.chaos {
                for fault in &spec.faults {
                    for soft in &spec.softs {
                        for &jitter in &spec.jitter {
                            let j = if spec.jitter.len() > 1 { format!("+j{jitter}") } else { String::new() };
                            for &seed in &spec.seeds {
                                out.push(Cell {
                                    id: format!("{w}+{arm}+{chaos}+{fault}+{soft}{j}+s{seed}"),
                                    workload: w.clone(),
                                    arm: arm.clone(),
                                    chaos: chaos.clone(),
                                    fault: fault.clone(),
                                    soft: soft.clone(),
                                    jitter,
                                    seed,
                                    budget,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Build the system configuration for one cell under `seed` (machine
/// sized to the workload's own core count). Torture cells and the
/// [`NAMED`] entries that say so keep the event log: their store values
/// are unique, which the TSO check needs.
pub fn cell_config(spec: &CampaignSpec, cell: &Cell, cores: usize, seed: u64) -> SystemConfig {
    // Names were validated at parse time; resolution cannot fail here.
    let (protocol, commit) = config::arm(&cell.arm).expect("arm validated at parse");
    let mut cfg = SystemConfig::new(spec.class)
        .with_cores(cores)
        .with_commit(commit)
        .with_protocol(protocol)
        .with_engine(spec.engine)
        .with_seed(seed)
        .with_jitter(cell.jitter);
    cfg.memory = MemoryConfig::machine(&spec.machine).expect("machine validated at parse");
    cfg.stall_window = spec.stall_window;
    cfg.wb_cacheable_reads = spec.option1;
    let logged = NAMED.iter().any(|&(n, log, _)| n == cell.workload && log);
    if torture::recipe(&cell.workload).is_none() && !logged {
        cfg = cfg.without_event_log();
    }
    cfg.chaos = ChaosPlan::by_name(&cell.chaos).expect("chaos validated at parse");
    cfg.fault = FaultPlan::by_name(&cell.fault).expect("fault validated at parse");
    cfg.soft = SoftPlan::by_name(&cell.soft).expect("soft validated at parse");
    cfg
}

/// The program a cell runs: a torture cell's is drawn from its seed,
/// any other's from its workload name alone.
pub fn cell_workload(spec: &CampaignSpec, cell: &Cell) -> Workload {
    match torture::recipe(&cell.workload) {
        Some((ops, lines)) => torture::workload_on(spec.cores, cell.seed, ops, lines),
        None => workload_by_name(&cell.workload, spec.cores).expect("workload validated at parse"),
    }
}

/// The one-line description of a run of the workload named `workload`
/// (`cores` programs) on `cfg`: the one-cell spec that rebuilds both.
/// With a `budget` the line is a reproducer and names the engine and
/// budget too; without, it is the fingerprint a snapshot carries.
/// Settings no spec key can state follow the JSON after `# unstated:`,
/// so the line never names a different cell in silence.
pub(crate) fn describe(cfg: &SystemConfig, workload: &str, cores: usize, budget: Option<u64>) -> String {
    let mut notes = Vec::new();
    let (token, program_seed) = torture::parse_name(workload).unwrap_or((workload, cfg.seed));
    if program_seed != cfg.seed {
        notes.push(format!("program seed {program_seed}"));
    }
    let named = NAMED.iter().any(|(n, ..)| *n == token) || wb_workloads::SUITE.iter().any(|(n, _)| *n == token);
    if !named && torture::recipe(token).is_none() {
        notes.push(format!("workload `{token}`"));
    }
    // The class is its Table 6 window; any other core field that
    // differs from the class's is unstated.
    let window = |c: &CoreConfig| (c.iq_entries, c.rob_entries, c.lq_entries, c.sq_entries);
    let class = CoreClass::ALL
        .into_iter()
        .find(|&c| window(&CoreConfig::for_class(c)) == window(&cfg.core))
        .unwrap_or(CoreClass::Slm);
    let arm = config::ARMS
        .iter()
        .find(|&&(_, p, c)| (p, c) == (cfg.protocol, cfg.core.commit_mode))
        .map_or("mesi-inorder", |a| a.0);
    let plan = |name: Option<String>| vec![name.unwrap_or_else(|| "off".to_owned())];
    let spec = CampaignSpec {
        name: workload.to_owned(),
        cores,
        class,
        machine: cfg.memory.machine_name().unwrap_or("table6").to_owned(),
        engine: cfg.engine,
        jitter: vec![cfg.network.jitter],
        stall_window: cfg.stall_window,
        option1: cfg.wb_cacheable_reads,
        budget: budget.unwrap_or(RUN_BUDGET),
        budgets: BTreeMap::new(),
        workloads: vec![token.to_owned()],
        arms: vec![arm.to_owned()],
        chaos: plan(cfg.chaos.as_ref().map_or(Some("off".to_owned()), ChaosPlan::spec_name)),
        faults: plan(cfg.fault.as_ref().map_or(Some("off".to_owned()), FaultPlan::spec_name)),
        softs: plan(cfg.soft.as_ref().map_or(Some("off".to_owned()), SoftPlan::spec_name)),
        seeds: vec![cfg.seed],
    };
    let stated = cell_config(&spec, &cells(&spec)[0], cores, cfg.seed);
    if stated != *cfg {
        notes.extend(unstated(&stated, cfg));
    }
    let mut line = spec.to_line(budget.is_some());
    if !notes.is_empty() {
        line += UNSTATED;
        line += &notes.join("; ");
    }
    line
}

/// The settings of `ours` that `stated`, the configuration its spec
/// builds, does not have: a plan by its `Display`, any other field as
/// `name: value`.
fn unstated(stated: &SystemConfig, ours: &SystemConfig) -> Vec<String> {
    fn shown<T: Display>(plan: &Option<T>) -> String {
        plan.as_ref().map_or_else(|| "off".to_owned(), ToString::to_string)
    }
    let mut notes = Vec::new();
    for (key, a, b) in [
        ("chaos", shown(&stated.chaos), shown(&ours.chaos)),
        ("fault", shown(&stated.fault), shown(&ours.fault)),
        ("soft", shown(&stated.soft), shown(&ours.soft)),
    ] {
        if a != b {
            notes.push(format!("{key} {b}"));
        }
    }
    let rest = SystemConfig {
        chaos: stated.chaos.clone(),
        fault: stated.fault.clone(),
        soft: stated.soft.clone(),
        ..ours.clone()
    };
    if rest != *stated {
        // Pretty `Debug` puts one field on a line, so the lines that
        // differ name the fields.
        let (a, b) = (format!("{stated:#?}"), format!("{rest:#?}"));
        notes.extend(a.lines().zip(b.lines()).filter(|(x, y)| x != y).map(|(_, y)| y.trim().trim_end_matches(',').to_owned()));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key lands in the cell's configuration: the machine preset,
    /// the class, the plans, the watchdog window and Option 1.
    #[test]
    fn every_key_reaches_the_configuration() {
        let spec = CampaignSpec::parse(
            r#"{"workloads":["torture/20xhot"],"class":"hsw","machine":"tiny-llc","engine":"dense",
                "jitter":7,"stall_window":900,"option1":true,"arms":["wb-ecl"],
                "softs":["background-radiation-x20"],"seeds":[3]}"#,
        )
        .expect("parses");
        let cell = &cells(&spec)[0];
        let cfg = cell_config(&spec, cell, 4, 3);
        assert_eq!(cfg.memory, MemoryConfig::tiny_llc());
        assert_eq!(cfg.core, CoreConfig { commit_mode: config::CommitMode::InOrderEcl, ..CoreConfig::for_class(CoreClass::Hsw) });
        assert_eq!((cfg.network.jitter, cfg.stall_window, cfg.wb_cacheable_reads), (7, 900, true));
        assert_eq!(cfg.soft.expect("soft plan installed").clauses[0].mean_gap, 400, "x20 applied");
        assert!(cfg.record_events, "torture cells keep the event log");
        assert_eq!(cell_workload(&spec, cell).programs, torture::workload_on(4, 3, 20, torture::Lines::Hot).programs);
    }

    /// Every registered workload carries its own name, and a run of it
    /// describes itself as a one-cell spec that rebuilds the same
    /// configuration and programs. The name its builder gives it never
    /// names another registered workload.
    #[test]
    fn every_named_workload_describes_itself() {
        let built = |line: &str| {
            let spec = CampaignSpec::parse(line).expect(line);
            let cell = &cells(&spec)[0];
            let w = cell_workload(&spec, cell);
            (cell_config(&spec, cell, w.cores(), cell.seed), w)
        };
        for (name, log, make) in NAMED {
            let (cfg, w) = built(&format!(r#"{{"workloads":["{name}"]}}"#));
            assert_eq!((w.name.as_str(), cfg.record_events), (name, log));
            let line = describe(&cfg, &w.name, w.cores(), None);
            let (again, w2) = built(&line);
            assert_eq!((again, w2.programs, w2.init_mem), (cfg, w.programs, w.init_mem), "{line}");
            let own = make(4).name;
            assert!(own == name || NAMED.iter().all(|(n, ..)| *n != own), "{name} builds `{own}`");
        }
        assert_ne!(directed::racing(9).name, directed::racing(11).name, "one name per program");
    }

    /// A seed range that would pass `u64::MAX` is refused, not wrapped
    /// round to seed 0.
    #[test]
    fn seed_ranges_do_not_wrap() {
        let range = |count| CampaignSpec::parse(&format!(r#"{{"workloads":["mp"],"seeds":{{"first":{},"count":{count}}}}}"#, u64::MAX - 1));
        assert_eq!(range(2).expect("ends at u64::MAX").seeds, [u64::MAX - 1, u64::MAX]);
        assert_eq!(range(3), Err("seeds.first + seeds.count passes u64::MAX".to_owned()));
    }

    /// A run's description parses back to a spec whose one cell builds
    /// the same configuration and program; what a spec cannot state is
    /// named after the JSON, and such a line does not parse.
    #[test]
    fn descriptions_round_trip_or_name_what_they_cannot_state() {
        let base = SystemConfig::new(CoreClass::Nhm).with_cores(4).with_commit(config::CommitMode::OutOfOrderWb).with_seed(9).with_jitter(3);
        let w = torture::workload_on(4, 9, 30, torture::Lines::Spread(24));
        let line = describe(&base, &w.name, 4, Some(77));
        let spec = CampaignSpec::parse(&line).expect(&line);
        let cell = &cells(&spec)[0];
        assert_eq!((cell_config(&spec, cell, 4, 9), cell.budget), (base.clone(), 77));
        assert_eq!(cell_workload(&spec, cell).programs, w.programs);
        assert_eq!(spec.to_line(true), line, "the line is the printer's");
        assert!(!describe(&base, &w.name, 4, None).contains("engine"), "a fingerprint names no engine");
        let mut odd = base.clone().with_seed(10);
        odd.core.collapsible_lq = false;
        odd.network.link.rto_min = 64;
        odd.chaos = Some(ChaosPlan::lockdown_vnet_stall(0));
        let line = describe(&odd, &w.name, 4, Some(77));
        let (_, notes) = line.split_once(UNSTATED).expect(&line);
        assert_eq!(notes, "program seed 9; chaos lockdown_vnet_stall(*>*/vn0:lockstall300); collapsible_lq: false; rto_min: 64");
        assert!(CampaignSpec::parse(&line).is_err());
        // A seed past 2^53 (the exact range of an f64) reads back as itself.
        let big = (1u64 << 60) + 1;
        let wide = base.with_seed(big);
        let w = torture::workload_on(4, big, 30, torture::Lines::Spread(24));
        let line = describe(&wide, &w.name, 4, Some(77));
        let spec = CampaignSpec::parse(&line).expect(&line);
        let cell = &cells(&spec)[0];
        assert_eq!((cell.seed, cell_config(&spec, cell, 4, big), cell.budget), (big, wide, 77), "{line}");
        assert_eq!(cell_workload(&spec, cell).programs, w.programs);
    }
}
