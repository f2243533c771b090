//! The four workloads: each is a fixed list of simulation cells built
//! from `--seed`. Names are fixed; later issues cite them.

use wb_bench::campaign::{self, CampaignSpec};
use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::SimRng;
use wb_tso::LitmusTest;
use wb_workloads::{barrier_storm, parsec, splash, Scale};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["kernels16", "scale256", "resil4", "verify4"];

/// Why each workload exists (the `why` of `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "kernels16" => "fig-8/9/10 configuration, 16 busy cores on Sparse: core pipeline and private caches do most of the work",
        "scale256" => "256-core anchors on Sparse: under 1% of units awake per cycle, so engine glue, scheduler, directory and mesh dominate",
        "resil4" => "campaign-farm traffic: 240 short 4-core cells under chaos, link faults and soft errors; System::new, ARQ and the auditor do the work",
        "verify4" => "tier-1 correctness path on Dense, event log on: litmus suite plus 200-op torture cells through snapshot, TSO check, audit. fail_share is failed/attempted: a contract metric may never be 0",
        _ => "",
    }
}

/// The campaign spec behind `resil4` (the seed axis is replaced by `--seed`).
pub const RESIL4_SPEC: &str = include_str!("../specs/resil4.json");

/// Cycle budget of kernel cells (the evaluation binaries' budget).
const KERNEL_BUDGET: u64 = 200_000_000;
/// Cycle budget of litmus and torture cells (the tier-1 suites' budget).
const VERIFY_BUDGET: u64 = 2_000_000;
/// Increments per core of `wb_tso::litmus::full_suite`'s spinlock test.
const SPINLOCK_ROUNDS: u64 = 8;
/// Operations per core of a torture program: five times tier-1's, so a
/// cell's Dense run outweighs its two `System::new` and its snapshot.
const TORTURE_OPS: usize = 200;
/// Torture cells per pass.
const TORTURE_CELLS: u64 = 48;
/// Cycles a torture cell runs before it is snapshotted and restored.
pub const TORTURE_SPLIT: u64 = 300;

/// What a cell does besides `System::new` + `run` + `report`.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Run to completion.
    Plain,
    /// A campaign cell with a soft-error plan: ends with a final audit.
    Soft,
    /// One litmus test under one seed through `writersblock::run_litmus`.
    Litmus(LitmusTest),
    /// The spinlock litmus. Its lock word toggles between 0 and 1, and
    /// the axiomatic checker needs unique store values, so it cannot go
    /// through `run_litmus`; like tier-1 it runs on `System` directly
    /// and the final counter must equal `expect`.
    Spinlock { expect: u64 },
    /// The tier-1 torture recipe with a snapshot/restore in the middle,
    /// then report, TSO check and final audit.
    Torture,
}

/// One simulation cell: generated inputs plus the configuration to run
/// them on. The program under test sees nothing else.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    pub workload: Workload,
    pub cfg: SystemConfig,
    pub budget: u64,
    pub kind: Kind,
    /// Part of the traced (layer-rig) run.
    pub traced: bool,
}

impl Cell {
    /// One line that rebuilds this cell by hand.
    pub fn reproducer(&self, workload: &str, seed: u64) -> String {
        format!(
            "benchmark/run.sh --workload {workload} --seed {seed}  # cell {} ({} cores, cfg seed {:#x}, {:?}/{:?}, jitter {}, budget {})",
            self.name,
            self.cfg.num_cores,
            self.cfg.seed,
            self.cfg.protocol,
            self.cfg.core.commit_mode,
            self.cfg.network.jitter,
            self.budget
        )
    }
}

fn kernel_cfg(class: CoreClass, cores: usize, seed: u64) -> SystemConfig {
    SystemConfig::new(class)
        .with_cores(cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .with_seed(seed)
        .without_event_log()
}

fn kernel_cell(tag: &str, class: CoreClass, w: Workload, seed: u64) -> Cell {
    let cfg = kernel_cfg(class, w.cores(), seed);
    Cell {
        name: format!("{tag}/{}/c{}", w.name, w.cores()),
        workload: w,
        cfg,
        budget: KERNEL_BUDGET,
        kind: Kind::Plain,
        traced: true,
    }
}

fn kernels16(seed: u64, smoke: bool) -> Vec<Cell> {
    let (n, s) = (16, if smoke { Scale::Test } else { Scale::Small });
    let mut v = vec![
        kernel_cell("slm", CoreClass::Slm, splash::fft(n, s), seed),
        kernel_cell("slm", CoreClass::Slm, splash::radix(n, s), seed),
        kernel_cell("slm", CoreClass::Slm, parsec::streamcluster(n, s), seed),
        kernel_cell("slm", CoreClass::Slm, parsec::fluidanimate(n, s), seed),
        kernel_cell("hsw", CoreClass::Hsw, splash::fft(n, s), seed),
        kernel_cell("hsw", CoreClass::Hsw, parsec::blackscholes(n, s), seed),
    ];
    if smoke {
        v.truncate(2);
    }
    v
}

fn scale256(seed: u64, smoke: bool) -> Vec<Cell> {
    let s = Scale::Test;
    if smoke {
        return vec![kernel_cell(
            "slm",
            CoreClass::Slm,
            splash::radix(64, s),
            seed,
        )];
    }
    vec![
        kernel_cell("slm", CoreClass::Slm, splash::fft(256, s), seed),
        kernel_cell("slm", CoreClass::Slm, barrier_storm(256, 4), seed),
        kernel_cell("slm", CoreClass::Slm, splash::radix(64, s), seed),
    ]
}

fn resil4(seed: u64, smoke: bool) -> Result<Vec<Cell>, String> {
    let mut spec = CampaignSpec::parse(RESIL4_SPEC)?;
    spec.seeds = vec![seed];
    if smoke {
        spec.workloads.retain(|w| w == "barrier-storm" || w == "mp");
    }
    // Each distinct workload is generated once and shared by its cells
    // (`workload_by_name` builds the whole 12-kernel suite per call).
    let mut generated: Vec<(String, Workload)> = Vec::new();
    for name in &spec.workloads {
        generated.push((name.clone(), campaign::workload_by_name(name, spec.cores)?));
    }
    let mut out = Vec::new();
    for c in campaign::cells(&spec) {
        let w = generated
            .iter()
            .find(|(name, _)| *name == c.workload)
            .map(|(_, w)| w.clone())
            .ok_or_else(|| format!("cell {} names an unknown workload", c.id))?;
        let cfg = campaign::cell_config(&spec, &c, w.cores(), c.seed);
        let soft = c.soft != "off";
        out.push(Cell {
            name: c.id,
            workload: w,
            cfg,
            budget: c.budget,
            kind: if soft { Kind::Soft } else { Kind::Plain },
            // The rig has no soft-error engine: the soft-off half is traced.
            traced: !soft,
        });
    }
    Ok(out)
}

/// A random straight-line program for one core (the recipe of
/// `tests/tests/torture.rs`): store values are globally unique so the
/// checker can recover reads-from.
fn random_program(core: usize, rng: &mut SimRng, ops: usize, lines: &[u64]) -> Program {
    let mut p = Program::builder();
    let (addr_reg, val_reg, dst) = (Reg(1), Reg(2), Reg(3));
    let mut k: u64 = 1;
    for _ in 0..ops {
        let a = *rng.choose(lines).expect("non-empty line set");
        let word = rng.below(8) * 8;
        p.imm(addr_reg, a + word);
        match rng.below(10) {
            0..=4 => {
                p.load(dst, addr_reg, 0);
            }
            5..=8 => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.store(val_reg, addr_reg, 0);
            }
            _ => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.amo_swap(dst, addr_reg, 0, val_reg);
            }
        }
        if rng.chance(1, 4) {
            p.alui(AluOp::Add, Reg(4), Reg(4), 1);
        }
    }
    p.halt();
    p.build()
}

/// Torture cell `i` of seed family `seed`: 4 cores x `TORTURE_OPS` ops.
pub fn torture_cell(seed: u64, i: u64, engine: EngineMode) -> Cell {
    let s = seed * 1000 + i;
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let mut rng = SimRng::new(s);
    let programs = (0..4)
        .map(|c| random_program(c, &mut rng, TORTURE_OPS, &lines))
        .collect();
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(engine)
        .with_seed(s)
        .with_jitter(25);
    Cell {
        name: format!("torture-{s}"),
        workload: Workload::new(format!("torture-{s}"), programs),
        cfg,
        budget: VERIFY_BUDGET,
        kind: Kind::Torture,
        traced: true,
    }
}

fn verify4(seed: u64, smoke: bool) -> Vec<Cell> {
    let (litmus_seeds, torture) = if smoke { (1, 6) } else { (6, TORTURE_CELLS) };
    let base = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Dense);
    let mut out = Vec::new();
    for t in wb_tso::litmus::full_suite() {
        for i in 0..litmus_seeds {
            let s = seed * 1000 + i;
            // `run_litmus` applies the seed and a jitter of 30 itself;
            // the spinlock cell gets the same machine.
            let cfg = base
                .clone()
                .with_cores(t.workload.cores())
                .with_seed(s)
                .with_jitter(30);
            let kind = if t.name == "spinlock" {
                Kind::Spinlock {
                    expect: 2 * SPINLOCK_ROUNDS,
                }
            } else {
                Kind::Litmus(t.clone())
            };
            out.push(Cell {
                name: format!("litmus-{}-{s}", t.name),
                workload: t.workload.clone(),
                cfg,
                budget: VERIFY_BUDGET,
                kind,
                traced: false,
            });
        }
    }
    out.extend((0..torture).map(|i| torture_cell(seed, i, EngineMode::Dense)));
    out
}

/// Generate the cell list of `workload` from `seed`. `smoke` cuts the
/// list down for quick checks.
pub fn generate(workload: &str, seed: u64, smoke: bool) -> Result<Vec<Cell>, String> {
    match workload {
        "kernels16" => Ok(kernels16(seed, smoke)),
        "scale256" => Ok(scale256(seed, smoke)),
        "resil4" => resil4(seed, smoke),
        "verify4" => Ok(verify4(seed, smoke)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_have_their_stated_sizes_and_unique_names() {
        for (w, n) in [
            ("kernels16", 6),
            ("scale256", 3),
            ("resil4", 240),
            ("verify4", 126),
        ] {
            let list = generate(w, 1, false).expect("generates");
            assert_eq!(list.len(), n, "{w}");
            let names: std::collections::BTreeSet<&str> =
                list.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names.len(), n, "{w}: cell names are unique");
            let smoke = generate(w, 1, true).expect("generates");
            assert!(
                !smoke.is_empty() && smoke.len() < n,
                "{w}: smoke list is a cut-down one"
            );
        }
        assert!(generate("nope", 1, false).is_err());
        // The known livelock is in the default seed's family, not picked around.
        let default_family = generate("verify4", 0, false).expect("generates");
        assert!(default_family.iter().any(|c| c.name == "torture-40"));
    }

    #[test]
    fn only_dense_and_sparse_are_used() {
        for w in WORKLOADS {
            for c in generate(w, 3, false).expect("generates") {
                assert!(
                    matches!(c.cfg.engine, EngineMode::Dense | EngineMode::Sparse),
                    "{}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn the_seed_makes_the_inputs() {
        let programs = |seed| -> Vec<Program> {
            generate("verify4", seed, true)
                .expect("generates")
                .into_iter()
                .filter(|c| matches!(c.kind, Kind::Torture))
                .flat_map(|c| c.workload.programs)
                .collect()
        };
        assert_eq!(format!("{:?}", programs(5)), format!("{:?}", programs(5)));
        assert_ne!(format!("{:?}", programs(5)), format!("{:?}", programs(6)));
        for w in WORKLOADS {
            for c in generate(w, 9, true).expect("generates") {
                let base = if w == "verify4" { 9000 } else { 9 };
                assert!(
                    (base..base + 1000).contains(&c.cfg.seed),
                    "{}: seed {}",
                    c.name,
                    c.cfg.seed
                );
            }
        }
    }

    #[test]
    fn traced_cells_are_ones_the_rig_can_run() {
        for c in generate("resil4", 1, false).expect("generates") {
            assert_eq!(c.traced, c.cfg.soft.is_none(), "{}", c.name);
        }
        for c in generate("verify4", 1, false).expect("generates") {
            assert_eq!(c.traced, matches!(c.kind, Kind::Torture), "{}", c.name);
        }
    }
}
