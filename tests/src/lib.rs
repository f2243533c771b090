//! Integration tests live in `tests/`; this library holds what more
//! than one of them reads: the committed `.jsonl` slices of specs, and
//! the cells they build.

use wb_bench::campaign::{cell_config, cell_workload, cells, CampaignSpec, Cell};
use wb_isa::Workload;
use wb_kernel::config::SystemConfig;

/// `campaigns/regressions.jsonl`: every cell that once wedged, faulted
/// or failed the TSO check; EXPERIMENTS.md "Known failures by arm" has
/// each one's bug and arm.
pub const REGRESSIONS: &str = include_str!("../../campaigns/regressions.jsonl");

/// `campaigns/test_cells.jsonl`: the cells the tests run, one spec per
/// line under its own `name`.
pub const TEST_CELLS: &str = include_str!("../../campaigns/test_cells.jsonl");

/// The specs of a `.jsonl` slice, one per line, for which `pick` holds.
pub fn specs(slice: &str, pick: impl Fn(&CampaignSpec) -> bool) -> Vec<CampaignSpec> {
    let parse = |l: &str| CampaignSpec::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"));
    slice.lines().map(parse).filter(pick).collect()
}

/// The spec of [`TEST_CELLS`] named `name`.
pub fn spec(name: &str) -> CampaignSpec {
    let found = specs(TEST_CELLS, |s| s.name == name);
    let [spec] = <[_; 1]>::try_from(found).unwrap_or_else(|f| panic!("{} lines are named `{name}`", f.len()));
    spec
}

/// Each cell of `spec`, in spec order, with the configuration and
/// program it builds.
pub fn built(spec: &CampaignSpec) -> Vec<(Cell, SystemConfig, Workload)> {
    let build = |cell: Cell| {
        let w = cell_workload(spec, &cell);
        let cfg = cell_config(spec, &cell, w.cores(), cell.seed);
        (cell, cfg, w)
    };
    cells(spec).into_iter().map(build).collect()
}

/// The one cell of the spec named `name`.
pub fn one(name: &str) -> (Cell, SystemConfig, Workload) {
    only(&spec(name))
}

/// The one cell of the spec `line`, for a cell that has settings no
/// spec key states: the test sets those on its configuration.
pub fn cell_of(line: &str) -> (Cell, SystemConfig, Workload) {
    only(&CampaignSpec::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")))
}

fn only(spec: &CampaignSpec) -> (Cell, SystemConfig, Workload) {
    let [cell] = <[_; 1]>::try_from(built(spec)).unwrap_or_else(|_| panic!("`{}` is not one cell", spec.name));
    cell
}

/// The first cell of the spec named `name` under `seed`.
pub fn seeded(name: &str, seed: u64) -> (SystemConfig, Workload) {
    let mut spec = spec(name);
    spec.seeds = vec![seed];
    let (_, cfg, w) = built(&spec).remove(0);
    (cfg, w)
}

/// The watchdog near-miss under the window `stall_window`: lossy links
/// with a fixed 4000-cycle RTO (no backoff, so consecutive losses stay
/// under the widened window), which no spec key sets.
pub fn near_miss(stall_window: u64) -> (SystemConfig, Workload) {
    let (_, mut cfg, w) = cell_of(&format!(
        r#"{{"cores":2,"engine":"dense","jitter":25,"stall_window":{stall_window},"workloads":["torture/15x6"],"faults":["drop-1-12"],"seeds":[11]}}"#
    ));
    (cfg.network.link.rto_min, cfg.network.link.rto_max) = (4000, 4000);
    (cfg, w)
}
