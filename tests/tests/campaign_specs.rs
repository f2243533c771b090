//! A cell has one description, its campaign spec. Every cell of the
//! committed specs describes itself — its reproducer — as a one-cell
//! spec that rebuilds the same configuration and program, and a wedge's
//! reproducer, run by the campaign farm, fails the same way.

use wb_bench::campaign::{self, cell_config, cell_workload, cells, CampaignSpec, CellResult};
use writersblock::System;

/// Every committed spec: `campaigns/*.json`, each line of
/// `campaigns/regressions.jsonl`, and the benchmark's `resil4`.
fn committed() -> Vec<(String, CampaignSpec)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(format!("{root}/campaigns")).expect("campaigns/") {
        let path = entry.expect("a directory entry").path();
        let src = std::fs::read_to_string(&path).expect("readable");
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => sources.push((path.display().to_string(), src)),
            Some("jsonl") => sources.extend(src.lines().map(|l| (path.display().to_string(), l.to_owned()))),
            _ => {}
        }
    }
    let resil4 = format!("{root}/benchmark/specs/resil4.json");
    sources.push((resil4.clone(), std::fs::read_to_string(&resil4).expect("resil4 spec")));
    sources.into_iter().map(|(path, src)| {
        let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        (path, spec)
    }).collect()
}

/// Every committed cell's reproducer parses back to a one-cell spec that
/// builds the same configuration (`==`) and the same program.
#[test]
fn every_committed_cell_reproduces_itself() {
    let jobs: Vec<(String, CampaignSpec, campaign::Cell)> = committed()
        .into_iter()
        .flat_map(|(path, spec)| cells(&spec).into_iter().map(move |c| (path.clone(), spec.clone(), c)))
        .collect();
    assert!(jobs.len() > 9_000, "{} cells", jobs.len());
    wb_bench::sweep::run(jobs, |(path, spec, cell)| {
        let w = cell_workload(&spec, &cell);
        let cfg = cell_config(&spec, &cell, w.cores(), cell.seed);
        let line = System::new(cfg.clone(), &w).reproducer();
        let one = CampaignSpec::parse(&line).unwrap_or_else(|e| panic!("{path} {}: {e}", cell.id));
        let [again] = &cells(&one)[..] else { panic!("{line} is not one cell") };
        let w2 = cell_workload(&one, again);
        assert_eq!(cell_config(&one, again, w2.cores(), again.seed), cfg, "{path} {}: {line}", cell.id);
        assert_eq!((&w2.programs, &w2.init_mem), (&w.programs, &w.init_mem), "{path} {}: {line}", cell.id);
    });
}

/// The Option-1 livelock of `campaigns/option1_spin.json` (chaos_lab's
/// wedge): its reproducer, parsed and run by the farm, files the same
/// signature in `wedges.jsonl`.
#[test]
fn a_wedge_replays_through_the_farm() {
    let src = include_str!("../../campaigns/option1_spin.json");
    let spec = CampaignSpec::parse(src).expect("option1_spin spec");
    let cell = &cells(&spec)[0];
    let verdict = spec.system(cell).verify(cell.budget);
    let signature = verdict.signature().expect("Option 1 under spin-readers wedges");
    let replay = CampaignSpec::parse(&verdict.reproducer).expect("the reproducer is a spec");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("a_wedge_replays");
    let _ = std::fs::remove_dir_all(&out);
    let report = campaign::run_campaign(&replay, &out, 1, None).expect("the farm runs it");
    assert_eq!((report.total, report.wedges), (1, 1));
    let wedges = std::fs::read_to_string(out.join("wedges.jsonl")).expect("wedges.jsonl");
    let filed = CellResult::parse_line(wedges.trim_end()).expect("one result line");
    assert_eq!(filed.signature, signature);
    assert_eq!(filed.reproducer, verdict.reproducer, "the replay describes itself the same way");
    let _ = std::fs::remove_dir_all(&out);
}
