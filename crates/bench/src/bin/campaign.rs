//! Crash-resumable campaign farm driver.
//!
//! ```text
//! campaign <spec.json> --out DIR [--threads N]     run/resume a campaign
//! ```
//!
//! A campaign run streams per-cell results to `<out>/results.jsonl`
//! and appends each completed cell id to `<out>/manifest`; re-running
//! the same spec into the same directory executes only the missing
//! cells and rewrites `<out>/merged.jsonl` (spec order, byte-identical
//! to an uninterrupted run) and `<out>/wedges.jsonl` (one line per
//! distinct failure signature, the first failing cell in spec order,
//! with its reproducer). To mine for failures, run a spec that does:
//! `campaigns/torture.json` (seeded random programs on all five arms)
//! or any spec listing chaos, fault or soft-error plans.
//!
//! | variable                 | effect                                  |
//! |--------------------------|-----------------------------------------|
//! | `WB_CAMPAIGN_KILL_AFTER` | abort the process after N completed     |
//! |                          | cells (crash-resume smoke-test hook)    |
//!
//! Exit status: 0 on a completed campaign, 2 on a spec or I/O error.

use std::path::PathBuf;
use std::process::exit;
use wb_bench::campaign::{self, CampaignSpec};

fn usage() -> ! {
    eprintln!("usage: campaign <spec.json> --out DIR [--threads N]");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut threads =
        std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4);
    let mut args = argv.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--threads" => {
                threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a numeric argument");
                    exit(2);
                });
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    let (Some(spec_path), Some(out)) = (spec_path, out) else { usage() };
    let kill_after = std::env::var("WB_CAMPAIGN_KILL_AFTER")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());

    let src = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("reading {}: {e}", spec_path.display());
        exit(2);
    });
    let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| {
        eprintln!("{}: {e}", spec_path.display());
        exit(2);
    });
    match campaign::run_campaign(&spec, &out, threads, kill_after) {
        Ok(rep) => println!(
            "campaign `{}`: {} cells ({} ran, {} resumed), {} wedges, {} faults, {} corrupt -> {}",
            spec.name,
            rep.total,
            rep.ran,
            rep.resumed,
            rep.wedges,
            rep.faults,
            rep.corrupt,
            out.join("merged.jsonl").display()
        ),
        Err(e) => {
            eprintln!("campaign: {e}");
            exit(2);
        }
    }
}
