//! Integration tests live in `tests/`; this library holds what more
//! than one of them reads.

use wb_bench::campaign::CampaignSpec;

/// The one-cell specs of `campaigns/regressions.jsonl` — every cell that
/// once wedged, faulted or failed the TSO check; EXPERIMENTS.md "Known
/// failures by arm" has each one's bug and arm — for which `pick` holds.
pub fn regressions(pick: impl Fn(&CampaignSpec) -> bool) -> Vec<CampaignSpec> {
    include_str!("../../campaigns/regressions.jsonl")
        .lines()
        .map(|l| CampaignSpec::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .filter(|s| pick(s))
        .collect()
}
