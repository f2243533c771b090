//! Run litmus tests on the simulator across many seeds.
//!
//! Each seed perturbs message timing (network jitter), steering the
//! execution into different interleavings. Every run is judged by
//! [`System::verify`], like any other cell — it must finish (deadlock
//! freedom, Section 3.5), pass the final coherence audit and, with the
//! event log on, the axiomatic TSO check — and then its observed
//! outcome must not be in the test's forbidden set.

use crate::system::System;
use crate::verdict::Verdict;
use std::collections::BTreeMap;
use wb_kernel::config::SystemConfig;
use wb_tso::LitmusTest;

/// Aggregated result of a litmus campaign.
#[derive(Debug, Clone, Default)]
pub struct LitmusReport {
    /// Observed outcome -> number of seeds that produced it.
    pub outcomes: BTreeMap<Vec<u64>, usize>,
    /// Total runs.
    pub runs: usize,
}

impl LitmusReport {
    /// Was `outcome` observed at least once?
    pub fn observed(&self, outcome: &[u64]) -> bool {
        self.outcomes.contains_key(outcome)
    }
}

/// Why a litmus campaign failed.
#[derive(Debug, Clone)]
pub enum LitmusFailure {
    /// A forbidden outcome was observed — the consistency model broke.
    Forbidden { seed: u64, outcome: Vec<u64> },
    /// The run's [`Verdict`] failed: it did not finish, or an oracle
    /// rejected the machine it left behind.
    Failed { seed: u64, verdict: Verdict },
}

impl std::fmt::Display for LitmusFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LitmusFailure::Forbidden { seed, outcome } => {
                write!(f, "seed {seed}: forbidden outcome {outcome:?} observed")
            }
            LitmusFailure::Failed { seed, verdict } => write!(f, "seed {seed}: {verdict}"),
        }
    }
}

impl std::error::Error for LitmusFailure {}

/// Run `test` once per seed on systems configured from `base` (the seed
/// and a litmus-friendly jitter are applied per run).
///
/// # Errors
///
/// The first [`LitmusFailure`] encountered.
pub fn run_litmus(
    test: &LitmusTest,
    base: &SystemConfig,
    seeds: impl IntoIterator<Item = u64>,
    max_cycles: u64,
) -> Result<LitmusReport, LitmusFailure> {
    let mut report = LitmusReport::default();
    for seed in seeds {
        let cfg = base.clone().with_seed(seed).with_jitter(30);
        let mut sys = System::new(cfg, &test.workload);
        let verdict = sys.verify(max_cycles);
        if !verdict.passed() {
            return Err(LitmusFailure::Failed { seed, verdict });
        }
        let outcome: Vec<u64> =
            test.observed.iter().map(|&(c, r)| sys.arch_reg(c, r)).collect();
        if test.is_forbidden(&outcome) {
            return Err(LitmusFailure::Forbidden { seed, outcome });
        }
        *report.outcomes.entry(outcome).or_insert(0) += 1;
        report.runs += 1;
    }
    Ok(report)
}
