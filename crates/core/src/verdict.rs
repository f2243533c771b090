//! The verdict on one cell: did the run end cleanly, and does every
//! oracle accept the machine it left behind?
//!
//! [`System::verify`] is the one place where "this cell passed" is
//! decided. Tests, labs and the campaign farm all call it (or
//! [`System::judge`], when they drive the run themselves), so a passing
//! cell means the same thing everywhere and every kind of failure has a
//! dedup key ([`Verdict::signature`]).

use crate::system::{RunOutcome, System};
use std::fmt;
use wb_kernel::audit::AuditViolation;
use wb_kernel::wedge::WedgeReport;
use wb_tso::CheckError;

/// Why a cell failed: the run's own ending, or the first oracle (in
/// [`System::judge`]'s order) that rejected a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The cycle budget ran out.
    Budget,
    /// The watchdog tripped (deadlock, livelock or starvation).
    Wedge(Box<WedgeReport>),
    /// A protocol component recorded a typed fault.
    Fault(Box<WedgeReport>),
    /// The final coherence audit found violations.
    Audit(Vec<AuditViolation>),
    /// The audit is clean, but this many injected soft flips were never
    /// detected or masked.
    SilentFlips(u64),
    /// The execution log fails the axiomatic TSO check.
    Tso(CheckError),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Budget => write!(f, "cycle budget exhausted"),
            Failure::Wedge(r) | Failure::Fault(r) => write!(f, "{r}"),
            Failure::Audit(violations) => {
                write!(f, "final audit: {} violation(s)", violations.len())?;
                violations.iter().try_for_each(|v| write!(f, "\n  {v}"))
            }
            Failure::SilentFlips(n) => write!(f, "{n} soft flip(s) were never detected"),
            Failure::Tso(e) => write!(f, "TSO check failed: {e}"),
        }
    }
}

/// What [`System::judge`] found. Plain data, so a caller that stores
/// verdicts (the campaign farm) can also build one by hand in a test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Cycle and retired-instruction counts as of the end of the run —
    /// read before the oracles, because under a soft plan the final
    /// audit ticks the machine to drain its own repair traffic.
    pub cycles: u64,
    pub retired: u64,
    /// One-line replay recipe: workload, seed, arm, engine and plans.
    pub reproducer: String,
    /// Name of the installed soft-error plan, `"off"` without one.
    pub soft_plan: &'static str,
    /// Injected flips still undetected after the final audit scrub.
    pub silent: u64,
    /// `None` when the cell passed.
    pub failure: Option<Failure>,
}

impl Verdict {
    /// Did the run complete and every oracle accept it?
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Why the cell failed, if it did.
    pub fn failure(&self) -> Option<&Failure> {
        self.failure.as_ref()
    }

    /// A stable dedup key: two failing cells with the same signature are
    /// the same underlying failure. Wedges and faults keep
    /// [`WedgeReport::signature`]; a dirty audit or undetected flips give
    /// `silent-corruption|<plan>|<kinds>`, keyed by plan and violation
    /// class, not by seed; a TSO failure gives
    /// `tso|<CheckError variant>|<line>`. `None` when the cell passed.
    pub fn signature(&self) -> Option<String> {
        Some(match self.failure.as_ref()? {
            Failure::Budget => "budget".to_owned(),
            Failure::Wedge(r) | Failure::Fault(r) => r.signature(),
            Failure::Audit(violations) => {
                let mut kinds: Vec<&str> = violations.iter().map(|v| v.kind.label()).collect();
                if self.silent > 0 {
                    kinds.push("silent-flip");
                }
                kinds.sort_unstable();
                kinds.dedup();
                format!("silent-corruption|{}|{}", self.soft_plan, kinds.join(","))
            }
            Failure::SilentFlips(_) => format!("silent-corruption|{}|silent-flip", self.soft_plan),
            Failure::Tso(e) => {
                let (variant, line) = variant_and_line(e);
                let line = line.map_or_else(|| "-".to_owned(), |l| format!("{l:#x}"));
                format!("tso|{variant}|{line}")
            }
        })
    }

    /// Panic with the failure and its reproducer unless the cell passed
    /// — the assertion form the tier-1 suites and the labs use.
    ///
    /// # Panics
    ///
    /// When the cell failed.
    pub fn assert_pass(&self, context: &str) {
        assert!(self.passed(), "{context}: {self}");
    }
}

/// The name of a [`CheckError`]'s variant and the cache line it blames.
pub(crate) fn variant_and_line(e: &CheckError) -> (&'static str, Option<u64>) {
    let (variant, addr) = match e {
        CheckError::ValueNotFound { addr, .. } => ("ValueNotFound", Some(addr)),
        CheckError::AmbiguousValue { addr, .. } => ("AmbiguousValue", Some(addr)),
        CheckError::CoherenceTie { addr } => ("CoherenceTie", Some(addr)),
        CheckError::UniprocViolation { addr } => ("UniprocViolation", Some(addr)),
        CheckError::AtomicityViolation { addr, .. } => ("AtomicityViolation", Some(addr)),
        // A ppo cycle has no single offending address.
        CheckError::TsoViolation => ("TsoViolation", None),
    };
    (variant, addr.map(|a| a.line().0))
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            None => write!(f, "pass at cycle {} ({} retired)", self.cycles, self.retired),
            Some(failure) => write!(f, "{failure}\n  reproducer: {}", self.reproducer),
        }
    }
}

impl System {
    /// [`System::run`] for `budget` cycles, then [`System::judge`].
    pub fn verify(&mut self, budget: u64) -> Verdict {
        let outcome = self.run(budget);
        self.judge(outcome)
    }

    /// Pass judgement on a run that ended with `outcome` — public for
    /// callers that drive the run themselves (a run split around a
    /// snapshot, or resumed from one).
    ///
    /// Anything but `Done` fails as it stands. A completed run goes
    /// through every oracle in one order: the final coherence audit
    /// (which first scrubs and drains wounds still latent under a soft
    /// plan), then the silent-flip account, then — when the event log
    /// is on — the axiomatic TSO check. The audit goes first because
    /// only after its scrub is "never detected" final, and because a
    /// machine whose books are corrupt explains a TSO failure better
    /// than the TSO failure explains it.
    pub fn judge(&mut self, outcome: RunOutcome) -> Verdict {
        let (cycles, retired) = (self.now, self.total_retired());
        let mut silent = 0;
        let failure = match outcome {
            RunOutcome::Budget => Some(Failure::Budget),
            RunOutcome::Wedge(r) => Some(Failure::Wedge(r)),
            RunOutcome::Fault(r) => Some(Failure::Fault(r)),
            RunOutcome::Done => {
                let audit = self.run_audit(true);
                silent = self.soft_silent();
                if !audit.clean() {
                    Some(Failure::Audit(audit.violations))
                } else if silent > 0 {
                    Some(Failure::SilentFlips(silent))
                } else if self.cfg.record_events {
                    self.check_tso().err().map(Failure::Tso)
                } else {
                    None
                }
            }
        };
        Verdict {
            cycles,
            retired,
            reproducer: self.reproducer(),
            soft_plan: self.cfg.soft.as_ref().map_or("off", |p| p.name),
            silent,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::audit::AuditKind;
    use wb_kernel::wedge::WedgeClass;
    use wb_mem::Addr;

    fn verdict(failure: Option<Failure>) -> Verdict {
        Verdict {
            cycles: 10,
            retired: 3,
            reproducer: "workload=t seed=0x1".to_owned(),
            soft_plan: "tag_flips",
            silent: 0,
            failure,
        }
    }

    fn wedge(class: WedgeClass) -> Box<WedgeReport> {
        Box::new(WedgeReport {
            class,
            at_cycle: 10,
            reproducer: String::new(),
            stalled_cores: vec![(1, 2500)],
            retries_in_window: 0,
            edges: Vec::new(),
            participants: Vec::new(),
            error: None,
            notes: Vec::new(),
        })
    }

    /// Every failure kind has a signature, each its own, and the strings
    /// are stable: wedges and faults keep `WedgeReport::signature`,
    /// corruption keeps the key the farm's `wedges.jsonl` has always
    /// carried (plan, then the sorted violation classes), a TSO failure
    /// is keyed by variant and line — not by core, seq or value.
    #[test]
    fn every_failure_kind_has_its_own_stable_signature() {
        assert!(verdict(None).passed());
        assert_eq!(verdict(None).signature(), None);
        let violation = |kind, detail: &str| AuditViolation { kind, detail: detail.to_owned() };
        let dirty = vec![
            violation(AuditKind::MshrLeak, "cache 1"),
            violation(AuditKind::DirCacheDisagree, "line 0x51"),
            violation(AuditKind::MshrLeak, "cache 2"),
        ];
        let lost = CheckError::ValueNotFound { core: 1, seq: 7, addr: Addr::new(0x1448), value: 9 };
        let (livelock, fault) = (wedge(WedgeClass::Livelock), wedge(WedgeClass::ProtocolFault));
        let cases = [
            (Failure::Budget, "budget".to_owned()),
            (Failure::Wedge(livelock.clone()), livelock.signature()),
            (Failure::Fault(fault.clone()), fault.signature()),
            (
                Failure::Audit(dirty.clone()),
                "silent-corruption|tag_flips|dir-cache-disagree,mshr-leak".to_owned(),
            ),
            (Failure::SilentFlips(2), "silent-corruption|tag_flips|silent-flip".to_owned()),
            (Failure::Tso(CheckError::TsoViolation), "tso|TsoViolation|-".to_owned()),
            (Failure::Tso(lost), "tso|ValueNotFound|0x51".to_owned()),
        ];
        for (i, (failure, sig)) in cases.iter().enumerate() {
            let v = verdict(Some(failure.clone()));
            assert!(!v.passed());
            assert_eq!(v.failure(), Some(failure));
            assert_eq!(v.signature().as_ref(), Some(sig));
            assert!(cases[..i].iter().all(|(_, other)| other != sig), "{sig} is not unique");
            assert!(v.to_string().ends_with("reproducer: workload=t seed=0x1"), "{v}");
        }
        // Flips outstanding beside a dirty audit stay in the key.
        let both = Verdict { silent: 1, ..verdict(Some(Failure::Audit(dirty))) };
        assert_eq!(
            both.signature().as_deref(),
            Some("silent-corruption|tag_flips|dir-cache-disagree,mshr-leak,silent-flip")
        );
    }
}
