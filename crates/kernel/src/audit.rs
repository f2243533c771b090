//! Typed reports from the online coherence invariant auditor.
//!
//! `System::run_audit` (crate `writersblock`) walks the live machine —
//! every private cache, every directory bank, the mesh and its reliable
//! sublayer — and checks the global invariants the protocol is supposed
//! to maintain: SWMR (at most one writer per line), directory–cache
//! agreement, MSHR/eviction-buffer leak bounds, and ARQ window sanity.
//! This module holds the *vocabulary*: a violation is typed so wedge
//! diagnosis and the campaign farm can use the auditor as a corruption
//! oracle and dedup failures by kind, not by prose.

use std::fmt;

/// What invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditKind {
    /// More than one cache holds a line in an exclusive (writable) state.
    MultipleWriters,
    /// A quiet line's directory entry disagrees with the caches: a
    /// resident copy outside the sharer set, a dirty copy the home does
    /// not know about, or copies of a line the home thinks is uncached.
    DirCacheDisagree,
    /// An MSHR survived past the point it must have drained (end of
    /// run), or a file reports more entries than its capacity.
    MshrLeak,
    /// A cache or directory eviction buffer leaked an entry past its
    /// bound or past the end of the run.
    EvictBufLeak,
    /// The reliable-delivery sublayer's window/RTO bookkeeping is out of
    /// range (sequence gap beyond the window, timer in the past forever).
    ArqWindow,
    /// A guard mismatch the soft-error layer never detected in-band —
    /// found only by the audit scrub. Counted as repaired, but reported
    /// on the final audit when it should have been caught earlier.
    UnrepairedWound,
}

impl AuditKind {
    /// Stable label used in report text and campaign signatures.
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::MultipleWriters => "multiple-writers",
            AuditKind::DirCacheDisagree => "dir-cache-disagree",
            AuditKind::MshrLeak => "mshr-leak",
            AuditKind::EvictBufLeak => "evict-buf-leak",
            AuditKind::ArqWindow => "arq-window",
            AuditKind::UnrepairedWound => "unrepaired-wound",
        }
    }
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One invariant violation, with enough detail to chase it by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    pub kind: AuditKind,
    /// Free-form location/evidence ("line 0x40: dirty at n3, home says
    /// Shared{n1}"). Positions are normalised out by wedge signatures.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// The outcome of one auditor pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Cycle the audit ran at.
    pub at_cycle: u64,
    /// True for the end-of-run pass, which additionally requires every
    /// transient structure (MSHRs, eviction buffers, queues) to be empty.
    pub final_run: bool,
    /// Individual invariant checks evaluated (lines × invariants).
    pub checks: u64,
    /// Soft-error wounds found and repaired by the scrub phase. Repairs
    /// are not violations — they are the recovery path doing its job.
    pub scrub_repairs: u64,
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when no invariant was violated (scrub repairs allowed).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the full report unless clean — the assertion form the
    /// tier-1 suites use.
    ///
    /// # Panics
    ///
    /// When any violation was recorded.
    pub fn assert_clean(&self, context: &str) {
        assert!(self.clean(), "audit failed ({context}):\n{self}");
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit @{}: {} checks, {} scrub repairs, {} violations{}",
            self.at_cycle,
            self.checks,
            self.scrub_repairs,
            self.violations.len(),
            if self.final_run { " (final)" } else { "" },
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_formats_one_line() {
        let r = AuditReport {
            at_cycle: 1000,
            final_run: true,
            checks: 42,
            scrub_repairs: 2,
            violations: Vec::new(),
        };
        assert!(r.clean());
        r.assert_clean("test");
        assert_eq!(r.to_string(), "audit @1000: 42 checks, 2 scrub repairs, 0 violations (final)");
    }

    #[test]
    fn violations_render_with_kind() {
        let r = AuditReport {
            at_cycle: 7,
            final_run: false,
            checks: 1,
            scrub_repairs: 0,
            violations: vec![AuditViolation {
                kind: AuditKind::MultipleWriters,
                detail: "line 0x40 exclusive at n1 and n2".into(),
            }],
        };
        assert!(!r.clean());
        assert!(r.to_string().contains("[multiple-writers] line 0x40"));
    }

    #[test]
    #[should_panic(expected = "audit failed")]
    fn assert_clean_panics_with_context() {
        let r = AuditReport {
            at_cycle: 0,
            final_run: false,
            checks: 0,
            scrub_repairs: 0,
            violations: vec![AuditViolation { kind: AuditKind::ArqWindow, detail: "x".into() }],
        };
        r.assert_clean("ctx");
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(AuditKind::DirCacheDisagree.label(), "dir-cache-disagree");
        assert_eq!(AuditKind::MshrLeak.to_string(), "mshr-leak");
        assert_eq!(AuditKind::UnrepairedWound.label(), "unrepaired-wound");
    }
}
