//! The online coherence invariant auditor.

use crate::system::System;
use wb_kernel::audit::{AuditKind, AuditReport, AuditViolation};
use wb_kernel::NodeId;

/// Cycles the final audit's drain may take before the recovery traffic
/// counts as stuck.
const DRAIN_BUDGET: u64 = 100_000;

impl System {
    /// One pass of the online coherence invariant auditor.
    ///
    /// Phase 1 (soft plan active only) scrubs: every cache detects and
    /// repairs its outstanding wounds synchronously, and every wounded
    /// directory entry starts the same purge a detection on access does
    /// (`wb_protocol::ProtoMsg::Purge`). Phase 2 checks the global
    /// invariants — SWMR, directory–cache agreement on quiet lines, MSHR
    /// / eviction-buffer occupancy bounds, ARQ window sanity. `final_run`
    /// additionally requires every transient structure to have drained.
    ///
    /// Scrub repairs are the recovery path doing its job, not
    /// violations; a non-clean report means the machine reached a state
    /// the protocol must never produce.
    pub fn run_audit(&mut self, final_run: bool) -> AuditReport {
        let now = self.now;
        let mut checks: u64 = 0;
        let mut scrub_repairs: u64 = 0;
        let mut violations: Vec<AuditViolation> = Vec::new();
        if self.soft.is_some() {
            for c in &mut self.caches {
                scrub_repairs += c.audit_scrub(now);
            }
            for d in &mut self.dirs {
                scrub_repairs += d.scrub_wounds(now);
            }
            if final_run {
                // A cache repairs its lines in place, but a directory
                // purge waits for every core's answer, so a final scrub
                // leaves real protocol traffic in flight. Drain it on the
                // run loop — with further strikes and periodic audits
                // suspended — before passing the verdict below.
                let eng = self.soft.take();
                let next_audit = self.next_audit_at.take();
                if self.cfg.engine.is_sparse() {
                    // The scrub changed state behind the wheel: every
                    // unit, drains included, is re-evaluated at the
                    // first drained cycle, so the park log is spent.
                    self.sched.wake_all(self.now);
                    self.mesh.clear_parked_nodes();
                }
                // The reproducer names the cell's budget, not the drain's.
                let deadline = self.deadline;
                let outcome = self.run(DRAIN_BUDGET);
                self.deadline = deadline;
                self.soft = eng;
                self.next_audit_at = next_audit;
                if !outcome.is_done() {
                    violations.push(AuditViolation {
                        kind: AuditKind::UnrepairedWound,
                        detail: format!(
                            "recovery traffic failed to drain after the final scrub: {outcome}"
                        ),
                    });
                }
            }
        }
        // Lines with any in-flight activity are exempt from agreement
        // checks: their books are allowed to disagree mid-transaction.
        let mut busy: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        {
            let mut mark = |l: wb_mem::LineAddr| {
                busy.insert(l.0);
            };
            for c in &self.caches {
                c.audit_busy_lines(&mut mark);
            }
            for d in &self.dirs {
                d.audit_busy_lines(&mut mark);
            }
            self.mesh.for_each_payload(|(_, msg)| mark(msg.line()));
        }
        // SWMR: at most one cache may hold a line writable, busy or not
        // — the protocol never grants two exclusive copies.
        let mut residents: std::collections::BTreeMap<u64, Vec<(u16, bool)>> =
            std::collections::BTreeMap::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (line, excl) in c.resident_lines() {
                residents.entry(line.0).or_default().push((i as u16, excl));
            }
        }
        for (line, holders) in &residents {
            checks += 1;
            let excl: Vec<u16> =
                holders.iter().filter(|(_, e)| *e).map(|(n, _)| *n).collect();
            if excl.len() > 1 {
                violations.push(AuditViolation {
                    kind: AuditKind::MultipleWriters,
                    detail: format!("line {line:#x}: exclusive at cores {excl:?}"),
                });
            }
        }
        // Directory–cache agreement on quiet lines.
        for d in &self.dirs {
            for (line, code, owner, sharers) in d.audit_entries() {
                if busy.contains(&line.0) {
                    continue;
                }
                checks += 1;
                let holders = residents.get(&line.0).map_or(&[][..], |v| &v[..]);
                match code {
                    0 => {
                        if !holders.is_empty() {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!(
                                    "line {line}: home says Uncached, copies at {holders:?}"
                                ),
                            });
                        }
                    }
                    1 => {
                        for &(node, excl) in holders {
                            if excl {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: home says Shared, dirty copy at n{node}"
                                    ),
                                });
                            } else if !sharers.contains(NodeId(node)) {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: copy at n{node} outside the sharer set"
                                    ),
                                });
                            }
                        }
                    }
                    _ => {
                        let Some(o) = owner else {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!("line {line}: Owned entry without an owner"),
                            });
                            continue;
                        };
                        for &(node, _) in holders {
                            if node != o.0 {
                                violations.push(AuditViolation {
                                    kind: AuditKind::DirCacheDisagree,
                                    detail: format!(
                                        "line {line}: home says owned by {o}, copy at n{node}"
                                    ),
                                });
                            }
                        }
                        if self.caches[o.index()].resident_excl(line) != Some(true) {
                            violations.push(AuditViolation {
                                kind: AuditKind::DirCacheDisagree,
                                detail: format!(
                                    "line {line}: home says owned by {o}, which holds no \
                                     writable copy"
                                ),
                            });
                        }
                    }
                }
            }
        }
        // Occupancy / leak bounds.
        for (i, c) in self.caches.iter().enumerate() {
            checks += 1;
            let (used, cap) = c.mshr_usage();
            if used > cap {
                violations.push(AuditViolation {
                    kind: AuditKind::MshrLeak,
                    detail: format!("cache {i}: {used} MSHRs in use, capacity {cap}"),
                });
            }
            if final_run && used > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::MshrLeak,
                    detail: format!("cache {i}: {used} MSHRs still allocated at end of run"),
                });
            }
            if final_run && c.evict_buf_len() > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!(
                        "cache {i}: {} eviction-buffer entries at end of run",
                        c.evict_buf_len()
                    ),
                });
            }
        }
        for d in &self.dirs {
            checks += 1;
            let (used, cap) = d.evict_buf_usage();
            if used > cap {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!("dir bank {}: {used} parked evictions, capacity {cap}", d.bank()),
                });
            }
            if final_run && used > 0 {
                violations.push(AuditViolation {
                    kind: AuditKind::EvictBufLeak,
                    detail: format!(
                        "dir bank {}: {used} parked evictions at end of run",
                        d.bank()
                    ),
                });
            }
        }
        checks += 1;
        for detail in self.mesh.audit_reliable() {
            violations.push(AuditViolation { kind: AuditKind::ArqWindow, detail });
        }
        self.audit_runs += 1;
        self.audit_violations += violations.len() as u64;
        if self.cfg.engine.is_sparse() {
            // The scrub may have queued repair traffic anywhere: wake
            // every unit so the engine sleeps through none of it.
            self.sched.wake_all(self.now);
        }
        AuditReport { at_cycle: now, final_run, checks, scrub_repairs, violations }
    }
}
