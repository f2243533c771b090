//! Wedge diagnosis: the replayable reproducer line, the wait-for graph
//! extracted from live machine state, and the rendered report.

use crate::spec;
use crate::system::{System, DUMP_LAST};
use wb_kernel::wedge::{self, WaitEdge, WaitParty, WedgeClass, WedgeReport};
use wb_protocol::ProtocolError;

impl System {
    /// This run as a one-cell campaign spec on one line (with its engine
    /// and its budget, the current or last run's deadline), printed in
    /// every wedge report and failing verdict: saved to a file, the
    /// campaign farm replays it byte for byte.
    pub fn reproducer(&self) -> String {
        let budget = self.deadline.unwrap_or(spec::RUN_BUDGET);
        spec::describe(&self.cfg, &self.workload_name, self.workload_cores, Some(budget))
    }

    /// Extract a wait-for graph from live machine state, classify the
    /// wedge, and render the report through the trace sink.
    ///
    /// Edges (all deterministic — inputs are sorted, duplicates merged):
    /// - `core -> line`: the ROB head (or store buffer / unperformed
    ///   load) is waiting on a cache line;
    /// - `cache -> line`: an MSHR transaction for the line is in flight;
    /// - `line -> cache`: a directory transaction for the line waits on
    ///   that cache to respond, or the cache holds the line locked down;
    /// - `cache -> core`: a lockdown only lifts when that core commits
    ///   its bound loads;
    /// - `cache -> line`: the cache's request is queued at the home bank
    ///   behind the line's current transaction;
    /// - `dir -> line`: the line occupies an eviction-buffer slot.
    pub(crate) fn diagnose(
        &mut self,
        stalled: Vec<(u16, u64)>,
        retries_in_window: u64,
        error: Option<ProtocolError>,
    ) -> WedgeReport {
        // Retries accumulating over the stall window that indicate the
        // machine is spinning (livelock), not stuck (deadlock). Scaled
        // up under a fault plan: retransmission-driven Nack chatter is
        // expected there, not evidence of spinning.
        let livelock_retries = self.cfg.effective_livelock_retries();
        let mut edges: Vec<WaitEdge> = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            if let Some(s) = core.stall_info() {
                if let Some(line) = s.line {
                    let why = match s.seq {
                        Some(q) => format!("{} (seq {q})", s.kind),
                        None => s.kind.to_string(),
                    };
                    edges.push(WaitEdge {
                        from: WaitParty::Core(i as u16),
                        to: WaitParty::Line(line),
                        why,
                    });
                }
            }
        }
        for (i, cache) in self.caches.iter().enumerate() {
            for m in cache.mshr_summary() {
                let blocked = if m.blocked { " (write blocked by lockdown)" } else { "" };
                edges.push(WaitEdge {
                    from: WaitParty::Cache(i as u16),
                    to: WaitParty::Line(m.line),
                    why: format!("MSHR {}{} since cycle {}", m.kind, blocked, m.issued_at),
                });
            }
            for line in cache.lockdown_lines() {
                edges.push(WaitEdge {
                    from: WaitParty::Line(line),
                    to: WaitParty::Cache(i as u16),
                    why: "lockdown held, invalidation ack deferred".to_string(),
                });
                edges.push(WaitEdge {
                    from: WaitParty::Cache(i as u16),
                    to: WaitParty::Core(i as u16),
                    why: "lockdown lifts when bound loads commit".to_string(),
                });
            }
        }
        for d in &self.dirs {
            for w in d.wait_summary() {
                if let Some(target) = w.waiting_on {
                    edges.push(WaitEdge {
                        from: WaitParty::Line(w.line),
                        to: WaitParty::Cache(target),
                        why: format!("{} transaction in flight", w.state),
                    });
                }
                for q in &w.queued {
                    edges.push(WaitEdge {
                        from: WaitParty::Cache(*q),
                        to: WaitParty::Line(w.line),
                        why: format!("request queued behind {}", w.state),
                    });
                }
                if w.state.starts_with("Evicting") {
                    edges.push(WaitEdge {
                        from: WaitParty::Dir(d.bank() as u16),
                        to: WaitParty::Line(w.line),
                        why: "eviction-buffer slot held".to_string(),
                    });
                }
            }
        }
        edges.sort_by(|a, b| (a.from, a.to, &a.why).cmp(&(b.from, b.to, &b.why)));
        edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

        // Under a soft plan, audit before classifying: a wedge caused by
        // an undetected flip should read as corruption, not deadlock.
        let wedge_audit = self.soft.is_some().then(|| self.run_audit(false));
        let corrupted = wedge_audit.as_ref().is_some_and(|a| {
            !a.violations.is_empty() || a.scrub_repairs > 0
        }) || self.soft_silent() > 0;

        let cycle = wedge::find_cycle(&edges);
        let class = if error.is_some() {
            WedgeClass::ProtocolFault
        } else if corrupted {
            WedgeClass::SilentCorruption
        } else if retries_in_window >= livelock_retries {
            WedgeClass::Livelock
        } else if cycle.is_some() {
            WedgeClass::Deadlock
        } else {
            WedgeClass::Starvation
        };
        let participants = match (&class, cycle) {
            (WedgeClass::Deadlock, Some(cyc)) => cyc,
            _ => {
                // Everything reachable from a stalled core in two hops:
                // the line it waits on and whoever holds that line.
                let mut ps: Vec<WaitParty> = Vec::new();
                for &(c, _) in &stalled {
                    ps.push(WaitParty::Core(c));
                    for e in &edges {
                        if e.from == WaitParty::Core(c) {
                            ps.push(e.to);
                            for e2 in &edges {
                                if e2.from == e.to {
                                    ps.push(e2.to);
                                }
                            }
                        }
                    }
                }
                ps.sort_unstable();
                ps.dedup();
                ps
            }
        };

        let mut notes = Vec::new();
        let in_flight = self.mesh.in_flight_summary(self.now);
        notes.push(format!("{} protocol messages in flight", in_flight.len()));
        for &(src, dst, vnet, age) in in_flight.iter().take(4) {
            notes.push(format!("  oldest: {src} -> {dst} vnet{vnet}, in flight {age} cycles"));
        }
        let (hot_lines, _) = self.hot_attribution();
        let top = hot_lines.top(4);
        if !top.is_empty() {
            notes.push("hot lines by attributed stall cycles:".to_string());
            for e in &top {
                notes.push(format!("  line {:#x}: {} cycles (\u{00b1}{})", e.key, e.count, e.err));
            }
        }
        if self.cfg.chaos.is_some() {
            let (touched, injected) = self.mesh.chaos_injected();
            notes.push(format!("chaos delayed {touched} messages by {injected} cycles total"));
        }
        if self.cfg.fault.is_some() {
            let (dropped, duplicated, corrupted) = self.mesh.fault_injected();
            let st = self.mesh.stats();
            notes.push(format!(
                "link faults: {dropped} dropped, {duplicated} duplicated, {corrupted} corrupted; \
                 {} retransmissions, {} standalone acks, {} backpressured sends",
                st.get("link_retx"),
                st.get("link_acks"),
                st.get("link_backpressure_msgs"),
            ));
        }
        if let Some(a) = &wedge_audit {
            let (injected, missed) = self.soft_injected();
            let st = self.aggregate_stats();
            notes.push(format!(
                "soft errors: {injected} injected ({missed} strikes missed), {} detected, \
                 {} masked, {} silent",
                st.get("soft_detected"),
                st.get("soft_masked"),
                self.soft_silent(),
            ));
            notes.push(format!(
                "audit at wedge: {} checks, {} scrub repairs, {} violations",
                a.checks,
                a.scrub_repairs,
                a.violations.len(),
            ));
            if a.scrub_repairs > 0 {
                notes.push(
                    "  unrepaired wound found live at wedge time — corruption was in \
                     flight when the machine stalled"
                        .to_string(),
                );
            }
            for v in a.violations.iter().take(6) {
                notes.push(format!("  {}: {}", v.kind.label(), v.detail));
            }
        }

        let mut report = WedgeReport {
            class,
            at_cycle: self.now,
            reproducer: self.reproducer(),
            stalled_cores: stalled,
            retries_in_window,
            edges,
            participants,
            error: error.map(|e| e.to_string()),
            notes,
        };
        self.emit_wedge(&mut report);
        report
    }

    /// Render `report` through the trace sink, then — when event
    /// tracing is on — each participant line's last traced events.
    fn emit_wedge(&mut self, report: &mut WedgeReport) {
        let traced = self.tracer.filter().enabled();
        if !traced {
            report.notes.push(
                "event tracing off; call System::set_trace before the run for each \
                 participant line's last events"
                    .to_string(),
            );
        }
        for line in report.to_string().lines() {
            self.sink.emit(line);
        }
        if traced {
            for p in &report.participants {
                if let WaitParty::Line(l) = *p {
                    self.dump_trace_for_line(Some(l), DUMP_LAST);
                }
            }
        }
    }
}
