//! Wedge diagnosis: structured reports for runs that stop making
//! progress.
//!
//! When the per-core watchdog trips, the system extracts a wait-for
//! graph from live component state (ROB-head stall reasons, MSHR and
//! blocked-write entries, busy/WritersBlock/Evicting directory entries,
//! queued requests, in-flight mesh messages), runs cycle detection, and
//! classifies the wedge:
//!
//! - **Deadlock** — a cycle in the wait-for graph with no retry
//!   activity: nothing is moving and nothing ever will.
//! - **Livelock** — retries/Nacks/re-invalidations accumulating while
//!   retirement is flat (§3.4's Option-1 pathology): messages still
//!   flow, so there is usually no static cycle.
//! - **Starvation** — no cycle and no retry storm; some core simply
//!   never gets serviced.
//! - **ProtocolFault** — a protocol component reached an "impossible"
//!   state and recorded a typed error instead of panicking.
//!
//! Everything here is deterministic: parties order totally, edges are
//! sorted and deduplicated, and cycle detection explores in sorted
//! order, so the same wedge always renders byte-identically.

use std::fmt;

/// A node in the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitParty {
    /// A CPU core (waits on lines; resolves lockdowns by committing).
    Core(u16),
    /// A private cache (waits on lines via MSHRs; holds lockdowns).
    Cache(u16),
    /// A directory bank (holds parked evictions).
    Dir(u16),
    /// A cache line with an in-flight transaction.
    Line(u64),
}

impl fmt::Display for WaitParty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitParty::Core(i) => write!(f, "core{i}"),
            WaitParty::Cache(i) => write!(f, "cache{i}"),
            WaitParty::Dir(i) => write!(f, "dir{i}"),
            WaitParty::Line(l) => write!(f, "line {l:#x}"),
        }
    }
}

/// A directed "waits on" edge with a human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    pub from: WaitParty,
    pub to: WaitParty,
    pub why: String,
}

/// Deterministic cycle detection: DFS over the edge list with
/// neighbours visited in sorted order; returns the first cycle found,
/// as the ordered list of parties around it.
pub fn find_cycle(edges: &[WaitEdge]) -> Option<Vec<WaitParty>> {
    let mut adj: Vec<(WaitParty, WaitParty)> =
        edges.iter().map(|e| (e.from, e.to)).collect();
    adj.sort();
    adj.dedup();
    let mut nodes: Vec<WaitParty> = adj.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.sort();
    nodes.dedup();

    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let idx = |p: WaitParty| nodes.binary_search(&p).expect("node listed");
    let mut mark = vec![Mark::White; nodes.len()];
    // Iterative DFS keeping the grey path so the cycle can be read off.
    for &start in &nodes {
        if mark[idx(start)] != Mark::White {
            continue;
        }
        let mut path: Vec<WaitParty> = Vec::new();
        let mut stack: Vec<(WaitParty, usize)> = vec![(start, 0)];
        while let Some(&(node, next)) = stack.last() {
            if next == 0 {
                mark[idx(node)] = Mark::Grey;
                path.push(node);
            }
            let succs: Vec<WaitParty> = adj
                .iter()
                .filter(|&&(a, _)| a == node)
                .map(|&(_, b)| b)
                .collect();
            if next < succs.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let succ = succs[next];
                match mark[idx(succ)] {
                    Mark::Grey => {
                        // Cycle: from succ's position in the path to the end.
                        let at = path.iter().position(|&p| p == succ).expect("grey on path");
                        return Some(path[at..].to_vec());
                    }
                    Mark::White => stack.push((succ, 0)),
                    Mark::Black => {}
                }
            } else {
                mark[idx(node)] = Mark::Black;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// Why the run wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WedgeClass {
    Deadlock,
    Livelock,
    Starvation,
    ProtocolFault,
    /// An undetected soft error (bit flip that escaped the parity
    /// guards) is the suspected cause: state or results diverged without
    /// any protocol-level fault firing.
    SilentCorruption,
}

impl fmt::Display for WedgeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WedgeClass::Deadlock => write!(f, "deadlock (cyclic wait, no activity)"),
            WedgeClass::Livelock => {
                write!(f, "livelock (retries accumulating without retirement)")
            }
            WedgeClass::Starvation => write!(f, "starvation (no cycle, no retry storm)"),
            WedgeClass::ProtocolFault => write!(f, "protocol fault (impossible state reached)"),
            WedgeClass::SilentCorruption => {
                write!(f, "silent corruption (undetected soft error suspected)")
            }
        }
    }
}

/// The structured diagnosis returned inside `RunOutcome::Wedge` /
/// `RunOutcome::Fault`. `Display` is the actionable failure report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WedgeReport {
    pub class: WedgeClass,
    pub at_cycle: u64,
    /// One-line reproducer: workload + seed + config + chaos plan.
    pub reproducer: String,
    /// (core id, cycles since it last retired), worst first.
    pub stalled_cores: Vec<(u16, u64)>,
    /// Retry-class events (Nack retries, re-invalidation rounds,
    /// tear-off retries) observed inside the stall window.
    pub retries_in_window: u64,
    /// The extracted wait-for graph.
    pub edges: Vec<WaitEdge>,
    /// For a deadlock: the detected cycle, in order. For other classes:
    /// the parties implicated by the stalled cores' wait chains.
    pub participants: Vec<WaitParty>,
    /// Rendered `ProtocolError`, when `class == ProtocolFault`.
    pub error: Option<String>,
    /// Free-form context: in-flight message counts, link and soft-error
    /// tallies, audit findings…
    pub notes: Vec<String>,
}

impl WedgeReport {
    pub fn involves(&self, p: WaitParty) -> bool {
        self.participants.contains(&p)
    }

    /// A stable dedup key for the campaign farm's `wedges.jsonl`: two
    /// wedges with the same signature are the same underlying bug. It has
    /// four parts: the class, the sorted set of stalled cores, the set of
    /// wait-for edge causes without their endpoints, and the first clause
    /// of the protocol-fault text with its numbers stripped. Everything
    /// that varies per encounter normalises out: the cycle it fired at,
    /// the seed baked into the reproducer, stall lengths, the retry
    /// tally, which lines, caches and directory banks the edges name, and
    /// the volatile `since cycle N` / `(seq N)` / `bit N` suffixes of edge
    /// causes. A million-cell sweep thus files each distinct wedge once.
    pub fn signature(&self) -> String {
        fn normalise(why: &str) -> &str {
            let mut w = why;
            for marker in [" since cycle ", " (seq ", " bit "] {
                if let Some(i) = w.find(marker) {
                    w = &w[..i];
                }
            }
            w
        }
        let class = match self.class {
            WedgeClass::Deadlock => "deadlock",
            WedgeClass::Livelock => "livelock",
            WedgeClass::Starvation => "starvation",
            WedgeClass::ProtocolFault => "fault",
            WedgeClass::SilentCorruption => "silent-corruption",
        };
        let mut cores: Vec<u16> = self.stalled_cores.iter().map(|&(c, _)| c).collect();
        cores.sort_unstable();
        cores.dedup();
        let cores: Vec<String> = cores.iter().map(|c| format!("core{c}")).collect();
        let mut causes: Vec<&str> = self.edges.iter().map(|e| normalise(&e.why)).collect();
        causes.sort_unstable();
        causes.dedup();
        let error = first_clause_without_numbers(self.error.as_deref().unwrap_or(""));
        format!("{class}|{}|{}|{error}", cores.join(","), causes.join(";"))
    }
}

/// The text of `error` up to its first `,` or `;` outside brackets, with
/// every number (decimal or `0x` hex) replaced by `#`: "dir3: rebuild
/// for line 0x73: owner n2 with residual sharers {1, 3}" becomes
/// "dir#: rebuild for line #: owner n# with residual sharers {#, #}".
fn first_clause_without_numbers(error: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    let mut chars = error.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            ',' | ';' if depth == 0 => break,
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            _ => {}
        }
        if c.is_ascii_digit() {
            let hex = c == '0' && chars.peek() == Some(&'x');
            if hex {
                chars.next();
            }
            while chars.peek().is_some_and(|d| if hex { d.is_ascii_hexdigit() } else { d.is_ascii_digit() }) {
                chars.next();
            }
            out.push('#');
        } else {
            out.push(c);
        }
    }
    out
}

impl fmt::Display for WedgeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wedge: {} at cycle {}", self.class, self.at_cycle)?;
        writeln!(f, "  reproducer: {}", self.reproducer)?;
        if let Some(e) = &self.error {
            writeln!(f, "  error: {e}")?;
        }
        if !self.stalled_cores.is_empty() {
            write!(f, "  stalled cores:")?;
            for (c, n) in &self.stalled_cores {
                write!(f, " core{c}({n}cy)")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  retries in window: {}", self.retries_in_window)?;
        if !self.participants.is_empty() {
            write!(f, "  participants:")?;
            for (i, p) in self.participants.iter().enumerate() {
                write!(f, "{}{p}", if i == 0 { " " } else { " -> " })?;
            }
            writeln!(f)?;
        }
        if !self.edges.is_empty() {
            writeln!(f, "  wait-for graph:")?;
            for e in &self.edges {
                writeln!(f, "    {} -> {}: {}", e.from, e.to, e.why)?;
            }
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use WaitParty::*;

    fn e(from: WaitParty, to: WaitParty) -> WaitEdge {
        WaitEdge {
            from,
            to,
            why: String::new(),
        }
    }

    #[test]
    fn no_edges_no_cycle() {
        assert_eq!(find_cycle(&[]), None);
    }

    #[test]
    fn chain_has_no_cycle() {
        let edges = [e(Core(0), Line(0x40)), e(Line(0x40), Cache(1)), e(Cache(1), Core(1))];
        assert_eq!(find_cycle(&edges), None);
    }

    #[test]
    fn simple_cycle_found_in_order() {
        let edges = [
            e(Core(0), Line(0x40)),
            e(Line(0x40), Cache(1)),
            e(Cache(1), Core(0)),
        ];
        let cyc = find_cycle(&edges).expect("cycle exists");
        assert_eq!(cyc.len(), 3);
        assert!(cyc.contains(&Core(0)));
        assert!(cyc.contains(&Line(0x40)));
        assert!(cyc.contains(&Cache(1)));
    }

    #[test]
    fn cycle_off_the_main_chain() {
        // A reaches a cycle it is not part of: report the cycle only.
        let edges = [
            e(Core(0), Line(0x80)),
            e(Line(0x80), Cache(2)),
            e(Cache(2), Line(0xc0)),
            e(Line(0xc0), Cache(2)),
        ];
        let cyc = find_cycle(&edges).expect("cycle exists");
        assert_eq!(cyc.len(), 2);
        assert!(cyc.contains(&Cache(2)));
        assert!(cyc.contains(&Line(0xc0)));
        assert!(!cyc.contains(&Core(0)));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let cyc = find_cycle(&[e(Core(3), Core(3))]).expect("self loop");
        assert_eq!(cyc, vec![Core(3)]);
    }

    #[test]
    fn detection_is_deterministic() {
        let edges = [
            e(Cache(1), Core(0)),
            e(Core(0), Line(0x40)),
            e(Line(0x40), Cache(1)),
            e(Core(5), Line(0x40)),
        ];
        let a = find_cycle(&edges);
        let mut rev: Vec<WaitEdge> = edges.to_vec();
        rev.reverse();
        let b = find_cycle(&rev);
        assert_eq!(a, b, "edge order must not change the result");
    }

    #[test]
    fn report_display_names_everything() {
        let rep = WedgeReport {
            class: WedgeClass::Deadlock,
            at_cycle: 123_456,
            reproducer: "workload=t seed=0x1 cores=4".to_string(),
            stalled_cores: vec![(1, 200_001)],
            retries_in_window: 0,
            edges: vec![WaitEdge {
                from: Core(1),
                to: Line(0x40),
                why: "rob-head-load".to_string(),
            }],
            participants: vec![Core(1), Line(0x40)],
            error: None,
            notes: vec!["9 messages in flight".to_string()],
        };
        let s = rep.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("cycle 123456"));
        assert!(s.contains("seed=0x1"));
        assert!(s.contains("core1(200001cy)"));
        assert!(s.contains("core1 -> line 0x40: rob-head-load"));
        assert!(s.contains("note: 9 messages in flight"));
        assert!(rep.involves(Core(1)));
        assert!(!rep.involves(Core(2)));
    }

    #[test]
    fn signature_normalises_per_encounter_noise() {
        let mk = |at_cycle: u64, seed: u64, stall: u64, retries: u64| WedgeReport {
            class: WedgeClass::Livelock,
            at_cycle,
            reproducer: format!("workload=t seed={seed:#x} cores=4"),
            stalled_cores: vec![(1, stall)],
            retries_in_window: retries,
            edges: vec![
                WaitEdge { from: Core(1), to: Line(0x40), why: "rob-head-load".to_string() },
                WaitEdge { from: Line(0x40), to: Cache(0), why: "mshr".to_string() },
            ],
            participants: vec![Line(0x40), Core(1)],
            error: None,
            notes: vec![format!("{at_cycle} in flight")],
        };
        let a = mk(100, 1, 5, 2);
        let b = mk(9_999, 77, 123, 0);
        assert_eq!(a.signature(), b.signature(), "cycle/seed/stall noise must not split bugs");
        // Edge order and participant order don't matter either.
        let mut c = mk(100, 1, 5, 2);
        c.edges.reverse();
        c.participants.reverse();
        assert_eq!(a.signature(), c.signature());
        // Volatile suffixes inside edge causes normalise out too.
        let mut f = mk(100, 1, 5, 2);
        let mut g = mk(100, 1, 5, 2);
        f.edges[0].why = "rob-head-load (seq 5)".to_string();
        g.edges[0].why = "rob-head-load (seq 93)".to_string();
        f.edges[1].why = "MSHR Read since cycle 426".to_string();
        g.edges[1].why = "MSHR Read since cycle 7".to_string();
        assert_eq!(f.signature(), g.signature(), "seq/cycle suffixes must not split bugs");
        assert!(f.signature().contains("MSHR Read"), "the stable cause prefix survives");
        // But a different wait-for shape is a different bug.
        let mut d = mk(100, 1, 5, 2);
        d.edges[0].why = "sb-drain".to_string();
        assert_ne!(a.signature(), d.signature());
        let mut e = mk(100, 1, 5, 2);
        e.class = WedgeClass::Deadlock;
        assert_ne!(a.signature(), e.signature());
    }

    #[test]
    fn signature_groups_by_cause_not_by_endpoint() {
        let mk = |class: WedgeClass, line: u64, cache: u16| WedgeReport {
            class,
            at_cycle: 1_000,
            reproducer: "workload=t seed=0x1 cores=4".to_string(),
            stalled_cores: vec![(2, 500), (0, 900)],
            retries_in_window: 40,
            edges: vec![
                WaitEdge { from: Core(0), to: Line(line), why: "rob-head-load (seq 7)".to_string() },
                WaitEdge {
                    from: Cache(cache),
                    to: Line(line + 0x40),
                    why: format!("MSHR Write since cycle {line}"),
                },
                WaitEdge {
                    from: Line(line + 0x40),
                    to: Cache(cache),
                    why: "lockdown held, invalidation ack deferred".to_string(),
                },
            ],
            participants: vec![Core(0), Line(line), Cache(cache)],
            error: Some(format!(
                "dir{cache}: rebuild for line {line:#x}: owner n{cache} with residual \
                 sharers {{1, {cache}}}; then, more"
            )),
            notes: vec![],
        };
        let a = mk(WedgeClass::Livelock, 0x84, 1);
        let b = mk(WedgeClass::Livelock, 0x1a5, 3);
        assert_eq!(a.signature(), b.signature(), "lines and caches must not split one bug");
        assert_eq!(
            a.signature(),
            "livelock|core0,core2|MSHR Write;lockdown held, invalidation ack deferred;\
             rob-head-load|dir#: rebuild for line #: owner n# with residual sharers {#, #}"
        );
        let c = mk(WedgeClass::Deadlock, 0x84, 1);
        assert_ne!(a.signature(), c.signature(), "a different class is a different bug");
    }

    #[test]
    fn silent_corruption_signature_normalises_bit_positions() {
        let mk = |bit: u32| WedgeReport {
            class: WedgeClass::SilentCorruption,
            at_cycle: 500,
            reproducer: "workload=t seed=0x1 cores=4".to_string(),
            stalled_cores: vec![],
            retries_in_window: 0,
            edges: vec![WaitEdge {
                from: Core(0),
                to: Line(0x80),
                why: format!("flipped sharer bit {bit}"),
            }],
            participants: vec![Core(0), Line(0x80)],
            error: None,
            notes: vec![],
        };
        let a = mk(3);
        let b = mk(61);
        assert_eq!(a.signature(), b.signature(), "flipped-bit positions must not split bugs");
        assert!(a.signature().starts_with("silent-corruption|"));
    }
}
