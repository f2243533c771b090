//! Chaos timing injection: deterministic, seeded adversarial schedules
//! for the on-chip network.
//!
//! The paper's correctness argument (§3.4, §3.5) must hold on an
//! *unordered* network, so the interesting schedules are exactly the
//! ones uniform jitter almost never produces: sustained delay storms on
//! one virtual network, hotspots around one node, bounded starvation of
//! a single flow, heavy-tailed reorder amplification, and directed
//! stalls timed to land while a lockdown is live.
//!
//! A [`ChaosPlan`] is pure data (it appears verbatim in wedge-report
//! reproducer lines); a [`ChaosEngine`] evaluates it per message inside
//! `Mesh::send`. All injected perturbation is *extra delay on the
//! injection timestamp only* — the mesh re-establishes per-flow FIFO at
//! delivery via sequence numbers, so no plan can drop, duplicate, or
//! reorder same-flow messages. Every plan is therefore legal unordered
//! network behaviour by construction.
//!
//! Determinism: the engine's only randomness is a [`SimRng`] stream
//! seeded from the system seed, drawn once per (matching probabilistic
//! clause, message). Same (seed, config, plan) → identical delays →
//! byte-identical runs.

use crate::rng::SimRng;
use crate::stats::Stats;
use crate::Cycle;
use std::fmt;

/// Which messages a clause applies to. `None` fields match anything;
/// `touching` matches messages with the given node as source *or*
/// destination (link hotspots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    pub src: Option<u16>,
    pub dst: Option<u16>,
    pub touching: Option<u16>,
    pub vnet: Option<u8>,
}

impl FlowMatch {
    pub const ANY: FlowMatch = FlowMatch {
        src: None,
        dst: None,
        touching: None,
        vnet: None,
    };

    pub fn vnet(v: u8) -> Self {
        FlowMatch {
            vnet: Some(v),
            ..FlowMatch::ANY
        }
    }

    pub fn touching(node: u16) -> Self {
        FlowMatch {
            touching: Some(node),
            ..FlowMatch::ANY
        }
    }

    pub fn flow(src: u16, dst: u16, vnet: u8) -> Self {
        FlowMatch {
            src: Some(src),
            dst: Some(dst),
            touching: None,
            vnet: Some(vnet),
        }
    }

    pub fn matches(&self, src: u16, dst: u16, vnet: u8) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.touching.is_none_or(|t| t == src || t == dst)
            && self.vnet.is_none_or(|v| v == vnet)
    }
}

impl fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |x: Option<u16>| x.map_or("*".to_string(), |v| v.to_string());
        if let Some(t) = self.touching {
            write!(f, "~{t}")?;
        } else {
            write!(f, "{}>{}", opt(self.src), opt(self.dst))?;
        }
        match self.vnet {
            Some(v) => write!(f, "/vn{v}"),
            None => write!(f, "/vn*"),
        }
    }
}

/// How matching messages are perturbed. All variants add delay only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEffect {
    /// Fixed extra delay on every matching message.
    Delay { cycles: u64 },
    /// Periodic delay storm: during the first `burst` cycles of every
    /// `period`-cycle window, matching messages are held an extra
    /// `[min, max]` cycles. Models transient congestion.
    Storm {
        period: u64,
        burst: u64,
        min: u64,
        max: u64,
    },
    /// Heavy-tailed reorder amplification: with probability `num/den`
    /// a matching message is held `[min, max]` extra cycles. Stretches
    /// the §3.5 race windows (Nack in flight, WritersBlock entry,
    /// eviction-buffer occupancy) far beyond uniform jitter.
    Amplify {
        num: u64,
        den: u64,
        min: u64,
        max: u64,
    },
    /// Bounded per-flow starvation: matching flows freeze for the first
    /// `hold` cycles of every `hold + release` window (a message
    /// injected mid-freeze is held until the window opens). Bounded by
    /// construction — every window ends — so this is starvation
    /// *pressure*, not a livelock of the harness itself.
    Starve { hold: u64, release: u64 },
    /// Directed mode: extra delay only while the externally supplied
    /// signal is set (the system raises it while any private cache
    /// holds a live lockdown). This is the "stall a chosen vnet while a
    /// lockdown is in progress" schedule from the issue.
    StallWhileSignal { cycles: u64 },
}

impl fmt::Display for ChaosEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosEffect::Delay { cycles } => write!(f, "delay{cycles}"),
            ChaosEffect::Storm {
                period,
                burst,
                min,
                max,
            } => write!(f, "storm{burst}/{period}x{min}-{max}"),
            ChaosEffect::Amplify { num, den, min, max } => {
                write!(f, "amp{num}/{den}x{min}-{max}")
            }
            ChaosEffect::Starve { hold, release } => write!(f, "starve{hold}+{release}"),
            ChaosEffect::StallWhileSignal { cycles } => write!(f, "lockstall{cycles}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosClause {
    pub flow: FlowMatch,
    pub effect: ChaosEffect,
}

impl fmt::Display for ChaosClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.flow, self.effect)
    }
}

/// A named, reproducible adversarial schedule. Appears verbatim in
/// reproducer lines, so `Display` must stay stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    pub name: &'static str,
    pub clauses: Vec<ChaosClause>,
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl ChaosPlan {
    fn one(name: &'static str, flow: FlowMatch, effect: ChaosEffect) -> Self {
        ChaosPlan {
            name,
            clauses: vec![ChaosClause { flow, effect }],
        }
    }

    /// Control row: no perturbation at all.
    pub fn quiet() -> Self {
        ChaosPlan {
            name: "quiet",
            clauses: Vec::new(),
        }
    }

    /// Periodic congestion on every link.
    pub fn delay_storm() -> Self {
        Self::one(
            "delay_storm",
            FlowMatch::ANY,
            ChaosEffect::Storm {
                period: 2_000,
                burst: 400,
                min: 50,
                max: 400,
            },
        )
    }

    /// Storm confined to the request vnet (GetS/GetX/Put arrivals).
    pub fn request_storm() -> Self {
        Self::one(
            "request_storm",
            FlowMatch::vnet(0),
            ChaosEffect::Storm {
                period: 2_500,
                burst: 600,
                min: 80,
                max: 500,
            },
        )
    }

    /// Storm confined to the forward vnet — Inv / Fwd / Recall arrive
    /// late, stretching lockdown and WritersBlock entry windows.
    pub fn forward_storm() -> Self {
        Self::one(
            "forward_storm",
            FlowMatch::vnet(1),
            ChaosEffect::Storm {
                period: 2_500,
                burst: 600,
                min: 80,
                max: 500,
            },
        )
    }

    /// Storm confined to the response vnet — Nacks, Data and acks hang
    /// in flight (§3.5's "Nack in flight" window).
    pub fn response_storm() -> Self {
        Self::one(
            "response_storm",
            FlowMatch::vnet(2),
            ChaosEffect::Storm {
                period: 2_500,
                burst: 600,
                min: 80,
                max: 500,
            },
        )
    }

    /// Everything entering or leaving one node crawls.
    pub fn hotspot(node: u16) -> Self {
        Self::one(
            "hotspot",
            FlowMatch::touching(node),
            ChaosEffect::Delay { cycles: 150 },
        )
    }

    /// Bounded starvation of one (src, dst, vnet) flow.
    pub fn starve_flow(src: u16, dst: u16, vnet: u8) -> Self {
        Self::one(
            "starve_flow",
            FlowMatch::flow(src, dst, vnet),
            ChaosEffect::Starve {
                hold: 800,
                release: 200,
            },
        )
    }

    /// Heavy-tailed jitter on every message: 1-in-8 messages is held up
    /// to a thousand cycles, maximising cross-flow reorder.
    pub fn reorder_amplify() -> Self {
        Self::one(
            "reorder_amplify",
            FlowMatch::ANY,
            ChaosEffect::Amplify {
                num: 1,
                den: 8,
                min: 100,
                max: 1_000,
            },
        )
    }

    /// Squeeze the WritersBlock entry path: responses (Nack, acks,
    /// Data) get heavy-tailed delay while forwards lag a fixed amount,
    /// widening the gap between a Nack leaving the directory and the
    /// matching LockdownAck returning — the §3.5.1 eviction-buffer
    /// occupancy window.
    pub fn wb_entry_squeeze() -> Self {
        ChaosPlan {
            name: "wb_entry_squeeze",
            clauses: vec![
                ChaosClause {
                    flow: FlowMatch::vnet(2),
                    effect: ChaosEffect::Amplify {
                        num: 1,
                        den: 4,
                        min: 200,
                        max: 900,
                    },
                },
                ChaosClause {
                    flow: FlowMatch::vnet(1),
                    effect: ChaosEffect::Delay { cycles: 60 },
                },
            ],
        }
    }

    /// Directed §3.5 schedule: stall the chosen vnet whenever a
    /// lockdown is live anywhere.
    pub fn lockdown_vnet_stall(vnet: u8) -> Self {
        Self::one(
            "lockdown_vnet_stall",
            FlowMatch::vnet(vnet),
            ChaosEffect::StallWhileSignal { cycles: 300 },
        )
    }

    /// The standard torture matrix (issue asks for ≥ 8 plans).
    pub fn matrix() -> Vec<ChaosPlan> {
        vec![
            ChaosPlan::quiet(),
            ChaosPlan::delay_storm(),
            ChaosPlan::request_storm(),
            ChaosPlan::forward_storm(),
            ChaosPlan::response_storm(),
            ChaosPlan::hotspot(0),
            ChaosPlan::starve_flow(1, 0, 0),
            ChaosPlan::reorder_amplify(),
            ChaosPlan::wb_entry_squeeze(),
            ChaosPlan::lockdown_vnet_stall(1),
            ChaosPlan::lockdown_vnet_stall(2),
        ]
    }
}

/// Evaluates a [`ChaosPlan`] per injected message. Owned by the mesh;
/// the system pushes the lockdown-live signal in each tick when any
/// clause wants it.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    plan: ChaosPlan,
    rng: SimRng,
    signal: bool,
    /// Messages that received any extra delay.
    pub touched: u64,
    /// Total extra cycles injected.
    pub injected: u64,
}

impl ChaosEngine {
    pub fn new(plan: ChaosPlan, seed: u64) -> Self {
        ChaosEngine {
            plan,
            // Distinct stream from the mesh's own jitter rng.
            rng: SimRng::new(seed ^ 0xc4a0_5f1a_11ed_7707),
            signal: false,
            touched: 0,
            injected: 0,
        }
    }

    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// True if any clause is gated on the lockdown-live signal; the
    /// system only bothers computing the signal when this holds.
    pub fn wants_signal(&self) -> bool {
        self.plan
            .clauses
            .iter()
            .any(|c| matches!(c.effect, ChaosEffect::StallWhileSignal { .. }))
    }

    pub fn set_signal(&mut self, live: bool) {
        self.signal = live;
    }

    /// Extra injection delay for a message entering the mesh now.
    ///
    /// Besides the engine's own `touched`/`injected` counters, every
    /// perturbation is recorded into `stats` — the total under
    /// `mesh_chaos_msgs`/`mesh_chaos_cycles` and a per-effect
    /// breakdown under `mesh_chaos_<effect>_msgs` — so chaos runs are
    /// auditable from the run's stats and wedge reports, not just via
    /// [`crate::chaos::ChaosEngine`] accessors.
    pub fn delay(&mut self, now: Cycle, src: u16, dst: u16, vnet: u8, stats: &mut Stats) -> u64 {
        let mut extra = 0u64;
        for clause in &self.plan.clauses {
            if !clause.flow.matches(src, dst, vnet) {
                continue;
            }
            let contribution = match clause.effect {
                ChaosEffect::Delay { cycles } => cycles,
                ChaosEffect::Storm {
                    period,
                    burst,
                    min,
                    max,
                } => {
                    if period > 0 && now % period < burst {
                        self.rng.range(min, max)
                    } else {
                        0
                    }
                }
                ChaosEffect::Amplify { num, den, min, max } => {
                    if self.rng.chance(num, den) {
                        self.rng.range(min, max)
                    } else {
                        0
                    }
                }
                ChaosEffect::Starve { hold, release } => {
                    let window = hold + release;
                    let pos = if window > 0 { now % window } else { 0 };
                    // Held until the freeze phase of this window ends.
                    hold.saturating_sub(pos)
                }
                ChaosEffect::StallWhileSignal { cycles } => {
                    if self.signal {
                        cycles
                    } else {
                        0
                    }
                }
            };
            if contribution > 0 {
                stats.inc(match clause.effect {
                    ChaosEffect::Delay { .. } => "mesh_chaos_delay_msgs",
                    ChaosEffect::Storm { .. } => "mesh_chaos_storm_msgs",
                    ChaosEffect::Amplify { .. } => "mesh_chaos_amplify_msgs",
                    ChaosEffect::Starve { .. } => "mesh_chaos_starve_msgs",
                    ChaosEffect::StallWhileSignal { .. } => "mesh_chaos_lockstall_msgs",
                });
            }
            extra += contribution;
        }
        if extra > 0 {
            self.touched += 1;
            self.injected += extra;
            stats.inc("mesh_chaos_msgs");
            stats.add("mesh_chaos_cycles", extra);
        }
        extra
    }
}

// The plan itself is config, rebuilt from `SystemConfig` on restore —
// only the rng cursor, the signal latch and the audit counters travel.
crate::snap_component!(pub ChaosEngine { rng, signal, touched, injected });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_match_filters() {
        let any = FlowMatch::ANY;
        assert!(any.matches(0, 5, 2));
        let v = FlowMatch::vnet(1);
        assert!(v.matches(3, 4, 1));
        assert!(!v.matches(3, 4, 2));
        let t = FlowMatch::touching(7);
        assert!(t.matches(7, 0, 0));
        assert!(t.matches(0, 7, 2));
        assert!(!t.matches(1, 2, 0));
        let fl = FlowMatch::flow(1, 0, 0);
        assert!(fl.matches(1, 0, 0));
        assert!(!fl.matches(0, 1, 0));
    }

    #[test]
    fn engine_is_deterministic() {
        let mk = || ChaosEngine::new(ChaosPlan::reorder_amplify(), 42);
        let mut a = mk();
        let mut b = mk();
        let (mut sa, mut sb) = (Stats::new(), Stats::new());
        for now in 0..2_000u64 {
            let d1 = a.delay(now, (now % 16) as u16, ((now * 7) % 16) as u16, (now % 3) as u8, &mut sa);
            let d2 = b.delay(now, (now % 16) as u16, ((now * 7) % 16) as u16, (now % 3) as u8, &mut sb);
            assert_eq!(d1, d2, "divergence at {now}");
        }
        assert_eq!(a.touched, b.touched);
        assert_eq!(a.injected, b.injected);
        assert_eq!(sa, sb);
        assert!(a.touched > 0, "amplify plan never fired in 2000 messages");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut e = ChaosEngine::new(ChaosPlan::quiet(), 1);
        let mut s = Stats::new();
        for now in 0..500 {
            assert_eq!(e.delay(now, 0, 1, 0, &mut s), 0);
        }
        assert_eq!(e.touched, 0);
        assert!(s.is_empty(), "quiet plan must leave stats untouched");
    }

    #[test]
    fn starve_is_bounded() {
        let mut e = ChaosEngine::new(ChaosPlan::starve_flow(1, 0, 0), 9);
        let mut s = Stats::new();
        // Mid-freeze: held until the freeze (hold = 800) ends.
        assert_eq!(e.delay(100, 1, 0, 0, &mut s), 700);
        // Open phase: no delay.
        assert_eq!(e.delay(850, 1, 0, 0, &mut s), 0);
        // Other flows untouched even mid-freeze.
        assert_eq!(e.delay(100, 0, 1, 0, &mut s), 0);
        // Bound: delay never exceeds the hold phase.
        for now in 0..5_000 {
            assert!(e.delay(now, 1, 0, 0, &mut s) <= 800);
        }
        assert_eq!(s.get("mesh_chaos_starve_msgs"), s.get("mesh_chaos_msgs"));
    }

    #[test]
    fn stall_gated_on_signal() {
        let mut e = ChaosEngine::new(ChaosPlan::lockdown_vnet_stall(2), 3);
        let mut s = Stats::new();
        assert!(e.wants_signal());
        assert_eq!(e.delay(10, 0, 1, 2, &mut s), 0);
        e.set_signal(true);
        assert_eq!(e.delay(11, 0, 1, 2, &mut s), 300);
        assert_eq!(e.delay(11, 0, 1, 1, &mut s), 0, "other vnets unaffected");
        e.set_signal(false);
        assert_eq!(e.delay(12, 0, 1, 2, &mut s), 0);
        assert_eq!(s.get("mesh_chaos_lockstall_msgs"), 1);
    }

    #[test]
    fn storm_fires_only_in_burst() {
        let mut e = ChaosEngine::new(ChaosPlan::delay_storm(), 5);
        let mut s = Stats::new();
        // Outside the burst window (period 2000, burst 400).
        assert_eq!(e.delay(1_500, 0, 1, 0, &mut s), 0);
        // Inside it.
        let d = e.delay(2_100, 0, 1, 0, &mut s);
        assert!((50..=400).contains(&d), "storm delay {d} out of range");
        assert_eq!(s.get("mesh_chaos_storm_msgs"), 1);
        assert_eq!(s.get("mesh_chaos_msgs"), 1);
        assert_eq!(s.get("mesh_chaos_cycles"), d);
    }

    #[test]
    fn plan_display_is_stable() {
        assert_eq!(
            ChaosPlan::delay_storm().to_string(),
            "delay_storm(*>*/vn*:storm400/2000x50-400)"
        );
        assert_eq!(
            ChaosPlan::lockdown_vnet_stall(2).to_string(),
            "lockdown_vnet_stall(*>*/vn2:lockstall300)"
        );
        assert_eq!(
            ChaosPlan::starve_flow(1, 0, 0).to_string(),
            "starve_flow(1>0/vn0:starve800+200)"
        );
        assert_eq!(ChaosPlan::quiet().to_string(), "quiet()");
        assert_eq!(ChaosPlan::matrix().len(), 11);
    }
}
