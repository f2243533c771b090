//! Link-level fault injection: deterministic, seeded loss/duplication/
//! corruption schedules for the on-chip network.
//!
//! PR 3's chaos layer perturbs *timing* only; this module models the
//! failures real fabrics add on top: a [`FaultPlan`] is a set of
//! (flow-matcher, effect) clauses evaluated by a [`FaultEngine`] at
//! **hop granularity** inside `Mesh::tick`. Effects are probabilistic
//! per traversed link:
//!
//! - [`FaultEffect::Drop`] — the frame vanishes mid-flight;
//! - [`FaultEffect::Duplicate`] — a second copy continues alongside
//!   the original;
//! - [`FaultEffect::CorruptPayload`] — the frame's carried checksum is
//!   XORed with a non-zero value, modelling an arbitrary wire flip
//!   that the receiver-side checksum must catch.
//!
//! None of this is visible to the coherence protocol: the mesh's
//! reliable-delivery sublayer (`wb_mesh::reliable`) retransmits,
//! deduplicates and discards corrupt frames so the protocol still
//! observes exactly-once, per-flow-FIFO delivery. A plan is pure data
//! and appears verbatim in wedge-report reproducer lines, so its
//! `Display` must stay stable.
//!
//! Determinism: the engine's only randomness is a [`SimRng`] stream
//! (distinct from both the mesh jitter and chaos streams), drawn once
//! per (matching clause, hop). Same (seed, plan, workload) → identical
//! fault schedule → byte-identical runs.

use crate::chaos::FlowMatch;
use crate::rng::SimRng;
use std::fmt;

/// What happens to a matching frame at one hop. Probabilities are
/// exact rationals `num/den` so plans render without floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// With probability `num/den`, the frame is dropped at this hop.
    Drop { num: u64, den: u64 },
    /// With probability `num/den`, a duplicate copy of the frame is
    /// injected behind the original (both keep travelling).
    Duplicate { num: u64, den: u64 },
    /// With probability `num/den`, the frame's carried checksum is
    /// XORed with a random non-zero value — the wire-flip model. The
    /// receiver recomputes the checksum and must discard the frame.
    CorruptPayload { num: u64, den: u64 },
}

impl FaultEffect {
    fn prob(&self) -> (u64, u64) {
        match *self {
            FaultEffect::Drop { num, den }
            | FaultEffect::Duplicate { num, den }
            | FaultEffect::CorruptPayload { num, den } => (num, den),
        }
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEffect::Drop { num, den } => write!(f, "drop{num}/{den}"),
            FaultEffect::Duplicate { num, den } => write!(f, "dup{num}/{den}"),
            FaultEffect::CorruptPayload { num, den } => write!(f, "corrupt{num}/{den}"),
        }
    }
}

/// One matcher × effect pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClause {
    pub flow: FlowMatch,
    pub effect: FaultEffect,
}

impl fmt::Display for FaultClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.flow, self.effect)
    }
}

/// A named, reproducible fault schedule. Appears verbatim in
/// reproducer lines, so `Display` must stay stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub name: &'static str,
    pub clauses: Vec<FaultClause>,
}

impl fmt::Display for FaultPlan {
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

impl FaultPlan {
    /// A single-clause plan — the building block for custom scenarios.
    pub fn one(name: &'static str, flow: FlowMatch, effect: FaultEffect) -> Self {
        FaultPlan { name, clauses: vec![FaultClause { flow, effect }] }
    }

    /// The plan a campaign spec names `name`: a [`FaultPlan::MATRIX`]
    /// entry, or `"drop-N-M"`, which drops N/M of all hops; `"off"` is
    /// none.
    ///
    /// # Errors
    ///
    /// Fails on an unknown name or a malformed drop rate.
    pub fn by_name(name: &str) -> Result<Option<FaultPlan>, String> {
        if name == "off" {
            return Ok(None);
        }
        if let Some((_, make)) = Self::MATRIX.iter().find(|(n, _)| *n == name) {
            return Ok(Some(make()));
        }
        match name.split('-').collect::<Vec<_>>().as_slice() {
            ["drop", num, den] => match (num.parse(), den.parse()) {
                (Ok(n), Ok(d)) if d > 0u64 => Ok(Some(FaultPlan::drop_everywhere(n, d))),
                _ => Err(format!("bad drop rate in `{name}`")),
            },
            _ => Err(format!("unknown fault plan `{name}`")),
        }
    }

    /// Inverse of [`FaultPlan::by_name`]: the name that builds this
    /// plan, if one does.
    pub fn spec_name(&self) -> Option<String> {
        match self.clauses.as_slice() {
            [FaultClause { effect: FaultEffect::Drop { num, den }, .. }] if self.name == "drop_everywhere" => {
                Some(format!("drop-{num}-{den}"))
            }
            _ => Self::MATRIX.iter().find(|(_, make)| make() == *self).map(|(n, _)| (*n).to_owned()),
        }
    }

    /// Control row: the reliable layer runs but nothing is ever lost.
    /// Delivery must be byte-identical to an unprotected mesh.
    pub fn none() -> Self {
        FaultPlan { name: "fault_none", clauses: Vec::new() }
    }

    /// Uniform loss on every link: each hop of each frame drops with
    /// probability `num/den`.
    pub fn drop_everywhere(num: u64, den: u64) -> Self {
        FaultPlan::one("drop_everywhere", FlowMatch::ANY, FaultEffect::Drop { num, den })
    }

    /// Loss confined to the response vnet: Data, Nacks, LockdownAcks
    /// and Unblocks vanish — the messages the §3 argument leans on.
    pub fn drop_response() -> Self {
        FaultPlan::one("drop_response", FlowMatch::vnet(2), FaultEffect::Drop { num: 1, den: 10 })
    }

    /// Loss confined to the forward vnet (Inv / Fwd / Recall), so
    /// invalidations race their own retransmissions.
    pub fn drop_forward() -> Self {
        FaultPlan::one("drop_forward", FlowMatch::vnet(1), FaultEffect::Drop { num: 1, den: 10 })
    }

    /// Heavy duplication on every link: the dedup window does the work.
    pub fn duplicate_storm() -> Self {
        FaultPlan::one("duplicate_storm", FlowMatch::ANY, FaultEffect::Duplicate { num: 1, den: 5 })
    }

    /// Wire flips on every link: the checksum does the work.
    pub fn corrupt_everywhere() -> Self {
        FaultPlan::one(
            "corrupt_everywhere",
            FlowMatch::ANY,
            FaultEffect::CorruptPayload { num: 1, den: 10 },
        )
    }

    /// One very lossy directed link (20% per hop, any vnet).
    pub fn lossy_link(src: u16, dst: u16) -> Self {
        FaultPlan::one(
            "lossy_link",
            FlowMatch { src: Some(src), dst: Some(dst), touching: None, vnet: None },
            FaultEffect::Drop { num: 1, den: 5 },
        )
    }

    /// Everything at once: simultaneous loss, duplication and
    /// corruption on every link.
    pub fn mixed_misery() -> Self {
        FaultPlan {
            name: "mixed_misery",
            clauses: vec![
                FaultClause { flow: FlowMatch::ANY, effect: FaultEffect::Drop { num: 1, den: 15 } },
                FaultClause {
                    flow: FlowMatch::ANY,
                    effect: FaultEffect::Duplicate { num: 1, den: 15 },
                },
                FaultClause {
                    flow: FlowMatch::ANY,
                    effect: FaultEffect::CorruptPayload { num: 1, den: 15 },
                },
            ],
        }
    }

    /// The standard torture matrix, six lossy plans and more beside the
    /// `none` control, each by its campaign-spec name.
    pub const MATRIX: [crate::Named<FaultPlan>; 8] = [
        ("none", FaultPlan::none),
        ("drop-1-10", || FaultPlan::drop_everywhere(1, 10)),
        ("drop-response", FaultPlan::drop_response),
        ("drop-forward", FaultPlan::drop_forward),
        ("duplicate-storm", FaultPlan::duplicate_storm),
        ("corrupt-everywhere", FaultPlan::corrupt_everywhere),
        ("lossy-link", || FaultPlan::lossy_link(0, 1)),
        ("mixed-misery", FaultPlan::mixed_misery),
    ];

    /// The plans of [`FaultPlan::MATRIX`].
    pub fn matrix() -> Vec<FaultPlan> {
        Self::MATRIX.iter().map(|(_, make)| make()).collect()
    }

    /// True when no clause can ever fire.
    pub fn is_none(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Panics if any clause carries a malformed probability.
    ///
    /// # Panics
    ///
    /// A zero denominator or `num > den` (probability above 1).
    pub fn validate(&self) {
        for c in &self.clauses {
            let (num, den) = c.effect.prob();
            assert!(den > 0, "fault plan {}: zero denominator in {c}", self.name);
            assert!(num <= den, "fault plan {}: probability above 1 in {c}", self.name);
        }
    }
}

/// The fate of one frame at one hop, as decided by [`FaultEngine::at_hop`].
/// `drop` preempts the other effects (a dropped frame cannot also be
/// duplicated or corrupted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopFate {
    pub drop: bool,
    pub duplicate: bool,
    /// Non-zero value to XOR into the frame's carried checksum.
    pub corrupt: Option<u64>,
}

impl HopFate {
    /// Nothing happens to the frame.
    pub const CLEAN: HopFate = HopFate { drop: false, duplicate: false, corrupt: None };
}

/// Evaluates a [`FaultPlan`] per (frame, hop). Owned by the mesh.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    plan: FaultPlan,
    rng: SimRng,
    /// Frames dropped by the plan.
    pub dropped: u64,
    /// Duplicate copies injected by the plan.
    pub duplicated: u64,
    /// Frames whose checksum was flipped by the plan.
    pub corrupted: u64,
}

impl FaultEngine {
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        plan.validate();
        FaultEngine {
            plan,
            // Distinct stream from both the mesh jitter rng and the
            // chaos engine rng.
            rng: SimRng::new(seed ^ 0xfa_01_7b_ad_11_4c_70_55),
            dropped: 0,
            duplicated: 0,
            corrupted: 0,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide what happens to a frame of flow (`src`, `dst`, `vnet`)
    /// traversing one link. Exactly one Bernoulli draw per matching
    /// clause (plus one value draw per firing corruption), so the rng
    /// stream is a pure function of the frame/hop sequence.
    pub fn at_hop(&mut self, src: u16, dst: u16, vnet: u8) -> HopFate {
        let mut fate = HopFate::CLEAN;
        for clause in &self.plan.clauses {
            if !clause.flow.matches(src, dst, vnet) {
                continue;
            }
            match clause.effect {
                FaultEffect::Drop { num, den } => {
                    fate.drop |= self.rng.chance(num, den);
                }
                FaultEffect::Duplicate { num, den } => {
                    fate.duplicate |= self.rng.chance(num, den);
                }
                FaultEffect::CorruptPayload { num, den } => {
                    if self.rng.chance(num, den) {
                        // `| 1` keeps the XOR mask non-zero: a zero mask
                        // would be a corruption that corrupts nothing.
                        fate.corrupt = Some(self.rng.next_u64() | 1);
                    }
                }
            }
        }
        if fate.drop {
            fate.duplicate = false;
            fate.corrupt = None;
            self.dropped += 1;
        } else {
            if fate.duplicate {
                self.duplicated += 1;
            }
            if fate.corrupt.is_some() {
                self.corrupted += 1;
            }
        }
        fate
    }

    /// `(dropped, duplicated, corrupted)` so far.
    pub fn injected(&self) -> (u64, u64, u64) {
        (self.dropped, self.duplicated, self.corrupted)
    }
}

// The plan is config, rebuilt on restore: only the rng cursor and the
// audit counters travel.
crate::snap_component!(pub FaultEngine { rng, dropped, duplicated, corrupted });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let mut e = FaultEngine::new(FaultPlan::none(), 7);
        for i in 0..1_000u16 {
            assert_eq!(e.at_hop(i % 16, (i * 3) % 16, (i % 3) as u8), HopFate::CLEAN);
        }
        assert_eq!(e.injected(), (0, 0, 0));
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = FaultEngine::new(FaultPlan::mixed_misery(), 42);
            let mut fates = Vec::new();
            for i in 0..5_000u16 {
                fates.push(e.at_hop(i % 16, (i * 7) % 16, (i % 3) as u8));
            }
            (fates, e.injected())
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(ia.0 > 0 && ia.1 > 0 && ia.2 > 0, "mixed_misery never fired: {ia:?}");
    }

    #[test]
    fn drop_preempts_other_effects() {
        let mut e = FaultEngine::new(FaultPlan::mixed_misery(), 3);
        for i in 0..20_000u16 {
            let fate = e.at_hop(i % 16, i.wrapping_mul(5) % 16, (i % 3) as u8);
            if fate.drop {
                assert!(!fate.duplicate && fate.corrupt.is_none());
            }
        }
        assert!(e.dropped > 0);
    }

    #[test]
    fn matchers_confine_effects() {
        let mut e = FaultEngine::new(FaultPlan::drop_response(), 1);
        for i in 0..5_000u16 {
            // Request/forward vnets are never touched.
            assert_eq!(e.at_hop(i % 16, (i * 3) % 16, (i % 2) as u8), HopFate::CLEAN);
        }
        assert_eq!(e.dropped, 0);
        let mut hit = false;
        for i in 0..200u16 {
            hit |= e.at_hop(i % 16, (i * 3) % 16, 2).drop;
        }
        assert!(hit, "1/10 response drop never fired in 200 hops");
    }

    #[test]
    fn corruption_mask_is_nonzero() {
        let mut e = FaultEngine::new(
            FaultPlan::one("always", FlowMatch::ANY, FaultEffect::CorruptPayload { num: 1, den: 1 }),
            9,
        );
        for _ in 0..1_000 {
            let fate = e.at_hop(0, 1, 0);
            assert_ne!(fate.corrupt, Some(0));
            assert!(fate.corrupt.is_some());
        }
        assert_eq!(e.corrupted, 1_000);
    }

    #[test]
    #[should_panic(expected = "probability above 1")]
    fn validate_rejects_overfull_probability() {
        FaultPlan::one("bad", FlowMatch::ANY, FaultEffect::Drop { num: 3, den: 2 }).validate();
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn validate_rejects_zero_denominator() {
        FaultPlan::one("bad", FlowMatch::ANY, FaultEffect::Drop { num: 0, den: 0 }).validate();
    }

    #[test]
    fn plan_display_is_stable() {
        assert_eq!(FaultPlan::none().to_string(), "fault_none()");
        assert_eq!(
            FaultPlan::drop_everywhere(1, 10).to_string(),
            "drop_everywhere(*>*/vn*:drop1/10)"
        );
        assert_eq!(FaultPlan::drop_response().to_string(), "drop_response(*>*/vn2:drop1/10)");
        assert_eq!(FaultPlan::lossy_link(0, 1).to_string(), "lossy_link(0>1/vn*:drop1/5)");
        assert_eq!(
            FaultPlan::mixed_misery().to_string(),
            "mixed_misery(*>*/vn*:drop1/15;*>*/vn*:dup1/15;*>*/vn*:corrupt1/15)"
        );
        assert_eq!(FaultPlan::matrix().len(), 8);
        assert!(FaultPlan::matrix().iter().filter(|p| !p.is_none()).count() >= 6);
        for (name, make) in FaultPlan::MATRIX {
            assert_eq!((FaultPlan::by_name(name), make().spec_name()), (Ok(Some(make())), Some(name.to_owned())));
        }
        assert_eq!(FaultPlan::drop_everywhere(3, 7).spec_name().as_deref(), Some("drop-3-7"));
        assert_eq!(FaultPlan::lossy_link(2, 3).spec_name(), None, "a plan no name builds");
    }
}
