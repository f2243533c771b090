//! Soft-error injection into *stored* protocol state.
//!
//! PR 4's fault layer attacks frames on the wire; this module attacks
//! the bytes at rest that every protocol action trusts: cache line
//! state/tags, directory entry state, sharer-set words and MSHR
//! bookkeeping fields. A [`SoftPlan`] is a set of (target, mean-gap)
//! clauses evaluated by a [`SoftEngine`] **between ticks** (the system
//! applies due flips at the top of each cycle), so a plan that
//! never fires leaves runs byte-identical.
//!
//! Detection is a parity/ECC model: protected structures carry a
//! [`guard_hash`] over their protected words, refreshed on every
//! legitimate write. A flip leaves the guard stale and is caught at the
//! next access, and the owner of the structure recovers: a cache
//! decodes the true state from the guard and restores the line in
//! place, an MSHR is corrected from its ECC shadow, and a directory
//! bank purges the line from every core.
//!
//! Determinism: the engine's only randomness is a [`SimRng`] stream
//! distinct from the mesh jitter, chaos and fault streams. The firing
//! *schedule* is a pure function of (seed, plan) — it never consults
//! machine state — so every engine mode flips the same bits on the
//! same cycles. Victim selection draws from the same stream
//! at fire time, when all engines agree on machine state. A plan is
//! pure data and appears verbatim in wedge-report reproducer lines, so
//! its `Display` must stay stable.

use crate::rng::SimRng;
use crate::Cycle;
use std::fmt;

/// Which stored structure a clause flips bits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftTarget {
    /// A private-cache L2 line's coherence state (scrambled to another
    /// stable state).
    CacheState,
    /// A private-cache L2 line's stored tag word (one bit flipped).
    CacheTag,
    /// A directory entry's stable state (scrambled to another stable
    /// state).
    DirState,
    /// One bit of a Shared directory entry's sharer set.
    Sharers,
    /// One bit of an outstanding MSHR's ack/flag bookkeeping.
    Mshr,
}

impl SoftTarget {
    /// Static name, used in plan rendering and per-target counters.
    pub fn label(self) -> &'static str {
        match self {
            SoftTarget::CacheState => "cstate",
            SoftTarget::CacheTag => "ctag",
            SoftTarget::DirState => "dstate",
            SoftTarget::Sharers => "sharers",
            SoftTarget::Mshr => "mshr",
        }
    }
}

impl fmt::Display for SoftTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One target × rate pair: a flip lands on `target` on average every
/// `mean_gap` cycles (each gap drawn uniformly from `1..=2*mean_gap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftClause {
    pub target: SoftTarget,
    pub mean_gap: u64,
}

impl fmt::Display for SoftClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}~{}", self.target, self.mean_gap)
    }
}

/// A named, reproducible soft-error schedule. Appears verbatim in
/// reproducer lines, so `Display` must stay stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftPlan {
    pub name: &'static str,
    pub clauses: Vec<SoftClause>,
}

impl fmt::Display for SoftPlan {
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

impl SoftPlan {
    /// A single-clause plan — the building block for custom scenarios.
    pub fn one(name: &'static str, target: SoftTarget, mean_gap: u64) -> Self {
        SoftPlan { name, clauses: vec![SoftClause { target, mean_gap }] }
    }

    /// The plan a campaign spec names `name`; `"off"` is none. A `-xN`
    /// suffix accelerates every clause rate `N`-fold (mean gaps
    /// divided) — e.g. `"background-radiation-x20"` — because the
    /// standard matrix rates are soak-tuned and short campaign cells
    /// would otherwise finish before a single strike lands.
    ///
    /// # Errors
    ///
    /// Fails on an unknown name or a zero or malformed acceleration.
    pub fn by_name(name: &str) -> Result<Option<SoftPlan>, String> {
        if name == "off" {
            return Ok(None);
        }
        let (base, accel) = match name.rsplit_once("-x") {
            Some((b, n)) if !n.is_empty() && n.bytes().all(|c| c.is_ascii_digit()) => {
                let n: u64 = n.parse().map_err(|_| format!("bad acceleration in `{name}`"))?;
                if n == 0 {
                    return Err(format!("zero acceleration in `{name}`"));
                }
                (b, n)
            }
            _ => (name, 1),
        };
        let (_, make) = Self::MATRIX.iter().find(|(n, _)| *n == base).ok_or_else(|| format!("unknown soft plan `{base}`"))?;
        Ok(Some(if accel > 1 { make().accelerated(accel) } else { make() }))
    }

    /// Inverse of [`SoftPlan::by_name`]: the name that builds this plan,
    /// if one does.
    pub fn spec_name(&self) -> Option<String> {
        let (base, make) = Self::MATRIX.iter().find(|(_, make)| make().name == self.name)?;
        let accel = match (make().clauses.first(), self.clauses.first()) {
            (Some(p), Some(s)) => p.mean_gap / s.mean_gap.max(1),
            _ => 1,
        };
        let name = if accel > 1 { format!("{base}-x{accel}") } else { (*base).to_owned() };
        (Self::by_name(&name).ok()?.as_ref() == Some(self)).then_some(name)
    }

    /// Control row: guards are maintained and checked but no flip ever
    /// lands. Runs must be byte-identical to `cfg.soft = None`.
    pub fn none() -> Self {
        SoftPlan { name: "soft_none", clauses: Vec::new() }
    }

    /// Frequent cache-state scrambles.
    pub fn cache_state_storm() -> Self {
        SoftPlan::one("cache_state_storm", SoftTarget::CacheState, 2_000)
    }

    /// Stored-tag bit flips in the private caches.
    pub fn tag_flips() -> Self {
        SoftPlan::one("tag_flips", SoftTarget::CacheTag, 3_000)
    }

    /// Frequent directory-state scrambles.
    pub fn dir_state_storm() -> Self {
        SoftPlan::one("dir_state_storm", SoftTarget::DirState, 2_000)
    }

    /// Sharer-set bit flips: the forgotten-sharer / phantom-sharer model.
    pub fn sharer_bits() -> Self {
        SoftPlan::one("sharer_bits", SoftTarget::Sharers, 2_000)
    }

    /// MSHR ack/flag bookkeeping flips.
    pub fn mshr_fields() -> Self {
        SoftPlan::one("mshr_fields", SoftTarget::Mshr, 1_500)
    }

    /// Every structure at a low background rate — the cosmic-ray soak.
    pub fn background_radiation() -> Self {
        SoftPlan {
            name: "background_radiation",
            clauses: vec![
                SoftClause { target: SoftTarget::CacheState, mean_gap: 8_000 },
                SoftClause { target: SoftTarget::CacheTag, mean_gap: 8_000 },
                SoftClause { target: SoftTarget::DirState, mean_gap: 8_000 },
                SoftClause { target: SoftTarget::Sharers, mean_gap: 8_000 },
                SoftClause { target: SoftTarget::Mshr, mean_gap: 8_000 },
            ],
        }
    }

    /// Both coherence books corrupted at once: cache state and
    /// directory state flipping on overlapping windows.
    pub fn double_entry() -> Self {
        SoftPlan {
            name: "double_entry",
            clauses: vec![
                SoftClause { target: SoftTarget::CacheState, mean_gap: 4_000 },
                SoftClause { target: SoftTarget::DirState, mean_gap: 4_000 },
            ],
        }
    }

    /// The standard torture matrix, six flipping plans and more beside
    /// the `none` control, each by its campaign-spec name.
    pub const MATRIX: [crate::Named<SoftPlan>; 8] = [
        ("none", SoftPlan::none),
        ("cache-state-storm", SoftPlan::cache_state_storm),
        ("tag-flips", SoftPlan::tag_flips),
        ("dir-state-storm", SoftPlan::dir_state_storm),
        ("sharer-bits", SoftPlan::sharer_bits),
        ("mshr-fields", SoftPlan::mshr_fields),
        ("background-radiation", SoftPlan::background_radiation),
        ("double-entry", SoftPlan::double_entry),
    ];

    /// The plans of [`SoftPlan::MATRIX`].
    pub fn matrix() -> Vec<SoftPlan> {
        Self::MATRIX.iter().map(|(_, make)| make()).collect()
    }

    /// The same schedule with every rate accelerated `div`-fold (mean
    /// gaps divided, floored at 1 cycle). The matrix rates are tuned
    /// for long soaks; short torture runs accelerate them so every
    /// plan still lands strikes. The clause rates print in `Display`,
    /// so reproducer lines stay faithful.
    #[must_use]
    pub fn accelerated(mut self, div: u64) -> Self {
        assert!(div > 0, "soft plan {}: zero acceleration divisor", self.name);
        for c in &mut self.clauses {
            c.mean_gap = (c.mean_gap / div).max(1);
        }
        self
    }

    /// True when no clause can ever fire.
    pub fn is_none(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Panics if any clause carries a malformed rate.
    ///
    /// # Panics
    ///
    /// A zero mean gap (the schedule would fire every cycle forever).
    pub fn validate(&self) {
        for c in &self.clauses {
            assert!(c.mean_gap > 0, "soft plan {}: zero mean gap in {c}", self.name);
        }
    }
}

/// Deterministic guard hash over a structure's protected words — the
/// in-tree parity/ECC code. 64 output bits make accidental collisions
/// (a flip that leaves the guard valid) vanishingly unlikely, and let
/// the cache side *decode* the true pre-flip state by re-hashing each
/// candidate value against the stored guard.
pub fn guard_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
    }
    h
}

/// Evaluates a [`SoftPlan`]: one independent renewal schedule per
/// clause. Owned by the system; flips are applied between ticks.
#[derive(Debug, Clone)]
pub struct SoftEngine {
    plan: SoftPlan,
    rng: SimRng,
    /// Next fire cycle of each clause (parallel to `plan.clauses`).
    next_at: Vec<Cycle>,
    /// Flips that landed on an eligible victim.
    pub injected: u64,
    /// Fires that found no eligible victim (structure empty or already
    /// wounded) and were skipped.
    pub missed: u64,
}

/// Salt keeping the soft stream distinct from the mesh jitter, chaos
/// and link-fault streams.
const SOFT_SALT: u64 = 0x50f7_e44a_12b1_7f1e;

impl SoftEngine {
    pub fn new(plan: SoftPlan, seed: u64) -> Self {
        plan.validate();
        let mut rng = SimRng::new(seed ^ SOFT_SALT);
        let next_at = plan.clauses.iter().map(|c| 1 + rng.below(2 * c.mean_gap)).collect();
        SoftEngine { plan, rng, next_at, injected: 0, missed: 0 }
    }

    pub fn plan(&self) -> &SoftPlan {
        &self.plan
    }

    /// The earliest cycle at which any clause fires — a system deadline
    /// the sparse engine's jump never crosses, so no flip is skipped.
    pub fn next_fire(&self) -> Option<Cycle> {
        self.next_at.iter().copied().min()
    }

    /// Collect every clause due at `now` and reschedule each. The
    /// returned targets are applied by the caller (which owns the
    /// structures); call [`SoftEngine::note_applied`] /
    /// [`SoftEngine::note_missed`] per target with the outcome.
    pub fn fire(&mut self, now: Cycle) -> Vec<SoftTarget> {
        let mut due = Vec::new();
        for (i, c) in self.plan.clauses.iter().enumerate() {
            if self.next_at[i] <= now {
                due.push(c.target);
                self.next_at[i] = now + 1 + self.rng.below(2 * c.mean_gap);
            }
        }
        due
    }

    /// The victim-selection stream: drawn at fire time, after the
    /// schedule draws, so it stays a pure function of the fire sequence.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// A due flip landed on an eligible victim.
    pub fn note_applied(&mut self) {
        self.injected += 1;
    }

    /// A due flip found no eligible victim and was skipped.
    pub fn note_missed(&mut self) {
        self.missed += 1;
    }
}

// The plan is config, rebuilt on restore: the rng cursor, the
// per-clause schedule and the counters travel.
crate::snap_component!(pub SoftEngine { rng, next_at, injected, missed });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let mut e = SoftEngine::new(SoftPlan::none(), 7);
        assert_eq!(e.next_fire(), None);
        for now in 0..10_000 {
            assert!(e.fire(now).is_empty());
        }
        assert_eq!((e.injected, e.missed), (0, 0));
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = SoftEngine::new(SoftPlan::background_radiation(), 42);
            let mut fires = Vec::new();
            let mut now = 0;
            while now < 200_000 {
                let at = e.next_fire().expect("plan has clauses");
                now = at;
                for t in e.fire(now) {
                    fires.push((now, t, e.rng_mut().next_u64()));
                }
            }
            fires
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.len() > 50, "background radiation barely fired: {}", a.len());
    }

    #[test]
    fn schedule_is_engine_independent() {
        // A dense scan (fire probed at every cycle) and a skip scan
        // (jump straight to next_fire) must see the same schedule.
        let dense = {
            let mut e = SoftEngine::new(SoftPlan::double_entry(), 9);
            let mut fires = Vec::new();
            for now in 0..100_000 {
                for t in e.fire(now) {
                    fires.push((now, t));
                }
            }
            fires
        };
        let skip = {
            let mut e = SoftEngine::new(SoftPlan::double_entry(), 9);
            let mut fires = Vec::new();
            while let Some(at) = e.next_fire() {
                if at >= 100_000 {
                    break;
                }
                for t in e.fire(at) {
                    fires.push((at, t));
                }
            }
            fires
        };
        assert_eq!(dense, skip);
    }

    #[test]
    fn mean_gap_is_roughly_respected() {
        let mut e = SoftEngine::new(SoftPlan::one("t", SoftTarget::Sharers, 1_000), 3);
        let mut count = 0u64;
        for now in 0..1_000_000u64 {
            count += e.fire(now).len() as u64;
        }
        // Renewal with mean ~1000.5: expect ~999 fires; allow wide slack.
        assert!((600..1600).contains(&count), "fires={count}");
    }

    #[test]
    fn guard_hash_is_stable_and_sensitive() {
        let g = guard_hash(&[0x40, 2]);
        assert_eq!(g, guard_hash(&[0x40, 2]), "pure function");
        assert_ne!(g, guard_hash(&[0x41, 2]), "tag bit visible");
        assert_ne!(g, guard_hash(&[0x40, 3]), "state bit visible");
        assert_ne!(guard_hash(&[]), guard_hash(&[0]));
        // Every single-bit corruption of a word is visible.
        for bit in 0..64 {
            assert_ne!(g, guard_hash(&[0x40 ^ (1u64 << bit), 2]), "bit {bit}");
        }
    }

    #[test]
    #[should_panic(expected = "zero mean gap")]
    fn validate_rejects_zero_gap() {
        SoftPlan::one("bad", SoftTarget::Mshr, 0).validate();
    }

    #[test]
    fn plan_display_is_stable() {
        assert_eq!(SoftPlan::none().to_string(), "soft_none()");
        assert_eq!(SoftPlan::cache_state_storm().to_string(), "cache_state_storm(cstate~2000)");
        assert_eq!(SoftPlan::sharer_bits().to_string(), "sharer_bits(sharers~2000)");
        assert_eq!(SoftPlan::double_entry().to_string(), "double_entry(cstate~4000;dstate~4000)");
        assert_eq!(
            SoftPlan::background_radiation().to_string(),
            "background_radiation(cstate~8000;ctag~8000;dstate~8000;sharers~8000;mshr~8000)"
        );
        assert_eq!(SoftPlan::matrix().len(), 8);
        assert!(SoftPlan::matrix().iter().filter(|p| !p.is_none()).count() >= 6);
        for (name, make) in SoftPlan::MATRIX {
            assert_eq!((SoftPlan::by_name(name), make().spec_name()), (Ok(Some(make())), Some(name.to_owned())));
        }
        let fast = SoftPlan::cache_state_storm().accelerated(100);
        assert_eq!(fast.spec_name().as_deref(), Some("cache-state-storm-x100"));
        assert_eq!(SoftPlan::one("custom", SoftTarget::Mshr, 9).spec_name(), None, "a plan no name builds");
    }
}
