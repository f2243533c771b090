//! Calendar-wheel activity scheduler for the sparse engine.
//!
//! [`ActivitySched`] tracks, per simulated component ("unit"), the next
//! cycle at which that unit must be visited. The sparse engine
//! (`EngineMode::Sparse`) asks it each cycle for the set of *due* units
//! and ticks only those, so a 256-core machine pays O(active) per cycle
//! instead of O(cores + banks); when nothing is due, the wheel's
//! earliest wake is how far `now` may jump.
//!
//! # Structure
//!
//! The per-unit `wake` table is the source of truth: `wake[u]` is the
//! absolute cycle the unit is scheduled for, or [`ASLEEP`] if it has no
//! schedule. Index structures make "pop everything due" and "earliest
//! wake" cheap:
//!
//! - a classic calendar wheel of [`WHEEL`] buckets covering the cycles
//!   `[cursor, cursor + WHEEL)` — bucket `c & (WHEEL-1)` holds the units
//!   scheduled for the unique in-window cycle `c`;
//! - a `far` overflow list for schedules at or beyond `cursor + WHEEL`,
//!   migrated into the wheel lazily when the window reaches them;
//! - an `overdue` list for wakes posted at already-drained cycles
//!   (wake-on-message marks land "at `now`" after the probe for `now`
//!   already ran).
//!
//! Index entries are *lazily invalidated*: rescheduling a unit just
//! overwrites `wake[u]` and posts a new entry; a stale entry is
//! recognized (its recorded cycle no longer matches `wake[u]`) and
//! dropped when the drain sweeps past it. Popping a due unit sets its
//! wake to [`ASLEEP`] — the caller is expected to re-`set` the unit
//! after visiting it — which also deduplicates multiply-posted units.
//!
//! # Contract with the engines
//!
//! [`ActivitySched::take_due`] never loses a unit: every finite
//! `wake[u]` is covered by at least one index entry, so a unit whose
//! wake is `<= now` is always in the due set. [`ActivitySched::earliest`]
//! may return a cycle *earlier* than the true minimum (stale `far`
//! entries keep `far_min` as a lower bound) but never later — a
//! premature wake costs one no-op probe, a late one would desynchronize
//! the engines, so the bound is one-sided by construction.

use crate::snap::{Snap, SnapReader, SnapResult, SnapWriter};
use crate::Cycle;

/// Sentinel wake value: the unit has no schedule and will only run
/// again once someone posts a wake for it (message delivery, audit).
pub const ASLEEP: Cycle = Cycle::MAX;

/// Number of near-future buckets (power of two). One simulated window
/// of this many cycles is indexed exactly; anything further sits in the
/// `far` overflow list until the window reaches it.
const WHEEL: usize = 512;
const MASK: u64 = WHEEL as u64 - 1;

/// Per-component wake-time index (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ActivitySched {
    /// Source of truth: absolute wake cycle per unit, [`ASLEEP`] if none.
    wake: Vec<Cycle>,
    /// `buckets[c & MASK]` holds units scheduled for the unique cycle
    /// `c` in `[cursor, cursor + WHEEL)`; entries are lazily validated.
    buckets: Vec<Vec<u32>>,
    /// Schedules at or beyond `cursor + WHEEL`, as `(cycle, unit)`.
    far: Vec<(Cycle, u32)>,
    /// Lower bound on the earliest valid entry in `far` (`ASLEEP` when
    /// empty). Never above the true minimum, so migration can't be late.
    far_min: Cycle,
    /// Wakes posted at cycles the cursor has already drained past.
    overdue: Vec<u32>,
    /// All wheel cycles below this have been drained.
    cursor: Cycle,
}

impl ActivitySched {
    /// A wheel for `units` components, all asleep, window starting at 0.
    pub fn new(units: usize) -> Self {
        ActivitySched {
            wake: vec![ASLEEP; units],
            buckets: vec![Vec::new(); WHEEL],
            far: Vec::new(),
            far_min: ASLEEP,
            overdue: Vec::new(),
            cursor: 0,
        }
    }

    /// Number of registered units (0 for the dormant default).
    pub fn units(&self) -> usize {
        self.wake.len()
    }

    /// Start the window at `now`. Fresh wheels only (no schedule may
    /// have been posted yet) — used to build canonical snapshot tables
    /// whose cursor matches the system clock.
    pub fn advance_to(&mut self, now: Cycle) {
        debug_assert!(self.wake.iter().all(|&c| c == ASLEEP), "advance_to on a live wheel");
        self.cursor = now;
    }

    /// Current scheduled wake of `u` (`None` = asleep). Test/snapshot
    /// introspection; engines use [`ActivitySched::take_due`].
    pub fn wake_of(&self, u: usize) -> Option<Cycle> {
        match self.wake[u] {
            ASLEEP => None,
            c => Some(c),
        }
    }

    /// Post an index entry for `u` at `c`. `wake[u]` must already be `c`.
    fn post(&mut self, u: u32, c: Cycle) {
        if c < self.cursor {
            self.overdue.push(u);
        } else if c - self.cursor < WHEEL as u64 {
            self.buckets[(c & MASK) as usize].push(u);
        } else {
            self.far.push((c, u));
            self.far_min = self.far_min.min(c);
        }
    }

    /// Ensure `u` runs no later than cycle `c` (wake-on-message). Keeps
    /// an earlier existing schedule; moves a later one up.
    pub fn wake_at(&mut self, u: usize, c: Cycle) {
        if self.wake[u] <= c {
            return;
        }
        self.wake[u] = c;
        self.post(u as u32, c);
    }

    /// Replace `u`'s schedule with `at` (`None` = sleep until woken).
    /// This is what engines call after visiting a unit, feeding its
    /// `next_event` hook back into the wheel.
    pub fn set(&mut self, u: usize, at: Option<Cycle>) {
        let c = at.unwrap_or(ASLEEP);
        if self.wake[u] == c {
            return;
        }
        self.wake[u] = c;
        if c != ASLEEP {
            self.post(u as u32, c);
        }
    }

    /// Schedule every unit at `now` — the conservative reset used at
    /// construction and around an audit (whose scrub may touch any
    /// component). Spurious wakes are
    /// harmless: a quiescent unit's visit is a no-op.
    pub fn wake_all(&mut self, now: Cycle) {
        for u in 0..self.wake.len() {
            self.wake_at(u, now);
        }
    }

    /// Pop every unit with `wake <= now` into `out` (appending), leaving
    /// each popped unit [`ASLEEP`] until the caller re-`set`s it, and
    /// advance the window cursor to `now + 1`. `now` must be monotonic
    /// across calls. Emission order is not specified — callers needing
    /// a deterministic visit order sort the (small) due set.
    pub fn take_due(&mut self, now: Cycle, out: &mut Vec<u32>) {
        // Overdue wakes: posted at already-drained cycles, all due by
        // construction (their cycles are below the cursor, hence <= now).
        let mut i = 0;
        while i < self.overdue.len() {
            let u = self.overdue[i] as usize;
            if self.wake[u] <= now {
                self.wake[u] = ASLEEP;
                out.push(u as u32);
            }
            // A non-due entry is stale (the unit was rescheduled into
            // the future and has a fresh entry elsewhere): drop it too.
            i += 1;
        }
        self.overdue.clear();
        // Window drain up to `now`.
        if now >= self.cursor {
            if now - self.cursor >= WHEEL as u64 {
                // The whole indexed window is in the past: drain every
                // bucket. Every valid entry's cycle is <= now, so the
                // wake value alone decides validity.
                for b in 0..WHEEL {
                    let mut k = 0;
                    while k < self.buckets[b].len() {
                        let u = self.buckets[b][k] as usize;
                        if self.wake[u] <= now {
                            self.wake[u] = ASLEEP;
                            out.push(u as u32);
                        }
                        k += 1;
                    }
                    self.buckets[b].clear();
                }
            } else {
                let mut c = self.cursor;
                while c <= now {
                    let b = (c & MASK) as usize;
                    let mut k = 0;
                    while k < self.buckets[b].len() {
                        let u = self.buckets[b][k] as usize;
                        // Entries in this bucket were posted for cycle
                        // `c` exactly; anything else is stale.
                        if self.wake[u] == c {
                            self.wake[u] = ASLEEP;
                            out.push(u as u32);
                        }
                        k += 1;
                    }
                    self.buckets[b].clear();
                    c += 1;
                }
            }
            self.cursor = now + 1;
        }
        // Migrate far entries the advanced window now covers (and pop
        // the ones that are already due — a jump can overshoot far_min).
        if self.far_min < self.cursor + WHEEL as u64 {
            let mut min = ASLEEP;
            let mut k = 0;
            while k < self.far.len() {
                let (c, u) = self.far[k];
                if self.wake[u as usize] != c {
                    // Stale: drop by swap-removal.
                    self.far.swap_remove(k);
                    continue;
                }
                if c <= now {
                    self.wake[u as usize] = ASLEEP;
                    out.push(u);
                    self.far.swap_remove(k);
                } else if c - self.cursor < WHEEL as u64 {
                    self.buckets[(c & MASK) as usize].push(u);
                    self.far.swap_remove(k);
                } else {
                    min = min.min(c);
                    k += 1;
                }
            }
            self.far_min = min;
        }
    }

    /// Earliest scheduled wake across all units, `None` when everything
    /// sleeps. May be a *lower bound* (never late — see module docs):
    /// the caller treats a premature value as a spurious probe point.
    pub fn earliest(&self) -> Option<Cycle> {
        let mut min = ASLEEP;
        let mut k = 0;
        while k < self.overdue.len() {
            let u = self.overdue[k] as usize;
            // Valid overdue entries still point below the cursor.
            if self.wake[u] < self.cursor {
                min = min.min(self.wake[u]);
            }
            k += 1;
        }
        if min == ASLEEP {
            // Ascending scan of the indexed window: the first bucket
            // with a valid entry holds the in-window minimum.
            let mut off = 0u64;
            'scan: while off < WHEEL as u64 {
                let c = self.cursor + off;
                let b = (c & MASK) as usize;
                let mut k = 0;
                while k < self.buckets[b].len() {
                    if self.wake[self.buckets[b][k] as usize] == c {
                        min = c;
                        break 'scan;
                    }
                    k += 1;
                }
                off += 1;
            }
        }
        if !self.far.is_empty() {
            min = min.min(self.far_min);
        }
        match min {
            ASLEEP => None,
            c => Some(c),
        }
    }
}

/// The serialized form is canonical: only `(cursor, wake table)` — the
/// derived index structures (buckets, far list, overdue list) are
/// rebuilt on restore, so two wheels with the same logical schedule
/// snapshot to identical bytes regardless of posting history. (Hence
/// not a declaration: the decoder re-posts every wake it reads.)
impl Snap for ActivitySched {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cursor);
        w.usize(self.wake.len());
        for &c in &self.wake {
            w.u64(c);
        }
    }

    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let cursor = r.u64()?;
        let units = r.len_for(8)?;
        let mut s = ActivitySched::new(units);
        s.cursor = cursor;
        for u in 0..units {
            let c = r.u64()?;
            if c != ASLEEP {
                s.wake[u] = c;
                s.post(u as u32, c);
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run as proprun;
    use crate::snap;
    use crate::SimRng;

    fn drain(s: &mut ActivitySched, now: Cycle) -> Vec<u32> {
        let mut v = Vec::new();
        s.take_due(now, &mut v);
        v.sort_unstable();
        v
    }

    #[test]
    fn due_units_pop_once_and_sleep() {
        let mut s = ActivitySched::new(4);
        s.set(0, Some(5));
        s.set(1, Some(5));
        s.set(2, Some(9));
        assert_eq!(s.earliest(), Some(5));
        assert_eq!(drain(&mut s, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut s, 5), vec![0, 1]);
        assert_eq!(s.wake_of(0), None);
        assert_eq!(s.earliest(), Some(9));
        assert_eq!(drain(&mut s, 9), vec![2]);
        assert_eq!(s.earliest(), None);
    }

    #[test]
    fn wake_at_only_moves_schedules_earlier() {
        let mut s = ActivitySched::new(2);
        s.set(0, Some(100));
        s.wake_at(0, 200); // later: ignored
        assert_eq!(s.wake_of(0), Some(100));
        s.wake_at(0, 3); // earlier: wins
        assert_eq!(s.wake_of(0), Some(3));
        assert_eq!(drain(&mut s, 3), vec![0]);
        // The stale entry at 100 must not resurface.
        assert_eq!(drain(&mut s, 100), Vec::<u32>::new());
    }

    #[test]
    fn overdue_wakes_are_not_lost() {
        let mut s = ActivitySched::new(2);
        assert_eq!(drain(&mut s, 10), Vec::<u32>::new()); // cursor -> 11
        s.wake_at(0, 10); // posted behind the cursor
        assert_eq!(s.earliest(), Some(10));
        assert_eq!(drain(&mut s, 11), vec![0]);
    }

    #[test]
    fn far_schedules_survive_window_jumps() {
        let mut s = ActivitySched::new(3);
        s.set(0, Some(WHEEL as u64 * 10)); // far list
        s.set(1, Some(WHEEL as u64 * 10 + 7));
        assert_eq!(s.earliest(), Some(WHEEL as u64 * 10));
        // Jump straight past both (jump overshoot): both pop at once.
        assert_eq!(drain(&mut s, WHEEL as u64 * 11), vec![0, 1]);
        // Migration into the window without being due yet.
        s.set(2, Some(WHEEL as u64 * 12 + 3));
        assert_eq!(drain(&mut s, WHEEL as u64 * 12), Vec::<u32>::new());
        assert_eq!(s.earliest(), Some(WHEEL as u64 * 12 + 3));
        assert_eq!(drain(&mut s, WHEEL as u64 * 12 + 3), vec![2]);
    }

    #[test]
    fn reschedule_to_far_invalidates_window_entry() {
        let mut s = ActivitySched::new(1);
        s.set(0, Some(4));
        s.set(0, Some(WHEEL as u64 * 3)); // window entry at 4 now stale
        assert_eq!(drain(&mut s, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut s, WHEEL as u64 * 3), vec![0]);
    }

    #[test]
    fn snapshot_is_canonical_and_roundtrips() {
        let mut a = ActivitySched::new(8);
        let mut b = ActivitySched::new(8);
        // Same logical schedule, different posting history.
        a.set(3, Some(700));
        a.set(3, Some(40));
        a.set(5, Some(9_000));
        b.set(5, Some(9_000));
        b.wake_at(3, 40);
        let bytes_a = snap::snapshot(|w| a.snap(w));
        let bytes_b = snap::snapshot(|w| b.snap(w));
        assert_eq!(bytes_a, bytes_b, "snapshot must not encode posting history");
        let mut r = snap::open(&bytes_a).unwrap();
        let mut c = ActivitySched::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(c.earliest(), Some(40));
        assert_eq!(drain(&mut c, 40), vec![3]);
        assert_eq!(drain(&mut c, 9_000), vec![5]);
    }

    /// Oracle check: against a naive "scan the wake table" model, the
    /// wheel must pop exactly the due set and `earliest` must never be
    /// later than the true minimum, through random schedule churn and
    /// jumps of arbitrary width.
    #[test]
    fn wheel_matches_linear_scan_oracle() {
        proprun("sched_oracle", 64, |rng: &mut SimRng| {
            let units = 1 + rng.below(24) as usize;
            let mut s = ActivitySched::new(units);
            let mut now: Cycle = 0;
            for _ in 0..200 {
                match rng.below(4) {
                    0 => {
                        let u = rng.below(units as u64) as usize;
                        let c = now + rng.below(3 * WHEEL as u64);
                        s.wake_at(u, c);
                    }
                    1 => {
                        let u = rng.below(units as u64) as usize;
                        let at = if rng.below(4) == 0 {
                            None
                        } else {
                            Some(now + rng.below(3 * WHEEL as u64))
                        };
                        s.set(u, at);
                    }
                    _ => {
                        // Advance: short step or a window-sized jump.
                        now += if rng.below(3) == 0 {
                            rng.below(2 * WHEEL as u64)
                        } else {
                            rng.below(8)
                        };
                        if let Some(e) = s.earliest() {
                            let true_min =
                                (0..units).filter_map(|u| s.wake_of(u)).min();
                            assert!(
                                true_min.is_none_or(|m| e <= m),
                                "earliest() returned {e}, true min {true_min:?}"
                            );
                        } else {
                            assert!(
                                (0..units).all(|u| s.wake_of(u).is_none()),
                                "earliest() == None with live schedules"
                            );
                        }
                        let expect: Vec<u32> = (0..units as u32)
                            .filter(|&u| {
                                s.wake_of(u as usize).is_some_and(|c| c <= now)
                            })
                            .collect();
                        let mut got = Vec::new();
                        s.take_due(now, &mut got);
                        got.sort_unstable();
                        assert_eq!(got, expect, "due set diverged at {now}");
                        // Re-arm popped units like an engine would.
                        for &u in &got {
                            if rng.below(3) != 0 {
                                s.set(u as usize, Some(now + 1 + rng.below(64)));
                            }
                        }
                    }
                }
            }
            Ok(())
        });
    }
}
