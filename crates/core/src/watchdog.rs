//! The wedge watchdog's bookkeeping for one [`System::run`](crate::System::run).
//!
//! The watchdog tracks the last cycle at which *each* core retired an
//! instruction (not a global sum: one spinning core retiring forever
//! must not mask a permanently wedged neighbour) and trips when the
//! worst per-core stall — or, once every core has drained, the time the
//! memory system has failed to go idle — exceeds the stall window.
//!
//! One step costs O(cores the engine visited), not O(cores). That rests
//! on an invariant every engine keeps: *only a visited core can retire
//! or drain*. The entries of the cores a cycle did not visit are
//! therefore exactly what a walk over every core would leave behind, so
//! the run loop hands in the visited cores only ([`Watchdog::observe`]).
//! The oldest last-progress cycle of the non-drained cores can only
//! move forward (entries only grow, cores only leave by draining), so a
//! stale value of it stays a valid *lower bound*: the exact minimum —
//! one pass over every core, counted in [`Watchdog::rescans`] — is
//! taken only when that bound says a trip, or a binding jump cap, is
//! possible. Trip cycle and jump targets are those of the full walk.

use std::collections::VecDeque;
use wb_kernel::Cycle;

/// Retry-counter snapshot cadence in cycles (a power of two).
const SNAP_EVERY: u64 = 8192;
const SNAPS_KEPT: usize = 64;

/// Per-run watchdog state. Lives in `System` so its buffers are reused
/// across runs (campaign cells make hundreds of short ones).
#[derive(Debug, Default)]
pub(crate) struct Watchdog {
    stall_window: u64,
    /// Per core: `(retired, cycle of the check that last saw it move)`.
    /// Entries of drained cores are stale and never read.
    progress: Vec<(u64, Cycle)>,
    drained: Vec<bool>,
    drained_count: usize,
    /// Lower bound on the oldest `progress[i].1` of a non-drained core.
    bound: Cycle,
    /// The cycle from which every core has been drained with the memory
    /// system still busy.
    drained_since: Option<Cycle>,
    /// `(cycle, retry activity)` at every [`SNAP_EVERY`] boundary: the
    /// baseline that tells a livelock from a deadlock at trip time.
    snaps: VecDeque<(Cycle, u64)>,
    /// Passes over every unit taken so far, over all runs: this
    /// module's own (run set-up, exact minimum) plus the run loop's full
    /// fault scans and all-core observations. Diagnostic only.
    pub(crate) rescans: u64,
}

impl Watchdog {
    /// Reset for a run that starts at `now`. `cores` yields every
    /// core's `(retired, drained)`; `activity` is the retry activity so
    /// far.
    pub(crate) fn start(
        &mut self,
        now: Cycle,
        stall_window: u64,
        activity: u64,
        cores: impl Iterator<Item = (u64, bool)>,
    ) {
        self.stall_window = stall_window;
        self.progress.clear();
        self.drained.clear();
        self.drained_count = 0;
        for (retired, drained) in cores {
            self.progress.push((retired, now));
            self.drained.push(drained);
            self.drained_count += usize::from(drained);
        }
        self.bound = now;
        self.drained_since = None;
        self.snaps.clear();
        self.snaps.push_back((now, activity));
        self.rescans += 1;
    }

    /// Has every core drained? Only then can the machine be done.
    pub(crate) fn all_drained(&self) -> bool {
        self.drained_count == self.drained.len()
    }

    /// Record core `i`'s state after a cycle that visited it; `now` is
    /// the cycle after that tick.
    pub(crate) fn observe(&mut self, now: Cycle, i: usize, retired: u64, drained: bool) {
        debug_assert!(
            drained || !self.drained[i],
            "core {i} un-drained within a run"
        );
        if self.drained[i] {
            return;
        }
        if drained {
            self.drained[i] = true;
            self.drained_count += 1;
        } else if retired != self.progress[i].0 {
            self.progress[i] = (retired, now);
        }
    }

    /// The exact oldest last-progress cycle of the non-drained cores.
    fn oldest_progress(&mut self) -> Cycle {
        self.rescans += 1;
        self.bound = self
            .progress
            .iter()
            .zip(&self.drained)
            .filter(|&(_, &d)| !d)
            .map(|(p, _)| p.1)
            .min()
            .expect("a non-drained core exists");
        self.bound
    }

    /// The post-tick check, after every visited core was observed: has
    /// some core (or, with all of them drained, the memory system)
    /// stalled for more than the window?
    pub(crate) fn tripped(&mut self, now: Cycle) -> bool {
        let since = if self.all_drained() {
            // Cores finished but the machine is not done: the memory
            // system (MSHRs / directory / mesh) is wedged. No core will
            // ever retire again, so measure from the moment everything
            // drained.
            *self.drained_since.get_or_insert(now)
        } else if now - self.bound <= self.stall_window {
            return false;
        } else {
            self.oldest_progress()
        };
        now - since > self.stall_window
    }

    /// Where a jump from `now` towards `wake` lands: capped at the
    /// cycle of the last tick the watchdog lets run before it trips,
    /// and at `deadline`. Ticking trips when, after the tick at cycle
    /// `c`, `c + 1 - base > stall_window` — so the last tick is at
    /// `base + stall_window`. `base` is the oldest progress cycle of a
    /// non-drained core or, once every core has drained, the cycle the
    /// post-tick check first observed that (which, during an inert
    /// window, is one past the current cycle).
    pub(crate) fn jump_target(&mut self, now: Cycle, wake: Cycle, deadline: Cycle) -> Cycle {
        let base = if self.all_drained() {
            *self.drained_since.get_or_insert(now + 1)
        } else if wake <= self.bound.saturating_add(self.stall_window) {
            // The cap is at least this far out: it cannot bind.
            return wake.min(deadline);
        } else {
            self.oldest_progress()
        };
        wake.min(base.saturating_add(self.stall_window))
            .min(deadline)
    }

    fn push_snap(&mut self, at: Cycle, activity: u64) {
        self.snaps.push_back((at, activity));
        while self.snaps.len() > SNAPS_KEPT {
            self.snaps.pop_front();
        }
    }

    /// After the tick that led to `now`: take the snapshot due on a
    /// [`SNAP_EVERY`] boundary.
    pub(crate) fn note_cycle(&mut self, now: Cycle, activity: impl FnOnce() -> u64) {
        if now.is_multiple_of(SNAP_EVERY) {
            self.push_snap(now, activity());
        }
    }

    /// Synthesize the snapshots ticking would have taken at the
    /// boundaries inside a jumped window `start..=target`; retry
    /// activity is constant while nothing executes. `activity` (a walk
    /// over every component) is only evaluated when a boundary is
    /// crossed.
    pub(crate) fn note_jump(
        &mut self,
        start: Cycle,
        target: Cycle,
        activity: impl FnOnce() -> u64,
    ) {
        let mut b = (start / SNAP_EVERY + 1) * SNAP_EVERY;
        if b > target {
            return;
        }
        let activity = activity();
        while b <= target {
            self.push_snap(b, activity);
            b += SNAP_EVERY;
        }
    }

    /// Retry activity accumulated over the stall window that ends at
    /// `now`: `activity_now` minus the newest snapshot at least a full
    /// window old (falling back to the oldest kept).
    pub(crate) fn retries_in_window(&self, now: Cycle, activity_now: u64) -> u64 {
        let base = self
            .snaps
            .iter()
            .rev()
            .find(|(t, _)| now.saturating_sub(*t) >= self.stall_window)
            .or_else(|| self.snaps.front())
            .map_or(0, |&(_, a)| a);
        activity_now.saturating_sub(base)
    }

    /// Cores that have gone at least half the stall window without
    /// retiring, worst first: `(core, stalled-for cycles)`. `drained`
    /// reads the live cores: a fault report is built before the cycle's
    /// visited cores were observed.
    pub(crate) fn stalled_cores(
        &self,
        now: Cycle,
        drained: impl Fn(usize) -> bool,
    ) -> Vec<(u16, u64)> {
        let mut v: Vec<(u16, u64)> = self
            .progress
            .iter()
            .enumerate()
            .filter(|&(i, p)| !drained(i) && now - p.1 >= self.stall_window / 2)
            .map(|(i, p)| (i as u16, now - p.1))
            .collect();
        v.sort_by_key(|&(c, s)| (std::cmp::Reverse(s), c));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::check::prelude::*;
    use wb_kernel::SimRng;

    /// The full-scan watchdog `System::run` used to carry
    /// inline, kept as the reference: every step walks every core.
    struct Naive {
        stall_window: u64,
        progress: Vec<(u64, Cycle)>,
        drained_since: Option<Cycle>,
        snaps: VecDeque<(Cycle, u64)>,
    }

    impl Naive {
        fn start(now: Cycle, stall_window: u64, activity: u64, cores: &[(u64, bool)]) -> Self {
            let mut snaps = VecDeque::new();
            snaps.push_back((now, activity));
            Naive {
                stall_window,
                progress: cores.iter().map(|c| (c.0, now)).collect(),
                drained_since: None,
                snaps,
            }
        }

        /// The per-cycle progress walk; returns `worst`.
        fn check(&mut self, now: Cycle, cores: &[(u64, bool)], activity: u64) -> u64 {
            let mut worst: u64 = 0;
            let mut all_drained = true;
            for (i, &(r, drained)) in cores.iter().enumerate() {
                if drained || r != self.progress[i].0 {
                    self.progress[i] = (r, now);
                } else {
                    worst = worst.max(now - self.progress[i].1);
                }
                all_drained &= drained;
            }
            if all_drained {
                let since = *self.drained_since.get_or_insert(now);
                worst = worst.max(now - since);
            } else {
                self.drained_since = None;
            }
            if now.is_multiple_of(SNAP_EVERY) {
                self.push_snap(now, activity);
            }
            worst
        }

        fn push_snap(&mut self, at: Cycle, activity: u64) {
            self.snaps.push_back((at, activity));
            while self.snaps.len() > SNAPS_KEPT {
                self.snaps.pop_front();
            }
        }

        fn jump_target(
            &mut self,
            now: Cycle,
            wake: Cycle,
            deadline: Cycle,
            cores: &[(u64, bool)],
        ) -> Cycle {
            let cap_base = if cores.iter().all(|c| c.1) {
                *self.drained_since.get_or_insert(now + 1)
            } else {
                cores
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.1)
                    .map(|(i, _)| self.progress[i].1)
                    .min()
                    .expect("a non-drained core exists")
            };
            wake.min(cap_base.saturating_add(self.stall_window))
                .min(deadline)
        }

        fn note_jump(&mut self, start: Cycle, target: Cycle, activity: u64) {
            let mut b = (start / SNAP_EVERY + 1) * SNAP_EVERY;
            while b <= target {
                self.push_snap(b, activity);
                b += SNAP_EVERY;
            }
        }

        fn retries_in_window(&self, now: Cycle, activity_now: u64) -> u64 {
            let base = self
                .snaps
                .iter()
                .rev()
                .find(|(t, _)| now.saturating_sub(*t) >= self.stall_window)
                .or_else(|| self.snaps.front())
                .map_or(0, |&(_, a)| a);
            activity_now.saturating_sub(base)
        }

        fn stalled_cores(&self, now: Cycle, cores: &[(u64, bool)]) -> Vec<(u16, u64)> {
            let mut v: Vec<(u16, u64)> = cores
                .iter()
                .enumerate()
                .filter(|(i, c)| !c.1 && now - self.progress[*i].1 >= self.stall_window / 2)
                .map(|(i, _)| (i as u16, now - self.progress[i].1))
                .collect();
            v.sort_by_key(|&(c, s)| (std::cmp::Reverse(s), c));
            v
        }
    }

    /// `worst` as the full walk defines it, read off the incremental
    /// state without touching it.
    fn exact_worst(wd: &Watchdog, now: Cycle) -> u64 {
        let cores = wd
            .progress
            .iter()
            .zip(&wd.drained)
            .filter(|&(_, &d)| !d)
            .map(|(p, _)| now - p.1)
            .max()
            .unwrap_or(0);
        cores.max(wd.drained_since.map_or(0, |s| now - s))
    }

    /// Drive both forms through one random run: each step either jumps
    /// (when `jumps`) or ticks a random visited set in which cores
    /// retire or drain. Returns the trip cycle, if any.
    fn drive(
        seed: u64,
        n: usize,
        stall_window: u64,
        steps: usize,
        jumps: bool,
        wedged: Option<usize>,
    ) -> Result<Option<Cycle>, CaseError> {
        let mut rng = SimRng::new(seed);
        let mut now: Cycle = rng.below(3 * SNAP_EVERY);
        let mut activity = rng.below(100);
        let mut cores: Vec<(u64, bool)> =
            (0..n).map(|_| (rng.below(50), rng.chance(1, 8))).collect();
        if let Some(w) = wedged {
            cores[w].1 = false;
        }
        let deadline = now + 40 * stall_window + 10 * SNAP_EVERY;
        let mut naive = Naive::start(now, stall_window, activity, &cores);
        let mut wd = Watchdog::default();
        wd.start(now, stall_window, activity, cores.iter().copied());
        for _ in 0..steps {
            if now >= deadline {
                break;
            }
            if jumps && rng.chance(1, 3) {
                let wake = match rng.below(5) {
                    0 => Cycle::MAX,
                    1 => now + 1 + rng.below(3 * stall_window),
                    // Right at the edge where the stale bound stops
                    // proving that the cap cannot bind.
                    2 => (wd.bound + stall_window + rng.below(3)).max(now + 1),
                    _ => now + 1 + rng.below(40),
                };
                let target = wd.jump_target(now, wake, deadline);
                prop_assert_eq!(
                    target,
                    naive.jump_target(now, wake, deadline, &cores),
                    "jump target at {now}"
                );
                prop_assert_eq!(
                    wd.drained_since,
                    naive.drained_since,
                    "drained_since after the cap at {now}"
                );
                if target > now {
                    wd.note_jump(now, target, || activity);
                    naive.note_jump(now, target, activity);
                    now = target;
                    if now >= deadline {
                        break;
                    }
                }
            }
            // One executed cycle: a random visited set, ascending.
            let visited: Vec<usize> = (0..n).filter(|_| rng.chance(1, 3)).collect();
            for &i in &visited {
                if cores[i].1 || Some(i) == wedged {
                    continue;
                }
                match rng.below(16) {
                    0 => cores[i].1 = true,
                    1..=9 => cores[i].0 += 1 + rng.below(3),
                    _ => {}
                }
            }
            activity += rng.below(3);
            now += 1;
            let stalled = wd.stalled_cores(now, |i| cores[i].1);
            prop_assert_eq!(
                stalled,
                naive.stalled_cores(now, &cores),
                "pre-update stalled cores at {now}"
            );
            for &i in &visited {
                wd.observe(now, i, cores[i].0, cores[i].1);
            }
            wd.note_cycle(now, || activity);
            let tripped = wd.tripped(now);
            let worst = naive.check(now, &cores, activity);
            prop_assert_eq!(exact_worst(&wd, now), worst, "worst at {now}");
            prop_assert_eq!(tripped, worst > stall_window, "trip decision at {now}");
            prop_assert_eq!(&wd.snaps, &naive.snaps, "snapshots at {now}");
            prop_assert_eq!(wd.all_drained(), cores.iter().all(|c| c.1));
            if tripped {
                prop_assert_eq!(
                    wd.stalled_cores(now, |i| cores[i].1),
                    naive.stalled_cores(now, &cores)
                );
                prop_assert_eq!(
                    wd.retries_in_window(now, activity + 7),
                    naive.retries_in_window(now, activity + 7),
                    "retries in window at {now}"
                );
                return Ok(Some(now));
            }
        }
        Ok(None)
    }

    wb_proptest! {
        #![cases = 200]

        /// Ticking only: worst, trip cycle and snapshots equal the full
        /// walk's on every step.
        #[test]
        fn incremental_matches_full_scan_when_ticking(
            seed in any::<u64>(), n in 1usize..24, window in 4u64..400
        ) {
            drive(seed, n, window, 3000, false, None)?;
        }

        /// With jumps: the same, plus jump targets (the watchdog cap)
        /// and the synthesized snapshots. Windows beyond the snapshot
        /// cadence make jumps cross several boundaries.
        #[test]
        fn incremental_matches_full_scan_with_jumps(
            seed in any::<u64>(), n in 1usize..24, window in 4u64..30_000
        ) {
            drive(seed, n, window, 1500, true, None)?;
        }

        /// One core retires forever, its neighbour never does: the
        /// neighbour must trip the watchdog, at the full walk's cycle.
        #[test]
        fn a_spinning_core_does_not_mask_a_wedged_neighbour(
            seed in any::<u64>(), n in 2usize..24, window in 4u64..400, jumps in any::<bool>()
        ) {
            let wedged = (seed % n as u64) as usize;
            let tripped = drive(seed, n, window, 100_000, jumps, Some(wedged))?;
            prop_assert!(tripped.is_some(), "core {wedged} never retires: the watchdog must trip");
        }
    }

    #[test]
    fn exact_minimum_is_taken_only_when_a_trip_is_possible() {
        let mut wd = Watchdog::default();
        let cores = [(0u64, false), (0, false), (0, false)];
        wd.start(0, 100, 0, cores.iter().copied());
        let at_start = wd.rescans;
        // Every core keeps retiring: the stale bound ages out once per
        // window at most, never per cycle.
        for now in 1..=1000u64 {
            for i in 0..3 {
                wd.observe(now, i, now, false);
            }
            assert!(!wd.tripped(now));
        }
        assert!(
            wd.rescans - at_start <= 10,
            "{} rescans in 1000 cycles",
            wd.rescans - at_start
        );
        // Core 1 stops: the trip lands exactly one window later.
        let mut trip = None;
        for now in 1001..=1200u64 {
            wd.observe(now, 0, now, false);
            wd.observe(now, 2, now, false);
            if wd.tripped(now) {
                trip = Some(now);
                break;
            }
        }
        assert_eq!(trip, Some(1101));
        assert_eq!(wd.stalled_cores(1101, |_| false), vec![(1, 101)]);
    }
}
