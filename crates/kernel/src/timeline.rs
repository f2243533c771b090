//! Periodic interval sampling: counters and histograms *over time*.
//!
//! End-of-run [`Stats`] answer "how many cycles were lost in total";
//! they cannot say *when*. A [`Timeline`] turns the same registry into
//! a time series: every `sample_every` cycles the owner snapshots the
//! current totals, the timeline takes [`Stats::delta_since`] against
//! the previous snapshot, and the per-window delta lands in a bounded
//! ring of [`TimelineWindow`]s. [`Timeline::to_jsonl`] exports it as
//! one JSON object per window, validated by the in-tree
//! [`json`](crate::json) parser in tests.
//!
//! # Interaction with the sparse engine
//!
//! Sampling must not disturb the dense≡sparse byte-equality contract:
//! the owner treats [`Timeline::next_sample_at`] as a system deadline,
//! so the sparse engine never jumps over a sample — both engines
//! sample on exactly the same cycles with
//! exactly the same totals (PR 5 guarantees stats equality at every
//! cycle boundary), making the exported JSONL byte-identical. The
//! engine-equivalence suite pins this.

use crate::stats::Stats;
use crate::Cycle;
use std::collections::VecDeque;

/// Default ring capacity, in windows. At the default it takes a very
/// long run to wrap; when it does, the oldest windows are evicted and
/// counted in [`Timeline::dropped`] (the ring keeps the *recent* past,
/// which is what a wedge post-mortem wants).
pub const DEFAULT_WINDOW_CAPACITY: usize = 4096;

/// One sampling interval: the change in every counter and histogram
/// over the half-open cycle span `(start, end]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineWindow {
    /// Window index since the run began. Survives ring eviction, so a
    /// gap in `seq` across consecutive retained windows reveals drops.
    pub seq: u64,
    /// Cycle the previous sample was taken (exclusive).
    pub start: Cycle,
    /// Cycle this sample was taken (inclusive).
    pub end: Cycle,
    /// What changed during the window: counters whose delta is
    /// nonzero, histograms of just the window's samples.
    pub delta: Stats,
}

impl TimelineWindow {
    /// One deterministic JSON object (a JSONL line sans newline).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"seq":{},"start":{},"end":{},"delta":{}}}"#,
            self.seq,
            self.start,
            self.end,
            self.delta.to_json()
        )
    }
}

/// A bounded ring of per-interval [`Stats`] deltas.
///
/// # Example
///
/// ```
/// use wb_kernel::{Stats, Timeline};
/// let mut totals = Stats::new();
/// let mut tl = Timeline::new(100);
/// totals.add("loads", 7);
/// assert!(tl.due(100) && !tl.due(99));
/// tl.sample(100, &totals);
/// totals.add("loads", 3);
/// tl.sample(200, &totals);
/// let windows: Vec<_> = tl.windows().collect();
/// assert_eq!(windows[0].delta.get("loads"), 7);
/// assert_eq!(windows[1].delta.get("loads"), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    sample_every: u64,
    cap: usize,
    /// Cycle of the next scheduled sample.
    next_at: Cycle,
    /// Cycle of the previous sample (start of the open window).
    last_at: Cycle,
    seq: u64,
    prev: Stats,
    windows: VecDeque<TimelineWindow>,
    dropped: u64,
}

impl Timeline {
    /// Sample every `sample_every` cycles (clamped to >= 1), first
    /// sample at cycle `sample_every`, default ring capacity.
    pub fn new(sample_every: u64) -> Self {
        Timeline::with_capacity(sample_every, DEFAULT_WINDOW_CAPACITY)
    }

    /// [`Timeline::new`] with an explicit ring capacity in windows.
    pub fn with_capacity(sample_every: u64, cap: usize) -> Self {
        let sample_every = sample_every.max(1);
        Timeline {
            sample_every,
            cap: cap.max(1),
            next_at: sample_every,
            last_at: 0,
            seq: 0,
            prev: Stats::new(),
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Re-origin a timeline enabled mid-run: windows start at `now`
    /// against the current `totals` instead of cycle 0 against empty.
    pub fn with_origin(mut self, now: Cycle, totals: &Stats) -> Self {
        self.last_at = now;
        self.next_at = now + self.sample_every;
        self.prev = totals.clone();
        self
    }

    /// The sampling interval in cycles.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Cycle of the next scheduled sample. The owner must treat this
    /// as a deadline so an engine that jumps cycles lands on it.
    pub fn next_sample_at(&self) -> Cycle {
        self.next_at
    }

    /// True when `now` has reached the sample deadline.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_at
    }

    /// Close the open window at `now` against the current `totals` and
    /// schedule the next deadline at `now + sample_every`. Call when
    /// [`Timeline::due`] fires; calling late (a deadline was jumped)
    /// simply yields one longer window — no windows are fabricated.
    pub fn sample(&mut self, now: Cycle, totals: &Stats) {
        let delta = totals.delta_since(&self.prev);
        let w = TimelineWindow { seq: self.seq, start: self.last_at, end: now, delta };
        self.seq += 1;
        if self.windows.len() == self.cap {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(w);
        self.prev.clone_from(totals);
        self.last_at = now;
        self.next_at = now + self.sample_every;
    }

    /// Close a final partial window at end of run (no-op when the run
    /// ended exactly on a sample boundary). Keeps the tail of the run
    /// visible without waiting for a deadline that will never come.
    pub fn flush(&mut self, now: Cycle, totals: &Stats) {
        if now > self.last_at {
            self.sample(now, totals);
        }
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &TimelineWindow> {
        self.windows.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window has been sampled (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every retained window as JSONL: one JSON object per line,
    /// oldest first, trailing newline when non-empty. Deterministic —
    /// integers only, keys in name order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&w.to_json());
            out.push('\n');
        }
        out
    }
}

crate::snap_struct!(TimelineWindow { seq, start, end, delta });

// Whole-value serialization: cadence, deadlines, the previous-totals
// baseline and the retained ring all travel, so a restored run samples
// on exactly the cycles the original would have and exports
// byte-identical JSONL.
crate::snap_struct!(Timeline { sample_every, cap, next_at, last_at, seq, prev, windows, dropped });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::prelude::*;

    fn totals(pairs: &[(&'static str, u64)]) -> Stats {
        pairs.iter().copied().collect()
    }

    #[test]
    fn windows_carry_deltas_not_totals() {
        let mut tl = Timeline::new(10);
        let mut s = Stats::new();
        s.add("x", 5);
        tl.sample(10, &s);
        s.add("x", 2);
        s.add("y", 1);
        tl.sample(20, &s);
        let w: Vec<_> = tl.windows().collect();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].start, w[0].end, w[0].delta.get("x")), (0, 10, 5));
        assert_eq!((w[1].start, w[1].end, w[1].delta.get("x")), (10, 20, 2));
        assert_eq!(w[1].delta.get("y"), 1);
        assert_eq!(w[0].seq, 0);
        assert_eq!(w[1].seq, 1);
    }

    #[test]
    fn deadlines_advance_from_the_actual_sample_cycle() {
        let mut tl = Timeline::new(100);
        assert_eq!(tl.next_sample_at(), 100);
        assert!(!tl.due(99));
        assert!(tl.due(100));
        tl.sample(100, &totals(&[]));
        assert_eq!(tl.next_sample_at(), 200);
        // A late sample (deadline jumped) yields one longer window.
        tl.sample(350, &totals(&[("x", 1)]));
        assert_eq!(tl.next_sample_at(), 450);
        let last = tl.windows().last().unwrap();
        assert_eq!((last.start, last.end), (100, 350));
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut tl = Timeline::with_capacity(1, 3);
        let s = Stats::new();
        for c in 1..=5u64 {
            tl.sample(c, &s);
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.dropped(), 2);
        let seqs: Vec<u64> = tl.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn flush_closes_a_partial_tail_window_once() {
        let mut tl = Timeline::new(100);
        tl.sample(100, &totals(&[("x", 1)]));
        tl.flush(130, &totals(&[("x", 3)]));
        let last = tl.windows().last().unwrap();
        assert_eq!((last.start, last.end, last.delta.get("x")), (100, 130, 2));
        // Flushing on a boundary (or twice) adds nothing.
        let n = tl.len();
        tl.flush(130, &totals(&[("x", 3)]));
        assert_eq!(tl.len(), n);
    }

    #[test]
    fn with_origin_starts_midrun() {
        let tl = Timeline::new(50).with_origin(1000, &totals(&[("x", 42)]));
        assert_eq!(tl.next_sample_at(), 1050);
        let mut tl = tl;
        tl.sample(1050, &totals(&[("x", 44)]));
        let w = tl.windows().next().unwrap();
        assert_eq!((w.start, w.end, w.delta.get("x")), (1000, 1050, 2));
    }

    #[test]
    fn jsonl_is_parseable_and_deterministic() {
        let mut tl = Timeline::new(10);
        let mut s = Stats::new();
        s.add("loads", 3);
        s.record("lat", 12);
        tl.sample(10, &s);
        s.add("loads", 1);
        tl.sample(20, &s);
        let jsonl = tl.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = crate::json::parse(line).expect("valid JSONL line");
            assert!(v.get("seq").is_some() && v.get("delta").is_some());
        }
        assert_eq!(jsonl, tl.clone().to_jsonl(), "export is pure");
    }

    wb_proptest! {
        /// Sampled deltas always reassemble into the totals: summing
        /// every window's delta for a key equals the final total, no
        /// matter how the increments land between sample points.
        #[test]
        fn window_deltas_sum_to_totals(
            incs in vec_of((0u64..6, 0u64..20), 0..60)
        ) {
            let keys = ["a", "b", "c", "d", "e", "f"];
            let mut s = Stats::new();
            let mut tl = Timeline::new(1);
            let mut cycle = 0u64;
            for &(k, w) in &incs {
                s.add(keys[k as usize], w);
                cycle += 1;
                tl.sample(cycle, &s);
            }
            tl.flush(cycle + 1, &s);
            for key in keys {
                let sum: u64 = tl.windows().map(|w| w.delta.get(key)).sum();
                prop_assert_eq!(sum, s.get(key), "key {}", key);
            }
        }
    }
}
