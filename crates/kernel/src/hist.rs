//! Log-2-bucketed latency histograms.
//!
//! The paper's evaluation reasons about *distributions* — how long a
//! write sits blocked at the directory, how long a lockdown pins a
//! line, how many cycles a miss takes — not just totals. [`Hist`]
//! captures those distributions with 65 power-of-two buckets: O(1)
//! record, O(1) merge, no heap allocation after construction, and
//! percentile queries that are exact to within one bucket (the value
//! returned is the bucket's upper bound, clamped into `[min, max]`).
//!
//! Histograms live inside [`Stats`](crate::stats::Stats) next to the
//! flat counters and are serialised into the same JSON object, so every
//! [`Stats::to_json`](crate::stats::Stats::to_json) record gains
//! p50/p90/p99 columns for free.

/// Number of buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`, and bucket 64 holds `>= 2^63`.
pub const BUCKETS: usize = 65;

/// A log-2-bucketed histogram of `u64` samples (cycle counts).
///
/// # Example
///
/// ```
/// use wb_kernel::Hist;
/// let mut h = Hist::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 100);
/// assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

/// Index of the bucket holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value bucket `i` can hold.
fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Smallest value bucket `i` can hold.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 for an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 for an empty histogram).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 < p <= 100), exact to one log-2 bucket:
    /// the upper bound of the bucket holding the rank-`ceil(p/100 * n)`
    /// sample, clamped into `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The samples recorded since `prev` was snapshotted, as a
    /// histogram of their own. `prev` must be an earlier state of this
    /// same histogram (bucketwise `self >= prev`); subtraction
    /// saturates rather than panicking if it is not.
    ///
    /// Bucket counts, `count` and `sum` are exact. `min`/`max` cannot
    /// be recovered from two snapshots, so they are approximated to
    /// the tightest bucket bounds the delta permits (lower bound of
    /// the lowest non-empty delta bucket, upper bound of the highest,
    /// clamped to the cumulative max) — deterministic, which is what
    /// the timeline's dense≡sparse byte-equality needs.
    pub fn delta_since(&self, prev: &Hist) -> Hist {
        let mut d = Hist::new();
        let mut lo = None;
        let mut hi = 0usize;
        for i in 0..BUCKETS {
            let n = self.buckets[i].saturating_sub(prev.buckets[i]);
            d.buckets[i] = n;
            if n > 0 {
                lo.get_or_insert(i);
                hi = i;
            }
        }
        d.count = self.count.saturating_sub(prev.count);
        if d.count == 0 {
            return Hist::new();
        }
        d.sum = self.sum.saturating_sub(prev.sum);
        let lo = lo.unwrap_or(0);
        d.min = bucket_lo(lo);
        d.max = bucket_hi(hi).min(self.max);
        d
    }

    /// Render as a JSON object with integer fields only (deterministic).
    ///
    /// ```
    /// use wb_kernel::Hist;
    /// let mut h = Hist::new();
    /// h.record(4);
    /// assert_eq!(
    ///     h.to_json(),
    ///     r#"{"count":1,"sum":4,"min":4,"max":4,"p50":4,"p90":4,"p99":4}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"count":{},"sum":{},"min":{},"max":{},"p50":{},"p90":{},"p99":{}}}"#,
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        )
    }
}

// Raw fields: the `min` sentinel (`u64::MAX` while empty) is captured
// as-is so a restored histogram keeps recording exactly where the
// original left off.
crate::snap_struct!(Hist { buckets, count, sum, min, max });

impl std::fmt::Display for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::prelude::*;

    #[test]
    fn empty_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(1), 1);
        assert_eq!(bucket_hi(2), 3);
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Hist::new();
        h.record(37);
        assert_eq!(h.p50(), 37);
        assert_eq!(h.p90(), 37);
        assert_eq!(h.p99(), 37);
        assert_eq!(h.percentile(100.0), 37);
    }

    #[test]
    fn uniform_ramp_percentiles_are_bucket_accurate() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 of 1..=1000 is 500; the bucket [512, 1023] or [256, 511]
        // upper bound must bracket it within a factor of 2.
        let p50 = h.p50();
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.p99() >= h.p90() && h.p90() >= h.p50());
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = Hist::new();
        a.record(9);
        let before = a.clone();
        a.merge(&Hist::new());
        assert_eq!(a, before);
        let mut e = Hist::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let mut h = Hist::new();
        h.record(3);
        h.record(100);
        let snap = h.clone();
        h.record(7);
        h.record(9);
        let d = h.delta_since(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 16);
        // min/max are bucket bounds: both 7 and 9 live in [4, 15].
        assert!(d.min() <= 7, "min bound {} too high", d.min());
        assert!(d.max() >= 9, "max bound {} too low", d.max());
        // No new samples → empty delta, not a zero-count husk.
        assert_eq!(h.delta_since(&h.clone()), Hist::new());
    }

    #[test]
    fn json_shape() {
        let mut h = Hist::new();
        h.record(4);
        h.record(100);
        let j = h.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"min\":4"));
        assert!(j.contains("\"max\":100"));
    }

    #[test]
    fn snap_round_trip_preserves_raw_fields() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        for h in [Hist::new(), from_samples(&[0, 1, 7, 1 << 40])] {
            let mut w = SnapWriter::new();
            h.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut back = Hist::unsnap(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, h);
            // The empty-min sentinel survives: recording after restore
            // behaves exactly like recording after construction.
            back.record(5);
            let mut direct = h.clone();
            direct.record(5);
            assert_eq!(back, direct);
        }
    }

    fn from_samples(xs: &[u64]) -> Hist {
        let mut h = Hist::new();
        for &x in xs {
            h.record(x);
        }
        h
    }

    wb_proptest! {
        #![cases = 64]

        #[test]
        fn count_conservation(xs in vec_of(0u64..1_000_000, 0..200)) {
            let h = from_samples(&xs);
            prop_assert_eq!(h.count(), xs.len() as u64);
            prop_assert_eq!(h.sum(), xs.iter().sum::<u64>());
            prop_assert_eq!(h.buckets.iter().sum::<u64>(), xs.len() as u64);
        }

        #[test]
        fn percentile_monotonicity(xs in vec_of(0u64..1_000_000, 1..200)) {
            let h = from_samples(&xs);
            let mut prev = 0u64;
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = h.percentile(p);
                prop_assert!(v >= prev, "p{} = {} < previous {}", p, v, prev);
                prop_assert!(v >= h.min() && v <= h.max());
                prev = v;
            }
        }

        #[test]
        fn merge_associativity(
            a in vec_of(0u64..1_000_000, 0..100),
            b in vec_of(0u64..1_000_000, 0..100),
            c in vec_of(0u64..1_000_000, 0..100),
        ) {
            let (ha, hb, hc) = (from_samples(&a), from_samples(&b), from_samples(&c));
            // (a + b) + c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a + (b + c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // And both equal recording everything into one histogram.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            prop_assert_eq!(&left, &from_samples(&all));
        }

        #[test]
        fn delta_since_matches_fresh_histogram_of_the_window(
            xs in vec_of(0u64..1_000_000, 0..100),
            ys in vec_of(0u64..1_000_000, 0..100),
        ) {
            let snap = from_samples(&xs);
            let mut full = snap.clone();
            for &y in &ys {
                full.record(y);
            }
            let d = full.delta_since(&snap);
            let fresh = from_samples(&ys);
            prop_assert_eq!(d.count(), fresh.count());
            prop_assert_eq!(d.sum(), fresh.sum());
            prop_assert_eq!(d.buckets, fresh.buckets);
            // min/max are bucket-bound approximations that must still
            // bracket the window's true extremes.
            prop_assert!(d.min() <= fresh.min());
            prop_assert!(d.max() >= fresh.max());
        }

        #[test]
        fn percentile_within_factor_two_of_exact(xs in vec_of(1u64..1_000_000, 1..200)) {
            let h = from_samples(&xs);
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            for p in [50.0, 90.0, 99.0] {
                let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                let exact = sorted[rank - 1];
                let approx = h.percentile(p);
                // Bucket upper bound: never below the exact value, and at
                // most 2x above it (log-2 bucket width), modulo clamping.
                prop_assert!(approx >= exact, "p{}: approx {} < exact {}", p, approx, exact);
                // The rank-th sample's bucket has upper bound < 2x the
                // sample (and clamping to max only lowers it further).
                prop_assert!(
                    approx < exact.saturating_mul(2),
                    "p{}: approx {} not within 2x of exact {}", p, approx, exact
                );
            }
        }
    }
}
