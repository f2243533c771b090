//! Deterministic random numbers for reproducible simulation.
//!
//! Everything random in the simulator — message jitter, workload address
//! streams, litmus seeds — flows through [`SimRng`], a small, fast,
//! splittable PRNG (xoshiro256** core) so that a run is a pure function of
//! its [`crate::config::SystemConfig`].

/// A deterministic, splittable pseudo-random number generator.
///
/// # Example
///
/// ```
/// use wb_kernel::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a seed. Different seeds give statistically
    /// independent streams (seeded through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng { s: [next(), next(), next(), next()] }
    }

    /// Derive an independent child stream, e.g. one per core.
    pub fn split(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection-free approximation is fine for
        // simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: true with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        debug_assert!(den > 0);
        self.below(den) < num
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a reference to a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below_usize(xs.len())])
        }
    }

    /// The raw xoshiro256** state, for checkpointing (see
    /// [`crate::snap`]). Restoring via [`SimRng::from_state`] resumes
    /// the stream exactly where [`SimRng::state`] captured it.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_independent() {
        let mut root = SimRng::new(3);
        let mut c1 = root.split(0);
        let mut c2 = root.split(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(11);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        for _ in 0..100 {
            assert!(!r.chance(0, 10));
            assert!(r.chance(10, 10));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(21);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SimRng::new(1);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert!(r.choose(&[1, 2, 3]).is_some());
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = SimRng::new(99);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SimRng::new(33);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.below_usize(8)] += 1;
        }
        for &b in &buckets {
            assert!((9_000..11_000).contains(&b), "bucket {b} outside tolerance");
        }
    }
}
