//! Cycle attribution: a bounded heavy-hitters sketch.
//!
//! End-of-run totals say *how many* cycles were lost to blocked writes,
//! Nack retries or WritersBlock windows; they do not say *which lines*
//! caused them. Tracking an exact per-line map is out of the question on
//! the hot path — a chaos cell can touch an unbounded set of lines — so
//! attribution uses the **space-saving** sketch (Metwally, Agrawal &
//! El Abbadi, 2005): exactly `k` entries, O(k) memory forever, O(k)
//! update, with the classic guarantees
//!
//! * every key with true weight `> W / k` (total weight `W`) is present,
//! * for any tracked key, `count - err <= true weight <= count`.
//!
//! Determinism matters more here than in the usual streaming setting:
//! the sketch feeds `Report` leaderboards and wedge reports that the
//! engine-equivalence suite compares byte-for-byte across engines, so
//! every tie (minimum-entry eviction, leaderboard ordering) is broken by
//! key. The entry table is a plain `Vec` scanned linearly — at the `k`
//! this repo uses (tens) that beats a heap on real workloads anyway —
//! and `tests/tests/no_alloc.rs` holds [`HeavyHitters::add`] to zero
//! allocations however many distinct keys it sees.

/// One tracked key: its estimated weight and the overestimation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotEntry {
    /// The tracked key (a cache-line number or a bank index upstream).
    pub key: u64,
    /// Estimated total weight. Never underestimates the true weight.
    pub count: u64,
    /// Maximum overestimation: `count - err` is a guaranteed lower
    /// bound on the true weight. Zero while the key has never been
    /// evicted (exact tracking).
    pub err: u64,
}

/// A space-saving heavy-hitters sketch over `u64` keys.
///
/// # Example
///
/// ```
/// use wb_kernel::attr::HeavyHitters;
/// let mut hh = HeavyHitters::new(4);
/// hh.add(0x40, 100);
/// hh.add(0x80, 10);
/// hh.add(0x40, 5);
/// let top = hh.top(2);
/// assert_eq!(top[0].key, 0x40);
/// assert_eq!(top[0].count, 105);
/// assert_eq!(top[0].err, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitters {
    cap: usize,
    entries: Vec<HotEntry>,
    /// Total weight ever added (survives evictions).
    total: u64,
}

impl HeavyHitters {
    /// A sketch tracking at most `cap` keys (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        HeavyHitters { cap, entries: Vec::with_capacity(cap), total: 0 }
    }

    /// Maximum number of tracked keys.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of keys currently tracked (`<= capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight ever added, including weight attributed to since-
    /// evicted keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Index of the minimum entry, ties broken towards the smallest
    /// key so eviction is deterministic.
    fn min_index(&self) -> usize {
        let mut best = 0;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let b = &self.entries[best];
            if (e.count, e.key) < (b.count, b.key) {
                best = i;
            }
        }
        best
    }

    /// Add `weight` to `key`. O(capacity), allocation-free once the
    /// entry table is full.
    pub fn add(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.count += weight;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(HotEntry { key, count: weight, err: 0 });
            return;
        }
        // Space-saving eviction: the new key inherits the minimum
        // entry's count as its overestimation bound.
        let i = self.min_index();
        let floor = self.entries[i].count;
        self.entries[i] = HotEntry { key, count: floor + weight, err: floor };
    }

    /// Estimated weight of `key` (`None` when untracked — its true
    /// weight is then at most the minimum tracked count).
    pub fn estimate(&self, key: u64) -> Option<HotEntry> {
        self.entries.iter().find(|e| e.key == key).copied()
    }

    /// The top `n` entries, heaviest first; ties broken by key so the
    /// order is deterministic.
    pub fn top(&self, n: usize) -> Vec<HotEntry> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| (std::cmp::Reverse(e.count), e.key));
        v.truncate(n);
        v
    }

    /// Fold `other` into this sketch. Matching keys sum their counts
    /// and error bounds; new keys enter whole while space remains, and
    /// evict the minimum entry (inheriting its count into their error
    /// bound) once the table is full. On streams whose combined
    /// distinct-key count fits the capacity this is exact and
    /// associative (property-tested); past that the space-saving
    /// guarantees still hold for the union stream.
    pub fn merge(&mut self, other: &HeavyHitters) {
        self.total += other.total;
        // Deterministic insertion order regardless of how `other` was
        // built: heaviest first, ties by key.
        for o in other.top(other.len()) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.key == o.key) {
                e.count += o.count;
                e.err += o.err;
            } else if self.entries.len() < self.cap {
                self.entries.push(o);
            } else {
                let i = self.min_index();
                let floor = self.entries[i].count;
                self.entries[i] =
                    HotEntry { key: o.key, count: floor + o.count, err: floor + o.err };
            }
        }
    }
}

crate::snap_struct!(HotEntry { key, count, err });

// Entries serialize positionally (a plain `Vec` walk, keeping this file
// map-free): eviction picks the minimum by `(count, key)`, but the
// linear `find` in [`HeavyHitters::add`] touches entries in table
// order, so the table order itself is execution-visible state and must
// survive the round trip exactly.
crate::snap_struct!(HeavyHitters { cap, entries, total });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn exact_while_it_fits() {
        let mut hh = HeavyHitters::new(3);
        hh.add(1, 10);
        hh.add(2, 20);
        hh.add(1, 5);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh.estimate(1).unwrap().count, 15);
        assert_eq!(hh.estimate(1).unwrap().err, 0);
        assert_eq!(hh.total(), 35);
        assert_eq!(hh.estimate(99), None);
    }

    #[test]
    fn eviction_carries_error_bound() {
        let mut hh = HeavyHitters::new(2);
        hh.add(1, 10);
        hh.add(2, 3);
        hh.add(3, 4); // evicts key 2 (min count 3)
        let e = hh.estimate(3).unwrap();
        assert_eq!(e.count, 7);
        assert_eq!(e.err, 3);
        assert!(e.count - e.err <= 4 && 4 <= e.count);
        assert_eq!(hh.estimate(2), None);
        assert_eq!(hh.total(), 17);
    }

    #[test]
    fn zero_weight_is_a_noop() {
        let mut hh = HeavyHitters::new(2);
        hh.add(7, 0);
        assert!(hh.is_empty());
        assert_eq!(hh.total(), 0);
    }

    #[test]
    fn top_orders_deterministically() {
        let mut hh = HeavyHitters::new(4);
        hh.add(30, 5);
        hh.add(10, 5);
        hh.add(20, 9);
        let top = hh.top(3);
        assert_eq!(top.iter().map(|e| e.key).collect::<Vec<_>>(), vec![20, 10, 30]);
        assert_eq!(hh.top(1).len(), 1);
    }

    /// Replay a `(key, weight)` stream into both the sketch and an
    /// exact map.
    fn exact(stream: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for &(k, w) in stream {
            *m.entry(k).or_insert(0) += w;
        }
        m.retain(|_, w| *w > 0);
        m
    }

    fn sketch(cap: usize, stream: &[(u64, u64)]) -> HeavyHitters {
        let mut hh = HeavyHitters::new(cap);
        for &(k, w) in stream {
            hh.add(k, w);
        }
        hh
    }

    wb_proptest! {
        /// With at most `cap` distinct keys the sketch IS the exact map.
        #[test]
        fn equals_exact_map_at_small_universes(
            stream in vec_of((0u64..8, 0u64..100), 0..65)
        ) {
            let hh = sketch(8, &stream);
            let m = exact(&stream);
            prop_assert_eq!(hh.len(), m.len());
            for (&k, &w) in &m {
                let e = hh.estimate(k).expect("tracked");
                prop_assert_eq!(e.count, w);
                prop_assert_eq!(e.err, 0);
            }
            prop_assert_eq!(hh.total(), m.values().sum::<u64>());
        }

        /// Space-saving guarantees on streams that overflow the table:
        /// estimates never underestimate, the error bound is honest,
        /// and every key heavier than total/cap is tracked.
        #[test]
        fn overfull_guarantees_hold(
            stream in vec_of((0u64..32, 1u64..50), 0..129)
        ) {
            let cap = 6usize;
            let hh = sketch(cap, &stream);
            let m = exact(&stream);
            let total: u64 = m.values().sum();
            prop_assert_eq!(hh.total(), total);
            for e in hh.top(cap) {
                let truth = m.get(&e.key).copied().unwrap_or(0);
                prop_assert!(truth <= e.count, "underestimate for {}", e.key);
                prop_assert!(e.count - e.err <= truth,
                    "error bound violated for {}: {} - {} > {}", e.key, e.count, e.err, truth);
            }
            for (&k, &w) in &m {
                if w > total / cap as u64 {
                    prop_assert!(hh.estimate(k).is_some(),
                        "heavy key {k} (weight {w} of {total}) missing");
                }
            }
        }

        /// Merge is associative (and exact) while the union universe
        /// fits the capacity — the regime Report merging lives in.
        #[test]
        fn merge_is_associative_on_small_universes(
            a in vec_of((0u64..4, 0u64..50), 0..21),
            b in vec_of((4u64..8, 0u64..50), 0..21),
            c in vec_of((8u64..12, 0u64..50), 0..21)
        ) {
            let cap = 12;
            let (sa, sb, sc) = (sketch(cap, &a), sketch(cap, &b), sketch(cap, &c));
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);
            prop_assert_eq!(left.top(cap), right.top(cap));
            prop_assert_eq!(left.total(), right.total());
            // And both equal the exact union.
            let mut union = a.clone();
            union.extend(b.iter().copied());
            union.extend(c.iter().copied());
            let m = exact(&union);
            for (&k, &w) in &m {
                prop_assert_eq!(left.estimate(k).expect("tracked").count, w);
            }
        }

        /// Merging sketches of disjoint halves of one stream tracks the
        /// whole stream's total weight.
        #[test]
        fn merge_preserves_total(
            a in vec_of((0u64..64, 0u64..50), 0..41),
            b in vec_of((0u64..64, 0u64..50), 0..41)
        ) {
            let mut ha = sketch(4, &a);
            let hb = sketch(4, &b);
            ha.merge(&hb);
            let want: u64 = a.iter().chain(b.iter()).map(|&(_, w)| w).sum();
            prop_assert_eq!(ha.total(), want);
            prop_assert!(ha.len() <= 4);
        }
    }
}
