//! Generic set-associative cache array with LRU replacement.
//!
//! Used for the L1 presence array, the private L2 coherence array and the
//! LLC/directory banks. Payload type is generic; replacement victims can
//! be filtered by the caller (e.g. lines pinned by pending loads or
//! transient coherence states are not evictable).
//!
//! # Layout
//!
//! Storage is struct-of-arrays over flat slot arenas (slot = `set *
//! ways + way`): a tag plane, an LRU-stamp plane and a payload plane.
//! Tag scans — the operation every cache access performs — walk `ways`
//! adjacent `u64`s (one cache line for typical associativities) instead
//! of chasing a `Vec<Vec<Way<T>>>` through two pointer hops per set and
//! dragging payload bytes through the scan. At 256 cores the simulator
//! holds hundreds of these arrays, so tick-loop residency matters.

use wb_mem::LineAddr;

/// Tag-plane sentinel for a free way. Line numbers are byte addresses
/// divided by the 64-byte line size, so no real line reaches this value.
const FREE: u64 = u64::MAX;

/// Result of an [`SetAssocArray::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum Insert<T> {
    /// Inserted into a free way.
    Done,
    /// Inserted after evicting the returned victim.
    Evicted(LineAddr, T),
    /// The set is full and no way was evictable; nothing was inserted.
    NoVictim,
}

/// A set-associative array with per-set LRU.
///
/// # Example
///
/// ```
/// use wb_protocol::array::{Insert, SetAssocArray};
/// use wb_mem::LineAddr;
///
/// let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 1); // 2 sets, direct-mapped
/// assert!(matches!(a.insert(LineAddr(0), 10, 0, |_, _| true), Insert::Done));
/// assert!(matches!(a.insert(LineAddr(2), 20, 1, |_, _| true), Insert::Evicted(..)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocArray<T> {
    /// Line number per slot; [`FREE`] marks an empty way.
    tags: Vec<u64>,
    /// LRU stamp per slot, parallel to `tags`.
    stamps: Vec<u64>,
    /// Payload per slot; `None` exactly when the tag is [`FREE`].
    slots: Vec<Option<T>>,
    num_sets: usize,
    ways: usize,
    len: usize,
}

impl<T> SetAssocArray<T> {
    /// Create an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "degenerate cache geometry");
        let n = num_sets * ways;
        SetAssocArray {
            tags: vec![FREE; n],
            stamps: vec![0; n],
            slots: (0..n).map(|_| None).collect(),
            num_sets,
            ways,
            len: 0,
        }
    }

    /// Geometry helper: sets needed for `capacity_bytes` at `ways`
    /// associativity and `line_bytes` lines.
    pub fn geometry(capacity_bytes: usize, ways: usize, line_bytes: usize) -> usize {
        let lines = capacity_bytes / line_bytes;
        (lines / ways).max(1)
    }

    #[inline]
    fn base_of(&self, line: LineAddr) -> usize {
        ((line.0 % self.num_sets as u64) as usize) * self.ways
    }

    /// Slot index holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.base_of(line);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line.0)
            .map(|w| base + w)
    }

    /// Does the array currently hold `line`?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Borrow the payload for `line`.
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.find(line).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutably borrow the payload for `line`.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find(line).and_then(|i| self.slots[i].as_mut())
    }

    /// Mark `line` as most-recently used at time `now`.
    pub fn touch(&mut self, line: LineAddr, now: u64) {
        if let Some(i) = self.find(line) {
            self.stamps[i] = now;
        }
    }

    /// Insert `line`. If the set is full, the least-recently-used way for
    /// which `evictable` returns true is evicted and returned.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line` is already present — callers must use
    /// [`SetAssocArray::get_mut`] to update an existing entry.
    pub fn insert(
        &mut self,
        line: LineAddr,
        payload: T,
        now: u64,
        evictable: impl Fn(LineAddr, &T) -> bool,
    ) -> Insert<T> {
        debug_assert!(!self.contains(line), "inserting duplicate line {line}");
        let base = self.base_of(line);
        // Free way first; otherwise the LRU evictable way (tag scan
        // only — payloads are read just for the evictability filter).
        let mut victim: Option<usize> = None;
        for i in base..base + self.ways {
            if self.tags[i] == FREE {
                self.tags[i] = line.0;
                self.stamps[i] = now;
                self.slots[i] = Some(payload);
                self.len += 1;
                return Insert::Done;
            }
            let older = victim.is_none_or(|v| self.stamps[i] < self.stamps[v]);
            if older && self.slots[i].as_ref().is_some_and(|p| evictable(LineAddr(self.tags[i]), p)) {
                victim = Some(i);
            }
        }
        match victim {
            Some(i) => {
                let old_line = LineAddr(self.tags[i]);
                self.tags[i] = line.0;
                self.stamps[i] = now;
                match self.slots[i].replace(payload) {
                    Some(old) => Insert::Evicted(old_line, old),
                    None => Insert::Done,
                }
            }
            None => Insert::NoVictim,
        }
    }

    /// Remove `line`, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        self.tags[i] = FREE;
        let old = self.slots[i].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterate over `(line, payload)` for every resident entry.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.tags
            .iter()
            .zip(&self.slots)
            .filter(|(&t, _)| t != FREE)
            .filter_map(|(&t, p)| p.as_ref().map(|p| (LineAddr(t), p)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// Not a declaration: the decoder checks that the three planes agree
// with the geometry (lookups index them by `set * ways + way`).
impl<T: wb_kernel::Snap> wb_kernel::Snap for SetAssocArray<T> {
    /// All three slot planes serialize positionally: LRU stamps decide
    /// future victims and the way an entry occupies decides scan order,
    /// so slot layout is execution-visible state, not an implementation
    /// detail.
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.tags.snap(w);
        self.stamps.snap(w);
        self.slots.snap(w);
        w.usize(self.num_sets);
        w.usize(self.ways);
        w.usize(self.len);
    }

    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        let a = SetAssocArray {
            tags: Vec::unsnap(r)?,
            stamps: Vec::unsnap(r)?,
            slots: Vec::unsnap(r)?,
            num_sets: r.usize()?,
            ways: r.usize()?,
            len: r.usize()?,
        };
        let n = a.num_sets.checked_mul(a.ways).unwrap_or(0);
        if a.tags.len() != n || a.stamps.len() != n || a.slots.len() != n {
            return Err(wb_kernel::SnapError::new(format!(
                "cache array planes disagree with geometry {}x{}",
                a.num_sets, a.ways
            )));
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        // 32 KiB, 8-way, 64 B lines -> 64 sets.
        assert_eq!(SetAssocArray::<()>::geometry(32 * 1024, 8, 64), 64);
        assert_eq!(SetAssocArray::<()>::geometry(64, 8, 64), 1);
    }

    #[test]
    fn insert_get_remove() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(4, 2);
        assert!(matches!(a.insert(LineAddr(1), 11, 0, |_, _| true), Insert::Done));
        assert_eq!(a.get(LineAddr(1)), Some(&11));
        *a.get_mut(LineAddr(1)).unwrap() = 12;
        assert_eq!(a.remove(LineAddr(1)), Some(12));
        assert!(!a.contains(LineAddr(1)));
        assert!(a.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(1, 2);
        a.insert(LineAddr(0), 0, 0, |_, _| true);
        a.insert(LineAddr(1), 1, 1, |_, _| true);
        a.touch(LineAddr(0), 2); // 1 is now LRU
        match a.insert(LineAddr(2), 2, 3, |_, _| true) {
            Insert::Evicted(l, v) => {
                assert_eq!(l, LineAddr(1));
                assert_eq!(v, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pinned_ways_not_evicted() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(1, 2);
        a.insert(LineAddr(0), 0, 0, |_, _| true);
        a.insert(LineAddr(1), 1, 1, |_, _| true);
        // Only line 1 is evictable.
        match a.insert(LineAddr(2), 2, 2, |l, _| l == LineAddr(1)) {
            Insert::Evicted(l, _) => assert_eq!(l, LineAddr(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Now nothing is evictable.
        assert!(matches!(a.insert(LineAddr(3), 3, 3, |_, _| false), Insert::NoVictim));
        assert!(!a.contains(LineAddr(3)));
    }

    #[test]
    fn sets_are_independent() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 1);
        a.insert(LineAddr(0), 0, 0, |_, _| true); // set 0
        a.insert(LineAddr(1), 1, 0, |_, _| true); // set 1
        assert_eq!(a.len(), 2);
        assert!(a.contains(LineAddr(0)) && a.contains(LineAddr(1)));
    }

    #[test]
    fn iter_sees_everything() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(4, 4);
        for i in 0..10u64 {
            a.insert(LineAddr(i), i as u32, i, |_, _| true);
        }
        let mut lines: Vec<u64> = a.iter().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reuse_after_remove_keeps_len_consistent() {
        // Slot arenas must recycle freed ways without leaking `len`.
        let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 2);
        for round in 0..5u64 {
            for i in 0..4u64 {
                a.insert(LineAddr(i), (round * 4 + i) as u32, round, |_, _| true);
            }
            assert_eq!(a.len(), 4);
            for i in 0..4u64 {
                assert_eq!(a.remove(LineAddr(i)), Some((round * 4 + i) as u32));
            }
            assert_eq!(a.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_geometry_panics() {
        let _: SetAssocArray<()> = SetAssocArray::new(0, 1);
    }
}
