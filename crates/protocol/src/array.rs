//! Generic set-associative cache array with LRU replacement.
//!
//! Used for the L1 presence array, the private L2 coherence array and the
//! LLC/directory banks. Payload type is generic; replacement victims can
//! be filtered by the caller (e.g. lines pinned by pending loads or
//! transient coherence states are not evictable).
//!
//! # Layout
//!
//! Storage is paid per touched set, not per configured way. An L3 bank
//! of the paper's Table 6 machine has 16,384 slots and a cell touches a
//! few thousand lines at most, so a set gets its storage the first time a
//! line is inserted into it, and `new`, `Drop`, `clone` and restore cost
//! O(touched sets).
//!
//! - A `num_sets`-long block table holds, per set, the slot base of its
//!   block, or [`UNTOUCHED`].
//! - Behind it, three struct-of-arrays planes — tags, LRU stamps,
//!   payloads — grow by one block of `ways` slots per touched set (slot =
//!   `base + way`), in first-touch order.
//! - A lookup is one table load and a scan of `ways` adjacent `u64` tags
//!   (one cache line for typical associativities); payload bytes never
//!   pass through the scan.
//!
//! Everything observable goes through the table in set order, so the
//! lazy layout is indistinguishable from allocating every set up front:
//!
//! - [`SetAssocArray::iter`] yields ascending set, then way.
//! - The snapshot wire is the eager layout: an untouched set is written
//!   as `ways` free ways with zero stamps and no payload.
//! - A set emptied by [`SetAssocArray::remove`] keeps its block and its
//!   stale stamps; those stamps are part of the wire.

use wb_kernel::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use wb_mem::LineAddr;

/// Tag-plane sentinel for a free way. Line numbers are byte addresses
/// divided by the 64-byte line size, so no real line reaches this value.
const FREE: u64 = u64::MAX;

/// Block-table sentinel for a set that has no storage yet.
const UNTOUCHED: u32 = u32::MAX;

/// Slot count of a `num_sets` x `ways` array, if that geometry is usable:
/// both dimensions non-zero and every slot base below [`UNTOUCHED`].
fn capacity(num_sets: usize, ways: usize) -> Option<usize> {
    num_sets.checked_mul(ways).filter(|&n| n > 0 && n <= UNTOUCHED as usize)
}

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
    /// Per set: slot base of its block in the planes, or [`UNTOUCHED`].
    blocks: Vec<u32>,
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
    /// Create an array with `num_sets` sets of `ways` ways. No set has
    /// storage until a line is inserted into it.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if the array would hold
    /// `u32::MAX` slots or more.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(capacity(num_sets, ways).is_some(), "degenerate cache geometry {num_sets}x{ways}");
        SetAssocArray {
            blocks: vec![UNTOUCHED; num_sets],
            tags: Vec::new(),
            stamps: Vec::new(),
            slots: Vec::new(),
            num_sets,
            ways,
            len: 0,
        }
    }

    /// Geometry helper: sets needed for `capacity_bytes` at `ways`
    /// associativity in [`wb_mem::LINE_BYTES`] lines.
    pub fn geometry(capacity_bytes: usize, ways: usize) -> usize {
        let lines = capacity_bytes / wb_mem::LINE_BYTES as usize;
        (lines / ways).max(1)
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 % self.num_sets as u64) as usize
    }

    /// Slot base of each set's block, in set order; `None` for an
    /// untouched set.
    fn bases(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        self.blocks.iter().map(|&b| (b != UNTOUCHED).then_some(b as usize))
    }

    /// Slot base of `set`'s block, appending a block of free ways to the
    /// planes on the set's first use.
    fn claim(&mut self, set: usize) -> usize {
        if self.blocks[set] == UNTOUCHED {
            let base = self.tags.len();
            let end = base + self.ways;
            self.tags.resize(end, FREE);
            self.stamps.resize(end, 0);
            self.slots.resize_with(end, || None);
            // Below UNTOUCHED: `capacity` bounds the planes by u32::MAX.
            self.blocks[set] = base as u32;
        }
        self.blocks[set] as usize
    }

    /// Slot index holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.blocks[self.set_of(line)];
        if base == UNTOUCHED {
            return None;
        }
        let base = base as usize;
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
        let base = self.claim(self.set_of(line));
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

    /// Remove `line`, returning its payload. The set keeps its block and
    /// the way keeps its stamp.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        self.tags[i] = FREE;
        let old = self.slots[i].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterate over `(line, payload)` for every resident entry, in
    /// ascending set order and way order within a set.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.bases()
            .flatten()
            .flat_map(|base| base..base + self.ways)
            .filter_map(|i| self.slots[i].as_ref().map(|p| (LineAddr(self.tags[i]), p)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `plane` as the eager layout's length-prefixed sequence of
    /// `num_sets * ways` values in set order, `blank` for every way of an
    /// untouched set.
    fn snap_plane<P: Snap>(&self, w: &mut SnapWriter, plane: &[P], blank: &P) {
        w.usize(self.num_sets * self.ways);
        for base in self.bases() {
            match base {
                Some(b) => plane[b..b + self.ways].iter().for_each(|p| p.snap(w)),
                None => (0..self.ways).for_each(|_| blank.snap(w)),
            }
        }
    }
}

/// Read one length-prefixed plane, keeping `(slot, value)` for each value
/// `keep` maps to `Some`: storage proportional to the touched slots, not
/// to the plane's length.
fn read_plane<P: Snap, Q>(
    r: &mut SnapReader,
    keep: impl Fn(P) -> Option<Q>,
) -> SnapResult<(usize, Vec<(usize, Q)>)> {
    let n = r.len_for(1)?;
    let mut kept = Vec::new();
    for i in 0..n {
        if let Some(v) = keep(P::unsnap(r)?) {
            kept.push((i, v));
        }
    }
    Ok((n, kept))
}

// Not a declaration: the wire is the eager layout (three full planes, then
// the geometry), so the decoder keeps only what differs from an untouched
// set, checks it against the geometry and the occupancy invariants, and
// gives a block only to the sets that need one.
impl<T: Snap> Snap for SetAssocArray<T> {
    /// All three slot planes serialize positionally: LRU stamps decide
    /// future victims and the way an entry occupies decides scan order,
    /// so slot layout is execution-visible state, not an implementation
    /// detail.
    fn snap(&self, w: &mut SnapWriter) {
        self.snap_plane(w, &self.tags, &FREE);
        self.snap_plane(w, &self.stamps, &0);
        self.snap_plane(w, &self.slots, &None);
        w.usize(self.num_sets);
        w.usize(self.ways);
        w.usize(self.len);
    }

    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let (n, tags) = read_plane(r, |t: u64| (t != FREE).then_some(t))?;
        let (n_stamps, stamps) = read_plane(r, |s: u64| (s != 0).then_some(s))?;
        let (n_slots, slots) = read_plane(r, |p: Option<T>| p)?;
        let (num_sets, ways, len) = (r.usize()?, r.usize()?, r.usize()?);
        if capacity(num_sets, ways) != Some(n) || n_stamps != n || n_slots != n {
            return Err(SnapError::new(format!(
                "cache array planes disagree with geometry {num_sets}x{ways}"
            )));
        }
        if !tags.iter().map(|t| t.0).eq(slots.iter().map(|p| p.0)) {
            return Err(SnapError::new(format!(
                "cache array tags and payloads disagree on which ways are occupied \
                 ({} tagged, {} with a payload)",
                tags.len(),
                slots.len()
            )));
        }
        if len != slots.len() {
            return Err(SnapError::new(format!(
                "cache array len {len} and its {} occupied ways disagree",
                slots.len()
            )));
        }
        let mut a = SetAssocArray::new(num_sets, ways);
        a.len = len;
        for (i, t) in tags {
            let base = a.claim(i / ways);
            a.tags[base + i % ways] = t;
        }
        for (i, s) in stamps {
            let base = a.claim(i / ways);
            a.stamps[base + i % ways] = s;
        }
        for (i, p) in slots {
            let base = a.claim(i / ways);
            a.slots[base + i % ways] = Some(p);
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
        assert_eq!(SetAssocArray::<()>::geometry(32 * 1024, 8), 64);
        assert_eq!(SetAssocArray::<()>::geometry(64, 8), 1);
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

    /// The fence against eager allocation coming back: storage follows
    /// the touched sets, not the configured ones.
    #[test]
    fn storage_is_allocated_per_touched_set() {
        let slots = |a: &SetAssocArray<u32>| (a.tags.len(), a.stamps.len(), a.slots.len());
        let mut a: SetAssocArray<u32> = SetAssocArray::new(2048, 8);
        assert_eq!(slots(&a), (0, 0, 0));
        assert_eq!((a.tags.capacity(), a.stamps.capacity(), a.slots.capacity()), (0, 0, 0));
        a.insert(LineAddr(5), 1, 1, |_, _| true);
        assert_eq!(slots(&a), (8, 8, 8));
        a.insert(LineAddr(5 + 2048), 2, 2, |_, _| true); // same set
        assert_eq!(slots(&a), (8, 8, 8));
        a.remove(LineAddr(5));
        a.remove(LineAddr(5 + 2048));
        assert_eq!(slots(&a), (8, 8, 8));
        assert_ne!(a.blocks[5], UNTOUCHED);
        assert_eq!(a.blocks.iter().filter(|&&b| b != UNTOUCHED).count(), 1);
    }

    /// Hand-built bytes for a 1x2 array: the given tags, stamps 3 and 0,
    /// the given payloads, then the geometry and `len`.
    fn eager_bytes(tags: [u64; 2], payloads: [Option<u32>; 2], len: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        tags.to_vec().snap(&mut w);
        vec![3u64, 0].snap(&mut w);
        payloads.to_vec().snap(&mut w);
        w.usize(1);
        w.usize(2);
        w.usize(len);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> SnapResult<SetAssocArray<u32>> {
        let mut r = SnapReader::new(bytes);
        let a = SetAssocArray::unsnap(&mut r)?;
        r.finish()?;
        Ok(a)
    }

    #[test]
    fn inconsistent_snapshots_are_typed_errors() {
        let ok = decode(&eager_bytes([7, FREE], [Some(70), None], 1)).expect("consistent bytes");
        assert_eq!(ok.get(LineAddr(7)), Some(&70));
        assert_eq!(ok.len(), 1);
        let cases = [
            (eager_bytes([7, FREE], [Some(70), None], 2), "len 2 and its 1 occupied ways disagree"),
            (eager_bytes([7, FREE], [Some(70), None], 0), "len 0 and its 1 occupied ways disagree"),
            (eager_bytes([7, FREE], [None, None], 0), "tags and payloads disagree"),
            (eager_bytes([FREE, FREE], [Some(70), None], 1), "tags and payloads disagree"),
            (eager_bytes([7, FREE], [None, Some(70)], 1), "tags and payloads disagree"),
        ];
        for (bytes, want) in cases {
            let err = decode(&bytes).expect_err(want);
            assert!(err.0.contains("cache array") && err.0.contains(want), "{err}");
        }
        // A geometry that does not match the planes' lengths.
        let mut bytes = eager_bytes([7, FREE], [Some(70), None], 1);
        let at = bytes.len() - 16; // the `ways` word
        bytes[at] = 3;
        let err = decode(&bytes).expect_err("planes of 2 under a 1x3 geometry");
        assert!(err.0.contains("planes disagree with geometry 1x3"), "{err}");
    }
}
