//! Fixed-width sharer sets for directory entries.
//!
//! The directory used to track sharers in a bare `u64` bitmask, which
//! silently caps the machine at 64 cores — `1u64 << n.index()` is
//! undefined for node 64 and beyond. [`SharerSet`] is a `Copy` bitset
//! sized from [`wb_kernel::MAX_NODES`], so a 256-core directory entry
//! still fits in four words, allocates nothing, and every sharer-walk
//! loop is bounded by the set's width rather than a literal `64`.

use wb_kernel::{NodeId, MAX_NODES};

const WORD_BITS: usize = 64;
const WORDS: usize = MAX_NODES.div_ceil(WORD_BITS);

/// A set of nodes (sharers of a line), as a fixed-width bitset.
///
/// # Example
///
/// ```
/// use wb_protocol::SharerSet;
/// use wb_kernel::NodeId;
///
/// let mut s = SharerSet::solo(NodeId(200));
/// s.insert(NodeId(3));
/// assert_eq!(s.count(), 2);
/// assert!(s.contains(NodeId(200)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(200)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet {
    words: [u64; WORDS],
}

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet { words: [0; WORDS] };

    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        Self::EMPTY
    }

    /// The set containing exactly `n`.
    #[inline]
    pub fn solo(n: NodeId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(n);
        s
    }

    #[inline]
    fn slot(n: NodeId) -> (usize, u64) {
        let i = n.index();
        debug_assert!(i < MAX_NODES, "node {i} beyond MAX_NODES");
        (i / WORD_BITS, 1u64 << (i % WORD_BITS))
    }

    /// Add `n` to the set.
    #[inline]
    pub fn insert(&mut self, n: NodeId) {
        let (w, b) = Self::slot(n);
        self.words[w] |= b;
    }

    /// Remove `n` from the set.
    #[inline]
    pub fn remove(&mut self, n: NodeId) {
        let (w, b) = Self::slot(n);
        self.words[w] &= !b;
    }

    /// Is `n` in the set?
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        let (w, b) = Self::slot(n);
        self.words[w] & b != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// A copy of the set with `n` removed.
    #[inline]
    pub fn without(mut self, n: NodeId) -> Self {
        self.remove(n);
        self
    }

    /// Replace the set with the empty set, returning the old contents.
    #[inline]
    pub fn take(&mut self) -> SharerSet {
        std::mem::replace(self, Self::EMPTY)
    }

    /// Flip `n`'s membership bit — the soft-error layer's particle
    /// strike. Keeps raw word access confined to this module.
    #[inline]
    pub fn toggle(&mut self, n: NodeId) {
        let (w, b) = Self::slot(n);
        self.words[w] ^= b;
    }

    /// A copy of the backing words for guard hashing (read-only; the
    /// parity code covers every sharer bit without exposing the layout
    /// for mutation).
    #[inline]
    pub fn guard_words(&self) -> [u64; 4] {
        self.words
    }

    /// Members in ascending node order.
    pub fn iter(&self) -> SharerIter {
        SharerIter { words: self.words, word: 0 }
    }
}

/// Iterator over a [`SharerSet`], ascending.
pub struct SharerIter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for SharerIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.word < WORDS {
            let w = self.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.word] &= w - 1;
                return Some(NodeId((self.word * WORD_BITS + bit) as u16));
            }
            self.word += 1;
        }
        None
    }
}

impl IntoIterator for SharerSet {
    type Item = NodeId;
    type IntoIter = SharerIter;
    fn into_iter(self) -> SharerIter {
        self.iter()
    }
}

wb_kernel::snap_struct!(SharerSet { words });

impl std::fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(|n| n.0)).finish()
    }
}

/// Hex rendering for `debug_line` dumps: highest word first, words
/// joined by `_`, leading all-zero words elided.
impl std::fmt::LowerHex for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let top = self.words.iter().rposition(|&w| w != 0).unwrap_or(0);
        write!(f, "{:x}", self.words[top])?;
        for w in self.words[..top].iter().rev() {
            write!(f, "_{w:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::check::prelude::*;

    #[test]
    fn empty_solo_and_membership() {
        assert!(SharerSet::empty().is_empty());
        assert_eq!(SharerSet::empty().count(), 0);
        let s = SharerSet::solo(NodeId(63));
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(62)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn works_beyond_64_nodes() {
        // The whole point of the type: nodes 64..256 must track
        // correctly where `1u64 << n` broke down.
        let mut s = SharerSet::empty();
        for n in [0u16, 63, 64, 65, 127, 128, 255] {
            s.insert(NodeId(n));
        }
        assert_eq!(s.count(), 7);
        for n in [0u16, 63, 64, 65, 127, 128, 255] {
            assert!(s.contains(NodeId(n)), "missing n{n}");
        }
        assert!(!s.contains(NodeId(66)));
        let collected: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(collected, vec![0, 63, 64, 65, 127, 128, 255]);
    }

    #[test]
    fn remove_without_and_take() {
        let mut s = SharerSet::solo(NodeId(5));
        s.insert(NodeId(100));
        assert_eq!(s.without(NodeId(5)).iter().collect::<Vec<_>>(), vec![NodeId(100)]);
        s.remove(NodeId(100));
        assert_eq!(s.count(), 1);
        let old = s.take();
        assert!(s.is_empty());
        assert!(old.contains(NodeId(5)));
    }

    #[test]
    fn toggle_flips_membership() {
        let mut s = SharerSet::solo(NodeId(70));
        s.toggle(NodeId(70));
        assert!(s.is_empty());
        s.toggle(NodeId(200));
        assert!(s.contains(NodeId(200)));
        // Guard words see every toggle.
        let before = SharerSet::solo(NodeId(9)).guard_words();
        let mut t = SharerSet::solo(NodeId(9));
        t.toggle(NodeId(9));
        assert_ne!(before, t.guard_words());
    }

    #[test]
    fn hex_rendering_is_compact() {
        assert_eq!(format!("{:x}", SharerSet::empty()), "0");
        assert_eq!(format!("{:x}", SharerSet::solo(NodeId(5))), "20");
        let mut s = SharerSet::solo(NodeId(64));
        s.insert(NodeId(0));
        assert_eq!(format!("{:x}", s), "1_0000000000000001");
    }

    wb_proptest! {
        #[test]
        fn insert_remove_roundtrip(a in 0usize..256, b in 0usize..256) {
            let (a, b) = (NodeId(a as u16), NodeId(b as u16));
            let mut s = SharerSet::solo(a);
            s.insert(b);
            prop_assert!(s.contains(a) && s.contains(b));
            s.remove(a);
            if a == b {
                prop_assert!(s.is_empty());
            } else {
                prop_assert!(s.contains(b) && !s.contains(a));
                prop_assert_eq!(s.count(), 1);
            }
        }

        #[test]
        fn iter_is_sorted_and_exact(seed in 0u64..u64::MAX) {
            let mut s = SharerSet::empty();
            let mut expect = std::collections::BTreeSet::new();
            let mut x = seed | 1;
            for _ in 0..20 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let n = ((x >> 33) % 256) as u16;
                s.insert(NodeId(n));
                expect.insert(n);
            }
            let got: Vec<u16> = s.iter().map(|n| n.0).collect();
            let want: Vec<u16> = expect.into_iter().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(s.count(), s.iter().count());
        }
    }
}
