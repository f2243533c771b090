//! Queues of in-flight entries, addressed by slot.
//!
//! The ROB, the LQ and the SQ keep their entries in a [`SlotQueue`]: a
//! deque in sequence order, as before, in which every entry also holds a
//! slot, a small id that is its own from allocation to removal. A
//! reference to an entry is a [`Ref`], its slot and its sequence number.
//! The queue keeps each slot's position, so a lookup is one index into
//! that table, one into the deque and one compare: the sequence number
//! tells the entry from a later one that reuses the slot (the core never
//! reuses a sequence number).
//!
//! Positions are kept relative to a base that counts the entries which
//! left from the front, so a drain and a squash (which truncates the
//! tail) move no other entry's position. Out-of-order commit removes an
//! entry from the middle: the deque shifts the shorter side, and the
//! positions of that side are corrected, one per entry shifted. Walks
//! go through the deque itself, oldest first and contiguous in memory,
//! as they did when the deque was searched by sequence number.

use std::collections::VecDeque;

/// A slot: the id an entry keeps while it is in its queue.
pub type Slot = u16;

/// What a [`SlotQueue`] holds: an entry that carries its sequence number
/// and the slot the queue gave it.
pub trait Sequenced: Copy {
    fn seq(&self) -> u64;
    fn slot(&self) -> Slot;
    fn set_slot(&mut self, slot: Slot);
}

/// A checked reference to a queue entry: valid while the entry in `slot`
/// still has sequence number `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    pub seq: u64,
    pub slot: Slot,
}

impl Ref {
    /// A reference to `seq` that names no slot (restore uses it for an
    /// entry that is no longer in its queue).
    pub fn detached(seq: u64) -> Ref {
        Ref { seq, slot: Slot::MAX }
    }
}

/// At most `cap` entries in sequence order, each with a slot whose
/// position the queue keeps.
#[derive(Debug, Clone)]
pub struct SlotQueue<T> {
    /// The entries, oldest first.
    entries: VecDeque<T>,
    /// Each slot's position plus `base` (wrapping); stale for a free slot.
    pos: Vec<u32>,
    /// Entries that ever left from the front (wrapping).
    base: u32,
    /// Slots below `pos.len()` that no entry holds.
    free: Vec<Slot>,
    cap: usize,
}

impl<T: Sequenced> SlotQueue<T> {
    /// An empty queue of at most `cap` entries. Allocates nothing: the
    /// deque and the slot table grow as entries arrive, to the most the
    /// queue held at once.
    ///
    /// # Panics
    ///
    /// Panics if `cap` does not fit the slot type.
    pub fn new(cap: usize) -> Self {
        assert!(cap <= usize::from(Slot::MAX), "a queue holds at most {} entries", Slot::MAX);
        SlotQueue { entries: VecDeque::new(), pos: Vec::new(), base: 0, free: Vec::new(), cap }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is every slot taken?
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// The slot the next [`SlotQueue::push`] gives its entry.
    pub fn next_slot(&self) -> Slot {
        // `push` asserts the queue is not full, so a new slot fits `cap`.
        self.free.last().copied().unwrap_or(self.pos.len() as Slot)
    }

    /// Append `value`, the youngest entry, in slot [`SlotQueue::next_slot`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `value` is not younger than every
    /// entry.
    pub fn push(&mut self, mut value: T) -> Ref {
        assert!(!self.is_full(), "queue overflow");
        assert!(self.back().is_none_or(|b| b.seq < value.seq()), "entries must arrive in sequence order");
        let slot = self.free.pop().unwrap_or_else(|| {
            self.pos.push(0);
            (self.pos.len() - 1) as Slot
        });
        value.set_slot(slot);
        self.pos[usize::from(slot)] = self.base.wrapping_add(self.entries.len() as u32);
        self.entries.push_back(value);
        Ref { seq: value.seq(), slot }
    }

    /// The position of `r`'s entry (0 is the oldest), while it is in the
    /// queue.
    pub fn position(&self, r: Ref) -> Option<usize> {
        let p = self.slot_position(r.slot)?;
        (self.entries[p].seq() == r.seq).then_some(p)
    }

    /// The position of the entry in `slot`, if one holds it.
    fn slot_position(&self, slot: Slot) -> Option<usize> {
        let p = self.pos.get(usize::from(slot))?.wrapping_sub(self.base) as usize;
        self.entries.get(p).filter(|e| e.slot() == slot).map(|_| p)
    }

    /// Does `r` still name its entry?
    pub fn holds(&self, r: Ref) -> bool {
        self.position(r).is_some()
    }

    /// The entry `r` names, if it is still in the queue.
    pub fn get(&self, r: Ref) -> Option<&T> {
        self.position(r).map(|p| &self.entries[p])
    }

    /// Mutable [`SlotQueue::get`].
    pub fn get_mut(&mut self, r: Ref) -> Option<&mut T> {
        self.position(r).map(|p| &mut self.entries[p])
    }

    /// The reference to the entry at position `pos`.
    pub fn ref_at(&self, pos: usize) -> Option<Ref> {
        self.entries.get(pos).map(|e| Ref { seq: e.seq(), slot: e.slot() })
    }

    /// The entry at position `pos`.
    pub fn at(&self, pos: usize) -> Option<&T> {
        self.entries.get(pos)
    }

    /// Mutable [`SlotQueue::at`].
    pub fn at_mut(&mut self, pos: usize) -> Option<&mut T> {
        self.entries.get_mut(pos)
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// The youngest entry's reference.
    pub fn back(&self) -> Option<Ref> {
        self.entries.back().map(|e| Ref { seq: e.seq(), slot: e.slot() })
    }

    /// Remove the entry at position `pos` and free its slot.
    pub fn remove(&mut self, pos: usize) -> Option<(Ref, T)> {
        let e = self.entries.remove(pos)?;
        // Every younger entry moved down one place: correct the shorter
        // side, the older one by moving the base past it.
        if pos < self.entries.len() - pos {
            self.base = self.base.wrapping_add(1);
            for k in 0..pos {
                let s = usize::from(self.entries[k].slot());
                self.pos[s] = self.pos[s].wrapping_add(1);
            }
        } else {
            for k in pos..self.entries.len() {
                let s = usize::from(self.entries[k].slot());
                self.pos[s] = self.pos[s].wrapping_sub(1);
            }
        }
        Some(self.freed(e))
    }

    /// Remove the oldest entry.
    pub fn pop_front(&mut self) -> Option<(Ref, T)> {
        let e = self.entries.pop_front()?;
        self.base = self.base.wrapping_add(1);
        Some(self.freed(e))
    }

    /// Remove every entry with a sequence number of `from` or more, the
    /// youngest first. Returns how many were removed.
    pub fn truncate_from(&mut self, from: u64) -> usize {
        let mut n = 0;
        while let Some(e) = self.entries.pop_back_if(|e| e.seq() >= from) {
            self.freed(e);
            n += 1;
        }
        n
    }

    fn freed(&mut self, e: T) -> (Ref, T) {
        self.free.push(e.slot());
        (Ref { seq: e.seq(), slot: e.slot() }, e)
    }

    /// Remove every entry, keeping the storage.
    pub fn clear(&mut self) {
        while self.pop_front().is_some() {}
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.entries.iter()
    }

    /// The entries from position `pos` on, oldest first.
    pub fn iter_from(&self, pos: usize) -> std::collections::vec_deque::Iter<'_, T> {
        self.entries.range(pos.min(self.len())..)
    }

    /// The entries with their references, oldest first.
    pub fn iter_refs(&self) -> impl DoubleEndedIterator<Item = (Ref, &T)> + '_ {
        self.iter_refs_from(0)
    }

    /// The entries with their references from position `pos` on.
    pub fn iter_refs_from(&self, pos: usize) -> impl DoubleEndedIterator<Item = (Ref, &T)> + '_ {
        self.iter_from(pos).map(|e| (Ref { seq: e.seq(), slot: e.slot() }, e))
    }

    /// The reference to the entry with sequence number `seq`, found by
    /// binary search. For a cache completion's tag, which names a load by
    /// its sequence number, and for restore; everything else holds a
    /// [`Ref`].
    pub fn find(&self, seq: u64) -> Option<Ref> {
        let pos = self.entries.binary_search_by_key(&seq, T::seq).ok()?;
        self.ref_at(pos)
    }

    /// Are the entries in strictly increasing sequence order, does every
    /// entry's slot lead to its position, and is every other slot below
    /// the table's length free? For debug checks, which see each entry
    /// through `visit` (oldest first) and so walk the queue once.
    pub fn consistent(&self, mut visit: impl FnMut(Ref, &T)) -> bool {
        let mut last = None;
        let placed = self.iter_refs().enumerate().all(|(p, (r, e))| {
            visit(r, e);
            let ordered = last.is_none_or(|l| l < e.seq());
            last = Some(e.seq());
            ordered && self.slot_position(e.slot()) == Some(p)
        });
        let free = self.free.iter().all(|&s| usize::from(s) < self.pos.len() && self.slot_position(s).is_none());
        placed && free && self.free.len() + self.len() == self.pos.len() && self.pos.len() <= self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use wb_kernel::SimRng;

    /// A test entry: its sequence number, its slot and a value derived
    /// from the sequence number.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct E(u64, Slot, u64);

    impl Sequenced for E {
        fn seq(&self) -> u64 {
            self.0
        }
        fn slot(&self) -> Slot {
            self.1
        }
        fn set_slot(&mut self, slot: Slot) {
            self.1 = slot;
        }
    }

    fn e(seq: u64) -> E {
        E(seq, 0, seq * 1000)
    }

    /// Drive a queue through random dispatch, removal from the middle
    /// (out-of-order commit), tail truncation (squash), head drain and
    /// the slot reuse they cause, and compare every step with a
    /// `VecDeque` sorted by sequence number.
    #[test]
    fn matches_a_sorted_deque_under_random_use() {
        for seed in 0..40 {
            let mut rng = SimRng::new(seed);
            let cap = 1 + rng.below_usize(24);
            let mut q: SlotQueue<E> = SlotQueue::new(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            // Every reference handed out, to check that removed ones stop
            // resolving.
            let mut handed: Vec<Ref> = Vec::new();
            let mut next = 1;
            for _ in 0..2_000 {
                match rng.below(8) {
                    0..=2 if !q.is_full() => {
                        next += 1 + rng.below(3); // squashed numbers leave gaps
                        let slot = q.next_slot();
                        let r = q.push(e(next));
                        assert_eq!((r.seq, r.slot), (next, slot));
                        model.push_back(next);
                        handed.push(r);
                    }
                    3 | 4 if !model.is_empty() => {
                        let pos = rng.below_usize(model.len());
                        let (r, v) = q.remove(pos).unwrap();
                        assert_eq!((r.seq, v.0, v.2), (model[pos], model[pos], model[pos] * 1000));
                        model.remove(pos);
                    }
                    5 if !model.is_empty() => {
                        let from = model[rng.below_usize(model.len())] + rng.below(2);
                        let n = model.iter().filter(|&&s| s >= from).count();
                        assert_eq!(q.truncate_from(from), n);
                        model.retain(|&s| s < from);
                    }
                    6 => {
                        let popped = q.pop_front().map(|(r, v)| (r.seq, v.2));
                        assert_eq!(popped, model.pop_front().map(|s| (s, s * 1000)));
                    }
                    _ => {}
                }
                assert!(q.consistent(|_, _| ()), "seed {seed}");
                assert_eq!(q.len(), model.len());
                assert!(q.iter().map(|v| (v.0, v.2)).eq(model.iter().map(|&s| (s, s * 1000))), "seed {seed}");
                for (pos, &s) in model.iter().enumerate() {
                    let r = q.find(s).unwrap();
                    assert_eq!(q.ref_at(pos), Some(r));
                    assert_eq!(q.position(r), Some(pos));
                    assert_eq!(q.get(r).map(|v| v.2), Some(s * 1000));
                }
                for r in &handed {
                    assert_eq!(q.holds(*r), model.contains(&r.seq), "seed {seed}: {r:?}");
                }
                assert_eq!(q.find(next + 1), None);
            }
        }
    }

    #[test]
    fn an_empty_queue_owns_no_memory_and_a_freed_slot_is_reused() {
        let mut q: SlotQueue<E> = SlotQueue::new(4);
        assert_eq!((q.entries.capacity(), q.pos.capacity()), (0, 0));
        let r: Vec<Ref> = (1..=3).map(|s| q.push(e(s))).collect();
        // Commit 2 out of order: its slot is the next one taken.
        q.remove(1);
        let a = q.push(e(4));
        assert_eq!(a.slot, r[1].slot);
        assert!(q.holds(r[0]) && !q.holds(r[1]) && q.holds(r[2]) && q.holds(a));
        assert_eq!(q.position(a), Some(2));
        assert_eq!(q.get(Ref::detached(1)), None);
    }
}
