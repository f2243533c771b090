//! Property tests on the protocol's data structures.

use wb_kernel::check::prelude::*;
use wb_kernel::{Snap, SnapReader, SnapWriter};
use wb_mem::LineAddr;
use wb_protocol::array::{Insert, SetAssocArray};
use wb_protocol::mshr::{MshrFile, MshrKind};

#[derive(Debug, Clone)]
enum ArrayOp {
    Insert(u64),
    Remove(u64),
    Touch(u64),
}

fn array_op() -> Gen<ArrayOp> {
    prop_oneof![
        (0u64..40).prop_map(ArrayOp::Insert),
        (0u64..40).prop_map(ArrayOp::Remove),
        (0u64..40).prop_map(ArrayOp::Touch),
    ]
}

/// Apply `op` at time `now` (an insert of a resident line is skipped),
/// returning what the array answered.
fn apply(a: &mut SetAssocArray<u64>, op: &ArrayOp, now: u64) -> (Option<Insert<u64>>, Option<u64>) {
    match *op {
        ArrayOp::Insert(l) if !a.contains(LineAddr(l)) => (Some(a.insert(LineAddr(l), l * 10, now, |_, _| true)), None),
        ArrayOp::Insert(_) => (None, None),
        ArrayOp::Remove(l) => (None, a.remove(LineAddr(l))),
        ArrayOp::Touch(l) => {
            a.touch(LineAddr(l), now);
            (None, None)
        }
    }
}

fn snap_bytes(a: &SetAssocArray<u64>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    a.snap(&mut w);
    w.into_bytes()
}

fn restore(bytes: &[u8]) -> SetAssocArray<u64> {
    let mut r = SnapReader::new(bytes);
    let a = SetAssocArray::unsnap(&mut r).expect("an array's own bytes decode");
    r.finish().expect("an array's own bytes decode exactly");
    a
}

wb_proptest! {
    /// The array mirrors a reference model (a set-limited map): presence
    /// agrees after every operation, and occupancy never exceeds
    /// sets x ways.
    #[test]
    fn set_assoc_array_matches_reference(ops in vec_of(array_op(), 1..200)) {
        let (sets, ways) = (4usize, 2usize);
        let mut a: SetAssocArray<u64> = SetAssocArray::new(sets, ways);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (line, payload)
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                ArrayOp::Insert(l) => {
                    if reference.iter().any(|(rl, _)| *rl == l) {
                        continue; // duplicate inserts are a caller error
                    }
                    match a.insert(LineAddr(l), l * 10, now, |_, _| true) {
                        Insert::Done => reference.push((l, l * 10)),
                        Insert::Evicted(victim, _) => {
                            reference.retain(|(rl, _)| *rl != victim.0);
                            reference.push((l, l * 10));
                        }
                        Insert::NoVictim => unreachable!("all ways evictable"),
                    }
                }
                ArrayOp::Remove(l) => {
                    let got = a.remove(LineAddr(l));
                    let had = reference.iter().any(|(rl, _)| *rl == l);
                    prop_assert_eq!(got.is_some(), had);
                    reference.retain(|(rl, _)| *rl != l);
                }
                ArrayOp::Touch(l) => a.touch(LineAddr(l), now),
            }
            prop_assert!(a.len() <= sets * ways);
            prop_assert_eq!(a.len(), reference.len());
            for (l, v) in &reference {
                prop_assert_eq!(a.get(LineAddr(*l)), Some(v));
            }
        }
    }

    /// Storage allocated per touched set is invisible: a snapshot taken
    /// after any op sequence (sets emptied by `remove`, with their stale
    /// stamps, included) restores to an array that re-snaps to the same
    /// bytes and answers every later op as the original does, and
    /// `iter()` walks the sets in ascending order.
    #[test]
    fn set_assoc_array_snapshot_round_trips(ops in vec_of(array_op(), 1..200), cut in 0usize..200) {
        let sets = 4u64;
        let cut = cut % ops.len();
        let mut a: SetAssocArray<u64> = SetAssocArray::new(sets as usize, 2);
        let mut b: Option<SetAssocArray<u64>> = None;
        for (k, op) in ops.iter().enumerate() {
            if k == cut {
                let bytes = snap_bytes(&a);
                let restored = restore(&bytes);
                prop_assert_eq!(snap_bytes(&restored), bytes);
                b = Some(restored);
            }
            let now = k as u64 + 1;
            let answer = apply(&mut a, op, now);
            if let Some(b) = b.as_mut() {
                prop_assert_eq!(apply(b, op, now), answer);
            }
            let order: Vec<u64> = a.iter().map(|(l, _)| l.0 % sets).collect();
            prop_assert!(order.windows(2).all(|w| w[0] <= w[1]), "iter() out of set order: {:?}", order);
        }
        let b = b.expect("the cut lies inside the op sequence");
        prop_assert_eq!(snap_bytes(&b), snap_bytes(&a));
        let restored = restore(&snap_bytes(&a));
        prop_assert_eq!(snap_bytes(&restored), snap_bytes(&a));
    }

    /// An array nothing was ever inserted into writes what an array with
    /// every set allocated up front wrote: `n` free tags, `n` zero
    /// stamps, `n` empty payloads, then the geometry and `len` 0.
    #[test]
    fn untouched_array_writes_the_eager_layout(
        sets in 1usize..64,
        ways in 1usize..9,
        misses in vec_of(0u64..1000, 0..8)
    ) {
        let mut a: SetAssocArray<u64> = SetAssocArray::new(sets, ways);
        for l in misses {
            a.touch(LineAddr(l), 1);
            prop_assert_eq!(a.remove(LineAddr(l)), None);
        }
        let n = sets * ways;
        let mut w = SnapWriter::new();
        vec![u64::MAX; n].snap(&mut w);
        vec![0u64; n].snap(&mut w);
        vec![None::<u64>; n].snap(&mut w);
        w.usize(sets);
        w.usize(ways);
        w.usize(0);
        prop_assert_eq!(snap_bytes(&a), w.into_bytes());
    }

    /// LRU: after touching a line, inserting a conflicting line never
    /// evicts the just-touched one while an older way exists.
    #[test]
    fn touched_line_survives_conflict(fresh in 0u64..8) {
        let mut a: SetAssocArray<u64> = SetAssocArray::new(1, 4);
        for l in 0..4u64 {
            a.insert(LineAddr(l), l, l, |_, _| true);
        }
        let keep = fresh % 4;
        a.touch(LineAddr(keep), 100);
        match a.insert(LineAddr(99), 99, 101, |_, _| true) {
            Insert::Evicted(victim, _) => prop_assert_ne!(victim.0, keep),
            other => prop_assert!(false, "expected eviction, got {:?}", other),
        }
    }

    /// MSHR invariants: occupancy bounded by capacity; non-SoS traffic
    /// always leaves one register free; free() returns exactly the
    /// allocated entries.
    #[test]
    fn mshr_reservation_invariant(
        allocs in vec_of((0u64..12, any::<bool>()), 1..40)
    ) {
        let cap = 4usize;
        let mut f = MshrFile::new(cap);
        let mut live: Vec<u64> = Vec::new();
        let mut normal_live = 0usize;
        for (line, sos) in allocs {
            if live.contains(&line) {
                continue;
            }
            match f.alloc(LineAddr(line), MshrKind::Read, sos, 0) {
                Some(_) => {
                    live.push(line);
                    if !sos {
                        normal_live += 1;
                    }
                }
                None => {
                    if sos {
                        prop_assert_eq!(live.len(), cap, "SoS refused before the file was full");
                    } else {
                        prop_assert!(live.len() >= cap - 1, "normal alloc refused too early");
                    }
                }
            }
            prop_assert!(f.in_use() <= cap);
            prop_assert!(normal_live < cap || normal_live <= f.in_use());
        }
        for line in live {
            prop_assert!(f.free(LineAddr(line), MshrKind::Read).is_some());
        }
        prop_assert!(f.is_empty());
    }
}
