//! Miss status holding registers.
//!
//! The MSHR file tracks outstanding coherence transactions of a private
//! cache. Loads to a line with an outstanding transaction piggyback on its
//! MSHR (the common optimization Section 3.5.2 discusses); one register is
//! *reserved for SoS loads* so that a source-of-speculation load can
//! always launch a fresh read and bypass a write blocked in WritersBlock —
//! the paper's resource-partitioning rule that makes SoS loads unblockable.

use crate::private::ReadTag;
use wb_mem::LineAddr;

/// What transaction an MSHR tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MshrKind {
    /// An outstanding cacheable GetS.
    Read,
    /// An outstanding GetX (write permission, possibly with data).
    Write,
    /// An outstanding tear-off read launched by (or on behalf of) a SoS
    /// load to bypass a blocked write (Section 3.5.2) or a full set.
    TearOff,
}

impl MshrKind {
    /// Static name, used as the trace-event mnemonic.
    pub fn label(self) -> &'static str {
        match self {
            MshrKind::Read => "Read",
            MshrKind::Write => "Write",
            MshrKind::TearOff => "TearOff",
        }
    }
}

/// One miss status holding register.
#[derive(Debug, Clone)]
pub struct Mshr {
    pub line: LineAddr,
    pub kind: MshrKind,
    /// Loads waiting on this transaction.
    pub waiting_loads: Vec<ReadTag>,
    /// For writes: invalidation acks still outstanding (known once the
    /// Data/ack-count reply arrives).
    pub acks_expected: Option<u32>,
    pub acks_received: u32,
    pub data_received: bool,
    /// Set when the directory hinted that this write is blocked in
    /// WritersBlock.
    pub blocked_hint: bool,
    /// Line contents delivered for a write, held until every expected
    /// acknowledgement arrives (the line becomes M only then).
    pub pending_data: Option<wb_mem::LineData>,
    /// Cycle at which the request was issued (for latency stats).
    pub issued_at: u64,
    /// Cycle at which the first WritersBlock hint arrived, if any
    /// (for the blocked-write stall-duration histogram).
    pub blocked_at: Option<u64>,
    /// ECC shadow: a packed copy ([`Mshr::pack`]) of the ack/flag
    /// bookkeeping, refreshed after every legitimate mutation. A
    /// soft-error flip leaves the live fields and the shadow
    /// disagreeing; the scrub restores the fields from the shadow.
    pub shadow: u64,
}

/// Bits in the packed ack/flag image ([`Mshr::pack`]).
pub const MSHR_PACK_BITS: u32 = 35;

impl Mshr {
    /// A write transaction is complete when its data arrived and every
    /// expected invalidation acknowledgement has been counted.
    pub fn write_complete(&self) -> bool {
        self.data_received && self.acks_expected.is_some_and(|n| self.acks_received >= n)
    }

    /// Pack the soft-error-protected fields — the ack counters and
    /// flags that decide [`Mshr::write_complete`] — into one word.
    pub fn pack(&self) -> u64 {
        (self.acks_expected.unwrap_or(0) as u64 & 0xffff)
            | (self.acks_expected.is_some() as u64) << 16
            | (self.acks_received as u64 & 0xffff) << 17
            | (self.data_received as u64) << 33
            | (self.blocked_hint as u64) << 34
    }

    /// Overwrite the protected fields from a packed image — used both
    /// by the injector (apply a flipped image) and by the scrub
    /// (restore the shadow).
    pub fn unpack_into(&mut self, p: u64) {
        self.acks_expected = if p >> 16 & 1 != 0 { Some((p & 0xffff) as u32) } else { None };
        self.acks_received = (p >> 17 & 0xffff) as u32;
        self.data_received = p >> 33 & 1 != 0;
        self.blocked_hint = p >> 34 & 1 != 0;
    }

    /// Refresh the ECC shadow after a legitimate mutation.
    pub fn reshadow(&mut self) {
        self.shadow = self.pack();
    }
}

/// The MSHR file: fixed capacity, one register reserved for SoS traffic.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Mshr>,
    capacity: usize,
}

impl MshrFile {
    /// A file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (one register must remain reservable for
    /// SoS loads while normal traffic uses the rest).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "need >= 2 MSHRs (one reserved for SoS loads)");
        MshrFile { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Find the MSHR for `(line, kind)`.
    pub fn find(&self, line: LineAddr, kind: MshrKind) -> Option<&Mshr> {
        self.entries.iter().find(|m| m.line == line && m.kind == kind)
    }

    /// Mutable [`MshrFile::find`].
    pub fn find_mut(&mut self, line: LineAddr, kind: MshrKind) -> Option<&mut Mshr> {
        self.entries.iter_mut().find(|m| m.line == line && m.kind == kind)
    }

    /// Allocate a new register. Non-SoS allocations keep one register
    /// free; `sos` allocations may take the last one. Returns `None` when
    /// the file is exhausted for this class.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an MSHR for `(line, kind)` already exists.
    pub fn alloc(&mut self, line: LineAddr, kind: MshrKind, sos: bool, now: u64) -> Option<&mut Mshr> {
        debug_assert!(self.find(line, kind).is_none(), "duplicate MSHR for {line} {kind:?}");
        let limit = if sos { self.capacity } else { self.capacity - 1 };
        if self.entries.len() >= limit {
            return None;
        }
        self.entries.push(Mshr {
            line,
            kind,
            waiting_loads: Vec::new(),
            acks_expected: None,
            acks_received: 0,
            data_received: false,
            blocked_hint: false,
            pending_data: None,
            issued_at: now,
            blocked_at: None,
            shadow: 0,
        });
        let m = self.entries.last_mut().expect("just pushed");
        m.reshadow();
        Some(m)
    }

    /// Free the register for `(line, kind)`, returning it (with its
    /// waiting loads) to the caller.
    pub fn free(&mut self, line: LineAddr, kind: MshrKind) -> Option<Mshr> {
        let i = self.entries.iter().position(|m| m.line == line && m.kind == kind)?;
        Some(self.entries.swap_remove(i))
    }

    /// Number of registers in use.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// True when no transaction is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over occupied registers.
    pub fn iter(&self) -> impl Iterator<Item = &Mshr> {
        self.entries.iter()
    }

    /// Registers the file may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// ECC scrub: restore any register whose live fields disagree with
    /// its shadow, returning the lines corrected (normally empty). Runs
    /// at message/tick entry so a flip never reaches a protocol
    /// decision.
    pub fn scrub(&mut self) -> Vec<LineAddr> {
        let mut corrected = Vec::new();
        for m in &mut self.entries {
            if m.pack() != m.shadow {
                let shadow = m.shadow;
                m.unpack_into(shadow);
                corrected.push(m.line);
            }
        }
        corrected
    }

    /// Refresh every shadow after a batch of legitimate mutations.
    pub fn reshadow_all(&mut self) {
        for m in &mut self.entries {
            m.reshadow();
        }
    }

    /// Soft-error injection: flip one random bit of the `idx`-th
    /// register's packed ack/flag image, leaving the shadow stale so the
    /// scrub can detect (and correct) it. Returns the victim line, or
    /// `None` when the flip landed in don't-care storage (e.g. the
    /// `acks_expected` value bits while the field is `None`): such a
    /// strike is physically absorbed and counts as a miss.
    pub fn soft_flip_nth(&mut self, idx: usize, rng: &mut wb_kernel::SimRng) -> Option<LineAddr> {
        let m = self.entries.get_mut(idx)?;
        let before = m.pack();
        m.unpack_into(before ^ 1u64 << rng.below(MSHR_PACK_BITS as u64));
        (m.pack() != before).then_some(m.line)
    }
}

wb_kernel::snap_enum!(MshrKind { 0 => Read, 1 => Write, 2 => TearOff });
wb_kernel::snap_struct!(Mshr {
    line, kind, waiting_loads, acks_expected, acks_received, data_received,
    blocked_hint, pending_data, issued_at, blocked_at, shadow,
});
// Entries serialize positionally: [`MshrFile::free`] uses `swap_remove`
// and lookups scan linearly, so register order is execution-visible.
wb_kernel::snap_struct!(MshrFile { entries, capacity });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_find_free() {
        let mut f = MshrFile::new(4);
        f.alloc(LineAddr(1), MshrKind::Read, false, 0).unwrap();
        assert!(f.find(LineAddr(1), MshrKind::Read).is_some());
        assert!(f.find(LineAddr(1), MshrKind::Write).is_none());
        let m = f.free(LineAddr(1), MshrKind::Read).unwrap();
        assert_eq!(m.line, LineAddr(1));
        assert!(f.is_empty());
    }

    #[test]
    fn reserved_register_for_sos() {
        let mut f = MshrFile::new(2);
        assert!(f.alloc(LineAddr(1), MshrKind::Write, false, 0).is_some());
        // Normal allocation refused: only the reserved slot is left.
        assert!(f.alloc(LineAddr(2), MshrKind::Read, false, 0).is_none());
        // SoS allocation may take it.
        assert!(f.alloc(LineAddr(2), MshrKind::TearOff, true, 0).is_some());
        // And now even SoS is out of luck.
        assert!(f.alloc(LineAddr(3), MshrKind::TearOff, true, 0).is_none());
    }

    #[test]
    fn same_line_different_kinds_coexist() {
        let mut f = MshrFile::new(4);
        f.alloc(LineAddr(1), MshrKind::Write, false, 0).unwrap();
        f.alloc(LineAddr(1), MshrKind::TearOff, true, 0).unwrap();
        assert_eq!(f.in_use(), 2);
    }

    #[test]
    fn write_completion_rule() {
        let mut f = MshrFile::new(2);
        let m = f.alloc(LineAddr(1), MshrKind::Write, false, 0).unwrap();
        assert!(!m.write_complete());
        m.data_received = true;
        assert!(!m.write_complete(), "ack count unknown yet");
        m.acks_expected = Some(2);
        m.acks_received = 1;
        assert!(!m.write_complete());
        m.acks_received = 2;
        assert!(m.write_complete());
    }

    #[test]
    #[should_panic(expected = ">= 2 MSHRs")]
    fn tiny_file_rejected() {
        let _ = MshrFile::new(1);
    }

    #[test]
    fn pack_round_trips_protected_fields() {
        let mut f = MshrFile::new(2);
        let m = f.alloc(LineAddr(1), MshrKind::Write, false, 0).unwrap();
        m.acks_expected = Some(3);
        m.acks_received = 2;
        m.data_received = true;
        m.blocked_hint = true;
        let p = m.pack();
        let mut clean = f.free(LineAddr(1), MshrKind::Write).unwrap();
        clean.unpack_into(0);
        assert_eq!((clean.acks_expected, clean.acks_received), (None, 0));
        clean.unpack_into(p);
        assert_eq!(clean.acks_expected, Some(3));
        assert_eq!(clean.acks_received, 2);
        assert!(clean.data_received && clean.blocked_hint);
    }

    #[test]
    fn every_flipped_bit_is_scrubbed() {
        for bit in 0..MSHR_PACK_BITS {
            let mut f = MshrFile::new(4);
            let m = f.alloc(LineAddr(9), MshrKind::Write, false, 0).unwrap();
            m.acks_expected = Some(2);
            m.acks_received = 1;
            m.data_received = true;
            m.reshadow();
            let want = m.pack();
            let corrupt = want ^ 1u64 << bit;
            m.unpack_into(corrupt);
            let corrected = f.scrub();
            assert_eq!(corrected, vec![LineAddr(9)], "bit {bit} undetected");
            assert_eq!(f.find(LineAddr(9), MshrKind::Write).unwrap().pack(), want);
            assert!(f.scrub().is_empty(), "scrub must converge");
        }
    }

    #[test]
    fn soft_flip_is_detectable() {
        let mut rng = wb_kernel::SimRng::new(11);
        let mut f = MshrFile::new(4);
        // Populate every protected field so no strike lands in
        // don't-care storage (a None acks_expected absorbs value bits).
        let m = f.alloc(LineAddr(5), MshrKind::Write, false, 0).unwrap();
        m.acks_expected = Some(3);
        m.acks_received = 1;
        m.reshadow();
        assert!(f.scrub().is_empty(), "fresh register is clean");
        let victim = f.soft_flip_nth(0, &mut rng).unwrap();
        assert_eq!(victim, LineAddr(5));
        assert_eq!(f.scrub(), vec![LineAddr(5)]);
        assert!(f.soft_flip_nth(7, &mut rng).is_none(), "bad index is a miss");
    }
}
