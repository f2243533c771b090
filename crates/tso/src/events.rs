//! The memory-event log.
//!
//! The core model appends one event per *committed* memory instruction:
//! loads record the value they irrevocably bound; stores and atomics
//! record the cycle at which they became globally visible (wrote the
//! cache in M state). Per-location write serialization is guaranteed by
//! the coherence protocol (a single M copy at a time), so `(perform
//! cycle, core)` totally orders the writes of each location.

use wb_kernel::Cycle;
use wb_mem::Addr;

/// What a memory instruction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// A load that bound `value`.
    Load { value: u64 },
    /// A store of `value`, globally visible at `performed_at`.
    Store { value: u64, performed_at: Cycle },
    /// An atomic read-modify-write: read `old`, wrote `new`, atomically
    /// at `performed_at`.
    Rmw { old: u64, new: u64, performed_at: Cycle },
}

impl MemOp {
    /// Does this event write memory?
    pub fn is_write(&self) -> bool {
        matches!(self, MemOp::Store { .. } | MemOp::Rmw { .. })
    }

    /// Does this event read memory?
    pub fn is_read(&self) -> bool {
        matches!(self, MemOp::Load { .. } | MemOp::Rmw { .. })
    }

    /// The value written, if any.
    pub fn written(&self) -> Option<u64> {
        match *self {
            MemOp::Store { value, .. } => Some(value),
            MemOp::Rmw { new, .. } => Some(new),
            MemOp::Load { .. } => None,
        }
    }

    /// The value read, if any.
    pub fn read(&self) -> Option<u64> {
        match *self {
            MemOp::Load { value } => Some(value),
            MemOp::Rmw { old, .. } => Some(old),
            MemOp::Store { .. } => None,
        }
    }

    /// The global-visibility cycle, for writes.
    pub fn performed_at(&self) -> Option<Cycle> {
        match *self {
            MemOp::Store { performed_at, .. } | MemOp::Rmw { performed_at, .. } => Some(performed_at),
            MemOp::Load { .. } => None,
        }
    }
}

/// One committed memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Core that executed the instruction.
    pub core: usize,
    /// Program-order sequence number within the core (strictly
    /// increasing; gaps allowed).
    pub seq: u64,
    /// Word address accessed.
    pub addr: Addr,
    /// What happened.
    pub op: MemOp,
}

/// A whole execution's worth of events, plus initial memory values.
#[derive(Debug, Clone, Default)]
pub struct ExecutionLog {
    events: Vec<MemEvent>,
    init: Vec<(Addr, u64)>,
}

impl ExecutionLog {
    /// An empty log.
    pub fn new() -> Self {
        ExecutionLog::default()
    }

    /// Record an initial memory value (everything else reads as 0).
    pub fn set_init(&mut self, addr: Addr, value: u64) {
        self.init.push((addr, value));
    }

    /// Append an event.
    pub fn push(&mut self, e: MemEvent) {
        self.events.push(e);
    }

    /// All events, unsorted.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Initial values.
    pub fn init(&self) -> &[(Addr, u64)] {
        &self.init
    }

    /// The initial value of `addr` (0 if never set).
    pub fn init_value(&self, addr: Addr) -> u64 {
        self.init.iter().rev().find(|(a, _)| *a == addr).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merge another log (e.g. from another core) into this one.
    pub fn merge(&mut self, other: ExecutionLog) {
        self.events.extend(other.events);
        self.init.extend(other.init);
    }
}

impl Extend<MemEvent> for ExecutionLog {
    fn extend<T: IntoIterator<Item = MemEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

wb_kernel::snap_enum!(MemOp {
    0 => Load { value },
    1 => Store { value, performed_at },
    2 => Rmw { old, new, performed_at },
});
wb_kernel::snap_struct!(MemEvent { core, seq, addr, op });
wb_kernel::snap_struct!(ExecutionLog { events, init });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        let l = MemOp::Load { value: 1 };
        let s = MemOp::Store { value: 2, performed_at: 10 };
        let r = MemOp::Rmw { old: 0, new: 1, performed_at: 11 };
        assert!(l.is_read() && !l.is_write());
        assert!(s.is_write() && !s.is_read());
        assert!(r.is_read() && r.is_write());
        assert_eq!(l.read(), Some(1));
        assert_eq!(s.written(), Some(2));
        assert_eq!(r.read(), Some(0));
        assert_eq!(r.written(), Some(1));
        assert_eq!(s.performed_at(), Some(10));
        assert_eq!(l.performed_at(), None);
    }

    #[test]
    fn log_init_values() {
        let mut log = ExecutionLog::new();
        log.set_init(Addr::new(0x40), 7);
        assert_eq!(log.init_value(Addr::new(0x40)), 7);
        assert_eq!(log.init_value(Addr::new(0x48)), 0);
        log.set_init(Addr::new(0x40), 9);
        assert_eq!(log.init_value(Addr::new(0x40)), 9, "latest init wins");
    }

    #[test]
    fn log_push_and_merge() {
        let mut a = ExecutionLog::new();
        a.push(MemEvent { core: 0, seq: 1, addr: Addr::new(0), op: MemOp::Load { value: 0 } });
        let mut b = ExecutionLog::new();
        b.push(MemEvent { core: 1, seq: 1, addr: Addr::new(8), op: MemOp::Store { value: 1, performed_at: 5 } });
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
