//! MESI directory coherence with the WritersBlock extension.
//!
//! This crate implements the memory-system half of the paper:
//!
//! - [`PrivateCache`]: the per-core private L1+L2 hierarchy, its MSHRs
//!   (with one entry reserved for SoS loads, Section 3.5.2), write
//!   permission management for the store buffer, silent/non-silent
//!   evictions (Section 3.8) and the core-facing interface;
//! - [`Directory`]: an LLC/directory bank implementing a GEMS-style MESI
//!   directory protocol with 3-hop read transactions and Unblock, extended
//!   with the **WritersBlock** transient state (Section 3.3): invalidation
//!   Nacks put the entry into WritersBlock, which *blocks all writes but
//!   admits reads* by serving uncacheable tear-off copies (Section 3.4),
//!   and redirects the eventual lockdown Acks to the blocked writer;
//! - [`ProtoMsg`]: the protocol message vocabulary carried by the mesh.
//!
//! The *core side* of the mechanism (load queues, S bits, lockdown
//! lifetimes, the LDT) lives in `wb-cpu`; the two halves meet at the
//! [`CoreSide`] trait and the [`Completion`] event stream.

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]
// Impossible protocol states surface as typed `ProtocolError` faults
// (`RunOutcome::Fault`), never as process aborts.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod array;
pub mod directory;
pub mod messages;
pub mod mshr;
pub mod private;
pub mod sharers;

pub use directory::Directory;
pub use messages::{ProtoMsg, ReadKind};
pub use mshr::MshrFile;
pub use private::{Completion, LoadAccess, PrivateCache, ReadTag};
pub use sharers::SharerSet;

use wb_mem::LineAddr;

/// A protocol component reached an "impossible" state.
///
/// Instead of panicking (which aborts a whole torture suite and leaves
/// no usable diagnosis), directory banks and private caches record the
/// first violation they see and drop the offending message; the system
/// watchdog surfaces it as `RunOutcome::Fault` with a full wedge report
/// and a reproducer line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Component that detected the violation, e.g. `"dir2"`, `"cache0"`.
    pub at: String,
    /// Cache line involved.
    pub line: u64,
    /// What was being processed (message or internal event name).
    pub context: String,
    /// Why the state was impossible.
    pub detail: String,
}

wb_kernel::snap_struct!(ProtocolError { at, line, context, detail });

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} for line {:#x}: {}",
            self.at, self.context, self.line, self.detail
        )
    }
}

/// One transient or parked directory entry, for wedge diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirWait {
    pub line: u64,
    /// Stable state name (`"BusyWrite.wb"`, `"Evicting"`, …).
    pub state: &'static str,
    /// The node the transaction is waiting on (writer / requester /
    /// owner), when one is identifiable.
    pub waiting_on: Option<u16>,
    /// Requesters with messages queued behind this entry.
    pub queued: Vec<u16>,
}

/// One outstanding MSHR, for wedge diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrWait {
    pub line: u64,
    pub kind: &'static str,
    /// A write currently blocked by WritersBlock (got a hint).
    pub blocked: bool,
    pub issued_at: u64,
}

/// How a core answers an invalidation that was delivered to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalResponse {
    /// Acknowledge immediately (no matching lockdown; in the base
    /// protocol this is always the answer — after squashing any
    /// M-speculative loads that match).
    Ack,
    /// Withhold the acknowledgement: a matching load is in lockdown
    /// (WritersBlock protocol only). The core promises to call
    /// [`PrivateCache::release_lockdown`] for this line exactly once,
    /// when the last matching lockdown is lifted.
    Nack,
}

/// The core-facing hook the private cache uses to deliver invalidations.
///
/// Implemented by the load/store unit of `wb-cpu`. Invalidation delivery
/// is synchronous within the cycle (the LQ CAM search is modelled as part
/// of the invalidation processing latency).
pub trait CoreSide {
    /// An invalidation for `line` (write- or eviction-initiated) reached
    /// this core. The implementation must search its LQ/LDT:
    ///
    /// - base protocol: squash M-speculative loads matching `line` and
    ///   return [`InvalResponse::Ack`];
    /// - WritersBlock protocol: if a matching load is in lockdown, set the
    ///   "seen" bit on the youngest match and return
    ///   [`InvalResponse::Nack`]; otherwise `Ack`.
    fn on_invalidation(&mut self, now: wb_kernel::Cycle, line: LineAddr) -> InvalResponse;

    /// Does the core currently hold an M-speculative (lockdown) load bound
    /// to `line`? Used by the private cache to pin such lines against
    /// eviction under the WritersBlock protocol (Section 3.8).
    fn has_mspec(&self, line: LineAddr) -> bool;

    /// A non-silent eviction is removing `line` from the directory's view
    /// of this cache. In the base protocol the core must squash any
    /// M-speculative loads bound to it (Section 3.8): future writes will
    /// no longer be announced to this core.
    fn on_eviction(&mut self, now: wb_kernel::Cycle, line: LineAddr);
}

/// A trivially Ack-ing [`CoreSide`] for tests and warm-up traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysAck;

impl CoreSide for AlwaysAck {
    fn on_invalidation(&mut self, _now: wb_kernel::Cycle, _line: LineAddr) -> InvalResponse {
        InvalResponse::Ack
    }
    fn has_mspec(&self, _line: LineAddr) -> bool {
        false
    }
    fn on_eviction(&mut self, _now: wb_kernel::Cycle, _line: LineAddr) {}
}
