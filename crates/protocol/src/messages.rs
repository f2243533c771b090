//! Protocol message vocabulary.
//!
//! Messages travel on three virtual networks (see `wb-mesh`):
//!
//! | vnet      | messages |
//! |-----------|----------|
//! | Request   | `GetS`, `GetX`, `PutM` |
//! | Forward   | `Inv`, `FwdGetS`, `FwdGetX`, `Recall`, `Purge` |
//! | Response  | `Data`, `InvAck`, `Nack`, `LockdownAck`, `RedirAck`, `Unblock`, `PutAck`, `WbHint`, `DataWb` |
//!
//! Compared to a textbook MESI directory protocol, the WritersBlock
//! extension adds exactly the red arrows of Figure 3/4 of the paper:
//! `Nack` (invalidation refused by a lockdown, optionally carrying the
//! dirty data to refresh the LLC), `LockdownAck` (the deferred
//! acknowledgement sent when the lockdown lifts), `RedirAck` (the
//! directory forwarding that acknowledgement to the writer, whose identity
//! only the directory knows), tear-off `Data` (the `cacheable: false`
//! flavor) and `WbHint` (the blocked-write hint of Section 3.5.2).

use wb_kernel::NodeId;
use wb_mem::{LineAddr, LineData};
use wb_mesh::VNet;

/// Message destination: each tile hosts both a private cache and an
/// LLC/directory bank, so routing needs the component as well as the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// The private cache of a tile.
    Cache(NodeId),
    /// The LLC/directory bank of a tile.
    Dir(NodeId),
}

impl Dest {
    /// The tile the destination component lives on.
    pub fn node(self) -> NodeId {
        match self {
            Dest::Cache(n) | Dest::Dir(n) => n,
        }
    }
}

/// Why a read was issued — governs whether the reply may be cached.
/// `Hash` so the mesh's reliable sublayer can checksum frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// Normal cacheable read (GetS).
    Cacheable,
    /// Explicit tear-off request: the reply must be an uncacheable copy
    /// and the requester is never registered as a sharer. Used by SoS
    /// loads bypassing blocked MSHRs and by reads that cannot allocate
    /// (Section 3.5).
    TearOff,
}

/// A coherence protocol message.
/// `Hash` so the mesh's reliable sublayer can checksum frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProtoMsg {
    // ------------------------------------------------------ requests (vnet0)
    /// Read request for a line.
    GetS { line: LineAddr, requester: NodeId, kind: ReadKind },
    /// Write-permission request (also used for upgrades from S; the reply
    /// always carries data).
    GetX { line: LineAddr, requester: NodeId },
    /// Owner eviction: write the line back. Sent for both M (dirty) and E
    /// (clean) lines; data always travels.
    PutM { line: LineAddr, requester: NodeId, data: LineData },
    /// Non-silent eviction of a shared line (ablation of Section 3.8; the
    /// paper's chosen baseline keeps shared evictions silent).
    PutS { line: LineAddr, requester: NodeId },

    // ------------------------------------------------------ forwards (vnet1)
    /// Invalidate a shared copy. `writer` is who collects the InvAck
    /// (`None` for eviction-invalidations, whose Acks return to the
    /// directory).
    Inv { line: LineAddr, writer: Option<NodeId> },
    /// Forward of a read to the exclusive owner: send data to `requester`
    /// and a copy back to the directory, downgrade to S. With
    /// `kind == TearOff` the owner only sends an uncacheable copy and
    /// keeps its state.
    FwdGetS { line: LineAddr, requester: NodeId, kind: ReadKind },
    /// Forward of a write to the exclusive owner: send data to
    /// `requester`, invalidate own copy (or Nack under a lockdown).
    FwdGetX { line: LineAddr, requester: NodeId },
    /// Directory-eviction recall of the exclusive copy: send data to the
    /// directory and invalidate (or Nack under a lockdown).
    Recall { line: LineAddr },
    /// Soft-error recovery: the home found the directory entry of `line`
    /// corrupted and invalidates every core, as a write with no requester
    /// would. An owner answers as to a `Recall` (`DataWb`, or `Nack` with
    /// data under a lockdown), any other cache as to an eviction's `Inv`
    /// (`InvAck`, or `Nack`).
    Purge { line: LineAddr },

    // ----------------------------------------------------- responses (vnet2)
    /// Line data. `acks_expected` tells a writer how many invalidation
    /// acknowledgements to await; `exclusive` grants E to a reader;
    /// `cacheable: false` makes this a tear-off copy (use once, do not
    /// cache).
    Data {
        line: LineAddr,
        data: LineData,
        acks_expected: u32,
        exclusive: bool,
        cacheable: bool,
        /// True when this reply answers a write request (GetX/FwdGetX):
        /// it must be consumed by the requester's *write* MSHR even if a
        /// read to the same line is also outstanding. (Real protocols use
        /// distinct GETS_DATA / GETX_DATA message types.)
        for_write: bool,
    },
    /// Invalidation acknowledgement, sharer -> writer.
    InvAck { line: LineAddr, from: NodeId },
    /// Invalidation refused by a lockdown, sharer -> directory. Puts the
    /// directory entry into WritersBlock. Carries the line data when the
    /// Nacking cache held the line exclusively (Figure 3.B step 3:
    /// Nack+Data) so the LLC can serve subsequent reads.
    Nack { line: LineAddr, from: NodeId, data: Option<LineData> },
    /// Deferred acknowledgement: the last lockdown for `line` at `from`
    /// was lifted. Routed to the directory (which knows the writer).
    LockdownAck { line: LineAddr, from: NodeId },
    /// The directory redirecting a LockdownAck to the blocked writer
    /// (Figure 3.B steps 4-5).
    RedirAck { line: LineAddr },
    /// Transaction complete, requester -> directory.
    Unblock { line: LineAddr, from: NodeId },
    /// Directory acknowledging a PutM.
    PutAck { line: LineAddr },
    /// Hint to a writer that its write request is blocked in WritersBlock
    /// (Section 3.5.2), so SoS loads stop piggybacking on its MSHR.
    WbHint { line: LineAddr },
    /// Owner's copy of the data sent back to the directory on a FwdGetS
    /// downgrade (keeps the LLC up to date).
    DataWb { line: LineAddr, from: NodeId, data: LineData },
}

impl ProtoMsg {
    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            ProtoMsg::GetS { line, .. }
            | ProtoMsg::GetX { line, .. }
            | ProtoMsg::PutM { line, .. }
            | ProtoMsg::PutS { line, .. }
            | ProtoMsg::Inv { line, .. }
            | ProtoMsg::FwdGetS { line, .. }
            | ProtoMsg::FwdGetX { line, .. }
            | ProtoMsg::Recall { line }
            | ProtoMsg::Purge { line }
            | ProtoMsg::Data { line, .. }
            | ProtoMsg::InvAck { line, .. }
            | ProtoMsg::Nack { line, .. }
            | ProtoMsg::LockdownAck { line, .. }
            | ProtoMsg::RedirAck { line }
            | ProtoMsg::Unblock { line, .. }
            | ProtoMsg::PutAck { line }
            | ProtoMsg::WbHint { line }
            | ProtoMsg::DataWb { line, .. } => line,
        }
    }

    /// Which virtual network this message class uses.
    pub fn vnet(&self) -> VNet {
        match self {
            ProtoMsg::GetS { .. }
            | ProtoMsg::GetX { .. }
            | ProtoMsg::PutM { .. }
            | ProtoMsg::PutS { .. } => VNet::Request,
            ProtoMsg::Inv { .. }
            | ProtoMsg::FwdGetS { .. }
            | ProtoMsg::FwdGetX { .. }
            | ProtoMsg::Recall { .. }
            | ProtoMsg::Purge { .. } => VNet::Forward,
            _ => VNet::Response,
        }
    }

    /// True when the message carries a full line of data (5 flits on the
    /// wire; control messages are 1 flit).
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            ProtoMsg::Data { .. }
                | ProtoMsg::PutM { .. }
                | ProtoMsg::DataWb { .. }
                | ProtoMsg::Nack { data: Some(_), .. }
        )
    }

    /// Message size in flits, given the configured sizes.
    pub fn flits(&self, data_flits: u32, control_flits: u32) -> u32 {
        if self.carries_data() {
            data_flits
        } else {
            control_flits
        }
    }

    /// The node whose request this message represents, when one exists —
    /// used by wedge diagnosis to attribute queued directory messages.
    pub fn requester(&self) -> Option<NodeId> {
        match *self {
            ProtoMsg::GetS { requester, .. }
            | ProtoMsg::GetX { requester, .. }
            | ProtoMsg::PutM { requester, .. }
            | ProtoMsg::PutS { requester, .. }
            | ProtoMsg::FwdGetS { requester, .. }
            | ProtoMsg::FwdGetX { requester, .. } => Some(requester),
            _ => None,
        }
    }

    /// Short mnemonic for traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ProtoMsg::GetS { kind: ReadKind::Cacheable, .. } => "GetS",
            ProtoMsg::GetS { kind: ReadKind::TearOff, .. } => "GetS.to",
            ProtoMsg::GetX { .. } => "GetX",
            ProtoMsg::PutM { .. } => "PutM",
            ProtoMsg::PutS { .. } => "PutS",
            ProtoMsg::Inv { .. } => "Inv",
            ProtoMsg::FwdGetS { .. } => "FwdGetS",
            ProtoMsg::FwdGetX { .. } => "FwdGetX",
            ProtoMsg::Recall { .. } => "Recall",
            ProtoMsg::Purge { .. } => "Purge",
            ProtoMsg::Data { cacheable: false, .. } => "Data.to",
            ProtoMsg::Data { .. } => "Data",
            ProtoMsg::InvAck { .. } => "InvAck",
            ProtoMsg::Nack { .. } => "Nack",
            ProtoMsg::LockdownAck { .. } => "LockdownAck",
            ProtoMsg::RedirAck { .. } => "RedirAck",
            ProtoMsg::Unblock { .. } => "Unblock",
            ProtoMsg::PutAck { .. } => "PutAck",
            ProtoMsg::WbHint { .. } => "WbHint",
            ProtoMsg::DataWb { .. } => "DataWb",
        }
    }
}

wb_kernel::snap_enum!(Dest { 0 => Cache(n), 1 => Dir(n) });
wb_kernel::snap_enum!(ReadKind { 0 => Cacheable, 1 => TearOff });

// Tags are frozen at their declaration order: a new variant appends a
// tag, and giving a tag a new meaning takes a `SNAP_LAYOUT` bump.
wb_kernel::snap_enum!(ProtoMsg {
    0 => GetS { line, requester, kind },
    1 => GetX { line, requester },
    2 => PutM { line, requester, data },
    3 => PutS { line, requester },
    4 => Inv { line, writer },
    5 => FwdGetS { line, requester, kind },
    6 => FwdGetX { line, requester },
    7 => Recall { line },
    8 => Data { line, data, acks_expected, exclusive, cacheable, for_write },
    9 => InvAck { line, from },
    10 => Nack { line, from, data },
    11 => LockdownAck { line, from },
    12 => RedirAck { line },
    13 => Unblock { line, from },
    14 => PutAck { line },
    15 => WbHint { line },
    16 => DataWb { line, from, data },
    17 => Purge { line },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineAddr {
        LineAddr(42)
    }

    #[test]
    fn vnet_classes() {
        assert_eq!(ProtoMsg::GetS { line: line(), requester: NodeId(0), kind: ReadKind::Cacheable }.vnet(), VNet::Request);
        assert_eq!(ProtoMsg::Inv { line: line(), writer: None }.vnet(), VNet::Forward);
        assert_eq!(ProtoMsg::InvAck { line: line(), from: NodeId(1) }.vnet(), VNet::Response);
        assert_eq!(ProtoMsg::Recall { line: line() }.vnet(), VNet::Forward);
        assert_eq!(ProtoMsg::Unblock { line: line(), from: NodeId(0) }.vnet(), VNet::Response);
        let purge = ProtoMsg::Purge { line: line() };
        assert_eq!(purge.vnet(), VNet::Forward);
        assert!(!purge.carries_data(), "a purge is control-sized");
        assert_eq!(purge.requester(), None, "a purge has no requester");
        assert_eq!(purge.mnemonic(), "Purge");
    }

    #[test]
    fn data_sizes() {
        let d = ProtoMsg::Data { line: line(), data: LineData::new(), acks_expected: 0, exclusive: false, cacheable: true, for_write: false };
        assert!(d.carries_data());
        assert_eq!(d.flits(5, 1), 5);
        let a = ProtoMsg::InvAck { line: line(), from: NodeId(2) };
        assert!(!a.carries_data());
        assert_eq!(a.flits(5, 1), 1);
    }

    #[test]
    fn nack_with_data_is_data_sized() {
        let n = ProtoMsg::Nack { line: line(), from: NodeId(0), data: Some(LineData::new()) };
        assert!(n.carries_data());
        let n0 = ProtoMsg::Nack { line: line(), from: NodeId(0), data: None };
        assert!(!n0.carries_data());
    }

    #[test]
    fn line_extraction() {
        for m in [
            ProtoMsg::GetX { line: line(), requester: NodeId(0) },
            ProtoMsg::RedirAck { line: line() },
            ProtoMsg::WbHint { line: line() },
        ] {
            assert_eq!(m.line(), line());
        }
    }

    #[test]
    fn mnemonics_distinguish_tearoff() {
        let to = ProtoMsg::GetS { line: line(), requester: NodeId(0), kind: ReadKind::TearOff };
        assert_eq!(to.mnemonic(), "GetS.to");
        let d = ProtoMsg::Data { line: line(), data: LineData::new(), acks_expected: 0, exclusive: false, cacheable: false, for_write: false };
        assert_eq!(d.mnemonic(), "Data.to");
    }
}
