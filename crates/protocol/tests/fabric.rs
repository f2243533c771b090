//! End-to-end protocol tests on a small fabric: private caches + directory
//! banks + mesh, driven by stub cores.
//!
//! These tests exercise the transaction flows of the paper's Figures 3-5:
//! 3-hop reads, invalidation-collecting writes, the WritersBlock Nack path,
//! tear-off reads, Ack redirection, eviction parking and the SoS MSHR
//! bypass.

use std::collections::HashSet;
use wb_kernel::config::{MemoryConfig, ProtocolKind};
use wb_kernel::{Cycle, NodeId};
use wb_mem::{Addr, HomeMap, LineAddr, LineData};
use wb_mesh::{Mesh, MeshMsg};
use wb_protocol::messages::Dest;
use wb_protocol::private::LoadAccess;
use wb_protocol::{Completion, CoreSide, Directory, InvalResponse, PrivateCache, ProtoMsg, ReadTag};

/// A scripted stand-in for the core's LSQ.
#[derive(Debug, Default)]
struct StubCore {
    /// Lines for which this core pretends to hold a lockdown: it Nacks
    /// invalidations for them.
    nack_lines: HashSet<LineAddr>,
    /// Invalidations seen.
    invals: Vec<LineAddr>,
    /// Non-silent evictions notified (base protocol squash points).
    evictions: Vec<LineAddr>,
}

impl CoreSide for StubCore {
    fn on_invalidation(&mut self, _now: Cycle, line: LineAddr) -> InvalResponse {
        self.invals.push(line);
        if self.nack_lines.contains(&line) {
            InvalResponse::Nack
        } else {
            InvalResponse::Ack
        }
    }
    fn has_mspec(&self, line: LineAddr) -> bool {
        self.nack_lines.contains(&line)
    }
    fn on_eviction(&mut self, _now: Cycle, line: LineAddr) {
        self.evictions.push(line);
    }
}

struct Fabric {
    now: Cycle,
    mesh: Mesh<(Dest, ProtoMsg)>,
    caches: Vec<PrivateCache>,
    dirs: Vec<Directory>,
    cores: Vec<StubCore>,
    collected: Vec<Vec<Completion>>,
    next_tag: u64,
}

impl Fabric {
    fn new(n: usize, protocol: ProtocolKind, mem: MemoryConfig) -> Fabric {
        let mut w = 1;
        while w * w < n {
            w += 1;
        }
        let h = n.div_ceil(w);
        Fabric {
            now: 0,
            mesh: Mesh::new(w, h, n, 6, 0, 1),
            caches: (0..n).map(|i| PrivateCache::new(NodeId(i as u16), HomeMap::new(n, 1), &mem, protocol)).collect(),
            dirs: (0..n).map(|i| Directory::with_memory_config(NodeId(i as u16), &mem, false)).collect(),
            cores: (0..n).map(|_| StubCore::default()).collect(),
            collected: (0..n).map(|_| Vec::new()).collect(),
            next_tag: 0,
        }
    }

    fn init_word(&mut self, addr: Addr, value: u64) {
        let bank = addr.line().bank(self.dirs.len());
        self.dirs[bank].init_word(addr, value);
    }

    fn tick(&mut self) {
        let n = self.caches.len();
        for i in 0..n {
            for m in self.mesh.drain_arrived(NodeId(i as u16)) {
                let (dest, msg) = m.payload;
                match dest {
                    Dest::Cache(_) => self.caches[i].handle_msg(self.now, msg, &mut self.cores[i]),
                    Dest::Dir(_) => self.dirs[i].receive(self.now, msg),
                }
            }
        }
        for i in 0..n {
            self.dirs[i].tick(self.now);
            self.caches[i].tick(self.now, &mut self.cores[i]);
        }
        for i in 0..n {
            let from = NodeId(i as u16);
            let out: Vec<_> = self.caches[i]
                .drain_outbox()
                .into_iter()
                .chain(self.dirs[i].drain_outbox())
                .collect();
            for (dest, msg) in out {
                let flits = msg.flits(5, 1);
                self.mesh.send(
                    self.now,
                    MeshMsg { src: from, dst: dest.node(), vnet: msg.vnet(), flits, payload: (dest, msg) },
                );
            }
            self.collected[i].extend(self.caches[i].drain_completions());
        }
        self.mesh.tick(self.now);
        self.now += 1;
    }

    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    fn tag(&mut self) -> ReadTag {
        self.next_tag += 1;
        ReadTag(self.next_tag)
    }

    /// Blocking read helper: issue a load and run until its value arrives.
    fn read(&mut self, core: usize, addr: Addr) -> u64 {
        self.read_opt(core, addr, 20_000).expect("read did not complete")
    }

    fn read_opt(&mut self, core: usize, addr: Addr, limit: u64) -> Option<u64> {
        let tag = self.tag();
        match self.caches[core].load_access(self.now, tag, addr, true) {
            LoadAccess::Hit { value, .. } => return Some(value),
            LoadAccess::Miss => {}
            LoadAccess::Blocked => panic!("unexpected MSHR exhaustion"),
        }
        for _ in 0..limit {
            self.tick();
            let found = self.collected[core].iter().find_map(|c| match c {
                Completion::LoadData { tags, data, .. } if tags.contains(&tag) => {
                    Some(data.word(addr.word_index()))
                }
                _ => None,
            });
            if found.is_some() {
                self.collected[core].clear();
                return found;
            }
        }
        None
    }

    /// Blocking write helper: obtain permission, then perform the store.
    fn write(&mut self, core: usize, addr: Addr, value: u64) {
        assert!(self.try_write(core, addr, value, 20_000), "write did not complete");
    }

    fn try_write(&mut self, core: usize, addr: Addr, value: u64, limit: u64) -> bool {
        let line = addr.line();
        for _ in 0..limit {
            if self.caches[core].ensure_writable(self.now, line) {
                assert!(self.caches[core].store_perform(self.now, addr, value));
                return true;
            }
            self.tick();
        }
        false
    }
}

fn small_mem() -> MemoryConfig {
    MemoryConfig::default()
}

const A: Addr = Addr(0x1000);
const B: Addr = Addr(0x2040);

#[test]
fn cold_read_returns_initial_memory_value() {
    let mut f = Fabric::new(4, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 77);
    assert_eq!(f.read(0, A), 77);
    // Second read from the same core hits locally.
    let tag = f.tag();
    match f.caches[0].load_access(f.now, tag, A, true) {
        LoadAccess::Hit { value, latency } => {
            assert_eq!(value, 77);
            assert_eq!(latency, 4, "L1 hit after fill");
        }
        other => panic!("expected hit, got {other:?}"),
    }
}

#[test]
fn three_hop_read_from_owner() {
    let mut f = Fabric::new(4, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 1);
    // Core 0 becomes exclusive owner and modifies the line.
    f.write(0, A, 42);
    // Core 1's read must be forwarded to core 0 and see 42.
    assert_eq!(f.read(1, A), 42);
    // Core 0 should have been downgraded: writing again requires a new
    // permission round but reading still hits.
    assert!(!f.caches[0].is_writable(A.line()));
}

#[test]
fn write_invalidates_sharers() {
    let mut f = Fabric::new(4, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 5);
    assert_eq!(f.read(0, A), 5);
    assert_eq!(f.read(1, A), 5);
    assert_eq!(f.read(2, A), 5);
    // Core 3 writes: cores 0-2 must all see an invalidation.
    f.write(3, A, 9);
    f.run(200);
    for c in 0..3 {
        assert!(
            f.cores[c].invals.contains(&A.line()),
            "core {c} missed the invalidation"
        );
    }
    assert_eq!(f.read(0, A), 9);
}

#[test]
fn upgrade_from_shared() {
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 3);
    assert_eq!(f.read(0, A), 3);
    assert_eq!(f.read(1, A), 3);
    // Core 0 upgrades its shared copy and writes.
    f.write(0, A, 4);
    assert_eq!(f.read(1, A), 4);
}

#[test]
fn distinct_lines_are_independent() {
    let mut f = Fabric::new(4, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 10);
    f.init_word(B, 20);
    f.write(0, A, 11);
    f.write(1, B, 21);
    assert_eq!(f.read(2, A), 11);
    assert_eq!(f.read(3, B), 21);
}

#[test]
fn writersblock_delays_write_until_release() {
    let mut f = Fabric::new(4, ProtocolKind::WritersBlock, small_mem());
    f.init_word(A, 1);
    // Core 0 holds a shared copy with a pretend-lockdown.
    assert_eq!(f.read(0, A), 1);
    f.cores[0].nack_lines.insert(A.line());
    // Core 1's write must NOT complete while the lockdown stands.
    assert!(
        !f.try_write(1, A, 2, 3_000),
        "write completed despite an unreleased lockdown"
    );
    let blocked: u64 = f.dirs.iter().map(|d| d.stats().get("dir_writes_blocked")).sum();
    assert_eq!(blocked, 1, "exactly one write should have entered WritersBlock");
    // The writer received the hint.
    assert!(f.caches[1].write_blocked(A.line()));
    // Release the lockdown: the write must now complete.
    f.cores[0].nack_lines.clear();
    f.caches[0].release_lockdown(f.now, A.line());
    assert!(f.try_write(1, A, 2, 3_000), "write still blocked after release");
    assert_eq!(f.read(2, A), 2);
}

#[test]
fn writersblock_serves_tearoff_reads_of_old_value() {
    let mut f = Fabric::new(4, ProtocolKind::WritersBlock, small_mem());
    f.init_word(A, 10);
    assert_eq!(f.read(0, A), 10);
    f.cores[0].nack_lines.insert(A.line());
    // Core 1 starts a write that will block.
    assert!(!f.try_write(1, A, 99, 2_000));
    // Core 2 reads while the write is blocked: it must get the OLD value,
    // delivered as an uncacheable tear-off copy.
    let v = f.read(2, A);
    assert_eq!(v, 10, "reads under WritersBlock must see the pre-write value");
    let tearoffs: u64 = f.dirs.iter().map(|d| d.stats().get("dir_tearoff_replies")).sum();
    assert!(tearoffs >= 1, "expected at least one tear-off reply");
    // Clean up: release and let the write finish.
    f.cores[0].nack_lines.clear();
    f.caches[0].release_lockdown(f.now, A.line());
    assert!(f.try_write(1, A, 99, 3_000));
    assert_eq!(f.read(3, A), 99);
}

#[test]
fn owner_nack_path_updates_llc_and_redirects_ack() {
    let mut f = Fabric::new(4, ProtocolKind::WritersBlock, small_mem());
    f.init_word(A, 0);
    // Core 0 owns the line with a dirty value and a pretend-lockdown.
    f.write(0, A, 123);
    f.cores[0].nack_lines.insert(A.line());
    // Core 1's write forwards to the owner, which Nacks+Data.
    assert!(!f.try_write(1, A, 200, 3_000), "write must block on the owner's lockdown");
    // A third core's read must see the owner's pre-write value (123),
    // served from the LLC copy refreshed by Nack+Data.
    assert_eq!(f.read(2, A), 123);
    // Release: the deferred ack must redirect through the directory.
    f.cores[0].nack_lines.clear();
    f.caches[0].release_lockdown(f.now, A.line());
    assert!(f.try_write(1, A, 200, 3_000));
    let redirs: u64 = f.dirs.iter().map(|d| d.stats().get("dir_redir_acks")).sum();
    assert_eq!(redirs, 1);
    assert_eq!(f.read(3, A), 200);
}

/// One directory bank fed protocol messages by hand, so a test controls
/// exactly which message arrives before which.
struct Bank {
    dir: Directory,
    now: Cycle,
}

impl Bank {
    /// Deliver `msg`, run the bank long enough for any memory fetch, and
    /// return everything it sent.
    fn deliver(&mut self, msg: ProtoMsg) -> Vec<(Dest, ProtoMsg)> {
        self.dir.receive(self.now, msg);
        let mut out = Vec::new();
        for _ in 0..400 {
            self.dir.tick(self.now);
            out.extend(self.dir.drain_outbox());
            self.now += 1;
        }
        out
    }
}

fn tear_off_to(out: &[(Dest, ProtoMsg)], node: u16) -> bool {
    out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(n)), ProtoMsg::Data { cacheable: false, .. }) if *n == node))
}

/// A tear-off copy is the current value only while a lockdown still
/// holds the write (§3.4). Once the last Nacked invalidation's
/// `LockdownAck` has been redirected to the writer, the write may
/// perform at any moment: a read that arrives before the writer's
/// `Unblock` must queue behind the write, never be answered with the
/// LLC's pre-write data. Walked for a Nacking sharer (the `Inv` path)
/// and for a Nacking owner (`Nack` with data, the `FwdGetX` path).
#[test]
fn read_after_last_lockdown_lifts_queues_behind_the_write() {
    use wb_protocol::messages::ReadKind::Cacheable;
    let line = A.line();
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    for owner_nacks in [false, true] {
        let mut b = Bank { dir: Directory::with_memory_config(n0, &small_mem(), false), now: 0 };
        b.deliver(ProtoMsg::GetS { line, requester: n1, kind: Cacheable });
        b.deliver(ProtoMsg::Unblock { line, from: n1 }); // core 1 owns the line (E)
        if !owner_nacks {
            // Core 2 reads too: both become sharers.
            b.deliver(ProtoMsg::GetS { line, requester: n2, kind: Cacheable });
            b.deliver(ProtoMsg::DataWb { line, from: n1, data: LineData::new() });
            b.deliver(ProtoMsg::Unblock { line, from: n2 });
        }
        // Core 3 writes; core 1's lockdown Nacks its invalidation.
        b.deliver(ProtoMsg::GetX { line, requester: n3 });
        let data = owner_nacks.then(LineData::new);
        let hint = b.deliver(ProtoMsg::Nack { line, from: n1, data });
        assert!(hint.iter().any(|(_, m)| matches!(m, ProtoMsg::WbHint { .. })), "write not blocked");
        // While the lockdown holds, reads get tear-offs.
        let out = b.deliver(ProtoMsg::GetS { line, requester: n0, kind: Cacheable });
        assert!(tear_off_to(&out, 0), "owner_nacks={owner_nacks}: no tear-off during the lockdown: {out:?}");
        // The lockdown lifts: its ack goes on to the writer...
        let out = b.deliver(ProtoMsg::LockdownAck { line, from: n1 });
        assert!(out.iter().any(|(d, m)| *d == Dest::Cache(n3) && matches!(m, ProtoMsg::RedirAck { .. })));
        // ...and a read before the writer's Unblock waits for the write.
        let out = b.deliver(ProtoMsg::GetS { line, requester: n0, kind: Cacheable });
        assert!(out.is_empty(), "owner_nacks={owner_nacks}: read answered before the write's Unblock: {out:?}");
        let out = b.deliver(ProtoMsg::Unblock { line, from: n3 });
        assert!(
            out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(3)), ProtoMsg::FwdGetS { requester: NodeId(0), kind: Cacheable, .. }))),
            "owner_nacks={owner_nacks}: the queued read must go to the new owner: {out:?}"
        );
    }
}

fn redir_to(out: &[(Dest, ProtoMsg)], node: u16) -> bool {
    out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(n)), ProtoMsg::RedirAck { .. }) if *n == node))
}

fn reinv_to(out: &[(Dest, ProtoMsg)], node: u16) -> bool {
    out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(n)), ProtoMsg::Inv { writer: None, .. }) if *n == node))
}

/// Option 1 of §3.4 (the rejected design, `wb_cacheable_reads`): a
/// blocked write admits cacheable readers, and each must be
/// re-invalidated before the write may perform. The lockdown's ack is
/// held until every re-invalidation has come back to the bank, and a
/// reader admitted during a re-invalidation round is re-invalidated in
/// the next one.
#[test]
fn option1_reader_is_reinvalidated_before_the_write_gets_its_ack() {
    use wb_protocol::messages::ReadKind::Cacheable;
    let line = A.line();
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let mut b = Bank { dir: Directory::with_memory_config(n0, &small_mem(), true), now: 0 };
    b.deliver(ProtoMsg::GetS { line, requester: n1, kind: Cacheable });
    b.deliver(ProtoMsg::Unblock { line, from: n1 }); // core 1 owns the line (E)
    b.deliver(ProtoMsg::GetS { line, requester: n2, kind: Cacheable });
    b.deliver(ProtoMsg::DataWb { line, from: n1, data: LineData::new() });
    b.deliver(ProtoMsg::Unblock { line, from: n2 }); // cores 1 and 2 share it
    // Core 3 writes; core 1's lockdown Nacks its invalidation.
    b.deliver(ProtoMsg::GetX { line, requester: n3 });
    let hint = b.deliver(ProtoMsg::Nack { line, from: n1, data: None });
    assert!(hint.iter().any(|(_, m)| matches!(m, ProtoMsg::WbHint { .. })), "write not blocked");
    // Core 0 reads during WritersBlock: admitted with a cacheable copy.
    let out = b.deliver(ProtoMsg::GetS { line, requester: n0, kind: Cacheable });
    assert!(
        out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(0)), ProtoMsg::Data { cacheable: true, .. }))),
        "Option 1 must admit the reader: {out:?}"
    );
    assert!(b.deliver(ProtoMsg::Unblock { line, from: n0 }).is_empty(), "the reader's Unblock is absorbed");
    // The lockdown lifts: core 0 is re-invalidated, and the ack is held.
    let out = b.deliver(ProtoMsg::LockdownAck { line, from: n1 });
    assert!(reinv_to(&out, 0), "admitted reader not re-invalidated: {out:?}");
    assert!(!redir_to(&out, 3), "ack passed on while a reader holds a copy: {out:?}");
    // Core 2 reads during that round: admitted, for the next round.
    let out = b.deliver(ProtoMsg::GetS { line, requester: n2, kind: Cacheable });
    assert!(out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(2)), ProtoMsg::Data { cacheable: true, .. }))));
    b.deliver(ProtoMsg::Unblock { line, from: n2 });
    // Core 0's InvAck ends the first round and starts the second.
    let out = b.deliver(ProtoMsg::InvAck { line, from: n0 });
    assert!(reinv_to(&out, 2), "reader admitted mid-round not re-invalidated: {out:?}");
    assert!(!redir_to(&out, 3), "ack passed on while a reader holds a copy: {out:?}");
    // Core 2's InvAck ends the last round: the held ack reaches the writer.
    let out = b.deliver(ProtoMsg::InvAck { line, from: n2 });
    assert!(redir_to(&out, 3), "held ack not passed on: {out:?}");
    assert_eq!(b.dir.stats().get("dir_option1_reinvalidations"), 2);
    assert_eq!(b.dir.stats().get("dir_redir_acks"), 1);
    // The write is no longer blocked: a read now queues behind it.
    assert!(b.deliver(ProtoMsg::GetS { line, requester: n0, kind: Cacheable }).is_empty());
}

/// Option 1 again, with readers that hold lockdowns. A re-invalidated
/// reader under a lockdown Nacks the re-invalidation and answers it with
/// its `LockdownAck` when the lockdown lifts: that ack settles the
/// re-invalidation and is not the writer's. A core that Nacked the
/// write's own invalidation, read again and was re-invalidated within
/// the same lockdown sends one `LockdownAck` for both. The writer gets
/// exactly one `RedirAck` per Nacked invalidation of its own.
#[test]
fn option1_reader_under_a_lockdown_settles_its_reinvalidation_with_its_lockdown_ack() {
    use wb_protocol::messages::ReadKind::Cacheable;
    let line = A.line();
    let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let mut b = Bank { dir: Directory::with_memory_config(n0, &small_mem(), true), now: 0 };
    b.deliver(ProtoMsg::GetS { line, requester: n1, kind: Cacheable });
    b.deliver(ProtoMsg::Unblock { line, from: n1 });
    b.deliver(ProtoMsg::GetS { line, requester: n2, kind: Cacheable });
    b.deliver(ProtoMsg::DataWb { line, from: n1, data: LineData::new() });
    b.deliver(ProtoMsg::Unblock { line, from: n2 }); // cores 1 and 2 share it
    // Core 3 writes; both sharers' lockdowns Nack its invalidations.
    b.deliver(ProtoMsg::GetX { line, requester: n3 });
    b.deliver(ProtoMsg::Nack { line, from: n1, data: None });
    b.deliver(ProtoMsg::Nack { line, from: n2, data: None });
    // Core 0 is admitted; core 1's lockdown lifts and re-invalidates it.
    b.deliver(ProtoMsg::GetS { line, requester: n0, kind: Cacheable });
    b.deliver(ProtoMsg::Unblock { line, from: n0 });
    assert!(reinv_to(&b.deliver(ProtoMsg::LockdownAck { line, from: n1 }), 0));
    // Core 0 holds a lockdown too: it Nacks, and core 2 reads again.
    assert!(!redir_to(&b.deliver(ProtoMsg::Nack { line, from: n0, data: None }), 3));
    b.deliver(ProtoMsg::GetS { line, requester: n2, kind: Cacheable });
    b.deliver(ProtoMsg::Unblock { line, from: n2 });
    // Core 0's lockdown lifts: its round ends and core 2's begins.
    let out = b.deliver(ProtoMsg::LockdownAck { line, from: n0 });
    assert!(reinv_to(&out, 2), "the next round did not start: {out:?}");
    assert!(!redir_to(&out, 3), "ack passed on while a reader holds a copy: {out:?}");
    // Core 2 Nacks within the lockdown that Nacked the write: one
    // LockdownAck answers both, and both held acks reach the writer.
    b.deliver(ProtoMsg::Nack { line, from: n2, data: None });
    let out = b.deliver(ProtoMsg::LockdownAck { line, from: n2 });
    let redirs = out.iter().filter(|m| matches!(m, (Dest::Cache(NodeId(3)), ProtoMsg::RedirAck { .. }))).count();
    assert_eq!(redirs, 2, "{out:?}");
    assert_eq!(b.dir.stats().get("dir_redir_acks"), 2);
}

/// A GetX the bank cannot allocate an LLC way for is retried every
/// `retry_delay` cycles until a way frees up. Its writer is hinted at
/// the first refusal (its SoS load must read around the waiting write),
/// and only then: the cache ignores a repeated hint.
#[test]
fn refused_getx_is_hinted_once() {
    use wb_protocol::messages::ReadKind::Cacheable;
    let mut mem = small_mem();
    mem.l3_bank_bytes = 64; // one set of one way
    mem.l3_ways = 1;
    let (a, b) = (A.line(), B.line());
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let mut bank = Bank { dir: Directory::with_memory_config(n0, &mem, false), now: 0 };
    // Core 1's read keeps the only way busy until its Unblock.
    bank.deliver(ProtoMsg::GetS { line: a, requester: n1, kind: Cacheable });
    let out = bank.deliver(ProtoMsg::GetX { line: b, requester: n2 });
    assert!(bank.dir.stats().get("dir_alloc_fallbacks") > 1, "the write was not refused repeatedly");
    let hints = out.iter().filter(|(_, m)| matches!(m, ProtoMsg::WbHint { .. })).count();
    assert_eq!(hints, 1, "one hint per refused write: {out:?}");
    // The read completes, and the retried write gets the way.
    let out = bank.deliver(ProtoMsg::Unblock { line: a, from: n1 });
    assert!(
        out.iter().any(|m| matches!(m, (Dest::Cache(NodeId(2)), ProtoMsg::Data { for_write: true, .. }))),
        "the refused write never got its way: {out:?}"
    );
    assert!(!out.iter().any(|(_, m)| matches!(m, ProtoMsg::WbHint { .. })), "hinted again: {out:?}");
}

#[test]
fn sos_load_bypasses_blocked_write_mshr() {
    let mut f = Fabric::new(4, ProtocolKind::WritersBlock, small_mem());
    f.init_word(A, 7);
    assert_eq!(f.read(0, A), 7);
    f.cores[0].nack_lines.insert(A.line());
    // Core 1 writes; the write blocks.
    assert!(!f.try_write(1, A, 8, 2_000));
    assert!(f.caches[1].write_blocked(A.line()));
    // A load on core 1 to the same line would piggyback on the blocked
    // write MSHR — Figure 5.B. As the SoS load it must instead launch a
    // fresh tear-off read and get the pre-write value.
    let tag = f.tag();
    assert_eq!(f.caches[1].load_access(f.now, tag, A, true), LoadAccess::Miss);
    let mut got = None;
    for _ in 0..2_000 {
        f.tick();
        for c in f.collected[1].drain(..) {
            if let Completion::LoadData { tags, data, cacheable, .. } = c {
                if tags.contains(&tag) {
                    got = Some((data.word(A.word_index()), cacheable));
                }
            }
        }
        if got.is_some() {
            break;
        }
    }
    let (value, cacheable) = got.expect("SoS load starved behind a blocked write");
    assert_eq!(value, 7, "SoS load must read the pre-write value");
    assert!(!cacheable, "the bypass read must be a tear-off copy");
    assert!(f.caches[1].stats().get("cache_sos_bypass_reads") >= 1);
    // Clean up.
    f.cores[0].nack_lines.clear();
    f.caches[0].release_lockdown(f.now, A.line());
    assert!(f.try_write(1, A, 8, 3_000));
}

#[test]
fn directory_eviction_parks_writersblock_entry() {
    // Tiny LLC: 1 set x 2 ways per bank forces directory evictions.
    let mut mem = small_mem();
    mem.l3_bank_bytes = 2 * 64;
    mem.l3_ways = 2;
    let mut f = Fabric::new(2, ProtocolKind::WritersBlock, mem);
    // Three lines mapping to bank 0 (even line numbers in a 2-bank system).
    let a = Addr(0x0000); // line 0
    let b = Addr(0x0080); // line 2
    let c = Addr(0x0100); // line 4
    f.init_word(a, 1);
    f.init_word(b, 2);
    f.init_word(c, 3);
    assert_eq!(f.read(0, a), 1);
    f.cores[0].nack_lines.insert(a.line());
    // Touch two more lines in the same bank: entry `a` must be evicted,
    // its eviction-invalidation Nacked, and the entry parked.
    assert_eq!(f.read(0, b), 2);
    assert_eq!(f.read(0, c), 3);
    f.run(2_000);
    let blocked_evictions: u64 = f.dirs.iter().map(|d| d.stats().get("dir_evictions_blocked")).sum();
    assert!(blocked_evictions >= 1, "eviction should have been parked by the lockdown");
    // Reads of the parked line still work (tear-off from the buffer).
    assert_eq!(f.read(1, a), 1);
    // Release: the eviction completes and the line is writable again.
    f.cores[0].nack_lines.clear();
    f.caches[0].release_lockdown(f.now, a.line());
    f.run(2_000);
    let completed: u64 = f.dirs.iter().map(|d| d.stats().get("dir_evictions_completed")).sum();
    assert!(completed >= 1);
    f.write(1, a, 50);
    assert_eq!(f.read(0, a), 50);
}

#[test]
fn private_cache_eviction_writes_back_dirty_lines() {
    // Tiny private L2: 1 set x 2 ways.
    let mut mem = small_mem();
    mem.l1_bytes = 64;
    mem.l1_ways = 1;
    mem.l2_bytes = 2 * 64;
    mem.l2_ways = 2;
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, mem);
    let a = Addr(0x0000);
    let b = Addr(0x0080);
    let c = Addr(0x0100);
    f.write(0, a, 111);
    // Fill the set with two more lines: `a` must be written back.
    f.write(0, b, 222);
    f.write(0, c, 333);
    f.run(2_000);
    assert!(f.caches[0].stats().get("cache_putm_evictions") >= 1);
    // Core 1 reads `a`: the value must have survived the writeback.
    assert_eq!(f.read(1, a), 111);
}

#[test]
fn base_protocol_never_nacks() {
    let mut f = Fabric::new(4, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 1);
    assert_eq!(f.read(0, A), 1);
    // Even if the stub pretends to have a lockdown, base-protocol caches
    // get an Ack from the stub (the core-side policy differs, but here we
    // verify the fabric wiring: base runs never enter WritersBlock when
    // cores Ack).
    f.write(1, A, 2);
    assert_eq!(f.read(2, A), 2);
    let blocked: u64 = f.dirs.iter().map(|d| d.stats().get("dir_writes_blocked")).sum();
    assert_eq!(blocked, 0);
}

#[test]
fn rmw_performs_atomically_at_owner() {
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 10);
    // Acquire write permission then fetch-add.
    let line = A.line();
    for _ in 0..20_000 {
        if f.caches[0].ensure_writable(f.now, line) {
            break;
        }
        f.tick();
    }
    let old = f.caches[0].rmw_perform(f.now, A, |v| v + 5).expect("writable");
    assert_eq!(old, 10);
    assert_eq!(f.read(1, A), 15);
}

#[test]
fn tearoff_read_from_owner_keeps_ownership() {
    // A tear-off read of a line owned in M must be served by the owner
    // without a downgrade (Section 3.5.1: reads without a directory
    // entry change).
    let mut f = Fabric::new(2, ProtocolKind::WritersBlock, small_mem());
    f.write(0, A, 55);
    // Issue an explicit tear-off request from core 1 by exhausting its
    // ability to allocate... simpler: drive the cache API directly with a
    // SoS bypass: first give core 1 a blocked-write situation is complex;
    // instead verify via the directory path: a GetS{TearOff} is produced
    // by SoS bypass logic, tested elsewhere. Here we check the owner
    // serves FwdGetS{TearOff} correctly by sending the raw message.
    use wb_protocol::messages::ReadKind;
    f.caches[0].handle_msg(f.now, ProtoMsg::FwdGetS { line: A.line(), requester: NodeId(1), kind: ReadKind::TearOff }, &mut f.cores[0]);
    // Owner must still be writable (kept M) and have sent uncacheable data.
    assert!(f.caches[0].is_writable(A.line()), "tear-off must not downgrade the owner");
    let out = f.caches[0].drain_outbox();
    assert!(out.iter().any(|(_, m)| matches!(m, ProtoMsg::Data { cacheable: false, .. })));
}

#[test]
fn write_permission_lost_before_store_performs() {
    // Footnote 3 of the paper: if write permission is lost by the time
    // the store reaches the SB head, it must re-request and still
    // complete.
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 0);
    // Core 0 acquires write permission (prefetch) but does NOT perform.
    for _ in 0..20_000 {
        if f.caches[0].ensure_writable(f.now, A.line()) {
            break;
        }
        f.tick();
    }
    assert!(f.caches[0].is_writable(A.line()));
    // Core 1 writes the line, stealing the permission.
    f.write(1, A, 7);
    f.run(200);
    assert!(!f.caches[0].is_writable(A.line()), "permission should be gone");
    // Core 0's store now re-requests and performs.
    assert!(f.try_write(0, A, 9, 20_000), "store must re-acquire permission");
    assert_eq!(f.read(1, A), 9);
}

#[test]
fn concurrent_read_and_write_mshrs_on_one_line() {
    // Regression for the GETS_DATA/GETX_DATA confusion: a cache with both
    // a read and a write outstanding on one line must route each reply to
    // the right MSHR (the `for_write` tag on Data).
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, small_mem());
    f.init_word(A, 3);
    // Issue the read, then immediately the write request, before any
    // reply can arrive.
    let tag = f.tag();
    assert_eq!(f.caches[0].load_access(f.now, tag, A, true), LoadAccess::Miss);
    assert!(!f.caches[0].ensure_writable(f.now, A.line()));
    // Run until the write completes.
    let mut done = false;
    for _ in 0..20_000 {
        f.tick();
        if f.caches[0].is_writable(A.line()) {
            done = true;
            break;
        }
    }
    assert!(done, "write never completed");
    // The waiting load must have been satisfied (by either reply path).
    let got = f.collected[0].iter().any(|c| match c {
        Completion::LoadData { tags, .. } => tags.contains(&tag),
        _ => false,
    });
    assert!(got, "load starved while write completed");
    assert!(f.caches[0].store_perform(f.now, A, 11));
    assert_eq!(f.read(1, A), 11);
}

#[test]
fn non_silent_shared_evictions_update_directory() {
    // Ablation path of Section 3.8: with non-silent shared evictions the
    // directory prunes its sharer list, so a later write sends fewer
    // invalidations.
    let mut mem = small_mem();
    mem.l1_bytes = 64;
    mem.l1_ways = 1;
    mem.l2_bytes = 2 * 64;
    mem.l2_ways = 2;
    mem.silent_shared_evictions = false;
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, mem);
    let a = Addr(0x0000);
    let b = Addr(0x0080);
    let c = Addr(0x0100);
    f.init_word(a, 1);
    // Both cores read `a` so core 0 holds it in S (not E)...
    assert_eq!(f.read(0, a), 1);
    assert_eq!(f.read(1, a), 1);
    // ...then core 0 evicts it by filling the set.
    assert_eq!(f.read(0, b), 0);
    assert_eq!(f.read(0, c), 0);
    f.run(500);
    // A write by core 1 should see no sharers left: no Inv reaches core 0.
    f.write(1, a, 9);
    f.run(500);
    assert!(
        !f.cores[0].invals.contains(&a.line()),
        "PutS should have removed core 0 from the sharer list"
    );
}

#[test]
fn inval_of_absent_line_still_queries_core() {
    // Silent evictions leave stale sharers: an Inv for a line the cache
    // no longer holds must still reach the core's LQ (the whole point of
    // choosing silent evictions in Section 3.8).
    let mut mem = small_mem();
    mem.l1_bytes = 64;
    mem.l1_ways = 1;
    mem.l2_bytes = 2 * 64;
    mem.l2_ways = 2;
    let mut f = Fabric::new(2, ProtocolKind::BaseMesi, mem);
    let a = Addr(0x0000);
    let b = Addr(0x0080);
    let c = Addr(0x0100);
    f.init_word(a, 1);
    // Both cores read `a` so core 0 holds it in S (not E).
    assert_eq!(f.read(0, a), 1);
    assert_eq!(f.read(1, a), 1);
    assert_eq!(f.read(0, b), 0); // evict a silently at core 0
    assert_eq!(f.read(0, c), 0);
    f.run(500);
    f.write(1, a, 9);
    f.run(500);
    assert!(
        f.cores[0].invals.contains(&a.line()),
        "stale sharer must still receive the invalidation"
    );
}

#[test]
fn lockdown_pins_exclusive_line_against_eviction() {
    // Section 3.8: under WritersBlock, an E/M line protecting a lockdown
    // must not be evicted (a dirty line cannot leave silently, and a
    // non-silent eviction would lose the lockdown's protection).
    let mut mem = small_mem();
    mem.l1_bytes = 64;
    mem.l1_ways = 1;
    mem.l2_bytes = 2 * 64;
    mem.l2_ways = 2;
    let mut f = Fabric::new(2, ProtocolKind::WritersBlock, mem);
    let a = Addr(0x0000);
    let b = Addr(0x0080);
    let c = Addr(0x0100);
    // Core 0 owns `a` dirty and pretends to hold a lockdown on it.
    f.write(0, a, 42);
    f.cores[0].nack_lines.insert(a.line());
    // Pressure the set with two more lines: the victim must never be `a`.
    f.write(0, b, 1);
    f.write(0, c, 2);
    f.run(1_000);
    assert!(
        f.caches[0].is_writable(a.line()),
        "the lockdown-protected dirty line must stay resident"
    );
    // Release: now `a` is evictable again.
    f.cores[0].nack_lines.clear();
    let d = Addr(0x0180);
    f.write(0, d, 3);
    f.run(1_000);
    // `a`'s value must be recoverable wherever it went.
    assert_eq!(f.read(1, a), 42);
}
