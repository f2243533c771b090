//! Micro-benches of the simulator's substrates: mesh throughput,
//! TSO checker, and the operational oracle — on the in-tree
//! [`wb_bench::timing`] harness, which prints each median to stderr.

use wb_bench::BenchGroup;
use wb_kernel::NodeId;
use wb_mem::Addr;
use wb_mesh::{Mesh, MeshMsg, VNet};
use wb_tso::{ExecutionLog, MemEvent, MemOp, TsoChecker};

fn bench_mesh(g: &mut BenchGroup) {
    g.bench("mesh_1k_messages", || {
        let mut m: Mesh<u32> = Mesh::new(4, 4, 16, 6, 0, 1);
        for i in 0..1000u32 {
            m.send(
                (i / 16) as u64,
                MeshMsg {
                    src: NodeId((i % 16) as u16),
                    dst: NodeId(((i * 7) % 16) as u16),
                    vnet: VNet::Request,
                    flits: 1 + (i % 5),
                    payload: i,
                },
            );
        }
        let mut delivered = 0;
        for now in 0..5000u64 {
            m.tick(now);
            for n in 0..16 {
                delivered += m.drain_arrived(NodeId(n)).len();
            }
            if delivered == 1000 {
                break;
            }
        }
        assert_eq!(delivered, 1000);
    });
}

fn bench_checker(g: &mut BenchGroup) {
    // A synthetic 4-core log with unique store values.
    let mut log = ExecutionLog::new();
    let mut value = 1u64;
    for core in 0..4usize {
        for i in 0..200u64 {
            let addr = Addr::new(0x1000 + 8 * (i % 16));
            if i % 3 == 0 {
                log.push(MemEvent {
                    core,
                    seq: i,
                    addr,
                    op: MemOp::Store { value, performed_at: (core as u64) * 10_000 + i * 10 },
                });
                value += 1;
            } else {
                log.push(MemEvent { core, seq: i, addr, op: MemOp::Load { value: 0 } });
            }
        }
    }
    g.bench("tso_checker_800_events", || {
        // The loads read 0 (init), which is legal only if no store of 0
        // exists; the checker runs fully regardless of verdict.
        let _ = TsoChecker::new(&log).check();
    });
}

fn bench_oracle(g: &mut BenchGroup) {
    g.bench("oracle_iriw", || {
        let t = wb_tso::litmus::iriw();
        wb_tso::oracle::tso_outcomes(&t.workload, &t.observed).expect("oracle")
    });
}

fn main() {
    let mut g = BenchGroup::new("protocol");
    bench_mesh(&mut g);
    bench_checker(&mut g);
    bench_oracle(&mut g);
}
