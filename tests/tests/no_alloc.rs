//! The per-cycle hot paths do not allocate once warm.
//!
//! A counting global allocator tallies every allocation (and growing
//! reallocation) made by the current thread, and each test bounds the
//! tally across a steady-state loop:
//!
//! - `Mesh::tick` + `Mesh::drain_arrived_into`, which run every
//!   simulated cycle, reuse scratch buffers owned by the mesh (zero);
//! - `ActivitySched::{take_due, wake_at, set, earliest}`, which run on
//!   every message delivery and every sparse tick, reuse the wheel's
//!   bucket, `far` and `overdue` storage once a periodic schedule has
//!   run one period (an irregular schedule may still grow a bucket)
//!   (zero);
//! - `HeavyHitters::add` stays a fixed-size table however many distinct
//!   keys it sees (zero);
//! - a whole warm 16-core machine in the fig-8/9/10 configuration
//!   (out-of-order commit over WritersBlock, Sparse engine) makes fewer
//!   allocations than it simulates cycles, each cell under a bound of
//!   about twice its own count. `Core::tick` and
//!   `Core::next_event` (slot-addressed queues, inline operands,
//!   in-place loops), `PrivateCache::fill_l2`'s victim filter, the
//!   completions buffer the core reads in place and the MSHRs' lists of
//!   waiting loads (taken from and returned to a spare pool) allocate
//!   nothing once warm; what is left is mostly the request queue of a
//!   directory entry in a fresh L3 way.
//!
//! The count is per thread, so the test harness's other threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use wb_isa::Workload;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::{ActivitySched, Cycle, HeavyHitters, NodeId};
use wb_mesh::{Mesh, MeshMsg, VNet};
use wb_workloads::{parsec, splash, Scale};
use writersblock::{RunOutcome, System};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            bump();
        }
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn mesh_tick_and_drain_do_not_allocate_under_steady_traffic() {
    const NODES: u16 = 16;
    let mut mesh: Mesh<u32> = Mesh::new(4, 4, NODES as usize, 6, 0, 1);
    let mut out = Vec::new();
    // Every cycle two nodes inject (one control, one data message) on a
    // pattern that repeats every 48 cycles; sends are outside the count.
    let mut cycle = |now: Cycle| -> u64 {
        for k in 0..2u64 {
            let src = ((now + 5 * k) % NODES as u64) as u16;
            let dst = ((now * 7 + 3 * k + 1) % NODES as u64) as u16;
            mesh.send(
                now,
                MeshMsg {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    vnet: VNet::ALL[(now % 3) as usize],
                    flits: if k == 0 { 1 } else { 5 },
                    payload: now as u32,
                },
            );
        }
        allocations(|| {
            mesh.tick(now);
            for node in 0..NODES {
                out.clear();
                mesh.drain_arrived_into(NodeId(node), &mut out);
            }
        })
    };
    for now in 0..2_000 {
        cycle(now);
    }
    let n: u64 = (2_000..6_000).map(cycle).sum();
    assert_eq!(n, 0, "Mesh::tick/drain_arrived_into allocated {n} times in 4000 warm cycles");
}

#[test]
fn activity_sched_does_not_allocate_after_one_period() {
    // One period spans eight 512-cycle wheel windows, so strides up to
    // 2048 land in `far` and migrate back; every stride divides it.
    const PERIOD: Cycle = 4096;
    const STRIDES: [Cycle; 12] = [1, 2, 4, 8, 16, 32, 64, 256, 512, 1024, 2048, 4096];
    // Unit `u` wakes on every cycle `c` with `c % stride == u % stride`.
    let next_wake = |u: usize, after: Cycle| {
        let s = STRIDES[u];
        let phase = u as Cycle % s;
        after + 1 + (phase + s - (after + 1) % s) % s
    };
    let mut sched = ActivitySched::new(STRIDES.len());
    for u in 0..STRIDES.len() {
        sched.set(u, Some(next_wake(u, 0)));
    }
    let mut due = Vec::new();
    let mut cycle = |now: Cycle| {
        due.clear();
        sched.take_due(now, &mut due);
        for &u in &due {
            sched.set(u as usize, Some(next_wake(u as usize, now)));
        }
        // A message lands on a far-scheduled unit at a drained cycle:
        // the wake goes to `overdue` and the far entry goes stale.
        if now % 128 == 7 {
            sched.wake_at(STRIDES.len() - 1, now);
        }
        // An early reschedule that leaves a stale near entry behind.
        if now % 32 == 11 {
            sched.set(6, Some(now + 30));
        }
        let _ = sched.earliest();
    };
    // The first period settles every unit into its orbit; the second
    // reaches every bucket's high-water mark.
    for now in 1..=2 * PERIOD {
        cycle(now);
    }
    let n = allocations(|| {
        for now in 2 * PERIOD + 1..=4 * PERIOD {
            cycle(now);
        }
    });
    assert_eq!(n, 0, "ActivitySched allocated {n} times over two periods of a periodic schedule");
}

#[test]
fn heavy_hitters_add_does_not_allocate_past_capacity() {
    let mut hh = HeavyHitters::new(16);
    // Counted from the empty table: filling it and evicting past it.
    let n = allocations(|| {
        for k in 0..10_000u64 {
            hh.add((k * 0x9e37_79b9) % 4099, 1 + k % 7);
        }
    });
    assert_eq!(hh.len(), 16);
    assert_eq!(n, 0, "HeavyHitters::add allocated {n} times");
}

/// Warm-up cycles before a kernel cell's allocations are counted.
const WARM: u64 = 5_000;
/// Cycles over which a kernel cell's allocations are counted.
const MEASURED: u64 = 10_000;

/// Allocations over `MEASURED` cycles of a 16-core kernel cell in the
/// fig-8/9/10 configuration, after `WARM` cycles of warm-up, stay under
/// `bound`.
fn assert_warm_cell_allocates_under(class: CoreClass, w: &Workload, bound: u64) {
    let cfg = SystemConfig::new(class)
        .with_cores(16)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .with_seed(0)
        .without_event_log();
    let mut sys = System::new(cfg, w);
    assert_eq!(sys.run(WARM), RunOutcome::Budget, "{} ended during warm-up", w.name);
    let mut outcome = RunOutcome::Done;
    let n = allocations(|| outcome = sys.run(MEASURED));
    assert_eq!(outcome, RunOutcome::Budget, "{} ended inside the measured window", w.name);
    assert!(n < bound, "{}: {n} allocations in {MEASURED} warm cycles (bound {bound})", w.name);
}

/// Each cell's bound is about twice the count it reads (seed 0 makes the
/// count exact): 640 for slm fft, 770 for slm fluidanimate and 4,775 for
/// hsw blackscholes, against 1,153, 2,509 and 9,359 while every miss
/// allocated its MSHR's list of waiting loads, and 95,513, 111,793 and
/// 312,490 when the core still collected into `Vec`s every tick.
#[test]
fn warm_kernel_cells_allocate_less_than_once_per_cycle() {
    let cells = [
        (CoreClass::Slm, splash::fft(16, Scale::Small), 1_300),
        (CoreClass::Slm, parsec::fluidanimate(16, Scale::Small), 1_600),
        (CoreClass::Hsw, parsec::blackscholes(16, Scale::Small), 9_600),
    ];
    for (class, w, bound) in &cells {
        assert_warm_cell_allocates_under(*class, w, *bound);
    }
}
