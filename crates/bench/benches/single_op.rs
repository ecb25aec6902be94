//! B10: the cost of one operation on the lock-free shard hot path.
//!
//! B9 measures throughput under OS-thread contention; this target
//! isolates the *single-op* costs the log-memory overhaul targets:
//!
//! * **app-push-unpush-unapp** — one full forward/backward cycle of a
//!   declared-footprint write. PUSH speculates its criteria against the
//!   shard's published snapshot (zero locks for the criteria window,
//!   one for the append); UNPUSH returns the entry's arena slot, so at
//!   steady state the cycle allocates nothing for log storage — slots
//!   and `SmallVec` footprints are recycled, which the per-op
//!   allocation counts (from a counting global allocator) make visible.
//! * **can-push-readonly** — the pure criteria check on a disjoint
//!   footprint: zero locks, zero log mutation. The bench-smoke
//!   assertion pins the zero: if the fast path ever regresses into
//!   taking a mutex, this target fails before timing anything.
//!
//! The shape table prints per-op allocation counts and the machine's
//! seqlock/arena counters; EXPERIMENTS.md §B10 keeps the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::op::{OpId, ThreadId};
use pushpull_core::Metric;
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

/// Counts allocation events (not bytes freed) so the table can report
/// allocations **per operation** at steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events per call of `f`, averaged over `n` calls.
fn allocs_per(n: u64, mut f: impl FnMut()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..n {
        f();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / n as f64
}

/// A machine whose thread 0 can run the app→push→unpush→unapp cycle
/// forever: UNAPP restores the saved code, so the single-write program
/// never exhausts. A committed write from a second thread on another
/// shard makes the criteria non-vacuous.
fn cycle_machine(shards: usize) -> (Machine<RwMem>, ThreadId) {
    let mut m = Machine::new(RwMem::new());
    let t = m.add_thread(vec![Code::method(MemMethod::Write(Loc(1), 5))]);
    let other = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    m.set_log_shards(shards);
    let w = m.app_auto(other).expect("app other");
    m.push(other, w).expect("push other");
    m.commit(other).expect("commit other");
    (m, t)
}

/// One forward/backward cycle of thread `t`'s write.
fn cycle(m: &mut Machine<RwMem>, t: ThreadId) {
    let op = m.app_auto(t).expect("app");
    m.push(t, op).expect("push");
    m.unpush(t, op).expect("unpush");
    m.unapp(t).expect("unapp");
}

/// A machine holding an un-pushed disjoint read for `can_push` checks.
fn readonly_machine(shards: usize) -> (Machine<RwMem>, ThreadId, OpId) {
    let mut m = Machine::new(RwMem::new());
    let writer = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    let reader = m.add_thread(vec![Code::method(MemMethod::Read(Loc(1)))]);
    m.set_log_shards(shards);
    let w = m.app_auto(writer).expect("app writer");
    m.push(writer, w).expect("push writer");
    m.commit(writer).expect("commit writer");
    let op = m.app_auto(reader).expect("app reader");
    (m, reader, op)
}

fn bench_single_op(c: &mut Criterion) {
    // Bench-smoke assertions before timing.
    //
    // 1. The read-only disjoint criteria check takes ZERO mutex
    //    acquisitions — the tentpole property of the seqlock fast path.
    let (m, reader, op) = readonly_machine(16);
    let acq_before = m.metrics()[Metric::LockAcquires];
    let reads_before = m.metrics()[Metric::SnapReads];
    let fb_before = m.metrics()[Metric::SnapFallbacks];
    for _ in 0..1_000 {
        assert!(m.can_push(reader, op).expect("well-formed"));
    }
    let acq_after = m.metrics()[Metric::LockAcquires];
    let reads_after = m.metrics()[Metric::SnapReads];
    let fb_after = m.metrics()[Metric::SnapFallbacks];
    assert_eq!(
        acq_after, acq_before,
        "B10 regression: read-only disjoint criteria check took a mutex"
    );
    assert_eq!(reads_after, reads_before + 1_000);
    assert_eq!(fb_after, fb_before, "B10 regression: snapshot fallback");

    // 2. The cycle recycles arena slots: after a warm-up, reuse grows.
    let (mut m, t) = cycle_machine(16);
    for _ in 0..100 {
        cycle(&mut m, t);
    }
    let reused = m.metrics()[Metric::ArenaReused];
    assert!(
        reused >= 99,
        "UNPUSH-freed slots must be recycled, got {reused}"
    );

    let mut group = c.benchmark_group("B10-single-op");
    group.sample_size(20);
    for shards in [1usize, 16] {
        group.bench_function(BenchmarkId::new("app-push-unpush-unapp", shards), |b| {
            let (mut m, t) = cycle_machine(shards);
            b.iter(|| cycle(&mut m, t));
        });
        group.bench_function(BenchmarkId::new("can-push-readonly", shards), |b| {
            let (m, reader, op) = readonly_machine(shards);
            b.iter(|| m.can_push(reader, op).expect("well-formed"));
        });
    }
    group.finish();

    eprintln!("\n=== B10 shape table (per-op allocation counts, steady state) ===");
    for shards in [1usize, 16] {
        let (mut m, t) = cycle_machine(shards);
        for _ in 0..1_000 {
            cycle(&mut m, t); // warm up: arena slots + footprint storage
        }
        let cyc = allocs_per(10_000, || cycle(&mut m, t));
        let live = m.metrics()[Metric::ArenaLive];
        let cap = m.metrics()[Metric::ArenaCapacity];
        let reused = m.metrics()[Metric::ArenaReused];
        let acq = m.metrics()[Metric::LockAcquires];
        let reads = m.metrics()[Metric::SnapReads];
        let retries = m.metrics()[Metric::SnapRetries];
        let fb = m.metrics()[Metric::SnapFallbacks];

        let (rm, reader, op) = readonly_machine(shards);
        let chk = allocs_per(10_000, || {
            rm.can_push(reader, op).expect("well-formed");
        });
        eprintln!(
            "{shards:>2} shards  allocs/cycle={cyc:<6.2} allocs/check={chk:<6.2} \
             arena live={live} cap={cap} reused={reused}  locks={acq}  \
             snaps={reads} (retry={retries} fb={fb})"
        );
    }
}

criterion_group!(benches, bench_single_op);
criterion_main!(benches);
