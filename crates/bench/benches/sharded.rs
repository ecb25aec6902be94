//! B9: what does sharding the shared log buy under real parallelism?
//!
//! The shared log G is split into footprint-addressed shards, each with
//! its own lock; a rule's criteria only lock (and replay) the shards its
//! operation's declared footprint touches. This target hammers exactly
//! those critical sections: 8 OS threads each drive a raw `TxnHandle`
//! through APP → PUSH → … → CMT cycles. The workload is write-only
//! read/write memory — `Write` returns `Ack` in any state, so the runs
//! are pull-free and abort-free and every criterion verdict is
//! schedule-independent (a state-dependent return like kvmap's
//! `Put → Prev` would correctly be *rejected* by PUSH (iii) without a
//! pull; writes are the honest way to isolate the shared-log path).
//!
//! * **disjoint** — each thread writes its own locations, which land on
//!   its own shards: with enough shards the threads stop contending
//!   *and* each PUSH criterion only replays its shard's entries instead
//!   of everyone's;
//! * **contended** — every thread's locations are ≡ 0 (mod 16), so all
//!   routes collide on shard 0 at every shard count in the sweep: the
//!   control where sharding cannot help.
//!
//! Sharding must change the *cost* of the criteria, never their
//! verdicts: before timing, every run is checked for full commits, a
//! green serializability oracle, and an audit ledger bit-identical to
//! the single-shard baseline — even under OS-thread interleavings. The
//! shape table prints commits plus the per-shard lock counters
//! (acquires/contended); EXPERIMENTS.md §B9 keeps the numbers.

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{assert_serializable, criterion_group, criterion_main};

use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::Metric;
use pushpull_harness::testutil::assert_ledger_matches;
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

const THREADS: u32 = 8;
const TXNS: u32 = 40;
const OPS: u32 = 12;

/// Per-thread transaction bodies. Disjoint mode gives thread `t` the
/// locations `t` and `t + 8` — at 16 shards that is two private shards
/// per thread; contended mode gives thread `t` the location `16·t`,
/// distinct per thread (so no mover ever fails) but congruent mod 16
/// (so every shard count in the sweep routes them all to shard 0).
fn methods(t: u32, disjoint: bool) -> Vec<Vec<MemMethod>> {
    (0..TXNS)
        .map(|i| {
            (0..OPS)
                .map(|j| {
                    let loc = if disjoint {
                        t + THREADS * (j % 2)
                    } else {
                        16 * t
                    };
                    MemMethod::Write(Loc(loc), (i * OPS + j) as i64)
                })
                .collect()
        })
        .collect()
}

/// Builds the machine and drives all threads to completion on real OS
/// threads; returns it for inspection.
fn run_once(shards: usize, disjoint: bool) -> Machine<RwMem> {
    let mut m = Machine::new(RwMem::new());
    let bodies: Vec<Vec<Vec<MemMethod>>> = (0..THREADS).map(|t| methods(t, disjoint)).collect();
    for body in &bodies {
        m.add_thread(
            body.iter()
                .map(|txn| Code::seq_all(txn.iter().cloned().map(Code::method)))
                .collect(),
        );
    }
    m.set_log_shards(shards);
    std::thread::scope(|scope| {
        for (h, body) in m.handles_mut().iter_mut().zip(&bodies) {
            scope.spawn(move || {
                for txn in body {
                    for method in txn {
                        let op = h.app_method(method).expect("app");
                        h.push(op).expect("push");
                    }
                    h.commit().expect("commit");
                }
            });
        }
    });
    m
}

fn bench_sharded(c: &mut Criterion) {
    // The analyzer picks the sweep's top shard count: one shard per
    // declared key class of the disjoint workload (16 locations),
    // capped at 16 — the same `recommended_shards()` the certified-plan
    // path feeds `run_parallel_sharded`.
    let programs: Vec<Vec<Code<MemMethod>>> = (0..THREADS)
        .map(|t| {
            methods(t, true)
                .into_iter()
                .map(|txn| Code::seq_all(txn.into_iter().map(Code::method)))
                .collect()
        })
        .collect();
    let recommended = pushpull_analysis::analyze(&RwMem::new(), &programs).recommended_shards();
    assert_eq!(
        recommended, 16,
        "16 declared location classes, capped at 16"
    );

    // Sanity before timing: at every shard count the run commits every
    // transaction, the oracle passes, and the audit ledger is
    // bit-identical to the single-shard baseline — sharding changed no
    // verdict, even under OS-thread interleavings.
    let base = run_once(1, true);
    assert_serializable(&base);
    let base_audit = base.audit();
    assert_eq!(base.committed_txns().len() as u32, THREADS * TXNS);
    for shards in [4usize, recommended] {
        let m = run_once(shards, true);
        assert_serializable(&m);
        assert_eq!(m.committed_txns().len() as u32, THREADS * TXNS);
        assert_ledger_matches(&m.audit(), &base_audit);
    }

    let mut group = c.benchmark_group("B9-sharded-log");
    group.sample_size(15);
    for shards in [1usize, 4, recommended] {
        group.bench_function(BenchmarkId::new("disjoint-8T", shards), |b| {
            b.iter(|| run_once(shards, true))
        });
        group.bench_function(BenchmarkId::new("contended-8T", shards), |b| {
            b.iter(|| run_once(shards, false))
        });
    }
    group.finish();

    eprintln!("\n=== B9 shape table (8 OS threads, 40 txns x 12 writes each) ===");
    for disjoint in [true, false] {
        for shards in [1usize, 4, 16] {
            let m = run_once(shards, disjoint);
            let acq = m.metrics()[Metric::LockAcquires];
            let cont = m.metrics()[Metric::LockContended];
            eprintln!(
                "{} / {shards:>2} shards  commits={:<4} lock-acquires={acq:<7} contended={cont}",
                if disjoint { "disjoint " } else { "contended" },
                m.committed_txns().len(),
            );
        }
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
