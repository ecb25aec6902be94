//! B7: contention-management policy sweep. At fixed workload, how do the
//! four policies trade throughput (ticks to completion) against fairness
//! (max abort streak, p99 retries-to-commit, degradations) as the thread
//! count grows? Immediate-retry wastes the most work under contention;
//! backoff spreads retries; karma ages priority onto the long sufferer;
//! graceful degradation caps every streak at the retry budget by going
//! solo.

use std::sync::Arc;

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_bench::{assert_serializable, drive};
use pushpull_harness::workload::WorkloadSpec;
use pushpull_spec::bank::Bank;
use pushpull_spec::rwmem::RwMem;
use pushpull_tm::driver::TmSystem;
use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull_tm::{
    ContentionManager, ExponentialBackoff, GracefulDegradation, ImmediateRetry, KarmaAging,
};

fn policies() -> Vec<(&'static str, Arc<dyn ContentionManager>)> {
    vec![
        ("immediate", Arc::new(ImmediateRetry)),
        ("backoff", Arc::new(ExponentialBackoff::new(99))),
        ("karma", Arc::new(KarmaAging::new())),
        ("degrade", Arc::new(GracefulDegradation::new())),
    ]
}

/// Transfers: every thread moves money between 4 shared accounts —
/// write-heavy, symmetric contention.
fn transfers(threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        txns_per_thread: 5,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.2,
        seed: 2718,
    }
}

/// RMW chains: read-modify-write bursts on a small location set —
/// the classic optimistic-retry stressor.
fn rmw_chains(threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        txns_per_thread: 5,
        ops_per_txn: 4,
        key_range: 3,
        read_ratio: 0.5,
        seed: 1618,
    }
}

fn print_policy_row(
    label: &str,
    sys: &OptimisticSystem<impl pushpull_core::spec::SeqSpec>,
    ticks: usize,
) {
    let stats = sys.stats();
    let s = sys
        .starvation()
        .expect("optimistic runs a contention manager");
    eprintln!(
        "{label:<34} commits={:<5} aborts={:<5} ticks={:<8} streak={:<4} p99-retries={:<5.1} degr={}",
        stats.commits, stats.aborts, ticks, s.max_consecutive_aborts, s.p99_retries_to_commit, s.degradations
    );
}

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("B7-contention");
    group.sample_size(10);
    for threads in [2usize, 4, 8] {
        for (name, cm) in policies() {
            let w = transfers(threads);
            let cm2 = Arc::clone(&cm);
            group.bench_function(
                BenchmarkId::new(format!("transfers-{name}"), threads),
                move |b| {
                    b.iter(|| {
                        let mut sys = OptimisticSystem::with_contention(
                            Bank::new(),
                            w.bank_programs(),
                            ReadPolicy::Snapshot,
                            Arc::clone(&cm2),
                        );
                        drive(&mut sys, 5)
                    })
                },
            );
            let w = rmw_chains(threads);
            group.bench_function(BenchmarkId::new(format!("rmw-{name}"), threads), move |b| {
                b.iter(|| {
                    let mut sys = OptimisticSystem::with_contention(
                        RwMem::new(),
                        w.rwmem_programs(),
                        ReadPolicy::Snapshot,
                        Arc::clone(&cm),
                    );
                    drive(&mut sys, 5)
                })
            });
        }
    }
    group.finish();

    eprintln!("\n=== B7 policy shape table: transfers (4 accounts, 20% reads) ===");
    for threads in [2usize, 4, 8] {
        for (name, cm) in policies() {
            let w = transfers(threads);
            let mut sys = OptimisticSystem::with_contention(
                Bank::new(),
                w.bank_programs(),
                ReadPolicy::Snapshot,
                cm,
            );
            let (_, t) = drive(&mut sys, 5);
            assert_serializable(sys.machine());
            print_policy_row(&format!("transfers / {threads}T {name}"), &sys, t);
        }
    }
    eprintln!("\n=== B7 policy shape table: rmw-chains (3 locations, 50% reads) ===");
    for threads in [2usize, 4, 8] {
        for (name, cm) in policies() {
            let w = rmw_chains(threads);
            let mut sys = OptimisticSystem::with_contention(
                RwMem::new(),
                w.rwmem_programs(),
                ReadPolicy::Snapshot,
                cm,
            );
            let (_, t) = drive(&mut sys, 5);
            assert_serializable(sys.machine());
            print_policy_row(&format!("rmw-chains / {threads}T {name}"), &sys, t);
        }
    }
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
