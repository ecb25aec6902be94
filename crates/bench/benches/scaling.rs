//! B6: thread scaling. How does work-to-completion grow with thread
//! count, per algorithm, at fixed per-thread load? On commutative
//! (disjoint-key) workloads both boosting and optimism should scale
//! near-linearly in total ticks (no wasted work); under contention the
//! optimistic retry tax grows with the thread count while boosting's
//! blocking keeps wasted work bounded.

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_bench::{assert_serializable, drive, print_row};
use pushpull_harness::workload::WorkloadSpec;
use pushpull_spec::kvmap::KvMap;
use pushpull_tm::boosting::BoostingSystem;
use pushpull_tm::driver::TmSystem;
use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};

fn workload(threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        txns_per_thread: 6,
        ops_per_txn: 3,
        key_range: 6,
        read_ratio: 0.5,
        seed: 314,
    }
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("B6-scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let w = workload(threads);
        group.bench_function(BenchmarkId::new("boosting-contended", threads), |b| {
            b.iter(|| {
                let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_programs());
                drive(&mut sys, 5)
            })
        });
        group.bench_function(BenchmarkId::new("optimistic-contended", threads), |b| {
            b.iter(|| {
                let mut sys =
                    OptimisticSystem::new(KvMap::new(), w.kvmap_programs(), ReadPolicy::Snapshot);
                drive(&mut sys, 5)
            })
        });
    }
    group.finish();

    eprintln!("\n=== B6 scaling shape table (6 txns/thread, 6 keys, 50% reads) ===");
    for threads in [1usize, 2, 4, 8] {
        let w = workload(threads);
        {
            let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_programs());
            let (s, t) = drive(&mut sys, 5);
            assert_serializable(sys.machine());
            print_row(&format!("boosting   / {threads}T contended"), s, t);
        }
        {
            let mut sys =
                OptimisticSystem::new(KvMap::new(), w.kvmap_programs(), ReadPolicy::Snapshot);
            let (s, t) = drive(&mut sys, 5);
            assert_serializable(sys.machine());
            print_row(&format!("optimistic / {threads}T contended"), s, t);
        }
        {
            let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_disjoint_programs());
            let (s, t) = drive(&mut sys, 5);
            assert_serializable(sys.machine());
            assert_eq!(s.aborts, 0);
            print_row(&format!("boosting   / {threads}T disjoint"), s, t);
        }
    }
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
