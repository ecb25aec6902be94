//! B1: throughput and abort behaviour of every §6 algorithm class across
//! contention regimes. The shape claims under test:
//!
//! * boosting never aborts on disjoint-key workloads and beats optimism
//!   under commutative contention;
//! * optimism shines read-mostly;
//! * everything is serializable (asserted on every run).

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_bench::{assert_serializable, drive, print_row};
use pushpull_harness::workload::WorkloadSpec;
use pushpull_spec::kvmap::KvMap;
use pushpull_spec::rwmem::RwMem;
use pushpull_tm::boosting::BoostingSystem;
use pushpull_tm::driver::TmSystem;
use pushpull_tm::htm::HtmSystem;
use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull_tm::pessimistic::MatveevShavitSystem;

fn base() -> WorkloadSpec {
    WorkloadSpec {
        threads: 4,
        txns_per_thread: 8,
        ops_per_txn: 3,
        key_range: 8,
        read_ratio: 0.5,
        seed: 42,
    }
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("B1-algorithms");
    group.sample_size(10);

    // ---- contended map workload -------------------------------------
    let w = base();
    group.bench_function(BenchmarkId::new("boosting", "map-contended"), |b| {
        b.iter(|| {
            let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_programs());
            drive(&mut sys, 1)
        })
    });
    group.bench_function(BenchmarkId::new("optimistic", "map-contended"), |b| {
        b.iter(|| {
            let mut sys =
                OptimisticSystem::new(KvMap::new(), w.kvmap_programs(), ReadPolicy::Snapshot);
            drive(&mut sys, 1)
        })
    });

    // ---- disjoint map workload --------------------------------------
    group.bench_function(BenchmarkId::new("boosting", "map-disjoint"), |b| {
        b.iter(|| {
            let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_disjoint_programs());
            drive(&mut sys, 1)
        })
    });
    group.bench_function(BenchmarkId::new("optimistic", "map-disjoint"), |b| {
        b.iter(|| {
            let mut sys = OptimisticSystem::new(
                KvMap::new(),
                w.kvmap_disjoint_programs(),
                ReadPolicy::Snapshot,
            );
            drive(&mut sys, 1)
        })
    });

    // ---- read-mostly memory workload --------------------------------
    let rm = WorkloadSpec {
        read_ratio: 0.9,
        key_range: 16,
        ..w
    };
    group.bench_function(BenchmarkId::new("optimistic", "mem-read-mostly"), |b| {
        b.iter(|| {
            let mut sys =
                OptimisticSystem::new(RwMem::new(), rm.rwmem_programs(), ReadPolicy::Snapshot);
            drive(&mut sys, 1)
        })
    });
    group.bench_function(BenchmarkId::new("pessimistic-ms", "mem-read-mostly"), |b| {
        b.iter(|| {
            let mut sys = MatveevShavitSystem::new(RwMem::new(), rm.rwmem_programs());
            drive(&mut sys, 1)
        })
    });
    group.bench_function(BenchmarkId::new("htm-sim", "mem-read-mostly"), |b| {
        b.iter(|| {
            let mut sys = HtmSystem::new(rm.rwmem_programs());
            drive(&mut sys, 1)
        })
    });
    group.finish();

    // ---- shape table (recorded in EXPERIMENTS.md) --------------------
    eprintln!("\n=== B1 shape table ===");
    let w = base();
    {
        let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_programs());
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("boosting / map-contended", s, t);
    }
    {
        let mut sys = OptimisticSystem::new(KvMap::new(), w.kvmap_programs(), ReadPolicy::Snapshot);
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("optimistic / map-contended", s, t);
    }
    {
        let mut sys = BoostingSystem::new(KvMap::new(), w.kvmap_disjoint_programs());
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        assert_eq!(s.aborts, 0, "boosting on disjoint keys must never abort");
        print_row("boosting / map-disjoint", s, t);
    }
    {
        let mut sys = OptimisticSystem::new(
            KvMap::new(),
            w.kvmap_disjoint_programs(),
            ReadPolicy::Snapshot,
        );
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("optimistic / map-disjoint", s, t);
    }
    let rm = WorkloadSpec {
        read_ratio: 0.9,
        key_range: 16,
        ..w
    };
    {
        let mut sys =
            OptimisticSystem::new(RwMem::new(), rm.rwmem_programs(), ReadPolicy::Snapshot);
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("optimistic / mem-read-mostly", s, t);
    }
    {
        let mut sys = MatveevShavitSystem::new(RwMem::new(), rm.rwmem_programs());
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("pessimistic-ms / mem-read-mostly", s, t);
    }
    {
        let mut sys = HtmSystem::new(rm.rwmem_programs());
        let (s, t) = drive(&mut sys, 1);
        assert_serializable(sys.machine());
        print_row("htm-sim / mem-read-mostly", s, t);
    }
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
