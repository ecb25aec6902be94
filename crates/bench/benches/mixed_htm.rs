//! B5: §7's payoff, measured. Mixed boosting+HTM transactions vs an
//! all-HTM encoding of the same workload, sweeping HTM-word contention.
//!
//! The §7 transaction touches two boosted collections (cheap abstract
//! commutativity) and shared HTM words (`size`, `x`). In the all-HTM
//! encoding every collection operation also touches a per-structure
//! metadata word — the memory-level footprint a word-granularity TM
//! cannot avoid — so collection traffic that is abstractly commutative
//! becomes memory-conflicting. The shape claim: as more threads share
//! the structures, the mixed system aborts far less than all-HTM.

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{criterion_group, criterion_main};

use pushpull_bench::{assert_serializable, drive, print_row};
use pushpull_core::lang::Code;
use pushpull_spec::counter::CtrMethod;
use pushpull_spec::kvmap::MapMethod;
use pushpull_spec::rwmem::{Loc, MemMethod};
use pushpull_spec::set::SetMethod;
use pushpull_tm::driver::TmSystem;
use pushpull_tm::htm::HtmSystem;
use pushpull_tm::mixed::{methods, mixed_spec, MixedMethod, MixedSystem};

/// The §7 transaction for thread `t`, on its own keys but shared words.
fn mixed_prog(t: u64, txns: usize) -> Vec<Code<MixedMethod>> {
    (0..txns as u64)
        .map(|i| {
            let k = t * 1000 + i;
            Code::seq_all(vec![
                Code::method(methods::skiplist(SetMethod::Add(k))),
                Code::method(methods::size(CtrMethod::Add(1))),
                Code::method(methods::hash_table(MapMethod::Put(k, k as i64))),
                Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
            ])
        })
        .collect()
}

/// The same logical workload, all-HTM: collection ops become writes to a
/// per-key word PLUS a read-modify-write of the structure's metadata
/// word (words 100 and 101); `size` is word 102.
fn all_htm_prog(t: u64, txns: usize) -> Vec<Code<MemMethod>> {
    (0..txns as u64)
        .map(|i| {
            let k = (t * 1000 + i) as u32;
            Code::seq_all(vec![
                // skiplist.insert(k): key word + structure metadata RMW
                Code::method(MemMethod::Write(Loc(200 + k), 1)),
                Code::method(MemMethod::Read(Loc(100))),
                Code::method(MemMethod::Write(Loc(100), (i + 1) as i64)),
                // size++
                Code::method(MemMethod::Read(Loc(102))),
                Code::method(MemMethod::Write(Loc(102), (i + 1) as i64)),
                // hashT.put(k, v): key word + metadata RMW
                Code::method(MemMethod::Write(Loc(400 + k), k as i64)),
                Code::method(MemMethod::Read(Loc(101))),
                Code::method(MemMethod::Write(Loc(101), (i + 1) as i64)),
                // x++
                Code::method(MemMethod::Write(Loc((t % 2) as u32), 1)),
            ])
        })
        .collect()
}

fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5-mixed-htm");
    group.sample_size(10);
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("mixed", threads), |b| {
            b.iter(|| {
                let progs = (0..threads as u64).map(|t| mixed_prog(t, 4)).collect();
                let mut sys = MixedSystem::new(mixed_spec(), progs);
                drive(&mut sys, 9)
            })
        });
        group.bench_function(BenchmarkId::new("all-htm", threads), |b| {
            b.iter(|| {
                let progs = (0..threads as u64).map(|t| all_htm_prog(t, 4)).collect();
                let mut sys = HtmSystem::new(progs);
                drive(&mut sys, 9)
            })
        });
    }
    group.finish();

    eprintln!("\n=== B5 shape table (4 txns/thread) ===");
    for threads in [1usize, 2, 4] {
        let progs = (0..threads as u64).map(|t| mixed_prog(t, 4)).collect();
        let mut sys = MixedSystem::new(mixed_spec(), progs);
        let (s, t) = drive(&mut sys, 9);
        assert_serializable(sys.machine());
        print_row(&format!("mixed boosting+HTM / {threads}T"), s, t);

        let progs = (0..threads as u64).map(|t| all_htm_prog(t, 4)).collect();
        let mut sys = HtmSystem::new(progs);
        let (s, t) = drive(&mut sys, 9);
        assert_serializable(sys.machine());
        print_row(&format!("all-HTM encoding    / {threads}T"), s, t);
    }
}

criterion_group!(benches, bench_mixed);
criterion_main!(benches);
