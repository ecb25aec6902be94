//! Heavier exhaustive model-checking configurations, ignored by default
//! (`cargo test -- --ignored` to run). These push the interleaving
//! explorer to three threads and longer transactions; the quick variants
//! in the other test files cover the same claims on smaller
//! configurations.

use pushpull::core::lang::Code;
use pushpull::core::opacity::check_trace;
use pushpull::core::serializability::check_machine;
use pushpull::harness::{explore, ExploreLimits};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::BoostingSystem;
use pushpull::tm::TmSystem;

#[test]
#[ignore = "heavy: minutes of exhaustive exploration"]
fn three_thread_optimistic_counter_exhaustive() {
    let prog = || {
        vec![Code::seq_all(vec![
            Code::method(CtrMethod::Get),
            Code::method(CtrMethod::Add(1)),
        ])]
    };
    let sys = OptimisticSystem::new(
        Counter::new(),
        vec![prog(), prog(), prog()],
        ReadPolicy::Snapshot,
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 60,
            max_terminals: 2_000_000,
        },
        &mut |s| {
            check_machine(s.machine()).is_serializable()
                && check_trace(&s.machine().trace()).is_opaque()
        },
    )
    .unwrap();
    assert!(report.terminals > 1_000);
    assert!(report.all_ok(), "{report:?}");
}

#[test]
#[ignore = "heavy: minutes of exhaustive exploration"]
fn three_thread_boosting_map_exhaustive() {
    let sys = BoostingSystem::new(
        KvMap::new(),
        vec![
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(1, 10)),
                Code::method(MapMethod::Get(2)),
            ])],
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(2, 20)),
                Code::method(MapMethod::Get(3)),
            ])],
            vec![Code::method(MapMethod::Put(1, 30))],
        ],
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 64,
            max_terminals: 2_000_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert!(report.terminals > 1_000);
    assert!(report.all_ok(), "{report:?}");
}

#[test]
#[ignore = "heavy: minutes of exhaustive exploration"]
fn rmw_pair_longer_transactions_exhaustive() {
    let prog = |l: u32, v: i64| {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
            Code::method(MemMethod::Read(Loc(1 - l))),
            Code::method(MemMethod::Write(Loc(1 - l), v + 1)),
        ])]
    };
    let sys = OptimisticSystem::new(
        RwMem::new(),
        vec![prog(0, 1), prog(1, 10)],
        ReadPolicy::Snapshot,
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 72,
            max_terminals: 2_000_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert!(report.terminals > 100);
    assert!(report.all_ok(), "{report:?}");
}
