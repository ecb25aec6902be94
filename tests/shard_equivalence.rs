//! Sharded-vs-single-lock golden equivalence: resharding the shared log
//! changes the *cost* of the shared-rule critical sections, never their
//! verdicts.
//!
//! Every §6/§7 driver runs the same workload under the deterministic
//! round-robin scheduler at shard counts 1, 4 and 16. Because the
//! scheduler is deterministic and sharding must not change any criterion
//! verdict, all three runs must produce **bit-identical traces** (same
//! rules fired in the same order with the same operations), identical
//! commit counts, identical audit ledgers (the per-obligation
//! discharged/violated/statically-discharged columns — raw query counts
//! may differ, since multi-shard views replay merged logs where the
//! single-shard path uses the incremental prefix cache), and the same
//! serializability verdict.
//!
//! A kvmap workload containing `Size` (which declares no footprint)
//! additionally pins the sticky-coarse degradation path: shard counts
//! above 1 must fall back to whole-log evaluation without changing any
//! outcome.

use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::harness::testutil::assert_ledger_matches;
use pushpull::harness::{run, RoundRobin};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, DependentSystem, HtmSystem, IrrevocableSystem,
    MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System, TmSystem, TwoPhaseLocking,
};

const BUDGET: usize = 2_000_000;

/// Shard counts to compare against the single-lock baseline.
const SHARD_COUNTS: [usize; 2] = [4, 16];

/// One run: reshard, drive to completion round-robin, snapshot
/// everything the equivalence claim quantifies over.
fn golden<T, Sp>(
    label: &str,
    mut sys: T,
    shards: usize,
) -> (u64, String, pushpull::core::audit::CriteriaAudit)
where
    T: TmSystem<Spec = Sp>,
    Sp: SeqSpec,
    Sp::Method: std::fmt::Display,
{
    sys.machine_mut().set_log_shards(shards);
    let out = run(&mut sys, &mut RoundRobin, BUDGET)
        .unwrap_or_else(|e| panic!("{label}@{shards}: machine error: {e}"));
    assert!(out.completed, "{label}@{shards}: wedged");
    let m = sys.machine();
    assert_eq!(
        m.log_shards(),
        shards.max(1),
        "{label}: resharding did not take"
    );
    let report = check_machine(m);
    assert!(report.is_serializable(), "{label}@{shards}: {report}");
    let commits = m.committed_txns().len() as u64;
    (commits, m.trace().render(), m.audit())
}

/// Drives `make()`'s system at every shard count and asserts the
/// equivalence against the single-shard baseline.
fn assert_shard_equivalence<T, Sp>(label: &str, make: impl Fn() -> T)
where
    T: TmSystem<Spec = Sp>,
    Sp: SeqSpec,
    Sp::Method: std::fmt::Display,
{
    let (base_commits, base_trace, base_audit) = golden(label, make(), 1);
    for shards in SHARD_COUNTS {
        let (commits, trace, audit) = golden(label, make(), shards);
        assert_eq!(commits, base_commits, "{label}@{shards}: commits diverge");
        assert_eq!(
            trace, base_trace,
            "{label}@{shards}: traces diverge — sharding changed a verdict"
        );
        assert_ledger_matches(&audit, &base_audit);
    }
}

#[test]
fn boosting_sharding_is_verdict_equivalent() {
    let programs = || {
        (0..8u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 4, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 4)),
                ])]
            })
            .collect::<Vec<_>>()
    };
    assert_shard_equivalence("boosting/kvmap", || {
        BoostingSystem::new(KvMap::new(), programs())
    });
}

#[test]
fn boosting_coarse_size_workload_is_verdict_equivalent() {
    // `Size` declares no footprint: every route after its first append
    // degrades to the sticky-coarse whole-log path. Outcomes still must
    // not change at any shard count.
    let programs = || {
        (0..4u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t, t as i64)),
                    Code::method(MapMethod::Size),
                ])]
            })
            .collect::<Vec<_>>()
    };
    assert_shard_equivalence("boosting/kvmap-size-coarse", || {
        BoostingSystem::new(KvMap::new(), programs())
    });
}

#[test]
fn optimistic_sharding_is_verdict_equivalent() {
    let programs = || {
        (0..6u32)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(t % 2))),
                    Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
                ])]
            })
            .collect::<Vec<_>>()
    };
    assert_shard_equivalence("optimistic/rwmem", || {
        OptimisticSystem::new(RwMem::new(), programs(), ReadPolicy::Snapshot)
    });
}

#[test]
fn pessimistic_sharding_is_verdict_equivalent() {
    let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
    assert_shard_equivalence("pessimistic/rwmem", || {
        MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2), prog(3), prog(4)])
    });
}

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

#[test]
fn tl2_sharding_is_verdict_equivalent() {
    assert_shard_equivalence("tl2/rwmem", || {
        Tl2System::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(1, 4)])
    });
}

#[test]
fn twophase_sharding_is_verdict_equivalent() {
    let read0 = || vec![Code::method(MemMethod::Read(Loc(0)))];
    assert_shard_equivalence("2pl/rwmem", || {
        TwoPhaseLocking::new(vec![read0(), read0(), rmw(1, 7), rmw(1, 8)])
    });
}

#[test]
fn htm_sharding_is_verdict_equivalent() {
    assert_shard_equivalence("htm/rwmem", || {
        HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(2, 4)])
    });
}

#[test]
fn irrevocable_sharding_is_verdict_equivalent() {
    assert_shard_equivalence("irrevocable/rwmem", || {
        IrrevocableSystem::new(
            RwMem::new(),
            vec![rmw(0, 10), rmw(0, 20), rmw(1, 30), rmw(0, 40)],
            ThreadId(0),
        )
    });
}

#[test]
fn checkpoint_sharding_is_verdict_equivalent() {
    let prog = |l: u32, v: i64| {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Read(Loc(l + 1))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    };
    assert_shard_equivalence("checkpoint/rwmem", || {
        CheckpointOptimistic::new(
            RwMem::new(),
            vec![prog(0, 1), prog(0, 2), prog(1, 3), prog(1, 4)],
        )
    });
}

#[test]
fn dependent_sharding_is_verdict_equivalent() {
    let programs = || {
        (0..4i64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(CtrMethod::Add(t + 1)),
                    Code::method(CtrMethod::Get),
                ])]
            })
            .collect::<Vec<_>>()
    };
    assert_shard_equivalence("dependent/counter", || {
        DependentSystem::new(Counter::new(), programs(), true)
    });
}

#[test]
fn mixed_sharding_is_verdict_equivalent() {
    let programs = || {
        (0..4u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(methods::skiplist(SetMethod::Add(t))),
                    Code::method(methods::size(CtrMethod::Add(1))),
                    Code::method(methods::hash_table(MapMethod::Put(t, t as i64))),
                    Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
                ])]
            })
            .collect::<Vec<_>>()
    };
    assert_shard_equivalence("mixed/product", || {
        MixedSystem::new(mixed_spec(), programs())
    });
}

#[test]
fn midrun_resharding_preserves_state_and_verdicts() {
    // Resharding is also legal *between* ticks of a live run: stamps,
    // commit order and the audit must carry over, and the remainder of
    // the run must behave as if the layout had been there all along.
    let programs: Vec<_> = (0..6u64)
        .map(|t| {
            vec![
                Code::method(MapMethod::Put(t, t as i64)),
                Code::method(MapMethod::Put(t + 10, 1)),
            ]
        })
        .collect();
    let mut sys = BoostingSystem::new(KvMap::new(), programs);
    let mut sched = RoundRobin;
    // Drive partway: enough ticks for some pushes to land, not all.
    for _ in 0..4 {
        for t in 0..6 {
            let _ = sys.tick(ThreadId(t)).unwrap();
        }
    }
    sys.machine_mut().set_log_shards(8);
    let out = run(&mut sys, &mut sched, BUDGET).unwrap();
    assert!(out.completed);
    assert_eq!(sys.machine().log_shards(), 8);
    assert_eq!(sys.machine().committed_txns().len(), 12);
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}
