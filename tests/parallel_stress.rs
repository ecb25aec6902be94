//! Parallel stress: every §6/§7 algorithm under the handle-based
//! [`run_parallel`] harness — real OS threads, each owning its own
//! `TxnHandle`, no whole-system lock — with the OS scheduler providing
//! genuinely nondeterministic interleavings.
//!
//! Every run must still pass the serializability oracle, and each
//! algorithm's audit *pattern* (which proof obligations it discharges,
//! which it never violates) must survive real concurrency, not just the
//! seeded single-threaded schedulers.

use pushpull::core::error::{Clause, Rule};
use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::harness::run_parallel;
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::TmSystem;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, DependentSystem, HtmSystem, IrrevocableSystem,
    MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System, TwoPhaseLocking,
};

/// Generous per-thread tick budget: threshold-based abort policies bound
/// every wait, so a run that exhausts this has genuinely wedged.
const BUDGET: usize = 2_000_000;

const ROUNDS: usize = 4;

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// §6.3 boosting across 8 OS threads contending on 4 keys. APP ticks
/// touch no global lock; the abstract lock manager serializes conflicts.
#[test]
fn parallel_boosting_eight_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..8u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 4, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 4)),
                ])]
            })
            .collect();
        let sys = BoostingSystem::new(KvMap::new(), programs);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 8, "round {round}");
        let audit = sys.machine().audit();
        // Every commit discharges CMT criterion (iii) exactly once.
        assert_eq!(
            audit.discharged_count(Rule::Cmt, Clause::Iii),
            8,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 optimistic (snapshot reads) across 6 OS threads on 2 locations.
/// (Unlike the seeded runs, a commit-time push batch can conflict *mid*
/// batch here, so the abort path may legitimately UNPUSH the partial
/// batch — the parallel invariant is the CMT discharge pattern.)
#[test]
fn parallel_optimistic_six_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..6u32)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(t % 2))),
                    Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
                ])]
            })
            .collect();
        let sys = OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 6, "round {round}");
        let audit = sys.machine().audit();
        assert_eq!(
            audit.discharged_count(Rule::Cmt, Clause::Iii),
            6,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.3 Matveev–Shavit: even under full write-write contention on real
/// threads, writers never abort — the commit token orders their bursts.
#[test]
fn parallel_pessimistic_writers_never_abort() {
    for round in 0..ROUNDS {
        let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
        let sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2), prog(3), prog(4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        assert_eq!(
            sys.stats().aborts,
            0,
            "round {round}: writers must not abort"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 concrete TL2 under real contention: version-clock validation
/// aborts resolve every race, and every run serializes.
#[test]
fn parallel_tl2_four_threads() {
    for round in 0..ROUNDS {
        let sys = Tl2System::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(1, 4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.3 strict 2PL: shared read locks admit concurrent read pushes
/// (reads move across reads) and exclusive locks fence writes, so a 2PL
/// run discharges PUSH obligations but never violates one — even with
/// the interleaving chosen by the OS scheduler.
#[test]
fn parallel_twophase_never_violates_push_criteria() {
    for round in 0..ROUNDS {
        let read0 = || vec![Code::method(MemMethod::Read(Loc(0)))];
        let sys = TwoPhaseLocking::new(vec![read0(), read0(), rmw(1, 7), rmw(1, 8)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let audit = sys.machine().audit();
        assert_eq!(
            audit.violated_count(Rule::Push, Clause::Ii),
            0,
            "round {round}"
        );
        assert_eq!(
            audit.violated_count(Rule::Push, Clause::Iii),
            0,
            "round {round}"
        );
        assert!(
            audit.discharged_count(Rule::Push, Clause::Ii) > 0,
            "round {round}"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §7 simulated HTM: eager word-granularity conflict detection
/// (requester loses) across 4 OS threads.
#[test]
fn parallel_htm_four_threads() {
    for round in 0..ROUNDS {
        let sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(2, 4)]);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.4 irrevocability: the eager-PUSH thread never aborts while racing
/// optimistic threads on the same locations, on real OS threads.
#[test]
fn parallel_irrevocable_thread_never_aborts() {
    for round in 0..ROUNDS {
        let programs = vec![rmw(0, 10), rmw(0, 20), rmw(1, 30), rmw(0, 40)];
        let sys = IrrevocableSystem::new(RwMem::new(), programs, ThreadId(0));
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        assert_eq!(
            sys.irrevocable_aborts(),
            0,
            "round {round}: irrevocable aborted"
        );
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.2 checkpoint/partial-abort optimism under contention: invalidated
/// suffixes rewind rather than full-abort, and every run serializes.
#[test]
fn parallel_checkpoint_four_threads() {
    for round in 0..ROUNDS {
        let prog = |l: u32, v: i64| {
            vec![Code::seq_all(vec![
                Code::method(MemMethod::Read(Loc(l))),
                Code::method(MemMethod::Read(Loc(l + 1))),
                Code::method(MemMethod::Write(Loc(l), v)),
            ])]
        };
        let sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![prog(0, 1), prog(0, 2), prog(1, 3), prog(1, 4)],
        );
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §6.5 dependent transactions: eager release publishes uncommitted
/// effects, racing threads PULL them and gate their commits; every
/// dependency is resolved (or detangled) by the end.
#[test]
fn parallel_dependent_four_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..4i64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(CtrMethod::Add(t + 1)),
                    Code::method(CtrMethod::Get),
                ])]
            })
            .collect();
        let sys = DependentSystem::new(Counter::new(), programs, true);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        for t in 0..4 {
            assert!(
                sys.dependencies(ThreadId(t)).is_empty(),
                "round {round}: thread {t} still has dependencies"
            );
        }
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}

/// §7 mixed boosting + HTM transactions on 4 OS threads: boosted
/// skiplist/hash-table ops share eagerly while HTM words conflict-check,
/// with partial HTM rewinds — still serializable on every run.
#[test]
fn parallel_mixed_four_threads() {
    for round in 0..ROUNDS {
        let programs: Vec<_> = (0..4u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(methods::skiplist(SetMethod::Add(t))),
                    Code::method(methods::size(CtrMethod::Add(1))),
                    Code::method(methods::hash_table(MapMethod::Put(t, t as i64))),
                    Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
                ])]
            })
            .collect();
        let sys = MixedSystem::new(mixed_spec(), programs);
        let (sys, outcome) = run_parallel(sys, BUDGET, None).unwrap();
        assert!(outcome.completed, "round {round} incomplete");
        assert_eq!(sys.stats().commits, 4, "round {round}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "round {round}: {report}");
    }
}
