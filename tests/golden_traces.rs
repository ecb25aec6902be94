//! Golden traces: the exact rendered rule sequences of the paper's two
//! worked examples, pinned as strings. Machine behaviour is fully
//! deterministic given a fixed script, so any drift in rule order, id
//! assignment or rendering shows up here.

use pushpull::core::lang::Code;
use pushpull::core::serializability::check_machine;
use pushpull::core::Machine;
use pushpull::harness::{run, RandomSched};
use pushpull::spec::counter::CtrMethod;
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::BoostingSystem;
use pushpull::tm::TmSystem;

/// Figure 7, scripted, with the golden rendering.
#[test]
fn figure7_golden_trace() {
    let mut m = Machine::new(mixed_spec());
    let t = m.add_thread(vec![Code::seq_all(vec![
        Code::method(methods::skiplist(SetMethod::Add(1))),
        Code::method(methods::size(CtrMethod::Add(1))),
        Code::method(methods::hash_table(MapMethod::Put(1, 2))),
        Code::choice(
            Code::method(methods::mem(MemMethod::Write(Loc(0), 1))),
            Code::method(methods::mem(MemMethod::Write(Loc(1), 1))),
        ),
    ])]);

    let insert = m
        .app_method(t, &methods::skiplist(SetMethod::Add(1)))
        .unwrap();
    m.push(t, insert).unwrap();
    let size_inc = m.app_method(t, &methods::size(CtrMethod::Add(1))).unwrap();
    let put = m
        .app_method(t, &methods::hash_table(MapMethod::Put(1, 2)))
        .unwrap();
    m.push(t, put).unwrap();
    let x_inc = m
        .app_method(t, &methods::mem(MemMethod::Write(Loc(0), 1)))
        .unwrap();
    m.push(t, size_inc).unwrap();
    m.push(t, x_inc).unwrap();
    m.unpush(t, x_inc).unwrap();
    m.unpush(t, size_inc).unwrap();
    m.unapp(t).unwrap();
    let y_inc = m
        .app_method(t, &methods::mem(MemMethod::Write(Loc(1), 1)))
        .unwrap();
    m.push(t, size_inc).unwrap();
    m.push(t, y_inc).unwrap();
    m.commit(t).unwrap();

    let expected = "\
T0: begin t0
T0: APP(add(1)#0) -> L(L(SetRet(true)))
T0: PUSH(add(1)#0)
T0: APP(add(1)#1) -> R(L(Ack))
T0: APP(put(1,2)#2) -> L(R(Prev(None)))
T0: PUSH(put(1,2)#2)
T0: APP(wr(x0,1)#3) -> R(R(Ack))
T0: PUSH(add(1)#1)
T0: PUSH(wr(x0,1)#3)
T0: UNPUSH(wr(x0,1)#3)
T0: UNPUSH(add(1)#1)
T0: UNAPP(wr(x0,1)#3)
T0: APP(wr(x1,1)#4) -> R(R(Ack))
T0: PUSH(add(1)#1)
T0: PUSH(wr(x1,1)#4)
T0: CMT t0 [#0, #2, #1, #4]
";
    assert_eq!(m.trace().render(), expected);
}

/// Figure 2's put/get/abort cycle, golden.
#[test]
fn figure2_golden_trace() {
    let mut m = Machine::new(KvMap::new());
    let t = m.add_thread(vec![Code::seq(
        Code::method(MapMethod::Put(1, 100)),
        Code::method(MapMethod::Get(1)),
    )]);
    // APP;PUSH, then abort (UNPUSH;UNAPP), then the full retry.
    let p = m.app_auto(t).unwrap();
    m.push(t, p).unwrap();
    m.unpush(t, p).unwrap();
    m.unapp(t).unwrap();
    m.abort_and_retry(t).unwrap();
    let p = m.app_auto(t).unwrap();
    m.push(t, p).unwrap();
    let g = m.app_auto(t).unwrap();
    m.push(t, g).unwrap();
    m.commit(t).unwrap();

    let expected = "\
T0: begin t0
T0: APP(put(1,100)#0) -> Prev(None)
T0: PUSH(put(1,100)#0)
T0: UNPUSH(put(1,100)#0)
T0: UNAPP(put(1,100)#0)
T0: abort t0
T0: begin t1
T0: APP(put(1,100)#1) -> Prev(None)
T0: PUSH(put(1,100)#1)
T0: APP(get(1)#2) -> Val(Some(100))
T0: PUSH(get(1)#2)
T0: CMT t1 [#1, #2]
";
    assert_eq!(m.trace().render(), expected);
}

/// The incremental (committed-prefix cached) and full-replay `allowed`
/// evaluations must be *observationally identical* on the same
/// deterministic run: bit-identical trace renderings, bit-identical
/// audit tallies (discharged, violated, and raw query counts), and the
/// same serializability-oracle verdict. The cache changes the cost of
/// the criteria, never their meaning.
#[test]
fn incremental_matches_full_replay_on_golden_runs() {
    fn boosting_run(
        incremental: bool,
        seed: u64,
    ) -> (String, pushpull::core::audit::CriteriaAudit, bool) {
        let programs: Vec<_> = (0..3u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 2, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 2)),
                ])]
            })
            .collect();
        let mut sys = BoostingSystem::new(KvMap::new(), programs);
        sys.machine().set_incremental(incremental);
        run(&mut sys, &mut RandomSched::new(seed), 100_000).unwrap();
        let m = sys.machine();
        (
            m.trace().render(),
            m.audit(),
            check_machine(m).is_serializable(),
        )
    }

    fn optimistic_run(
        incremental: bool,
        seed: u64,
    ) -> (String, pushpull::core::audit::CriteriaAudit, bool) {
        let programs: Vec<_> = (0..3u32)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(t % 2))),
                    Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
                ])]
            })
            .collect();
        let mut sys = OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot);
        sys.machine().set_incremental(incremental);
        run(&mut sys, &mut RandomSched::new(seed), 100_000).unwrap();
        let m = sys.machine();
        (
            m.trace().render(),
            m.audit(),
            check_machine(m).is_serializable(),
        )
    }

    for seed in 1..=5u64 {
        let (trace_inc, audit_inc, ok_inc) = boosting_run(true, seed);
        let (trace_full, audit_full, ok_full) = boosting_run(false, seed);
        assert_eq!(
            trace_inc, trace_full,
            "boosting seed {seed}: traces diverge"
        );
        assert_eq!(
            audit_inc, audit_full,
            "boosting seed {seed}: audits diverge"
        );
        assert_eq!(ok_inc, ok_full, "boosting seed {seed}: verdicts diverge");
        assert!(ok_inc, "boosting seed {seed}: not serializable");

        let (trace_inc, audit_inc, ok_inc) = optimistic_run(true, seed);
        let (trace_full, audit_full, ok_full) = optimistic_run(false, seed);
        assert_eq!(
            trace_inc, trace_full,
            "optimistic seed {seed}: traces diverge"
        );
        assert_eq!(
            audit_inc, audit_full,
            "optimistic seed {seed}: audits diverge"
        );
        assert_eq!(ok_inc, ok_full, "optimistic seed {seed}: verdicts diverge");
        assert!(ok_inc, "optimistic seed {seed}: not serializable");
    }
}
