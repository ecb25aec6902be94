//! Group-commit golden equivalence for the service front-end, plus the
//! server's chaos rows and the multiplexing scale test.
//!
//! The server's core claim mirrors the transport seam's: batching
//! commit-ready transactions per destination shard (one shard-lock
//! acquisition and one contiguous stamp reservation per batch) changes
//! *how many times the lock is taken*, never what is decided. Ten
//! workload families — the same spec/method mixes the §6/§7 drivers run —
//! go through [`TxnServer`] with group commit on and off, at shard
//! counts 1, 4 and 16; each pair of runs must produce bit-identical
//! committed-transaction sequences, bit-identical traces, and identical
//! audit ledgers.
//!
//! Riding along:
//!
//! * the driver-facing `commit_group` seam contract (reached through
//!   every driver's `machine_mut()`, validated end-to-end on a raw
//!   machine);
//! * the server's chaos rows: every transport fault kind through the
//!   whole session loop under a seeded random scheduler, with exact
//!   injection accounting, and a persistent partition under
//!   [`FallbackMode::Fail`] failing every session cleanly instead of
//!   hanging;
//! * ten thousand logical sessions multiplexed onto 256 worker slots,
//!   with fewer lock acquisitions than committed transactions.

use std::sync::Arc;
use std::time::Duration;

use pushpull::core::audit::CriteriaAudit;
use pushpull::core::error::MachineError;
use pushpull::core::faults::{FaultHook, ALL_TRANSPORT_FAULT_KINDS};
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::core::Metric;
use pushpull::core::{FallbackMode, GroupTxnResult, SeededBackoff, TransportConfig};
use pushpull::harness::testutil::{
    assert_chaos_cell, assert_injection_accounted, assert_ledger_matches,
};
use pushpull::harness::{run, FaultPlan, RoundRobin, WorkloadSpec};
use pushpull::server::{ServerConfig, SessionOutcome, SessionScript, TxnServer};
use pushpull::spec::bank::Bank;
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::queue::{QueueMethod, QueueSpec};
use pushpull::spec::register::{CasRegister, RegMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::{SetMethod, SetSpec};
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::{BoostingSystem, TmSystem};

const BUDGET: usize = 2_000_000;

/// Shard counts the equivalence is quantified over.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Sessions from a generated per-thread workload: every transaction body
/// becomes one logical session (the server, not the generator, decides
/// placement).
fn sessions_from<M: Clone + PartialEq>(programs: Vec<Vec<Code<M>>>) -> Vec<SessionScript<M>> {
    programs
        .iter()
        .flatten()
        .map(SessionScript::from_code)
        .collect()
}

/// One server run: reshard, drive to completion round-robin, snapshot
/// everything the claim quantifies over.
fn golden<S: SeqSpec>(
    label: &str,
    spec: S,
    scripts: Vec<SessionScript<S::Method>>,
    shards: usize,
    group: bool,
) -> (String, String, CriteriaAudit)
where
    S::Method: std::fmt::Display,
    S::Ret: std::fmt::Debug,
{
    let expected = scripts.len() as u64;
    let mut sys = TxnServer::new(
        spec,
        scripts,
        ServerConfig {
            workers: 2,
            slots_per_worker: 4,
            group_commit: group,
            ..ServerConfig::default()
        },
    );
    sys.machine_mut().set_log_shards(shards);
    let which = if group { "group" } else { "single" };
    let out = run(&mut sys, &mut RoundRobin, BUDGET)
        .unwrap_or_else(|e| panic!("{label}@{shards}/{which}: machine error: {e}"));
    assert!(out.completed, "{label}@{shards}/{which}: wedged");
    let stats = sys.stats();
    assert_eq!(
        stats.sessions, expected,
        "{label}@{shards}/{which}: sessions lost"
    );
    if !group {
        assert_eq!(
            sys.machine().group_stats().batches,
            0,
            "{label}@{shards}/{which}: batching disabled but batches sealed"
        );
    }
    let m = sys.machine();
    let report = check_machine(m);
    assert!(
        report.is_serializable(),
        "{label}@{shards}/{which}: {report}"
    );
    (
        format!("{:?}", m.committed_txns()),
        m.trace().render(),
        m.audit(),
    )
}

/// Runs `scripts()` through the server with group commit on and off at
/// every shard count and asserts the batched run is bit-identical to the
/// per-transaction one.
fn assert_group_equivalence<S: SeqSpec>(
    label: &str,
    spec: impl Fn() -> S,
    scripts: impl Fn() -> Vec<SessionScript<S::Method>>,
) where
    S::Method: std::fmt::Display,
    S::Ret: std::fmt::Debug,
{
    for shards in SHARD_COUNTS {
        let (on_commits, on_trace, on_audit) = golden(label, spec(), scripts(), shards, true);
        let (off_commits, off_trace, off_audit) = golden(label, spec(), scripts(), shards, false);
        assert_eq!(
            on_commits, off_commits,
            "{label}@{shards}: committed transactions diverge"
        );
        assert_eq!(
            on_trace, off_trace,
            "{label}@{shards}: traces diverge — batching changed a verdict"
        );
        assert_ledger_matches(&on_audit, &off_audit);
    }
}

#[test]
fn kvmap_contended_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.5,
        seed: 11,
    };
    assert_group_equivalence("server/kvmap", KvMap::new, || {
        sessions_from(wl.kvmap_programs())
    });
}

#[test]
fn kvmap_disjoint_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 64,
        read_ratio: 0.2,
        seed: 12,
    };
    assert_group_equivalence("server/kvmap-disjoint", KvMap::new, || {
        sessions_from(wl.kvmap_disjoint_programs())
    });
}

#[test]
fn rwmem_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 4,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 6,
        read_ratio: 0.6,
        seed: 13,
    };
    assert_group_equivalence("server/rwmem", RwMem::new, || {
        sessions_from(wl.rwmem_programs())
    });
}

#[test]
fn counter_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 3,
        txns_per_thread: 4,
        ops_per_txn: 2,
        key_range: 8,
        read_ratio: 0.3,
        seed: 14,
    };
    assert_group_equivalence("server/counter", Counter::new, || {
        sessions_from(wl.counter_programs())
    });
}

#[test]
fn bank_group_equivalent() {
    let wl = WorkloadSpec {
        threads: 3,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.4,
        seed: 15,
    };
    assert_group_equivalence("server/bank", Bank::new, || {
        sessions_from(wl.bank_programs())
    });
}

#[test]
fn set_group_equivalent() {
    assert_group_equivalence("server/set", SetSpec::new, || {
        (0..12u64)
            .map(|s| {
                SessionScript::commit(vec![
                    SetMethod::Add(s % 5),
                    SetMethod::Contains((s + 1) % 5),
                    SetMethod::Remove((s + 2) % 5),
                ])
            })
            .collect()
    });
}

#[test]
fn queue_group_equivalent() {
    assert_group_equivalence("server/queue", QueueSpec::new, || {
        (0..12i64)
            .map(|s| {
                if s % 3 == 0 {
                    SessionScript::commit(vec![QueueMethod::Deq])
                } else {
                    SessionScript::commit(vec![QueueMethod::Enq(s), QueueMethod::Peek])
                }
            })
            .collect()
    });
}

#[test]
fn register_group_equivalent() {
    assert_group_equivalence("server/register", CasRegister::new, || {
        (0..10i64)
            .map(|s| match s % 3 {
                0 => SessionScript::commit(vec![RegMethod::Write(s), RegMethod::Read]),
                1 => SessionScript::commit(vec![RegMethod::Read]),
                _ => SessionScript::commit(vec![RegMethod::Cas {
                    expected: s - 2,
                    new: s,
                }]),
            })
            .collect()
    });
}

#[test]
fn mixed_product_group_equivalent() {
    assert_group_equivalence("server/mixed", mixed_spec, || {
        (0..8u64)
            .map(|s| {
                SessionScript::commit(vec![
                    methods::skiplist(SetMethod::Add(s % 4)),
                    methods::size(CtrMethod::Add(1)),
                    methods::hash_table(MapMethod::Put(s, s as i64)),
                    methods::mem(MemMethod::Write(Loc((s % 2) as u32), 1)),
                ])
            })
            .collect()
    });
}

#[test]
fn abort_mix_group_equivalent() {
    // Half the sessions close with Abort: the rewinds must also be
    // invisible to what the committed half decides.
    assert_group_equivalence("server/abort-mix", KvMap::new, || {
        (0..16u64)
            .map(|s| {
                let ops = vec![MapMethod::Put(s % 6, s as i64), MapMethod::Get((s + 1) % 6)];
                if s % 2 == 0 {
                    SessionScript::commit(ops)
                } else {
                    SessionScript::abort(ops)
                }
            })
            .collect()
    });
}

/// The driver-facing commit seam: every driver hands out its machine's
/// `commit_group`, idle threads report back `Ineligible` for the
/// caller's per-transaction fallback, malformed batches error, and on a
/// raw machine the same entry point really does commit a multi-thread
/// batch under one acquisition.
#[test]
fn service_commit_seam_contract() {
    // The hook, through a driver.
    let mut sys = BoostingSystem::new(
        KvMap::new(),
        vec![vec![Code::method(MapMethod::Put(0, 1))], vec![]],
    );
    let out = sys
        .machine_mut()
        .commit_group(&[])
        .expect("empty batch is not an error");
    assert!(out.results.is_empty());
    assert_eq!(out.batches, 0);
    let out = sys.machine_mut().commit_group(&[ThreadId(0)]).unwrap();
    assert!(
        matches!(out.results[..], [(ThreadId(0), GroupTxnResult::Ineligible)]),
        "a thread with nothing applied must fall back, got {:?}",
        out.results
    );
    assert!(
        sys.machine_mut()
            .commit_group(&[ThreadId(0), ThreadId(0)])
            .is_err(),
        "duplicate tids must be rejected"
    );
    assert!(
        sys.machine_mut().commit_group(&[ThreadId(9)]).is_err(),
        "out-of-range tids must be rejected"
    );

    // The same entry point on a raw machine, committing for real: two
    // applied transactions on one shard, one batch, one acquisition.
    let mut m: Machine<KvMap> = Machine::new(KvMap::new());
    let t0 = m.add_thread(vec![Code::method(MapMethod::Put(0, 10))]);
    let t1 = m.add_thread(vec![Code::method(MapMethod::Put(1, 20))]);
    m.app_auto(t0).unwrap();
    m.app_auto(t1).unwrap();
    let before = m.metrics()[Metric::LockAcquires];
    let out = m.commit_group(&[t0, t1]).unwrap();
    assert!(out
        .results
        .iter()
        .all(|(_, r)| matches!(r, GroupTxnResult::Committed(_))));
    assert_eq!((out.batches, out.batched_txns), (1, 2));
    let after = m.metrics()[Metric::LockAcquires];
    assert_eq!(after - before, 1, "a 2-txn batch takes the lock once");
    assert_eq!(m.committed_txns().len(), 2);
    assert!(check_machine(&m).is_serializable());
}

/// Every transport fault kind through the whole server loop: admission,
/// APP, commit (per-transaction under a transport), retry. The chaos
/// contract — completion, exact injection accounting, serializability —
/// holds on every cell, and every session still reaches an outcome.
#[test]
fn server_chaos_transport_matrix() {
    for kind in ALL_TRANSPORT_FAULT_KINDS {
        for seed in 1..=3u64 {
            let scripts: Vec<_> = (0..12u64)
                .map(|s| {
                    SessionScript::commit(vec![
                        MapMethod::Put(s % 5, s as i64),
                        MapMethod::Get((s + 2) % 5),
                    ])
                })
                .collect();
            let expected = scripts.len();
            let sys = TxnServer::new(
                KvMap::new(),
                scripts,
                ServerConfig {
                    workers: 2,
                    slots_per_worker: 3,
                    seed,
                    ..ServerConfig::default()
                },
            );
            let n = sys.thread_count();
            let plan = Arc::new(FaultPlan::seeded(seed, n, kind));
            sys.machine()
                .set_channel_transport(TransportConfig::default());
            let cell = format!("server/{kind}");
            let sys = assert_chaos_cell(&cell, sys, &plan, seed, BUDGET, false);
            assert_eq!(
                sys.stats().sessions as usize,
                expected,
                "{cell}/seed {seed}: sessions lost under faults"
            );
            let t = sys.machine().metrics();
            assert!(
                t[Metric::TransportRequests] > 0,
                "{cell}/seed {seed}: no transport requests"
            );
        }
    }
}

/// A persistent partition under [`FallbackMode::Fail`]: the server must
/// fail every session with [`MachineError::TransportExhausted`] — never
/// hang, never wedge a worker — and account every injected fault.
#[test]
fn persistent_partition_fails_every_session_clean() {
    let scripts: Vec<_> = (0..10u64)
        .map(|s| SessionScript::commit(vec![MapMethod::Put(s, s as i64)]))
        .collect();
    let mut sys = TxnServer::new(
        KvMap::new(),
        scripts,
        ServerConfig {
            workers: 2,
            slots_per_worker: 2,
            ..ServerConfig::default()
        },
    );
    sys.machine_mut().set_log_shards(1);
    sys.machine().set_channel_transport(TransportConfig {
        max_retries: 1,
        deadline: Duration::from_secs(5),
        fallback: FallbackMode::Fail,
        backoff: Arc::new(SeededBackoff::new(3)),
    });
    let plan = Arc::new(FaultPlan::new(sys.thread_count()).partition(0));
    sys.machine()
        .set_fault_hook(Some(Arc::clone(&plan) as Arc<dyn FaultHook>));
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("exhaustion is handled, not raised");
    assert!(out.completed, "partitioned server must drain, not hang");

    let outcomes = sys.outcomes();
    assert_eq!(outcomes.len(), 10);
    for (s, o) in outcomes {
        assert!(
            matches!(
                o,
                SessionOutcome::Failed {
                    error: MachineError::TransportExhausted { .. }
                }
            ),
            "{s}: expected TransportExhausted, got {o:?}"
        );
    }
    assert_eq!(sys.stats().commits, 0);
    assert_eq!(
        sys.machine().committed_txns().len(),
        0,
        "nothing may commit through a dead transport in Fail mode"
    );
    assert_injection_accounted(&sys.machine().audit(), &plan.fired());
}

/// Ten thousand logical sessions multiplexed onto 256 worker slots
/// (4 workers × 64 handles): every session commits, batches amortize the
/// shard lock below one acquisition per committed transaction, and the
/// deterministic outcome order names every session exactly once. (The
/// O(n²) whole-log serializability oracle is deliberately skipped at
/// this scale; the equivalence families above cover the verdicts.)
#[test]
fn ten_thousand_sessions_multiplex() {
    const SESSIONS: u64 = 10_000;
    let scripts: Vec<_> = (0..SESSIONS)
        .map(|s| SessionScript::commit(vec![MapMethod::Put(s, s as i64)]))
        .collect();
    let mut sys = TxnServer::new(
        KvMap::new(),
        scripts,
        ServerConfig {
            workers: 4,
            slots_per_worker: 64,
            ..ServerConfig::default()
        },
    );
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("machine error");
    assert!(out.completed, "10k-session drain wedged");
    let stats = sys.stats();
    assert_eq!(stats.sessions, SESSIONS);
    assert_eq!(stats.commits, SESSIONS);
    assert!(
        stats.lock_acquires < stats.commits,
        "batched disjoint load must average below one lock acquisition \
         per committed transaction ({} acquires / {} commits)",
        stats.lock_acquires,
        stats.commits
    );
    let group = sys.machine().group_stats();
    assert!(group.batches > 0);
    assert_eq!(group.batched_txns, SESSIONS, "every commit should batch");
    let outcomes = sys.outcomes();
    assert_eq!(outcomes.len(), SESSIONS as usize);
    // Sorted, dense, and all committed.
    for (i, (s, o)) in outcomes.iter().enumerate() {
        assert_eq!(s.0, i as u64);
        assert!(o.is_committed(), "{s}: {o:?}");
    }
}
