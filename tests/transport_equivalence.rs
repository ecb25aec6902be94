//! Local-vs-channel transport golden equivalence, plus the degradation
//! lifecycle.
//!
//! The transport seam's core claim: moving every shared-log PUSH/UNPUSH
//! critical section from the caller's thread (local transport) to a
//! dedicated per-shard server thread (channel transport) changes *where*
//! the section runs, never what it decides. Every §6/§7 driver runs the
//! same workload under the deterministic round-robin scheduler on both
//! transports at shard counts 1, 4 and 16; each pair of runs must
//! produce bit-identical committed-transaction sequences (ids, threads,
//! ops and pull stamps), bit-identical traces, and identical audit
//! ledgers.
//!
//! The lifecycle tests then pin the robustness envelope itself on a
//! persistent partition with *exact* counter deltas:
//! partition → bounded retries → coarse degradation → heal → probe
//! recovery → fast path, and, under [`FallbackMode::Fail`], a clean
//! [`MachineError::TransportExhausted`] instead of a hang.

use std::sync::Arc;
use std::time::Duration;

use pushpull::core::error::MachineError;
use pushpull::core::faults::{FaultHook, FaultKind};
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::SeqSpec;
use pushpull::core::Metric;
use pushpull::core::{FallbackMode, SeededBackoff, TransportConfig};
use pushpull::harness::testutil::{assert_injection_accounted, assert_ledger_matches};
use pushpull::harness::{run, FaultPlan, RoundRobin};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, CmBackoff, DependentSystem, ExponentialBackoff,
    HtmSystem, IrrevocableSystem, MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System,
    TmSystem, TwoPhaseLocking,
};

const BUDGET: usize = 2_000_000;

/// Shard counts the equivalence is quantified over.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// One run on the chosen transport: reshard, install the transport,
/// drive to completion round-robin, snapshot everything the claim
/// quantifies over (committed txns with their ops and stamps, the
/// rendered trace, the audit ledger).
fn golden<T, Sp>(
    label: &str,
    mut sys: T,
    shards: usize,
    channel: bool,
) -> (String, String, pushpull::core::audit::CriteriaAudit)
where
    T: TmSystem<Spec = Sp>,
    Sp: SeqSpec + Send + Sync + 'static,
    Sp::Method: std::fmt::Display + Send + Sync + 'static,
    Sp::Ret: Send + Sync + 'static,
    Sp::State: Send + Sync + 'static,
{
    sys.machine_mut().set_log_shards(shards);
    // Install after resharding: resharding rebuilds the shard layout and
    // detaches any installed transport.
    if channel {
        sys.machine()
            .set_channel_transport(TransportConfig::default());
    } else {
        sys.machine().set_local_transport();
    }
    let which = if channel { "channel" } else { "local" };
    let out = run(&mut sys, &mut RoundRobin, BUDGET)
        .unwrap_or_else(|e| panic!("{label}@{shards}/{which}: machine error: {e}"));
    assert!(out.completed, "{label}@{shards}/{which}: wedged");
    let m = sys.machine();
    let t = m.metrics();
    assert!(
        t[Metric::TransportRequests] > 0,
        "{label}@{shards}/{which}: no PUSH/UNPUSH ever crossed the transport"
    );
    assert_eq!(
        t[Metric::TransportDegradations],
        0,
        "{label}@{shards}/{which}: fault-free run must never degrade"
    );
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

/// Runs `make()`'s system on both transports at every shard count and
/// asserts the channel run is bit-identical to the local one.
fn assert_transport_equivalence<T, Sp>(label: &str, make: impl Fn() -> T)
where
    T: TmSystem<Spec = Sp>,
    Sp: SeqSpec + Send + Sync + 'static,
    Sp::Method: std::fmt::Display + Send + Sync + 'static,
    Sp::Ret: Send + Sync + 'static,
    Sp::State: Send + Sync + 'static,
{
    for shards in SHARD_COUNTS {
        let (local_commits, local_trace, local_audit) = golden(label, make(), shards, false);
        let (chan_commits, chan_trace, chan_audit) = golden(label, make(), shards, true);
        assert_eq!(
            chan_commits, local_commits,
            "{label}@{shards}: committed transactions diverge"
        );
        assert_eq!(
            chan_trace, local_trace,
            "{label}@{shards}: traces diverge — the transport changed a verdict"
        );
        assert_ledger_matches(&chan_audit, &local_audit);
    }
}

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

#[test]
fn boosting_transport_equivalent() {
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
    assert_transport_equivalence("boosting/kvmap", || {
        BoostingSystem::new(KvMap::new(), programs())
    });
}

#[test]
fn optimistic_transport_equivalent() {
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
    assert_transport_equivalence("optimistic/rwmem", || {
        OptimisticSystem::new(RwMem::new(), programs(), ReadPolicy::Snapshot)
    });
}

#[test]
fn pessimistic_transport_equivalent() {
    let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
    assert_transport_equivalence("pessimistic/rwmem", || {
        MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2), prog(3), prog(4)])
    });
}

#[test]
fn tl2_transport_equivalent() {
    assert_transport_equivalence("tl2/rwmem", || {
        Tl2System::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(1, 4)])
    });
}

#[test]
fn twophase_transport_equivalent() {
    let read0 = || vec![Code::method(MemMethod::Read(Loc(0)))];
    assert_transport_equivalence("2pl/rwmem", || {
        TwoPhaseLocking::new(vec![read0(), read0(), rmw(1, 7), rmw(1, 8)])
    });
}

#[test]
fn htm_transport_equivalent() {
    assert_transport_equivalence("htm/rwmem", || {
        HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3), rmw(2, 4)])
    });
}

#[test]
fn irrevocable_transport_equivalent() {
    assert_transport_equivalence("irrevocable/rwmem", || {
        IrrevocableSystem::new(
            RwMem::new(),
            vec![rmw(0, 10), rmw(0, 20), rmw(1, 30), rmw(0, 40)],
            ThreadId(0),
        )
    });
}

#[test]
fn checkpoint_transport_equivalent() {
    let prog = |l: u32, v: i64| {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Read(Loc(l + 1))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    };
    assert_transport_equivalence("checkpoint/rwmem", || {
        CheckpointOptimistic::new(
            RwMem::new(),
            vec![prog(0, 1), prog(0, 2), prog(1, 3), prog(1, 4)],
        )
    });
}

#[test]
fn dependent_transport_equivalent() {
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
    assert_transport_equivalence("dependent/counter", || {
        DependentSystem::new(Counter::new(), programs(), true)
    });
}

#[test]
fn mixed_transport_equivalent() {
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
    assert_transport_equivalence("mixed/product", || {
        MixedSystem::new(mixed_spec(), programs())
    });
}

/// The full degradation lifecycle on one machine, with *exact* counter
/// deltas (`max_retries = 2`, one thread, four pushes):
///
/// 1. push A under a persistent partition — 3 failed delivery attempts
///    (1 initial + 2 retries), then coarse degradation:
///    requests 1, retries 2, timeouts 3, degradations 1;
/// 2. push B while degraded — one failed probe, coarse path:
///    requests 2, timeouts 4;
/// 3. heal; push C — successful probe (recovery) then a clean delivery:
///    requests 4, recoveries 1;
/// 4. push D — fast path, single request: requests 5.
///
/// The backoff pacing the retries is a tm-layer contention policy
/// bridged through [`CmBackoff`], closing the "one tuned policy drives
/// both abort and transport waiting" loop.
#[test]
fn partition_degrade_heal_recover_lifecycle() {
    let mut m: Machine<KvMap> = Machine::new(KvMap::new());
    let t = m.add_thread(vec![Code::seq_all(vec![
        Code::method(MapMethod::Put(0, 10)),
        Code::method(MapMethod::Put(1, 20)),
        Code::method(MapMethod::Put(2, 30)),
        Code::method(MapMethod::Put(3, 40)),
    ])]);
    m.set_channel_transport(TransportConfig {
        max_retries: 2,
        deadline: Duration::from_secs(5),
        fallback: FallbackMode::Coarse,
        backoff: Arc::new(CmBackoff::new(Arc::new(ExponentialBackoff::new(7)))),
    });
    let plan = Arc::new(FaultPlan::new(1));
    m.set_fault_hook(Some(plan.clone() as Arc<dyn FaultHook>));

    // 1. Persistent partition: the envelope exhausts its budget and
    //    degrades to the coarse path (the op still lands in the log).
    plan.partition_shard(0);
    let a = m.app_auto(t).unwrap();
    m.push(t, a).unwrap();
    let s = m.metrics();
    assert_eq!(
        (
            s[Metric::TransportRequests],
            s[Metric::TransportRetries],
            s[Metric::TransportTimeouts],
            s[Metric::TransportDegradations],
            s[Metric::TransportRecoveries]
        ),
        (1, 2, 3, 1, 0),
        "push under partition: 1 call, 2 retries, 3 missed deadlines, 1 degradation"
    );
    assert_eq!(m.global().len(), 1, "the degraded push still appended");

    // 2. Still partitioned: a degraded shard is probed first; the probe
    //    fails and the coarse path carries the op.
    let b = m.app_auto(t).unwrap();
    m.push(t, b).unwrap();
    let s = m.metrics();
    assert_eq!(
        (
            s[Metric::TransportRequests],
            s[Metric::TransportRetries],
            s[Metric::TransportTimeouts],
            s[Metric::TransportDegradations],
            s[Metric::TransportRecoveries]
        ),
        (2, 2, 4, 1, 0),
        "degraded push: 1 failed probe, no new degradation transition"
    );

    // 3. Heal: the next operation's probe succeeds, the shard recovers,
    //    and the call itself is delivered first try.
    plan.heal_shard(0);
    let c = m.app_auto(t).unwrap();
    m.push(t, c).unwrap();
    let s = m.metrics();
    assert_eq!(
        (
            s[Metric::TransportRequests],
            s[Metric::TransportRetries],
            s[Metric::TransportTimeouts],
            s[Metric::TransportDegradations],
            s[Metric::TransportRecoveries]
        ),
        (4, 2, 4, 1, 1),
        "healed push: successful probe (recovery) + clean delivery"
    );

    // 4. Fully recovered: back to one request per push, nothing else.
    let d = m.app_auto(t).unwrap();
    m.push(t, d).unwrap();
    let s = m.metrics();
    assert_eq!(
        (
            s[Metric::TransportRequests],
            s[Metric::TransportRetries],
            s[Metric::TransportTimeouts],
            s[Metric::TransportDegradations],
            s[Metric::TransportRecoveries]
        ),
        (5, 2, 4, 1, 1),
        "recovered push: fast path again"
    );

    m.commit(t).unwrap();
    assert_eq!(m.committed_txns().len(), 1);
    assert_eq!(m.global().len(), 4, "all four ops in the log exactly once");

    // Exact audit accounting: 3 call attempts + 1 probe consult fired
    // under the partition, every one recorded as injected.
    assert_eq!(plan.fired()[&FaultKind::PartitionShard], 4);
    assert_injection_accounted(&m.audit(), &plan.fired());
    assert!(check_machine(&m).is_serializable());
}

/// Under [`FallbackMode::Fail`] a persistent partition surfaces as a
/// clean per-thread [`MachineError::TransportExhausted`] — never a hang —
/// and the machine stays usable: after the partition heals the same
/// operation pushes and commits on the fast path.
#[test]
fn persistent_partition_fails_clean_without_coarse_fallback() {
    let mut m: Machine<KvMap> = Machine::new(KvMap::new());
    let t = m.add_thread(vec![Code::method(MapMethod::Put(0, 1))]);
    m.set_channel_transport(TransportConfig {
        max_retries: 1,
        deadline: Duration::from_secs(5),
        fallback: FallbackMode::Fail,
        backoff: Arc::new(SeededBackoff::new(3)),
    });
    let plan = Arc::new(FaultPlan::new(1).partition(0));
    m.set_fault_hook(Some(plan.clone() as Arc<dyn FaultHook>));

    let op = m.app_auto(t).unwrap();
    match m.push(t, op) {
        Err(MachineError::TransportExhausted { thread, shard }) => {
            assert_eq!(thread, t);
            assert_eq!(shard, 0);
        }
        other => panic!("expected TransportExhausted, got {other:?}"),
    }
    let s = m.metrics();
    assert_eq!(
        (
            s[Metric::TransportRequests],
            s[Metric::TransportRetries],
            s[Metric::TransportTimeouts],
            s[Metric::TransportDegradations]
        ),
        (1, 1, 2, 0),
        "fail mode: budget spent, no degradation"
    );
    assert_eq!(m.global().len(), 0, "the failed push appended nothing");

    // Healing makes the same operation succeed — the error was transient
    // and the machine state is intact.
    plan.heal_shard(0);
    m.push(t, op).unwrap();
    m.commit(t).unwrap();
    assert_eq!(m.committed_txns().len(), 1);
    assert_injection_accounted(&m.audit(), &plan.fired());
}
