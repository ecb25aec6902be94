//! The metrics registry seen from every system: `stats()`' shared-log
//! fields are read from the same `Machine::metrics()` snapshot the
//! sweeps and the watchdog print, for all ten drivers and `TxnServer`,
//! and a driver that batches through its machine's `commit_group` shows
//! the batch in its sweep row.

use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::{Metric, MetricsSnapshot};
use pushpull::harness::{run, sweep, RoundRobin};
use pushpull::server::{ServerConfig, SessionScript, TxnServer};
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

const BUDGET: usize = 200_000;

/// Runs `sys` on a two-shard log and checks that `stats()` mirrors the
/// machine's metrics, and that the shards' shares add up to them.
fn assert_stats_mirror_metrics<T: TmSystem>(mut sys: T) {
    let name = sys.name();
    sys.machine_mut().set_log_shards(2);
    let out = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed, "{name}: wedged");
    let st = sys.stats();
    let m = sys.machine().metrics();
    assert!(st.commits > 0 && st.lock_acquires > 0, "{name}: idle run");
    assert_eq!(
        [
            st.lock_acquires,
            st.lock_contended,
            st.snap_reads,
            st.snap_retries,
            st.snap_fallbacks,
            st.arena_live,
            st.arena_capacity,
            st.arena_reused,
        ],
        [
            m[Metric::LockAcquires],
            m[Metric::LockContended],
            m[Metric::SnapReads],
            m[Metric::SnapRetries],
            m[Metric::SnapFallbacks],
            m[Metric::ArenaLive],
            m[Metric::ArenaCapacity],
            m[Metric::ArenaReused],
        ],
        "{name}: stats() and metrics() disagree"
    );
    let shards: MetricsSnapshot = (0..2).map(|i| sys.machine().shard_metrics(i)).sum();
    for metric in [Metric::LockAcquires, Metric::SnapReads, Metric::ArenaLive] {
        assert_eq!(shards[metric], m[metric], "{name}: {}", metric.name());
    }
}

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

fn puts(n: u64) -> Vec<Vec<Code<MapMethod>>> {
    (0..n)
        .map(|t| vec![Code::method(MapMethod::Put(t, t as i64))])
        .collect()
}

#[test]
fn every_system_reports_its_machines_shared_log_counters() {
    assert_stats_mirror_metrics(BoostingSystem::new(KvMap::new(), puts(4)));
    assert_stats_mirror_metrics(OptimisticSystem::new(
        KvMap::new(),
        puts(4),
        ReadPolicy::Snapshot,
    ));
    assert_stats_mirror_metrics(CheckpointOptimistic::new(
        RwMem::new(),
        vec![rmw(0, 1), rmw(1, 2)],
    ));
    assert_stats_mirror_metrics(MatveevShavitSystem::new(
        RwMem::new(),
        vec![rmw(0, 1), rmw(1, 2)],
    ));
    assert_stats_mirror_metrics(IrrevocableSystem::new(
        RwMem::new(),
        vec![rmw(0, 1), rmw(0, 2)],
        ThreadId(0),
    ));
    let adds = (1..=3i64)
        .map(|k| vec![Code::method(CtrMethod::Add(k))])
        .collect();
    assert_stats_mirror_metrics(DependentSystem::new(Counter::new(), adds, true));
    assert_stats_mirror_metrics(TwoPhaseLocking::new(vec![rmw(0, 1), rmw(1, 2)]));
    assert_stats_mirror_metrics(Tl2System::new(vec![rmw(0, 1), rmw(1, 2)]));
    assert_stats_mirror_metrics(HtmSystem::new(vec![rmw(0, 1), rmw(1, 2)]));
    let mixed = (0..2u64)
        .map(|t| {
            vec![Code::seq(
                Code::method(methods::skiplist(SetMethod::Add(t))),
                Code::method(methods::hash_table(MapMethod::Put(t, 1))),
            )]
        })
        .collect();
    assert_stats_mirror_metrics(MixedSystem::new(mixed_spec(), mixed));
    let scripts = (0..8u64)
        .map(|s| SessionScript::commit(vec![MapMethod::Put(s, 1)]))
        .collect();
    assert_stats_mirror_metrics(TxnServer::new(
        KvMap::new(),
        scripts,
        ServerConfig {
            workers: 2,
            slots_per_worker: 2,
            ..ServerConfig::default()
        },
    ));
}

#[test]
fn a_driver_batch_shows_in_its_sweep_row() {
    let result = sweep("optimistic/batched", 1..=2, |_| {
        let mut sys = OptimisticSystem::new(KvMap::new(), puts(2), ReadPolicy::Snapshot);
        let m = sys.machine_mut();
        m.app_auto(ThreadId(0)).unwrap();
        m.app_auto(ThreadId(1)).unwrap();
        let out = m.commit_group(&[ThreadId(0), ThreadId(1)]).unwrap();
        assert_eq!((out.batches, out.batched_txns), (1, 2));
        let ticks = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
        assert!(ticks.completed);
        (sys, ticks.ticks)
    });
    assert_eq!(result.metric(Metric::GroupBatches).mean, 1.0);
    assert_eq!(result.metric(Metric::GroupBatchedTxns).mean, 2.0);
    let row = result.to_string();
    assert!(row.contains("core.group.batches=1.0±0.0"), "{row}");
    assert!(row.contains("core.group.size_2=1.0±0.0"), "{row}");
}
