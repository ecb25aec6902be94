//! B12: what does the service front-end deliver — and what does
//! per-shard group commit buy it?
//!
//! The system under test is [`TxnServer`]: logical sessions multiplexed
//! onto a bounded worker pool, commit-ready transactions batched per
//! destination shard (one shard-lock acquisition and one contiguous
//! stamp reservation per batch). Three questions:
//!
//! * **Saturation throughput (closed loop)** — 512 disjoint-key sessions
//!   over 4 workers × 16 slots, driven on OS threads, group commit on
//!   vs off. The gap is the amortized shard lock: with full slots a
//!   batch covers up to 16 commits per acquisition.
//! * **Arrival shape (open loop)** — sessions become eligible on the
//!   worker clock (one per tick) instead of all at once, so the
//!   commit-ready population per tick collapses to ~1 and group commit
//!   degenerates to per-transaction batches; the shape table prints the
//!   batch counts and nearest-rank p50/p90/p99 in-service latency
//!   (admission → commit, worker ticks) from the deterministic drive.
//! * **Contention** — every session read-modify-writes one hot key; the
//!   retry loop prices conflict resolution through the same front door.
//!
//! Before timing: the batched run must be bit-identical to the unbatched
//! one (committed transactions, trace, audit ledger), and the batched
//! disjoint run must average **below one lock acquisition per committed
//! transaction**. EXPERIMENTS.md §B12 keeps the numbers.

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{assert_serializable, criterion_group, criterion_main};

use pushpull_harness::testutil::assert_ledger_matches;
use pushpull_harness::{run, run_parallel, LatencyHistogram, RoundRobin};
use pushpull_server::{ServerConfig, SessionScript, TxnServer};
use pushpull_spec::kvmap::{KvMap, MapMethod};
use pushpull_tm::driver::TmSystem;

const WORKERS: usize = 4;
const SLOTS: usize = 16;
const SESSIONS: u64 = 512;
const BUDGET: usize = 5_000_000;

/// Disjoint keys: every session owns its own key, so batching is the
/// only variable — no conflict resolution in the measurement.
fn disjoint_scripts() -> Vec<SessionScript<MapMethod>> {
    (0..SESSIONS)
        .map(|s| {
            SessionScript::commit(vec![
                MapMethod::Put(s, s as i64),
                MapMethod::Get(s),
                MapMethod::Put(s, (s + 1) as i64),
            ])
        })
        .collect()
}

/// One hot key: every session read-modify-writes key 0.
fn contended_scripts(n: u64) -> Vec<SessionScript<MapMethod>> {
    (0..n)
        .map(|s| SessionScript::commit(vec![MapMethod::Get(0), MapMethod::Put(0, s as i64)]))
        .collect()
}

fn config(group: bool, arrival_period: u64) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        slots_per_worker: SLOTS,
        group_commit: group,
        arrival_period,
        ..ServerConfig::default()
    }
}

/// Deterministic sequential drive (round-robin workers), for the
/// equivalence checks and the latency shape table.
fn run_deterministic(
    scripts: Vec<SessionScript<MapMethod>>,
    group: bool,
    arrival_period: u64,
) -> TxnServer<KvMap> {
    let mut sys = TxnServer::new(KvMap::new(), scripts, config(group, arrival_period));
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("machine error");
    assert!(out.completed, "server wedged");
    sys
}

/// OS-thread drive (one thread per worker), for the timed saturation
/// runs.
fn run_os_threads(scripts: Vec<SessionScript<MapMethod>>, group: bool) -> TxnServer<KvMap> {
    let sys = TxnServer::new(KvMap::new(), scripts, config(group, 0));
    let (sys, outcome) = run_parallel(sys, BUDGET, None).expect("parallel run failed");
    assert!(outcome.completed, "server wedged on OS threads");
    sys
}

fn latencies(sys: &TxnServer<KvMap>) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for l in sys.commit_latencies() {
        h.record(l);
    }
    h
}

fn bench_server(c: &mut Criterion) {
    // Sanity before timing. Batching must be observationally invisible:
    // bit-identical committed transactions, trace and audit ledger.
    let on = run_deterministic(disjoint_scripts(), true, 0);
    let off = run_deterministic(disjoint_scripts(), false, 0);
    assert_serializable(on.machine());
    assert_serializable(off.machine());
    assert_eq!(
        format!("{:?}", on.machine().committed_txns()),
        format!("{:?}", off.machine().committed_txns()),
        "batched and unbatched committed transactions diverge"
    );
    assert_eq!(
        on.machine().trace().render(),
        off.machine().trace().render(),
        "batched and unbatched traces diverge"
    );
    assert_ledger_matches(&on.machine().audit(), &off.machine().audit());
    // And it must actually amortize: below one acquisition per commit.
    let stats = on.stats();
    assert_eq!(stats.commits, SESSIONS);
    assert!(
        stats.lock_acquires < stats.commits,
        "batched disjoint run must average below one lock per commit \
         ({} acquires / {} commits)",
        stats.lock_acquires,
        stats.commits
    );
    assert!(off.stats().lock_acquires > stats.lock_acquires);

    let mut group = c.benchmark_group("B12-server");
    group.sample_size(10);
    for batched in [true, false] {
        let label = if batched { "group" } else { "single" };
        group.bench_function(BenchmarkId::new("closed-disjoint-4Wx16S", label), |b| {
            b.iter(|| run_os_threads(disjoint_scripts(), batched))
        });
        group.bench_function(BenchmarkId::new("closed-hotkey-4Wx16S", label), |b| {
            b.iter(|| run_deterministic(contended_scripts(128), batched, 0))
        });
        group.bench_function(BenchmarkId::new("open-arrival-p1", label), |b| {
            b.iter(|| run_deterministic(disjoint_scripts(), batched, 1))
        });
    }
    group.finish();

    eprintln!("\n=== B12 shape table ({WORKERS} workers x {SLOTS} slots, {SESSIONS} sessions) ===");
    for (name, scripts, arrival) in [
        ("closed/disjoint", disjoint_scripts(), 0u64),
        ("open-p1/disjoint", disjoint_scripts(), 1),
        ("closed/hotkey-128", contended_scripts(128), 0),
    ] {
        for batched in [true, false] {
            let sys = run_deterministic(scripts.clone(), batched, arrival);
            let s = sys.stats();
            let g = sys.machine().group_stats();
            let lat = latencies(&sys);
            eprintln!(
                "{name:<18} {:<6} commits={:<4} aborts={:<5} locks={:<5} batches={:<4} \
                 locks-saved={:<5} locks/commit={:<5.3} lat[{lat}]",
                if batched { "group" } else { "single" },
                s.commits,
                s.aborts,
                s.lock_acquires,
                g.batches,
                g.locks_saved,
                s.lock_acquires as f64 / s.commits.max(1) as f64,
            );
        }
    }
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
