//! B11: what does the shard transport seam cost, and what does its
//! robustness envelope cost under injected delivery faults?
//!
//! Two questions, same workload as B9's disjoint case (8 OS threads each
//! driving a raw `TxnHandle` through write-only APP → PUSH → CMT cycles
//! over 4 footprint shards):
//!
//! * **Overhead** — the local transport (caller-thread critical
//!   sections, the bit-identical default) versus the channel transport
//!   (each shard owned by a dedicated server thread, requests serialized
//!   over in-process channels). The gap is the honest price of the
//!   message-passing seam: request construction, channel hops, and the
//!   reply wait.
//! * **Faulted throughput** — the channel transport with `DropRequest`
//!   injected at 1% and 5% of delivery attempts, across the four
//!   contention policies bridged into the retry envelope via
//!   [`CmBackoff`]. Every fired fault costs one missed deadline plus one
//!   policy-paced retry, so the fault rate prices the envelope and the
//!   policy prices the waiting.
//!
//! Before timing, fault-free channel runs are checked bit-identical to
//! the local baseline (same commits, same audit ledger), and faulted
//! runs still commit everything with a green serializability oracle —
//! the envelope must absorb faults without changing outcomes. The shape
//! table prints the transport counters; EXPERIMENTS.md §B11 keeps the
//! numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{assert_serializable, criterion_group, criterion_main};

use pushpull_core::faults::{FaultHook, TransportFault};
use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::Metric;
use pushpull_core::{FallbackMode, TransportConfig};
use pushpull_harness::testutil::assert_ledger_matches;
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull_tm::{
    CmBackoff, ContentionManager, ExponentialBackoff, GracefulDegradation, ImmediateRetry,
    KarmaAging,
};

const THREADS: u32 = 8;
const TXNS: u32 = 30;
const OPS: u32 = 8;
const SHARDS: usize = 4;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drops a seeded, rate-controlled fraction of delivery attempts.
/// Deterministic in the number of consults, not in wall-clock — the same
/// run length always fires the same number of faults.
#[derive(Debug)]
struct RateDrops {
    seed: u64,
    per_myriad: u64,
    consults: AtomicU64,
}

impl RateDrops {
    fn new(seed: u64, per_myriad: u64) -> Self {
        Self {
            seed,
            per_myriad,
            consults: AtomicU64::new(0),
        }
    }
}

impl FaultHook for RateDrops {
    fn transport_fault(&self, _tid: ThreadId, _shard: usize) -> Option<TransportFault> {
        let n = self.consults.fetch_add(1, Ordering::Relaxed);
        (splitmix64(self.seed ^ n) % 10_000 < self.per_myriad)
            .then_some(TransportFault::DropRequest)
    }
}

/// Disjoint write-only bodies: thread `t` owns locations `t` and `t+8`,
/// so no mover ever fails and every run commits everything — the timing
/// isolates the transport path, not conflict resolution.
fn bodies(t: u32) -> Vec<Vec<MemMethod>> {
    (0..TXNS)
        .map(|i| {
            (0..OPS)
                .map(|j| MemMethod::Write(Loc(t + THREADS * (j % 2)), (i * OPS + j) as i64))
                .collect()
        })
        .collect()
}

fn channel_config(policy: Arc<dyn ContentionManager>) -> TransportConfig {
    TransportConfig {
        max_retries: 3,
        deadline: Duration::from_secs(5),
        fallback: FallbackMode::Coarse,
        backoff: Arc::new(CmBackoff::new(policy)),
    }
}

/// One full run; `channel` picks the transport, `fault_per_myriad > 0`
/// arms the rate hook (channel only — the local path has no deliveries
/// to drop).
fn run_once(channel: Option<Arc<dyn ContentionManager>>, fault_per_myriad: u64) -> Machine<RwMem> {
    let mut m = Machine::new(RwMem::new());
    let all: Vec<Vec<Vec<MemMethod>>> = (0..THREADS).map(bodies).collect();
    for body in &all {
        m.add_thread(
            body.iter()
                .map(|txn| Code::seq_all(txn.iter().cloned().map(Code::method)))
                .collect(),
        );
    }
    m.set_log_shards(SHARDS);
    match channel {
        Some(policy) => m.set_channel_transport(channel_config(policy)),
        None => m.set_local_transport(),
    }
    if fault_per_myriad > 0 {
        m.set_fault_hook(Some(Arc::new(RateDrops::new(11, fault_per_myriad))));
    }
    std::thread::scope(|scope| {
        for (h, body) in m.handles_mut().iter_mut().zip(&all) {
            scope.spawn(move || {
                for txn in body {
                    for method in txn {
                        let op = h.app_method(method).expect("app");
                        h.push(op).expect("push");
                    }
                    h.commit().expect("commit");
                }
            });
        }
    });
    m
}

fn bench_transport(c: &mut Criterion) {
    // Sanity before timing: the fault-free channel run is bit-identical
    // to the local baseline, and faulted runs still commit everything.
    let base = run_once(None, 0);
    assert_serializable(&base);
    assert_eq!(base.committed_txns().len() as u32, THREADS * TXNS);
    let chan = run_once(Some(Arc::new(ImmediateRetry)), 0);
    assert_serializable(&chan);
    assert_eq!(chan.committed_txns().len() as u32, THREADS * TXNS);
    assert_ledger_matches(&chan.audit(), &base.audit());
    let faulted = run_once(Some(Arc::new(GracefulDegradation::new())), 500);
    assert_serializable(&faulted);
    assert_eq!(faulted.committed_txns().len() as u32, THREADS * TXNS);

    let mut group = c.benchmark_group("B11-transport");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("overhead-8T", "local"), |b| {
        b.iter(|| run_once(None, 0))
    });
    group.bench_function(BenchmarkId::new("overhead-8T", "channel"), |b| {
        b.iter(|| run_once(Some(Arc::new(ImmediateRetry)), 0))
    });
    type MakePolicy = (&'static str, fn() -> Arc<dyn ContentionManager>);
    let policies: [MakePolicy; 4] = [
        ("immediate", || Arc::new(ImmediateRetry)),
        ("expo-backoff", || Arc::new(ExponentialBackoff::new(7))),
        ("karma", || Arc::new(KarmaAging::new())),
        ("graceful", || Arc::new(GracefulDegradation::new())),
    ];
    for pct in [100u64, 500] {
        for (name, make) in policies {
            group.bench_function(
                BenchmarkId::new(format!("drops-{}pct-{name}", pct / 100), "channel-8T"),
                |b| b.iter(|| run_once(Some(make()), pct)),
            );
        }
    }
    group.finish();

    eprintln!("\n=== B11 shape table (8 OS threads, 30 txns x 8 writes, 4 shards) ===");
    let label_of = |channel: bool| if channel { "channel" } else { "local  " };
    for (channel, pct) in [(false, 0u64), (true, 0), (true, 100), (true, 500)] {
        let m = if channel {
            run_once(Some(Arc::new(ExponentialBackoff::new(7))), pct)
        } else {
            run_once(None, pct)
        };
        let t = m.metrics();
        eprintln!(
            "{} / drop {:>3}bp  commits={:<4} requests={:<7} retries={:<5} timeouts={:<5} degr={} rec={}",
            label_of(channel),
            pct,
            m.committed_txns().len(),
            t[Metric::TransportRequests],
            t[Metric::TransportRetries],
            t[Metric::TransportTimeouts],
            t[Metric::TransportDegradations],
            t[Metric::TransportRecoveries],
        );
    }
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
