//! The `raw-snapshot` workload: `OptimisticSystem` with
//! `ReadPolicy::Snapshot` over `Counter`, `Add(1)` transactions split
//! over two model threads, ticked round-robin from one OS thread. The
//! drive is deterministic: on a 2-vCPU shared host, one OS thread per
//! model thread spread the run-to-run throughput by 0.22–0.29 of its
//! median, so shard-lock contention is left to a later workload.

use pushpull_core::lang::Code;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_spec::counter::{Counter, CtrMethod, CtrRet};
use pushpull_tm::driver::{Tick, TmSystem};
use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};

use crate::stats;
use crate::trace::{self, now_ns, TickSpan, TraceLog, Traced};
use crate::{timed_setup, Episode};

/// Model threads.
pub const THREADS: usize = 2;
/// Ticks before a drive counts as wedged.
const TICK_BUDGET: usize = 1 << 24;

/// The programs: `txns` transactions of `Add(1)`, dealt to the threads in
/// turn. Nothing here depends on the seed: the counter workload has no
/// keys to draw.
pub fn programs(txns: usize) -> Vec<Vec<Code<CtrMethod>>> {
    let mut out = vec![Vec::new(); THREADS];
    for i in 0..txns {
        out[i % THREADS].push(Code::method(CtrMethod::Add(1)));
    }
    out
}

/// One episode: set up, drive to completion, check, and count;
/// `oracle` adds the `check_machine` serializability check.
pub fn episode(txns: usize, traced: bool, oracle: bool) -> Result<Episode, String> {
    if traced {
        run(txns, Traced(Counter::new()), true, oracle)
    } else {
        run(txns, Counter::new(), false, oracle)
    }
}

fn run<S>(txns: usize, spec: S, traced: bool, oracle: bool) -> Result<Episode, String>
where
    S: SeqSpec<Method = CtrMethod, Ret = CtrRet, State = i64> + Clone,
{
    let (mut sys, setup_s) =
        timed_setup(|| OptimisticSystem::new(spec.clone(), programs(txns), ReadPolicy::Snapshot));

    trace::take_spec_spans();
    // `(thread, start, end, outcome)` of every tick, in call order.
    let mut ticks: Vec<(usize, u64, u64, Tick)> = Vec::with_capacity(txns * 4);
    let drive_start = now_ns();
    while !sys.is_done() {
        let thread = ticks.len() % THREADS;
        if ticks.len() >= TICK_BUDGET {
            return Err("raw drive exhausted its tick budget".into());
        }
        if traced {
            trace::set_parent(ticks.len() as u32);
        }
        let start = now_ns();
        let tick = sys
            .tick(ThreadId(thread))
            .map_err(|e| format!("thread {thread} tick failed: {e}"))?;
        ticks.push((thread, start, now_ns(), tick));
    }
    let drive_end = now_ns();
    let spec_spans = trace::take_spec_spans();

    let mut ep = Episode::new(setup_s, (drive_end - drive_start) as f64 * 1e-9);
    let m = sys.machine();
    let st = sys.stats();
    // Counters first: the oracle and the log snapshot below take locks.
    ep.machine_counts(m, &st);
    let committed = m.committed_txns();
    if st.commits != committed.len() as u64 || st.commits != txns as u64 {
        return Err(format!(
            "stats().commits = {}, committed_txns() has {}, {txns} transactions ran",
            st.commits,
            committed.len()
        ));
    }
    let finals = Counter::new().denote(&m.global().committed_ops());
    if finals.into_iter().collect::<Vec<_>>() != vec![st.commits as i64] {
        return Err("the counter does not equal the number of commits".into());
    }
    if oracle {
        ep.check_oracle(m)?;
    }

    ep.attempted = txns as u64;
    ep.committed = st.commits;
    ep.latencies_ns = (0..THREADS)
        .flat_map(|thread| {
            let own: Vec<_> = ticks
                .iter()
                .filter(|t| t.0 == thread)
                .map(|&(_, start, end, tick)| (start, end, tick))
                .collect();
            stats::raw_latencies(&own)
        })
        .collect();
    let attempts = st.commits + st.aborts;
    ep.count("tm.tick.count", ticks.len() as f64);
    ep.count("tm.commits", st.commits as f64);
    ep.count("tm.aborts", st.aborts as f64);
    ep.count(
        "tm.useful_ratio",
        stats::ratio(st.commits as f64, attempts as f64),
    );
    ep.count(
        "tm.ticks_per_txn",
        stats::ratio(ticks.len() as f64, st.commits as f64),
    );
    let tick_ns: Vec<f64> = ticks.iter().map(|&(_, s, e, _)| (e - s) as f64).collect();
    ep.layer_tick_durations("tm", &tick_ns);

    if traced {
        let mut ordinal = [0u64; THREADS];
        let log = TraceLog {
            ticks: ticks
                .iter()
                .map(|&(thread, start, end, tick)| {
                    let txn = (tick != Tick::Done).then_some(ordinal[thread]);
                    if tick == Tick::Committed {
                        ordinal[thread] += 1;
                    }
                    TickSpan {
                        thread,
                        start,
                        end,
                        txn,
                    }
                })
                .collect(),
            spec: spec_spans,
        };
        ep.attach_trace("tm", log);
    }
    Ok(ep)
}
