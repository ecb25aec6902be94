//! The two `TxnServer<KvMap>` workloads: `kv-disjoint` (one key per
//! session, no conflicts) and `kv-hot` (read-modify-writes on a few hot
//! keys). Both drive the server sequentially, round-robin over the
//! workers, so every count is a function of the seed alone.

use std::collections::BTreeMap;

use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_server::{ServerConfig, SessionOutcome, SessionScript, TxnServer};
use pushpull_spec::kvmap::{KvMap, MapMethod, MapRet, MapState};
use pushpull_tm::driver::TmSystem;

use crate::stats::{self, ServerTick};
use crate::trace::{self, now_ns, TickSpan, TraceLog, Traced};
use crate::{timed_setup, Episode};

/// Workers in the server pool.
pub const WORKERS: usize = 2;
/// Handle slots per worker: 64 sessions in flight.
pub const SLOTS: usize = 32;
/// Ticks before a drive counts as wedged.
const TICK_BUDGET: usize = 1 << 24;

/// A server workload's identity.
#[derive(Debug, Clone, Copy)]
pub struct ServerWorkload {
    /// Sessions per episode (fixes the committed history built up).
    pub sessions: usize,
    /// `None`: every session owns a key. `Some(h)`: sessions share `h`
    /// hot keys.
    pub hot_keys: Option<usize>,
}

/// The seeded scripts: disjoint sessions run `Put(k,v); Get(k); Put(k,v')`
/// on their own key (a seeded permutation); hot sessions run
/// `Get(k); Put(k,v)` with `k` dealt evenly from `h` seeded hot keys in a
/// seeded order. Values are distinct per session.
pub fn scripts(wl: ServerWorkload, seed: u64) -> Vec<SessionScript<MapMethod>> {
    let mut rng = Rng::new(seed);
    let n = wl.sessions;
    match wl.hot_keys {
        None => {
            let keys = rng.permutation(n);
            keys.into_iter()
                .enumerate()
                .map(|(s, k)| {
                    let k = k as u64;
                    SessionScript::commit(vec![
                        MapMethod::Put(k, first_value(s)),
                        MapMethod::Get(k),
                        MapMethod::Put(k, last_value(s)),
                    ])
                })
                .collect()
        }
        Some(h) => {
            let hot: Vec<u64> = (0..h).map(|_| rng.next_u64() >> 1).collect();
            let order = rng.permutation(n);
            order
                .into_iter()
                .enumerate()
                .map(|(s, slot)| {
                    let k = hot[slot % h];
                    SessionScript::commit(vec![MapMethod::Get(k), MapMethod::Put(k, last_value(s))])
                })
                .collect()
        }
    }
}

fn first_value(session: usize) -> i64 {
    -(session as i64) - 1
}

fn last_value(session: usize) -> i64 {
    session as i64 + 1
}

fn config(seed: u64) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        slots_per_worker: SLOTS,
        group_commit: true,
        seed,
        ..ServerConfig::default()
    }
}

/// One episode: set up, drive to completion, check, and count; `oracle`
/// adds the `check_machine` serializability check.
pub fn episode(
    wl: ServerWorkload,
    seed: u64,
    traced: bool,
    oracle: bool,
) -> Result<Episode, String> {
    if traced {
        run(wl, seed, Traced(KvMap::new()), true, oracle)
    } else {
        run(wl, seed, KvMap::new(), false, oracle)
    }
}

fn run<S>(
    wl: ServerWorkload,
    seed: u64,
    spec: S,
    traced: bool,
    oracle: bool,
) -> Result<Episode, String>
where
    S: SeqSpec<Method = MapMethod, Ret = MapRet, State = MapState> + Clone,
{
    let (mut sys, setup_s) =
        timed_setup(|| TxnServer::new(spec.clone(), scripts(wl, seed), config(seed)));

    trace::take_spec_spans();
    let n = sys.thread_count();
    let mut ticks: Vec<ServerTick> = Vec::with_capacity(wl.sessions * 8);
    let mut commits = 0u64;
    let drive_start = now_ns();
    while !sys.is_done() {
        let worker = ticks.len() % n;
        if ticks.len() >= TICK_BUDGET {
            return Err("server wedged: tick budget exhausted".into());
        }
        if traced {
            trace::set_parent(ticks.len() as u32);
        }
        let start = now_ns();
        sys.tick(ThreadId(worker))
            .map_err(|e| format!("server tick failed: {e}"))?;
        let end = now_ns();
        let total = sys.stats().commits;
        ticks.push(ServerTick {
            worker,
            start,
            end,
            commits: total - commits,
        });
        commits = total;
    }
    let drive_end = now_ns();
    let spec_spans = trace::take_spec_spans();

    let mut ep = Episode::new(setup_s, (drive_end - drive_start) as f64 * 1e-9);
    gate_and_count(&sys, wl, seed, &ticks, oracle, &mut ep)?;
    let tick_ns: Vec<f64> = ticks.iter().map(|t| (t.end - t.start) as f64).collect();
    ep.layer_tick_durations("server", &tick_ns);
    if traced {
        let log = TraceLog {
            ticks: ticks
                .iter()
                .map(|t| TickSpan {
                    thread: t.worker,
                    start: t.start,
                    end: t.end,
                    txn: None,
                })
                .collect(),
            spec: spec_spans,
        };
        ep.attach_trace("server", log);
    }
    Ok(ep)
}

/// The correctness gate and the counts read from public accessors.
fn gate_and_count<S>(
    sys: &TxnServer<S>,
    wl: ServerWorkload,
    seed: u64,
    ticks: &[ServerTick],
    oracle: bool,
    ep: &mut Episode,
) -> Result<(), String>
where
    S: SeqSpec<Method = MapMethod, Ret = MapRet, State = MapState>,
{
    let m = sys.machine();
    let st = sys.stats();
    // Counters first: the oracle and the log snapshot below take locks.
    ep.machine_counts(m, &st);
    let committed = m.committed_txns();
    if st.commits != committed.len() as u64 {
        return Err(format!(
            "stats().commits = {} but committed_txns() has {}",
            st.commits,
            committed.len()
        ));
    }
    let outcomes = sys.outcomes();
    let (mut ok, mut aborted, mut failed) = (0u64, 0u64, 0u64);
    let mut latency_of = BTreeMap::new();
    let mut latency_ticks = Vec::new();
    for (_, o) in &outcomes {
        match o {
            SessionOutcome::Committed { txn, latency, .. } => {
                ok += 1;
                latency_of.insert(*txn, *latency);
                latency_ticks.push(*latency as f64);
            }
            SessionOutcome::Aborted { .. } => aborted += 1,
            SessionOutcome::Failed { .. } => failed += 1,
        }
    }
    if ok + aborted + failed != wl.sessions as u64 || outcomes.len() != wl.sessions {
        return Err(format!(
            "{ok} committed + {aborted} aborted + {failed} failed != {} sessions",
            wl.sessions
        ));
    }
    if ok != st.commits {
        return Err(format!(
            "{ok} committed sessions but {} commits",
            st.commits
        ));
    }

    // The final map: the denotation of the committed log.
    let ops = m.global().committed_ops();
    let finals = KvMap::new().denote(&ops);
    let mut finals: Vec<MapState> = finals.into_iter().collect();
    let (Some(state), true) = (finals.pop(), finals.is_empty()) else {
        return Err("committed log does not denote exactly one map".into());
    };
    let mut expect: BTreeMap<u64, i64> = BTreeMap::new();
    match wl.hot_keys {
        None => {
            for (s, script) in scripts(wl, seed).iter().enumerate() {
                if let Some(MapMethod::Put(k, _)) = script.ops.first() {
                    expect.insert(*k, last_value(s));
                }
            }
        }
        Some(_) => {
            // Each hot key holds the value of its last committed writer.
            for txn in &committed {
                for op in &txn.ops {
                    if let MapMethod::Put(k, v) = op.method {
                        expect.insert(k, v);
                    }
                }
            }
        }
    }
    if state != expect {
        return Err(format!(
            "final map differs from the last committed Put per key ({} vs {} keys)",
            state.len(),
            expect.len()
        ));
    }

    if oracle {
        ep.check_oracle(m)?;
    }

    let with_worker: Vec<(usize, u64)> = committed
        .iter()
        .map(|t| {
            let latency = latency_of
                .get(&t.txn)
                .copied()
                .ok_or(format!("no outcome for {:?}", t.txn))?;
            Ok((t.thread.0 / SLOTS, latency))
        })
        .collect::<Result<_, String>>()?;
    ep.latencies_ns = stats::server_latencies(ticks, &with_worker)?;
    ep.attempted = wl.sessions as u64;
    ep.committed = ok;
    ep.failed = failed;

    let (lat_p50, _, lat_tail) = stats::median_and_tail(&latency_ticks).unwrap_or_default();
    let attempts = st.commits + st.aborts;
    ep.count("server.tick.count", ticks.len() as f64);
    ep.count("server.commits", st.commits as f64);
    ep.count("server.aborts", st.aborts as f64);
    ep.count(
        "server.useful_ratio",
        stats::ratio(st.commits as f64, attempts as f64),
    );
    ep.count("server.blocked_ticks", st.blocked_ticks as f64);
    ep.count("server.latency_ticks.p50", lat_p50);
    ep.count("server.latency_ticks.tail", lat_tail);
    ep.count("server.group_fallbacks", st.group_fallbacks as f64);
    ep.count("server.failed", failed as f64);
    Ok(())
}

/// A small seeded generator (SplitMix64) owned by the benchmark, so the
/// inputs do not change when the program's own generators do.
struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_repeat_and_differ_by_seed() {
        assert_eq!(Rng::new(5).permutation(50), Rng::new(5).permutation(50));
        assert_ne!(Rng::new(5).permutation(50), Rng::new(6).permutation(50));
        let mut p = Rng::new(9).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());

        let hot = ServerWorkload {
            sessions: 64,
            hot_keys: Some(4),
        };
        let debug = |wl, seed| format!("{:?}", scripts(wl, seed));
        assert_eq!(debug(hot, 3), debug(hot, 3));
        assert_ne!(debug(hot, 3), debug(hot, 4));
        // Hot keys are dealt evenly: 4 keys, 16 sessions each.
        let mut per_key = BTreeMap::new();
        for s in scripts(hot, 3) {
            *per_key.entry(s.ops[0].key()).or_insert(0) += 1;
        }
        assert_eq!(per_key.values().copied().collect::<Vec<_>>(), vec![16; 4]);
        // Disjoint sessions own distinct keys.
        let disjoint = ServerWorkload {
            sessions: 64,
            hot_keys: None,
        };
        let keys: std::collections::BTreeSet<_> = scripts(disjoint, 3)
            .iter()
            .map(|s| s.ops[0].key())
            .collect();
        assert_eq!(keys.len(), 64);
    }
}
