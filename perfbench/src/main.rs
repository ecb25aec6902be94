//! The repository benchmark: three seeded, closed-loop workloads driven
//! through the public APIs of `pushpull-server`, `pushpull-tm` and
//! `pushpull-core`, each run checked for correctness.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-disjoint|kv-hot|raw-snapshot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats fixed-size *episodes* (set up, drive to completion,
//! check) of one workload until `--seconds` have passed. `--trace 0`
//! prints the end-to-end metrics of those episodes; `--trace 1`
//! alternates untraced and traced episodes of the same seed, checks that
//! they all count the same work, and prints the per-layer metrics.
//! The last line of standard output is one JSON object; any failed check
//! exits non-zero without printing it. `METRICS.md` defines every metric.

mod raw;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use pushpull_core::machine::Machine;
use pushpull_core::spec::SeqSpec;
use pushpull_core::Rule;
use pushpull_tm::driver::SystemStats;

use server::ServerWorkload;
use trace::{SpecKind, TraceLog};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Episodes a run makes at the least, however long they take.
const MIN_EPISODES: usize = 3;
/// Set-ups timed per episode; the episode drives the last one.
const SETUPS_PER_EPISODE: usize = 5;

/// Builds an episode's system [`SETUPS_PER_EPISODE`] times, timing each
/// build, and returns the last with every build's seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUPS_PER_EPISODE);
    loop {
        let t0 = Instant::now();
        let built = build();
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() == SETUPS_PER_EPISODE {
            return (built, samples);
        }
        drop(std::hint::black_box(built));
    }
}

/// Runs of the reference computation before and after each episode.
const REFERENCE_RUNS: usize = 3;
/// The reference computation's time on the nominal host, in ns: the
/// end-to-end times are reported as they would read on a host where
/// [`reference_computation`] takes this long (about this host's speed
/// when it is not boosted).
const REFERENCE_NOMINAL_NS: f64 = 1.2e6;

/// A fixed computation that uses only the standard library: map
/// inserts, map clones and hash-set builds, the same kinds of work the
/// specs do. Its time tracks the host's current speed, which on a shared
/// host changes by up to 1.7× within seconds.
fn reference_computation() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..2000u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40, i);
    }
    let mut acc = 0u64;
    for _ in 0..8 {
        let copy = std::hint::black_box(map.clone());
        let keys: std::collections::HashSet<u64> = copy.keys().copied().collect();
        acc += copy.len() as u64 + keys.len() as u64;
    }
    std::hint::black_box(acc)
}

/// Appends [`REFERENCE_RUNS`] timings of the reference computation, in ns.
fn time_reference(samples: &mut Vec<f64>) {
    for _ in 0..REFERENCE_RUNS {
        let t0 = Instant::now();
        reference_computation();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
}

/// The workloads; sizes are part of each workload's identity.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// 512 sessions, one key each, 2 workers × 32 slots, group commit.
    KvDisjoint,
    /// 64 sessions over 4 hot keys, same server shape.
    KvHot,
    /// 240 `Add(1)` transactions over 2 model threads.
    RawSnapshot,
}

const KV_DISJOINT: ServerWorkload = ServerWorkload {
    sessions: 512,
    hot_keys: None,
};
const KV_HOT: ServerWorkload = ServerWorkload {
    sessions: 64,
    hot_keys: Some(4),
};
const RAW_TXNS: usize = 240;

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "kv-disjoint" => Some(Workload::KvDisjoint),
            "kv-hot" => Some(Workload::KvHot),
            "raw-snapshot" => Some(Workload::RawSnapshot),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::KvDisjoint => "kv-disjoint",
            Workload::KvHot => "kv-hot",
            Workload::RawSnapshot => "raw-snapshot",
        }
    }

    /// One episode, with the reference computation timed before and
    /// after it; `oracle` also runs `check_machine` on it.
    fn episode(self, seed: u64, traced: bool, oracle: bool) -> Result<Episode, String> {
        let mut reference = Vec::with_capacity(2 * REFERENCE_RUNS);
        time_reference(&mut reference);
        let mut ep = match self {
            Workload::KvDisjoint => server::episode(KV_DISJOINT, seed, traced, oracle),
            Workload::KvHot => server::episode(KV_HOT, seed, traced, oracle),
            Workload::RawSnapshot => raw::episode(RAW_TXNS, traced, oracle),
        }?;
        time_reference(&mut reference);
        ep.reference_ns = stats::median(&reference);
        Ok(ep)
    }
}

/// What one traced episode's spans add up to.
#[derive(Debug)]
pub struct TraceSummary {
    /// `server` or `tm`: the layer whose ticks the spans cover.
    layer: &'static str,
    /// Total tick span time.
    tick_ns: f64,
    /// Spec calls and busy time per [`SpecKind`] (all outermost calls
    /// during the drive).
    spec_calls: [f64; 6],
    spec_ns: [f64; 6],
    /// Spec time inside tick spans (subtracted for the tick self time).
    spec_in_tick_ns: f64,
    log: Option<TraceLog>,
}

/// One episode's measurements.
#[derive(Debug)]
pub struct Episode {
    setup_s: Vec<f64>,
    drive_s: f64,
    attempted: u64,
    committed: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    oracle_s: f64,
    /// Median time of the reference computation around the episode.
    reference_ns: f64,
    /// Per-layer counts read from public accessors.
    counts: BTreeMap<&'static str, f64>,
    /// Per-layer times measured around the benchmark's own calls.
    times: BTreeMap<String, f64>,
    trace: Option<TraceSummary>,
}

impl Episode {
    fn new(setup_s: Vec<f64>, drive_s: f64) -> Self {
        Self {
            setup_s,
            drive_s,
            attempted: 0,
            committed: 0,
            failed: 0,
            latencies_ns: Vec::new(),
            oracle_s: 0.0,
            reference_ns: REFERENCE_NOMINAL_NS,
            counts: BTreeMap::new(),
            times: BTreeMap::new(),
            trace: None,
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// `<layer>.tick.p50_us` and `<layer>.tick.p99_us` of the tick calls.
    fn layer_tick_durations(&mut self, layer: &str, ns: &[f64]) {
        let mut sorted = ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        for p in [50, 99] {
            let v = stats::nearest_rank(&sorted, p).unwrap_or(0.0) / 1e3;
            self.times.insert(format!("{layer}.tick.p{p}_us"), v);
        }
    }

    /// The counters every machine exposes: group commit, shared log and
    /// criteria audit.
    fn machine_counts<S: SeqSpec>(&mut self, m: &Machine<S>, st: &SystemStats) {
        let commits = st.commits as f64;
        let per_txn = |x: u64| stats::ratio(x as f64, commits);
        let g = m.group_stats();
        self.count("core.group.batches", g.batches as f64);
        self.count("core.group.batched_txns", g.batched_txns as f64);
        self.count(
            "core.group.mean_batch",
            stats::ratio(g.batched_txns as f64, g.batches as f64),
        );
        self.count("core.group.locks_saved", g.locks_saved as f64);
        self.count(
            "core.global.lock_acquires_per_txn",
            per_txn(st.lock_acquires),
        );
        self.count("core.global.lock_contended", st.lock_contended as f64);
        self.count("core.global.snap_reads", st.snap_reads as f64);
        self.count("core.global.snap_retries", st.snap_retries as f64);
        self.count("core.global.snap_fallbacks", st.snap_fallbacks as f64);
        self.count("core.global.arena_live", st.arena_live as f64);
        self.count("core.global.arena_capacity", st.arena_capacity as f64);
        self.count("core.global.arena_reused", st.arena_reused as f64);
        let a = m.audit();
        let violated: u64 = a.violated.values().sum();
        self.count("core.audit.checks_per_txn", per_txn(a.total()));
        self.count("core.audit.violated_per_txn", per_txn(violated));
        self.count("core.audit.mover_queries_per_txn", per_txn(a.mover_queries));
        self.count(
            "core.audit.allowed_queries_per_txn",
            per_txn(a.allowed_queries),
        );
        for (rule, name) in [
            (Rule::App, "core.audit.APP.checks"),
            (Rule::Push, "core.audit.PUSH.checks"),
            (Rule::Pull, "core.audit.PULL.checks"),
            (Rule::UnPush, "core.audit.UNPUSH.checks"),
            (Rule::Cmt, "core.audit.CMT.checks"),
        ] {
            let checks: u64 = [&a.discharged, &a.violated, &a.statically_discharged]
                .into_iter()
                .flat_map(|map| map.iter())
                .filter(|(o, _)| o.rule == rule)
                .map(|(_, n)| n)
                .sum();
            self.count(name, checks as f64);
        }
        self.count("core.global.history_len", m.global().len() as f64);
    }

    /// Runs the `check_machine` serializability oracle, timing it.
    fn check_oracle<S: SeqSpec>(&mut self, m: &Machine<S>) -> Result<(), String> {
        let start = Instant::now();
        let report = pushpull_core::serializability::check_machine(m);
        self.oracle_s = start.elapsed().as_secs_f64();
        if report.is_serializable() {
            Ok(())
        } else {
            Err(format!("check_machine: not serializable: {report:?}"))
        }
    }

    /// Summarises a traced episode's spans.
    fn attach_trace(&mut self, layer: &'static str, log: TraceLog) {
        let mut spec_calls = [0.0; 6];
        let mut spec_ns = [0.0; 6];
        let mut spec_in_tick_ns = 0.0;
        for s in &log.spec {
            let i = SpecKind::ALL
                .iter()
                .position(|k| *k == s.kind)
                .expect("listed kind");
            let ns = (s.end - s.start) as f64;
            spec_calls[i] += 1.0;
            spec_ns[i] += ns;
            if s.parent != u32::MAX {
                spec_in_tick_ns += ns;
            }
        }
        self.trace = Some(TraceSummary {
            layer,
            tick_ns: log.ticks.iter().map(|t| (t.end - t.start) as f64).sum(),
            spec_calls,
            spec_ns,
            spec_in_tick_ns,
            log: Some(log),
        });
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One JSON metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// The end-to-end metrics of the untraced episodes, each the median
/// over the episodes of a time scaled to the nominal host speed: the
/// episode's measured time × [`REFERENCE_NOMINAL_NS`] ÷ its reference
/// time. The measured medians go to standard error.
fn end_to_end(episodes: &[Episode]) -> Result<Vec<Metric>, String> {
    let mut setup = Vec::new();
    let (mut throughput, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    let (mut measured_throughput, mut measured_p50, mut measured_tail) =
        (Vec::new(), Vec::new(), Vec::new());
    for e in episodes {
        let ms: Vec<f64> = e.latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let (m, _, t) = stats::median_and_tail(&ms).ok_or("an episode committed nothing")?;
        let tps = stats::ratio(e.committed as f64, e.drive_s);
        let scale = REFERENCE_NOMINAL_NS / e.reference_ns;
        setup.extend(e.setup_s.iter().map(|s| s * scale));
        throughput.push(tps / scale);
        p50.push(m * scale);
        tail.push(t * scale);
        measured_throughput.push(tps);
        measured_p50.push(m);
        measured_tail.push(t);
    }
    let n = episodes[0].latencies_ns.len();
    eprintln!(
        "txn_tail_ms is p{} over the {n} committed transactions of an episode; \
         measured medians: {:.3} txn/s, p50 {:.4} ms, tail {:.4} ms; reference {:.0} us",
        stats::tail_percentile(n),
        stats::median(&measured_throughput),
        stats::median(&measured_p50),
        stats::median(&measured_tail),
        med(episodes, |e| e.reference_ns) / 1e3,
    );
    Ok(vec![
        ("setup_s".into(), stats::median(&setup), "s"),
        ("txn_per_s".into(), stats::median(&throughput), "1/s"),
        ("txn_p50_ms".into(), stats::median(&p50), "ms"),
        ("txn_tail_ms".into(), stats::median(&tail), "ms"),
        ("peak_rss_mb".into(), stats::peak_rss_mb()?, "MiB"),
    ])
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// Layers a workload does not drive read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.tick.count", "count"),
    ("server.tick.busy_ms", "ms"),
    ("server.tick.p50_us", "us"),
    ("server.tick.p99_us", "us"),
    ("server.commits", "count"),
    ("server.aborts", "count"),
    ("server.failed", "count"),
    ("server.useful_ratio", "ratio"),
    ("server.blocked_ticks", "count"),
    ("server.latency_ticks.p50", "ticks"),
    ("server.latency_ticks.tail", "ticks"),
    ("server.group_fallbacks", "count"),
    ("core.group.batches", "count"),
    ("core.group.batched_txns", "count"),
    ("core.group.mean_batch", "txns"),
    ("core.group.locks_saved", "count"),
    ("core.global.history_len", "entries"),
    ("core.global.lock_acquires_per_txn", "1/txn"),
    ("core.global.lock_contended", "count"),
    ("core.global.snap_reads", "count"),
    ("core.global.snap_retries", "count"),
    ("core.global.snap_fallbacks", "count"),
    ("core.global.arena_live", "count"),
    ("core.global.arena_capacity", "count"),
    ("core.global.arena_reused", "count"),
    ("core.audit.checks_per_txn", "1/txn"),
    ("core.audit.violated_per_txn", "1/txn"),
    ("core.audit.mover_queries_per_txn", "1/txn"),
    ("core.audit.allowed_queries_per_txn", "1/txn"),
    ("core.audit.APP.checks", "count"),
    ("core.audit.PUSH.checks", "count"),
    ("core.audit.PULL.checks", "count"),
    ("core.audit.UNPUSH.checks", "count"),
    ("core.audit.CMT.checks", "count"),
    ("spec.calls_per_txn", "1/txn"),
    ("spec.busy_ms", "ms"),
    ("spec.share", "ratio"),
    ("spec.denote.calls", "count"),
    ("spec.denote.busy_ms", "ms"),
    ("spec.allowed.calls", "count"),
    ("spec.allowed.busy_ms", "ms"),
    ("spec.post_states.calls", "count"),
    ("spec.post_states.busy_ms", "ms"),
    ("spec.results.calls", "count"),
    ("spec.results.busy_ms", "ms"),
    ("spec.mover.calls", "count"),
    ("spec.mover.busy_ms", "ms"),
    ("spec.other.calls", "count"),
    ("spec.other.busy_ms", "ms"),
    ("tm.tick.count", "count"),
    ("tm.tick.busy_ms", "ms"),
    ("tm.tick.p50_us", "us"),
    ("tm.tick.p99_us", "us"),
    ("tm.commits", "count"),
    ("tm.aborts", "count"),
    ("tm.useful_ratio", "ratio"),
    ("tm.ticks_per_txn", "ticks"),
    ("oracle.check_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unaccounted_share", "ratio"),
    ("e2e.tail_pct", "pct"),
    ("e2e.latency_samples", "count"),
    ("host.reference_us", "us"),
];

/// The per-layer metrics: counts and tick percentiles from the untraced
/// episodes, self times from the traced ones.
fn per_layer(untraced: &[Episode], traced: &[Episode]) -> Vec<Metric> {
    let sum = |t: &TraceSummary| t.spec_ns.iter().sum::<f64>();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for key in untraced[0].counts.keys() {
        values.insert(key.to_string(), med(untraced, |e| e.counts[key]));
    }
    for key in untraced[0].times.keys() {
        values.insert(key.clone(), med(untraced, |e| e.times[key]));
    }
    values.insert("oracle.check_ms".into(), untraced[0].oracle_s * 1e3);
    let layer = tr(&traced[0]).layer;
    values.insert(
        format!("{layer}.tick.busy_ms"),
        med(traced, |e| (tr(e).tick_ns - tr(e).spec_in_tick_ns) / 1e6),
    );
    values.insert("spec.busy_ms".into(), med(traced, |e| sum(tr(e)) / 1e6));
    values.insert(
        "spec.share".into(),
        med(traced, |e| stats::ratio(sum(tr(e)), e.drive_s * 1e9)),
    );
    values.insert(
        "spec.calls_per_txn".into(),
        med(traced, |e| {
            stats::ratio(tr(e).spec_calls.iter().sum(), e.committed as f64)
        }),
    );
    for (i, kind) in SpecKind::ALL.iter().enumerate() {
        values.insert(
            format!("{}.calls", kind.name()),
            med(traced, |e| tr(e).spec_calls[i]),
        );
        values.insert(
            format!("{}.busy_ms", kind.name()),
            med(traced, |e| tr(e).spec_ns[i] / 1e6),
        );
    }
    values.insert(
        "trace.overhead".into(),
        stats::ratio(med(traced, |e| e.drive_s), med(untraced, |e| e.drive_s)) - 1.0,
    );
    values.insert(
        "trace.unaccounted_share".into(),
        med(traced, |e| {
            1.0 - stats::ratio(tr(e).tick_ns, e.drive_s * 1e9)
        }),
    );
    let samples = untraced[0].latencies_ns.len();
    values.insert(
        "e2e.tail_pct".into(),
        stats::tail_percentile(samples) as f64,
    );
    values.insert("e2e.latency_samples".into(), samples as f64);
    values.insert(
        "host.reference_us".into(),
        med(untraced, |e| e.reference_ns) / 1e3,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect()
}

/// A traced episode's span summary.
fn tr(e: &Episode) -> &TraceSummary {
    e.trace.as_ref().expect("traced episode")
}

/// The median over `episodes` of `f`.
fn med(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    stats::median(&episodes.iter().map(f).collect::<Vec<_>>())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let wl = args.workload;
    // The first episode also runs the serializability oracle, whose cost
    // grows faster than the drive's; the measured window starts after it.
    let mut untraced: Vec<Episode> = vec![wl.episode(args.seed, false, true)?];
    let mut traced: Vec<Episode> = Vec::new();
    let started = Instant::now();
    while untraced.len() < MIN_EPISODES || started.elapsed().as_secs_f64() < args.seconds {
        if args.trace {
            if let Some(prev) = traced.last_mut() {
                prev.trace.as_mut().expect("traced episode").log = None;
            }
            traced.push(wl.episode(args.seed, true, false)?);
        }
        untraced.push(wl.episode(args.seed, false, false)?);
    }

    // Every drive is deterministic, so every episode, traced or not,
    // must count exactly the same work.
    let reference = &untraced[0].counts;
    for (i, e) in untraced.iter().chain(&traced).enumerate() {
        if e.counts != *reference {
            let diff: Vec<_> = e
                .counts
                .iter()
                .filter(|(k, v)| reference.get(*k) != Some(*v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", reference.get(k)))
                .collect();
            return Err(format!(
                "episode {i} counts differ from the first: {}",
                diff.join(", ")
            ));
        }
    }

    let first = &untraced[0];
    let (attempted, failed) = (first.attempted, first.failed);
    let metrics = if args.trace {
        if let Some(log) = traced
            .last()
            .and_then(|e| e.trace.as_ref())
            .and_then(|t| t.log.as_ref())
        {
            let path =
                std::path::PathBuf::from(".bench_out").join(format!("{}.trace.tsv", wl.name()));
            log.write(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans of the last traced episode: {}", path.display());
        }
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)?
    };
    eprintln!(
        "{} seed {}: {} untraced + {} traced episodes in {:.1} s; {} attempted, {} committed, {} failed per episode",
        wl.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        first.committed,
        failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("  {name:<36} {value:>14.6} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv-disjoint|kv-hot|raw-snapshot> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        let listed: Vec<(String, String)> = section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
