//! The benchmark's own arithmetic: nearest-rank percentiles, the tail
//! rule, medians, latency reconstruction from tick tables, and VmHWM
//! parsing. Everything here is pure so the self-tests can pin it.

use pushpull_tm::driver::Tick;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`:
/// the value at rank ⌈p·n/100⌉. `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The tail percentile to report for `n` samples: the highest of p99,
/// p90 and p75 that leaves at least ten samples above its rank (p99
/// therefore needs n ≥ 1000), falling back to p50.
pub fn tail_percentile(n: usize) -> u32 {
    [99, 90, 75]
        .into_iter()
        .find(|&p| n - rank(n, p).min(n) >= 10)
        .unwrap_or(50)
}

/// `(median, tail percentile, tail value)` of `samples` under the tail
/// rule, or `None` on an empty sample.
pub fn median_and_tail(samples: &[f64]) -> Option<(f64, u32, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len());
    Some((nearest_rank(&sorted, 50)?, p, nearest_rank(&sorted, p)?))
}

/// The nearest-rank percentile `p` of unsorted `values`, or 0 on an
/// empty sample.
pub fn quantile(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p).unwrap_or(0.0)
}

/// The median (nearest-rank p50) of `values`, or 0 on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 50)
}

/// `num ÷ den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One timed server `tick` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTick {
    /// The worker ticked.
    pub worker: usize,
    /// Call start, ns since the run's epoch.
    pub start: u64,
    /// Call end, ns since the run's epoch.
    pub end: u64,
    /// Commits this tick made (the `stats().commits` delta).
    pub commits: u64,
}

/// Wall latency in ns of every committed server transaction, in commit
/// order.
///
/// `ticks` is the drive's tick table in call order; `committed` lists
/// each committed transaction's `(worker, latency in worker ticks)` in
/// commit order. The k-th commit belongs to the tick where the running
/// commit count passes k; its latency `L` (admission tick to commit
/// tick, inclusive, on the worker's own clock) names the admission tick.
/// The wall latency runs from that tick's start to the commit tick's end.
pub fn server_latencies(
    ticks: &[ServerTick],
    committed: &[(usize, u64)],
) -> Result<Vec<u64>, String> {
    let workers = ticks.iter().map(|t| t.worker + 1).max().unwrap_or(0);
    let mut by_worker: Vec<Vec<&ServerTick>> = vec![Vec::new(); workers];
    let mut out = Vec::with_capacity(committed.len());
    let mut next = committed.iter();
    for t in ticks {
        by_worker[t.worker].push(t);
        let clock = by_worker[t.worker].len();
        for _ in 0..t.commits {
            let &(worker, latency) = next
                .next()
                .ok_or("more commits counted than committed transactions")?;
            if worker != t.worker {
                return Err(format!(
                    "commit attributed to worker {worker} during a tick of worker {}",
                    t.worker
                ));
            }
            let admitted = (clock + 1)
                .checked_sub(latency as usize)
                .filter(|&c| c >= 1)
                .ok_or_else(|| {
                    format!("latency {latency} exceeds worker {worker}'s clock {clock}")
                })?;
            out.push(t.end - by_worker[worker][admitted - 1].start);
        }
    }
    if next.next().is_some() {
        return Err("committed transactions left over after the last tick".into());
    }
    Ok(out)
}

/// Wall latency in ns of every committed transaction of one raw-driver
/// thread, from `(start, end, outcome)` of each tick in call order: a
/// transaction spans from the first tick after the previous commit
/// (aborted attempts included) to the end of its `Committed` tick.
pub fn raw_latencies(ticks: &[(u64, u64, Tick)]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut begun: Option<u64> = None;
    for &(start, end, tick) in ticks {
        let first = *begun.get_or_insert(start);
        if tick == Tick::Committed {
            out.push(end - first);
            begun = None;
        }
    }
    out
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vmhwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = seq(10);
        assert_eq!(nearest_rank(&xs, 50), Some(5.0));
        assert_eq!(nearest_rank(&xs, 90), Some(9.0));
        assert_eq!(nearest_rank(&xs, 91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 1), Some(7.0));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&seq(1000), 99), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 25), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 75), 3.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5000), 99);
        // 999 samples: p99 sits at rank 990, only 9 beyond.
        assert_eq!(tail_percentile(999), 90);
        assert_eq!(tail_percentile(100), 90);
        // 99 samples: p90 at rank 90 leaves 9; p75 at rank 75 leaves 24.
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(0), 50);
        let (p50, p, tail) = median_and_tail(&seq(200)).unwrap();
        assert_eq!((p50, p, tail), (100.0, 90, 180.0));
        assert_eq!(median_and_tail(&[]), None);
    }

    fn tick(worker: usize, start: u64, end: u64, commits: u64) -> ServerTick {
        ServerTick {
            worker,
            start,
            end,
            commits,
        }
    }

    #[test]
    fn server_latency_reconstruction_with_a_retry() {
        // Two workers ticked round-robin. Worker 0 admits sessions A and B
        // on its tick 1; A commits there (latency 1), B is denied, retries
        // and commits on worker 0's tick 3 (latency 3). Worker 1 admits C
        // on its tick 1 and commits it on its tick 2 (latency 2).
        let ticks = [
            tick(0, 0, 10, 1),  // w0 clock 1: A commits
            tick(1, 10, 15, 0), // w1 clock 1: C admitted
            tick(0, 15, 30, 0), // w0 clock 2: B retries
            tick(1, 30, 40, 1), // w1 clock 2: C commits
            tick(0, 40, 55, 1), // w0 clock 3: B commits
        ];
        let committed = [(0, 1), (1, 2), (0, 3)];
        assert_eq!(server_latencies(&ticks, &committed), Ok(vec![10, 30, 55]));
        // A commit on the wrong worker, a latency past the clock, and a
        // count mismatch in either direction are all refused.
        assert!(server_latencies(&ticks, &[(1, 1), (1, 2), (0, 3)]).is_err());
        assert!(server_latencies(&ticks, &[(0, 2), (1, 2), (0, 3)]).is_err());
        assert!(server_latencies(&ticks, &committed[..2]).is_err());
        assert!(server_latencies(&ticks, &[(0, 1), (1, 2), (0, 3), (0, 1)]).is_err());
    }

    #[test]
    fn raw_latency_spans_aborted_attempts() {
        use Tick::*;
        let ticks = [
            (0, 5, Progress),
            (5, 9, Committed),
            (10, 12, Progress),
            (12, 14, Aborted),
            (14, 16, Blocked),
            (16, 20, Committed),
            (20, 21, Done),
        ];
        assert_eq!(raw_latencies(&ticks), vec![9, 10]);
    }

    #[test]
    fn vmhwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(2.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
