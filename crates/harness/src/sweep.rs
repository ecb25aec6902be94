//! Multi-seed sweeps with aggregate statistics — the machinery behind the
//! EXPERIMENTS.md tables. Each cell of a reported table is a mean ± σ
//! over independently seeded schedulers on identical workloads.

use pushpull_core::{Metric, MetricsSnapshot};
use pushpull_tm::driver::{SystemStats, TmSystem};

/// Aggregate of a statistic across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Aggregate {
    /// Aggregates a sample set. Empty input yields all-zero with `n = 0`.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            n,
        }
    }
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1}", self.mean, self.std_dev)
    }
}

/// Aggregated results of one algorithm/workload cell across seeds.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Label of the cell (algorithm/workload).
    pub label: String,
    /// Commits per run.
    pub commits: Aggregate,
    /// Aborts per run.
    pub aborts: Aggregate,
    /// Abort rate per run.
    pub abort_rate: Aggregate,
    /// Ticks to completion per run.
    pub ticks: Aggregate,
    /// Contention-manager degradations (solo-mode escalations) per run.
    pub degradations: Aggregate,
    /// Longest single-thread consecutive-abort streak per run.
    pub max_abort_streak: Aggregate,
    /// Logical sessions multiplexed by the service front-end per run.
    pub sessions: Aggregate,
    /// Commit-ready transactions that fell back to the per-transaction
    /// path per run.
    pub group_fallbacks: Aggregate,
    /// One aggregate per machine [`Metric`], indexed by `metric as
    /// usize`; read it with [`SweepResult::metric`].
    pub metrics: Vec<Aggregate>,
}

impl SweepResult {
    /// The aggregate of `metric` across seeds.
    pub fn metric(&self, metric: Metric) -> Aggregate {
        self.metrics[metric as usize]
    }
}

impl std::fmt::Display for SweepResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<34} commits={:<12} aborts={:<12} abort-rate={:>6.1}%  ticks={:<14} streak={:<9} degr={}",
            self.label,
            self.commits.to_string(),
            self.aborts.to_string(),
            self.abort_rate.mean * 100.0,
            self.ticks.to_string(),
            self.max_abort_streak.to_string(),
            self.degradations,
        )?;
        // Only service-front-end runs print the session tail.
        if self.sessions.max > 0.0 {
            write!(
                f,
                " sessions={} (fb={})",
                self.sessions, self.group_fallbacks
            )?;
        }
        // Every machine metric that moved in some run, in declaration
        // order.
        for &m in Metric::ALL {
            let agg = self.metric(m);
            if agg.max > 0.0 {
                write!(f, " {}={agg}", m.name())?;
            }
        }
        Ok(())
    }
}

/// Runs `make_and_run` once per seed — it builds a system, drives it to
/// completion and returns it with its tick count — and aggregates the
/// system's [`TmSystem::stats`] and machine metrics.
pub fn sweep<T: TmSystem>(
    label: impl Into<String>,
    seeds: impl IntoIterator<Item = u64>,
    mut make_and_run: impl FnMut(u64) -> (T, usize),
) -> SweepResult {
    let mut runs = Vec::new();
    for seed in seeds {
        let (sys, ticks) = make_and_run(seed);
        runs.push((sys.stats(), sys.machine().metrics(), ticks as f64));
    }
    let of = |f: &dyn Fn(&(SystemStats, MetricsSnapshot, f64)) -> f64| {
        Aggregate::of(&runs.iter().map(f).collect::<Vec<_>>())
    };
    SweepResult {
        label: label.into(),
        commits: of(&|r| r.0.commits as f64),
        aborts: of(&|r| r.0.aborts as f64),
        abort_rate: of(&|r| r.0.abort_rate()),
        ticks: of(&|r| r.2),
        degradations: of(&|r| r.0.degradations as f64),
        max_abort_streak: of(&|r| r.0.max_abort_streak as f64),
        sessions: of(&|r| r.0.sessions as f64),
        group_fallbacks: of(&|r| r.0.group_fallbacks as f64),
        metrics: Metric::ALL
            .iter()
            .map(|&m| of(&|r| r.1[m] as f64))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run, RandomSched};
    use crate::workload::WorkloadSpec;
    use pushpull_core::lang::Code;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};

    #[test]
    fn aggregate_math() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0]);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((a.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.n, 3);
        let empty = Aggregate::of(&[]);
        assert_eq!(empty.n, 0);
        let single = Aggregate::of(&[5.0]);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn sweep_runs_per_seed() {
        let spec = WorkloadSpec {
            threads: 2,
            txns_per_thread: 2,
            ops_per_txn: 2,
            ..Default::default()
        };
        let result = sweep("counter/optimistic", 1..=5, |seed| {
            let mut sys = OptimisticSystem::new(
                Counter::new(),
                spec.counter_programs(),
                ReadPolicy::Snapshot,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), 1_000_000).unwrap();
            assert!(out.completed);
            (sys, out.ticks)
        });
        assert_eq!(result.commits.n, 5);
        assert!(
            (result.commits.mean - 4.0).abs() < 1e-9,
            "4 txns always commit"
        );
        let line = result.to_string();
        assert!(line.contains("counter/optimistic"));
        // Flat workloads never nest, and idle metrics are not printed.
        assert_eq!(result.metric(Metric::ScopesOpened).max, 0.0);
        assert!(!line.contains("core.nesting"));
        assert!(line.contains("core.global.lock_acquires="), "{line}");
        let _ = Code::method(CtrMethod::Get); // silence unused import pathologies
    }

    #[test]
    fn sweep_carries_nesting_counters() {
        let result = sweep("counter/nested", 1..=3, |seed| {
            let programs = (0..2i64)
                .map(|t| {
                    vec![Code::seq(
                        Code::method(CtrMethod::Add(t + 1)),
                        Code::tx(Code::method(CtrMethod::Get)),
                    )]
                })
                .collect();
            let mut sys = OptimisticSystem::new(Counter::new(), programs, ReadPolicy::Snapshot);
            let out = run(&mut sys, &mut RandomSched::new(seed), 1_000_000).unwrap();
            assert!(out.completed);
            (sys, out.ticks)
        });
        assert!(
            result.metric(Metric::ScopesOpened).mean > 0.0,
            "tx markers must open scopes: {result}"
        );
        assert!(result.metric(Metric::ScopesMerged).mean > 0.0);
        assert!(
            result.to_string().contains("core.nesting.scopes_opened="),
            "{result}"
        );
    }
}
