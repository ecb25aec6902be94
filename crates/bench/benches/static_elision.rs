//! B8: what does the static criteria prover buy at runtime?
//!
//! The analyzer proves the machine's mover-loop clauses ahead of time on
//! workloads whose method footprints are all-movers; an installed
//! [`AnalysisPlan`] then makes the machine skip those loops (tallying
//! `statically_discharged` so the audit still closes). This target
//! measures the same workloads with and without the plan:
//!
//! * **mover-heavy** (disjoint-key puts): all four clauses proven, every
//!   mover loop elided — the delta is the prover's payoff;
//! * **conflict-heavy** (single hot key): nothing provable, the plan is
//!   empty and both columns must coincide — the prover's overhead at
//!   runtime is zero by construction (analysis runs once, up front).
//!
//! The shape table printed to stderr records commits, dynamic mover
//! queries and static elisions per cell; EXPERIMENTS.md §B8 keeps the
//! numbers.

use pushpull_analysis::{analyze, AnalysisPlan};
use pushpull_bench::timing::{BenchmarkId, Criterion};
use pushpull_bench::{assert_serializable, criterion_group, criterion_main, drive};

use pushpull_core::error::{Clause, Rule};
use pushpull_core::lang::Code;
use pushpull_harness::testutil::assert_ledger_closes;
use pushpull_spec::kvmap::{KvMap, MapMethod};
use pushpull_tm::boosting::BoostingSystem;
use pushpull_tm::driver::TmSystem;

/// `threads` threads × `txns` transactions, each putting a key owned by
/// its thread and reading a key nobody writes: every ordered pair in the
/// union footprint is a proven mover.
fn mover_heavy(threads: u64, txns: u64) -> Vec<Vec<Code<MapMethod>>> {
    (0..threads)
        .map(|t| {
            (0..txns)
                .map(|i| {
                    Code::seq_all(vec![
                        Code::method(MapMethod::Put(t * 1000 + i, i as i64)),
                        Code::method(MapMethod::Get(500_000 + t)),
                    ])
                })
                .collect()
        })
        .collect()
}

/// Everyone hammers key 0: nothing is provable.
fn conflict_heavy(threads: u64, txns: u64) -> Vec<Vec<Code<MapMethod>>> {
    (0..threads)
        .map(|t| {
            (0..txns)
                .map(|i| Code::method(MapMethod::Put(0, (t * 100 + i) as i64)))
                .collect()
        })
        .collect()
}

fn run_once(programs: &[Vec<Code<MapMethod>>], plan: Option<&AnalysisPlan>, seed: u64) -> u64 {
    let mut sys = BoostingSystem::new(KvMap::new(), programs.to_vec());
    if let Some(plan) = plan {
        sys.machine().set_static_discharge(plan.discharge.clone());
    }
    let (stats, _) = drive(&mut sys, seed);
    stats.commits
}

fn report(label: &str, programs: &[Vec<Code<MapMethod>>], plan: Option<&AnalysisPlan>) {
    let mut sys = BoostingSystem::new(KvMap::new(), programs.to_vec());
    if let Some(plan) = plan {
        sys.machine().set_static_discharge(plan.discharge.clone());
    }
    let (stats, ticks) = drive(&mut sys, 7);
    assert_serializable(sys.machine());
    let audit = sys.machine().audit();
    eprintln!(
        "{label:<38} commits={:<5} ticks={:<7} mover-queries={:<7} static-elisions={}",
        stats.commits,
        ticks,
        audit.mover_queries,
        audit.statically_discharged_total()
    );
}

fn bench_static_elision(c: &mut Criterion) {
    let mut group = c.benchmark_group("B8-static-elision");
    group.sample_size(15);
    for threads in [4u64, 8] {
        let txns = 16;
        let heavy = mover_heavy(threads, txns);
        let heavy_plan = analyze(&KvMap::new(), &heavy);
        assert!(
            heavy_plan.discharge.is_some(),
            "mover-heavy workload must prove its clauses"
        );
        let hot = conflict_heavy(threads, txns);
        let hot_plan = analyze(&KvMap::new(), &hot);
        // Single-op transactions prove PUSH (i) vacuously, but none of
        // the cross-transaction clauses: the contended loops stay hot.
        assert!(!hot_plan
            .discharge
            .as_ref()
            .is_some_and(|f| f.discharges(Rule::Push, Clause::Ii)));

        // Sanity before timing: under one deterministic seed, the armed
        // run's audit ledger must close exactly against the plan-free
        // baseline (same criterion totals, static column absorbing the
        // baseline's dynamic discharges, strictly fewer mover queries).
        {
            let mut base = BoostingSystem::new(KvMap::new(), heavy.to_vec());
            drive(&mut base, 7);
            let mut armed = BoostingSystem::new(KvMap::new(), heavy.to_vec());
            armed
                .machine()
                .set_static_discharge(heavy_plan.discharge.clone());
            drive(&mut armed, 7);
            assert_ledger_closes(
                &armed.machine().audit(),
                &base.machine().audit(),
                &[
                    (Rule::Push, Clause::I),
                    (Rule::Push, Clause::Ii),
                    (Rule::UnPush, Clause::I),
                    (Rule::Pull, Clause::Iii),
                ],
            );
        }

        report(&format!("mover-heavy/{threads}t dynamic"), &heavy, None);
        report(
            &format!("mover-heavy/{threads}t analyzed"),
            &heavy,
            Some(&heavy_plan),
        );
        report(&format!("conflict-heavy/{threads}t dynamic"), &hot, None);

        group.bench_function(BenchmarkId::new("mover-heavy-dynamic", threads), |b| {
            b.iter(|| run_once(&heavy, None, 11))
        });
        group.bench_function(BenchmarkId::new("mover-heavy-analyzed", threads), |b| {
            b.iter(|| run_once(&heavy, Some(&heavy_plan), 11))
        });
        group.bench_function(BenchmarkId::new("conflict-heavy-dynamic", threads), |b| {
            b.iter(|| run_once(&hot, None, 11))
        });
        group.bench_function(BenchmarkId::new("conflict-heavy-analyzed", threads), |b| {
            b.iter(|| run_once(&hot, Some(&hot_plan), 11))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_static_elision);
criterion_main!(benches);
