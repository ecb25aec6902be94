//! # pushpull-bench
//!
//! Shared helpers for the Criterion benchmark harness. Each bench target
//! regenerates one experiment of EXPERIMENTS.md:
//!
//! | target | experiment |
//! |---|---|
//! | `benches/algorithms.rs` | B1 — algorithm × workload throughput/abort table |
//! | `benches/crossover.rs` | B2 — abort-rate crossover as the read ratio sweeps |
//! | `benches/rule_overhead.rs` | B3 — cost of checking the rule criteria |
//! | `benches/movers.rs` | B4 — algebraic vs exhaustive mover oracles |
//! | `benches/mixed_htm.rs` | B5 — mixed boosting+HTM vs all-HTM on §7 workloads |
//! | `benches/scaling.rs` | B6 — thread scaling |
//! | `benches/contention.rs` | B7 — contention-management policy sweep |
//! | `benches/static_elision.rs` | B8 — runtime payoff of the static criteria prover |
//! | `benches/sharded.rs` | B9 — footprint-sharded vs single-lock shared log |
//! | `benches/single_op.rs` | B10 — lock-free hot-path microbenchmarks |
//! | `benches/transport.rs` | B11 — transport seam cost and faulted throughput |
//! | `benches/server.rs` | B12 — service front-end: group commit, open/closed-loop load |
//!
//! Besides wall-clock measurements, every target prints its shape table
//! (commits/aborts/ticks) to stderr, which EXPERIMENTS.md records.

pub mod timing;

use pushpull_core::machine::Machine;
use pushpull_core::spec::SeqSpec;
use pushpull_harness::scheduler::{run, RandomSched};
use pushpull_tm::driver::{SystemStats, TmSystem};

/// Drives a system to completion with a seeded random scheduler,
/// panicking on rule misuse or non-termination. Returns (stats, ticks).
pub fn drive<T: TmSystem>(sys: &mut T, seed: u64) -> (SystemStats, usize) {
    let out = run(sys, &mut RandomSched::new(seed), 50_000_000).expect("rule misuse");
    assert!(out.completed, "system did not terminate");
    (sys.stats(), out.ticks)
}

/// Asserts the serializability oracle on a finished system's machine —
/// every benchmark run is also a correctness run.
pub fn assert_serializable<S: SeqSpec>(m: &Machine<S>) {
    let report = pushpull_core::serializability::check_machine(m);
    assert!(report.is_serializable(), "{report}");
}

/// One row of a shape table printed to stderr.
pub fn print_row(label: &str, stats: SystemStats, ticks: usize) {
    eprintln!(
        "{label:<34} commits={:<6} aborts={:<6} blocked={:<6} ticks={:<8} abort-rate={:>5.1}%",
        stats.commits,
        stats.aborts,
        stats.blocked_ticks,
        ticks,
        stats.abort_rate() * 100.0
    );
}
