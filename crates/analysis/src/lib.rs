//! # pushpull-analysis
//!
//! Static analysis for the Push/Pull reproduction: a criteria prover
//! that discharges the machine's mover-loop proof obligations ahead of
//! time, and a linter for the §6 rule patterns and for transaction
//! programs themselves.
//!
//! The pipeline ([`analyze`]):
//!
//! 1. [`summary`] walks each `Code<M>` body with the paper's `step`/`fin`
//!    equations into conservative per-transaction *method footprints*;
//! 2. [`matrix`] resolves every ordered method pair of the union
//!    footprint through the spec's return-universal
//!    [`method_mover`](pushpull_core::spec::SeqSpec::method_mover)
//!    oracle, cached as a [`MoverMatrix`];
//! 3. [`discharge`] proves whichever of the four mover clauses
//!    (PUSH (i)/(ii), UNPUSH (i), PULL (iii)) the matrix supports,
//!    yielding a [`StaticDischarge`](pushpull_core::StaticDischarge)
//!    the runtime arms to skip those loops (tallying
//!    `statically_discharged` so the audit ledger still closes);
//! 4. [`lint`] runs bounded semantic exploration for never-commits and
//!    unreachable-method findings, a conflict-graph scan for potential
//!    PULL cycles, and checks driver-declared rule patterns;
//! 5. [`diagnostics`] renders it all rustc-style.
//!
//! Independently of the per-workload pipeline, [`certify()`] infers the
//! ground-truth mover matrix and minimal sound footprint cover for any
//! spec with finite universes ([`infer()`]), cross-checks every
//! hand-written `method_mover`/`method_keys` declaration and the two
//! footprint laws against it, and packages the result as a
//! [`SpecCertificate`](pushpull_core::SpecCertificate) — which
//! strict-mode runtimes demand before arming static discharge or
//! fine-grained shard routing ([`analyze_certified`] threads it through
//! the plan).
//!
//! The result is an [`AnalysisPlan`]; hand it to
//! `pushpull_harness::run_parallel` (or install its `discharge` on any
//! machine directly) to elide the proven checks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certify;
pub mod diagnostics;
pub mod discharge;
pub mod infer;
pub mod lint;
pub mod matrix;
pub mod plan;
pub mod summary;

pub use certify::{
    certify, certify_in, Certification, COARSE_FORCING, INCOMPLETE_MOVER, NEEDLESSLY_COARSE,
    UNCERTIFIABLE, UNSOUND_FACTORIZATION, UNSOUND_FOOTPRINT, UNSOUND_MOVER,
};
pub use diagnostics::{render_report, Diagnostic, PathStep, Severity, Span};
pub use discharge::{prove, DischargeOutcome};
pub use infer::{infer, InferredSpec};
pub use lint::{
    explore_txn, lint_declaration, lint_programs, Exploration, LintConfig, Tri, NEVER_COMMITS,
    PATTERN_DIVERGENCE, PULL_CYCLE, UNREACHABLE_METHOD,
};
pub use matrix::MoverMatrix;
pub use plan::{
    analyze, analyze_certified, analyze_with, check_declaration, AnalysisConfig, AnalysisPlan,
};
pub use summary::{max_occurrences, summarize, summarize_txn, ProgramSummary, TxnSummary};
