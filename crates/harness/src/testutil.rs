//! Shared audit-ledger assertions for the test suites and benchmarks.
//!
//! Three invariants recur across the static-analysis tests, the fault
//! suite, the sharding equivalence suite and the benchmark sanity
//! checks; they live here so every caller asserts the *same* property
//! with the same diagnostics:
//!
//! * **Ledger closure** under a static-discharge plan: every criterion
//!   reach is tallied exactly once, so the static column of an armed run
//!   absorbs exactly what a plan-free baseline discharged dynamically.
//! * **Injection accounting**: the audit's `injected` tallies equal the
//!   fault plan's own fired tallies — every fault recorded once, none
//!   leaked into `violated`.
//! * **Ledger equality**: two runs reached and resolved the same
//!   criteria the same number of times (the per-obligation columns),
//!   independent of how many raw oracle *queries* each evaluation cost —
//!   the invariant log sharding and the incremental cache must preserve.
//!
//! The chaos-matrix driver loop itself also lives here
//! ([`assert_chaos_cell`]): arm a plan, drive the system to completion
//! under a seeded random scheduler, then assert completion, exact
//! injection accounting, and the safety oracles. Every fault family —
//! rule denials, kills/stalls, HTM aborts, and the transport faults —
//! runs its matrix rows through this one loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use pushpull_core::audit::CriteriaAudit;
use pushpull_core::error::{Clause, Rule};
use pushpull_core::faults::{FaultHook, FaultKind};
use pushpull_core::opacity::check_trace;
use pushpull_core::serializability::check_machine;
use pushpull_tm::driver::TmSystem;

use crate::faults::FaultPlan;
use crate::scheduler::{run, RandomSched};

/// Asserts the static-discharge ledger closes: on an armed run of a
/// conflict-free workload, every obligation in `obligations` was (a)
/// never re-checked dynamically, (b) statically discharged exactly as
/// often as the plan-free `base` run discharged it dynamically, and (c)
/// cheaper — strictly fewer raw mover queries than the baseline. Also
/// requires the two runs to have reached criteria the same total number
/// of times (`total`), which is what "the ledger closes" means.
///
/// # Panics
///
/// Panics (via `assert!`) describing the first column that fails to
/// close.
pub fn assert_ledger_closes(
    audit: &CriteriaAudit,
    base: &CriteriaAudit,
    obligations: &[(Rule, Clause)],
) {
    assert!(
        audit.statically_discharged_total() > 0,
        "armed run recorded no static discharges at all\n{}",
        audit.render()
    );
    for &(rule, clause) in obligations {
        assert_eq!(
            audit.discharged_count(rule, clause),
            0,
            "{rule} {clause}: armed runs must never re-check a proven clause"
        );
        assert_eq!(
            audit.violated_count(rule, clause),
            0,
            "{rule} {clause}: proven clause recorded a violation"
        );
        assert_eq!(
            audit.statically_discharged_count(rule, clause),
            base.discharged_count(rule, clause),
            "{rule} {clause}: static column must absorb the baseline's dynamic discharges"
        );
    }
    assert_eq!(
        audit.total(),
        base.total(),
        "ledger must close: armed and baseline runs reached different criterion counts"
    );
    assert!(
        audit.mover_queries < base.mover_queries,
        "elision must cut mover queries ({} vs {})",
        audit.mover_queries,
        base.mover_queries
    );
}

/// Asserts the audit's `injected` tallies equal a fault plan's fired
/// tallies: every injected fault was recorded exactly once, by kind.
///
/// # Panics
///
/// Panics with both tally maps rendered when they diverge.
pub fn assert_injection_accounted(audit: &CriteriaAudit, fired: &BTreeMap<FaultKind, u64>) {
    assert_eq!(
        &audit.injected,
        fired,
        "audit injected tallies diverge from the plan's fired tallies\n{}",
        audit.render()
    );
}

/// Asserts two audits agree on every *ledger* column — `discharged`,
/// `violated`, `statically_discharged` and `injected`, per obligation —
/// while deliberately ignoring the raw `mover_queries`/`allowed_queries`
/// counters. Criteria *verdict* equality is exactly what log sharding
/// and the incremental prefix cache promise; what each verdict *cost* in
/// oracle queries is allowed to differ.
///
/// # Panics
///
/// Panics naming the first diverging column, with both audits rendered.
pub fn assert_ledger_matches(a: &CriteriaAudit, b: &CriteriaAudit) {
    let columns: [(&str, &BTreeMap<_, u64>, &BTreeMap<_, u64>); 3] = [
        ("discharged", &a.discharged, &b.discharged),
        ("violated", &a.violated, &b.violated),
        (
            "statically_discharged",
            &a.statically_discharged,
            &b.statically_discharged,
        ),
    ];
    for (name, left, right) in columns {
        assert_eq!(
            left,
            right,
            "audit ledgers diverge in `{name}`\n--- left:\n{}\n--- right:\n{}",
            a.render(),
            b.render()
        );
    }
    assert_eq!(
        a.injected,
        b.injected,
        "audit ledgers diverge in `injected`\n--- left:\n{}\n--- right:\n{}",
        a.render(),
        b.render()
    );
}

/// Runs one chaos-matrix cell: arms `plan` on the machine, drives `sys`
/// to completion under `RandomSched::new(seed ^ 0xC0FF_EE00)` within
/// `budget` ticks, then asserts the three-part robustness contract —
/// **completion** (a faulted run still finishes), **accounting** (the
/// audit's `injected` tallies equal the plan's fired tallies exactly),
/// and **safety** (the serializability oracle, plus the opacity oracle
/// when `expect_opaque`). Returns the finished system so callers can
/// assert fault-family-specific extras (e.g. transport counters).
///
/// Install any transport or static-discharge configuration on the
/// machine *before* calling; this helper only arms the fault hook.
///
/// # Panics
///
/// Panics, prefixed with `label`, on any machine error, wedge, tally
/// divergence, or oracle violation.
pub fn assert_chaos_cell<T>(
    label: &str,
    mut sys: T,
    plan: &Arc<FaultPlan>,
    seed: u64,
    budget: usize,
    expect_opaque: bool,
) -> T
where
    T: TmSystem,
{
    sys.machine()
        .set_fault_hook(Some(Arc::clone(plan) as Arc<dyn FaultHook>));
    let out = run(&mut sys, &mut RandomSched::new(seed ^ 0xC0FF_EE00), budget)
        .unwrap_or_else(|e| panic!("{label}/seed {seed}: machine error: {e}"));
    assert!(
        out.completed,
        "{label}/seed {seed}: wedged after {} ticks",
        out.ticks
    );
    let m = sys.machine();
    assert_injection_accounted(&m.audit(), &plan.fired());
    let report = check_machine(m);
    assert!(report.is_serializable(), "{label}/seed {seed}: {report}");
    if expect_opaque {
        let verdict = check_trace(&m.trace());
        assert!(
            verdict.is_opaque(),
            "{label}/seed {seed}: faulted run lost opacity"
        );
    }
    sys
}
