//! The certificate gate end to end: strict mode
//! (`set_require_certificate(true)`) must never trust uncertified
//! declarations —
//!
//! 1. sharding an uncertified log demotes to the sticky coarse path
//!    (sound: identical verdicts, every critical section takes all
//!    shard locks) with a recorded diagnostic, never a panic or a
//!    mis-route;
//! 2. arming static discharge without a valid certificate is refused
//!    (the audit's `statically_discharged` column stays empty);
//! 3. a certified plan (from `analyze_certified`) arms and routes
//!    fine-grained exactly as the historical trust-the-declarations
//!    path — bit-identical traces under the deterministic scheduler.

use pushpull::analysis::{analyze, analyze_certified};
use pushpull::core::lang::Code;
use pushpull::core::serializability::check_machine;
use pushpull::harness::{run, run_parallel_sharded, RoundRobin};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::{BoostingSystem, TmSystem};

const BUDGET: usize = 2_000_000;
const THREADS: u64 = 4;

/// Each thread puts its own key and reads its neighbour's: the
/// footprint is fully declared (no `Size`), keys 0..THREADS.
fn programs() -> Vec<Vec<Code<MapMethod>>> {
    (0..THREADS)
        .map(|t| {
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(t, 1)),
                Code::method(MapMethod::Get((t + 1) % THREADS)),
            ])]
        })
        .collect()
}

/// The bounded spec variant the certifier can exhaustively check.
fn bounded_spec() -> KvMap {
    KvMap::bounded((0..THREADS).collect(), vec![1])
}

#[test]
fn strict_uncertified_sharding_demotes_to_coarse_with_same_verdicts() {
    // Baseline: single-lock log, strict mode off.
    let mut base = BoostingSystem::new(KvMap::new(), programs());
    let out = run(&mut base, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed);
    let base_commits = base.machine().committed_txns().len();
    let base_trace = base.machine().trace().render();

    // Strict mode + shards, no certificate: reshards, but demoted.
    let mut sys = BoostingSystem::new(KvMap::new(), programs());
    sys.machine().set_require_certificate(true);
    sys.machine_mut().set_log_shards(4);
    assert_eq!(
        sys.machine().log_shards(),
        4,
        "resharding itself still happens"
    );
    assert!(
        sys.machine().global_state().coarse_mode(),
        "uncertified fine-grained routing must demote to coarse"
    );
    let diags = sys.machine().arming_diagnostics();
    assert!(
        diags.iter().any(|d| d.contains("coarse")),
        "demotion must be recorded: {diags:?}"
    );

    // The demoted run completes with identical verdicts — coarse mode
    // changes the cost of the criteria, never their outcome.
    let out = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed, "demoted run must not wedge");
    assert_eq!(sys.machine().committed_txns().len(), base_commits);
    assert_eq!(sys.machine().trace().render(), base_trace);
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}

#[test]
fn strict_mode_on_an_already_sharded_uncertified_log_demotes_immediately() {
    let mut sys = BoostingSystem::new(KvMap::new(), programs());
    sys.machine_mut().set_log_shards(4);
    assert!(!sys.machine().global_state().coarse_mode());
    sys.machine().set_require_certificate(true);
    assert!(
        sys.machine().global_state().coarse_mode(),
        "enabling strict mode on a sharded uncertified log demotes on the spot"
    );
    let out = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed);
    assert!(check_machine(sys.machine()).is_serializable());
}

#[test]
fn strict_uncertified_arming_is_refused() {
    let programs = programs();
    let plan = analyze(&KvMap::new(), &programs);
    assert!(
        plan.discharge.is_some(),
        "PUSH (i) at least must be provable"
    );

    let mut sys = BoostingSystem::new(KvMap::new(), programs);
    sys.machine().set_require_certificate(true);
    sys.machine().set_static_discharge(plan.discharge.clone());
    let out = run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed);
    // Nothing was elided: the refusal kept the exact dynamic checks.
    assert_eq!(sys.machine().audit().statically_discharged_total(), 0);
    let diags = sys.machine().arming_diagnostics();
    assert!(
        diags.iter().any(|d| d.contains("refused")),
        "refusal must be recorded: {diags:?}"
    );
    assert!(check_machine(sys.machine()).is_serializable());
}

#[test]
fn certified_plan_arms_and_routes_fine_under_strict_mode() {
    let programs = programs();
    let spec = bounded_spec();
    let plan = analyze_certified(&spec, &programs, "kvmap");
    assert_eq!(plan.errors(), 0, "{plan}");
    assert!(
        plan.certificate.is_some(),
        "the bounded kvmap spec must certify: {plan}"
    );
    assert_eq!(plan.recommended_shards(), THREADS as usize);

    let sys = BoostingSystem::new(bounded_spec(), programs);
    sys.machine().set_require_certificate(true);
    let (sys, out) =
        run_parallel_sharded(sys, BUDGET, Some(&plan), plan.recommended_shards()).unwrap();
    assert!(out.completed);
    assert_eq!(sys.machine().log_shards(), THREADS as usize);
    assert!(
        !sys.machine().global_state().coarse_mode(),
        "a certified plan keeps fine-grained routing"
    );
    let diags = sys.machine().arming_diagnostics();
    assert!(
        diags.is_empty(),
        "no refusals with a valid certificate: {diags:?}"
    );
    assert!(
        sys.machine().audit().statically_discharged_total() > 0,
        "the certified plan's proven clauses must elide"
    );
    assert_eq!(sys.machine().committed_txns().len(), THREADS as usize);
    assert!(check_machine(sys.machine()).is_serializable());
}

#[test]
fn certificate_gated_sharding_is_trace_identical_to_legacy() {
    // Same shards, same deterministic schedule: legacy (strict off,
    // no certificate) vs certificate-gated (strict on, certified).
    let spec = bounded_spec();
    let plan = analyze_certified(&spec, &programs(), "kvmap");
    let cert = plan.certificate.clone().expect("bounded kvmap certifies");

    let mut legacy = BoostingSystem::new(bounded_spec(), programs());
    legacy.machine_mut().set_log_shards(4);
    let out = run(&mut legacy, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed);

    let mut gated = BoostingSystem::new(bounded_spec(), programs());
    gated.machine().install_certificate(Some(cert));
    gated.machine().set_require_certificate(true);
    gated.machine_mut().set_log_shards(4);
    assert!(!gated.machine().global_state().coarse_mode());
    let out = run(&mut gated, &mut RoundRobin, BUDGET).unwrap();
    assert!(out.completed);

    assert_eq!(
        gated.machine().trace().render(),
        legacy.machine().trace().render(),
        "certificate gating must be behaviourally invisible when certified"
    );
    assert_eq!(
        gated.machine().committed_txns().len(),
        legacy.machine().committed_txns().len()
    );
}
