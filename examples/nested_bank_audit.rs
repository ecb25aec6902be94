//! Nested transaction scopes on a bank: an audit-log append running
//! *inside* a transfer transaction, three ways.
//!
//! The transfer withdraws from `FROM` and deposits to `TO`; in between
//! it records the attempt by depositing a token into the `LOG` account.
//! That record is the nested child:
//!
//! 1. **Closed nesting** — the record is a `tx(...)` child: it merges
//!    into the transfer event-free, so everything commits as one atomic
//!    transaction (bit-identical to the flat rendering).
//! 2. **Open nesting** — the record is an `otx(...)` child: it commits
//!    to the shared log mid-transfer as its own transaction (visible to
//!    everyone immediately) and registers a compensating inverse with
//!    the parent. This is legal precisely because the record commutes
//!    with the parent's earlier withdraw — PUSH criterion (i) ranges
//!    over the parent's earlier unpushed operations.
//! 3. **Compensation** — the transfer aborts after its record
//!    committed: the machine replays the inverse (a withdraw undoes the
//!    log deposit) as a committed compensating transaction, restoring
//!    the abstract state exactly.
//!
//! Every run is re-verified by the per-level oracle
//! (`check_machine_nested`): children resolve, children commit before
//! their parents, compensations provably restore.
//!
//! Run with: `cargo run --example nested_bank_audit`

use pushpull::core::error::MachineError;
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::serializability::check_machine_nested;
use pushpull::core::spec::SeqSpec;
use pushpull::core::Metric;
use pushpull::spec::bank::{Bank, BankMethod};

const FROM: u32 = 0;
const TO: u32 = 1;
const LOG: u32 = 2;

/// The transfer body around an audit-record child: withdraw, record the
/// attempt in the (wrapped) child, deposit.
fn transfer(wrap: fn(Code<BankMethod>) -> Code<BankMethod>) -> Code<BankMethod> {
    Code::seq_all(vec![
        Code::method(BankMethod::Withdraw(FROM, 10)),
        wrap(Code::method(BankMethod::Deposit(LOG, 1))),
        Code::method(BankMethod::Deposit(TO, 10)),
    ])
}

/// Funds the source account, then runs the transfer body to completion.
fn run_transfer(body: Code<BankMethod>) -> Machine<Bank> {
    let mut m = Machine::new(Bank::new());
    let funder = m.add_thread(vec![Code::method(BankMethod::Deposit(FROM, 100))]);
    let teller = m.add_thread(vec![body]);
    m.app_auto(funder).expect("fund");
    m.push_all_and_commit(funder).expect("fund commit");
    // PULL the funding into the teller's view so the withdraw observes
    // the committed balance.
    m.pull_all_committed(teller).expect("pull");
    drive(&mut m, teller);
    m.push_all_and_commit(teller).expect("transfer commit");
    m
}

/// APPlies steps until the program is exhausted; `push_all_and_commit`
/// settles any trailing scope frames itself.
fn drive(m: &mut Machine<Bank>, t: pushpull::core::op::ThreadId) {
    loop {
        match m.app_auto(t) {
            Ok(_) => {}
            Err(MachineError::NoSuchStep(_)) => return,
            Err(e) => panic!("transfer step: {e}"),
        }
    }
}

fn main() {
    // 1. Closed: the whole transfer (record included) is ONE committed
    //    transaction.
    let m = run_transfer(transfer(Code::tx));
    let closed_txns = m.committed_txns().len();
    println!("closed nesting:  {closed_txns} committed transactions (funder + transfer)");
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    assert_eq!(closed_txns, 2, "closed child merged into the transfer");
    let stats = m.metrics();
    println!(
        "                 scopes opened={} merged={}",
        stats[Metric::ScopesOpened],
        stats[Metric::ScopesMerged]
    );

    // 2. Open: the record commits mid-transfer as its own transaction.
    let m = run_transfer(transfer(Code::otx));
    let open_txns = m.committed_txns().len();
    println!("open nesting:    {open_txns} committed transactions (funder + record + transfer)");
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    assert_eq!(open_txns, 3, "open child committed on its own");
    assert_eq!(report.txns_per_level, vec![2, 1]);
    println!("                 per level: {:?}", report.txns_per_level);

    // 3. Compensation: abort the transfer after its record committed.
    let spec = Bank::new();
    let mut m = Machine::new(Bank::new());
    let funder = m.add_thread(vec![Code::method(BankMethod::Deposit(FROM, 100))]);
    let teller = m.add_thread(vec![transfer(Code::otx)]);
    m.app_auto(funder).expect("fund");
    m.push_all_and_commit(funder).expect("fund commit");
    m.pull_all_committed(teller).expect("pull");
    // Drive until the open child has committed (scope closed again):
    // the withdraw, the child's record, then the settling step that
    // commits the child and applies the final deposit.
    for _ in 0..3 {
        m.app_auto(teller).expect("transfer step");
    }
    assert_eq!(m.scope_depth(teller).unwrap(), 0);
    let before_abort = m.committed_txns().len();
    m.abort_and_retry(teller).expect("transfer abort");
    let after_abort = m.committed_txns().len();
    println!(
        "compensation:    transfer aborted; committed txns {before_abort} -> {after_abort} \
         (compensating withdraw replayed)"
    );
    assert_eq!(after_abort, before_abort + 1);
    // The committed projection denotes exactly the funded state: the
    // record's effect is gone, undone by its inverse, not by magic.
    let states = spec.denote(&m.global().committed_ops());
    let state = states.into_iter().next().expect("deterministic spec");
    println!("                 balances after compensation: {state:?}");
    assert_eq!(state.get(&FROM), Some(&100));
    assert_eq!(state.get(&LOG), None, "canonical: zero balance not stored");
    assert_eq!(m.metrics()[Metric::Compensations], 1);
    // Let the retried transfer finish. The first attempt's record was
    // compensated away, so the log holds exactly one record again —
    // the successful attempt's.
    m.pull_all_committed(teller).expect("pull after retry");
    drive(&mut m, teller);
    m.push_all_and_commit(teller).expect("transfer recommit");
    let states = spec.denote(&m.global().committed_ops());
    let state = states.into_iter().next().expect("deterministic spec");
    assert_eq!(state.get(&LOG), Some(&1), "the successful attempt's record");
    assert_eq!(state.get(&TO), Some(&10));
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    println!("per-level oracle: {report}");

    // 4. Depth: a batch job running two transfers, each a closed child
    //    of the batch, each recording through an open grandchild —
    //    scopes three deep. The closed layers merge away; the two open
    //    records still commit on their own mid-batch.
    let batch = Code::seq(Code::tx(transfer(Code::otx)), Code::tx(transfer(Code::otx)));
    let m = run_transfer(batch);
    let batch_txns = m.committed_txns().len();
    let stats = m.metrics();
    println!(
        "batch job:       {batch_txns} committed transactions, \
         scopes opened={} merged={} open commits={}",
        stats[Metric::ScopesOpened],
        stats[Metric::ScopesMerged],
        stats[Metric::OpenCommits]
    );
    assert_eq!(batch_txns, 4, "funder + two records + the batch");
    assert_eq!(
        stats[Metric::ScopesMerged],
        2,
        "both closed transfers merged"
    );
    assert_eq!(stats[Metric::OpenCommits], 2, "both records committed open");
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    let states = spec.denote(&m.global().committed_ops());
    let state = states.into_iter().next().expect("deterministic spec");
    assert_eq!(state.get(&FROM), Some(&80));
    assert_eq!(state.get(&TO), Some(&20));
    assert_eq!(state.get(&LOG), Some(&2));
}
