//! Per-shard **group commit**: the PUSH/CMT critical sections of many
//! commit-ready transactions destined for the same footprint shard,
//! executed under **one** shard-lock acquisition and one contiguous
//! commit-stamp range.
//!
//! ## Why this is sound (the stamp-range argument)
//!
//! The per-transaction path interleaves, for each transaction, one lock
//! acquisition per PUSH (minting one stamp under the lock) plus one per
//! CMT. The batch path acquires the destination shard's lock once,
//! reserves a contiguous stamp block of the batch's total op count
//! (`GlobalState::reserve_stamps` — *after* acquiring the lock, so
//! every stamp already in the shard is strictly below the block's base),
//! and then replays the transactions **one at a time, in batch order**,
//! inside the held view: each transaction runs its full PUSH criteria
//! per op (appending with the next stamp from the block) followed by its
//! full CMT criteria and effect. Because each transaction fully commits
//! (or fully rolls back, see below) before the next one's criteria are
//! evaluated, every criterion sees exactly the global log the
//! per-transaction path would have shown it — the batch is
//! observationally identical to running the same transactions back to
//! back, which is what the golden equivalence suite pins down
//! bit-for-bit. Serializability is therefore inherited from the
//! per-rule argument of Theorem 5.17 unchanged; batching only removes
//! lock round-trips, never reorders criteria against effects.
//!
//! A transaction denied mid-batch is aborted *inside the held view*
//! (`TxnHandle::batch_abort_in_view`) with the same tail-first rewind
//! the per-transaction path performs, so its partial appends never leak
//! into the next batched transaction's criteria. Stamps it consumed are
//! simply skipped — stamp gaps are already routine (UNPUSH leaves them)
//! and only relative stamp order matters for replay.
//!
//! Eligibility is conservative: every operation of the transaction must
//! route `Route::Single` to one common shard, coarse mode must be off
//! and no transport installed ([`TxnHandle::group_route`]); everything
//! else falls back to the unchanged per-transaction path.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::MachineError;
use crate::global::Route;
use crate::handle::{BatchTally, TxnHandle};
use crate::metrics::Metric;
use crate::op::{ThreadId, TxnId};
use crate::spec::SeqSpec;

/// Per-transaction outcome of a [`commit_group`] call, in input order.
#[derive(Debug)]
pub enum GroupTxnResult {
    /// Committed through a batch.
    Committed(TxnId),
    /// A criterion (or injected fault) denied a batched PUSH/CMT. The
    /// transaction was aborted and restarted in place — same code, fresh
    /// transaction id, exactly as
    /// [`TxnHandle::abort_and_retry`] — before the next batched
    /// transaction ran. The caller re-drives its operations.
    Aborted {
        /// The denial that failed the batched attempt.
        denied: MachineError,
        /// The fresh transaction id of the restarted attempt.
        restarted: TxnId,
    },
    /// The inline abort itself failed — structural misuse, not reachable
    /// from well-formed drives. The handle is left mid-rewind.
    Wedged(MachineError),
    /// Not eligible for batching (mixed shards, coarse route or coarse
    /// mode, an installed transport, or nothing to commit) — the caller
    /// falls back to the per-transaction path.
    Ineligible,
}

impl GroupTxnResult {
    /// Did this transaction commit through the batch?
    pub fn is_committed(&self) -> bool {
        matches!(self, GroupTxnResult::Committed(_))
    }
}

/// What one [`commit_group`] call did.
#[derive(Debug)]
pub struct GroupOutcome {
    /// One entry per input handle, in input order.
    pub results: Vec<(ThreadId, GroupTxnResult)>,
    /// Batches sealed (shards that committed at least one transaction
    /// under their single acquisition).
    pub batches: u64,
    /// Transactions committed through those batches.
    pub batched_txns: u64,
}

impl GroupOutcome {
    fn empty() -> Self {
        Self {
            results: Vec::new(),
            batches: 0,
            batched_txns: 0,
        }
    }
}

/// Commits the given commit-ready transactions through the per-shard
/// group-commit path: handles are grouped by their (single) destination
/// shard, each shard group executes under one lock acquisition and one
/// contiguous reserved stamp range, and ineligible handles are reported
/// back untouched for the caller's per-transaction fallback.
///
/// Every handle must be bound to the same machine. Shard groups run in
/// ascending shard order and preserve input order within a group, so a
/// deterministic drive produces a deterministic trace.
pub fn commit_group<S: SeqSpec>(handles: &mut [&mut TxnHandle<S>]) -> GroupOutcome {
    let mut out = GroupOutcome::empty();
    let first = match handles.first() {
        Some(h) => Arc::clone(h.global_state()),
        None => return out,
    };
    out.results = handles
        .iter()
        .map(|h| (h.tid(), GroupTxnResult::Ineligible))
        .collect();
    // Group eligible handles by destination shard, ascending.
    let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, h) in handles.iter().enumerate() {
        assert!(
            Arc::ptr_eq(h.global_state(), &first),
            "commit_group handles must share one machine"
        );
        if let Some(shard) = h.group_route() {
            by_shard.entry(shard).or_default().push(idx);
        }
    }
    for (shard, members) in by_shard {
        let mut tally = BatchTally::default();
        let mut committed_here = 0u64;
        let mut ops_here = 0u64;
        {
            let mut view = first.acquire_route(Route::Single(shard));
            if !view.is_single_shard(shard) {
                // Coarse mode raced in between eligibility and
                // acquisition: the single-shard premise is gone. Leave
                // the members Ineligible for the per-txn fallback.
                continue;
            }
            // The contiguous stamp block, reserved under the shard lock:
            // everything already in this shard is stamped strictly below
            // `base`, and no other thread can append to it while we hold
            // the view, so handing the block out in order preserves the
            // shard's strict stamp monotonicity.
            let total_ops: u64 = members
                .iter()
                .map(|&i| handles[i].unpushed_ids().len() as u64)
                .sum();
            let base = first.reserve_stamps(total_ops);
            let mut cursor = base;
            for &i in &members {
                let h = &mut *handles[i];
                let ids = h.unpushed_ids();
                let mut denied: Option<MachineError> = None;
                let mut appended = 0u64;
                for id in ids {
                    match h.batch_push_in_view(&mut view, shard, cursor, id, &mut tally) {
                        Ok(()) => {
                            cursor += 1;
                            appended += 1;
                        }
                        Err(e) => {
                            denied = Some(e);
                            break;
                        }
                    }
                }
                let result = match denied {
                    None => match h.batch_commit_in_view(&mut view, &mut tally) {
                        Ok(txn) => {
                            committed_here += 1;
                            ops_here += appended;
                            GroupTxnResult::Committed(txn)
                        }
                        Err(e) => match h.batch_abort_in_view(&mut view, &mut tally) {
                            Ok(restarted) => GroupTxnResult::Aborted {
                                denied: e,
                                restarted,
                            },
                            Err(abort_err) => GroupTxnResult::Wedged(abort_err),
                        },
                    },
                    Some(e) => match h.batch_abort_in_view(&mut view, &mut tally) {
                        Ok(restarted) => GroupTxnResult::Aborted {
                            denied: e,
                            restarted,
                        },
                        Err(abort_err) => GroupTxnResult::Wedged(abort_err),
                    },
                };
                out.results[i].1 = result;
            }
        }
        // Satellite invariant: the batched path re-asserts the audit
        // ledger closure (discharged + violated + static == reaches)
        // over its locally tracked tallies in debug builds.
        tally.assert_closed();
        if committed_here > 0 {
            // The per-transaction path pays one acquisition per
            // appended op (PUSH) plus one per transaction (CMT); the
            // batch paid exactly one.
            let saved = (ops_here + committed_here).saturating_sub(1);
            for (metric, by) in [
                (Metric::GroupBatches, 1),
                (Metric::GroupBatchedTxns, committed_here),
                (Metric::GroupBatchedOps, ops_here),
                (Metric::GroupLocksSaved, saved),
                (Metric::group_size(committed_here), 1),
            ] {
                first.count(metric, by);
            }
            out.batches += 1;
            out.batched_txns += committed_here;
        }
    }
    out
}
