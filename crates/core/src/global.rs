//! The shared half of the split machine: [`GlobalState`] owns everything
//! the PUSH/PULL rules may contend on — the shared log `G`, the
//! committed-transaction list and the criteria audit — while the
//! per-thread halves live in [`TxnHandle`](crate::handle::TxnHandle).
//!
//! ## The footprint-sharded log
//!
//! `G` is partitioned into `N` *footprint-addressed shards*, each a
//! `ShardLog` behind its own [`Mutex`]: a segment of the global log
//! (its own `gUCmt`/`gCmt` entries), a parallel vector of *commit-sequence
//! stamps*, and its own committed-prefix denotation cache. An operation is
//! routed to shard `key % N` by [`SeqSpec::method_keys`], the declared
//! footprint of its method. Two operations with disjoint footprints are
//! both-movers (Def 4.1 — the declared law, validated against the
//! exhaustive mover oracle by
//! [`check_disjoint_footprints_commute`](crate::spec::check_disjoint_footprints_commute)),
//! so the PUSH/UNPUSH criteria of one never need to inspect entries that
//! live on another shard: disjoint-access parallelism, straight from the
//! paper's mover theory.
//!
//! Every append mints a stamp from one global `AtomicU64` *while holding
//! the shard lock*, so stamps are strictly increasing within a shard and
//! totally order all appends across shards. Merging the shards by stamp
//! reconstructs the exact single-log `G` order — that merged order is
//! what [`GlobalState::global_snapshot`] hands the serializability
//! oracle, and what the coarse evaluation path replays.
//!
//! ## Routing and the sticky coarse fallback
//!
//! `GlobalState::route` maps a method to a `Route`:
//!
//! * With one shard (the default), *everything* routes to shard 0 before
//!   `method_keys` is even consulted — bit-identical to the historical
//!   single-`Mutex<SharedLog>` machine, golden traces and audit counts
//!   included.
//! * With `N > 1` shards, a method declaring exactly one footprint key
//!   `k` routes to shard `k % N`; a method with no declared footprint
//!   (or a multi-key footprint) routes `Route::Coarse`.
//!
//! The first coarse-routed operation sets a *sticky* flag: from then on
//! every criteria evaluation acquires **all** shard locks in ascending
//! index order (the canonical lock order — no deadlocks) and evaluates
//! over the stamp-merged log, a sound degradation to the single-lock
//! semantics. The flag is set (SeqCst) *before* any lock is taken and a
//! single-shard acquirer re-checks it after locking, so no evaluation can
//! miss a coarse entry: the coarse thread's flag store happens-before its
//! shard unlock, which happens-before any later acquirer's lock.
//!
//! ## Lock discipline
//!
//! `GlobalState` is `Sync`. Its id/txn/sequence generators and the audit
//! are lock-free atomics; each shard sits behind one short-held
//! [`Mutex`]. The discipline, relied on by the parallel harness:
//!
//! * **APP/UNAPP never lock.** They touch only the handle's local log and
//!   the atomics (fresh ids, audit counters, trace sequence numbers).
//! * **PUSH/UNPUSH** take *their operation's shard lock* for their
//!   criteria-over-`G` and their effect, as one atomic critical section.
//! * **CMT** takes the locks of exactly the shards its pushed/pulled
//!   operations touch, ascending, then appends to the committed list.
//! * **PULL** locks one shard at a time only to locate and snapshot the
//!   pulled entry; its criteria and effect are local. **UNPULL** is
//!   entirely local.
//!
//! Multi-shard acquisitions always lock in ascending shard-index order,
//! and the `committed` list's mutex is only ever taken while already
//! holding shard locks (never the reverse), so the lock order is total.
//!
//! ## Incremental `allowed` (the per-shard snapshot cache)
//!
//! Every PUSH evaluates `G allows op` and every UNPUSH evaluates
//! `allowed (G ∖ op)`; replaying the whole log makes a run of `n`
//! operations O(n²) in spec transitions. Each shard's `PrefixCache`
//! memoizes the denotation `⟦G_i[..len]⟧` of the longest *fully
//! committed* prefix of that shard's segment. Because the denotation is
//! compositional (`⟦ℓ⟧ = denote_from(⟦ℓ[..k]⟧, ℓ[k..])` for any split
//! point `k`), the criteria can replay only the uncommitted suffix and
//! get bit-identical answers — and bit-identical audit counts, since the
//! audit counts *queries*, not spec transitions. With `N > 1` the shards
//! factor `allowed` as a product spec over footprint classes (the second
//! declared law, validated by
//! [`check_allowed_factorization`](crate::spec::check_allowed_factorization));
//! the coarse path skips the caches and replays the merged log in full.
//!
//! Invalidation rules, per shard:
//!
//! * PUSH appends — the cached prefix is untouched.
//! * CMT flips flags in place and never reorders — flags are not part of
//!   the denotation, so the cache stays valid and is then *advanced* over
//!   the newly committed prefix.
//! * UNPUSH removes an *uncommitted* entry, which by the all-committed
//!   invariant lies at or past `len`; the cache is untouched. A removal
//!   inside the cached prefix (impossible through the rule API) resets the
//!   cache defensively.
//!
//! ## The lock-free snapshot path (seqlock prefix reads)
//!
//! On top of the mutex ladder, every shard *publishes* an immutable
//! `ShardSnap` — its committed-prefix denotation, its uncommitted
//! suffix and a monotonically increasing per-shard `version` — into a
//! [`SnapCell`] whenever it mutates (append, removal, commit flip). A
//! routed PUSH evaluates its shared criteria (ii)/(iii) against that
//! snapshot **without taking any lock**, buffering its audit tallies:
//!
//! * a *failing* verdict is returned immediately — zero locks; denial at
//!   any moment is a legal machine step, and single-threaded runs always
//!   see a fresh snapshot, so golden traces are bit-identical;
//! * a *passing* verdict acquires the shard mutex only for the mutating
//!   append, revalidates `version`, and — on a match — flushes the
//!   buffered tallies and appends. A mismatch (a concurrent writer got
//!   in between) discards the speculation and re-runs the criteria under
//!   the lock, audited exactly as the classic path.
//!
//! The fallback ladder is thus: optimistic snapshot → per-shard mutex →
//! sticky coarse (all shards). Snapshots are never published while the
//! coarse flag is set, and the coarse flag is re-checked under the lock
//! (same argument as the routing double-check), so the optimistic path
//! can never miss a coarse entry. Stamp order is untouched: stamps are
//! still minted from `push_stamp` under the shard lock in the (short)
//! mutating section, so per-shard stamps stay strictly increasing.
//!
//! Log memory is arena-backed ([`SlabArena`]): entries never move once
//! appended, UNPUSH removal shifts only the 16-byte `(stamp, ref)` order
//! records, and the criteria replay iterates cursors instead of
//! collecting `Vec`s — per-op step complexity stops scaling with log
//! length or allocator behavior.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};

use crate::arena::{ArenaRef, SlabArena};
use crate::audit::{AtomicAudit, CriteriaAudit};
use crate::certificate::SpecCertificate;
use crate::error::{Clause, Rule};
use crate::faults::{FaultHook, FaultKind};
use crate::lang::Code;
use crate::log::{GlobalEntry, GlobalFlag, GlobalLog, LocalLog};
use crate::machine::CheckMode;
use crate::metrics::{Metric, MetricBlock, MetricsSnapshot};
use crate::op::{Op, OpId, OpIdGen, ThreadId, TxnId};
use crate::snapcell::SnapCell;
use crate::spec::SeqSpec;
use crate::static_facts::StaticDischarge;
use crate::transport::ShardTransport;

/// How a committed transaction relates to the nesting structure of the
/// thread that ran it — the per-level tag the nested serializability
/// oracle groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// An ordinary top-level transaction (nesting level 0). All commits
    /// were this kind before scopes existed, so it is the default.
    Top,
    /// An open-nested child that committed to `G` from inside a still-
    /// running parent at the given nesting level (1 = direct child of a
    /// top-level transaction).
    OpenChild {
        /// The enclosing transaction at commit time. The parent may
        /// later commit (appearing after this child in commit order) or
        /// abort (in which case a [`TxnKind::Compensation`] undoing this
        /// child must appear instead).
        parent: TxnId,
        /// Nesting depth of the child (≥ 1).
        level: usize,
    },
    /// A compensating transaction replayed by an aborting parent to undo
    /// a previously committed open-nested child.
    Compensation {
        /// The open-nested child this compensation undoes.
        undoes: TxnId,
    },
}

/// A committed transaction: its id and its own operations in local-log
/// order. The sequence of these, in commit order, is the serial witness
/// used by the serializability oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn<M, R> {
    /// The committed transaction instance.
    pub txn: TxnId,
    /// The thread that ran it.
    pub thread: ThreadId,
    /// The original transaction body (the paper's `otx`), for atomic replay.
    pub code: Code<M>,
    /// Own operations (pushed), in local order.
    pub ops: Vec<Op<M, R>>,
    /// Ids of operations this transaction had pulled, with the owning
    /// transaction (its dependencies).
    pub pulled_from: Vec<(OpId, TxnId)>,
    /// Where this commit sits in the nesting structure (top-level,
    /// open-nested child, or compensation).
    pub kind: TxnKind,
}

/// Memoized denotation of the longest fully committed prefix of a shard's
/// log segment.
#[derive(Debug, Clone)]
pub(crate) struct PrefixCache<St> {
    /// Entries `[..len]` of the shard log are all committed and their
    /// denotation is `states`.
    pub(crate) len: usize,
    /// `⟦G_i[..len]⟧`.
    pub(crate) states: HashSet<St>,
}

impl<St: Clone + Eq + std::hash::Hash> PrefixCache<St> {
    fn new(initial: Vec<St>) -> Self {
        Self {
            len: 0,
            states: initial.into_iter().collect(),
        }
    }

    fn reset(&mut self, initial: Vec<St>) {
        self.len = 0;
        self.states = initial.into_iter().collect();
    }
}

/// Seqlock validation retries before an optimistic snapshot read gives
/// up and takes the mutex fallback. Small on purpose: a race means a
/// writer is active on this shard, and the mutex path is then cheaper
/// than spinning.
const SNAP_RETRIES: u64 = 3;

/// A global entry paired with its commit-sequence stamp (owned).
type StampedEntry<S> = (
    u64,
    GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
);

/// A global entry paired with its commit-sequence stamp (borrowed from a
/// held shard view).
type StampedEntryRef<'a, S> = (
    u64,
    &'a GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
);

/// An entry removed from a shard, with its former position there.
type RemovedEntry<S> = (
    usize,
    GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
);

/// The immutable snapshot a shard publishes for the lock-free criteria
/// read path: everything PUSH criteria (ii)/(iii) need — the cached
/// committed-prefix denotation and the (flagged) entries past it —
/// tagged with the shard `version` that produced it, so the mutating
/// append section can revalidate before relying on a speculated verdict.
pub(crate) struct ShardSnap<S: SeqSpec> {
    /// [`ShardLog::version`] at publication time.
    pub(crate) version: u64,
    /// `⟦G_i[..cache.len]⟧` — the committed-prefix denotation.
    pub(crate) states: HashSet<S::State>,
    /// The entries past the cached prefix, flags as of publication, in
    /// shard (= stamp) order.
    pub(crate) suffix: Vec<GlobalEntry<S::Method, S::Ret>>,
}

/// One footprint shard of the global log: an arena-backed segment of `G`
/// with its commit-sequence append order and its own committed-prefix
/// cache. Everything the shared rules read-modify on this shard sits
/// behind one mutex in [`GlobalState::shards`].
#[derive(Debug)]
pub(crate) struct ShardLog<S: SeqSpec> {
    /// Slab storage for this shard's segment of `G`: entries never move
    /// once appended, and UNPUSH removals recycle slots through the
    /// generation-tagged free list instead of shifting entry payloads.
    arena: SlabArena<GlobalEntry<S::Method, S::Ret>>,
    /// `(stamp, slot)` in append order. Stamps are strictly increasing
    /// within a shard (minted under the shard lock); merging all shards
    /// by stamp reconstructs the total append order of `G`. Removals
    /// shift only these 16-byte records, never the entries.
    order: Vec<(u64, ArenaRef)>,
    /// The committed-prefix denotation cache for this segment.
    pub(crate) cache: PrefixCache<S::State>,
    /// Bumped on every mutation (append, removal, commit flip) — the
    /// validation token for [`ShardSnap`] speculation.
    pub(crate) version: u64,
}

// Manual impl: a derived `Clone` would demand `S: Clone`, which nothing
// in the fields (method/ret/state types are `Clone` by the `SeqSpec`
// bounds) actually needs.
impl<S: SeqSpec> Clone for ShardLog<S> {
    fn clone(&self) -> Self {
        Self {
            arena: self.arena.clone(),
            order: self.order.clone(),
            cache: self.cache.clone(),
            version: self.version,
        }
    }
}

impl<S: SeqSpec> ShardLog<S> {
    fn new(initial: Vec<S::State>) -> Self {
        Self {
            arena: SlabArena::new(),
            order: Vec::new(),
            cache: PrefixCache::new(initial),
            version: 0,
        }
    }

    /// Rebuilds a shard from stamp-ordered entries (resharding).
    fn from_stamped(stamped: Vec<StampedEntry<S>>, initial: Vec<S::State>) -> Self {
        let mut sh = Self::new(initial);
        for (stamp, entry) in stamped {
            sh.push_entry(stamp, entry);
        }
        sh
    }

    /// Number of entries in this shard's segment.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The entries in shard (= stamp) order.
    pub(crate) fn iter(
        &self,
    ) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> + Clone + '_ {
        self.order
            .iter()
            .map(move |(_, r)| self.arena.get(*r).expect("order refs are live"))
    }

    /// The entries with their stamps, in shard order.
    pub(crate) fn iter_stamped(&self) -> impl Iterator<Item = StampedEntryRef<'_, S>> + '_ {
        self.order
            .iter()
            .map(move |(s, r)| (*s, self.arena.get(*r).expect("order refs are live")))
    }

    /// The entries from position `pos` on, in shard order (the suffix
    /// cursor the incremental criteria replay).
    fn iter_from(&self, pos: usize) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> + '_ {
        self.order[pos.min(self.order.len())..]
            .iter()
            .map(move |(_, r)| self.arena.get(*r).expect("order refs are live"))
    }

    /// The entry at `pos` in shard order.
    fn entry_at(&self, pos: usize) -> &GlobalEntry<S::Method, S::Ret> {
        let (_, r) = self.order[pos];
        self.arena.get(r).expect("order refs are live")
    }

    /// The stamp of the entry at `pos`.
    fn stamp_at(&self, pos: usize) -> u64 {
        self.order[pos].0
    }

    /// Position of the entry with `id` in shard order.
    pub(crate) fn position(&self, id: OpId) -> Option<usize> {
        self.iter().position(|e| e.op.id == id)
    }

    /// The entry with `id`, if present.
    pub(crate) fn entry(&self, id: OpId) -> Option<&GlobalEntry<S::Method, S::Ret>> {
        self.iter().find(|e| e.op.id == id)
    }

    fn push_entry(&mut self, stamp: u64, entry: GlobalEntry<S::Method, S::Ret>) {
        debug_assert!(
            self.order.last().is_none_or(|(s, _)| *s < stamp),
            "stamps must be strictly increasing within a shard"
        );
        let r = self.arena.insert(entry);
        self.order.push((stamp, r));
    }

    /// Appends an uncommitted entry with `stamp` (the PUSH effect).
    fn push_uncommitted(&mut self, stamp: u64, op: Op<S::Method, S::Ret>) {
        self.push_entry(
            stamp,
            GlobalEntry {
                op,
                flag: GlobalFlag::Uncommitted,
            },
        );
    }

    /// Removes the entry with `id`, returning its former position (the
    /// effect of an UNPUSH on this shard). The arena slot is recycled;
    /// any stale [`ArenaRef`] to it resolves to `None` from now on.
    pub(crate) fn remove_by_id(&mut self, id: OpId) -> Option<RemovedEntry<S>> {
        let pos = self.position(id)?;
        let (_, r) = self.order.remove(pos);
        let entry = self.arena.remove(r).expect("order refs are live");
        Some((pos, entry))
    }

    /// Flips every entry of `local` held by this shard to committed,
    /// returning `(stamp, id)` per flip (the CMT effect on this shard).
    fn commit_local(&mut self, local: &LocalLog<S::Method, S::Ret>) -> Vec<(u64, OpId)> {
        let ShardLog { arena, order, .. } = self;
        let mut flipped = Vec::new();
        for (stamp, r) in order.iter() {
            let e = arena.get_mut(*r).expect("order refs are live");
            if e.flag == GlobalFlag::Uncommitted && local.contains_id(e.op.id) {
                e.flag = GlobalFlag::Committed;
                flipped.push((*stamp, e.op.id));
            }
        }
        flipped
    }

    /// Clones the entries past the cached prefix (for [`ShardSnap`]).
    fn suffix_entries(&self) -> Vec<GlobalEntry<S::Method, S::Ret>> {
        self.iter_from(self.cache.len).cloned().collect()
    }
}

/// The group-commit view of a [`MetricsSnapshot`] (the `core.group.*`
/// metrics of the per-shard group-commit path, see [`crate::group`]):
/// how many batches were sealed, how many transactions rode them, how
/// the batch sizes distribute, and how many shard-lock acquisitions the
/// batching amortized away compared to the per-transaction path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Batches executed under a single shard-lock acquisition.
    pub batches: u64,
    /// Transactions committed through a batch.
    pub batched_txns: u64,
    /// Operations appended through a batch (each would have been its own
    /// lock acquisition on the per-transaction path).
    pub batched_ops: u64,
    /// Lock acquisitions the batch path saved: for a batch of `n`
    /// transactions and `k` appended operations the per-transaction path
    /// pays `k` PUSH acquisitions plus `n` CMT acquisitions where the
    /// batch pays one.
    pub locks_saved: u64,
    /// Batch-size histogram in power-of-two buckets: sizes 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64, 65+ committed transactions. Bucket
    /// order is fixed ascending, so any dump of it is deterministic.
    pub size_hist: [u64; 8],
}

impl From<&MetricsSnapshot> for GroupStats {
    /// The group-commit view of a registry snapshot.
    fn from(m: &MetricsSnapshot) -> Self {
        GroupStats {
            batches: m[Metric::GroupBatches],
            batched_txns: m[Metric::GroupBatchedTxns],
            batched_ops: m[Metric::GroupBatchedOps],
            locks_saved: m[Metric::GroupLocksSaved],
            size_hist: Metric::GROUP_SIZES.map(|b| m[b]),
        }
    }
}

/// Where a method's criteria evaluation must go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The method's declared footprint confines it to one shard.
    Single(usize),
    /// No (or a multi-key) footprint: the operation concerns the whole
    /// log. Evaluation acquires every shard (ascending) and the sticky
    /// coarse flag is set.
    Coarse,
}

impl Route {
    /// The shard a routed operation is *appended* to. Coarse operations
    /// live on shard 0; soundness does not depend on the choice because
    /// once the coarse flag is set every evaluation merges all shards.
    pub(crate) fn target(self) -> usize {
        match self {
            Route::Single(i) => i,
            Route::Coarse => 0,
        }
    }
}

/// A set of held shard locks — the critical section of a shared rule.
/// Shards are always held in ascending index order (the canonical lock
/// order). A view over a single shard evaluates criteria with that
/// shard's incremental cache; a view over several evaluates over the
/// stamp-merged log.
#[derive(Debug)]
pub(crate) struct LogView<'a, S: SeqSpec> {
    shards: Vec<(usize, MutexGuard<'a, ShardLog<S>>)>,
}

impl<'a, S: SeqSpec> LogView<'a, S> {
    /// Does this view hold exactly one shard (the fast, cache-backed
    /// evaluation path)?
    fn is_single(&self) -> bool {
        self.shards.len() == 1
    }

    /// Is this view exactly `{shard i}` (the optimistic append's
    /// revalidation needs to know its speculation still covers the whole
    /// criteria scope)?
    pub(crate) fn is_single_shard(&self, i: usize) -> bool {
        self.shards.len() == 1 && self.shards[0].0 == i
    }

    /// The `version` of the held shard at `view index` (snapshot
    /// revalidation).
    pub(crate) fn shard_version(&self, vidx: usize) -> u64 {
        self.shards[vidx].1.version
    }

    /// All held entries with their stamps, in stamp order, as a k-way
    /// cursor merge over the held shards — no collection, no sort (each
    /// shard is already stamp-ordered). For a single shard this
    /// degenerates to a plain cursor walk.
    pub(crate) fn stamped(&self) -> StampedIter<'_, 'a, S> {
        StampedIter {
            view: self,
            pos: (0..self.shards.len()).map(|_| 0).collect(),
        }
    }

    /// Finds an entry by op id across the held shards.
    pub(crate) fn entry(&self, id: OpId) -> Option<&GlobalEntry<S::Method, S::Ret>> {
        self.shards.iter().find_map(|(_, sh)| sh.entry(id))
    }

    /// Locates an entry by op id: `(view index, position in shard)`.
    pub(crate) fn find(&self, id: OpId) -> Option<(usize, usize)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(v, (_, sh))| sh.position(id).map(|p| (v, p)))
    }

    /// The commit-sequence stamp of the entry at `(view index, position)`.
    pub(crate) fn stamp_at(&self, vidx: usize, pos: usize) -> u64 {
        self.shards[vidx].1.stamp_at(pos)
    }

    /// The held entries strictly *after* `stamp`, in stamp order — the
    /// suffix the UNPUSH gray criterion slides across. Cursor-backed: no
    /// allocation.
    pub(crate) fn entries_after(
        &self,
        stamp: u64,
    ) -> impl Iterator<Item = &GlobalEntry<S::Method, S::Ret>> + '_ {
        self.stamped()
            .filter(move |(s, _)| *s > stamp)
            .map(|(_, e)| e)
    }

    /// Flips every held entry of `local` to committed (the `cmt`
    /// predicate restricted to the held shards), returning the flipped
    /// ids in global stamp order — identical to the single-log flip
    /// order at any shard count. Bumps the version of every shard that
    /// flipped at least one entry.
    pub(crate) fn commit_local(&mut self, local: &LocalLog<S::Method, S::Ret>) -> Vec<OpId> {
        let mut flipped: Vec<(u64, OpId)> = Vec::new();
        for (_, sh) in &mut self.shards {
            let here = sh.commit_local(local);
            if !here.is_empty() {
                sh.version += 1;
            }
            flipped.extend(here);
        }
        flipped.sort_by_key(|(s, _)| *s);
        flipped.into_iter().map(|(_, id)| id).collect()
    }
}

/// Allocation-free stamp-ordered merge over a view's held shards: one
/// cursor per shard, advancing the minimum stamp each step (stamps are
/// globally unique, so the merge is deterministic).
pub(crate) struct StampedIter<'v, 'a, S: SeqSpec> {
    view: &'v LogView<'a, S>,
    /// One cursor per held shard; inline up to 16 shards, so iterating
    /// any single- or CMT-width view allocates nothing.
    pos: crate::smallvec::SmallVec<usize, 16>,
}

impl<'v, S: SeqSpec> Iterator for StampedIter<'v, '_, S> {
    type Item = StampedEntryRef<'v, S>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, u64)> = None;
        for (k, (_, sh)) in self.view.shards.iter().enumerate() {
            let p = self.pos[k];
            if p < sh.len() {
                let s = sh.stamp_at(p);
                if best.is_none_or(|(_, bs)| s < bs) {
                    best = Some((k, s));
                }
            }
        }
        let (k, s) = best?;
        let e = self.view.shards[k].1.entry_at(self.pos[k]);
        self.pos[k] += 1;
        Some((s, e))
    }
}

/// The shared half of the machine: spec, generators, audit and the
/// footprint-sharded, mutex-guarded log state. `Sync`, shared by every
/// [`TxnHandle`](crate::handle::TxnHandle) through an `Arc`.
#[derive(Debug)]
pub struct GlobalState<S: SeqSpec> {
    /// The sequential specification, shared (it is immutable) so that
    /// resharding and deep-cloning need no `S: Clone` bound.
    pub(crate) spec: Arc<S>,
    pub(crate) mode: CheckMode,
    pub(crate) ids: OpIdGen,
    pub(crate) next_txn: AtomicU64,
    /// Global trace-event sequence: one `fetch_add` per recorded event
    /// gives a real-time-consistent total order across threads.
    pub(crate) seq: AtomicU64,
    pub(crate) audit: AtomicAudit,
    incremental: AtomicBool,
    /// The footprint shards of `G`, each behind its own lock. The count
    /// is fixed at construction (see [`Machine::set_log_shards`]
    /// (crate::machine::Machine::set_log_shards) for resharding).
    shards: Vec<Mutex<ShardLog<S>>>,
    /// Committed transactions in global commit order (guarded last in the
    /// lock order: only ever taken while already holding shard locks).
    committed: Mutex<Vec<CommittedTxn<S::Method, S::Ret>>>,
    /// Mints commit-sequence stamps for appends; fetched under the
    /// destination shard's lock.
    push_stamp: AtomicU64,
    /// Sticky coarse-mode flag: set the first time an operation with no
    /// single-key footprint routes, never cleared (for this shard
    /// layout). See the module docs for the memory-ordering argument.
    coarse: AtomicBool,
    /// Per-shard published snapshots for the lock-free criteria read
    /// path. Published on every shard mutation (unless coarse mode is
    /// on); read optimistically by routed PUSH and `can_push`.
    snaps: Vec<SnapCell<ShardSnap<S>>>,
    /// Machine-wide metric slots (transport, group commit, nesting).
    /// They survive resharding.
    metrics: MetricBlock,
    /// Per-shard metric slots (lock and snapshot tallies), one block per
    /// shard. They restart with every new shard layout.
    shard_metrics: Vec<MetricBlock>,
    /// The fault-injection hook, if armed. The flag short-circuits the
    /// rule hot paths to a single relaxed load when no hook is set.
    faults: RwLock<Option<Arc<dyn FaultHook>>>,
    faults_armed: AtomicBool,
    /// Statically proven obligations, if an analysis plan installed any.
    /// Same arm-flag pattern as the fault hook: with no plan the rule
    /// hot paths pay one relaxed load and behave bit-identically to a
    /// build without the analyzer.
    static_facts: RwLock<Option<Arc<StaticDischarge>>>,
    static_armed: AtomicBool,
    /// The shard transport, if one is installed. `None` (the default)
    /// means the routed PUSH/UNPUSH critical sections run inline under
    /// the shard mutex exactly as they always have — the arm flag keeps
    /// that default to one relaxed load. See [`crate::transport`].
    transport: RwLock<Option<Arc<dyn ShardTransport<S>>>>,
    transport_armed: AtomicBool,
    /// Per-shard degraded marks: a `true` shard exhausted its transport
    /// envelope and its operations run on the coarse coordinator path
    /// until a probe succeeds. Always all-`false` without a transport.
    transport_degraded: Vec<AtomicBool>,
    /// The installed spec certificate, if the analysis certified this
    /// spec's footprint/mover declarations (see [`SpecCertificate`]).
    certificate: RwLock<Option<Arc<SpecCertificate>>>,
    /// Strict arming mode: when set, the unsafe fast paths
    /// (static-discharge elision, fine-grained shard routing) refuse to
    /// arm without a valid certificate and demote to the sound coarse
    /// path instead, recording a diagnostic. Off by default —
    /// bit-identical legacy behaviour.
    require_certificate: AtomicBool,
    /// Human-readable records of every arming request the certificate
    /// gate refused or demoted (drained by [`Self::arming_diagnostics`]).
    arming_diags: Mutex<Vec<String>>,
}

impl<S: SeqSpec> GlobalState<S> {
    /// Creates the shared state for a fresh machine with a single shard —
    /// bit-identical behaviour to the historical single-lock log.
    pub fn new(spec: S, mode: CheckMode) -> Self {
        Self::with_shards(spec, mode, 1)
    }

    /// Creates the shared state with `shards` footprint shards (clamped
    /// to at least one). With one shard, routing short-circuits before
    /// the spec's footprints are even consulted.
    pub fn with_shards(spec: S, mode: CheckMode, shards: usize) -> Self {
        let n = shards.max(1);
        let shard_logs = (0..n)
            .map(|_| Mutex::new(ShardLog::new(spec.initial_states())))
            .collect();
        let state = Self {
            spec: Arc::new(spec),
            mode,
            ids: OpIdGen::new(),
            next_txn: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            audit: AtomicAudit::new(),
            incremental: AtomicBool::new(true),
            shards: shard_logs,
            committed: Mutex::new(Vec::new()),
            push_stamp: AtomicU64::new(0),
            coarse: AtomicBool::new(false),
            snaps: (0..n).map(|_| SnapCell::new()).collect(),
            metrics: MetricBlock::new(),
            shard_metrics: (0..n).map(|_| MetricBlock::new()).collect(),
            faults: RwLock::new(None),
            faults_armed: AtomicBool::new(false),
            static_facts: RwLock::new(None),
            static_armed: AtomicBool::new(false),
            transport: RwLock::new(None),
            transport_armed: AtomicBool::new(false),
            transport_degraded: (0..n).map(|_| AtomicBool::new(false)).collect(),
            certificate: RwLock::new(None),
            require_certificate: AtomicBool::new(false),
            arming_diags: Mutex::new(Vec::new()),
        };
        state.publish_all_shards();
        state
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// The check mode.
    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// Number of footprint shards the log is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Has the sticky coarse fallback been triggered (an operation with
    /// no single-key footprint was routed at a shard count above one)?
    pub fn coarse_mode(&self) -> bool {
        self.coarse.load(Ordering::SeqCst)
    }

    /// Every metric at this instant: the machine-wide slots plus the sum
    /// of [`Self::shard_metrics`] over all shards. Takes each shard lock
    /// briefly to sample its arena, without tallying the acquisition
    /// (this is a reporting path, not a rule).
    pub fn metrics(&self) -> MetricsSnapshot {
        (0..self.shards.len())
            .map(|i| self.shard_metrics(i))
            .fold(self.metrics.snapshot(), std::ops::Add::add)
    }

    /// Shard `shard`'s own metrics: its lock and snapshot tallies and
    /// its arena occupancy; every machine-wide slot is zero.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below [`Self::shard_count`].
    pub fn shard_metrics(&self, shard: usize) -> MetricsSnapshot {
        let mut m = self.shard_metrics[shard].snapshot();
        let sh = self.shards[shard].lock().expect("shard log mutex poisoned");
        m[Metric::ArenaLive] = sh.arena.live() as u64;
        m[Metric::ArenaCapacity] = sh.arena.capacity() as u64;
        m[Metric::ArenaReused] = sh.arena.reused();
        m
    }

    /// Adds `by` to the machine-wide slot of `metric`. Transport
    /// implementations call this once per logical request
    /// ([`Metric::TransportRequests`]) and per failed or repeated
    /// delivery attempt.
    pub fn count(&self, metric: Metric, by: u64) {
        self.metrics.add(metric, by);
    }

    /// Adds `by` to shard `shard`'s slot of `metric`.
    fn count_shard(&self, shard: usize, metric: Metric, by: u64) {
        self.shard_metrics[shard].add(metric, by);
    }

    /// Publishes shard `idx`'s current snapshot (no-op in coarse mode:
    /// the optimistic path is disabled there, and skipping keeps the
    /// coarse double-check airtight). Call with the shard lock held.
    fn publish_shard(&self, idx: usize, sh: &ShardLog<S>) {
        if self.coarse.load(Ordering::SeqCst) {
            return;
        }
        self.snaps[idx].publish(ShardSnap {
            version: sh.version,
            states: sh.cache.states.clone(),
            suffix: sh.suffix_entries(),
        });
    }

    /// Publishes every shard's snapshot (construction, resharding and
    /// deep-cloning — the per-mutation publishes keep them fresh from
    /// then on).
    fn publish_all_shards(&self) {
        for (i, m) in self.shards.iter().enumerate() {
            let sh = m.lock().expect("shard log mutex poisoned");
            self.publish_shard(i, &sh);
        }
    }

    /// Runs `f` against shard `idx`'s published snapshot without taking
    /// any lock, retrying validation races up to [`SNAP_RETRIES`] times.
    /// `None` means the caller must take the mutex path (and the
    /// fallback was tallied).
    pub(crate) fn read_shard_snap<R>(
        &self,
        idx: usize,
        f: impl FnOnce(&ShardSnap<S>) -> R,
    ) -> Option<R> {
        let out = self.snaps[idx].read(SNAP_RETRIES, f);
        if out.retries > 0 {
            self.count_shard(idx, Metric::SnapRetries, out.retries);
        }
        match out.value {
            Some(v) => {
                self.count_shard(idx, Metric::SnapReads, 1);
                Some(v)
            }
            None => {
                self.note_snap_fallback(idx);
                None
            }
        }
    }

    /// Tallies a snapshot read on shard `idx` whose verdict was
    /// discarded for the mutex path — including one discovered *after* a
    /// successful read (the under-lock version revalidation failed).
    pub(crate) fn note_snap_fallback(&self, idx: usize) {
        self.count_shard(idx, Metric::SnapFallbacks, 1);
    }

    /// Is the incremental `allowed` path enabled — the shard prefix
    /// caches here and each handle's carried local-log denotation?
    pub fn incremental(&self) -> bool {
        self.incremental.load(Ordering::Relaxed)
    }

    /// Switches between incremental and full-replay criteria evaluation.
    /// Both produce identical verdicts and audit counts; the toggle exists
    /// so benchmarks and the golden-trace tests can compare them.
    pub fn set_incremental(&self, on: bool) {
        self.incremental.store(on, Ordering::Relaxed);
    }

    /// A snapshot of the criteria audit.
    pub fn audit_snapshot(&self) -> CriteriaAudit {
        self.audit.snapshot()
    }

    /// Arms (or, with `None`, disarms) the fault-injection hook. The
    /// machine consults it at forward-rule entry; drivers consult it at
    /// tick and HTM boundaries.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        self.faults_armed.store(hook.is_some(), Ordering::Release);
        *self.faults.write().expect("fault hook lock poisoned") = hook;
    }

    /// The armed fault hook, if any.
    pub fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        self.faults
            .read()
            .expect("fault hook lock poisoned")
            .clone()
    }

    /// Installs (or, with `None`, removes) a set of statically proven
    /// obligations. When installed, the mover-loop criteria the proof
    /// covers are elided at runtime and tallied in the audit's
    /// `statically_discharged` column instead of `discharged`; in debug
    /// builds every elided check is still evaluated dynamically and
    /// asserted to pass (the soundness cross-check).
    ///
    /// Under strict mode ([`Self::set_require_certificate`]) a plan that
    /// would arm elision is refused unless a *valid* [`SpecCertificate`]
    /// is installed: the facts are dropped, the machine keeps its exact
    /// dynamic checks (the sound default), and a diagnostic is recorded
    /// in [`Self::arming_diagnostics`].
    pub fn set_static_discharge(&self, facts: Option<Arc<StaticDischarge>>) {
        let armed = facts.as_ref().is_some_and(|f| f.any());
        if armed && self.require_certificate.load(Ordering::SeqCst) && !self.certified() {
            self.note_arming_diag(
                "refused to arm static discharge: strict mode requires a valid \
                 spec certificate and none is installed; keeping exact dynamic checks",
            );
            self.static_armed.store(false, Ordering::Release);
            *self
                .static_facts
                .write()
                .expect("static facts lock poisoned") = None;
            return;
        }
        self.static_armed.store(armed, Ordering::Release);
        *self
            .static_facts
            .write()
            .expect("static facts lock poisoned") = facts;
    }

    /// Installs (or, with `None`, removes) a spec certificate — the
    /// machine-checked verdict that this spec's `method_keys`/
    /// `method_mover` declarations agree with the exhaustively derived
    /// ground truth. Installing an *invalid* certificate (one with
    /// errors) is allowed but arms nothing: strict mode treats it
    /// exactly like no certificate.
    pub fn install_certificate(&self, cert: Option<Arc<SpecCertificate>>) {
        *self.certificate.write().expect("certificate lock poisoned") = cert;
    }

    /// The installed spec certificate, if any.
    pub fn certificate(&self) -> Option<Arc<SpecCertificate>> {
        self.certificate
            .read()
            .expect("certificate lock poisoned")
            .clone()
    }

    /// Is a *valid* certificate installed (present and error-free)?
    pub fn certified(&self) -> bool {
        self.certificate
            .read()
            .expect("certificate lock poisoned")
            .as_ref()
            .is_some_and(|c| c.is_valid())
    }

    /// May an open-nested scope be opened right now? Outside strict mode
    /// the answer is always yes (each operation's inverse is still
    /// checked at the open commit); under strict mode it additionally
    /// demands an installed certificate whose inverse law was proven —
    /// a refusal is recorded in [`Self::arming_diagnostics`].
    pub(crate) fn open_nesting_allowed(&self) -> bool {
        if !self.require_certificate() {
            return true;
        }
        let ok = self
            .certificate
            .read()
            .expect("certificate lock poisoned")
            .as_ref()
            .is_some_and(|c| c.open_nesting_certified());
        if !ok {
            self.note_arming_diag(
                "refused to open an open-nested scope: strict mode requires a valid \
                 spec certificate with a proven inverse law, and none is installed",
            );
        }
        ok
    }

    /// Turns strict certificate-gated arming on or off. Off (the
    /// default) reproduces the historical trust-the-declarations
    /// behaviour bit-identically. On, every unsafe fast path demands a
    /// valid certificate:
    ///
    /// * [`Self::set_static_discharge`] refuses to arm elision;
    /// * fine-grained shard routing (a shard count above one) demotes to
    ///   the sticky coarse path — sound, never wrong, just slower;
    ///
    /// each refusal/demotion recording a diagnostic in
    /// [`Self::arming_diagnostics`]. Turning strict mode on while
    /// already sharded and uncertified demotes immediately.
    pub fn set_require_certificate(&self, on: bool) {
        self.require_certificate.store(on, Ordering::SeqCst);
        if on && self.shard_count() > 1 && !self.certified() && !self.coarse_mode() {
            self.demote_to_coarse(
                "strict mode enabled on an uncertified sharded log: demoting to \
                 coarse routing (all-shard critical sections)",
            );
        }
    }

    /// Is strict certificate-gated arming on?
    pub fn require_certificate(&self) -> bool {
        self.require_certificate.load(Ordering::SeqCst)
    }

    /// The diagnostics recorded by the certificate gate: one line per
    /// refused arming request or coarse demotion, in order.
    pub fn arming_diagnostics(&self) -> Vec<String> {
        self.arming_diags
            .lock()
            .expect("arming diags lock poisoned")
            .clone()
    }

    /// Records one certificate-gate diagnostic.
    fn note_arming_diag(&self, msg: &str) {
        self.arming_diags
            .lock()
            .expect("arming diags lock poisoned")
            .push(msg.to_string());
    }

    /// Sets the sticky coarse flag (SeqCst, same protocol as routing's
    /// own demotion: published snapshots stop being trusted because
    /// every later `acquire_route` re-checks the flag under the lock)
    /// and records why. Sound by the same argument as footprint-less
    /// routing — coarse mode evaluates every criterion against the
    /// whole log.
    pub(crate) fn demote_to_coarse(&self, reason: &str) {
        self.coarse.store(true, Ordering::SeqCst);
        self.note_arming_diag(reason);
    }

    /// The installed static-discharge facts, if any.
    pub fn static_discharge(&self) -> Option<Arc<StaticDischarge>> {
        if !self.static_armed.load(Ordering::Acquire) {
            return None;
        }
        self.static_facts
            .read()
            .expect("static facts lock poisoned")
            .clone()
    }

    /// Installs (or, with `None`, removes) the shard transport that the
    /// routed PUSH/UNPUSH critical sections go through. Without one the
    /// machine behaves bit-identically to the historical in-place locked
    /// path. See [`crate::transport`] for the seam, the robustness
    /// envelope and the degradation ladder.
    pub fn set_transport(&self, t: Option<Arc<dyn ShardTransport<S>>>) {
        self.transport_armed.store(t.is_some(), Ordering::Release);
        *self.transport.write().expect("transport lock poisoned") = t;
        // A fresh transport starts on the fast path everywhere.
        for d in &self.transport_degraded {
            d.store(false, Ordering::Relaxed);
        }
    }

    /// The installed shard transport, if any. One relaxed-ish load when
    /// none is installed (the default).
    pub(crate) fn transport(&self) -> Option<Arc<dyn ShardTransport<S>>> {
        if !self.transport_armed.load(Ordering::Acquire) {
            return None;
        }
        self.transport
            .read()
            .expect("transport lock poisoned")
            .clone()
    }

    /// The installed transport's short name, if any (stats labels).
    pub fn transport_name(&self) -> Option<&'static str> {
        self.transport().map(|t| t.name())
    }

    /// Is `shard` currently degraded to the coarse coordinator path?
    pub(crate) fn is_transport_degraded(&self, shard: usize) -> bool {
        self.transport_degraded[shard].load(Ordering::Acquire)
    }

    /// Marks `shard` degraded; counts the transition exactly once even
    /// when several threads exhaust their envelopes concurrently.
    pub(crate) fn note_transport_degraded(&self, shard: usize) {
        if self.transport_degraded[shard]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.count(Metric::TransportDegradations, 1);
        }
    }

    /// Clears `shard`'s degraded mark after a successful probe; counts
    /// the recovery exactly once per degradation episode.
    pub(crate) fn note_transport_recovery(&self, shard: usize) {
        if self.transport_degraded[shard]
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.count(Metric::TransportRecoveries, 1);
        }
    }

    /// Is the runtime check for `(rule, clause)` statically discharged?
    /// One relaxed-ish load on the fast path when no plan is installed.
    pub(crate) fn statically_discharged(&self, rule: Rule, clause: Clause) -> bool {
        if !self.static_armed.load(Ordering::Acquire) {
            return false;
        }
        self.static_facts
            .read()
            .expect("static facts lock poisoned")
            .as_ref()
            .is_some_and(|f| f.discharges(rule, clause))
    }

    /// Records one injected fault in the audit. The machine calls this
    /// for rule denials; drivers call it when they act on a boundary or
    /// HTM fault, so the audit tallies faults that actually *fired*.
    pub fn note_injected(&self, kind: FaultKind) {
        self.audit.inject(kind);
    }

    /// Consults the hook at the entry of forward rule `rule` on `tid`;
    /// on a denial, records the injected fault and returns the clause
    /// the rule must report.
    pub(crate) fn fault_deny(&self, tid: ThreadId, rule: Rule) -> Option<Clause> {
        let hook = self.fault_hook()?;
        let clause = hook.deny_rule(tid, rule)?;
        self.audit.inject(FaultKind::Deny(rule));
        Some(clause)
    }

    /// Mints the next trace-event sequence number.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Mints a fresh transaction id.
    pub(crate) fn fresh_txn(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Routing and shard-lock acquisition.
    // ------------------------------------------------------------------

    /// Routes `method` under a layout of `n` shards. With one shard
    /// everything is `Single(0)` — the footprints are not consulted, so
    /// a single-shard machine is bit-identical to the historical
    /// single-lock one even for specs with (or without) footprints.
    fn route_in(spec: &S, n: usize, method: &S::Method) -> Route {
        if n == 1 {
            return Route::Single(0);
        }
        match spec.method_keys(method) {
            Some(keys) if keys.len() == 1 => Route::Single((keys[0] % n as u64) as usize),
            _ => Route::Coarse,
        }
    }

    /// Routes `method` under the current shard layout.
    pub(crate) fn route(&self, method: &S::Method) -> Route {
        Self::route_in(&self.spec, self.shards.len(), method)
    }

    /// Locks shard `i`, tallying the acquisition (and whether it had to
    /// wait) in the per-shard lock counters.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, ShardLog<S>> {
        self.count_shard(i, Metric::LockAcquires, 1);
        match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.count_shard(i, Metric::LockContended, 1);
                self.shards[i].lock().expect("shard log mutex poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard log mutex poisoned"),
        }
    }

    /// Locks every shard in ascending index order (the canonical order).
    pub(crate) fn acquire_all(&self) -> LogView<'_, S> {
        LogView {
            shards: (0..self.shards.len())
                .map(|i| (i, self.lock_shard(i)))
                .collect(),
        }
    }

    /// Locks the given shards (sorted, deduplicated, ascending) — the
    /// CMT critical section over exactly the shards a transaction's
    /// operations touch. An empty set yields an empty view (a commit
    /// with nothing in `G` to flip).
    pub(crate) fn acquire_shards(&self, mut indices: Vec<usize>) -> LogView<'_, S> {
        indices.sort_unstable();
        indices.dedup();
        LogView {
            shards: indices
                .into_iter()
                .map(|i| (i, self.lock_shard(i)))
                .collect(),
        }
    }

    /// The critical section for a routed PUSH/UNPUSH: one shard on the
    /// fast path, all shards once the sticky coarse flag is (or gets)
    /// set. The flag is stored *before* any lock is acquired and
    /// re-checked after a single-shard acquisition, so a coarse append
    /// can never be missed by a concurrent single-shard evaluation.
    pub(crate) fn acquire_route(&self, route: Route) -> LogView<'_, S> {
        match route {
            Route::Coarse => {
                self.coarse.store(true, Ordering::SeqCst);
                self.acquire_all()
            }
            Route::Single(i) => {
                if self.coarse.load(Ordering::SeqCst) {
                    return self.acquire_all();
                }
                let guard = self.lock_shard(i);
                if self.coarse.load(Ordering::SeqCst) {
                    drop(guard);
                    self.acquire_all()
                } else {
                    LogView {
                        shards: vec![(i, guard)],
                    }
                }
            }
        }
    }

    /// Locates and snapshots a global entry by id, locking one shard at
    /// a time in ascending order (the PULL snapshot — never holds two
    /// locks at once).
    pub(crate) fn find_entry(&self, id: OpId) -> Option<GlobalEntry<S::Method, S::Ret>> {
        for i in 0..self.shards.len() {
            let sh = self.lock_shard(i);
            if let Some(e) = sh.entry(id) {
                return Some(e.clone());
            }
        }
        None
    }

    /// Appends `op` to shard `target` inside the held view, minting its
    /// commit-sequence stamp under the shard lock (the PUSH effect), and
    /// republishes the shard's snapshot. `target` is the routed shard
    /// ([`Route::target`]) — the degraded coarse path passes it through
    /// unchanged, so placement survives degradation and healing.
    pub(crate) fn append_push(
        &self,
        view: &mut LogView<'_, S>,
        target: usize,
        op: Op<S::Method, S::Ret>,
    ) {
        let stamp = self.push_stamp.fetch_add(1, Ordering::Relaxed);
        self.append_push_stamped(view, target, stamp, op);
    }

    /// [`Self::append_push`] with the commit-sequence stamp supplied by
    /// the caller: the group-commit path reserves a contiguous stamp
    /// block with [`Self::reserve_stamps`] (under the shard lock) and
    /// hands the stamps out one append at a time.
    pub(crate) fn append_push_stamped(
        &self,
        view: &mut LogView<'_, S>,
        target: usize,
        stamp: u64,
        op: Op<S::Method, S::Ret>,
    ) {
        let (_, sh) = view
            .shards
            .iter_mut()
            .find(|(i, _)| *i == target)
            .expect("append target shard is held by the view");
        sh.push_uncommitted(stamp, op);
        sh.version += 1;
        self.publish_shard(target, sh);
    }

    /// Reserves a contiguous block of `n` commit-sequence stamps and
    /// returns its base. Must be called while holding the destination
    /// shard's lock: every stamp already in that shard is then strictly
    /// below the reserved base, so appends from the block preserve the
    /// shard's strictly-increasing stamp order.
    pub(crate) fn reserve_stamps(&self, n: u64) -> u64 {
        self.push_stamp.fetch_add(n, Ordering::Relaxed)
    }

    /// Removes the entry `id` from the held shard at `view index` (the
    /// UNPUSH effect): recycles its arena slot, maintains the prefix
    /// cache (a removal inside the cached prefix — impossible through
    /// the rule API — resets it defensively), bumps the shard version
    /// and republishes the snapshot.
    pub(crate) fn remove_push(
        &self,
        view: &mut LogView<'_, S>,
        vidx: usize,
        id: OpId,
    ) -> Option<RemovedEntry<S>> {
        let (idx, sh) = &mut view.shards[vidx];
        let removed = sh.remove_by_id(id)?;
        if removed.0 < sh.cache.len {
            sh.cache.reset(self.spec.initial_states());
        }
        sh.version += 1;
        let shard_idx = *idx;
        self.publish_shard(shard_idx, sh);
        Some(removed)
    }

    /// Appends a committed-transaction record. Called while still holding
    /// the commit's shard locks, so the global commit order agrees with
    /// the per-shard flip order (`committed` is last in the lock order).
    pub(crate) fn push_committed(&self, txn: CommittedTxn<S::Method, S::Ret>) {
        self.committed
            .lock()
            .expect("committed list mutex poisoned")
            .push(txn);
    }

    /// Committed transactions in global commit order.
    pub fn committed_txns(&self) -> Vec<CommittedTxn<S::Method, S::Ret>> {
        self.committed
            .lock()
            .expect("committed list mutex poisoned")
            .clone()
    }

    /// A snapshot of the whole shared log `G`, merged across shards in
    /// commit-stamp order — with one shard, exactly the historical log
    /// order.
    pub fn global_snapshot(&self) -> GlobalLog<S::Method, S::Ret> {
        let view = self.acquire_all();
        let entries = view.stamped().map(|(_, e)| e.clone()).collect();
        GlobalLog::from_entries(entries)
    }

    // ------------------------------------------------------------------
    // Audited primitive queries (the audit counts queries, not replays,
    // so the incremental path is invisible to it by construction).
    // ------------------------------------------------------------------

    /// Mover query with audit accounting; `shard` attributes the count
    /// (an audit stripe, unrelated to the log shards).
    pub(crate) fn mover_q(
        &self,
        shard: usize,
        a: &Op<S::Method, S::Ret>,
        b: &Op<S::Method, S::Ret>,
    ) -> bool {
        self.audit.count_mover(shard);
        self.spec.mover(a, b)
    }

    /// `G allows op` (PUSH criterion (iii)). A single-shard view replays
    /// only the uncommitted suffix past that shard's cache (when the
    /// incremental path is on); a multi-shard view replays the merged
    /// stamp-ordered log in full. One audited query either way.
    pub(crate) fn g_allows(
        &self,
        view: &LogView<'_, S>,
        shard: usize,
        op: &Op<S::Method, S::Ret>,
    ) -> bool {
        self.audit.count_allowed(shard);
        let states = if view.is_single() {
            let sh = &view.shards[0].1;
            if self.incremental() {
                self.suffix_states(sh, None)
            } else {
                self.spec.denote_refs(sh.iter().map(|e| &e.op))
            }
        } else {
            self.spec.denote_refs(view.stamped().map(|(_, e)| &e.op))
        };
        !self
            .spec
            .denote_from(&states, std::slice::from_ref(op))
            .is_empty()
    }

    /// Unaudited variant of [`GlobalState::g_allows`] evaluated against
    /// a published [`ShardSnap`] — the zero-lock criterion (iii). The
    /// snapshot's prefix denotation plus its suffix replay is exactly
    /// the incremental single-shard computation, so the verdict agrees
    /// bit-for-bit with what the locked path would conclude at the
    /// snapshot's version.
    pub(crate) fn snap_allows(&self, snap: &ShardSnap<S>, op: &Op<S::Method, S::Ret>) -> bool {
        let states = self
            .spec
            .denote_from_refs(&snap.states, snap.suffix.iter().map(|e| &e.op));
        !self
            .spec
            .denote_from(&states, std::slice::from_ref(op))
            .is_empty()
    }

    /// `allowed (G ∖ skip)` (UNPUSH criterion (ii)). `skip` is an
    /// uncommitted entry, so on the single-shard path it lies past the
    /// cache boundary; if it ever does not (unreachable through the rule
    /// API), fall back to a full replay. Multi-shard views replay the
    /// merged log without `skip`.
    pub(crate) fn g_allowed_without(
        &self,
        view: &LogView<'_, S>,
        shard: usize,
        skip: OpId,
    ) -> bool {
        self.audit.count_allowed(shard);
        if view.is_single() {
            let sh = &view.shards[0].1;
            let in_suffix = sh.position(skip).is_none_or(|p| p >= sh.cache.len);
            if self.incremental() && in_suffix {
                !self.suffix_states(sh, Some(skip)).is_empty()
            } else {
                !self
                    .spec
                    .denote_refs(sh.iter().filter(|e| e.op.id != skip).map(|e| &e.op))
                    .is_empty()
            }
        } else {
            !self
                .spec
                .denote_refs(
                    view.stamped()
                        .filter(|(_, e)| e.op.id != skip)
                        .map(|(_, e)| &e.op),
                )
                .is_empty()
        }
    }

    /// `⟦G_i⟧` (optionally skipping one suffix entry), from the shard's
    /// cached committed-prefix denotation — cursor-backed, no collected
    /// `Vec`.
    fn suffix_states(&self, sh: &ShardLog<S>, skip: Option<OpId>) -> HashSet<S::State> {
        self.spec.denote_from_refs(
            &sh.cache.states,
            sh.iter_from(sh.cache.len)
                .filter(move |e| Some(e.op.id) != skip)
                .map(|e| &e.op),
        )
    }

    // ------------------------------------------------------------------
    // Cache maintenance (called under the shard locks).
    // ------------------------------------------------------------------

    /// Advances one shard's cache over its newly committed prefix.
    fn advance_shard_cache(spec: &S, sh: &mut ShardLog<S>) {
        loop {
            if sh.cache.len >= sh.len() {
                break;
            }
            let next = {
                let e = sh.entry_at(sh.cache.len);
                if e.flag != GlobalFlag::Committed {
                    break;
                }
                spec.denote_from_refs(&sh.cache.states, std::iter::once(&e.op))
            };
            sh.cache.states = next;
            sh.cache.len += 1;
        }
    }

    /// Advances every held shard's cache and republishes its snapshot
    /// (after CMT — the commit flips already bumped the versions of the
    /// shards they touched, via [`LogView::commit_local`]).
    pub(crate) fn advance_caches(&self, view: &mut LogView<'_, S>) {
        for (idx, sh) in &mut view.shards {
            Self::advance_shard_cache(&self.spec, sh);
            let shard_idx = *idx;
            self.publish_shard(shard_idx, sh);
        }
    }

    /// Rebuilds this state under a layout of `n` shards: every entry is
    /// re-routed by its method's footprint, stamps and the commit order
    /// are preserved, per-shard caches are re-seeded and advanced, and
    /// the coarse flag is recomputed from the entries actually present.
    /// Used by [`Machine::set_log_shards`](crate::machine::Machine::set_log_shards).
    pub(crate) fn rebuilt_with_shards(&self, n: usize) -> Self {
        let n = n.max(1);
        let mut stamped: Vec<StampedEntry<S>> = Vec::new();
        for m in &self.shards {
            let sh = m.lock().expect("shard log mutex poisoned");
            for (stamp, e) in sh.iter_stamped() {
                stamped.push((stamp, e.clone()));
            }
        }
        stamped.sort_by_key(|(s, _)| *s);

        let mut per: Vec<Vec<StampedEntry<S>>> = (0..n).map(|_| Vec::new()).collect();
        let mut coarse = false;
        for (stamp, entry) in stamped {
            let route = Self::route_in(&self.spec, n, &entry.op.method);
            if route == Route::Coarse {
                coarse = true;
            }
            per[route.target()].push((stamp, entry));
        }
        let shards: Vec<Mutex<ShardLog<S>>> = per
            .into_iter()
            .map(|seg| {
                let mut sh = ShardLog::from_stamped(seg, self.spec.initial_states());
                Self::advance_shard_cache(&self.spec, &mut sh);
                Mutex::new(sh)
            })
            .collect();
        let state = Self {
            spec: Arc::clone(&self.spec),
            mode: self.mode,
            ids: self.ids.clone(),
            next_txn: AtomicU64::new(self.next_txn.load(Ordering::Relaxed)),
            seq: AtomicU64::new(self.seq.load(Ordering::Relaxed)),
            audit: self.audit.clone(),
            incremental: AtomicBool::new(self.incremental()),
            shards,
            committed: Mutex::new(self.committed_txns()),
            push_stamp: AtomicU64::new(self.push_stamp.load(Ordering::Relaxed)),
            coarse: AtomicBool::new(coarse),
            snaps: (0..n).map(|_| SnapCell::new()).collect(),
            metrics: self.metrics.clone(),
            shard_metrics: (0..n).map(|_| MetricBlock::new()).collect(),
            faults: RwLock::new(self.fault_hook()),
            faults_armed: AtomicBool::new(self.faults_armed.load(Ordering::Acquire)),
            static_facts: RwLock::new(self.static_discharge()),
            static_armed: AtomicBool::new(self.static_armed.load(Ordering::Acquire)),
            // The transport detaches on resharding: it is bound to the
            // old state's shard layout (server threads, degraded marks).
            // `Machine::set_log_shards` documents that a transport must
            // be re-installed after resharding.
            transport: RwLock::new(None),
            transport_armed: AtomicBool::new(false),
            transport_degraded: (0..n).map(|_| AtomicBool::new(false)).collect(),
            certificate: RwLock::new(self.certificate()),
            require_certificate: AtomicBool::new(self.require_certificate.load(Ordering::SeqCst)),
            arming_diags: Mutex::new(self.arming_diagnostics()),
        };
        state.publish_all_shards();
        state
    }

    /// A deep copy with its own generators, audit and log state — used by
    /// [`Machine::clone`](crate::machine::Machine), which re-points every
    /// handle at the copy so clones share nothing (the property the model
    /// checker's branching relies on).
    pub(crate) fn deep_clone(&self) -> Self {
        let state = Self {
            spec: Arc::clone(&self.spec),
            mode: self.mode,
            ids: self.ids.clone(),
            next_txn: AtomicU64::new(self.next_txn.load(Ordering::Relaxed)),
            seq: AtomicU64::new(self.seq.load(Ordering::Relaxed)),
            audit: self.audit.clone(),
            incremental: AtomicBool::new(self.incremental()),
            shards: self
                .shards
                .iter()
                .map(|m| Mutex::new(m.lock().expect("shard log mutex poisoned").clone()))
                .collect(),
            committed: Mutex::new(self.committed_txns()),
            push_stamp: AtomicU64::new(self.push_stamp.load(Ordering::Relaxed)),
            coarse: AtomicBool::new(self.coarse.load(Ordering::SeqCst)),
            snaps: (0..self.shards.len()).map(|_| SnapCell::new()).collect(),
            metrics: self.metrics.clone(),
            shard_metrics: self.shard_metrics.clone(),
            faults: RwLock::new(self.fault_hook()),
            faults_armed: AtomicBool::new(self.faults_armed.load(Ordering::Acquire)),
            static_facts: RwLock::new(self.static_discharge()),
            static_armed: AtomicBool::new(self.static_armed.load(Ordering::Acquire)),
            // The transport holds a `Weak` back-reference to *its*
            // global state, so a deep clone cannot share it: the clone
            // starts transport-less (the caller re-installs one if it
            // wants the seam).
            transport: RwLock::new(None),
            transport_armed: AtomicBool::new(false),
            transport_degraded: self
                .transport_degraded
                .iter()
                .map(|d| AtomicBool::new(d.load(Ordering::Acquire)))
                .collect(),
            certificate: RwLock::new(self.certificate()),
            require_certificate: AtomicBool::new(self.require_certificate.load(Ordering::SeqCst)),
            arming_diags: Mutex::new(self.arming_diagnostics()),
        };
        state.publish_all_shards();
        state
    }
}
