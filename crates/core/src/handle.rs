//! The per-thread half of the split machine: [`TxnHandle`] owns one
//! thread's code, stack and local log `L`, and runs the seven rules of
//! Figure 5 against a shared [`GlobalState`].
//!
//! ## Lock discipline (the point of the split)
//!
//! * **APP / UNAPP** touch only this handle and the global *atomics*
//!   (fresh ids, audit counters, trace sequence numbers) — they never
//!   acquire the shared-log mutex, so thread-local steps run genuinely in
//!   parallel.
//! * **PUSH / UNPUSH** evaluate their criteria-over-`G` and apply their
//!   effect inside one short critical section on *their operation's
//!   footprint shard* (every shard, ascending, for coarse-routed
//!   operations) — criteria and effect are atomic, which is what
//!   Theorem 5.17's per-rule reasoning needs. **CMT** locks exactly the
//!   shards its pushed/pulled operations touch, in canonical ascending
//!   order.
//! * **PULL** locks one shard at a time, only long enough to locate and
//!   snapshot the pulled entry; its criteria and effect are local. The
//!   batched snapshot [`TxnHandle::pull_committed`] reads all its
//!   committed candidates in one critical section over every shard.
//!   **UNPULL** is entirely local.
//!
//! Trace events are buffered per handle, stamped with a global atomic
//! sequence number; [`Machine::trace`](crate::machine::Machine::trace)
//! merges the buffers into one totally ordered trace.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use crate::audit::QUERY_SHARDS;
use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::faults::{BoundaryFault, FaultKind, HtmFault};
use crate::global::{CommittedTxn, GlobalState, LogView, Route, TxnKind};
use crate::lang::Code;
use crate::log::{GlobalEntry, GlobalFlag, GlobalLog, LocalEntry, LocalFlag, LocalLog};
use crate::machine::{CheckMode, StepOptions};
use crate::metrics::Metric;
use crate::op::{Op, OpId, ThreadId, TxnId};
use crate::scope::{Compensation, ScopeFrame, ScopeKind, ScopeOrigin};
use crate::spec::{OpInverse, SeqSpec};
use crate::trace::Event;
use crate::transport::{FallbackMode, ShardRequest, ShardResponse, ShardTransport, TransportError};

/// A trace event stamped with its global sequence number.
pub(crate) type StampedEvent<S> = (u64, Event<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>);

/// Events per trace-buffer chunk. A handle that pulls every committed op
/// records O(history) events per transaction; one doubling `Vec` of them
/// reallocates and copies megabyte blocks, and freeing those raises the
/// allocator's large-block threshold and fragments its heap. Chunks of
/// this size stay far below that threshold and are never copied.
const EVENT_CHUNK: usize = 1024;

/// A PUSH criteria verdict speculated lock-free from a shard snapshot,
/// carrying the audit tallies buffered during evaluation. A failed
/// criterion flushes immediately (denial is always safe); a pass is
/// flushed only after the shard version revalidates under the append
/// lock — a stale pass is discarded wholesale and the audited locked
/// evaluation re-runs, keeping the ledger exact.
struct SnapVerdict {
    /// Snapshot version the verdict is valid for.
    version: u64,
    /// Buffered mover-oracle consultations from criterion (ii).
    movers: u64,
    /// Criterion (ii) was statically discharged (no queries; flushes as
    /// `pass_static`).
    static_ii: bool,
}

/// Criterion-evaluation tallies recorded locally by the group-commit
/// batch helpers, mirroring the audit columns at the same program
/// points. [`crate::group::commit_group`] re-asserts the ledger-closure
/// equation `discharged + violated + statically_discharged == reaches`
/// over them at the end of every batch (debug builds) — local tallies,
/// so the assertion cannot race other threads' audit traffic.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BatchTally {
    /// Criterion evaluations the batch path reached.
    pub(crate) reached: u64,
    /// ... that passed (audited `discharged`).
    pub(crate) discharged: u64,
    /// ... that failed (audited `violated`).
    pub(crate) violated: u64,
    /// ... elided by a static proof (audited `statically_discharged`).
    pub(crate) statically_discharged: u64,
}

impl BatchTally {
    /// Debug-build re-assertion of the audit ledger closure on the
    /// batched append path (a no-op in release builds).
    pub(crate) fn assert_closed(&self) {
        debug_assert_eq!(
            self.reached,
            self.discharged + self.violated + self.statically_discharged,
            "batched append broke the ledger closure: \
             {} reaches vs {} discharged + {} violated + {} static",
            self.reached,
            self.discharged,
            self.violated,
            self.statically_discharged,
        );
    }
}

/// The incremental denotation of the local log `L` — the local twin of
/// the shared log's `PrefixCache` (DESIGN.md §5). Only the handle's
/// local-log mutators ([`TxnHandle::local_append`],
/// [`TxnHandle::local_remove`], [`TxnHandle::reset_txn_state`]) touch
/// `L`, and each keeps this right.
#[derive(Debug, Clone)]
struct LocalDenotation<St> {
    /// `⟦L⟧`, when known. A removal drops it (a denotation cannot be
    /// stepped backwards); the next query replays `L` in full once.
    tip: Option<HashSet<St>>,
    /// Length of the longest prefix of `L` known to be allowed. Prefix
    /// closure makes every shorter prefix allowed too.
    known_allowed: usize,
}

impl<St> LocalDenotation<St> {
    /// The cache of an empty log: `⟦ε⟧` is computed on first use.
    fn empty() -> Self {
        Self {
            tip: None,
            known_allowed: 0,
        }
    }
}

/// A thread `{c, σ, L}` plus its queue of future transactions, bound to
/// the machine's shared [`GlobalState`].
///
/// A handle is the unit of parallelism: give each OS worker `&mut` access
/// to its own handle and every APP/UNAPP proceeds without any global
/// lock, while the shared rules serialize only on the short
/// [`GlobalState`] critical section.
#[derive(Debug)]
pub struct TxnHandle<S: SeqSpec> {
    global: Arc<GlobalState<S>>,
    tid: ThreadId,
    /// Current transaction instance id.
    txn: TxnId,
    /// Remaining code of the current transaction (`None` once all
    /// transactions have completed — the paper's MS_END).
    code: Option<Code<S::Method>>,
    /// The original `tx c` body, for rewinds and the atomic oracle (`otx`).
    original: Code<S::Method>,
    /// Observation history of the current transaction (the stack σ).
    stack: Vec<(S::Method, S::Ret)>,
    /// The local log `L`.
    local: LocalLog<S::Method, S::Ret>,
    /// The incremental denotation of `local`.
    denot: LocalDenotation<S::State>,
    /// The stack of nested scopes in flight over `local` (innermost
    /// last): frame `k` owns the log suffix from its `base_len`.
    frames: Vec<ScopeFrame<S>>,
    /// Compensations registered by committed open-nested children,
    /// pending until their owning scope resolves (chronological order).
    comps: Vec<Compensation<S>>,
    /// Open-nested children committed by the *current* transaction —
    /// when non-zero the committed record's code strips `otx` bodies
    /// (they committed separately and are absent from the parent's own
    /// operations).
    open_children: u64,
    /// Did any of those children come from an *explicit* (non-syntactic)
    /// open scope? Then no `otx` marker exists to strip, and the
    /// committed record's code falls back to the straight-line sequence
    /// of the parent's own operations.
    explicit_open: bool,
    /// Transactions not yet started.
    pending: VecDeque<Code<S::Method>>,
    /// Commits performed by this thread.
    commits: u64,
    /// Aborts performed by this thread.
    aborts: u64,
    /// Sequence-stamped trace events recorded by this thread, in
    /// chunks of at most [`EVENT_CHUNK`].
    events: Vec<Vec<StampedEvent<S>>>,
}

impl<S: SeqSpec> TxnHandle<S> {
    /// Creates a handle running `programs` as a sequence of transactions.
    /// The first transaction begins immediately (recording a `Begin`).
    pub(crate) fn new(
        global: Arc<GlobalState<S>>,
        tid: ThreadId,
        programs: Vec<Code<S::Method>>,
    ) -> Self {
        let mut pending: VecDeque<Code<S::Method>> = programs.into();
        let (code, original) = match pending.pop_front() {
            Some(c) => (Some(c.clone()), c),
            None => (None, Code::Skip),
        };
        let txn = global.fresh_txn();
        let mut h = Self {
            global,
            tid,
            txn,
            code,
            original,
            stack: Vec::new(),
            local: LocalLog::new(),
            denot: LocalDenotation::empty(),
            frames: Vec::new(),
            comps: Vec::new(),
            open_children: 0,
            explicit_open: false,
            pending,
            commits: 0,
            aborts: 0,
            events: Vec::new(),
        };
        if h.code.is_some() {
            h.record(Event::Begin { thread: tid, txn });
        }
        h
    }

    /// A deep copy bound to `global` — used by
    /// [`Machine::clone`](crate::machine::Machine), which re-points every
    /// handle at the cloned shared state so clones share nothing.
    pub(crate) fn clone_with(&self, global: Arc<GlobalState<S>>) -> Self {
        Self {
            global,
            tid: self.tid,
            txn: self.txn,
            code: self.code.clone(),
            original: self.original.clone(),
            stack: self.stack.clone(),
            local: self.local.clone(),
            denot: self.denot.clone(),
            frames: self.frames.clone(),
            comps: self.comps.clone(),
            open_children: self.open_children,
            explicit_open: self.explicit_open,
            pending: self.pending.clone(),
            commits: self.commits,
            aborts: self.aborts,
            events: self.events.clone(),
        }
    }

    /// Re-points this handle at a rebuilt shared state — used by
    /// [`Machine::set_log_shards`](crate::machine::Machine::set_log_shards)
    /// after resharding the global log.
    pub(crate) fn rebind(&mut self, global: Arc<GlobalState<S>>) {
        self.global = global;
    }

    // ------------------------------------------------------------------
    // Accessors (source-compatible with the old `Thread`).
    // ------------------------------------------------------------------

    /// The thread this handle drives.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The current transaction instance id (the root transaction of the
    /// scope stack).
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The transaction id new operations are applied under: the
    /// innermost *open* scope's child transaction, or the root
    /// transaction when no open scope is in flight.
    pub fn current_txn(&self) -> TxnId {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.txn)
            .unwrap_or(self.txn)
    }

    /// Nesting depth: how many scopes are currently open (0 = only the
    /// root transaction).
    pub fn scope_depth(&self) -> usize {
        self.frames.len()
    }

    /// Compensations currently registered with still-unresolved scopes
    /// (committed open-nested children whose enclosers have not yet
    /// committed or aborted).
    pub fn pending_compensations(&self) -> usize {
        self.comps.len()
    }

    /// The remaining code, if a transaction is active.
    pub fn code(&self) -> Option<&Code<S::Method>> {
        self.code.as_ref()
    }

    /// The original body of the current transaction (the paper's `otx`).
    pub fn original(&self) -> &Code<S::Method> {
        &self.original
    }

    /// The observation history (stack σ) of the current transaction.
    pub fn stack(&self) -> &[(S::Method, S::Ret)] {
        &self.stack
    }

    /// The local log `L`.
    pub fn local(&self) -> &LocalLog<S::Method, S::Ret> {
        &self.local
    }

    /// Has this thread completed all of its transactions?
    pub fn is_done(&self) -> bool {
        self.code.is_none() && self.pending.is_empty()
    }

    /// Number of committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Number of aborted transaction attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// The shared half this handle is bound to.
    pub fn global_state(&self) -> &Arc<GlobalState<S>> {
        &self.global
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        self.global.spec()
    }

    /// A snapshot of the shared log `G`, merged across the footprint
    /// shards in commit-stamp order (one short critical section over all
    /// shard locks).
    pub fn global_snapshot(&self) -> GlobalLog<S::Method, S::Ret> {
        self.global.global_snapshot()
    }

    /// This handle's buffered `(seq, event)` pairs.
    pub(crate) fn events(&self) -> impl Iterator<Item = &StampedEvent<S>> + '_ {
        self.events.iter().flatten()
    }

    fn record(&mut self, event: Event<S::Method, S::Ret>) {
        let seq = self.global.next_seq();
        match self.events.last_mut() {
            Some(chunk) if chunk.len() < EVENT_CHUNK => chunk.push((seq, event)),
            _ => self.events.push(vec![(seq, event)]),
        }
    }

    /// The audit shard this thread's query counts land in.
    fn shard(&self) -> usize {
        self.tid.0 % QUERY_SHARDS
    }

    fn mode(&self) -> CheckMode {
        self.global.mode()
    }

    /// Consults the armed fault hook at the entry of forward rule
    /// `rule`: an injected denial surfaces as an ordinary criterion
    /// failure (the rule has had no effect yet), recorded in the
    /// audit's `injected` tally rather than `violated`.
    fn fault_gate(&self, rule: Rule) -> MachineResult<()> {
        if let Some(clause) = self.global.fault_deny(self.tid, rule) {
            return Err(MachineError::criterion(
                rule,
                clause,
                format!("injected fault: {rule} denied"),
            ));
        }
        Ok(())
    }

    /// Consults the armed fault hook at a tick boundary. A returned
    /// fault is recorded as fired; the caller must act on it (abort the
    /// transaction for [`BoundaryFault::Kill`], park the thread for
    /// [`BoundaryFault::Stall`]).
    pub fn fault_at_boundary(&self) -> Option<BoundaryFault> {
        let fault = self.global.fault_hook()?.at_boundary(self.tid)?;
        self.global.note_injected(match fault {
            BoundaryFault::Kill => FaultKind::Kill,
            BoundaryFault::Stall(_) => FaultKind::Stall,
        });
        Some(fault)
    }

    /// Consults the armed fault hook at a simulated-HTM access. A
    /// returned fault is recorded as fired; the caller must abort the
    /// hardware transaction accordingly.
    pub fn fault_at_htm_access(&self) -> Option<HtmFault> {
        let fault = self.global.fault_hook()?.htm_access(self.tid)?;
        self.global.note_injected(match fault {
            HtmFault::Capacity => FaultKind::HtmCapacity,
            HtmFault::Conflict => FaultKind::HtmConflict,
        });
        Some(fault)
    }

    fn active_code(&self) -> MachineResult<&Code<S::Method>> {
        self.code
            .as_ref()
            .ok_or(MachineError::ThreadFinished(self.tid))
    }

    /// Enqueues another transaction body; restarts the thread with a
    /// fresh transaction id if it had finished.
    pub fn enqueue(&mut self, program: Code<S::Method>) {
        if self.code.is_none() && self.pending.is_empty() {
            // Thread was done: restart it with this program.
            self.code = Some(program.clone());
            self.original = program;
            let txn = self.global.fresh_txn();
            self.txn = txn;
            let tid = self.tid;
            self.record(Event::Begin { thread: tid, txn });
        } else {
            self.pending.push_back(program);
        }
    }

    /// `step(c)` for the current code: every next reachable method with
    /// its continuation.
    pub fn step_options(&self) -> MachineResult<StepOptions<S::Method>> {
        Ok(self.active_code()?.step())
    }

    /// `fin(c)` for the current code.
    pub fn can_finish(&self) -> MachineResult<bool> {
        Ok(self.active_code()?.fin())
    }

    /// Return values `r` such that the local log allows `⟨m, r⟩`
    /// (APP criterion (ii) candidates).
    pub fn allowed_results(&self, method: &S::Method) -> MachineResult<Vec<S::Ret>> {
        let spec = self.global.spec();
        let replayed;
        let states = match &self.denot.tip {
            Some(tip) if self.global.incremental() => tip,
            _ => {
                replayed = self.replay_local();
                &replayed
            }
        };
        let mut out: Vec<S::Ret> = Vec::new();
        for s in states {
            for r in spec.results(s, method) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        // Filter to those actually allowed from the full state set.
        out.retain(|r| {
            let op = Op::new(OpId(u64::MAX), self.txn, method.clone(), r.clone());
            !spec
                .denote_from(states, std::slice::from_ref(&op))
                .is_empty()
        });
        Ok(out)
    }

    /// The first allowed return value of `method` — APP's choice of σ₂
    /// in the settling executors, read off the carried `⟦L⟧`.
    fn first_allowed_result(&mut self, method: &S::Method) -> MachineResult<S::Ret> {
        if self.global.incremental() {
            self.ensure_tip();
        }
        self.allowed_results(method)?
            .into_iter()
            .next()
            .ok_or(MachineError::NoAllowedResult(self.tid))
    }

    // ------------------------------------------------------------------
    // The local log and its incremental denotation. Every mutation of
    // `L` goes through `local_append`, `local_remove` or
    // `reset_txn_state`, which keep `denot` right.
    // ------------------------------------------------------------------

    /// `⟦L⟧` by full replay from the initial states.
    fn replay_local(&self) -> HashSet<S::State> {
        self.global
            .spec()
            .denote_refs(self.local.iter().map(|e| &e.op))
    }

    /// Makes the carried tip valid: one full replay after a removal
    /// dropped it.
    fn ensure_tip(&mut self) {
        if self.denot.tip.is_none() {
            let states = self.replay_local();
            if !states.is_empty() {
                self.denot.known_allowed = self.local.len();
            }
            self.denot.tip = Some(states);
        }
    }

    /// `L allows op` (APP and PULL criterion (ii)), one audited
    /// `allowed` query. Returns `⟦L·op⟧` when non-empty, for
    /// [`Self::local_append`] to carry as the new tip. Incrementally this
    /// is one `denote_from(⟦L⟧, [op])` step; with
    /// `set_incremental(false)` `⟦L⟧` is replayed in full first.
    fn local_allows(&mut self, op: &Op<S::Method, S::Ret>) -> Option<HashSet<S::State>> {
        self.global.audit.count_allowed(self.shard());
        let replayed;
        let states = if self.global.incremental() {
            self.ensure_tip();
            self.denot.tip.as_ref().expect("ensured above")
        } else {
            replayed = self.replay_local();
            &replayed
        };
        let next = self
            .global
            .spec()
            .denote_from(states, std::slice::from_ref(op));
        (!next.is_empty()).then_some(next)
    }

    /// `allowed (L ∖ L[pos])` (UNPULL criterion (i)), one audited
    /// `allowed` query. Dropping the last entry when the rest is a prefix
    /// known to be allowed passes in O(1); any other removal, and every
    /// removal with `set_incremental(false)`, replays in full.
    fn local_allowed_without(&self, pos: usize) -> bool {
        self.global.audit.count_allowed(self.shard());
        if self.global.incremental()
            && pos + 1 == self.local.len()
            && self.denot.known_allowed >= pos
        {
            return true;
        }
        let rest = self.local.iter().enumerate().filter(|&(i, _)| i != pos);
        !self
            .global
            .spec()
            .denote_refs(rest.map(|(_, e)| &e.op))
            .is_empty()
    }

    /// Appends `entry` to `L`. `next` is `⟦L·op⟧` from the criterion
    /// check that admitted it; `None` (an unchecked append) drops the tip.
    fn local_append(
        &mut self,
        entry: LocalEntry<S::Method, S::Ret>,
        next: Option<HashSet<S::State>>,
    ) {
        self.local.push_entry(entry);
        if next.is_some() {
            self.denot.known_allowed = self.local.len();
        }
        self.denot.tip = next;
    }

    /// Removes and returns `L[pos]`. The tip is dropped; only the prefix
    /// below `pos` is still known to be allowed.
    fn local_remove(&mut self, pos: usize) -> LocalEntry<S::Method, S::Ret> {
        self.denot.tip = None;
        self.denot.known_allowed = self.denot.known_allowed.min(pos);
        self.local.remove_at(pos)
    }

    // ------------------------------------------------------------------
    // Nested transaction scopes (§6.2 checkpoints + open nesting).
    //
    // A scope is a frame over a *suffix* of the flat local log: entries
    // at index ≥ `base_len` belong to it. Closed scopes merge into the
    // parent on commit and rewind only their suffix on abort; open
    // scopes commit straight to `G` as their own transaction and leave
    // a compensating inverse program with the parent.
    // ------------------------------------------------------------------

    /// Opens a nested scope of the given kind over the current
    /// transaction. Returns the scope's base position in the local log.
    ///
    /// # Errors
    ///
    /// [`MachineError::ThreadFinished`] when no transaction is active.
    pub fn begin_nested(&mut self, kind: ScopeKind) -> MachineResult<usize> {
        self.enter_scope(kind, ScopeOrigin::Explicit)
    }

    /// Opens an explicit *checkpoint*: a closed marker scope at the
    /// current local-log position, for later
    /// [`Self::abort_to_checkpoint`]. Returns the checkpoint position.
    pub fn begin_checkpoint(&mut self) -> MachineResult<usize> {
        self.enter_scope(ScopeKind::Closed, ScopeOrigin::Explicit)
    }

    /// Makes the scope structure catch up with the program syntax:
    /// exits finished peeled scopes and enters peelable `tx`/`otx`
    /// redexes until the code settles. The settling executors
    /// ([`Self::app_method`], [`Self::app_auto`], [`Self::commit`]) do
    /// this implicitly; drivers that pick raw steps themselves via
    /// [`Self::step_options`] + [`Self::app`] call it once per tick to
    /// get the same scope-aware behavior (it is a no-op on code with no
    /// scope redex, and entering/exiting an empty closed scope emits no
    /// events, so flat traces are unchanged).
    pub fn settle(&mut self) -> MachineResult<()> {
        self.settle_scopes()
    }

    fn enter_scope(
        &mut self,
        kind: ScopeKind,
        origin: ScopeOrigin<S::Method>,
    ) -> MachineResult<usize> {
        self.active_code()?;
        // Strict certificate mode gates open nesting at *entry*: a
        // parent abort must be able to trust the registered
        // compensations, so the inverse law has to be machine-proven
        // before any open child runs (per-op verdicts at the open
        // commit remain in force either way).
        if kind == ScopeKind::Open && !self.global.open_nesting_allowed() {
            return Err(MachineError::OpenNestingUncertified(self.tid));
        }
        let base = self.local.len();
        let txn = match kind {
            ScopeKind::Open => {
                let child = self.global.fresh_txn();
                let tid = self.tid;
                self.record(Event::Begin {
                    thread: tid,
                    txn: child,
                });
                Some(child)
            }
            ScopeKind::Closed => None,
        };
        self.frames.push(ScopeFrame {
            kind,
            origin,
            base_len: base,
            stack_len: self.stack.len(),
            txn,
        });
        self.global.count(Metric::ScopesOpened, 1);
        Ok(base)
    }

    /// Commits the innermost open scope: a closed scope *merges* its
    /// suffix into the parent (no shared-state effect at all); an open
    /// scope commits its suffix to `G` as an independent transaction and
    /// registers a compensating inverse program with the parent.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] with no scope open;
    /// [`MachineError::NotInvertible`] when an open scope's operation
    /// has no spec-defined inverse; criterion violations from the open
    /// commit's PUSH/CMT obligations.
    pub fn commit_nested(&mut self) -> MachineResult<()> {
        let Some(top) = self.frames.last() else {
            return Err(MachineError::NoScope(self.tid));
        };
        match top.kind {
            ScopeKind::Closed => {
                let checked = self.mode() != CheckMode::Unchecked;
                if checked
                    && matches!(top.origin, ScopeOrigin::Peeled { .. })
                    && !self.active_code()?.fin()
                {
                    self.global.audit.fail(Rule::Cmt, Clause::I);
                    return Err(MachineError::criterion(
                        Rule::Cmt,
                        Clause::I,
                        "no method-free path to skip remains in the nested scope".to_string(),
                    ));
                }
                self.merge_top_frame();
                Ok(())
            }
            ScopeKind::Open => {
                self.fault_gate(Rule::Cmt)?;
                self.commit_open_frame()
            }
        }
    }

    /// Aborts the innermost scope: rewinds exactly its suffix of the
    /// local log (UNPULL / UNPUSH + UNAPP / UNAPP from the tail) and
    /// discards the frame — the parent transaction continues untouched.
    /// Compensations registered by the aborted scope's own committed
    /// open children are replayed (most recent first).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] with no scope open; criterion
    /// violations from the constituent back rules or compensations.
    pub fn abort_nested(&mut self) -> MachineResult<()> {
        let Some(top) = self.frames.last() else {
            return Err(MachineError::NoScope(self.tid));
        };
        let base = top.base_len;
        self.rewind_suffix(base)?;
        let frame = self.frames.pop().expect("checked above");
        self.drop_aborted_frame(frame);
        self.replay_compensations_above(self.frames.len())
    }

    /// Aborts every scope entered at or after local-log position
    /// `target_len` and rewinds the log to that length — the
    /// checkpoint/partial-abort mechanism of §6.2, now a plain scope
    /// abort (`CheckpointOptimistic` drives it).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] when no checkpoint was taken at
    /// `target_len`; criterion violations from the back rules.
    pub fn abort_to_checkpoint(&mut self, target_len: usize) -> MachineResult<()> {
        if !self.frames.iter().any(|f| f.base_len == target_len) {
            return Err(MachineError::NoScope(self.tid));
        }
        self.rewind_suffix(target_len)?;
        self.pop_rewound_frames(target_len, true)
    }

    /// Exits finished peeled scopes and enters peelable `tx`/`otx`
    /// redexes until the code settles — the scope-aware step the
    /// settling executors ([`Self::app_method`], [`Self::app_auto`],
    /// [`Self::commit`]) run before acting. Raw [`Self::app`] skips
    /// this, keeping the legacy flattened semantics for drivers that
    /// pick steps themselves.
    fn settle_scopes(&mut self) -> MachineResult<()> {
        loop {
            // Exit: the innermost frame was peeled from syntax and its
            // body has fully finished (no steps remain, fin holds).
            if let Some(top) = self.frames.last() {
                if matches!(top.origin, ScopeOrigin::Peeled { .. }) {
                    let code = self.active_code()?;
                    if code.fin() && code.step().is_empty() {
                        self.commit_nested()?;
                        continue;
                    }
                }
            }
            // Enter: the leftmost redex is a tx/otx scope.
            if let Some((kind, body, cont)) = self.active_code()?.peel_scope() {
                self.enter_scope(
                    kind,
                    ScopeOrigin::Peeled {
                        body: body.clone(),
                        cont,
                    },
                )?;
                self.code = Some(body);
                continue;
            }
            return Ok(());
        }
    }

    /// Exits every remaining scope on the way into a top-level commit:
    /// closed frames merge (a peeled body must satisfy `fin`), open
    /// frames commit to `G` as their own transactions.
    fn exit_scopes_for_commit(&mut self) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        while let Some(top) = self.frames.last() {
            match top.kind {
                ScopeKind::Closed => {
                    if checked
                        && matches!(top.origin, ScopeOrigin::Peeled { .. })
                        && !self.active_code()?.fin()
                    {
                        self.global.audit.fail(Rule::Cmt, Clause::I);
                        return Err(MachineError::criterion(
                            Rule::Cmt,
                            Clause::I,
                            "no method-free path to skip remains in the nested scope".to_string(),
                        ));
                    }
                    self.merge_top_frame();
                }
                ScopeKind::Open => self.commit_open_frame()?,
            }
        }
        Ok(())
    }

    /// Pops the innermost (closed) frame, merging its suffix into the
    /// parent: entries stay exactly where they are in the flat log, the
    /// continuation code is restored for peeled scopes, and
    /// compensations owned by the merged scope transfer to its parent.
    fn merge_top_frame(&mut self) {
        let frame = self.frames.pop().expect("caller checked a frame exists");
        if let ScopeOrigin::Peeled { cont, .. } = frame.origin {
            self.code = Some(cont);
        }
        let depth = self.frames.len();
        for c in &mut self.comps {
            if c.depth > depth {
                c.depth = depth;
            }
        }
        self.global.count(Metric::ScopesMerged, 1);
    }

    /// Commits the innermost (open) frame's suffix to `G` as an
    /// independent transaction under the child's own id: derive the
    /// compensating inverses (failing cleanly on a non-invertible
    /// operation), PUSH the unpushed suffix in order, run the CMT
    /// criteria over the suffix, flip it committed, record the child's
    /// [`CommittedTxn`] (kind [`TxnKind::OpenChild`]), re-flag the
    /// suffix as *pulled* in the parent's log (the parent now depends
    /// on its committed child), and register the compensation with the
    /// parent.
    fn commit_open_frame(&mut self) -> MachineResult<()> {
        let (base, child, peeled) = match self.frames.last() {
            Some(f) if f.kind == ScopeKind::Open => (
                f.base_len,
                f.txn.expect("open frames carry a child txn"),
                matches!(f.origin, ScopeOrigin::Peeled { .. }),
            ),
            _ => return Err(MachineError::NoScope(self.tid)),
        };
        let checked = self.mode() != CheckMode::Unchecked;
        let tid = self.tid;
        if checked {
            // CMT criterion (i) at the child level: a peeled body must
            // reach skip. (An explicit scope has no residual code of its
            // own — its program is exactly the suffix performed.)
            if peeled && !self.active_code()?.fin() {
                self.global.audit.fail(Rule::Cmt, Clause::I);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::I,
                    "no method-free path to skip remains in the open scope".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::I);
        }
        // Derive the compensating inverse program *before* committing
        // anything: a non-invertible operation must fail the open
        // commit while the scope can still abort cleanly.
        let mut inverses: Vec<(S::Method, S::Ret)> = Vec::new();
        for e in &self.local.entries()[base..] {
            if e.flag.is_pulled() {
                continue;
            }
            match self.global.spec().inverse(&e.op) {
                OpInverse::ReadOnly => {}
                OpInverse::Inverse(m, r) => inverses.push((m, r)),
                OpInverse::NotInvertible => {
                    return Err(MachineError::NotInvertible {
                        thread: tid,
                        op: e.op.id,
                    })
                }
            }
        }
        inverses.reverse();
        // The child's optimistic commit sequence: PUSH the unpushed
        // suffix in local order, with the full criteria and audit.
        let unpushed: Vec<OpId> = self.local.entries()[base..]
            .iter()
            .filter(|e| e.flag.is_not_pushed())
            .map(|e| e.op.id)
            .collect();
        for id in unpushed {
            self.push(id)?;
        }
        if checked {
            // Criterion (ii): the suffix is now fully pushed (or pulled).
            self.global.audit.pass(Rule::Cmt, Clause::Ii);
        }
        let own_ops: Vec<Op<S::Method, S::Ret>> = self.local.entries()[base..]
            .iter()
            .filter(|e| !e.flag.is_pulled())
            .map(|e| e.op.clone())
            .collect();
        let pulled_from: Vec<(OpId, TxnId)> = self.local.entries()[base..]
            .iter()
            .filter(|e| e.flag.is_pulled())
            .map(|e| (e.op.id, e.op.txn))
            .collect();
        let parent = self.frames[..self.frames.len() - 1]
            .iter()
            .rev()
            .find_map(|f| f.txn)
            .unwrap_or(self.txn);
        let level = self.frames.len();
        let child_code = match &self.frames.last().expect("checked above").origin {
            ScopeOrigin::Peeled { body, .. } => body.strip_open(),
            ScopeOrigin::Explicit => methods_as_seq(own_ops.iter().map(|o| &o.method)),
        };
        let flipped = {
            // Critical section: criterion (iii) plus the flips, over
            // exactly the shards the suffix routes to (ascending).
            let mut coarse = false;
            let mut indices = Vec::new();
            for e in &self.local.entries()[base..] {
                match self.global.route(&e.op.method) {
                    Route::Coarse => coarse = true,
                    Route::Single(i) => indices.push(i),
                }
            }
            let mut view = if coarse {
                self.global.acquire_all()
            } else {
                self.global.acquire_shards(indices)
            };
            if checked {
                // Criterion (iii): every pulled op of the suffix belongs
                // to a committed transaction.
                for e in self.local.entries()[base..]
                    .iter()
                    .filter(|e| e.flag.is_pulled())
                {
                    match view.entry(e.op.id) {
                        Some(g) if g.flag == GlobalFlag::Committed => {}
                        Some(_) => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} is still uncommitted", e.op.id),
                            ));
                        }
                        None => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} vanished from the global log", e.op.id),
                            ));
                        }
                    }
                }
                self.global.audit.pass(Rule::Cmt, Clause::Iii);
            }
            // Flip the suffix committed via a temporary log holding
            // exactly the child's entries.
            let mut tmp = LocalLog::new();
            for e in &self.local.entries()[base..] {
                tmp.push_entry(e.clone());
            }
            let flipped = view.commit_local(&tmp);
            self.global.push_committed(CommittedTxn {
                txn: child,
                thread: tid,
                code: child_code,
                ops: own_ops.clone(),
                pulled_from,
                kind: TxnKind::OpenChild { parent, level },
            });
            self.global.advance_caches(&mut view);
            flipped
        };
        self.record(Event::Commit {
            thread: tid,
            txn: child,
            ops: flipped,
        });
        self.commits += 1;
        // The parent now depends on the committed child exactly as on
        // any committed pull: its copies of the suffix flip to pld.
        for op in &own_ops {
            let entry = self.local.entry_mut(op.id).expect("own suffix entry");
            entry.flag = LocalFlag::Pulled;
        }
        let frame = self.frames.pop().expect("checked above");
        if let ScopeOrigin::Peeled { cont, .. } = frame.origin {
            self.code = Some(cont);
        }
        let depth = self.frames.len();
        for c in &mut self.comps {
            if c.depth > depth {
                c.depth = depth;
            }
        }
        self.global
            .count(Metric::UndoInverses, inverses.len() as u64);
        self.comps.push(Compensation {
            undoes: child,
            depth,
            ops: inverses,
        });
        self.open_children += 1;
        if !peeled {
            self.explicit_open = true;
        }
        self.global.count(Metric::OpenCommits, 1);
        Ok(())
    }

    /// Rewinds the local log down to `target_len`, tearing down frames
    /// entered strictly above the target as the walk passes their base
    /// (the unapp scope floor would otherwise block it). Frames based
    /// *at* `target_len` are left for the caller to resolve.
    fn rewind_suffix(&mut self, target_len: usize) -> MachineResult<()> {
        loop {
            if self.local.len() <= target_len {
                return Ok(());
            }
            if let Some(top) = self.frames.last() {
                if top.base_len > target_len && self.local.len() <= top.base_len {
                    let frame = self.frames.pop().expect("checked above");
                    self.drop_aborted_frame(frame);
                    continue;
                }
            }
            let last = self
                .local
                .entries()
                .last()
                .map(|e| (e.op.id, e.flag.clone()));
            match last {
                None => return Ok(()),
                Some((id, LocalFlag::Pulled)) => self.unpull(id)?,
                Some((id, LocalFlag::Pushed { .. })) => {
                    self.unpush(id)?;
                    self.unapp()?;
                }
                Some((_, LocalFlag::NotPushed { .. })) => {
                    self.unapp()?;
                }
            }
        }
    }

    /// Drops one frame on an abort path: records the `Abort` of an
    /// in-flight open child, reconstructs the unentered `tx`/`otx` redex
    /// for peeled scopes (so a retry re-runs the scope), and tallies the
    /// abort.
    fn drop_aborted_frame(&mut self, frame: ScopeFrame<S>) {
        if let Some(child) = frame.txn {
            let tid = self.tid;
            self.record(Event::Abort {
                thread: tid,
                txn: child,
            });
        }
        self.stack.truncate(frame.stack_len);
        if let ScopeOrigin::Peeled { body, cont } = frame.origin {
            let scoped = match frame.kind {
                ScopeKind::Closed => Code::tx(body),
                ScopeKind::Open => Code::otx(body),
            };
            self.code = Some(match cont {
                Code::Skip => scoped,
                c => Code::seq(scoped, c),
            });
        }
        self.global.count(Metric::ScopesAborted, 1);
    }

    /// Pops every remaining frame whose base position was rewound away
    /// (strictly above `target_len`, or also *at* it when `inclusive`),
    /// then replays the compensations no longer owned by a live scope.
    fn pop_rewound_frames(&mut self, target_len: usize, inclusive: bool) -> MachineResult<()> {
        while let Some(top) = self.frames.last() {
            let gone = top.base_len > target_len || (inclusive && top.base_len == target_len);
            if !gone {
                break;
            }
            let frame = self.frames.pop().expect("checked above");
            self.drop_aborted_frame(frame);
        }
        self.replay_compensations_above(self.frames.len())
    }

    /// Replays (and removes) every compensation owned by a scope deeper
    /// than `depth`, most recently registered first.
    fn replay_compensations_above(&mut self, depth: usize) -> MachineResult<()> {
        let mut replay: Vec<Compensation<S>> = Vec::new();
        let mut i = 0;
        while i < self.comps.len() {
            if self.comps[i].depth > depth {
                replay.push(self.comps.remove(i));
            } else {
                i += 1;
            }
        }
        for comp in replay.into_iter().rev() {
            self.run_compensation(comp)?;
        }
        Ok(())
    }

    /// Replays (and removes) every registered compensation, most
    /// recently registered first — the root-transaction abort path.
    fn replay_all_compensations(&mut self) -> MachineResult<()> {
        let comps = std::mem::take(&mut self.comps);
        for comp in comps.into_iter().rev() {
            self.run_compensation(comp)?;
        }
        Ok(())
    }

    /// Runs one compensating transaction: the registered inverse
    /// program executes as a fresh top-level transaction (its own id,
    /// `Begin`/`Commit` events, a [`TxnKind::Compensation`] committed
    /// record), appended and committed against `G` in one coarse
    /// critical section so the abstract-state restoration is atomic.
    /// The PUSH criteria are checked per inverse operation exactly as a
    /// live push would.
    fn run_compensation(&mut self, comp: Compensation<S>) -> MachineResult<()> {
        let txn = self.global.fresh_txn();
        let tid = self.tid;
        self.record(Event::Begin { thread: tid, txn });
        let checked = self.mode() != CheckMode::Unchecked;
        let shard = self.shard();
        let code = methods_as_seq(comp.ops.iter().map(|(m, _)| m));
        let mut ops: Vec<Op<S::Method, S::Ret>> = Vec::new();
        let flipped = {
            let mut view = self.global.acquire_all();
            let mut tmp = LocalLog::new();
            for (method, ret) in &comp.ops {
                let id = self.global.ids.fresh();
                let op = Op::new(id, txn, method.clone(), ret.clone());
                if checked {
                    crate::transport::locked_push_criteria(&self.global, txn, shard, &view, &op)?;
                }
                let target = self.global.route(method).target();
                self.global.append_push(&mut view, target, op.clone());
                tmp.push_entry(LocalEntry {
                    op: op.clone(),
                    flag: LocalFlag::Pushed {
                        saved_code: Code::Skip,
                        saved_stack: Vec::new(),
                    },
                });
                ops.push(op);
            }
            let flipped = view.commit_local(&tmp);
            self.global.push_committed(CommittedTxn {
                txn,
                thread: tid,
                code,
                ops,
                pulled_from: Vec::new(),
                kind: TxnKind::Compensation {
                    undoes: comp.undoes,
                },
            });
            self.global.advance_caches(&mut view);
            flipped
        };
        self.record(Event::Commit {
            thread: tid,
            txn,
            ops: flipped,
        });
        self.commits += 1;
        self.global.count(Metric::Compensations, 1);
        Ok(())
    }

    /// The code stored in the committed record: when open-nested
    /// children committed separately, their `otx` bodies are stripped
    /// (the parent's own operations no longer include them); a child
    /// carved out by an *explicit* scope has no syntactic marker, so the
    /// record falls back to the straight-line program of the parent's
    /// own operations. Otherwise the original body verbatim.
    fn committed_code(&self) -> Code<S::Method> {
        if self.open_children == 0 {
            self.original.clone()
        } else if self.explicit_open {
            let own = self.local.own_ops();
            methods_as_seq(own.iter().map(|o| &o.method))
        } else {
            self.original.strip_open()
        }
    }

    // ------------------------------------------------------------------
    // Structural reductions (Figure 6) — thread-local.
    // ------------------------------------------------------------------

    /// The structural steps (Figure 6) applicable to the current code at
    /// its leftmost redex.
    pub fn struct_options(&self) -> MachineResult<Vec<crate::structural::StructStep>> {
        Ok(crate::structural::applicable(self.active_code()?))
    }

    /// Applies one structural reduction (NONDETL/NONDETR/LOOP/SEMISKIP,
    /// with the SEMI congruence locating the redex) to the code.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] when the step does not apply.
    pub fn struct_step(&mut self, step: crate::structural::StructStep) -> MachineResult<()> {
        let code = self.active_code()?;
        match crate::structural::apply(code, step) {
            Some(next) => {
                self.code = Some(next);
                Ok(())
            }
            None => Err(MachineError::NoSuchStep(self.tid)),
        }
    }

    // ------------------------------------------------------------------
    // The seven rules of Figure 5.
    // ------------------------------------------------------------------

    /// **APP**: applies `method` with continuation `cont` and return
    /// `ret`. Entirely thread-local — acquires no global lock.
    ///
    /// Criteria: (i) `(method, cont) ∈ step(c)`; (ii) the local log allows
    /// `⟨m, σ, σ′, id⟩`; (iii) `id` fresh (by construction).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] if (i) fails,
    /// [`MachineError::Criterion`] if (ii) fails.
    pub fn app(
        &mut self,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
    ) -> MachineResult<OpId> {
        self.fault_gate(Rule::App)?;
        let checked = self.mode() != CheckMode::Unchecked;
        // Criterion (i): (m, c') ∈ step(c).
        let code = self.active_code()?.clone();
        if checked && !code.step().iter().any(|(m, k)| *m == method && *k == cont) {
            return Err(MachineError::NoSuchStep(self.tid));
        }
        let id = self.global.ids.fresh();
        // Operations applied inside an open scope belong to the child
        // transaction; everywhere else `current_txn()` is the root.
        let op = Op::new(id, self.current_txn(), method.clone(), ret.clone());
        // Criterion (ii): L allows op.
        let mut next = None;
        if checked {
            next = self.local_allows(&op);
            if next.is_none() {
                self.global.audit.fail(Rule::App, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::App,
                    Clause::Ii,
                    format!("local log does not allow {:?} -> {:?}", method, ret),
                ));
            }
            self.global.audit.pass(Rule::App, Clause::Ii);
        }
        let saved_code = code;
        let saved_stack = self.stack.clone();
        self.stack.push((method.clone(), ret.clone()));
        self.code = Some(cont);
        self.local_append(
            LocalEntry {
                op,
                flag: LocalFlag::NotPushed {
                    saved_code,
                    saved_stack,
                },
            },
            next,
        );
        let tid = self.tid;
        self.record(Event::App {
            thread: tid,
            op: id,
            method,
            ret,
        });
        Ok(id)
    }

    /// **APP**, selecting the first `step(c)` option whose method equals
    /// `method` and the first allowed return value. Scope-aware: `tx`
    /// and `otx` redexes are entered as nested scopes first (and
    /// finished peeled scopes are exited).
    pub fn app_method(&mut self, method: &S::Method) -> MachineResult<OpId> {
        self.settle_scopes()?;
        let options = self.step_options()?;
        let (m, cont) = options
            .into_iter()
            .find(|(m, _)| m == method)
            .ok_or(MachineError::NoSuchStep(self.tid))?;
        let ret = self.first_allowed_result(&m)?;
        self.app(m, cont, ret)
    }

    /// **APP**, selecting the first `step(c)` option and the first
    /// allowed return value. Scope-aware, like [`Self::app_method`].
    pub fn app_auto(&mut self) -> MachineResult<OpId> {
        self.settle_scopes()?;
        let options = self.step_options()?;
        let (m, cont) = options
            .into_iter()
            .next()
            .ok_or(MachineError::NoSuchStep(self.tid))?;
        let ret = self.first_allowed_result(&m)?;
        self.app(m, cont, ret)
    }

    /// **UNAPP**: rewinds the most recent local entry, which must be
    /// `npshd`; restores the saved code and stack. Entirely thread-local.
    ///
    /// # Errors
    ///
    /// [`MachineError::NothingToUnapply`] if the local log is empty or
    /// its last entry is not `npshd`.
    pub fn unapp(&mut self) -> MachineResult<OpId> {
        // A scope boundary is a floor: rewinding an entry *below* the
        // innermost frame's base would desynchronise the frame stack.
        if let Some(top) = self.frames.last() {
            if self.local.len() <= top.base_len {
                return Err(MachineError::NothingToUnapply(self.tid));
            }
        }
        let entry = match self.local.entries().last() {
            Some(e) if e.flag.is_not_pushed() => self.local_remove(self.local.len() - 1),
            _ => return Err(MachineError::NothingToUnapply(self.tid)),
        };
        let (saved_code, saved_stack) = match entry.flag {
            LocalFlag::NotPushed {
                saved_code,
                saved_stack,
            } => (saved_code, saved_stack),
            _ => unreachable!("checked above"),
        };
        self.code = Some(saved_code);
        self.stack = saved_stack;
        let tid = self.tid;
        self.record(Event::UnApp {
            thread: tid,
            op: entry.op.id,
            method: entry.op.method,
        });
        Ok(entry.op.id)
    }

    /// **PUSH**: publishes a local `npshd` operation to the shared log.
    /// Criterion (i) is local; criteria (ii)/(iii) and the append to `G`
    /// run inside one [`GlobalState`] critical section.
    ///
    /// Criteria: (i) `op` moves across every *earlier* unpushed own
    /// operation (`op ◁ op′`, Def 4.1 — trivial when pushing in APP
    /// order); (ii) every uncommitted operation of *other* transactions
    /// in `G` moves right of `op` (`op_u ◁ op` fails ⇒ conflict),
    /// ensuring the pusher can still serialize before all concurrent
    /// uncommitted transactions; (iii) `G` allows `op`.
    ///
    /// # Errors
    ///
    /// [`MachineError::Criterion`] with the failing clause; `WrongFlag` /
    /// `NoSuchOp` on structural misuse.
    pub fn push(&mut self, op_id: OpId) -> MachineResult<()> {
        self.fault_gate(Rule::Push)?;
        let checked = self.mode() != CheckMode::Unchecked;
        let shard = self.shard();
        let (op, pos) = {
            let pos = self
                .local
                .position(op_id)
                .ok_or(MachineError::NoSuchOp(op_id))?;
            let entry = &self.local.entries()[pos];
            match entry.flag {
                LocalFlag::NotPushed { .. } => {}
                LocalFlag::Pushed { .. } => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "npshd",
                        found: "pshd",
                    })
                }
                LocalFlag::Pulled => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "npshd",
                        found: "pld",
                    })
                }
            }
            (entry.op.clone(), pos)
        };
        if checked {
            // Criterion (i): op ◁ op' for every earlier npshd own op'.
            // Local-log only — evaluated outside the critical section.
            if self.global.statically_discharged(Rule::Push, Clause::I) {
                // Soundness cross-check: in debug builds the elided loop
                // still runs (without audit accounting) and must agree.
                #[cfg(debug_assertions)]
                for e in &self.local.entries()[..pos] {
                    assert!(
                        !e.flag.is_not_pushed() || self.global.spec().mover(&op, &e.op),
                        "static discharge of PUSH (i) contradicted dynamically: {} vs {}",
                        op.id,
                        e.op.id
                    );
                }
                self.global.audit.pass_static(Rule::Push, Clause::I);
            } else {
                for e in &self.local.entries()[..pos] {
                    if e.flag.is_not_pushed() && !self.global.mover_q(shard, &op, &e.op) {
                        self.global.audit.fail(Rule::Push, Clause::I);
                        return Err(MachineError::criterion(
                            Rule::Push,
                            Clause::I,
                            format!(
                                "{} does not move across earlier unpushed {}",
                                op.id, e.op.id
                            ),
                        ));
                    }
                }
                self.global.audit.pass(Rule::Push, Clause::I);
            }
        }
        let route = self.global.route(&op.method);
        // The transport seam: with a transport installed, a routed
        // single-shard PUSH ships its criteria-and-append critical
        // section as a [`ShardRequest`] instead of running it in place
        // (speculation is skipped — both transports serialize at the
        // executor, so the outcome is identical either way). Coarse
        // routes stay on this thread: they aggregate across shards,
        // which is the coordinator's job.
        let remote = match route {
            Route::Single(i) if !self.global.coarse_mode() => {
                self.global.transport().map(|t| (i, t))
            }
            _ => None,
        };
        if let Some((target, tr)) = remote {
            self.push_via_transport(tr.as_ref(), target, shard, &op, checked)?;
        } else {
            // Lock-free speculation: on a routed single shard (coarse
            // off), criteria (ii)/(iii) evaluate against the shard's
            // published snapshot without taking any lock. Only a *pass*
            // is kept, and only as a speculation: it is trusted below
            // iff the shard version is unchanged under the append lock.
            // A speculative *failure* never denies by itself — a stale
            // snapshot can show a since-committed entry as still
            // uncommitted and manufacture a mover conflict the true log
            // does not have — so failures fall back to the audited
            // locked evaluation, whose verdict is exact.
            let speculated = if checked {
                match route {
                    Route::Single(i) if !self.global.coarse_mode() => {
                        self.speculate_push_criteria(i, &op)
                    }
                    _ => None,
                }
            } else {
                None
            };
            // Critical section: the append — plus the criteria whenever
            // speculation did not conclude. One footprint shard on the
            // routed fast path; every shard (ascending) when coarse.
            let mut view = self.global.acquire_route(route);
            let validated = match (&speculated, route) {
                (Some(v), Route::Single(i))
                    if view.is_single_shard(i) && view.shard_version(0) == v.version =>
                {
                    true
                }
                (Some(_), _) => {
                    // The shard mutated (or the coarse flag flipped)
                    // between snapshot and lock: discard the speculated
                    // verdict with its buffered tallies and re-run.
                    self.global.note_snap_fallback(route.target());
                    false
                }
                (None, _) => false,
            };
            if checked {
                if validated {
                    let v = speculated.as_ref().expect("validated implies speculated");
                    self.flush_push_pass(shard, v);
                } else {
                    crate::transport::locked_push_criteria(
                        &self.global,
                        op.txn,
                        shard,
                        &view,
                        &op,
                    )?;
                }
            }
            self.global
                .append_push(&mut view, route.target(), op.clone());
        }
        // Effect on the local half (private to this thread): flip flag.
        let entry = self.local.entry_mut(op_id).expect("position found above");
        let (saved_code, saved_stack) = match &entry.flag {
            LocalFlag::NotPushed {
                saved_code,
                saved_stack,
            } => (saved_code.clone(), saved_stack.clone()),
            _ => unreachable!("flag checked above"),
        };
        entry.flag = LocalFlag::Pushed {
            saved_code,
            saved_stack,
        };
        let tid = self.tid;
        self.record(Event::Push {
            thread: tid,
            op: op_id,
            method: op.method,
        });
        Ok(())
    }

    /// Evaluates PUSH criteria (ii)/(iii) against shard `shard_idx`'s
    /// published snapshot, **without taking any lock**, buffering the
    /// audit tallies the locked path would have recorded.
    ///
    /// * `Some(verdict)` — both criteria passed at `verdict.version`;
    ///   the caller must revalidate that version under the shard lock
    ///   before flushing the verdict's buffered tallies.
    /// * `None` — no conclusion: the snapshot was unreadable
    ///   (unpublished, reader contention, coarse raced in) **or a
    ///   criterion failed against it**. A snapshot failure is never a
    ///   verdict, because a stale snapshot can show a since-committed
    ///   entry as uncommitted and manufacture a conflict; the caller
    ///   must evaluate under the lock, which records the exact audit.
    fn speculate_push_criteria(
        &self,
        shard_idx: usize,
        op: &Op<S::Method, S::Ret>,
    ) -> Option<SnapVerdict> {
        let global = &self.global;
        let static_ii = global.statically_discharged(Rule::Push, Clause::Ii);
        // Own entries are judged by the *operation's* transaction (an
        // open-scoped op belongs to its child transaction).
        let txn = op.txn;
        let outcome = global.read_shard_snap(shard_idx, |snap| {
            // Criterion (ii) over the snapshot suffix. The committed
            // prefix never contributes a mover query (its entries all
            // fail the `Uncommitted` test), so walking the suffix
            // consults the oracle for exactly the pairs — in the same
            // stamp order — as the locked loop over the whole shard.
            let mut movers = 0u64;
            if static_ii {
                #[cfg(debug_assertions)]
                for g in &snap.suffix {
                    assert!(
                        g.flag != GlobalFlag::Uncommitted
                            || g.op.txn == txn
                            || global.spec().mover(&g.op, op),
                        "static discharge of PUSH (ii) contradicted dynamically: {} vs {}",
                        g.op.id,
                        op.id
                    );
                }
            } else {
                for g in &snap.suffix {
                    if g.flag == GlobalFlag::Uncommitted && g.op.txn != txn {
                        movers += 1;
                        if !global.spec().mover(&g.op, op) {
                            return None;
                        }
                    }
                }
            }
            // Criterion (iii): one (buffered) allowed query.
            global
                .snap_allows(snap, op)
                .then_some((snap.version, movers))
        });
        match outcome {
            // Snapshot read but a criterion failed against it: discard
            // the buffered tallies and send the caller to the lock.
            Some(None) => {
                global.note_snap_fallback(shard_idx);
                None
            }
            Some(Some((version, movers))) => Some(SnapVerdict {
                version,
                movers,
                static_ii,
            }),
            None => None,
        }
    }

    /// Flushes a revalidated speculative pass to the audit: exactly the
    /// queries and pass marks the locked evaluation would have recorded.
    fn flush_push_pass(&self, shard: usize, v: &SnapVerdict) {
        let audit = &self.global.audit;
        audit.count_mover_n(shard, v.movers);
        if v.static_ii {
            audit.pass_static(Rule::Push, Clause::Ii);
        } else {
            audit.pass(Rule::Push, Clause::Ii);
        }
        audit.count_allowed_n(shard, 1);
        audit.pass(Rule::Push, Clause::Iii);
    }

    /// PUSH over the installed transport, with the degradation ladder.
    ///
    /// Degraded shard: probe first — one success clears the mark
    /// (counted as a recovery) and the call proceeds on the fast path;
    /// failure keeps the operation on the coarse coordinator path.
    /// Healthy shard: ship the request; if the whole robustness envelope
    /// is exhausted, degrade per the transport's [`FallbackMode`] —
    /// coarse execution here, or a clean
    /// [`MachineError::TransportExhausted`].
    fn push_via_transport(
        &self,
        tr: &dyn ShardTransport<S>,
        target: usize,
        audit_shard: usize,
        op: &Op<S::Method, S::Ret>,
        checked: bool,
    ) -> MachineResult<()> {
        if self.global.is_transport_degraded(target) {
            if tr.probe(&self.global, self.tid, target) {
                self.global.note_transport_recovery(target);
            } else {
                return self.degraded_push(target, audit_shard, op, checked);
            }
        }
        let req = ShardRequest::Push {
            txn: op.txn,
            audit_shard,
            checked,
            op: op.clone(),
        };
        match tr.call(&self.global, self.tid, target, req) {
            Ok(ShardResponse::Done) => Ok(()),
            Ok(ShardResponse::Denied(e)) => Err(e),
            Ok(ShardResponse::Pong) => unreachable!("Pong response to a Push request"),
            Err(TransportError::Exhausted { .. }) => match tr.fallback() {
                FallbackMode::Coarse => {
                    self.global.note_transport_degraded(target);
                    self.degraded_push(target, audit_shard, op, checked)
                }
                FallbackMode::Fail => Err(MachineError::TransportExhausted {
                    thread: self.tid,
                    shard: target,
                }),
            },
        }
    }

    /// The degraded PUSH: the coordinator runs the critical section
    /// itself over the coarse all-shard view (the one lock ladder that
    /// needs no transport). Placement is preserved — the op still lands
    /// on its routed shard — so healing back to the fast path is sound.
    fn degraded_push(
        &self,
        target: usize,
        audit_shard: usize,
        op: &Op<S::Method, S::Ret>,
        checked: bool,
    ) -> MachineResult<()> {
        let mut view = self.global.acquire_all();
        // A lost-reply fault may have executed the append before we
        // degraded; the log itself is the idempotency source of truth.
        if view.entry(op.id).is_some() {
            return Ok(());
        }
        if checked {
            crate::transport::locked_push_criteria(&self.global, op.txn, audit_shard, &view, op)?;
        }
        self.global.append_push(&mut view, target, op.clone());
        Ok(())
    }

    /// UNPUSH over the installed transport — same envelope and ladder as
    /// [`TxnHandle::push_via_transport`].
    fn unpush_via_transport(
        &self,
        tr: &dyn ShardTransport<S>,
        target: usize,
        audit_shard: usize,
        op_id: OpId,
        checked: bool,
        check_gray: bool,
    ) -> MachineResult<()> {
        if self.global.is_transport_degraded(target) {
            if tr.probe(&self.global, self.tid, target) {
                self.global.note_transport_recovery(target);
            } else {
                return self.degraded_unpush(audit_shard, op_id, checked, check_gray);
            }
        }
        let req = ShardRequest::Unpush {
            audit_shard,
            checked,
            check_gray,
            op_id,
        };
        match tr.call(&self.global, self.tid, target, req) {
            Ok(ShardResponse::Done) => Ok(()),
            Ok(ShardResponse::Denied(e)) => Err(e),
            Ok(ShardResponse::Pong) => unreachable!("Pong response to an Unpush request"),
            Err(TransportError::Exhausted { .. }) => match tr.fallback() {
                FallbackMode::Coarse => {
                    self.global.note_transport_degraded(target);
                    self.degraded_unpush(audit_shard, op_id, checked, check_gray)
                }
                FallbackMode::Fail => Err(MachineError::TransportExhausted {
                    thread: self.tid,
                    shard: target,
                }),
            },
        }
    }

    /// The degraded UNPUSH, over the coarse all-shard view. An absent
    /// entry means an earlier delivery of this same logical request
    /// already removed it (the handle verified the `pshd` flag, and no
    /// one else removes another transaction's entry).
    fn degraded_unpush(
        &self,
        audit_shard: usize,
        op_id: OpId,
        checked: bool,
        check_gray: bool,
    ) -> MachineResult<()> {
        let mut view = self.global.acquire_all();
        if view.find(op_id).is_none() {
            return Ok(());
        }
        crate::transport::locked_unpush_in_view(
            &self.global,
            audit_shard,
            &mut view,
            op_id,
            checked,
            check_gray,
        )
        .map(|_| ())
    }

    /// Read-only, unaudited "would PUSH accept `op_id` right now?" —
    /// criterion (i) over the local log plus (ii)/(iii) against the
    /// routed shard's published snapshot.
    ///
    /// On the fast path — declared single-key footprint, coarse mode
    /// off, snapshot readable — this acquires **zero locks**; the
    /// lock-free smoke test and the B10 microbench pin that down through
    /// the per-shard lock counters. Otherwise it falls back to a
    /// read-only locked evaluation. The audit ledger is untouched either
    /// way: no criteria obligation is reached, so none is recorded, and
    /// the answer is advisory (another thread may invalidate it before a
    /// real [`TxnHandle::push`]).
    ///
    /// # Errors
    ///
    /// `NoSuchOp` / `WrongFlag` on structural misuse, exactly as
    /// [`TxnHandle::push`].
    pub fn can_push(&self, op_id: OpId) -> MachineResult<bool> {
        let pos = self
            .local
            .position(op_id)
            .ok_or(MachineError::NoSuchOp(op_id))?;
        let entry = &self.local.entries()[pos];
        match entry.flag {
            LocalFlag::NotPushed { .. } => {}
            LocalFlag::Pushed { .. } => {
                return Err(MachineError::WrongFlag {
                    op: op_id,
                    expected: "npshd",
                    found: "pshd",
                })
            }
            LocalFlag::Pulled => {
                return Err(MachineError::WrongFlag {
                    op: op_id,
                    expected: "npshd",
                    found: "pld",
                })
            }
        }
        let op = &entry.op;
        // Criterion (i): local-log only, no locks regardless of route.
        for e in &self.local.entries()[..pos] {
            if e.flag.is_not_pushed() && !self.global.spec().mover(op, &e.op) {
                return Ok(false);
            }
        }
        let route = self.global.route(&op.method);
        if let Route::Single(i) = route {
            if !self.global.coarse_mode() {
                let global = &self.global;
                let txn = op.txn;
                let verdict = global.read_shard_snap(i, |snap| {
                    snap.suffix.iter().all(|g| {
                        g.flag != GlobalFlag::Uncommitted
                            || g.op.txn == txn
                            || global.spec().mover(&g.op, op)
                    }) && global.snap_allows(snap, op)
                });
                // A snapshot "yes" is as good as any advisory answer
                // gets (it can go stale the moment it is returned). A
                // snapshot "no" is re-checked under the lock: a stale
                // snapshot can manufacture a conflict out of an entry
                // that has since committed, and a wrong "no" would make
                // callers give up on a PUSH that would succeed.
                match verdict {
                    Some(true) => return Ok(true),
                    Some(false) => self.global.note_snap_fallback(i),
                    None => {}
                }
            }
        }
        // Locked fallback: the read-only criteria under the routed view,
        // evaluated as PUSH evaluates them (no audit): (ii) from the
        // committed watermark, (iii) from the shard's cached prefix.
        let view = self.global.acquire_route(route);
        let ii = view
            .uncommitted()
            .all(|(_, g)| g.op.txn == op.txn || self.global.spec().mover(&g.op, op));
        Ok(ii && self.global.view_allows(&view, op))
    }

    /// **UNPUSH**: recalls a pushed operation from the shared log
    /// (implemented by real systems as an inverse operation). Criteria
    /// over `G` and the removal run in one critical section.
    ///
    /// Criteria: (i, gray) `op` moves across everything after it in `G`
    /// (so the suffix does not depend on it); (ii) the remaining global
    /// log is still allowed.
    pub fn unpush(&mut self, op_id: OpId) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        let check_gray = self.mode() == CheckMode::Checked;
        let shard = self.shard();
        {
            let entry = self
                .local
                .entry(op_id)
                .ok_or(MachineError::NoSuchOp(op_id))?;
            match entry.flag {
                LocalFlag::Pushed { .. } => {}
                LocalFlag::NotPushed { .. } => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "pshd",
                        found: "npshd",
                    })
                }
                LocalFlag::Pulled => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "pshd",
                        found: "pld",
                    })
                }
            }
        }
        let op = {
            // Route by the method recorded in the local (pshd) entry —
            // the global entry lives on that method's footprint shard.
            let method = self
                .local
                .entry(op_id)
                .expect("flag checked above")
                .op
                .method
                .clone();
            let route = self.global.route(&method);
            // The transport seam, exactly as in PUSH: a routed
            // single-shard recall ships its critical section; coarse
            // routes run on the coordinator.
            let remote = match route {
                Route::Single(i) if !self.global.coarse_mode() => {
                    self.global.transport().map(|t| (i, t))
                }
                _ => None,
            };
            if let Some((target, tr)) = remote {
                self.unpush_via_transport(tr.as_ref(), target, shard, op_id, checked, check_gray)?;
                // The local `pshd` entry is a verbatim copy of the
                // removed global entry's op (PUSH published it from
                // here), so the trace event does not need the remote op
                // echoed back.
                self.local
                    .entry(op_id)
                    .expect("flag checked above")
                    .op
                    .clone()
            } else {
                // Critical section: criteria over G plus the removal,
                // atomic — shared with the transport executors and the
                // degraded path (see `transport::locked_unpush_in_view`).
                let mut view = self.global.acquire_route(route);
                crate::transport::locked_unpush_in_view(
                    &self.global,
                    shard,
                    &mut view,
                    op_id,
                    checked,
                    check_gray,
                )?
            }
        };
        let entry = self.local.entry_mut(op_id).expect("checked above");
        let (saved_code, saved_stack) = match &entry.flag {
            LocalFlag::Pushed {
                saved_code,
                saved_stack,
            } => (saved_code.clone(), saved_stack.clone()),
            _ => unreachable!("flag checked above"),
        };
        entry.flag = LocalFlag::NotPushed {
            saved_code,
            saved_stack,
        };
        let tid = self.tid;
        self.record(Event::UnPush {
            thread: tid,
            op: op_id,
            method: op.method,
        });
        Ok(())
    }

    /// **PULL**: imports another transaction's published operation into
    /// the local view. The global lock is held only to snapshot the
    /// pulled entry; criteria and effect are local.
    ///
    /// Criteria: (i) not already pulled (`op ∉ L`); (ii) the local log
    /// allows `op`; (iii, gray) everything the transaction has done
    /// locally moves right of `op` (so the pull can be seen as having
    /// preceded the transaction).
    pub fn pull(&mut self, op_id: OpId) -> MachineResult<()> {
        self.fault_gate(Rule::Pull)?;
        let gentry = self
            .global
            .find_entry(op_id)
            .ok_or(MachineError::NoSuchOp(op_id))?;
        let reachable_after = self.reachable_after();
        self.pull_entry(gentry, &reachable_after)
    }

    /// Pulls every *committed* global operation not yet in the local log,
    /// in global-log order — how opaque transactions snapshot the shared
    /// state (§6.2: "transactions begin by PULLing all operations").
    /// Returns the number of operations pulled.
    ///
    /// The candidates are read once under all shard locks: committed
    /// entries are immutable and never leave `G`, so the list stays valid
    /// while other threads push and commit. Each candidate then runs the
    /// full PULL criteria and effect, exactly as [`Self::pull`] would.
    ///
    /// With `lenient`, a candidate whose criteria fail is skipped instead
    /// of failing the call — the snapshot refresh drivers perform before
    /// applying an operation. A skipped operation leaves the local view
    /// behind the shared view; any resulting inconsistency surfaces later
    /// as a PUSH criterion (iii) failure, which drivers treat as a
    /// conflict.
    ///
    /// # Errors
    ///
    /// The first PULL error; with `lenient`, only structural errors.
    pub fn pull_committed(&mut self, lenient: bool) -> MachineResult<usize> {
        let candidates: Vec<GlobalEntry<S::Method, S::Ret>> = {
            let view = self.global.acquire_all();
            view.stamped()
                .filter(|(_, e)| {
                    e.flag == GlobalFlag::Committed && !self.local.contains_id(e.op.id)
                })
                .map(|(_, e)| e.clone())
                .collect()
        };
        // Pulls never change the code, so one reachable set serves the
        // whole batch.
        let reachable_after = self.reachable_after();
        let mut pulled = 0;
        for gentry in candidates {
            let res = self
                .fault_gate(Rule::Pull)
                .and_then(|()| self.pull_entry(gentry, &reachable_after));
            match res {
                Ok(()) => pulled += 1,
                Err(MachineError::Criterion(_)) if lenient => {}
                Err(e) => return Err(e),
            }
        }
        Ok(pulled)
    }

    /// Methods the thread may still perform — the `reachable_after` datum
    /// of the `Pull` events it records.
    fn reachable_after(&self) -> Arc<[S::Method]> {
        self.active_code()
            .map(|c| c.reachable_methods())
            .unwrap_or_default()
            .into()
    }

    /// The PULL criteria and effect for a snapshotted global entry.
    fn pull_entry(
        &mut self,
        gentry: GlobalEntry<S::Method, S::Ret>,
        reachable_after: &Arc<[S::Method]>,
    ) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        let check_gray = self.mode() == CheckMode::Checked;
        let shard = self.shard();
        let op_id = gentry.op.id;
        let own =
            gentry.op.txn == self.txn || self.frames.iter().any(|f| f.txn == Some(gentry.op.txn));
        if own {
            return Err(MachineError::WrongFlag {
                op: op_id,
                expected: "another transaction's op",
                found: "own op",
            });
        }
        // Criterion (i): op ∉ L. (Enforced in every mode — a duplicate
        // entry would corrupt the log structure — but only audited when
        // criteria checking is on, so Unchecked runs audit nothing.)
        if self.local.contains_id(op_id) {
            if checked {
                self.global.audit.fail(Rule::Pull, Clause::I);
            }
            return Err(MachineError::criterion(
                Rule::Pull,
                Clause::I,
                format!("{op_id} already pulled"),
            ));
        }
        let mut next = None;
        if checked {
            self.global.audit.pass(Rule::Pull, Clause::I);
            // Criterion (ii): L allows op.
            next = self.local_allows(&gentry.op);
            if next.is_none() {
                self.global.audit.fail(Rule::Pull, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::Pull,
                    Clause::Ii,
                    format!("local log does not allow pulled {}", op_id),
                ));
            }
            self.global.audit.pass(Rule::Pull, Clause::Ii);
            // Criterion (iii), gray: own local ops move right of op.
            if check_gray {
                let mut own_ops = self.local.iter().filter(|e| e.flag.is_own());
                if self.global.statically_discharged(Rule::Pull, Clause::Iii) {
                    #[cfg(debug_assertions)]
                    for own in own_ops {
                        assert!(
                            self.global.spec().mover(&own.op, &gentry.op),
                            "static discharge of PULL (iii) contradicted dynamically: {} vs {}",
                            own.op.id,
                            op_id
                        );
                    }
                    self.global.audit.pass_static(Rule::Pull, Clause::Iii);
                } else {
                    if let Some(own) =
                        own_ops.find(|own| !self.global.mover_q(shard, &own.op, &gentry.op))
                    {
                        self.global.audit.fail(Rule::Pull, Clause::Iii);
                        return Err(MachineError::criterion(
                            Rule::Pull,
                            Clause::Iii,
                            format!("own {} cannot move right of pulled {}", own.op.id, op_id),
                        ));
                    }
                    self.global.audit.pass(Rule::Pull, Clause::Iii);
                }
            }
        }
        let GlobalEntry { op, flag } = gentry;
        let (from, method, ret) = (op.txn, op.method.clone(), op.ret.clone());
        self.local_append(
            LocalEntry {
                op,
                flag: LocalFlag::Pulled,
            },
            next,
        );
        let tid = self.tid;
        self.record(Event::Pull {
            thread: tid,
            op: op_id,
            from,
            status_at_pull: flag,
            method,
            ret,
            reachable_after: Arc::clone(reachable_after),
        });
        Ok(())
    }

    /// **UNPULL**: discards a pulled operation from the local view.
    /// Entirely thread-local.
    ///
    /// Criterion (i): the local log without `op` is still allowed (the
    /// transaction did nothing that depended on it).
    pub fn unpull(&mut self, op_id: OpId) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        let pos = self
            .local
            .position(op_id)
            .ok_or(MachineError::NoSuchOp(op_id))?;
        if !self.local.entries()[pos].flag.is_pulled() {
            return Err(MachineError::WrongFlag {
                op: op_id,
                expected: "pld",
                found: "npshd/pshd",
            });
        }
        if checked {
            if !self.local_allowed_without(pos) {
                self.global.audit.fail(Rule::UnPull, Clause::I);
                return Err(MachineError::criterion(
                    Rule::UnPull,
                    Clause::I,
                    format!("local log without {} is not allowed", op_id),
                ));
            }
            self.global.audit.pass(Rule::UnPull, Clause::I);
        }
        let entry = self.local_remove(pos);
        let tid = self.tid;
        self.record(Event::UnPull {
            thread: tid,
            op: op_id,
            method: entry.op.method,
        });
        Ok(())
    }

    /// **CMT**: commits the current transaction. Criteria (i)/(ii) are
    /// local; criterion (iii) and the `cmt` effect (flag flips, the
    /// committed-transaction record, cache advance) are one critical
    /// section.
    ///
    /// Criteria: (i) `fin(c)` — some path reaches `skip`; (ii) `L ⊆ G` —
    /// every own operation has been pushed; (iii) every pulled operation
    /// belongs to a committed transaction; (iv) own entries in `G` flip
    /// to `gCmt` (the `cmt` predicate — this is the effect).
    ///
    /// On success the thread's next pending transaction (if any) begins.
    pub fn commit(&mut self) -> MachineResult<TxnId> {
        self.fault_gate(Rule::Cmt)?;
        // Resolve every still-open scope first: closed frames merge
        // (observationally free), open frames commit to `G` as their
        // own transactions.
        self.exit_scopes_for_commit()?;
        let checked = self.mode() != CheckMode::Unchecked;
        let txn = self.txn;
        if checked {
            // Criterion (i): fin(c).
            if !self.active_code()?.fin() {
                self.global.audit.fail(Rule::Cmt, Clause::I);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::I,
                    "no method-free path to skip remains".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::I);
            // Criterion (ii): all own ops pushed.
            if !self.local.fully_pushed() {
                self.global.audit.fail(Rule::Cmt, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::Ii,
                    "local log contains npshd operations".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::Ii);
        }
        let (own_ops, pulled_from) = {
            let pulled = self
                .local
                .iter()
                .filter(|e| e.flag.is_pulled())
                .map(|e| (e.op.id, e.op.txn))
                .collect();
            (self.local.own_ops(), pulled)
        };
        let flipped = {
            // Critical section: criterion (iii) plus cmt(G, L, G'), over
            // exactly the shards this transaction's pushed and pulled
            // operations live on, locked in canonical ascending order.
            let mut coarse = false;
            let mut indices = Vec::new();
            for e in self.local.iter() {
                if e.flag.is_pushed() || e.flag.is_pulled() {
                    match self.global.route(&e.op.method) {
                        Route::Coarse => coarse = true,
                        Route::Single(i) => indices.push(i),
                    }
                }
            }
            let mut view = if coarse {
                self.global.acquire_all()
            } else {
                self.global.acquire_shards(indices)
            };
            if checked {
                // Criterion (iii): every pulled op is committed.
                for pulled in self.local.pulled_ops() {
                    match view.entry(pulled.id) {
                        Some(e) if e.flag == GlobalFlag::Committed => {}
                        Some(_) => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} is still uncommitted", pulled.id),
                            ));
                        }
                        None => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} vanished from the global log", pulled.id),
                            ));
                        }
                    }
                }
                self.global.audit.pass(Rule::Cmt, Clause::Iii);
            }
            // Flips land in global commit-stamp order, so the recorded
            // Commit event's op order is identical at any shard count.
            let flipped = view.commit_local(&self.local);
            self.global.push_committed(CommittedTxn {
                txn,
                thread: self.tid,
                code: self.committed_code(),
                ops: own_ops,
                pulled_from,
                kind: TxnKind::Top,
            });
            // Newly committed entries may extend the fully committed
            // prefix of each held shard: advance their caches.
            self.global.advance_caches(&mut view);
            flipped
        };
        let tid = self.tid;
        self.record(Event::Commit {
            thread: tid,
            txn,
            ops: flipped,
        });
        self.commits += 1;
        self.reset_txn_state();
        self.begin_next_pending();
        Ok(txn)
    }

    /// Resets the per-transaction state after a commit: the local log,
    /// the observation stack, the scope stack, and the compensation set
    /// (a committed root makes its open children durable — their
    /// compensations are discarded, not replayed).
    fn reset_txn_state(&mut self) {
        self.local = LocalLog::new();
        self.denot = LocalDenotation::empty();
        self.stack = Vec::new();
        self.frames.clear();
        self.comps.clear();
        self.open_children = 0;
        self.explicit_open = false;
    }

    /// Starts the next pending transaction (recording its `Begin`), or
    /// parks the thread (`code = None`, the paper's MS_END).
    fn begin_next_pending(&mut self) {
        let tid = self.tid;
        match self.pending.pop_front() {
            Some(c) => {
                let next_txn = self.global.fresh_txn();
                self.code = Some(c.clone());
                self.original = c;
                self.txn = next_txn;
                self.record(Event::Begin {
                    thread: tid,
                    txn: next_txn,
                });
            }
            None => {
                self.code = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Derived operations (compositions of back rules).
    // ------------------------------------------------------------------

    /// Derives the compensating undo program for the transaction's live
    /// local log: the spec-level inverse of every own (non-pulled) entry,
    /// in reverse log order, read-only observations elided. This is the
    /// undo log a boosted implementation would execute on abort; callers
    /// that roll back via the back rules can use it for accounting or
    /// cross-checking without mutating the handle. Tallies the derived
    /// inverses in the global nesting counters.
    ///
    /// Errors with [`MachineError::NotInvertible`] if any live operation
    /// has no spec-level inverse.
    pub fn undo_program(&self) -> MachineResult<Vec<(S::Method, S::Ret)>> {
        let mut inverses: Vec<(S::Method, S::Ret)> = Vec::new();
        for e in self.local.entries() {
            if e.flag.is_pulled() {
                continue;
            }
            match self.global.spec().inverse(&e.op) {
                OpInverse::ReadOnly => {}
                OpInverse::Inverse(m, r) => inverses.push((m, r)),
                OpInverse::NotInvertible => {
                    return Err(MachineError::NotInvertible {
                        thread: self.tid,
                        op: e.op.id,
                    })
                }
            }
        }
        inverses.reverse();
        self.global
            .count(Metric::UndoInverses, inverses.len() as u64);
        Ok(inverses)
    }

    /// Fully rewinds the current transaction (the composition of `⃗back`
    /// rules: UNPULL/UNPUSH/UNAPP from the tail) and restarts it as a
    /// fresh transaction instance with the original code. Compensations
    /// registered by committed open-nested children are replayed (most
    /// recent first) between the `Abort` and the retry's `Begin`.
    ///
    /// Records an `Abort` plus a `Begin` event.
    pub fn abort_and_retry(&mut self) -> MachineResult<TxnId> {
        if self.code.is_none() {
            // A finished thread has nothing to abort; restarting its last
            // transaction here would resurrect committed work.
            return Err(MachineError::ThreadFinished(self.tid));
        }
        self.rewind_all()?;
        let old = self.txn;
        let tid = self.tid;
        self.record(Event::Abort {
            thread: tid,
            txn: old,
        });
        self.replay_all_compensations()?;
        let txn = self.global.fresh_txn();
        self.aborts += 1;
        self.code = Some(self.original.clone());
        self.stack = Vec::new();
        self.open_children = 0;
        self.explicit_open = false;
        self.txn = txn;
        self.record(Event::Begin { thread: tid, txn });
        Ok(txn)
    }

    /// Rewinds the current transaction completely: walking the local log
    /// from the tail, pulled entries are UNPULLed, pushed entries are
    /// UNPUSHed then UNAPPed, unpushed entries are UNAPPed. Every scope
    /// frame is popped (in-flight open children record their `Abort`);
    /// compensations owned by popped scopes are replayed, while those
    /// owned by the root stay registered for the caller's abort path.
    pub fn rewind_all(&mut self) -> MachineResult<()> {
        self.rewind_suffix(0)?;
        self.pop_rewound_frames(0, true)
    }

    /// Rewinds the current transaction's local log down to `target_len`
    /// entries, taking whatever back rules the tail requires — the
    /// checkpoint/partial-abort mechanism of §6.2. Scopes entered
    /// strictly after `target_len` are aborted with their suffixes.
    ///
    /// # Errors
    ///
    /// Propagates criterion violations from the constituent
    /// UNPUSH/UNPULL steps (an UNAPP at the tail never fails).
    pub fn rewind_to(&mut self, target_len: usize) -> MachineResult<()> {
        self.rewind_suffix(target_len)?;
        self.pop_rewound_frames(target_len, false)
    }

    /// Pushes every unpushed own operation in local order, then commits —
    /// the optimistic commit sequence ("PUSH everything and CMT at an
    /// uninterleaved moment", §6.2).
    pub fn push_all_and_commit(&mut self) -> MachineResult<TxnId> {
        let unpushed: Vec<OpId> = self.local.not_pushed_ops().iter().map(|o| o.id).collect();
        for id in unpushed {
            self.push(id)?;
        }
        self.commit()
    }

    /// Ids of the current transaction's unpushed operations, in order.
    pub fn unpushed_ids(&self) -> Vec<OpId> {
        self.local.not_pushed_ops().iter().map(|o| o.id).collect()
    }

    /// Abandons the current transaction without retrying it: fully
    /// rewinds (UNPULL/UNPUSH/UNAPP from the tail), records an `Abort`,
    /// and advances to the next pending transaction if one is queued —
    /// the service front-end's explicit `Abort` request (the client does
    /// not want the work redone, unlike [`Self::abort_and_retry`]).
    pub fn abandon(&mut self) -> MachineResult<()> {
        if self.code.is_none() {
            return Err(MachineError::ThreadFinished(self.tid));
        }
        self.rewind_all()?;
        let old = self.txn;
        self.aborts += 1;
        self.stack = Vec::new();
        let tid = self.tid;
        self.record(Event::Abort {
            thread: tid,
            txn: old,
        });
        self.replay_all_compensations()?;
        self.open_children = 0;
        self.explicit_open = false;
        self.begin_next_pending();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Group-commit batch path (see [`crate::group`]): the PUSH and CMT
    // bodies above, re-entrant under a caller-held shard view so many
    // transactions share one lock acquisition. Criteria, audit tallies
    // and recorded events are identical to the per-transaction path.
    // ------------------------------------------------------------------

    /// The single shard every operation of the current transaction routes
    /// to, if this transaction is eligible for the per-shard group-commit
    /// path — `None` (caller falls back to the per-transaction path) when
    /// the thread is finished, the local log is empty, any operation
    /// routes coarse or to a different shard, coarse mode is on, or a
    /// transport is installed (the seam serializes at the shard executor;
    /// batching behind its back would bypass the envelope).
    pub fn group_route(&self) -> Option<usize> {
        if self.code.is_none() || self.local.is_empty() {
            return None;
        }
        if self.global.coarse_mode() || self.global.transport().is_some() {
            return None;
        }
        // Nested scopes and registered compensations stay off the batch
        // path: resolving them (open commits, compensation replay)
        // acquires shard locks of its own, which would deadlock under
        // the caller's held batch view.
        if !self.frames.is_empty() || !self.comps.is_empty() || self.open_children > 0 {
            return None;
        }
        let mut target: Option<usize> = None;
        for e in self.local.iter() {
            match self.global.route(&e.op.method) {
                Route::Coarse => return None,
                Route::Single(i) => match target {
                    None => target = Some(i),
                    Some(t) if t == i => {}
                    Some(_) => return None,
                },
            }
        }
        target
    }

    /// **PUSH** under a caller-held view (the group-commit batch path):
    /// same fault gate, criteria, audit tallies, flag flip and trace
    /// event as [`Self::push`], but the critical section is the caller's
    /// one batch-wide lock acquisition and the commit-sequence stamp
    /// comes from the batch's reserved contiguous block.
    pub(crate) fn batch_push_in_view(
        &mut self,
        view: &mut LogView<'_, S>,
        target: usize,
        stamp: u64,
        op_id: OpId,
        tally: &mut BatchTally,
    ) -> MachineResult<()> {
        self.fault_gate(Rule::Push)?;
        let checked = self.mode() != CheckMode::Unchecked;
        let shard = self.shard();
        let (op, pos) = {
            let pos = self
                .local
                .position(op_id)
                .ok_or(MachineError::NoSuchOp(op_id))?;
            let entry = &self.local.entries()[pos];
            match entry.flag {
                LocalFlag::NotPushed { .. } => {}
                LocalFlag::Pushed { .. } => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "npshd",
                        found: "pshd",
                    })
                }
                LocalFlag::Pulled => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "npshd",
                        found: "pld",
                    })
                }
            }
            (entry.op.clone(), pos)
        };
        if checked {
            // Criterion (i): op ◁ op' for every earlier npshd own op'.
            tally.reached += 1;
            if self.global.statically_discharged(Rule::Push, Clause::I) {
                #[cfg(debug_assertions)]
                for e in &self.local.entries()[..pos] {
                    assert!(
                        !e.flag.is_not_pushed() || self.global.spec().mover(&op, &e.op),
                        "static discharge of PUSH (i) contradicted dynamically: {} vs {}",
                        op.id,
                        e.op.id
                    );
                }
                self.global.audit.pass_static(Rule::Push, Clause::I);
                tally.statically_discharged += 1;
            } else {
                for e in &self.local.entries()[..pos] {
                    if e.flag.is_not_pushed() && !self.global.mover_q(shard, &op, &e.op) {
                        self.global.audit.fail(Rule::Push, Clause::I);
                        tally.violated += 1;
                        return Err(MachineError::criterion(
                            Rule::Push,
                            Clause::I,
                            format!(
                                "{} does not move across earlier unpushed {}",
                                op.id, e.op.id
                            ),
                        ));
                    }
                }
                self.global.audit.pass(Rule::Push, Clause::I);
                tally.discharged += 1;
            }
            // Criteria (ii)/(iii) under the held view — the exact locked
            // evaluation of the per-transaction path. The tally deltas
            // are inferred from the outcome: (ii) is reached always and
            // recorded pass/static/fail; (iii) is reached only when (ii)
            // held.
            let ii_static = self.global.statically_discharged(Rule::Push, Clause::Ii);
            match crate::transport::locked_push_criteria(&self.global, op.txn, shard, view, &op) {
                Ok(()) => {
                    tally.reached += 2;
                    if ii_static {
                        tally.statically_discharged += 1;
                    } else {
                        tally.discharged += 1;
                    }
                    tally.discharged += 1;
                }
                Err(e) => {
                    if let MachineError::Criterion(v) = &e {
                        match v.clause {
                            Clause::Ii => {
                                tally.reached += 1;
                                tally.violated += 1;
                            }
                            Clause::Iii => {
                                tally.reached += 2;
                                if ii_static {
                                    tally.statically_discharged += 1;
                                } else {
                                    tally.discharged += 1;
                                }
                                tally.violated += 1;
                            }
                            _ => {}
                        }
                    }
                    return Err(e);
                }
            }
        }
        self.global
            .append_push_stamped(view, target, stamp, op.clone());
        let entry = self.local.entry_mut(op_id).expect("position found above");
        let (saved_code, saved_stack) = match &entry.flag {
            LocalFlag::NotPushed {
                saved_code,
                saved_stack,
            } => (saved_code.clone(), saved_stack.clone()),
            _ => unreachable!("flag checked above"),
        };
        entry.flag = LocalFlag::Pushed {
            saved_code,
            saved_stack,
        };
        let tid = self.tid;
        self.record(Event::Push {
            thread: tid,
            op: op_id,
            method: op.method,
        });
        Ok(())
    }

    /// **CMT** under a caller-held view (the group-commit batch path):
    /// same criteria, audit tallies, committed record, cache advance and
    /// trace events as [`Self::commit`], but criterion (iii) and the
    /// `cmt` effect run inside the caller's one batch-wide lock
    /// acquisition. The caller must hold every shard this transaction's
    /// pushed/pulled operations route to (the group-eligibility check:
    /// [`Self::group_route`]).
    pub(crate) fn batch_commit_in_view(
        &mut self,
        view: &mut LogView<'_, S>,
        tally: &mut BatchTally,
    ) -> MachineResult<TxnId> {
        debug_assert!(
            self.frames.is_empty() && self.comps.is_empty(),
            "batch commit on a handle with live scopes (group_route must exclude it)"
        );
        self.fault_gate(Rule::Cmt)?;
        let checked = self.mode() != CheckMode::Unchecked;
        let txn = self.txn;
        if checked {
            // Criterion (i): fin(c).
            tally.reached += 1;
            if !self.active_code()?.fin() {
                self.global.audit.fail(Rule::Cmt, Clause::I);
                tally.violated += 1;
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::I,
                    "no method-free path to skip remains".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::I);
            tally.discharged += 1;
            // Criterion (ii): all own ops pushed.
            tally.reached += 1;
            if !self.local.fully_pushed() {
                self.global.audit.fail(Rule::Cmt, Clause::Ii);
                tally.violated += 1;
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::Ii,
                    "local log contains npshd operations".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::Ii);
            tally.discharged += 1;
        }
        let (own_ops, pulled_from) = {
            let pulled = self
                .local
                .iter()
                .filter(|e| e.flag.is_pulled())
                .map(|e| (e.op.id, e.op.txn))
                .collect();
            (self.local.own_ops(), pulled)
        };
        let flipped = {
            if checked {
                // Criterion (iii): every pulled op is committed.
                tally.reached += 1;
                for pulled in self.local.pulled_ops() {
                    match view.entry(pulled.id) {
                        Some(e) if e.flag == GlobalFlag::Committed => {}
                        Some(_) => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            tally.violated += 1;
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} is still uncommitted", pulled.id),
                            ));
                        }
                        None => {
                            self.global.audit.fail(Rule::Cmt, Clause::Iii);
                            tally.violated += 1;
                            return Err(MachineError::criterion(
                                Rule::Cmt,
                                Clause::Iii,
                                format!("pulled {} vanished from the global log", pulled.id),
                            ));
                        }
                    }
                }
                self.global.audit.pass(Rule::Cmt, Clause::Iii);
                tally.discharged += 1;
            }
            let flipped = view.commit_local(&self.local);
            self.global.push_committed(CommittedTxn {
                txn,
                thread: self.tid,
                code: self.committed_code(),
                ops: own_ops,
                pulled_from,
                kind: TxnKind::Top,
            });
            self.global.advance_caches(view);
            flipped
        };
        let tid = self.tid;
        self.record(Event::Commit {
            thread: tid,
            txn,
            ops: flipped,
        });
        self.commits += 1;
        self.reset_txn_state();
        self.begin_next_pending();
        Ok(txn)
    }

    /// **UNPUSH** under a caller-held view (the group-commit failure
    /// rollback): same criteria, audit tallies, flag restore and trace
    /// event as [`Self::unpush`], but the critical section is the
    /// caller's batch-wide lock acquisition.
    pub(crate) fn batch_unpush_in_view(
        &mut self,
        view: &mut LogView<'_, S>,
        op_id: OpId,
        tally: &mut BatchTally,
    ) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        let check_gray = self.mode() == CheckMode::Checked;
        let shard = self.shard();
        {
            let entry = self
                .local
                .entry(op_id)
                .ok_or(MachineError::NoSuchOp(op_id))?;
            match entry.flag {
                LocalFlag::Pushed { .. } => {}
                LocalFlag::NotPushed { .. } => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "pshd",
                        found: "npshd",
                    })
                }
                LocalFlag::Pulled => {
                    return Err(MachineError::WrongFlag {
                        op: op_id,
                        expected: "pshd",
                        found: "pld",
                    })
                }
            }
        }
        let gray_static = check_gray && self.global.statically_discharged(Rule::UnPush, Clause::I);
        let op = match crate::transport::locked_unpush_in_view(
            &self.global,
            shard,
            view,
            op_id,
            checked,
            check_gray,
        ) {
            Ok(op) => {
                if checked {
                    // Gray criterion (i) when graying, plus criterion (ii).
                    tally.reached += if check_gray { 2 } else { 1 };
                    if check_gray {
                        if gray_static {
                            tally.statically_discharged += 1;
                        } else {
                            tally.discharged += 1;
                        }
                    }
                    tally.discharged += 1;
                }
                op
            }
            Err(e) => {
                if checked {
                    if let MachineError::Criterion(v) = &e {
                        match v.clause {
                            Clause::I => {
                                tally.reached += 1;
                                tally.violated += 1;
                            }
                            Clause::Ii => {
                                tally.reached += if check_gray { 2 } else { 1 };
                                if check_gray {
                                    if gray_static {
                                        tally.statically_discharged += 1;
                                    } else {
                                        tally.discharged += 1;
                                    }
                                }
                                tally.violated += 1;
                            }
                            _ => {}
                        }
                    }
                }
                return Err(e);
            }
        };
        let entry = self.local.entry_mut(op_id).expect("checked above");
        let (saved_code, saved_stack) = match &entry.flag {
            LocalFlag::Pushed {
                saved_code,
                saved_stack,
            } => (saved_code.clone(), saved_stack.clone()),
            _ => unreachable!("flag checked above"),
        };
        entry.flag = LocalFlag::NotPushed {
            saved_code,
            saved_stack,
        };
        let tid = self.tid;
        self.record(Event::UnPush {
            thread: tid,
            op: op_id,
            method: op.method,
        });
        Ok(())
    }

    /// The full abort-and-restart of [`Self::abort_and_retry`], executed
    /// inside a caller-held view: the rewind walks the local log from the
    /// tail exactly as [`Self::rewind_all`] (UNPULL / in-view UNPUSH then
    /// UNAPP / UNAPP), so a transaction that fails mid-batch leaves `G` —
    /// and the recorded trace — exactly as the per-transaction path's
    /// immediate abort would, before the next batched transaction's
    /// criteria run.
    pub(crate) fn batch_abort_in_view(
        &mut self,
        view: &mut LogView<'_, S>,
        tally: &mut BatchTally,
    ) -> MachineResult<TxnId> {
        debug_assert!(
            self.frames.is_empty() && self.comps.is_empty(),
            "batch abort on a handle with live scopes (group_route must exclude it)"
        );
        if self.code.is_none() {
            return Err(MachineError::ThreadFinished(self.tid));
        }
        loop {
            let last = match self.local.entries().last() {
                None => break,
                Some(e) => (e.op.id, e.flag.clone()),
            };
            match last.1 {
                LocalFlag::Pulled => {
                    self.unpull(last.0)?;
                }
                LocalFlag::Pushed { .. } => {
                    self.batch_unpush_in_view(view, last.0, tally)?;
                    self.unapp()?;
                }
                LocalFlag::NotPushed { .. } => {
                    self.unapp()?;
                }
            }
        }
        let old = self.txn;
        let txn = self.global.fresh_txn();
        self.aborts += 1;
        self.code = Some(self.original.clone());
        self.stack = Vec::new();
        self.txn = txn;
        let tid = self.tid;
        self.record(Event::Abort {
            thread: tid,
            txn: old,
        });
        self.record(Event::Begin { thread: tid, txn });
        Ok(txn)
    }
}

/// Folds a method sequence into `m₁ ; m₂ ; …` (or `skip` when empty) —
/// the committed-record code of explicit open scopes and compensating
/// transactions, whose "program" is exactly the operations performed.
fn methods_as_seq<'a, M, I>(methods: I) -> Code<M>
where
    M: Clone + 'a,
    I: DoubleEndedIterator<Item = &'a M>,
{
    let mut code = Code::Skip;
    for m in methods.rev() {
        code = match code {
            Code::Skip => Code::method(m.clone()),
            c => Code::seq(Code::method(m.clone()), c),
        };
    }
    code
}
