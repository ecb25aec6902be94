//! The PUSH/PULL machine (paper §4, Figures 4–6) — a facade over the
//! split state.
//!
//! A [`Machine`] owns one [`GlobalState`] (the shared log `G`, the
//! committed-transaction list, the criteria audit — see
//! [`crate::global`]) and one [`TxnHandle`] per thread (code, stack and
//! local log `L` — see [`crate::handle`]). The seven rules of Figure 5
//! are methods: [`Machine::app`], [`Machine::unapp`], [`Machine::push`],
//! [`Machine::unpush`], [`Machine::pull`], [`Machine::unpull`] and
//! [`Machine::commit`]; each delegates to the thread's handle, which is
//! where the rule logic and its lock discipline live. In
//! [`CheckMode::Checked`] every rule *criterion* is verified before the
//! step is taken; a failing criterion returns [`MachineError::Criterion`]
//! naming the rule and clause. Because Theorem 5.17 proves any
//! criteria-respecting run serializable, algorithms driven through a
//! checked machine are serializable **by construction** on every run they
//! take — the independent oracle in [`crate::serializability`] re-verifies
//! this in the test suites.
//!
//! Sequential drivers use the machine as a single object; the parallel
//! harness instead borrows the handles individually
//! ([`Machine::handles_mut`]) and hands one to each OS worker — that is
//! the point of the split: APP/UNAPP proceed with no global lock, and
//! only PUSH/UNPUSH/PULL/CMT serialize on the short [`GlobalState`]
//! critical section.
//!
//! Threads execute a *sequence of transactions* (each program in the list
//! passed to [`Machine::add_thread`] is one `tx c` body). Nested
//! transactions are flattened, as in the paper.

use std::sync::Arc;

use crate::audit::CriteriaAudit;
use crate::error::{MachineError, MachineResult};
use crate::global::GlobalState;
use crate::handle::TxnHandle;
use crate::lang::Code;
use crate::log::GlobalLog;
use crate::op::{OpId, ThreadId, TxnId};
use crate::scope::ScopeKind;
use crate::spec::SeqSpec;
use crate::trace::Trace;

pub use crate::global::CommittedTxn;

/// The `(method, continuation)` pairs `step(c)` offers a thread.
pub type StepOptions<M> = Vec<(M, Code<M>)>;

/// A thread of the machine — alias kept from before the
/// [`GlobalState`]/[`TxnHandle`] split.
pub type Thread<S> = TxnHandle<S>;

/// How strictly rule criteria are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Enforce every criterion of Figure 5, including the ones the paper
    /// grays out as "not strictly necessary" (PULL (iii), UNPUSH (i)).
    #[default]
    Checked,
    /// Enforce all black criteria but skip the grayed-out ones.
    RelaxedGray,
    /// Enforce only structural well-formedness (flags, membership), no
    /// commutativity or allowedness checks. Exists so benchmarks can
    /// measure the cost of checking; never use for correctness arguments.
    Unchecked,
}

/// The PUSH/PULL machine: per-thread [`TxnHandle`]s sharing one
/// [`GlobalState`].
#[derive(Debug)]
pub struct Machine<S: SeqSpec> {
    global: Arc<GlobalState<S>>,
    handles: Vec<TxnHandle<S>>,
}

impl<S: SeqSpec + Clone> Clone for Machine<S> {
    /// Deep copy: the shared state is cloned (fresh generators, audit and
    /// log) and every handle is re-pointed at the copy, so clones share
    /// nothing — the property the model checker's branching relies on.
    fn clone(&self) -> Self {
        let global = Arc::new(self.global.deep_clone());
        let handles = self
            .handles
            .iter()
            .map(|h| h.clone_with(Arc::clone(&global)))
            .collect();
        Self { global, handles }
    }
}

impl<S: SeqSpec> Machine<S> {
    /// Creates a machine over the given sequential specification, in
    /// [`CheckMode::Checked`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pushpull_core::machine::Machine;
    /// use pushpull_core::lang::Code;
    /// use pushpull_core::toy::{ToyCounter, CounterMethod};
    ///
    /// let mut m = Machine::new(ToyCounter::with_bound(8));
    /// let t = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    /// let op = m.app_auto(t)?;
    /// m.push(t, op)?;
    /// m.commit(t)?;
    /// assert_eq!(m.global().committed_ops().len(), 1);
    /// # Ok::<(), pushpull_core::error::MachineError>(())
    /// ```
    pub fn new(spec: S) -> Self {
        Self::with_mode(spec, CheckMode::Checked)
    }

    /// Creates a machine with an explicit [`CheckMode`].
    pub fn with_mode(spec: S, mode: CheckMode) -> Self {
        Self {
            global: Arc::new(GlobalState::new(spec, mode)),
            handles: Vec::new(),
        }
    }

    /// A snapshot of the criteria audit: which proof obligations this
    /// run has discharged (checked-and-passed) or violated, and how many
    /// primitive mover/`allowed` queries they cost.
    pub fn audit(&self) -> CriteriaAudit {
        self.global.audit_snapshot()
    }

    /// Clears the criteria audit counters.
    pub fn reset_audit(&mut self) {
        self.global.audit.reset();
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        self.global.spec()
    }

    /// The shared half of the machine.
    pub fn global_state(&self) -> &Arc<GlobalState<S>> {
        &self.global
    }

    /// Arms (or, with `None`, disarms) a fault-injection hook; see
    /// [`crate::faults::FaultHook`].
    pub fn set_fault_hook(&self, hook: Option<std::sync::Arc<dyn crate::faults::FaultHook>>) {
        self.global.set_fault_hook(hook);
    }

    /// Arms (or, with `None`, disarms) statically proven criteria facts;
    /// see [`GlobalState::set_static_discharge`].
    pub fn set_static_discharge(
        &self,
        facts: Option<std::sync::Arc<crate::static_facts::StaticDischarge>>,
    ) {
        self.global.set_static_discharge(facts);
    }

    /// Installs (or, with `None`, removes) a spec certificate — the
    /// machine-checked verdict that the spec's footprint/mover
    /// declarations agree with the exhaustive ground truth; see
    /// [`GlobalState::install_certificate`].
    pub fn install_certificate(
        &self,
        cert: Option<std::sync::Arc<crate::certificate::SpecCertificate>>,
    ) {
        self.global.install_certificate(cert);
    }

    /// The installed spec certificate, if any.
    pub fn certificate(&self) -> Option<std::sync::Arc<crate::certificate::SpecCertificate>> {
        self.global.certificate()
    }

    /// Turns strict certificate-gated arming on or off; see
    /// [`GlobalState::set_require_certificate`]. When strict mode finds
    /// the log already sharded and uncertified it demotes to coarse
    /// routing immediately.
    pub fn set_require_certificate(&self, on: bool) {
        self.global.set_require_certificate(on);
    }

    /// The diagnostics recorded by the certificate gate (refused arming
    /// requests, coarse demotions), in order.
    pub fn arming_diagnostics(&self) -> Vec<String> {
        self.global.arming_diagnostics()
    }

    /// Routes the single-shard PUSH/UNPUSH critical sections through
    /// [`LocalTransport`](crate::transport::LocalTransport): inline
    /// execution under the shard mutex, identical behaviour to the
    /// default no-transport machine except that transport requests are
    /// counted. The reference point the channel transport is measured
    /// (and golden-tested) against.
    pub fn set_local_transport(&self) {
        self.global
            .set_transport(Some(Arc::new(crate::transport::LocalTransport)));
    }

    /// Removes the installed shard transport: back to the in-place
    /// locked path.
    pub fn clear_transport(&self) {
        self.global.set_transport(None);
    }

    /// The installed transport's short name (`"local"` / `"channel"`),
    /// or `None` when no transport is installed.
    pub fn transport_name(&self) -> Option<&'static str> {
        self.global.transport_name()
    }

    /// Every machine counter at this instant — shard locks, the seqlock
    /// path, arena occupancy, transport, group commit, nested scopes; see
    /// [`GlobalState::metrics`].
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.global.metrics()
    }

    /// Shard `shard`'s own lock, snapshot and arena metrics (the
    /// watchdog's per-shard breakdown); see
    /// [`GlobalState::shard_metrics`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below [`Self::log_shards`].
    pub fn shard_metrics(&self, shard: usize) -> crate::metrics::MetricsSnapshot {
        self.global.shard_metrics(shard)
    }

    /// The group-commit view of [`Self::metrics`]: batches sealed,
    /// transactions and operations batched, lock acquisitions saved, and
    /// the batch-size histogram. All-zero until [`Self::commit_group`]
    /// runs.
    pub fn group_stats(&self) -> crate::global::GroupStats {
        (&self.metrics()).into()
    }

    /// Commits the commit-ready transactions of `tids` through the
    /// per-shard group-commit path (see [`crate::group::commit_group`]):
    /// one shard-lock acquisition and one contiguous stamp range per
    /// shard batch, with ineligible threads reported back for the
    /// per-transaction fallback. Duplicate or out-of-range tids error.
    pub fn commit_group(&mut self, tids: &[ThreadId]) -> MachineResult<crate::group::GroupOutcome> {
        let mut want = vec![false; self.handles.len()];
        for t in tids {
            if t.0 >= self.handles.len() {
                return Err(MachineError::NoSuchThread(*t));
            }
            if std::mem::replace(&mut want[t.0], true) {
                return Err(MachineError::NoSuchThread(*t));
            }
        }
        // Disjoint `&mut` handles, in the caller's tid order.
        let mut by_tid: Vec<Option<&mut TxnHandle<S>>> = self
            .handles
            .iter_mut()
            .zip(&want)
            .map(|(h, w)| if *w { Some(h) } else { None })
            .collect();
        let mut selected: Vec<&mut TxnHandle<S>> = Vec::with_capacity(tids.len());
        for t in tids {
            selected.push(by_tid[t.0].take().expect("validated above"));
        }
        Ok(crate::group::commit_group(&mut selected))
    }

    /// Is the incremental (committed-prefix cached) `allowed` evaluation
    /// enabled? See [`GlobalState::set_incremental`].
    pub fn incremental(&self) -> bool {
        self.global.incremental()
    }

    /// Switches between incremental and full-replay criteria evaluation;
    /// both produce identical verdicts and audit counts.
    pub fn set_incremental(&self, on: bool) {
        self.global.set_incremental(on);
    }

    /// A snapshot of the shared log `G`, merged across the footprint
    /// shards in commit-stamp order.
    pub fn global(&self) -> GlobalLog<S::Method, S::Ret> {
        self.global.global_snapshot()
    }

    /// Number of footprint shards the shared log is split into.
    pub fn log_shards(&self) -> usize {
        self.global.shard_count()
    }

    /// Read-only, unaudited "would PUSH accept this op right now?" —
    /// zero locks on the declared-footprint fast path. See
    /// [`TxnHandle::can_push`].
    pub fn can_push(&self, tid: ThreadId, op_id: OpId) -> MachineResult<bool> {
        self.thread(tid)?.can_push(op_id)
    }

    /// Re-shards the global log into `shards` footprint shards (clamped
    /// to at least one), re-routing every existing entry by its method's
    /// declared footprint and re-pointing every handle at the rebuilt
    /// shared state. Commit-sequence stamps, the commit order, the audit
    /// and all generators are preserved, so resharding mid-run changes
    /// the cost of the criteria, never their verdicts — and `shards == 1`
    /// reproduces the historical single-lock machine bit-for-bit.
    ///
    /// An installed shard transport **detaches** (it is bound to the old
    /// layout's server set and degraded marks); re-install one after
    /// resharding if the seam is wanted.
    ///
    /// The per-shard metrics (lock and snapshot tallies) restart with the
    /// new layout; every machine-wide metric (transport, group commit,
    /// nesting) carries over.
    ///
    /// Under strict certificate mode
    /// ([`Machine::set_require_certificate`]) a shard count above one
    /// without a valid [`SpecCertificate`](crate::certificate) still
    /// reshards, but the rebuilt log is demoted to the sticky coarse
    /// path (every critical section takes all shard locks — sound,
    /// never mis-routed, with a diagnostic recorded in
    /// [`Machine::arming_diagnostics`]) instead of trusting the
    /// uncertified footprint declarations for fine-grained routing.
    pub fn set_log_shards(&mut self, shards: usize) {
        let n = shards.max(1);
        let gate_demote = n > 1 && self.global.require_certificate() && !self.global.certified();
        if n == self.global.shard_count() {
            if gate_demote && !self.global.coarse_mode() {
                self.global.demote_to_coarse(
                    "strict mode: fine-grained shard routing requested without a valid \
                     spec certificate; demoting to coarse routing",
                );
            }
            return;
        }
        let global = Arc::new(self.global.rebuilt_with_shards(n));
        if gate_demote {
            global.demote_to_coarse(
                "strict mode: fine-grained shard routing requested without a valid \
                 spec certificate; demoting to coarse routing",
            );
        }
        for h in &mut self.handles {
            h.rebind(Arc::clone(&global));
        }
        self.global = global;
    }

    /// The recorded trace: every handle's sequence-stamped event buffer,
    /// merged into the real-time total order.
    pub fn trace(&self) -> Trace<S::Method, S::Ret> {
        let mut stamped: Vec<&crate::handle::StampedEvent<S>> = self
            .handles
            .iter()
            .flat_map(|h| h.events().iter())
            .collect();
        stamped.sort_by_key(|(seq, _)| *seq);
        let mut trace = Trace::new();
        for (_, e) in stamped {
            trace.record(e.clone());
        }
        trace
    }

    /// The current check mode.
    pub fn mode(&self) -> CheckMode {
        self.global.mode()
    }

    /// Committed transactions in commit order (the serial witness).
    pub fn committed_txns(&self) -> Vec<CommittedTxn<S::Method, S::Ret>> {
        self.global.committed_txns()
    }

    /// Number of threads (live and done).
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Immutable access to a thread's handle.
    pub fn thread(&self, tid: ThreadId) -> MachineResult<&TxnHandle<S>> {
        self.handles
            .get(tid.0)
            .ok_or(MachineError::NoSuchThread(tid))
    }

    /// Mutable access to a thread's handle — how drivers and the parallel
    /// harness run rules directly on the per-thread half.
    pub fn handle_mut(&mut self, tid: ThreadId) -> MachineResult<&mut TxnHandle<S>> {
        self.handles
            .get_mut(tid.0)
            .ok_or(MachineError::NoSuchThread(tid))
    }

    /// Mutable access to every handle at once. The parallel harness uses
    /// this to give each OS worker its own handle; the handles all share
    /// the machine's [`GlobalState`].
    pub fn handles_mut(&mut self) -> &mut [TxnHandle<S>] {
        &mut self.handles
    }

    /// Adds a thread that will run `programs` as a sequence of
    /// transactions (each element is one `tx c` body). The first
    /// transaction begins immediately.
    pub fn add_thread(&mut self, programs: Vec<Code<S::Method>>) -> ThreadId {
        let tid = ThreadId(self.handles.len());
        self.handles
            .push(TxnHandle::new(Arc::clone(&self.global), tid, programs));
        tid
    }

    /// Enqueues another transaction body on an existing thread.
    pub fn enqueue_txn(&mut self, tid: ThreadId, program: Code<S::Method>) -> MachineResult<()> {
        self.handle_mut(tid)?.enqueue(program);
        Ok(())
    }

    /// `step(c)` for the thread's current code: every next reachable
    /// method with its continuation.
    pub fn step_options(&self, tid: ThreadId) -> MachineResult<StepOptions<S::Method>> {
        self.thread(tid)?.step_options()
    }

    /// `fin(c)` for the thread's current code.
    pub fn can_finish(&self, tid: ThreadId) -> MachineResult<bool> {
        self.thread(tid)?.can_finish()
    }

    /// Return values `r` such that the local log allows `⟨m, r⟩`
    /// (APP criterion (ii) candidates).
    pub fn allowed_results(&self, tid: ThreadId, method: &S::Method) -> MachineResult<Vec<S::Ret>> {
        self.thread(tid)?.allowed_results(method)
    }

    /// The structural steps (Figure 6) applicable to the thread's current
    /// code at its leftmost redex.
    pub fn struct_options(
        &self,
        tid: ThreadId,
    ) -> MachineResult<Vec<crate::structural::StructStep>> {
        self.thread(tid)?.struct_options()
    }

    /// Applies one structural reduction (NONDETL/NONDETR/LOOP/SEMISKIP,
    /// with the SEMI congruence locating the redex) to the thread's code.
    ///
    /// Drivers normally work through `step`/`fin` and never need this;
    /// it exists for fidelity with the paper's `→rt` relation and for
    /// testing. Structural steps change no logs, so they record no trace
    /// event (they are invisible to the serializability argument).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] when the step does not apply.
    pub fn struct_step(
        &mut self,
        tid: ThreadId,
        step: crate::structural::StructStep,
    ) -> MachineResult<()> {
        self.handle_mut(tid)?.struct_step(step)
    }

    // ------------------------------------------------------------------
    // The seven rules of Figure 5 (delegated to the thread's handle).
    // ------------------------------------------------------------------

    /// **APP** (Figure 5): applies `method` with continuation `cont` and
    /// return value `ret`, recording the operation `npshd` in `L`.
    /// Thread-local; see [`TxnHandle::app`] for the criteria.
    pub fn app(
        &mut self,
        tid: ThreadId,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
    ) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app(method, cont, ret)
    }

    /// **APP**, selecting the first `step(c)` option whose method equals
    /// `method` and the first allowed return value.
    pub fn app_method(&mut self, tid: ThreadId, method: &S::Method) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app_method(method)
    }

    /// **APP**, selecting the first `step(c)` option and the first
    /// allowed return value.
    pub fn app_auto(&mut self, tid: ThreadId) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app_auto()
    }

    /// **UNAPP**: rewinds the most recent local entry (which must be
    /// `npshd`), restoring the saved code and stack.
    pub fn unapp(&mut self, tid: ThreadId) -> MachineResult<OpId> {
        self.handle_mut(tid)?.unapp()
    }

    /// **PUSH**: publishes a local operation to the shared log. See
    /// [`TxnHandle::push`] for the criteria and the critical section.
    pub fn push(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.push(op_id)
    }

    /// **UNPUSH**: recalls a pushed operation from the shared log. See
    /// [`TxnHandle::unpush`].
    pub fn unpush(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.unpush(op_id)
    }

    /// **PULL**: imports another transaction's published operation into
    /// the local view. See [`TxnHandle::pull`].
    pub fn pull(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.pull(op_id)
    }

    /// **UNPULL**: discards a pulled operation from the local view. See
    /// [`TxnHandle::unpull`].
    pub fn unpull(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.unpull(op_id)
    }

    /// **CMT**: commits the thread's current transaction. See
    /// [`TxnHandle::commit`] for the criteria; on success the thread's
    /// next pending transaction (if any) begins.
    pub fn commit(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.commit()
    }

    // ------------------------------------------------------------------
    // Derived operations (compositions of the rules).
    // ------------------------------------------------------------------

    /// Fully rewinds the current transaction (the composition of `⃗back`
    /// rules) and restarts it as a fresh transaction instance with the
    /// original code. Records an `Abort` plus a `Begin` event.
    pub fn abort_and_retry(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.abort_and_retry()
    }

    /// Rewinds the current transaction completely: walking the local log
    /// from the tail, pulled entries are UNPULLed, pushed entries are
    /// UNPUSHed then UNAPPed, unpushed entries are UNAPPed.
    pub fn rewind_all(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.rewind_all()
    }

    /// Rewinds the current transaction's local log down to `target_len`
    /// entries, taking whatever back rules the tail requires — the
    /// checkpoint/partial-abort mechanism of §6.2 ("placemarkers are set
    /// so that UNAPP only needs to be performed for some operations";
    /// the paper's model of checkpoints \[19\] and closed nesting \[27\]).
    ///
    /// # Errors
    ///
    /// Propagates criterion violations from the constituent UNPUSH/UNPULL
    /// steps (an UNAPP at the tail never fails).
    pub fn rewind_to(&mut self, tid: ThreadId, target_len: usize) -> MachineResult<()> {
        self.handle_mut(tid)?.rewind_to(target_len)
    }

    /// Pushes every unpushed own operation in local order, then commits —
    /// the optimistic commit sequence ("PUSH everything and CMT at an
    /// uninterleaved moment", §6.2).
    pub fn push_all_and_commit(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.push_all_and_commit()
    }

    /// Ids of the current transaction's unpushed operations, in order.
    pub fn unpushed_ids(&self, tid: ThreadId) -> MachineResult<Vec<OpId>> {
        Ok(self.thread(tid)?.unpushed_ids())
    }

    /// Pulls every *committed* global operation not yet in the local log,
    /// in global-log order — how opaque transactions snapshot the shared
    /// state (§6.2: "transactions begin by PULLing all operations").
    pub fn pull_all_committed(&mut self, tid: ThreadId) -> MachineResult<usize> {
        self.handle_mut(tid)?.pull_committed(false)
    }

    // ------------------------------------------------------------------
    // Nested transaction scopes (§6.2 checkpoints, closed/open nesting).
    // ------------------------------------------------------------------

    /// Opens a nested scope on `tid` explicitly (no syntax involved):
    /// subsequent operations belong to the scope until
    /// [`commit_nested`](Machine::commit_nested) merges it or
    /// [`abort_nested`](Machine::abort_nested) rewinds it. Returns the
    /// local-log length at entry (the scope's base). See
    /// [`TxnHandle::begin_nested`].
    pub fn begin_nested(&mut self, tid: ThreadId, kind: ScopeKind) -> MachineResult<usize> {
        self.handle_mut(tid)?.begin_nested(kind)
    }

    /// Commits `tid`'s innermost scope: a closed scope merges into its
    /// parent (observationally free); an open scope commits straight to
    /// the shared log as its own transaction and registers a
    /// compensation with the parent. See [`TxnHandle::commit_nested`].
    pub fn commit_nested(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.commit_nested()
    }

    /// Aborts `tid`'s innermost scope, rewinding only its log suffix —
    /// the partial abort of §6.2. The enclosing transaction survives.
    /// See [`TxnHandle::abort_nested`].
    pub fn abort_nested(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.abort_nested()
    }

    /// Sets a checkpoint placemarker (a closed scope used purely as a
    /// rewind target) and returns its position for
    /// [`abort_to_checkpoint`](Machine::abort_to_checkpoint).
    pub fn begin_checkpoint(&mut self, tid: ThreadId) -> MachineResult<usize> {
        self.handle_mut(tid)?.begin_checkpoint()
    }

    /// Partially aborts back to the checkpoint whose base is
    /// `target_len`, consuming it and every scope above it. See
    /// [`TxnHandle::abort_to_checkpoint`].
    pub fn abort_to_checkpoint(&mut self, tid: ThreadId, target_len: usize) -> MachineResult<()> {
        self.handle_mut(tid)?.abort_to_checkpoint(target_len)
    }

    /// Number of scopes currently open on `tid` (0 = flat).
    pub fn scope_depth(&self, tid: ThreadId) -> MachineResult<usize> {
        Ok(self.thread(tid)?.scope_depth())
    }

    /// Compensations `tid`'s current transaction would replay if it
    /// aborted now (committed open-nested children awaiting the parent's
    /// fate).
    pub fn pending_compensations(&self, tid: ThreadId) -> MachineResult<usize> {
        Ok(self.thread(tid)?.pending_compensations())
    }
}

impl<S> Machine<S>
where
    S: SeqSpec + Send + Sync + 'static,
    S::Method: Send + Sync + 'static,
    S::Ret: Send + Sync + 'static,
    S::State: Send + Sync + 'static,
{
    /// Routes the single-shard PUSH/UNPUSH critical sections through a
    /// [`ChannelTransport`](crate::transport::ChannelTransport): each
    /// shard owned by a dedicated server thread, requests serialized
    /// over in-process channels, every call wrapped in the robustness
    /// envelope `config` describes (deadline, bounded seeded-backoff
    /// retries, idempotent request ids, fault injection, degradation to
    /// the coarse path). Bit-identical ledgers and traces to
    /// [`Machine::set_local_transport`] — the transport equivalence
    /// suite pins this down for every driver.
    ///
    /// The `Send + Sync + 'static` bounds exist only here: the rest of
    /// the machine never requires them, so specs that are not shareable
    /// across threads simply cannot install this transport.
    pub fn set_channel_transport(&self, config: crate::transport::TransportConfig) {
        crate::transport::ChannelTransport::install(&self.global, config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Clause, Rule};
    use crate::toy::{CounterMethod, ToyCounter};

    fn inc_code() -> Code<CounterMethod> {
        Code::method(CounterMethod::Inc)
    }

    fn machine() -> Machine<ToyCounter> {
        Machine::new(ToyCounter::with_bound(32))
    }

    #[test]
    fn app_push_commit_roundtrip() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let txn = m.commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 1);
        assert!(m.thread(t).unwrap().is_done());
        assert_eq!(m.committed_txns().len(), 1);
        assert_eq!(m.committed_txns()[0].txn, txn);
        assert_eq!(m.trace().rule_names(t), vec!["BEGIN", "APP", "PUSH", "CMT"]);
    }

    #[test]
    fn commit_requires_fin() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let err = m.commit(t).unwrap_err();
        assert_eq!(err.violated_rule(), Some(Rule::Cmt));
    }

    #[test]
    fn commit_requires_all_pushed() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        m.app_auto(t).unwrap();
        let err = m.commit(t).unwrap_err();
        match err {
            MachineError::Criterion(v) => {
                assert_eq!(v.rule, Rule::Cmt);
                assert_eq!(v.clause, Clause::Ii);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unapp_restores_code_and_stack() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(
            inc_code(),
            Code::method(CounterMethod::Get),
        )]);
        let before = m.thread(t).unwrap().code().unwrap().clone();
        m.app_auto(t).unwrap();
        assert_ne!(m.thread(t).unwrap().code().unwrap(), &before);
        m.unapp(t).unwrap();
        assert_eq!(m.thread(t).unwrap().code().unwrap(), &before);
        assert!(m.thread(t).unwrap().stack().is_empty());
        assert!(m.thread(t).unwrap().local().is_empty());
    }

    #[test]
    fn unapp_requires_npshd_tail() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        assert!(matches!(m.unapp(t), Err(MachineError::NothingToUnapply(_))));
    }

    #[test]
    fn unpush_then_unapp_rewinds() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        assert_eq!(m.global().len(), 1);
        m.unpush(t, op).unwrap();
        assert_eq!(m.global().len(), 0);
        m.unapp(t).unwrap();
        assert!(m.thread(t).unwrap().local().is_empty());
    }

    #[test]
    fn push_criterion_ii_detects_conflict() {
        // Thread A pushes get(0); thread B then tries to push inc:
        // get(=0) cannot move right of inc (the read would change), so
        // PUSH criterion (ii) must fire.
        let mut m = machine();
        let a = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let b = m.add_thread(vec![inc_code()]);
        let ga = m.app_auto(a).unwrap();
        m.push(a, ga).unwrap();
        let ib = m.app_auto(b).unwrap();
        let err = m.push(b, ib).unwrap_err();
        match err {
            MachineError::Criterion(v) => {
                assert_eq!(v.rule, Rule::Push);
                assert_eq!(v.clause, Clause::Ii);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // After A commits, B's push succeeds.
        m.commit(a).unwrap();
        m.push(b, ib).unwrap();
        m.commit(b).unwrap();
    }

    #[test]
    fn pull_and_commit_dependency_gating() {
        // B pulls A's uncommitted op; B cannot commit until A commits.
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        // B observes the inc: get returns 1.
        let gb = m.app_method(b, &CounterMethod::Get).unwrap();
        let get_ret = m.thread(b).unwrap().stack().last().unwrap().1;
        assert_eq!(get_ret, 1, "pull made A's effect visible");
        m.push(b, gb).unwrap_err(); // get(=1) conflicts with A's uncommitted inc? No:
                                    // inc ◁ get(=1) must hold for push. inc·get1 ≼ get1·inc?
                                    // From 0: inc·get1 = {1}; get1·inc: get1 disallowed at 0 → ∅.
                                    // {1} ⊄ ∅ → criterion (ii) fires. B must wait for A.
        m.commit(a).unwrap();
        m.push(b, gb).unwrap();
        let err = m.commit(b);
        assert!(err.is_ok(), "pulled op now committed: {err:?}");
    }

    #[test]
    fn unpull_requires_independence() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        let _gb = m.app_method(b, &CounterMethod::Get).unwrap();
        // B's get observed 1; dropping the pulled inc would make the local
        // log disallowed, so UNPULL criterion (i) fires.
        let err = m.unpull(b, ia).unwrap_err();
        assert_eq!(err.violated_rule(), Some(Rule::UnPull));
        // Rewind the get, then the unpull goes through.
        m.unapp(b).unwrap();
        m.unpull(b, ia).unwrap();
        assert!(m.thread(b).unwrap().local().is_empty());
    }

    #[test]
    fn abort_and_retry_resets_everything() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.app_auto(t).unwrap();
        let txn0 = m.thread(t).unwrap().txn();
        let txn1 = m.abort_and_retry(t).unwrap();
        assert_ne!(txn0, txn1);
        assert!(m.thread(t).unwrap().local().is_empty());
        assert!(m.global().is_empty());
        assert_eq!(m.thread(t).unwrap().aborts(), 1);
        // Retry to completion.
        let a = m.app_auto(t).unwrap();
        let b = m.app_auto(t).unwrap();
        m.push(t, a).unwrap();
        m.push(t, b).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 2);
    }

    #[test]
    fn push_all_and_commit_is_the_optimistic_pattern() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        m.app_auto(t).unwrap();
        m.app_auto(t).unwrap();
        m.push_all_and_commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 2);
        assert_eq!(
            m.trace().rule_names(t),
            vec!["BEGIN", "APP", "APP", "PUSH", "PUSH", "CMT"]
        );
    }

    #[test]
    fn pull_all_committed_snapshots() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let n = m.pull_all_committed(b).unwrap();
        assert_eq!(n, 1);
        let gb = m.app_method(b, &CounterMethod::Get).unwrap();
        assert_eq!(m.thread(b).unwrap().stack().last().unwrap().1, 1);
        m.push(b, gb).unwrap();
        m.commit(b).unwrap();
    }

    #[test]
    fn lenient_pull_skips_conflicting_ops() {
        let mut m = Machine::new(ToyCounter::with_bound(4));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        // b observes get()=0 against its empty local view (stale).
        m.app_auto(b).unwrap();
        // Pulling a's committed inc now violates PULL (iii): b's get(=0)
        // does not move right of inc. The lenient pull skips it; the
        // strict one fails.
        let h = m.handle_mut(b).unwrap();
        assert_eq!(h.pull_committed(true).unwrap(), 0);
        let err = h.pull_committed(false).unwrap_err();
        assert_eq!(err.violated_rule(), Some(Rule::Pull));
    }

    #[test]
    fn lenient_pull_takes_everything_when_clean() {
        let mut m = Machine::new(ToyCounter::with_bound(4));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let h = m.handle_mut(b).unwrap();
        assert_eq!(h.pull_committed(true).unwrap(), 1);
        assert_eq!(h.pull_committed(true).unwrap(), 0);
    }

    #[test]
    fn sequences_of_transactions_get_fresh_ids() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code(), inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let txn0 = m.commit(t).unwrap();
        assert!(!m.thread(t).unwrap().is_done());
        let op2 = m.app_auto(t).unwrap();
        m.push(t, op2).unwrap();
        let txn1 = m.commit(t).unwrap();
        assert_ne!(txn0, txn1);
        assert!(m.thread(t).unwrap().is_done());
        assert_eq!(m.thread(t).unwrap().commits(), 2);
    }

    #[test]
    fn unchecked_mode_skips_criteria() {
        let mut m = Machine::with_mode(ToyCounter::with_bound(32), CheckMode::Unchecked);
        let a = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let b = m.add_thread(vec![inc_code()]);
        let ga = m.app_auto(a).unwrap();
        m.push(a, ga).unwrap();
        let ib = m.app_auto(b).unwrap();
        // Would violate PUSH (ii) in checked mode; unchecked lets it through.
        m.push(b, ib).unwrap();
    }

    #[test]
    fn enqueue_txn_restarts_done_thread() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        assert!(m.thread(t).unwrap().is_done());
        m.enqueue_txn(t, inc_code()).unwrap();
        assert!(!m.thread(t).unwrap().is_done());
        let op2 = m.app_auto(t).unwrap();
        m.push(t, op2).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.thread(t).unwrap().commits(), 2);
    }

    #[test]
    fn structural_steps_resolve_choices_before_app() {
        use crate::structural::StructStep;
        let mut m = machine();
        let t = m.add_thread(vec![Code::choice(
            Code::method(CounterMethod::Inc),
            Code::method(CounterMethod::Dec),
        )]);
        assert_eq!(
            m.struct_options(t).unwrap(),
            vec![StructStep::NondetL, StructStep::NondetR]
        );
        m.struct_step(t, StructStep::NondetR).unwrap();
        // Only Dec remains reachable.
        let opts = m.step_options(t).unwrap();
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].0, CounterMethod::Dec);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        // A structural step on finished code is refused.
        assert!(m.struct_step(t, StructStep::Loop).is_err());
    }

    #[test]
    fn app_rejects_methods_not_in_step() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let err = m.app_method(t, &CounterMethod::Get).unwrap_err();
        assert!(matches!(err, MachineError::NoSuchStep(_)));
    }

    /// The split halves stay consistent under direct handle use: rules run
    /// on a borrowed handle are visible through the machine facade.
    #[test]
    fn handles_and_facade_agree() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![inc_code()]);
        {
            let h = m.handle_mut(a).unwrap();
            let op = h.app_auto().unwrap();
            h.push(op).unwrap();
            h.commit().unwrap();
        }
        {
            let h = m.handle_mut(b).unwrap();
            h.app_auto().unwrap();
            h.push_all_and_commit().unwrap();
        }
        assert_eq!(m.global().committed_ops().len(), 2);
        assert_eq!(m.committed_txns().len(), 2);
        assert_eq!(m.trace().rule_names(a), vec!["BEGIN", "APP", "PUSH", "CMT"]);
        assert_eq!(m.thread(b).unwrap().commits(), 1);
    }

    /// Clones deep-copy the shared state: divergent futures don't interact.
    #[test]
    fn clone_shares_nothing() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        m.app_auto(t).unwrap();
        let mut m2 = m.clone();
        m2.app_auto(t).unwrap();
        m2.push_all_and_commit(t).unwrap();
        assert_eq!(m2.global().committed_ops().len(), 2);
        assert!(m.global().is_empty(), "clone's commits must not leak back");
        assert_eq!(m.thread(t).unwrap().local().len(), 1);
    }

    /// A nondeterministic toy for [`incremental_matches_full_replay`]:
    /// `'f'` (fork) may or may not bump the state below 4, so local-log
    /// denotations are genuine state *sets*; `'r'` reads the state.
    /// Counts its `post_states` steps.
    #[derive(Debug, Default)]
    struct Fork {
        steps: std::sync::atomic::AtomicU64,
    }

    impl SeqSpec for Fork {
        type Method = char;
        type Ret = i64;
        type State = i64;

        fn initial_states(&self) -> Vec<i64> {
            vec![0]
        }

        fn post_states(&self, s: &i64, m: &char, r: &i64) -> Vec<i64> {
            self.steps
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match (m, *r) {
                ('f', 0) if *s < 4 => vec![*s, s + 1],
                ('f', 0) => vec![*s],
                ('r', r) if r == *s => vec![*s],
                _ => vec![],
            }
        }

        fn results(&self, s: &i64, m: &char) -> Vec<i64> {
            match m {
                'f' => vec![0],
                _ => vec![*s],
            }
        }

        fn state_universe(&self) -> Option<Vec<i64>> {
            Some((0..=4).collect())
        }
    }

    /// Incremental and full-replay criteria evaluation agree — traces,
    /// audit ledgers and verdicts — on runs that drive the local-log
    /// cache through every path: begin-time and lenient batched pulls,
    /// tail UNPULLs in an abort loop, a middle UNPULL (the full-replay
    /// fallback), UNAPP then APP of a different op at the same length,
    /// and carried state sets of a nondeterministic spec.
    #[test]
    fn incremental_matches_full_replay() {
        let run = |incremental: bool| {
            let mut m = machine();
            m.set_incremental(incremental);
            let mut v: Vec<String> = Vec::new();
            let a = m.add_thread(vec![inc_code(); 16]);
            let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
            let g = m.add_thread(vec![Code::method(CounterMethod::Get)]);
            let either = Code::choice(inc_code(), Code::method(CounterMethod::Get));
            let d = m.add_thread(vec![either]);
            let commit_inc = |m: &mut Machine<ToyCounter>| {
                let ia = m.app_auto(a).unwrap();
                m.push(a, ia).unwrap();
                m.commit(a).unwrap();
            };
            commit_inc(&mut m);
            m.pull_all_committed(b).unwrap();
            let gb = m.app_method(b, &CounterMethod::Get).unwrap();
            commit_inc(&mut m);
            // b's stale get now fails PUSH (iii)/(ii) the same way in
            // both modes.
            v.push(format!(
                "{:?}",
                m.push(b, gb).map_err(|e| e.violated_rule())
            ));
            for _ in 0..10 {
                commit_inc(&mut m);
            }
            // g snapshots the 12 incs (a begin-time batched pull) and
            // commits get(12); two more incs follow it.
            v.push(format!("{:?}", m.pull_all_committed(g)));
            let gg = m.app_auto(g).unwrap();
            m.push(g, gg).unwrap();
            m.commit(g).unwrap();
            commit_inc(&mut m);
            commit_inc(&mut m);
            // d applies its own inc first, so the lenient pull checks
            // PULL (iii) against it and skips the denied get(12).
            m.app_method(d, &CounterMethod::Inc).unwrap();
            v.push(format!(
                "{:?}",
                m.handle_mut(d).unwrap().pull_committed(true)
            ));
            // Abort loop: 14 tail UNPULLs, then a strict begin-time pull
            // of all 15 committed ops.
            m.abort_and_retry(d).unwrap();
            v.push(format!("{:?}", m.pull_all_committed(d)));
            let pulled: Vec<OpId> = m
                .thread(d)
                .unwrap()
                .local()
                .iter()
                .map(|e| e.op.id)
                .collect();
            // Middle UNPULLs: below the get(12) the removal is denied,
            // above it the fallback replay admits it; then a tail one.
            v.push(format!(
                "{:?}",
                m.unpull(d, pulled[2]).map_err(|e| e.violated_rule())
            ));
            v.push(format!("{:?}", m.unpull(d, pulled[13])));
            v.push(format!("{:?}", m.unpull(d, pulled[14])));
            // UNAPP then APP of a different op at the same length: the get
            // must see the state before the rewound inc.
            m.app_method(d, &CounterMethod::Inc).unwrap();
            m.unapp(d).unwrap();
            m.app_method(d, &CounterMethod::Get).unwrap();
            assert_eq!(m.thread(d).unwrap().stack().last().unwrap().1, 12);
            v.push(format!(
                "{:?}",
                m.push_all_and_commit(d).map_err(|e| e.violated_rule())
            ));
            (m.audit().render(), m.trace().render(), v)
        };
        let (audit, trace, verdicts) = run(true);
        assert_eq!(
            verdicts,
            [
                "Err(Some(Push))",
                "Ok(12)",
                "Ok(14)",
                "Ok(15)",
                "Err(Some(UnPull))",
                "Ok(())",
                "Ok(())",
                "Err(Some(Push))",
            ]
        );
        assert_eq!((audit, trace, verdicts), run(false));

        let fork_run = |incremental: bool| {
            let mut m = Machine::new(Fork::default());
            m.set_incremental(incremental);
            let mut v: Vec<String> = Vec::new();
            let a = m.add_thread(vec![Code::method('f'); 3]);
            let r = m.add_thread(vec![Code::method('r')]);
            for _ in 0..3 {
                let op = m.app_auto(a).unwrap();
                m.push(a, op).unwrap();
                m.commit(a).unwrap();
            }
            // ⟦f·f·f⟧ = {0, 1, 2, 3} is carried as the tip.
            v.push(format!("{:?}", m.pull_all_committed(r)));
            let mut rets = m.thread(r).unwrap().allowed_results(&'r').unwrap();
            rets.sort_unstable();
            v.push(format!("{rets:?}"));
            v.push(format!(
                "{:?}",
                m.app(r, 'r', Code::Skip, 3).map_err(|e| e.violated_rule())
            ));
            m.unapp(r).unwrap();
            m.app(r, 'r', Code::Skip, 2).unwrap();
            let pulled: Vec<OpId> = m.global().committed_ops().iter().map(|o| o.id).collect();
            // Middle UNPULLs: f·f·r(2) still reaches 2, f·r(2) does not.
            v.push(format!("{:?}", m.unpull(r, pulled[0])));
            v.push(format!(
                "{:?}",
                m.unpull(r, pulled[1]).map_err(|e| e.violated_rule())
            ));
            m.abort_and_retry(r).unwrap();
            v.push(format!("{:?}", m.pull_all_committed(r)));
            v.push(format!("{:?}", m.app(r, 'r', Code::Skip, 3).map(|_| ())));
            let steps = m.spec().steps.load(std::sync::atomic::Ordering::Relaxed);
            ((m.audit().render(), m.trace().render(), v), steps)
        };
        let (inc, inc_steps) = fork_run(true);
        let (full, full_steps) = fork_run(false);
        assert_eq!(inc, full);
        // The reference path really does replay the local log in full.
        assert!(inc_steps < full_steps, "{inc_steps} vs {full_steps}");
    }
}
