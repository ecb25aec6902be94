//! The shard transport seam: every shared-rule critical section on a
//! routed shard goes through a [`ShardTransport`], so the same machine
//! runs unchanged whether a shard is a same-address-space mutex or a
//! message-connected server that can be slow, partitioned, or crashed.
//!
//! ## The seam
//!
//! A routed single-shard PUSH or UNPUSH is, logically, a *request*: "run
//! these criteria against your segment of `G` and, if they pass, apply
//! the effect". `execute_on_shard` is that request's executor — the
//! same audited criteria code the historical locked path ran, factored
//! out of [`TxnHandle`](crate::handle::TxnHandle) so that *who* runs it
//! becomes a deployment choice:
//!
//! * [`LocalTransport`] runs it inline on the calling thread — the
//!   existing mutex path, zero-cost and infallible.
//! * [`ChannelTransport`] gives each shard a dedicated server thread and
//!   serializes requests to it over an in-process mpsc channel, with a
//!   per-request reply channel. The shard *state* stays in the shared
//!   [`GlobalState`] mutexes — the server is a serialization point, not
//!   a second copy of the data — which is exactly what makes the two
//!   transports bit-identical: both execute the same criteria code
//!   against the same log, under the same lock, recording the same
//!   audit tallies.
//!
//! Coarse-routed operations, multi-shard CMT sections and read-only
//! paths (PULL snapshots, `can_push`) stay on the coordinator: they
//! aggregate *across* shards, which is the coordinator's job in the
//! request/response model. Only the single-shard mutating sections — the
//! disjoint-access-parallel hot path — cross the transport.
//!
//! ## The robustness envelope
//!
//! Every [`ChannelTransport`] call is wrapped in an envelope:
//!
//! * **Deadline** — a real `recv_timeout` backstop per delivery attempt,
//!   so a lost reply can never hang the machine.
//! * **Bounded retries with seeded backoff** — up to
//!   [`TransportConfig::max_retries`] re-deliveries, separated by a
//!   [`RetryBackoff`]-chosen number of bounded yield spins (no real
//!   sleeps: injected faults are fail-fast, so fault-heavy tests stay
//!   deterministic and quick).
//! * **Idempotent request ids** — every logical request carries one id
//!   for all of its delivery attempts; the server memoizes responses by
//!   id, and the PUSH/UNPUSH executors additionally check the log itself
//!   (is the op already appended / already removed?), so a duplicated or
//!   retried message can never double-append — even across a server
//!   crash that loses the memo table.
//! * **Fault injection** — each delivery attempt first consults the
//!   armed [`FaultHook`](crate::faults::FaultHook) for a
//!   [`TransportFault`]; a returned fault is recorded in the audit's
//!   `injected` ledger at the moment it fires, keeping the PR-2
//!   injected-vs-fired accounting exact.
//!
//! ## The degradation ladder
//!
//! When a shard stays unreachable past the whole retry budget the
//! machine degrades instead of hanging. With
//! [`FallbackMode::Coarse`] the shard is marked *degraded* and its
//! operations execute on the coordinator over the coarse all-shard view
//! (placement is preserved: the op still lands on its routed shard, so
//! healing is sound); every subsequent operation first sends a probe,
//! and the first successful probe clears the mark and returns to the
//! fast path. With [`FallbackMode::Fail`] — modelling "the coarse path
//! is unreachable too" — the call surfaces a clean
//! [`MachineError::TransportExhausted`] that drivers propagate, so
//! `run_parallel` stops the run instead of spinning. Both transitions
//! are counted ([`Metric::TransportDegradations`] /
//! [`Metric::TransportRecoveries`]) and appear in the watchdog dump.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread;
use std::time::Duration;

use crate::error::{MachineError, MachineResult};
use crate::faults::TransportFault;
use crate::global::{GlobalState, LogView, Route};
use crate::metrics::Metric;
use crate::op::{Op, OpId, ThreadId, TxnId};
use crate::spec::SeqSpec;

/// Upper bound on the yield spins one backoff step may burn, whatever
/// the policy asks for. Backoff "ticks" are abstract; the transport
/// spends them as `thread::yield_now` calls so fault-heavy runs never
/// sleep for real.
const MAX_BACKOFF_SPINS: u64 = 256;

/// How a transport call may fail after its whole robustness envelope
/// (deadline, retries, backoff) is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Every delivery attempt timed out or was lost: the shard is
    /// unreachable past the configured budget.
    Exhausted {
        /// Delivery attempts made (1 + retries).
        attempts: u32,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Exhausted { attempts } => {
                write!(f, "shard unreachable after {attempts} delivery attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// What happens when a shard stays unreachable past the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackMode {
    /// Degrade to the coarse path: mark the shard degraded, execute on
    /// the coordinator over the all-shard view, and probe for recovery
    /// on every subsequent operation.
    #[default]
    Coarse,
    /// The coarse path is (modelled as) unreachable too: surface
    /// [`MachineError::TransportExhausted`] so the run terminates
    /// cleanly instead of hanging.
    Fail,
}

/// The backoff policy consulted between delivery attempts: abstract
/// ticks before retry number `attempt` (1-based) on thread `tid`.
///
/// The transport side of the
/// [`ContentionManager`](../../pushpull_tm/contention/trait.ContentionManager.html)
/// seam: `pushpull-tm` adapts its contention policies (exponential
/// backoff, karma aging, …) to this trait so the same tuned policies
/// govern both abort-retry and transport-retry waiting.
pub trait RetryBackoff: fmt::Debug + Send + Sync {
    /// Backoff ticks before delivery attempt `attempt` (1-based).
    fn backoff_ticks(&self, tid: ThreadId, attempt: u32) -> u64;
}

/// SplitMix64: decorrelates per-thread, per-attempt jitter from any
/// seed. Same finalizer the contention policies use.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The default seeded exponential backoff: attempt `k` draws uniformly
/// from `1..=min(cap, 2^k)`, with deterministic per-thread jitter — two
/// threads retrying against the same partitioned shard desynchronize,
/// and the same seed reproduces the same schedule.
#[derive(Debug, Clone, Copy)]
pub struct SeededBackoff {
    seed: u64,
    cap: u64,
}

impl SeededBackoff {
    /// A seeded policy with the default window cap (256 ticks).
    pub fn new(seed: u64) -> Self {
        Self { seed, cap: 256 }
    }
}

impl RetryBackoff for SeededBackoff {
    fn backoff_ticks(&self, tid: ThreadId, attempt: u32) -> u64 {
        let window = self.cap.min(1u64 << attempt.min(62)).max(1);
        let jitter = splitmix64(self.seed ^ ((tid.0 as u64) << 32) ^ u64::from(attempt));
        1 + jitter % window
    }
}

/// Configuration of the robustness envelope around a remote transport.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Re-delivery attempts after the first (the "configurable budget"
    /// a partitioned shard may consume before the machine degrades).
    pub max_retries: u32,
    /// Real per-attempt reply deadline — a generous backstop so a lost
    /// reply can never hang the machine. Injected faults fail fast and
    /// never wait this long.
    pub deadline: Duration,
    /// What exhaustion degrades to.
    pub fallback: FallbackMode,
    /// Backoff policy between delivery attempts.
    pub backoff: Arc<dyn RetryBackoff>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            deadline: Duration::from_secs(5),
            fallback: FallbackMode::Coarse,
            backoff: Arc::new(SeededBackoff::new(0x5EED_BACC)),
        }
    }
}

/// A shared-rule critical section shipped to a shard as a request.
///
/// Only the single-shard *mutating* sections cross the transport;
/// coarse routes, CMT and the read paths stay on the coordinator (see
/// the module docs).
pub enum ShardRequest<S: SeqSpec> {
    /// PUSH: run criteria (ii)/(iii) against the shard and append.
    Push {
        /// The pushing transaction (its own uncommitted entries are
        /// exempt from criterion (ii)).
        txn: TxnId,
        /// Audit stripe the query tallies land in (the caller thread's
        /// stripe, so accounting is identical to the local path).
        audit_shard: usize,
        /// Whether criteria are checked (false under
        /// [`CheckMode::Unchecked`](crate::machine::CheckMode)).
        checked: bool,
        /// The operation to publish.
        op: Op<S::Method, S::Ret>,
    },
    /// UNPUSH: run the gray criterion (i) and criterion (ii) against
    /// the shard and remove the entry.
    Unpush {
        /// Audit stripe for the query tallies.
        audit_shard: usize,
        /// Whether criteria are checked at all.
        checked: bool,
        /// Whether the gray criterion (i) is checked
        /// ([`CheckMode::Checked`](crate::machine::CheckMode) only).
        check_gray: bool,
        /// The entry to recall.
        op_id: OpId,
    },
    /// Reachability probe (the recovery path). No log access.
    Ping,
}

impl<S: SeqSpec> Clone for ShardRequest<S> {
    fn clone(&self) -> Self {
        match self {
            ShardRequest::Push {
                txn,
                audit_shard,
                checked,
                op,
            } => ShardRequest::Push {
                txn: *txn,
                audit_shard: *audit_shard,
                checked: *checked,
                op: op.clone(),
            },
            ShardRequest::Unpush {
                audit_shard,
                checked,
                check_gray,
                op_id,
            } => ShardRequest::Unpush {
                audit_shard: *audit_shard,
                checked: *checked,
                check_gray: *check_gray,
                op_id: *op_id,
            },
            ShardRequest::Ping => ShardRequest::Ping,
        }
    }
}

impl<S: SeqSpec> fmt::Debug for ShardRequest<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardRequest::Push { txn, op, .. } => {
                write!(f, "Push({} of {txn})", op.id)
            }
            ShardRequest::Unpush { op_id, .. } => write!(f, "Unpush({op_id})"),
            ShardRequest::Ping => write!(f, "Ping"),
        }
    }
}

/// A shard's reply to a [`ShardRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardResponse {
    /// The criteria passed and the effect was applied (or had already
    /// been applied by a previous delivery of the same request).
    Done,
    /// A criterion failed (or the request was structurally invalid);
    /// nothing was applied. The error is exactly what the local locked
    /// path would have returned.
    Denied(MachineError),
    /// Reply to [`ShardRequest::Ping`].
    Pong,
}

/// Where shard critical sections execute. Implementations must be
/// deterministic relays: the criteria themselves always run via
/// `execute_on_shard`, so any two transports agree bit-for-bit on
/// verdicts, audit tallies and stamps.
pub trait ShardTransport<S: SeqSpec>: fmt::Debug + Send + Sync {
    /// Short name for stats and the watchdog dump.
    fn name(&self) -> &'static str;

    /// Delivers `req` to `shard` and returns its response, applying the
    /// robustness envelope if delivery can fail.
    fn call(
        &self,
        global: &GlobalState<S>,
        tid: ThreadId,
        shard: usize,
        req: ShardRequest<S>,
    ) -> Result<ShardResponse, TransportError>;

    /// One-shot reachability probe (no retries): may this shard be
    /// spoken to right now? Drives recovery from the degraded state.
    fn probe(&self, global: &GlobalState<S>, tid: ThreadId, shard: usize) -> bool;

    /// What exhaustion of the envelope degrades to.
    fn fallback(&self) -> FallbackMode {
        FallbackMode::Coarse
    }
}

// ---------------------------------------------------------------------
// The shared executor: the audited criteria + effect of the single-shard
// mutating rules, factored out of TxnHandle so both transports (and the
// degraded coordinator path) run the exact same code.
// ---------------------------------------------------------------------

/// The audited PUSH criteria (ii)/(iii) over a held view — the locked
/// evaluation used by the direct path (coarse routes, unreadable
/// snapshots, stale speculations), by both transports' executors and by
/// the degraded coordinator path.
///
/// Criterion (ii): every uncommitted op of other txns moves right of
/// `op`. A single-shard view inspects only entries sharing op's
/// footprint class — entries on other shards have disjoint declared
/// footprints and are both-movers by the validated footprint law, so
/// the verdict is identical.
pub(crate) fn locked_push_criteria<S: SeqSpec>(
    global: &GlobalState<S>,
    txn: TxnId,
    audit_shard: usize,
    view: &LogView<'_, S>,
    op: &Op<S::Method, S::Ret>,
) -> MachineResult<()> {
    use crate::error::{Clause, Rule};
    use crate::log::GlobalFlag;

    if global.statically_discharged(Rule::Push, Clause::Ii) {
        #[cfg(debug_assertions)]
        for (_, g) in view.stamped() {
            assert!(
                g.flag != GlobalFlag::Uncommitted
                    || g.op.txn == txn
                    || global.spec().mover(&g.op, op),
                "static discharge of PUSH (ii) contradicted dynamically: {} vs {}",
                g.op.id,
                op.id
            );
        }
        global.audit.pass_static(Rule::Push, Clause::Ii);
    } else {
        for (_, g) in view.stamped() {
            if g.flag == GlobalFlag::Uncommitted
                && g.op.txn != txn
                && !global.mover_q(audit_shard, &g.op, op)
            {
                global.audit.fail(Rule::Push, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::Push,
                    Clause::Ii,
                    format!(
                        "uncommitted {} of {} cannot move right of {}",
                        g.op.id, g.op.txn, op.id
                    ),
                ));
            }
        }
        global.audit.pass(Rule::Push, Clause::Ii);
    }
    // Criterion (iii): G allows op (incremental over the uncommitted
    // suffix when the cache is on).
    if !global.g_allows(view, audit_shard, op) {
        global.audit.fail(Rule::Push, Clause::Iii);
        return Err(MachineError::criterion(
            Rule::Push,
            Clause::Iii,
            format!("global log does not allow {}", op.id),
        ));
    }
    global.audit.pass(Rule::Push, Clause::Iii);
    Ok(())
}

/// The audited UNPUSH critical section over a held view: locate the
/// entry, run the gray criterion (i) and criterion (ii), remove it.
pub(crate) fn locked_unpush_in_view<S: SeqSpec>(
    global: &GlobalState<S>,
    audit_shard: usize,
    view: &mut LogView<'_, S>,
    op_id: OpId,
    checked: bool,
    check_gray: bool,
) -> MachineResult<Op<S::Method, S::Ret>> {
    use crate::error::{Clause, Rule};

    let (vidx, gpos) = view.find(op_id).ok_or(MachineError::NoSuchOp(op_id))?;
    let op = view.entry(op_id).expect("found above").op.clone();
    let stamp = view.stamp_at(vidx, gpos);
    if checked {
        // Criterion (i), gray: op slides right across the suffix
        // (everything stamped after it in the held shards; on other
        // shards everything is a both-mover by footprint).
        if check_gray {
            if global.statically_discharged(Rule::UnPush, Clause::I) {
                #[cfg(debug_assertions)]
                for g in view.entries_after(stamp) {
                    assert!(
                        global.spec().mover(&op, &g.op),
                        "static discharge of UNPUSH (i) contradicted dynamically: {} vs {}",
                        op.id,
                        g.op.id
                    );
                }
                global.audit.pass_static(Rule::UnPush, Clause::I);
            } else {
                for g in view.entries_after(stamp) {
                    if !global.mover_q(audit_shard, &op, &g.op) {
                        global.audit.fail(Rule::UnPush, Clause::I);
                        return Err(MachineError::criterion(
                            Rule::UnPush,
                            Clause::I,
                            format!("{} cannot slide past later {}", op.id, g.op.id),
                        ));
                    }
                }
                global.audit.pass(Rule::UnPush, Clause::I);
            }
        }
        // Criterion (ii): G without op is still allowed (incremental:
        // an uncommitted op lies past the cached committed prefix, so
        // only the suffix is replayed).
        if !global.g_allowed_without(view, audit_shard, op_id) {
            global.audit.fail(Rule::UnPush, Clause::Ii);
            return Err(MachineError::criterion(
                Rule::UnPush,
                Clause::Ii,
                format!("global log without {} is not allowed", op.id),
            ));
        }
        global.audit.pass(Rule::UnPush, Clause::Ii);
    }
    global.remove_push(view, vidx, op_id).expect("found above");
    Ok(op)
}

/// Executes one [`ShardRequest`] against `shard`: acquire the shard's
/// critical section (re-routed to the coarse all-shard section if the
/// sticky flag flipped) and run the audited criteria + effect.
///
/// Idempotent by construction — the crash-safe layer beneath the
/// request-id memo table:
///
/// * a `Push` whose op id is already in the log was applied by an
///   earlier delivery of this same request (op ids are globally unique
///   and minted once, client-side) → `Done` without re-running criteria;
/// * an `Unpush` whose op id is absent was already removed by an
///   earlier delivery (the client only unpushes entries it verified
///   `pshd`, and no one else removes another transaction's entry) →
///   `Done`.
pub(crate) fn execute_on_shard<S: SeqSpec>(
    global: &GlobalState<S>,
    shard: usize,
    req: &ShardRequest<S>,
) -> ShardResponse {
    match req {
        ShardRequest::Ping => ShardResponse::Pong,
        ShardRequest::Push {
            txn,
            audit_shard,
            checked,
            op,
        } => {
            let mut view = global.acquire_route(Route::Single(shard));
            if view.entry(op.id).is_some() {
                return ShardResponse::Done;
            }
            if *checked {
                if let Err(e) = locked_push_criteria(global, *txn, *audit_shard, &view, op) {
                    return ShardResponse::Denied(e);
                }
            }
            global.append_push(&mut view, shard, op.clone());
            ShardResponse::Done
        }
        ShardRequest::Unpush {
            audit_shard,
            checked,
            check_gray,
            op_id,
        } => {
            let mut view = global.acquire_route(Route::Single(shard));
            if view.find(*op_id).is_none() {
                return ShardResponse::Done;
            }
            match locked_unpush_in_view(
                global,
                *audit_shard,
                &mut view,
                *op_id,
                *checked,
                *check_gray,
            ) {
                Ok(_) => ShardResponse::Done,
                Err(e) => ShardResponse::Denied(e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// LocalTransport: the inline, infallible implementation.
// ---------------------------------------------------------------------

/// The same-address-space transport: requests execute inline on the
/// calling thread under the shard mutex — the existing locked path,
/// zero-cost (no channels, no threads, no serialization) and
/// infallible, so the robustness envelope never engages.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalTransport;

impl<S: SeqSpec> ShardTransport<S> for LocalTransport {
    fn name(&self) -> &'static str {
        "local"
    }

    fn call(
        &self,
        global: &GlobalState<S>,
        _tid: ThreadId,
        shard: usize,
        req: ShardRequest<S>,
    ) -> Result<ShardResponse, TransportError> {
        global.count(Metric::TransportRequests, 1);
        Ok(execute_on_shard(global, shard, &req))
    }

    fn probe(&self, global: &GlobalState<S>, _tid: ThreadId, _shard: usize) -> bool {
        global.count(Metric::TransportRequests, 1);
        true
    }
}

// ---------------------------------------------------------------------
// ChannelTransport: per-shard server threads behind mpsc channels.
// ---------------------------------------------------------------------

enum Envelope<S: SeqSpec> {
    Request {
        id: u64,
        req: ShardRequest<S>,
        reply: mpsc::Sender<ShardResponse>,
    },
    /// Simulated `CrashShardServer`: the server exits, losing its
    /// volatile response memo. Shard state survives in the shared
    /// mutex; a respawned server "restarts from the log".
    Crash,
    Shutdown,
}

struct ServerSlot<S: SeqSpec> {
    tx: mpsc::Sender<Envelope<S>>,
    join: thread::JoinHandle<()>,
}

/// The message-passing transport: each shard is owned by a dedicated
/// server thread; criteria/append/recall requests are serialized to it
/// over an in-process mpsc channel and answered on a per-request reply
/// channel. Wrapped in the full robustness envelope (deadline, retries,
/// seeded backoff, idempotent request ids, fault injection).
pub struct ChannelTransport<S: SeqSpec> {
    config: TransportConfig,
    global: Weak<GlobalState<S>>,
    servers: Vec<Mutex<Option<ServerSlot<S>>>>,
    next_req: AtomicU64,
}

impl<S: SeqSpec> fmt::Debug for ChannelTransport<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("config", &self.config)
            .field("shards", &self.servers.len())
            .finish_non_exhaustive()
    }
}

impl<S> ChannelTransport<S>
where
    S: SeqSpec + Send + Sync + 'static,
    S::Method: Send + Sync + 'static,
    S::Ret: Send + Sync + 'static,
    S::State: Send + Sync + 'static,
{
    /// Builds a channel transport over `global`'s current shard layout
    /// and installs it. Server threads spawn lazily, on each shard's
    /// first request. The transport holds only a [`Weak`] reference —
    /// dropping the machine shuts the servers down, never leaks them.
    pub(crate) fn install(global: &Arc<GlobalState<S>>, config: TransportConfig) {
        let t = Arc::new(Self {
            config,
            global: Arc::downgrade(global),
            servers: (0..global.shard_count())
                .map(|_| Mutex::new(None))
                .collect(),
            next_req: AtomicU64::new(0),
        });
        global.set_transport(Some(t));
    }

    fn slot(&self, shard: usize) -> std::sync::MutexGuard<'_, Option<ServerSlot<S>>> {
        self.servers[shard].lock().expect("server slot poisoned")
    }

    /// The shard's server sender, spawning the server if the slot is
    /// empty (first use, or restart after a crash).
    fn ensure_server(&self, shard: usize) -> mpsc::Sender<Envelope<S>> {
        let mut slot = self.slot(shard);
        if let Some(s) = slot.as_ref() {
            return s.tx.clone();
        }
        let (tx, rx) = mpsc::channel();
        let global = self.global.clone();
        let join = thread::Builder::new()
            .name(format!("pushpull-shard-{shard}"))
            .spawn(move || server_loop(shard, global, rx))
            .expect("spawn shard server thread");
        *slot = Some(ServerSlot {
            tx: tx.clone(),
            join,
        });
        tx
    }

    /// Clears a dead server slot (send or reply channel disconnected),
    /// joining the exited thread.
    fn reap_server(&self, shard: usize) {
        if let Some(s) = self.slot(shard).take() {
            let _ = s.join.join();
        }
    }

    /// Simulated `CrashShardServer`: ask the server to exit and join
    /// it. Its memo table dies with it; the shard log survives in the
    /// shared mutex.
    fn crash_server(&self, shard: usize) {
        if let Some(s) = self.slot(shard).take() {
            let _ = s.tx.send(Envelope::Crash);
            let _ = s.join.join();
        }
    }

    /// One delivery attempt: send, await the reply under the deadline.
    /// `None` is a timeout (real or a dead-server turnaround that spent
    /// its respawn allowance).
    fn deliver(&self, shard: usize, id: u64, req: &ShardRequest<S>) -> Option<ShardResponse> {
        // A send failure means the server crashed; one respawn per
        // attempt keeps delivery bounded.
        for _ in 0..2 {
            let tx = self.ensure_server(shard);
            let (rtx, rrx) = mpsc::channel();
            if tx
                .send(Envelope::Request {
                    id,
                    req: req.clone(),
                    reply: rtx,
                })
                .is_err()
            {
                self.reap_server(shard);
                continue;
            }
            match rrx.recv_timeout(self.config.deadline) {
                Ok(resp) => return Some(resp),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Server died with our request queued (crash raced
                    // in): respawn and re-deliver — idempotency makes
                    // the re-execution safe.
                    self.reap_server(shard);
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => return None,
            }
        }
        None
    }

    /// Fire-and-forget delivery for the `DelayReply` fault: the server
    /// executes, but the reply channel is dropped so the client times
    /// out. The retry reuses the same request id and is absorbed by the
    /// server's memo table.
    fn send_discard(&self, shard: usize, id: u64, req: &ShardRequest<S>) {
        let tx = self.ensure_server(shard);
        let (rtx, _rrx) = mpsc::channel();
        let _ = tx.send(Envelope::Request {
            id,
            req: req.clone(),
            reply: rtx,
        });
    }
}

fn server_loop<S>(shard: usize, global: Weak<GlobalState<S>>, rx: mpsc::Receiver<Envelope<S>>)
where
    S: SeqSpec + Send + Sync + 'static,
    S::Method: Send + Sync + 'static,
    S::Ret: Send + Sync + 'static,
    S::State: Send + Sync + 'static,
{
    // Volatile response memo, keyed by request id: the idempotency
    // layer for retried/duplicated deliveries. Lost on crash — the
    // log-presence checks in `execute_on_shard` cover that case.
    let mut memo: std::collections::BTreeMap<u64, ShardResponse> =
        std::collections::BTreeMap::new();
    while let Ok(env) = rx.recv() {
        match env {
            Envelope::Shutdown | Envelope::Crash => break,
            Envelope::Request { id, req, reply } => {
                let Some(g) = global.upgrade() else { break };
                let resp = match memo.get(&id) {
                    Some(r) => r.clone(),
                    None => {
                        let r = execute_on_shard(&g, shard, &req);
                        memo.insert(id, r.clone());
                        r
                    }
                };
                // A dropped reply channel (deadline missed, or the
                // DelayReply fault) is the client's problem, not ours.
                let _ = reply.send(resp);
            }
        }
    }
}

impl<S: SeqSpec> Drop for ChannelTransport<S> {
    fn drop(&mut self) {
        for m in &self.servers {
            if let Some(s) = m.lock().ok().and_then(|mut s| s.take()) {
                let _ = s.tx.send(Envelope::Shutdown);
                // A server thread can run this drop itself: it holds the
                // upgraded `GlobalState` Arc while executing a request,
                // and if the machine is dropped concurrently that Arc is
                // the last owner, so the state (and this transport) die
                // on the server's stack. Joining ourselves would
                // deadlock — detach instead; the Shutdown just queued
                // (or the now-dead Weak) makes the loop exit cleanly.
                if s.join.thread().id() != thread::current().id() {
                    let _ = s.join.join();
                }
            }
        }
    }
}

impl<S> ShardTransport<S> for ChannelTransport<S>
where
    S: SeqSpec + Send + Sync + 'static,
    S::Method: Send + Sync + 'static,
    S::Ret: Send + Sync + 'static,
    S::State: Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        "channel"
    }

    fn call(
        &self,
        global: &GlobalState<S>,
        tid: ThreadId,
        shard: usize,
        req: ShardRequest<S>,
    ) -> Result<ShardResponse, TransportError> {
        global.count(Metric::TransportRequests, 1);
        let id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let mut attempt: u32 = 0;
        loop {
            // One fault consult per delivery attempt, recorded the
            // moment it fires (injected == fired, exactly).
            let fault = global
                .fault_hook()
                .and_then(|h| h.transport_fault(tid, shard));
            if let Some(f) = fault {
                global.note_injected(f.kind());
            }
            let outcome = match fault {
                // Not delivered at all; fail fast (simulated timeout).
                Some(TransportFault::Partition) | Some(TransportFault::DropRequest) => None,
                // Delivered and executed, but the reply misses its
                // deadline; the retry's duplicate id is absorbed by the
                // server memo (or the log-presence check after a
                // crash).
                Some(TransportFault::DelayReply) => {
                    self.send_discard(shard, id, &req);
                    None
                }
                // The server dies before delivery; the next attempt
                // respawns it, which answers from the surviving log.
                Some(TransportFault::CrashServer) => {
                    self.crash_server(shard);
                    None
                }
                // The same request id arrives twice; the server's memo
                // dedups the second, the client uses the first reply.
                Some(TransportFault::DuplicateRequest) => {
                    let first = self.deliver(shard, id, &req);
                    let _dup = self.deliver(shard, id, &req);
                    first
                }
                None => self.deliver(shard, id, &req),
            };
            match outcome {
                Some(resp) => return Ok(resp),
                None => {
                    global.count(Metric::TransportTimeouts, 1);
                    if attempt >= self.config.max_retries {
                        return Err(TransportError::Exhausted {
                            attempts: attempt + 1,
                        });
                    }
                    attempt += 1;
                    global.count(Metric::TransportRetries, 1);
                    let ticks = self
                        .config
                        .backoff
                        .backoff_ticks(tid, attempt)
                        .min(MAX_BACKOFF_SPINS);
                    for _ in 0..ticks {
                        thread::yield_now();
                    }
                }
            }
        }
    }

    fn probe(&self, global: &GlobalState<S>, tid: ThreadId, shard: usize) -> bool {
        global.count(Metric::TransportRequests, 1);
        let fault = global
            .fault_hook()
            .and_then(|h| h.transport_fault(tid, shard));
        if let Some(f) = fault {
            global.note_injected(f.kind());
            if matches!(f, TransportFault::CrashServer) {
                self.crash_server(shard);
            }
            global.count(Metric::TransportTimeouts, 1);
            return false;
        }
        let id = self.next_req.fetch_add(1, Ordering::Relaxed);
        match self.deliver(shard, id, &ShardRequest::Ping) {
            Some(ShardResponse::Pong) => true,
            Some(_) => false,
            None => {
                global.count(Metric::TransportTimeouts, 1);
                false
            }
        }
    }

    fn fallback(&self) -> FallbackMode {
        self.config.fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Code;
    use crate::machine::Machine;
    use crate::toy::{CounterMethod, ToyCounter};

    fn inc() -> Code<CounterMethod> {
        Code::method(CounterMethod::Inc)
    }

    #[test]
    fn seeded_backoff_is_deterministic_and_bounded() {
        let b = SeededBackoff::new(7);
        for attempt in 1..10u32 {
            let t1 = b.backoff_ticks(ThreadId(3), attempt);
            let t2 = b.backoff_ticks(ThreadId(3), attempt);
            assert_eq!(t1, t2);
            assert!((1..=256).contains(&t1), "tick {t1} out of window");
        }
        // Different threads desynchronize.
        assert_ne!(
            b.backoff_ticks(ThreadId(0), 3),
            b.backoff_ticks(ThreadId(1), 3)
        );
    }

    #[test]
    fn local_transport_counts_requests() {
        let mut m: Machine<ToyCounter> = Machine::new(ToyCounter::with_bound(32));
        let t = m.add_thread(vec![inc()]);
        m.set_local_transport();
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        let stats = m.metrics();
        assert_eq!(
            stats[Metric::TransportRequests],
            1,
            "one PUSH crossed the transport"
        );
        assert_eq!(stats[Metric::TransportTimeouts], 0);
        assert_eq!(stats[Metric::TransportDegradations], 0);
    }

    #[test]
    fn channel_transport_matches_local_run() {
        let run = |channel: bool| {
            let mut m: Machine<ToyCounter> = Machine::new(ToyCounter::with_bound(32));
            let t = m.add_thread(vec![Code::seq(inc(), inc())]);
            if channel {
                m.set_channel_transport(TransportConfig::default());
            } else {
                m.set_local_transport();
            }
            let a = m.app_auto(t).unwrap();
            m.push(t, a).unwrap();
            let b = m.app_auto(t).unwrap();
            m.push(t, b).unwrap();
            m.commit(t).unwrap();
            (m.trace().render(), m.audit())
        };
        let (local_trace, local_audit) = run(false);
        let (chan_trace, chan_audit) = run(true);
        assert_eq!(local_trace, chan_trace, "traces must be bit-identical");
        assert_eq!(
            local_audit.discharged, chan_audit.discharged,
            "discharge ledgers must be bit-identical"
        );
        assert_eq!(local_audit.violated, chan_audit.violated);
    }

    #[test]
    fn channel_transport_unpush_roundtrip() {
        let mut m: Machine<ToyCounter> = Machine::new(ToyCounter::with_bound(32));
        let t = m.add_thread(vec![inc()]);
        m.set_channel_transport(TransportConfig::default());
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.unpush(t, op).unwrap();
        assert_eq!(m.global().len(), 0, "unpush removed the entry");
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.committed_txns().len(), 1);
    }
}
