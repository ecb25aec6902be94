//! The common interface of transactional-memory systems built on the
//! PUSH/PULL machine.
//!
//! Each algorithm class of §6 is a *system*: a machine plus whatever
//! implementation state the algorithm keeps (abstract locks, version
//! clocks, dependency sets, …). A system makes progress in *ticks*: one
//! tick performs a bounded burst of machine rules on behalf of one
//! thread. Schedulers — random, round-robin, or the exhaustive model
//! checker in `pushpull-harness` — decide which thread ticks next, which
//! is precisely how interleavings arise in the model.
//!
//! Systems are `Clone` so the model checker can branch on scheduler
//! choices; all shared implementation state therefore lives *inside* the
//! system value (no `Arc` aliasing).

use pushpull_core::error::MachineError;
use pushpull_core::op::ThreadId;
use pushpull_core::{Machine, Metric, RulePattern, SeqSpec};

/// The rule pattern every driver in this crate declares: all seven rules.
///
/// §6 of the paper distinguishes algorithm classes by *which rules fire
/// when* (e.g. pessimistic readers pull before every read, optimistic
/// ones pull at commit). In this executable rendering all ten drivers
/// share the abort path (`abort_and_retry` → UNPULL/UNPUSH/UNAPP) and
/// the lenient pull helper, so at the rule-*set* level they coincide; the
/// linter checks the declared set against the workload's `required` rules
/// and flags declared abort-path rules that are provably conflict-dead.
pub fn full_rule_pattern() -> RulePattern {
    RulePattern::all()
}

/// The outcome of one scheduler tick on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Applied at least one rule; more work remains.
    Progress,
    /// The thread's current transaction committed.
    Committed,
    /// The thread's current transaction aborted (and was re-begun).
    Aborted,
    /// The thread cannot make progress right now (e.g. waiting on a lock
    /// or on a dependency); schedule someone else.
    Blocked,
    /// The thread has no transactions left.
    Done,
}

/// A transactional-memory system driving a PUSH/PULL machine.
///
/// Per §6, each algorithm is a pattern of rule invocations on one
/// machine, so a system is that [`Machine`] plus the algorithm's own
/// state, and hands the machine out through [`TmSystem::machine`].
///
/// Implementors: the ten drivers of this crate —
/// [`BoostingSystem`](crate::boosting::BoostingSystem),
/// [`OptimisticSystem`](crate::optimistic::OptimisticSystem),
/// [`CheckpointOptimistic`](crate::checkpoint::CheckpointOptimistic),
/// [`MatveevShavitSystem`](crate::pessimistic::MatveevShavitSystem),
/// [`IrrevocableSystem`](crate::irrevocable::IrrevocableSystem),
/// [`DependentSystem`](crate::dependent::DependentSystem),
/// [`TwoPhaseLocking`](crate::twophase::TwoPhaseLocking),
/// [`Tl2System`](crate::tl2::Tl2System),
/// [`HtmSystem`](crate::htm::HtmSystem) and
/// [`MixedSystem`](crate::mixed::MixedSystem) — plus the service
/// front-end `TxnServer` in `pushpull-server`.
pub trait TmSystem {
    /// The sequential specification the machine runs.
    type Spec: SeqSpec;

    /// Ticks one thread, performing a bounded burst of machine rules.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] only for *structural* misuse or criterion
    /// violations the algorithm cannot interpret as a conflict; expected
    /// conflicts are handled internally (abort/retry/block) and reported
    /// through [`Tick`].
    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError>;

    /// Number of threads in the system.
    fn thread_count(&self) -> usize;

    /// Have all threads completed all of their transactions?
    fn is_done(&self) -> bool;

    /// Short human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// The PUSH/PULL machine this system drives: oracles, traces and
    /// [`Machine::metrics`] read it, and configuration (static discharge,
    /// certificates, transports, fault hooks) is installed on it.
    fn machine(&self) -> &Machine<Self::Spec>;

    /// Mutable access to the machine, for resharding
    /// ([`Machine::set_log_shards`]) and the service commit seam
    /// ([`Machine::commit_group`]).
    fn machine_mut(&mut self) -> &mut Machine<Self::Spec>;

    /// Accumulated statistics: the driver's own counters summed over its
    /// threads, with the shared-log fields filled from the machine by
    /// [`SystemStats::with_machine`]. Allocation-free.
    fn stats(&self) -> SystemStats;

    /// Starvation metrics from the system's contention manager, for
    /// systems that run one (all ten drivers do).
    fn starvation(&self) -> Option<crate::contention::StarvationReport> {
        None
    }

    /// The §6 rule pattern this driver expects to exercise, checked by
    /// the static linter's `pattern-divergence` lint. `None` opts out of
    /// the check; the default is [`full_rule_pattern`].
    fn declared_pattern(&self) -> Option<RulePattern> {
        Some(full_rule_pattern())
    }
}

/// A worker closure for one model thread: each call performs one tick on
/// that thread, touching only its own [`TxnHandle`] and per-thread driver
/// state (plus, for PUSH/UNPUSH/PULL/UNPULL/CMT, the short critical
/// section inside [`GlobalState`]). Workers from one system may therefore
/// run on distinct OS threads concurrently.
///
/// [`TxnHandle`]: pushpull_core::TxnHandle
/// [`GlobalState`]: pushpull_core::GlobalState
pub type Worker<'a> = Box<dyn FnMut() -> Result<Tick, MachineError> + Send + 'a>;

/// A [`TmSystem`] whose state splits into per-thread workers that may run
/// concurrently on OS threads.
///
/// The contract is the lock discipline of the decomposed machine: a
/// worker's APP/UNAPP steps must not enter any system-wide critical
/// section — only the shared-log rules (PUSH/UNPUSH/PULL/UNPULL/CMT) and
/// whatever algorithm-specific shared metadata the driver keeps (abstract
/// locks, version clocks, …) may synchronize, each behind its own
/// short-held lock. `workers()[i]` ticks model thread `i`; calling it is
/// equivalent to `tick(ThreadId(i))` up to interleaving.
pub trait ParallelSystem: TmSystem {
    /// Splits the system into one worker per model thread.
    fn workers(&mut self) -> Vec<Worker<'_>>;
}

/// Statistics every system accumulates, for the benchmark tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Blocked ticks (lock or dependency waits).
    pub blocked_ticks: u64,
    /// Transactions escalated to degraded (solo/irrevocable-style)
    /// execution by the contention manager.
    pub degradations: u64,
    /// The longest run of consecutive aborts any single thread suffered
    /// (merged by `max`, not summed).
    pub max_abort_streak: u64,
    /// Shard-lock acquisitions in the machine's shared log.
    pub lock_acquires: u64,
    /// Shard-lock acquisitions that found the lock already held and had
    /// to block (a direct read on log contention).
    pub lock_contended: u64,
    /// Criteria evaluations served lock-free from a published shard
    /// snapshot (the seqlock fast path).
    pub snap_reads: u64,
    /// Seqlock validation races burned before a successful snapshot read
    /// (retries, not failures).
    pub snap_retries: u64,
    /// Snapshot reads that gave up — unpublished cell, reader contention,
    /// or a stale speculation — and fell back to the mutex ladder.
    pub snap_fallbacks: u64,
    /// Live `GlobalEntry` slots across the shard-log arenas at sampling
    /// time.
    pub arena_live: u64,
    /// Total arena slots allocated (live + free) across shards.
    pub arena_capacity: u64,
    /// Cumulative arena slot reuses (UNPUSH-freed slots recycled by later
    /// appends).
    pub arena_reused: u64,
    /// Logical sessions the service front-end multiplexed (zero outside
    /// `pushpull-server` runs).
    pub sessions: u64,
    /// Commit-ready transactions that fell back to the per-transaction
    /// path (mixed shards, coarse mode, or an installed transport).
    pub group_fallbacks: u64,
}

impl SystemStats {
    /// Fills the shared-log fields (`lock_*`, `snap_*`, `arena_*`) from
    /// `machine`'s [`Machine::metrics`]: the common tail of every
    /// [`TmSystem::stats`]. Every other machine counter is read from the
    /// metrics snapshot itself.
    pub fn with_machine<S: SeqSpec>(mut self, machine: &Machine<S>) -> Self {
        let m = machine.metrics();
        self.lock_acquires = m[Metric::LockAcquires];
        self.lock_contended = m[Metric::LockContended];
        self.snap_reads = m[Metric::SnapReads];
        self.snap_retries = m[Metric::SnapRetries];
        self.snap_fallbacks = m[Metric::SnapFallbacks];
        self.arena_live = m[Metric::ArenaLive];
        self.arena_capacity = m[Metric::ArenaCapacity];
        self.arena_reused = m[Metric::ArenaReused];
        self
    }

    /// Abort rate: aborts / (commits + aborts), or 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

impl std::ops::Add for SystemStats {
    type Output = SystemStats;

    fn add(self, rhs: SystemStats) -> SystemStats {
        SystemStats {
            commits: self.commits + rhs.commits,
            aborts: self.aborts + rhs.aborts,
            blocked_ticks: self.blocked_ticks + rhs.blocked_ticks,
            degradations: self.degradations + rhs.degradations,
            max_abort_streak: self.max_abort_streak.max(rhs.max_abort_streak),
            lock_acquires: self.lock_acquires + rhs.lock_acquires,
            lock_contended: self.lock_contended + rhs.lock_contended,
            snap_reads: self.snap_reads + rhs.snap_reads,
            snap_retries: self.snap_retries + rhs.snap_retries,
            snap_fallbacks: self.snap_fallbacks + rhs.snap_fallbacks,
            arena_live: self.arena_live + rhs.arena_live,
            arena_capacity: self.arena_capacity + rhs.arena_capacity,
            arena_reused: self.arena_reused + rhs.arena_reused,
            sessions: self.sessions + rhs.sessions,
            group_fallbacks: self.group_fallbacks + rhs.group_fallbacks,
        }
    }
}

impl std::iter::Sum for SystemStats {
    fn sum<I: Iterator<Item = SystemStats>>(iter: I) -> SystemStats {
        iter.fold(SystemStats::default(), std::ops::Add::add)
    }
}
