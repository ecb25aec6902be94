//! Checkpoints / partial abort (§6.2's extension: "Transactions that use
//! checkpoints \[19\] … are similar to the above optimistic models, except
//! that placemarkers are set so that, if an abort is detected, UNAPP only
//! needs to be performed for some operations").
//!
//! The placemarkers are first-class *checkpoint scopes*
//! ([`TxnHandle::begin_checkpoint`]): one closed marker frame before
//! every operation. On a commit-time conflict this driver does not throw
//! the whole transaction away: it locates the *first* operation the
//! shared log no longer admits and aborts the scope suffix from that
//! checkpoint ([`TxnHandle::abort_to_checkpoint`]), refreshes its view,
//! and re-executes only the invalidated suffix. Thanks to UNAPP's saved
//! code/stack snapshots, the machine restores the continuation for free —
//! the paper's point that the model "permits threads to roll backwards to
//! any execution point".

use std::sync::Arc;

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::contention::{
    default_manager, ContentionManager, ContentionState, Gate, Governor, StarvationReport,
    WaitVerdict,
};
use crate::driver::{ParallelSystem, SystemStats, Tick, TmSystem, Worker};
use crate::util::is_conflict;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    Running,
}

/// An optimistic system with checkpoint-based partial aborts.
///
/// # Examples
///
/// ```
/// use pushpull_tm::checkpoint::CheckpointOptimistic;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::counter::{Counter, CtrMethod};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let prog = vec![Code::seq_all(vec![
///     Code::method(CtrMethod::Add(1)),
///     Code::method(CtrMethod::Get),
/// ])];
/// let mut sys = CheckpointOptimistic::new(Counter::new(), vec![prog]);
/// while !sys.is_done() {
///     sys.tick(ThreadId(0))?;
/// }
/// assert_eq!(sys.stats().commits, 1);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
#[derive(Debug)]
pub struct CheckpointOptimistic<S: SeqSpec> {
    machine: Machine<S>,
    threads: Vec<CkptThread>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

impl<S: SeqSpec> Clone for CheckpointOptimistic<S>
where
    Machine<S>: Clone,
{
    fn clone(&self) -> Self {
        let contention = self.contention.fork();
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

/// Per-thread driver state, owned by exactly one worker. Checkpointing
/// has no cross-thread driver state at all.
#[derive(Debug, Clone)]
struct CkptThread {
    phase: Phase,
    stats: SystemStats,
    partial_rewinds: u64,
    ops_salvaged: u64,
}

impl Default for CkptThread {
    fn default() -> Self {
        Self {
            phase: Phase::Begin,
            stats: SystemStats::default(),
            partial_rewinds: 0,
            ops_salvaged: 0,
        }
    }
}

fn abort_thread<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut CkptThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    h.abort_and_retry()?;
    t.phase = Phase::Begin;
    t.stats.aborts += 1;
    gov.on_abort();
    Ok(Tick::Aborted)
}

/// Validates the thread's own operations against the current shared log,
/// returning the index (into the local log) of the first entry that is no
/// longer admissible, if any.
fn first_invalid<S: SeqSpec>(h: &TxnHandle<S>) -> Option<usize> {
    let mut prefix = h.global_snapshot().committed_ops();
    for (idx, e) in h.local().iter().enumerate() {
        if e.flag.is_pulled() {
            // Pulled entries either are still in G (fine) or belong
            // to the prefix already; skip membership bookkeeping —
            // the machine's CMT criteria re-check them anyway.
            continue;
        }
        if !h.spec().allows(&prefix, &e.op) {
            return Some(idx);
        }
        prefix.push(e.op.clone());
    }
    None
}

/// One checkpointing tick for one thread: validation and partial rewinds
/// run entirely on the thread's own handle against a consistent snapshot.
fn tick_thread<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut CkptThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    match gov.gate(h) {
        Gate::Done => return Ok(Tick::Done),
        Gate::Park => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Kill => return abort_thread(h, t, gov),
        Gate::Run => {}
    }
    if t.phase == Phase::Begin {
        h.pull_committed(true)?;
        t.phase = Phase::Running;
        return Ok(Tick::Progress);
    }
    let options = h.step_options()?;
    if !options.is_empty() {
        let method = options[0].0.clone();
        // The §6.2 placemarker: a checkpoint scope before every
        // operation, so any suffix is later abortable on its own.
        h.begin_checkpoint()?;
        return match h.app_method(&method) {
            Ok(_) => Ok(Tick::Progress),
            Err(MachineError::NoAllowedResult(_)) | Err(MachineError::Criterion(_)) => {
                // Local view wedged: partial-abort to the checkpoint
                // before the first invalid entry instead of a full
                // abort.
                match first_invalid(h) {
                    Some(idx) => {
                        let salvaged = idx as u64;
                        h.abort_to_checkpoint(idx)?;
                        h.pull_committed(true)?;
                        t.partial_rewinds += 1;
                        t.ops_salvaged += salvaged;
                        Ok(Tick::Progress)
                    }
                    None => abort_thread(h, t, gov),
                }
            }
            Err(e) => Err(e),
        };
    }
    // Commit phase.
    match first_invalid(h) {
        None => match h.push_all_and_commit() {
            Ok(_) => {
                t.phase = Phase::Begin;
                t.stats.commits += 1;
                gov.on_commit();
                Ok(Tick::Committed)
            }
            Err(e) if is_conflict(&e) => {
                // Raced between validation and push: fall through to a
                // partial rewind on the next tick — but let the
                // contention manager bound the wait, since the conflict
                // may be with another thread's *uncommitted* pushed
                // ops, which validation cannot see: two threads whose
                // uncommitted pushed ops conflict would otherwise block
                // each other forever (`push_all_and_commit` does not
                // unwind partial pushes). A full abort UNPUSHes
                // everything and breaks the cycle.
                t.stats.blocked_ticks += 1;
                match gov.on_blocked() {
                    WaitVerdict::GiveUp => abort_thread(h, t, gov),
                    WaitVerdict::Wait => Ok(Tick::Blocked),
                }
            }
            Err(e) => Err(e),
        },
        Some(idx) => {
            // The §6.2 move: abort the scope suffix, UNAPPing only the
            // invalidated operations.
            let salvaged = idx as u64;
            h.abort_to_checkpoint(idx)?;
            h.pull_committed(true)?;
            gov.on_progress();
            t.partial_rewinds += 1;
            t.ops_salvaged += salvaged;
            Ok(Tick::Progress)
        }
    }
}

impl<S: SeqSpec> CheckpointOptimistic<S> {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention manager.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>) -> Self {
        Self::with_contention(spec, programs, default_manager())
    }

    /// Creates a system with an explicit contention-management policy.
    pub fn with_contention(
        spec: S,
        programs: Vec<Vec<Code<S::Method>>>,
        cm: Arc<dyn ContentionManager>,
    ) -> Self {
        let mut machine = Machine::new(spec);
        let n = programs.len();
        for p in programs {
            machine.add_thread(p);
        }
        let contention = ContentionState::new(cm);
        let governors = contention.governors(n);
        Self {
            machine,
            threads: vec![CkptThread::default(); n],
            contention,
            governors,
        }
    }

    /// Conflicts resolved by rewinding to a checkpoint rather than
    /// restarting the transaction.
    pub fn partial_rewinds(&self) -> u64 {
        self.threads.iter().map(|t| t.partial_rewinds).sum()
    }

    /// Operations that survived partial rewinds (work saved vs a full
    /// abort).
    pub fn ops_salvaged(&self) -> u64 {
        self.threads.iter().map(|t| t.ops_salvaged).sum()
    }
}

impl<S: SeqSpec> TmSystem for CheckpointOptimistic<S> {
    type Spec = S;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            self.machine.handle_mut(tid)?,
            &mut self.threads[tid.0],
            &mut self.governors[tid.0],
        )
    }

    fn thread_count(&self) -> usize {
        self.machine.thread_count()
    }

    fn is_done(&self) -> bool {
        (0..self.machine.thread_count()).all(|t| {
            self.machine
                .thread(ThreadId(t))
                .map(|t| t.is_done())
                .unwrap_or(true)
        })
    }

    fn name(&self) -> &'static str {
        "checkpoint-optimistic"
    }

    fn starvation(&self) -> Option<StarvationReport> {
        Some(self.contention.report())
    }

    fn machine(&self) -> &Machine<S> {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine<S> {
        &mut self.machine
    }

    /// `aborts` counts *full* aborts only; see
    /// [`CheckpointOptimistic::partial_rewinds`].
    fn stats(&self) -> SystemStats {
        let mut stats: SystemStats = self.threads.iter().map(|t| t.stats).sum();
        self.contention.fold_into(&mut stats);
        stats.with_machine(&self.machine)
    }
}

impl<S> ParallelSystem for CheckpointOptimistic<S>
where
    S: SeqSpec + Send + Sync,
    S::Method: Send + Sync,
    S::Ret: Send + Sync,
    S::State: Send + Sync,
{
    fn workers(&mut self) -> Vec<Worker<'_>> {
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| Box::new(move || tick_thread(h, t, gov)) as Worker<'_>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    fn run_round_robin<S: SeqSpec>(sys: &mut CheckpointOptimistic<S>, max_ticks: usize) {
        let n = sys.thread_count();
        for i in 0..max_ticks {
            if sys.is_done() {
                return;
            }
            let _ = sys.tick(ThreadId(i % n)).unwrap();
        }
        panic!("system did not terminate within {max_ticks} ticks");
    }

    #[test]
    fn clean_runs_commit_without_rewinds() {
        let mut sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Write(Loc(0), 1))],
                vec![Code::method(MemMethod::Write(Loc(1), 2))],
            ],
        );
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.partial_rewinds(), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn conflict_in_suffix_is_rewound_partially() {
        // T1: write(5); write(7); get-of-0 — the first two ops touch
        // private locations, only the read of loc 0 is invalidated when
        // T0 commits a write to loc 0 in between.
        let mut sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Write(Loc(0), 9))],
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Write(Loc(5), 1)),
                    Code::method(MemMethod::Write(Loc(7), 2)),
                    Code::method(MemMethod::Read(Loc(0))),
                ])],
            ],
        );
        let (a, b) = (ThreadId(0), ThreadId(1));
        // T1 applies everything against the empty snapshot (read -> 0).
        sys.tick(b).unwrap(); // begin
        sys.tick(b).unwrap();
        sys.tick(b).unwrap();
        sys.tick(b).unwrap(); // read loc0 = 0
                              // T0 commits its write to loc 0.
        while sys.machine().thread(a).unwrap().commits() == 0 {
            sys.tick(a).unwrap();
        }
        // T1's commit detects the stale read and rewinds ONLY it.
        let t = sys.tick(b).unwrap();
        assert_eq!(t, Tick::Progress);
        assert_eq!(sys.partial_rewinds(), 1);
        assert_eq!(sys.ops_salvaged(), 2, "the two private writes survive");
        assert_eq!(sys.stats().aborts, 0);
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
        // The re-executed read observed 9.
        let committed = sys.machine().committed_txns();
        let txn = committed.iter().find(|t| t.thread == b).unwrap();
        assert_eq!(
            txn.ops.last().unwrap().ret,
            pushpull_spec::rwmem::MemRet::Val(9)
        );
    }

    #[test]
    fn conflict_at_head_degenerates_to_full_abort_semantics() {
        // Everything depends on the stale read at position 0: rewind to 0
        // (equivalent to an abort, but through the checkpoint path).
        let mut sys = CheckpointOptimistic::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::seq_all(vec![
                    Code::method(CtrMethod::Get),
                    Code::method(CtrMethod::Add(1)),
                ])],
            ],
        );
        let (a, b) = (ThreadId(0), ThreadId(1));
        sys.tick(b).unwrap(); // begin
        sys.tick(b).unwrap(); // get -> 0
        sys.tick(b).unwrap(); // add
        while sys.machine().thread(a).unwrap().commits() == 0 {
            sys.tick(a).unwrap();
        }
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert!(sys.partial_rewinds() >= 1);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn randomized_checkpoint_runs_serializable() {
        use pushpull_spec::rwmem::RwMem;
        for seed in 1..=10u64 {
            let mut state = seed;
            let prog = |l0: u32, l1: u32| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(l0))),
                    Code::method(MemMethod::Write(Loc(l1), 1)),
                ])]
            };
            let mut sys =
                CheckpointOptimistic::new(RwMem::new(), vec![prog(0, 1), prog(1, 0), prog(0, 0)]);
            let mut ticks = 0;
            while !sys.is_done() {
                let mut x = state.max(1);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state = x;
                let t = (x % 3) as usize;
                sys.tick(ThreadId(t)).unwrap();
                ticks += 1;
                assert!(ticks < 1_000_000, "seed {seed} diverged");
            }
            assert_eq!(sys.stats().commits, 3, "seed {seed}");
            assert!(
                check_machine(sys.machine()).is_serializable(),
                "seed {seed}"
            );
        }
    }
}
