//! Irrevocable transactions (Welc et al. \[34\]) — the mixed
//! optimistic/pessimistic model of paper §6.4: "there is at most one
//! pessimistic ('irrevocable') transaction and many optimistic
//! transactions. The pessimistic transaction PUSHes its effects
//! instantaneously after APP."
//!
//! The irrevocable thread never rolls back: when its eager PUSH meets a
//! foreign uncommitted operation (an optimistic transaction mid-commit),
//! it *waits* — the optimist either commits or, failing validation
//! against the irrevocable thread's published effects, aborts, clearing
//! the way. Optimistic threads behave exactly as in
//! [`crate::optimistic`].

use std::sync::Arc;

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::contention::{
    default_manager, ContentionManager, ContentionState, Gate, Governor, StarvationReport,
};
use crate::driver::{ParallelSystem, SystemStats, Tick, TmSystem, Worker};
use crate::util::is_conflict;

/// Per-thread phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    Running,
}

/// A system with one irrevocable thread among optimistic ones.
///
/// # Examples
///
/// ```
/// use pushpull_tm::irrevocable::IrrevocableSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{RwMem, MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = IrrevocableSystem::new(
///     RwMem::new(),
///     vec![
///         vec![Code::method(MemMethod::Write(Loc(0), 1))], // irrevocable
///         vec![Code::method(MemMethod::Write(Loc(1), 2))], // optimistic
///     ],
///     ThreadId(0),
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.irrevocable_aborts(), 0);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
#[derive(Debug)]
pub struct IrrevocableSystem<S: SeqSpec> {
    machine: Machine<S>,
    irrevocable: ThreadId,
    threads: Vec<IrrThread>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone)]
struct IrrThread {
    phase: Phase,
    stats: SystemStats,
    /// Aborts taken while irrevocable — must stay zero.
    irrevocable_aborts: u64,
}

impl Default for IrrThread {
    fn default() -> Self {
        Self {
            phase: Phase::Begin,
            stats: SystemStats::default(),
            irrevocable_aborts: 0,
        }
    }
}

/// One tick of the pessimistic thread: eager APP;PUSH on its own handle,
/// waiting out (never aborting through) any conflict.
fn tick_irrevocable<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut IrrThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    if t.phase == Phase::Begin {
        h.pull_committed(true)?;
        t.phase = Phase::Running;
        return Ok(Tick::Progress);
    }
    let options = h.step_options()?;
    if options.is_empty() {
        // Everything is already pushed; CMT cannot fail for the
        // irrevocable thread — an injected denial is waited out (never
        // abort), and the retry next tick succeeds.
        return match h.commit() {
            Ok(_) => {
                t.phase = Phase::Begin;
                t.stats.commits += 1;
                gov.on_commit();
                Ok(Tick::Committed)
            }
            Err(e) if is_conflict(&e) => {
                t.stats.blocked_ticks += 1;
                Ok(Tick::Blocked)
            }
            Err(e) => Err(e),
        };
    }
    // Refresh committed view, then APP;PUSH eagerly.
    h.pull_committed(true)?;
    let method = options[0].0.clone();
    let op = match h.app_method(&method) {
        Ok(op) => op,
        Err(MachineError::NoAllowedResult(_)) => {
            // A racing commit shifted the committed prefix between our
            // PULL and APP; the snapshot will be consistent next tick.
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Err(e) if is_conflict(&e) => {
            // An injected APP denial: transient — retry next tick.
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Err(e) => return Err(e),
    };
    match h.push(op) {
        Ok(()) => Ok(Tick::Progress),
        Err(e) if is_conflict(&e) => {
            // An optimistic transaction is mid-commit: wait it out.
            // (Never abort — undo the APP and retry the same method.)
            h.unapp()?;
            t.stats.blocked_ticks += 1;
            Ok(Tick::Blocked)
        }
        Err(e) => Err(e),
    }
}

/// One tick of an optimistic thread, exactly as in [`crate::optimistic`].
fn tick_optimistic<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut IrrThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    if t.phase == Phase::Begin {
        h.pull_committed(true)?;
        t.phase = Phase::Running;
        return Ok(Tick::Progress);
    }
    let options = h.step_options()?;
    if options.is_empty() {
        return match h.push_all_and_commit() {
            Ok(_) => {
                t.phase = Phase::Begin;
                t.stats.commits += 1;
                gov.on_commit();
                Ok(Tick::Committed)
            }
            Err(e) if is_conflict(&e) => abort_optimistic(h, t, gov),
            Err(e) => Err(e),
        };
    }
    let method = options[0].0.clone();
    match h.app_method(&method) {
        Ok(_) => {
            gov.on_progress();
            Ok(Tick::Progress)
        }
        Err(MachineError::NoAllowedResult(_)) => abort_optimistic(h, t, gov),
        Err(e) if is_conflict(&e) => abort_optimistic(h, t, gov),
        Err(e) => Err(e),
    }
}

fn abort_optimistic<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut IrrThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    h.abort_and_retry()?;
    t.phase = Phase::Begin;
    t.stats.aborts += 1;
    gov.on_abort();
    Ok(Tick::Aborted)
}

/// One tick for one thread; dispatches on whether this is the
/// irrevocable thread. No cross-thread driver state exists at all — the
/// machine's global log is the only shared structure.
fn tick_thread<S: SeqSpec>(
    irrevocable: ThreadId,
    h: &mut TxnHandle<S>,
    t: &mut IrrThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    match gov.gate(h) {
        Gate::Done => return Ok(Tick::Done),
        Gate::Park => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Kill if h.tid() != irrevocable => return abort_optimistic(h, t, gov),
        Gate::Kill => {
            // The irrevocable thread never aborts — an injected kill
            // degenerates to a stall of one tick.
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Run => {}
    }
    if h.tid() == irrevocable {
        tick_irrevocable(h, t, gov)
    } else {
        tick_optimistic(h, t, gov)
    }
}

impl<S: SeqSpec> IrrevocableSystem<S> {
    /// Creates a system where thread `irrevocable` runs pessimistically
    /// (eager PUSH, never aborts) and all others run optimistically.
    ///
    /// # Panics
    ///
    /// Panics if `irrevocable` is out of range for `programs`.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>, irrevocable: ThreadId) -> Self {
        Self::with_contention(spec, programs, irrevocable, default_manager())
    }

    /// Creates a system with an explicit contention-management policy.
    ///
    /// # Panics
    ///
    /// Panics if `irrevocable` is out of range for `programs`.
    pub fn with_contention(
        spec: S,
        programs: Vec<Vec<Code<S::Method>>>,
        irrevocable: ThreadId,
        cm: Arc<dyn ContentionManager>,
    ) -> Self {
        assert!(
            irrevocable.0 < programs.len(),
            "irrevocable thread out of range"
        );
        let mut machine = Machine::new(spec);
        let n = programs.len();
        for p in programs {
            machine.add_thread(p);
        }
        let contention = ContentionState::new(cm);
        let governors = contention.governors(n);
        Self {
            machine,
            irrevocable,
            threads: vec![IrrThread::default(); n],
            contention,
            governors,
        }
    }

    /// Aborts taken by the irrevocable thread — must always be zero; kept
    /// as an observable so tests state it as an assertion, not an
    /// assumption.
    pub fn irrevocable_aborts(&self) -> u64 {
        self.threads.iter().map(|t| t.irrevocable_aborts).sum()
    }
}

impl<S: SeqSpec> Clone for IrrevocableSystem<S>
where
    Machine<S>: Clone,
{
    fn clone(&self) -> Self {
        let contention = self.contention.fork();
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            irrevocable: self.irrevocable,
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

impl<S: SeqSpec> TmSystem for IrrevocableSystem<S> {
    type Spec = S;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            self.irrevocable,
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
        "irrevocable"
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

    fn stats(&self) -> SystemStats {
        let mut stats: SystemStats = self.threads.iter().map(|t| t.stats).sum();
        self.contention.fold_into(&mut stats);
        stats.with_machine(&self.machine)
    }
}

impl<S> ParallelSystem for IrrevocableSystem<S>
where
    S: SeqSpec + Send + Sync,
    S::Method: Send + Sync,
    S::Ret: Send + Sync,
    S::State: Send + Sync,
{
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let irrevocable = self.irrevocable;
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| {
                Box::new(move || tick_thread(irrevocable, h, t, gov)) as Worker<'_>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    fn run_round_robin<S: SeqSpec>(sys: &mut IrrevocableSystem<S>, max_ticks: usize) {
        let n = sys.thread_count();
        for i in 0..max_ticks {
            if sys.is_done() {
                return;
            }
            let _ = sys.tick(ThreadId(i % n)).unwrap();
        }
        panic!("system did not terminate within {max_ticks} ticks");
    }

    fn rw_prog(l: u32, v: i64) -> Vec<Code<MemMethod>> {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    }

    #[test]
    fn irrevocable_never_aborts_under_conflict() {
        // Irrevocable and two optimists all read-modify-write loc 0.
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(0, 2), rw_prog(0, 3)],
            ThreadId(0),
        );
        run_round_robin(&mut sys, 8000);
        assert_eq!(sys.stats().commits, 3);
        assert_eq!(sys.irrevocable_aborts(), 0);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
    }

    #[test]
    fn irrevocable_pushes_eagerly() {
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(1, 2)],
            ThreadId(0),
        );
        // Tick irrevocable through begin + first op.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(0)).unwrap();
        let names = sys.machine().trace().rule_names(ThreadId(0));
        assert_eq!(
            names.last(),
            Some(&"PUSH"),
            "APP must be followed immediately by PUSH"
        );
        run_round_robin(&mut sys, 4000);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn optimists_abort_against_irrevocable_effects() {
        // Force the optimist to observe a stale loc 0, then the
        // irrevocable thread writes it; the optimist must abort at least
        // once and still commit eventually.
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(0, 2)],
            ThreadId(0),
        );
        // Optimist snapshots and reads first.
        sys.tick(ThreadId(1)).unwrap(); // begin
        sys.tick(ThreadId(1)).unwrap(); // read loc0 = 0
                                        // Irrevocable runs to commit.
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(sys.stats().aborts >= 1);
        assert_eq!(sys.irrevocable_aborts(), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }
}
