//! Pessimistic transactions in the style of Matveev & Shavit \[25\]
//! (paper §6.3): write operations are *delayed* to the commit phase, and
//! commit phases are serialized, so "write transactions appear to occur
//! instantaneously at the commit point: all write operations are PUSHed
//! just before CMT, with no interleaved transactions. Consequently, read
//! operations perform PULL only on committed effects."
//!
//! The commit-phase serialization is realized with a *commit token*: a
//! thread entering its commit phase takes the token, performs
//! PUSH*… CMT in one burst, and releases it. Because writers only ever
//! publish while holding the token, PUSH criterion (ii) meets no foreign
//! uncommitted operations — writers never abort. Read-only transactions
//! validate at commit like everyone else; a reader that raced a writer
//! re-runs (our multiversion-free approximation of MS-TM's abort-free
//! readers, recorded in DESIGN.md).

use std::sync::{Arc, Mutex};

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

/// A Matveev–Shavit-style pessimistic system.
///
/// # Examples
///
/// ```
/// use pushpull_tm::pessimistic::MatveevShavitSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{RwMem, MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = MatveevShavitSystem::new(
///     RwMem::new(),
///     vec![
///         vec![Code::method(MemMethod::Write(Loc(0), 1))],
///         vec![Code::method(MemMethod::Write(Loc(0), 2))],
///     ],
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
#[derive(Debug)]
pub struct MatveevShavitSystem<S: SeqSpec> {
    machine: Machine<S>,
    /// Which thread holds the commit token, if any. The token is the
    /// algorithm's single serialization point; workers touch it only in
    /// their commit phase.
    token: Mutex<Option<ThreadId>>,
    threads: Vec<MsThread>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
struct MsThread {
    started: bool,
    stats: SystemStats,
}

/// One tick for one thread: APP and local bookkeeping run lock-free; only
/// the commit burst contends on the token.
fn tick_thread<S: SeqSpec>(
    token: &Mutex<Option<ThreadId>>,
    h: &mut TxnHandle<S>,
    t: &mut MsThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    match gov.gate(h) {
        Gate::Done => {
            let mut tok = token.lock().expect("token lock poisoned");
            if *tok == Some(h.tid()) {
                *tok = None;
            }
            return Ok(Tick::Done);
        }
        Gate::Park => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Kill => {
            h.abort_and_retry()?;
            t.started = false;
            t.stats.aborts += 1;
            gov.on_abort();
            return Ok(Tick::Aborted);
        }
        Gate::Run => {}
    }
    if !t.started {
        // Reads PULL committed effects only.
        h.pull_committed(true)?;
        t.started = true;
        return Ok(Tick::Progress);
    }
    let options = h.step_options()?;
    if !options.is_empty() {
        // Apply locally (writes are buffered — delayed to commit).
        let method = options[0].0.clone();
        return match h.app_method(&method) {
            Ok(_) => {
                gov.on_progress();
                Ok(Tick::Progress)
            }
            Err(MachineError::NoAllowedResult(_)) | Err(MachineError::Criterion(_)) => {
                h.abort_and_retry()?;
                t.started = false;
                t.stats.aborts += 1;
                gov.on_abort();
                Ok(Tick::Aborted)
            }
            Err(e) => Err(e),
        };
    }
    // Commit phase: take the token so the PUSH*;CMT burst is
    // uninterleaved.
    {
        let mut tok = token.lock().expect("token lock poisoned");
        match *tok {
            Some(holder) if holder != h.tid() => {
                // The commit-token wait deliberately does NOT consult the
                // contention manager: MS writers never abort, and the
                // token is released within the holder's same tick, so the
                // wait is always short and bounded.
                t.stats.blocked_ticks += 1;
                return Ok(Tick::Blocked);
            }
            _ => *tok = Some(h.tid()),
        }
    }
    let result = h.push_all_and_commit();
    *token.lock().expect("token lock poisoned") = None;
    match result {
        Ok(_) => {
            t.started = false;
            t.stats.commits += 1;
            gov.on_commit();
            Ok(Tick::Committed)
        }
        Err(e) if is_conflict(&e) => {
            // A reader that raced a writer: re-run on fresh state.
            h.abort_and_retry()?;
            t.started = false;
            t.stats.aborts += 1;
            gov.on_abort();
            Ok(Tick::Aborted)
        }
        Err(e) => Err(e),
    }
}

impl<S: SeqSpec> MatveevShavitSystem<S> {
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
            token: Mutex::new(None),
            threads: vec![MsThread::default(); n],
            contention,
            governors,
        }
    }
}

impl<S: SeqSpec + Clone> Clone for MatveevShavitSystem<S> {
    fn clone(&self) -> Self {
        let contention = self.contention.fork();
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            token: Mutex::new(*self.token.lock().expect("token lock poisoned")),
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

impl<S: SeqSpec> TmSystem for MatveevShavitSystem<S> {
    type Spec = S;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            &self.token,
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
        "pessimistic-ms"
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

impl<S> ParallelSystem for MatveevShavitSystem<S>
where
    S: SeqSpec + Send + Sync,
    S::Method: Send + Sync,
    S::Ret: Send + Sync,
    S::State: Send + Sync,
{
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let token = &self.token;
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| Box::new(move || tick_thread(token, h, t, gov)) as Worker<'_>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    fn run_round_robin<S: SeqSpec>(sys: &mut MatveevShavitSystem<S>, max_ticks: usize) {
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
    fn write_only_transactions_never_abort() {
        let progs: Vec<_> = (0..4)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Write(Loc(t), 1)),
                    Code::method(MemMethod::Write(Loc(t + 4), 2)),
                ])]
            })
            .collect();
        let mut sys = MatveevShavitSystem::new(RwMem::new(), progs);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 4);
        assert_eq!(sys.stats().aborts, 0, "MS writers never abort");
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn even_conflicting_writers_never_abort() {
        // Blind writes to the SAME location: writes are total, pushes
        // under the token meet no uncommitted ops — still no aborts.
        let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
        let mut sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn runs_are_opaque() {
        let prog = |l: u32| {
            vec![Code::seq_all(vec![
                Code::method(MemMethod::Read(Loc(l))),
                Code::method(MemMethod::Write(Loc(l), 1)),
            ])]
        };
        let mut sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(0), prog(1)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn racing_reader_rolls_forward() {
        // Reader reads loc 0; writer writes loc 0. If the reader's
        // snapshot went stale it re-runs; either way both commit and the
        // run is serializable.
        let mut sys = MatveevShavitSystem::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Read(Loc(0)))],
                vec![Code::method(MemMethod::Write(Loc(0), 9))],
            ],
        );
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert!(check_machine(sys.machine()).is_serializable());
    }
}
