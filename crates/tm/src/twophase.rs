//! Strict two-phase locking over read/write memory — the lock-based
//! atomic sections the paper cites as pessimistic \[4\] (Cherem, Chilimbi
//! & Gulwani: inferring locks for atomic sections), §6.3's family.
//!
//! Rule pattern: acquire the location's lock in the right mode
//! (shared for reads — readers run in parallel, the refinement
//! exclusive-keyed boosting cannot express), then **APP;PUSH** eagerly;
//! locks are held to CMT (strictness); deadlocks abort (UNPUSH;UNAPP).
//!
//! Because reads hold shared locks, a pushed `Read` can still meet a
//! foreign uncommitted `Read` of the same location in PUSH criterion
//! (ii) — reads move across reads, so the criterion holds; writes never
//! meet anything, the exclusive lock fenced them. The audit tests verify
//! this pattern: a 2PL run discharges PUSH obligations but never
//! violates one.

use std::sync::{Arc, Mutex};

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::rwlocks::{Mode, RwLockTable, RwOutcome};
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

use crate::contention::{
    default_manager, ContentionManager, ContentionState, Gate, Governor, StarvationReport,
    WaitVerdict,
};
use crate::driver::{ParallelSystem, SystemStats, Tick, TmSystem, Worker};
use crate::util::is_conflict;

/// A strict two-phase-locking system over [`RwMem`].
///
/// # Examples
///
/// ```
/// use pushpull_tm::twophase::TwoPhaseLocking;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = TwoPhaseLocking::new(vec![
///     vec![Code::method(MemMethod::Read(Loc(0)))],
///     vec![Code::method(MemMethod::Read(Loc(0)))], // readers share
/// ]);
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// assert_eq!(sys.stats().blocked_ticks, 0, "shared reads never block");
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
#[derive(Debug)]
pub struct TwoPhaseLocking {
    machine: Machine<RwMem>,
    /// The shared lock table — the algorithm's only cross-thread state,
    /// behind a short-held mutex.
    locks: Mutex<RwLockTable<Loc>>,
    threads: Vec<TplThread>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
struct TplThread {
    stats: SystemStats,
}

fn abort_thread(
    locks: &Mutex<RwLockTable<Loc>>,
    h: &mut TxnHandle<RwMem>,
    t: &mut TplThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    let txn = h.txn();
    h.abort_and_retry()?;
    locks.lock().expect("lock table poisoned").release_all(txn);
    t.stats.aborts += 1;
    gov.on_abort();
    Ok(Tick::Aborted)
}

fn blocked_thread(
    locks: &Mutex<RwLockTable<Loc>>,
    h: &mut TxnHandle<RwMem>,
    t: &mut TplThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    t.stats.blocked_ticks += 1;
    match gov.on_blocked() {
        WaitVerdict::GiveUp => abort_thread(locks, h, t, gov),
        WaitVerdict::Wait => Ok(Tick::Blocked),
    }
}

/// One 2PL tick for one thread: the lock table is consulted briefly per
/// access; APP runs on the thread's own handle with no system-wide lock.
fn tick_thread(
    locks: &Mutex<RwLockTable<Loc>>,
    h: &mut TxnHandle<RwMem>,
    t: &mut TplThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    match gov.gate(h) {
        Gate::Done => return Ok(Tick::Done),
        Gate::Park => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Kill => return abort_thread(locks, h, t, gov),
        Gate::Run => {}
    }
    let txn = h.txn();
    let options = h.step_options()?;
    if options.is_empty() {
        let committed = match h.commit() {
            Ok(committed) => committed,
            // Natural CMT failures cannot happen (everything was pushed
            // under locks); an injected denial aborts like a deadlock.
            Err(e) if is_conflict(&e) => return abort_thread(locks, h, t, gov),
            Err(e) => return Err(e),
        };
        locks
            .lock()
            .expect("lock table poisoned")
            .release_all(committed);
        t.stats.commits += 1;
        gov.on_commit();
        return Ok(Tick::Committed);
    }
    let method = options[0].0;
    let (loc, mode) = match method {
        MemMethod::Read(l) => (l, Mode::Shared),
        MemMethod::Write(l, _) => (l, Mode::Exclusive),
    };
    // Bind the outcome first: matching on the locked expression would
    // hold the guard across the abort path and self-deadlock.
    let outcome = locks
        .lock()
        .expect("lock table poisoned")
        .try_lock(txn, loc, mode);
    match outcome {
        RwOutcome::Granted => {}
        RwOutcome::Busy { .. } => return blocked_thread(locks, h, t, gov),
        RwOutcome::WouldDeadlock => return abort_thread(locks, h, t, gov),
    }
    // Lock held: refresh committed view, then APP;PUSH eagerly.
    h.pull_committed(true)?;
    let op = match h.app_method(&method) {
        Ok(op) => op,
        Err(MachineError::NoAllowedResult(_)) => return abort_thread(locks, h, t, gov),
        Err(e) if is_conflict(&e) => return abort_thread(locks, h, t, gov),
        Err(e) => return Err(e),
    };
    match h.push(op) {
        Ok(()) => {
            gov.on_progress();
            Ok(Tick::Progress)
        }
        Err(e) if is_conflict(&e) => {
            // Shared-read vs shared-read pushes always commute, so
            // this only fires for exotic interleavings the lock order
            // didn't cover; treat as a wait.
            h.unapp()?;
            blocked_thread(locks, h, t, gov)
        }
        Err(e) => Err(e),
    }
}

impl TwoPhaseLocking {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention manager.
    pub fn new(programs: Vec<Vec<Code<MemMethod>>>) -> Self {
        Self::with_contention(programs, default_manager())
    }

    /// Creates a system with an explicit contention-management policy.
    pub fn with_contention(
        programs: Vec<Vec<Code<MemMethod>>>,
        cm: Arc<dyn ContentionManager>,
    ) -> Self {
        let mut machine = Machine::new(RwMem::new());
        let n = programs.len();
        for p in programs {
            machine.add_thread(p);
        }
        let contention = ContentionState::new(cm);
        let governors = contention.governors(n);
        Self {
            machine,
            locks: Mutex::new(RwLockTable::new()),
            threads: vec![TplThread::default(); n],
            contention,
            governors,
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<RwMem> {
        &self.machine
    }

    /// Accumulated statistics (summed over threads).
    pub fn stats(&self) -> SystemStats {
        let mut stats: SystemStats = self.threads.iter().map(|t| t.stats).sum();
        self.contention.fold_into(&mut stats);
        crate::driver::fold_machine_counters(&self.machine, &mut stats);
        stats
    }
}

impl Clone for TwoPhaseLocking {
    fn clone(&self) -> Self {
        let contention = self.contention.fork();
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            locks: Mutex::new(self.locks.lock().expect("lock table poisoned").clone()),
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

impl TmSystem for TwoPhaseLocking {
    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            &self.locks,
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
        "two-phase-locking"
    }

    fn starvation(&self) -> Option<StarvationReport> {
        Some(self.contention.report())
    }

    crate::driver::forward_machine_hooks!();
}

impl ParallelSystem for TwoPhaseLocking {
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let locks = &self.locks;
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| Box::new(move || tick_thread(locks, h, t, gov)) as Worker<'_>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::error::{Clause, Rule};
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;

    fn run_round_robin(sys: &mut TwoPhaseLocking, max_ticks: usize) {
        let n = sys.thread_count();
        for i in 0..max_ticks {
            if sys.is_done() {
                return;
            }
            let _ = sys.tick(ThreadId(i % n)).unwrap();
        }
        panic!("system did not terminate within {max_ticks} ticks");
    }

    fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    }

    #[test]
    fn readers_run_in_parallel() {
        let prog = || vec![Code::method(MemMethod::Read(Loc(0)))];
        let mut sys = TwoPhaseLocking::new(vec![prog(), prog(), prog()]);
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 3);
        assert_eq!(sys.stats().blocked_ticks, 0);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn writers_serialize_and_never_violate_push_criteria() {
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(0, 2)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().blocked_ticks > 0,
            "second RMW must wait on the lock"
        );
        let audit = sys.machine().audit();
        assert_eq!(audit.violated_count(Rule::Push, Clause::Ii), 0);
        assert_eq!(audit.violated_count(Rule::Push, Clause::Iii), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn upgrade_deadlock_breaks_via_abort() {
        // Both threads read loc 0 then write it: shared-then-upgrade is
        // the classic conversion deadlock; one must abort.
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(0, 2)]);
        // Interleave the reads first.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(1)).unwrap();
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().aborts >= 1,
            "conversion deadlock must abort someone"
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn runs_are_opaque() {
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(1, 2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
    }

    #[test]
    fn random_interleavings_serializable() {
        for seed in 1..=15u64 {
            let mut state = seed;
            let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
            let mut ticks = 0;
            while !sys.is_done() {
                let mut x = state.max(1);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state = x;
                sys.tick(ThreadId((x % 3) as usize)).unwrap();
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
