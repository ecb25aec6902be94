//! A simulated best-effort hardware TM (Intel Haswell-style \[17\],
//! IBM \[16\]) over read/write memory.
//!
//! The model observes an HTM through exactly two behaviours (§7): word
//! granularity *eager* conflict detection (the first conflicting access
//! between two live transactions aborts one of them) and lazy publication
//! (buffered writes become visible at commit). In PUSH/PULL terms: APP
//! during the run, eager conflicts tracked by
//! [`HtmConflicts`] (the simulated
//! cache-coherence machinery), PUSH*;CMT at commit, UNAPP* on abort.
//!
//! This is the substitution for real TSX/POWER hardware recorded in
//! DESIGN.md: conflict granularity, eagerness and the abort signal are
//! what the model can see, and those are preserved.

use std::sync::{Arc, Mutex};

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::memory::HtmConflicts;
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

use crate::contention::{
    default_manager, ContentionManager, ContentionState, Gate, Governor, StarvationReport,
};
use crate::driver::{ParallelSystem, SystemStats, Tick, TmSystem, Worker};
use crate::util::is_conflict;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    Running,
}

/// A simulated-HTM system over [`RwMem`].
///
/// # Examples
///
/// ```
/// use pushpull_tm::htm::HtmSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = HtmSystem::new(vec![
///     vec![Code::method(MemMethod::Write(Loc(0), 1))],
///     vec![Code::method(MemMethod::Write(Loc(1), 2))],
/// ]);
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
#[derive(Debug)]
pub struct HtmSystem {
    machine: Machine<RwMem>,
    /// The simulated cache-coherence machinery — the algorithm's only
    /// cross-thread state, behind a short-held mutex.
    tracker: Mutex<HtmConflicts<Loc>>,
    threads: Vec<HtmThread>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone)]
struct HtmThread {
    phase: Phase,
    stats: SystemStats,
}

impl Default for HtmThread {
    fn default() -> Self {
        Self {
            phase: Phase::Begin,
            stats: SystemStats::default(),
        }
    }
}

fn abort_thread(
    tracker: &Mutex<HtmConflicts<Loc>>,
    h: &mut TxnHandle<RwMem>,
    t: &mut HtmThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    let txn = h.txn();
    h.abort_and_retry()?;
    tracker
        .lock()
        .expect("conflict tracker poisoned")
        .clear(txn);
    t.phase = Phase::Begin;
    t.stats.aborts += 1;
    gov.on_abort();
    Ok(Tick::Aborted)
}

/// One HTM tick for one thread: the conflict tracker is consulted briefly
/// per access; APP runs on the thread's own handle with no system-wide
/// lock.
fn tick_thread(
    tracker: &Mutex<HtmConflicts<Loc>>,
    h: &mut TxnHandle<RwMem>,
    t: &mut HtmThread,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    match gov.gate(h) {
        Gate::Done => return Ok(Tick::Done),
        Gate::Park => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Gate::Kill => return abort_thread(tracker, h, t, gov),
        Gate::Run => {}
    }
    if t.phase == Phase::Begin {
        h.pull_committed(true)?;
        t.phase = Phase::Running;
        return Ok(Tick::Progress);
    }
    let txn = h.txn();
    let options = h.step_options()?;
    if options.is_empty() {
        // Commit: publish the write buffer, then CMT; clear the
        // access tracker either way.
        return match h.push_all_and_commit() {
            Ok(committed) => {
                tracker
                    .lock()
                    .expect("conflict tracker poisoned")
                    .clear(committed);
                t.phase = Phase::Begin;
                t.stats.commits += 1;
                gov.on_commit();
                Ok(Tick::Committed)
            }
            Err(e) if is_conflict(&e) => abort_thread(tracker, h, t, gov),
            Err(e) => Err(e),
        };
    }
    let method = options[0].0;
    // Injected hardware faults: a capacity overflow or a spurious
    // coherence conflict aborts the transaction exactly as the real
    // best-effort hardware would, before the access is even recorded.
    if h.fault_at_htm_access().is_some() {
        return abort_thread(tracker, h, t, gov);
    }
    // Eager word-granularity conflict detection: the access that
    // closes a conflict aborts its own transaction (requester-loses,
    // as on real best-effort HTMs).
    let access = {
        let mut tr = tracker.lock().expect("conflict tracker poisoned");
        match method {
            MemMethod::Read(l) => tr.record_read(txn, l),
            MemMethod::Write(l, _) => tr.record_write(txn, l),
        }
    };
    if access.is_err() {
        return abort_thread(tracker, h, t, gov);
    }
    match h.app_method(&method) {
        Ok(_) => {
            gov.on_progress();
            Ok(Tick::Progress)
        }
        Err(MachineError::NoAllowedResult(_)) => abort_thread(tracker, h, t, gov),
        Err(e) if is_conflict(&e) => abort_thread(tracker, h, t, gov),
        Err(e) => Err(e),
    }
}

impl HtmSystem {
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
            tracker: Mutex::new(HtmConflicts::new()),
            threads: vec![HtmThread::default(); n],
            contention,
            governors,
        }
    }
}

impl Clone for HtmSystem {
    fn clone(&self) -> Self {
        let contention = self.contention.fork();
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            tracker: Mutex::new(
                self.tracker
                    .lock()
                    .expect("conflict tracker poisoned")
                    .clone(),
            ),
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

impl TmSystem for HtmSystem {
    type Spec = RwMem;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            &self.tracker,
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
        "htm-sim"
    }

    fn starvation(&self) -> Option<StarvationReport> {
        Some(self.contention.report())
    }

    fn machine(&self) -> &Machine<RwMem> {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine<RwMem> {
        &mut self.machine
    }

    fn stats(&self) -> SystemStats {
        let mut stats: SystemStats = self.threads.iter().map(|t| t.stats).sum();
        self.contention.fold_into(&mut stats);
        stats.with_machine(&self.machine)
    }
}

impl ParallelSystem for HtmSystem {
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let tracker = &self.tracker;
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| Box::new(move || tick_thread(tracker, h, t, gov)) as Worker<'_>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;

    fn run_round_robin(sys: &mut HtmSystem, max_ticks: usize) {
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
    fn disjoint_words_run_in_parallel() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn word_conflicts_abort_eagerly() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().aborts >= 1,
            "same-word RMWs must conflict eagerly"
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn htm_runs_are_opaque() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
    }

    #[test]
    fn conflict_aborts_before_any_inconsistent_app() {
        // The eager tracker fires BEFORE the APP, so the trace contains no
        // APP whose observation the conflicting write could invalidate.
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2)]);
        // T0 reads loc0.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(0)).unwrap();
        // T1 tries to read then write loc0: read shares fine…
        sys.tick(ThreadId(1)).unwrap();
        sys.tick(ThreadId(1)).unwrap();
        // …but T1's write to loc0 conflicts with T0's read: abort.
        let t = sys.tick(ThreadId(1)).unwrap();
        assert_eq!(t, Tick::Aborted);
    }
}
