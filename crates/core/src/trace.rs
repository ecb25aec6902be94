//! Execution traces: a record of every rule the machine applied.
//!
//! Traces serve three purposes:
//!
//! 1. **Checking** — the opacity checker and the invariant test-suites
//!    replay traces;
//! 2. **Explaining** — [`Trace::render`] pretty-prints the rule sequence in
//!    the style of the paper's Figure 7 ("Decomposing behavior in terms of
//!    PUSH/PULL rules");
//! 3. **Reproduction** — examples print traces so the Fig 2 / Fig 7
//!    decompositions can be eyeballed against the paper.

use std::fmt;
use std::sync::Arc;

use crate::log::GlobalFlag;
use crate::op::{OpId, ThreadId, TxnId};

/// One recorded machine step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M, R> {
    /// A transaction began (its code was installed).
    Begin {
        /// Thread that began the transaction.
        thread: ThreadId,
        /// Fresh transaction instance id.
        txn: TxnId,
    },
    /// APP: `op` was applied locally.
    App {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The operation's id.
        op: OpId,
        /// Method applied.
        method: M,
        /// Observed return value.
        ret: R,
    },
    /// UNAPP: the most recent unpushed local entry was rewound.
    UnApp {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The rewound operation.
        op: OpId,
        /// Its method (for display).
        method: M,
    },
    /// PUSH: `op` entered the shared log.
    Push {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The pushed operation.
        op: OpId,
        /// Its method (for display).
        method: M,
    },
    /// UNPUSH: `op` was recalled from the shared log.
    UnPush {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The recalled operation.
        op: OpId,
        /// Its method (for display).
        method: M,
    },
    /// PULL: `op` (owned by `from`) was pulled into the local view.
    Pull {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The pulled operation.
        op: OpId,
        /// The transaction that owns the pulled operation.
        from: TxnId,
        /// Commit status of the pulled operation *at pull time* —
        /// the datum the opacity checker needs.
        status_at_pull: GlobalFlag,
        /// Its method (for display).
        method: M,
        /// The pulled operation's recorded return value.
        ret: R,
        /// Methods the puller may still perform after the pull — the datum
        /// the §6.1 commutativity refinement of opacity needs. Pulls never
        /// change the code, so one batch of pulls shares one allocation.
        reachable_after: Arc<[M]>,
    },
    /// UNPULL: `op` was discarded from the local view.
    UnPull {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The discarded operation.
        op: OpId,
        /// Its method (for display).
        method: M,
    },
    /// CMT: the transaction committed; `ops` lists the ids flipped to `gCmt`.
    Commit {
        /// Thread performing the rule.
        thread: ThreadId,
        /// The committed transaction instance.
        txn: TxnId,
        /// Ids whose global flag flipped to committed.
        ops: Vec<OpId>,
    },
    /// The driver declared the transaction aborted (after rewinding).
    Abort {
        /// Thread performing the abort.
        thread: ThreadId,
        /// The aborted transaction instance.
        txn: TxnId,
    },
}

impl<M, R> Event<M, R> {
    /// The thread that performed this event.
    pub fn thread(&self) -> ThreadId {
        match self {
            Event::Begin { thread, .. }
            | Event::App { thread, .. }
            | Event::UnApp { thread, .. }
            | Event::Push { thread, .. }
            | Event::UnPush { thread, .. }
            | Event::Pull { thread, .. }
            | Event::UnPull { thread, .. }
            | Event::Commit { thread, .. }
            | Event::Abort { thread, .. } => *thread,
        }
    }

    /// The paper's rule name for this event, or a pseudo-name for
    /// begin/abort bookkeeping events.
    pub fn rule_name(&self) -> &'static str {
        match self {
            Event::Begin { .. } => "BEGIN",
            Event::App { .. } => "APP",
            Event::UnApp { .. } => "UNAPP",
            Event::Push { .. } => "PUSH",
            Event::UnPush { .. } => "UNPUSH",
            Event::Pull { .. } => "PULL",
            Event::UnPull { .. } => "UNPULL",
            Event::Commit { .. } => "CMT",
            Event::Abort { .. } => "ABORT",
        }
    }
}

/// A complete recorded execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace<M, R> {
    events: Vec<Event<M, R>>,
}

impl<M, R> Trace<M, R> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Appends an event.
    pub fn record(&mut self, event: Event<M, R>) {
        self.events.push(event);
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[Event<M, R>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event<M, R>> {
        self.events.iter()
    }

    /// Events performed by one thread, in order.
    pub fn by_thread(&self, thread: ThreadId) -> Vec<&Event<M, R>> {
        self.events
            .iter()
            .filter(|e| e.thread() == thread)
            .collect()
    }

    /// The rule-name sequence of one thread — the exact shape of the
    /// paper's Figure 7 listing (e.g. `["PULL", "APP", "PUSH", ..., "CMT"]`).
    pub fn rule_names(&self, thread: ThreadId) -> Vec<&'static str> {
        self.by_thread(thread)
            .iter()
            .map(|e| e.rule_name())
            .collect()
    }

    /// Count of events by rule name across all threads.
    pub fn count_rule(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.rule_name() == name).count()
    }
}

impl<M: fmt::Display, R: fmt::Debug> Trace<M, R> {
    /// Renders the trace in the style of Figure 7: one rule per line,
    /// `RULE(method#id)` with thread prefixes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&self.render_event(e));
            out.push('\n');
        }
        out
    }

    fn render_event(&self, e: &Event<M, R>) -> String {
        match e {
            Event::Begin { thread, txn } => format!("{thread}: begin {txn}"),
            Event::App {
                thread,
                op,
                method,
                ret,
            } => {
                format!("{thread}: APP({method}{op}) -> {ret:?}")
            }
            Event::UnApp { thread, op, method } => format!("{thread}: UNAPP({method}{op})"),
            Event::Push { thread, op, method } => format!("{thread}: PUSH({method}{op})"),
            Event::UnPush { thread, op, method } => format!("{thread}: UNPUSH({method}{op})"),
            Event::Pull {
                thread,
                op,
                from,
                status_at_pull,
                method,
                ..
            } => {
                let st = match status_at_pull {
                    GlobalFlag::Committed => "committed",
                    GlobalFlag::Uncommitted => "UNCOMMITTED",
                };
                format!("{thread}: PULL({method}{op} from {from}, {st})")
            }
            Event::UnPull { thread, op, method } => format!("{thread}: UNPULL({method}{op})"),
            Event::Commit { thread, txn, ops } => {
                let ids: Vec<String> = ops.iter().map(|i| i.to_string()).collect();
                format!("{thread}: CMT {txn} [{}]", ids.join(", "))
            }
            Event::Abort { thread, txn } => format!("{thread}: abort {txn}"),
        }
    }
}

impl<'a, M, R> IntoIterator for &'a Trace<M, R> {
    type Item = &'a Event<M, R>;
    type IntoIter = std::slice::Iter<'a, Event<M, R>>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Event<&'static str, i64>;

    #[test]
    fn rule_names_filter_by_thread() {
        let mut t: Trace<&'static str, i64> = Trace::new();
        t.record(E::Begin {
            thread: ThreadId(0),
            txn: TxnId(0),
        });
        t.record(E::App {
            thread: ThreadId(0),
            op: OpId(0),
            method: "inc",
            ret: 0,
        });
        t.record(E::App {
            thread: ThreadId(1),
            op: OpId(1),
            method: "inc",
            ret: 0,
        });
        t.record(E::Push {
            thread: ThreadId(0),
            op: OpId(0),
            method: "inc",
        });
        t.record(E::Commit {
            thread: ThreadId(0),
            txn: TxnId(0),
            ops: vec![OpId(0)],
        });
        assert_eq!(
            t.rule_names(ThreadId(0)),
            vec!["BEGIN", "APP", "PUSH", "CMT"]
        );
        assert_eq!(t.rule_names(ThreadId(1)), vec!["APP"]);
        assert_eq!(t.count_rule("APP"), 2);
    }

    #[test]
    fn render_is_figure7_shaped() {
        let mut t: Trace<&'static str, i64> = Trace::new();
        t.record(E::Push {
            thread: ThreadId(0),
            op: OpId(7),
            method: "size++",
        });
        t.record(E::UnPush {
            thread: ThreadId(0),
            op: OpId(7),
            method: "size++",
        });
        let s = t.render();
        assert!(s.contains("T0: PUSH(size++#7)"));
        assert!(s.contains("T0: UNPUSH(size++#7)"));
    }

    #[test]
    fn pull_render_flags_uncommitted_sources() {
        let mut t: Trace<&'static str, i64> = Trace::new();
        t.record(E::Pull {
            thread: ThreadId(2),
            op: OpId(3),
            from: TxnId(1),
            status_at_pull: GlobalFlag::Uncommitted,
            method: "put",
            ret: 0,
            reachable_after: Vec::new().into(),
        });
        assert!(t.render().contains("UNCOMMITTED"));
    }
}
