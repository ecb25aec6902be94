//! Outside-in tracing: a clock shared by the whole run, tick spans
//! recorded by the drive loops, and [`Traced`], a [`SeqSpec`] wrapper
//! that forwards every trait item to the real spec and records one span
//! per outermost spec call into a per-thread buffer.

use std::cell::RefCell;
use std::collections::HashSet;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use pushpull_core::op::Op;
use pushpull_core::spec::{KeySet, OpInverse, SeqSpec};

/// Nanoseconds since the run's epoch (fixed at the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spec call families, one `spec.<name>` metric group each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// `denote`, `denote_from`, `denote_refs`, `denote_from_refs`.
    Denote,
    /// `allowed`, `allows`.
    Allowed,
    /// `post_states`.
    PostStates,
    /// `results`.
    Results,
    /// `mover`, `method_mover`.
    Mover,
    /// `method_keys`, `initial_states`, `state_universe`,
    /// `method_universe`, `inverse`, `has_inverses`.
    Other,
}

impl SpecKind {
    /// Every family, in reporting order.
    pub const ALL: [SpecKind; 6] = [
        SpecKind::Denote,
        SpecKind::Allowed,
        SpecKind::PostStates,
        SpecKind::Results,
        SpecKind::Mover,
        SpecKind::Other,
    ];

    /// The metric group name.
    pub fn name(self) -> &'static str {
        match self {
            SpecKind::Denote => "spec.denote",
            SpecKind::Allowed => "spec.allowed",
            SpecKind::PostStates => "spec.post_states",
            SpecKind::Results => "spec.results",
            SpecKind::Mover => "spec.mover",
            SpecKind::Other => "spec.other",
        }
    }
}

/// One outermost spec call.
#[derive(Debug, Clone, Copy)]
pub struct SpecSpan {
    /// The call family.
    pub kind: SpecKind,
    /// Call index of the enclosing tick (`u32::MAX` outside any tick).
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// One `tick` call.
#[derive(Debug, Clone, Copy)]
pub struct TickSpan {
    /// Worker (server) or model thread (raw driver) ticked.
    pub thread: usize,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Transaction ordinal on the thread, where the drive knows it.
    pub txn: Option<u64>,
}

#[derive(Default)]
struct Buffer {
    depth: u32,
    parent: u32,
    spans: Vec<SpecSpan>,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer { parent: u32::MAX, ..Buffer::default() });
}

/// Marks the tick (by call index) that encloses this thread's next spec
/// calls.
pub fn set_parent(index: u32) {
    BUFFER.with(|b| b.borrow_mut().parent = index);
}

/// Takes this thread's recorded spec spans, leaving the buffer empty.
pub fn take_spec_spans() -> Vec<SpecSpan> {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.parent = u32::MAX;
        std::mem::take(&mut b.spans)
    })
}

/// Runs `f`, recording a span when this is the outermost spec call.
fn span<T>(kind: SpecKind, f: impl FnOnce() -> T) -> T {
    let outer = BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.depth += 1;
        b.depth == 1
    });
    let start = if outer { now_ns() } else { 0 };
    let out = f();
    let end = if outer { now_ns() } else { 0 };
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.depth -= 1;
        if outer {
            let parent = b.parent;
            b.spans.push(SpecSpan {
                kind,
                parent,
                start,
                end,
            });
        }
    });
    out
}

/// A spec that forwards every [`SeqSpec`] item to `S` and times each
/// outermost call. Forwarding every item — defaulted ones included —
/// keeps the machine's behaviour identical to running `S` directly,
/// which the traced/untraced count comparison checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traced<S>(pub S);

type OpOf<S> = Op<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>;

impl<S: SeqSpec> SeqSpec for Traced<S> {
    type Method = S::Method;
    type Ret = S::Ret;
    type State = S::State;

    fn initial_states(&self) -> Vec<S::State> {
        span(SpecKind::Other, || self.0.initial_states())
    }

    fn post_states(&self, state: &S::State, method: &S::Method, ret: &S::Ret) -> Vec<S::State> {
        span(SpecKind::PostStates, || {
            self.0.post_states(state, method, ret)
        })
    }

    fn results(&self, state: &S::State, method: &S::Method) -> Vec<S::Ret> {
        span(SpecKind::Results, || self.0.results(state, method))
    }

    fn state_universe(&self) -> Option<Vec<S::State>> {
        span(SpecKind::Other, || self.0.state_universe())
    }

    fn denote(&self, ops: &[OpOf<S>]) -> HashSet<S::State> {
        span(SpecKind::Denote, || self.0.denote(ops))
    }

    fn denote_from(&self, states: &HashSet<S::State>, ops: &[OpOf<S>]) -> HashSet<S::State> {
        span(SpecKind::Denote, || self.0.denote_from(states, ops))
    }

    fn denote_refs<'a, I>(&self, ops: I) -> HashSet<S::State>
    where
        I: IntoIterator<Item = &'a Op<Self::Method, Self::Ret>>,
        Self::Method: 'a,
        Self::Ret: 'a,
    {
        span(SpecKind::Denote, || self.0.denote_refs(ops))
    }

    fn denote_from_refs<'a, I>(&self, states: &HashSet<S::State>, ops: I) -> HashSet<S::State>
    where
        I: IntoIterator<Item = &'a Op<Self::Method, Self::Ret>>,
        Self::Method: 'a,
        Self::Ret: 'a,
    {
        span(SpecKind::Denote, || self.0.denote_from_refs(states, ops))
    }

    fn allowed(&self, ops: &[OpOf<S>]) -> bool {
        span(SpecKind::Allowed, || self.0.allowed(ops))
    }

    fn allows(&self, ops: &[OpOf<S>], op: &OpOf<S>) -> bool {
        span(SpecKind::Allowed, || self.0.allows(ops, op))
    }

    fn mover(&self, op1: &OpOf<S>, op2: &OpOf<S>) -> bool {
        span(SpecKind::Mover, || self.0.mover(op1, op2))
    }

    fn method_mover(&self, m1: &S::Method, m2: &S::Method) -> Option<bool> {
        span(SpecKind::Mover, || self.0.method_mover(m1, m2))
    }

    fn method_keys(&self, m: &S::Method) -> Option<KeySet> {
        span(SpecKind::Other, || self.0.method_keys(m))
    }

    fn method_universe(&self) -> Option<Vec<S::Method>> {
        span(SpecKind::Other, || self.0.method_universe())
    }

    fn inverse(&self, op: &OpOf<S>) -> OpInverse<S::Method, S::Ret> {
        span(SpecKind::Other, || self.0.inverse(op))
    }

    fn has_inverses(&self) -> bool {
        span(SpecKind::Other, || self.0.has_inverses())
    }
}

/// The spans of one traced episode, all from the one driving OS thread.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Every tick, in call order (a spec span's `parent` indexes this).
    pub ticks: Vec<TickSpan>,
    /// Every outermost spec call, in call order.
    pub spec: Vec<SpecSpan>,
}

impl TraceLog {
    /// Writes the spans as tab-separated lines: `tick <call index>
    /// <thread> <index on thread> <start> <end> <txn or -1>` and `<spec
    /// family> <parent call index or -1> <start> <end>`, times in ns.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut per_thread: Vec<u32> = Vec::new();
        for (seq, t) in self.ticks.iter().enumerate() {
            if per_thread.len() <= t.thread {
                per_thread.resize(t.thread + 1, 0);
            }
            let index = per_thread[t.thread];
            per_thread[t.thread] += 1;
            let txn = t.txn.map_or(-1, |x| x as i64);
            writeln!(
                out,
                "tick\t{seq}\t{}\t{index}\t{}\t{}\t{txn}",
                t.thread, t.start, t.end
            )?;
        }
        for s in &self.spec {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            writeln!(out, "{}\t{parent}\t{}\t{}", s.kind.name(), s.start, s.end)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};
    use pushpull_spec::kvmap::{KvMap, MapMethod, MapRet};

    /// Every trait item answers exactly as the wrapped spec does.
    #[test]
    fn wrapper_forwards_every_item() {
        let inner = KvMap::bounded(vec![0, 1], vec![5, 6]);
        let spec = Traced(inner.clone());
        let put = Op::new(OpId(1), TxnId(1), MapMethod::Put(0, 5), MapRet::Prev(None));
        let get = Op::new(OpId(2), TxnId(2), MapMethod::Get(0), MapRet::Val(Some(5)));
        let other = Op::new(OpId(3), TxnId(3), MapMethod::Put(1, 6), MapRet::Prev(None));
        let ops = [put.clone(), get.clone()];
        let s0 = inner.initial_states()[0].clone();
        let states: HashSet<_> = inner.initial_states().into_iter().collect();

        assert_eq!(spec.initial_states(), inner.initial_states());
        assert_eq!(
            spec.post_states(&s0, &put.method, &put.ret),
            inner.post_states(&s0, &put.method, &put.ret)
        );
        assert_eq!(
            spec.results(&s0, &get.method),
            inner.results(&s0, &get.method)
        );
        assert_eq!(spec.state_universe(), inner.state_universe());
        assert_eq!(spec.denote(&ops), inner.denote(&ops));
        assert_eq!(
            spec.denote_from(&states, &ops),
            inner.denote_from(&states, &ops)
        );
        assert_eq!(spec.denote_refs(ops.iter()), inner.denote_refs(ops.iter()));
        assert_eq!(
            spec.denote_from_refs(&states, ops.iter()),
            inner.denote_from_refs(&states, ops.iter())
        );
        assert_eq!(spec.allowed(&ops), inner.allowed(&ops));
        assert_eq!(spec.allows(&ops, &other), inner.allows(&ops, &other));
        assert_eq!(spec.mover(&put, &other), inner.mover(&put, &other));
        assert_eq!(spec.mover(&put, &get), inner.mover(&put, &get));
        assert_eq!(
            spec.method_mover(&put.method, &get.method),
            inner.method_mover(&put.method, &get.method)
        );
        assert_eq!(
            spec.method_keys(&put.method),
            inner.method_keys(&put.method)
        );
        assert_eq!(
            spec.method_keys(&MapMethod::Size),
            inner.method_keys(&MapMethod::Size)
        );
        assert_eq!(spec.method_universe(), inner.method_universe());
        assert_eq!(spec.inverse(&put), inner.inverse(&put));
        assert_eq!(spec.has_inverses(), inner.has_inverses());
    }

    #[test]
    fn outermost_calls_are_recorded_under_their_parent() {
        take_spec_spans();
        let spec = Traced(KvMap::new());
        let put = Op::new(OpId(1), TxnId(1), MapMethod::Put(0, 5), MapRet::Prev(None));
        set_parent(7);
        spec.denote(std::slice::from_ref(&put));
        spec.allowed(std::slice::from_ref(&put));
        spec.method_keys(&put.method);
        let spans = take_spec_spans();
        let kinds: Vec<_> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpecKind::Denote, SpecKind::Allowed, SpecKind::Other]
        );
        assert!(spans.iter().all(|s| s.parent == 7 && s.start <= s.end));
        // Taking resets the parent for calls outside any tick.
        spec.initial_states();
        assert_eq!(take_spec_spans()[0].parent, u32::MAX);
    }
}
