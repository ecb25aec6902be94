//! One registry for every machine counter.
//!
//! Each counter the machine keeps — shard locks, the seqlock snapshot
//! path, arena occupancy, the transport envelope, group commit and
//! nested scopes — is one [`Metric`] variant with a stable dotted name.
//! [`GlobalState`](crate::global::GlobalState) stores them in one atomic
//! block (plus one block per footprint shard for the per-shard lock and
//! snapshot tallies), and [`Machine::metrics`](crate::machine::Machine::metrics)
//! reads them all at once as a [`MetricsSnapshot`]. Drivers, sweeps and
//! the watchdog consume the snapshot, so a new counter is one row in the
//! table below plus one increment site.
//!
//! Increments are a single relaxed `fetch_add`; snapshots are plain
//! arrays, so reading one allocates nothing.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a metric's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone within one shard layout: only ever incremented.
    Counter,
    /// A level sampled when the snapshot is taken (may go down).
    Gauge,
}

macro_rules! metrics {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $kind:ident;)*) => {
        /// A machine counter. Declaration order is the order of
        /// [`Metric::ALL`] and of every rendering.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Metric {
            $($(#[$doc])* $variant,)*
        }

        impl Metric {
            /// Every metric, in declaration order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];

            /// The stable dotted name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)*
                }
            }

            /// Counter or gauge.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)*
                }
            }
        }
    };
}

metrics! {
    /// Shard-lock acquisitions (per shard).
    LockAcquires = "core.global.lock_acquires", Counter;
    /// Shard-lock acquisitions that found the lock held and had to wait
    /// (per shard).
    LockContended = "core.global.lock_contended", Counter;
    /// Criteria evaluations served lock-free from a published shard
    /// snapshot (per shard).
    SnapReads = "core.global.snap_reads", Counter;
    /// Seqlock validation races burned before a successful snapshot read
    /// (per shard).
    SnapRetries = "core.global.snap_retries", Counter;
    /// Snapshot reads that gave up — unpublished cell, reader contention
    /// or a stale speculation — and took the mutex ladder (per shard).
    SnapFallbacks = "core.global.snap_fallbacks", Counter;
    /// Live log entries in the shard arenas.
    ArenaLive = "core.global.arena_live", Gauge;
    /// Arena slots allocated, live plus free.
    ArenaCapacity = "core.global.arena_capacity", Gauge;
    /// Arena slots recycled after an UNPUSH freed them.
    ArenaReused = "core.global.arena_reused", Counter;
    /// Logical transport requests (calls and probes; retries of one call
    /// count once).
    TransportRequests = "core.transport.requests", Counter;
    /// Transport re-delivery attempts after a failed one.
    TransportRetries = "core.transport.retries", Counter;
    /// Transport delivery attempts that timed out or were lost
    /// (injected faults included).
    TransportTimeouts = "core.transport.timeouts", Counter;
    /// Shards degraded to the coarse coordinator path after exhausting
    /// their transport envelope.
    TransportDegradations = "core.transport.degradations", Counter;
    /// Degraded shards a probe found reachable again.
    TransportRecoveries = "core.transport.recoveries", Counter;
    /// Group-commit batches sealed, each under one shard-lock
    /// acquisition.
    GroupBatches = "core.group.batches", Counter;
    /// Transactions committed through a batch.
    GroupBatchedTxns = "core.group.batched_txns", Counter;
    /// Operations appended through a batch.
    GroupBatchedOps = "core.group.batched_ops", Counter;
    /// Lock acquisitions batching saved: a batch of `n` transactions and
    /// `k` operations pays one where the per-transaction path pays
    /// `k + n`.
    GroupLocksSaved = "core.group.locks_saved", Counter;
    /// Batches of one transaction.
    GroupSize1 = "core.group.size_1", Counter;
    /// Batches of two transactions.
    GroupSize2 = "core.group.size_2", Counter;
    /// Batches of 3–4 transactions.
    GroupSize4 = "core.group.size_3_4", Counter;
    /// Batches of 5–8 transactions.
    GroupSize8 = "core.group.size_5_8", Counter;
    /// Batches of 9–16 transactions.
    GroupSize16 = "core.group.size_9_16", Counter;
    /// Batches of 17–32 transactions.
    GroupSize32 = "core.group.size_17_32", Counter;
    /// Batches of 33–64 transactions.
    GroupSize64 = "core.group.size_33_64", Counter;
    /// Batches of 65 or more transactions.
    GroupSizeMore = "core.group.size_65_plus", Counter;
    /// Nested scopes entered (peeled `tx`/`otx` redexes, explicit
    /// scopes, checkpoint markers).
    ScopesOpened = "core.nesting.scopes_opened", Counter;
    /// Closed scopes merged into their parent on commit.
    ScopesMerged = "core.nesting.scopes_merged", Counter;
    /// Scopes aborted by partial rewind (the parent survived).
    ScopesAborted = "core.nesting.scopes_aborted", Counter;
    /// Open-nested children committed straight to the shared log.
    OpenCommits = "core.nesting.open_commits", Counter;
    /// Compensating transactions replayed by aborting parents.
    Compensations = "core.nesting.compensations", Counter;
    /// Inverse operations derived by the spec's undo oracle.
    UndoInverses = "core.nesting.undo_inverses", Counter;
}

impl Metric {
    /// Number of metrics.
    pub const COUNT: usize = Self::ALL.len();

    /// The group-commit batch-size buckets, in ascending order.
    pub const GROUP_SIZES: [Metric; 8] = [
        Metric::GroupSize1,
        Metric::GroupSize2,
        Metric::GroupSize4,
        Metric::GroupSize8,
        Metric::GroupSize16,
        Metric::GroupSize32,
        Metric::GroupSize64,
        Metric::GroupSizeMore,
    ];

    /// The batch-size bucket a batch of `txns` transactions lands in.
    pub fn group_size(txns: u64) -> Metric {
        match txns {
            0..=1 => Metric::GroupSize1,
            2 => Metric::GroupSize2,
            3..=4 => Metric::GroupSize4,
            5..=8 => Metric::GroupSize8,
            9..=16 => Metric::GroupSize16,
            17..=32 => Metric::GroupSize32,
            33..=64 => Metric::GroupSize64,
            _ => Metric::GroupSizeMore,
        }
    }
}

/// The values of every [`Metric`] at one instant. Index it by metric;
/// `+` merges snapshots slot by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot([u64; Metric::COUNT]);

impl MetricsSnapshot {
    /// `(metric, value)` for every metric, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().map(|&m| (m, self[m]))
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self([0; Metric::COUNT])
    }
}

impl std::ops::Index<Metric> for MetricsSnapshot {
    type Output = u64;

    fn index(&self, m: Metric) -> &u64 {
        &self.0[m as usize]
    }
}

impl std::ops::IndexMut<Metric> for MetricsSnapshot {
    fn index_mut(&mut self, m: Metric) -> &mut u64 {
        &mut self.0[m as usize]
    }
}

impl std::ops::Add for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn add(mut self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
        self
    }
}

impl std::iter::Sum for MetricsSnapshot {
    fn sum<I: Iterator<Item = MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), std::ops::Add::add)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// One `name value` line per metric, in declaration order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (m, v) in self.iter() {
            writeln!(f, "{} {v}", m.name())?;
        }
        Ok(())
    }
}

/// The atomic storage behind a [`MetricsSnapshot`]: one relaxed slot per
/// metric.
#[derive(Debug)]
pub(crate) struct MetricBlock([AtomicU64; Metric::COUNT]);

impl MetricBlock {
    pub(crate) fn new() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    pub(crate) fn add(&self, m: Metric, by: u64) {
        self.0[m as usize].fetch_add(by, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

impl Clone for MetricBlock {
    /// A block starting from this one's current values.
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        Self(std::array::from_fn(|i| AtomicU64::new(snap.0[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert!(names.iter().all(|n| n.starts_with("core.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
    }

    #[test]
    fn all_lists_every_variant_in_order() {
        assert_eq!(Metric::ALL.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i);
        }
        assert_eq!(Metric::ArenaLive.kind(), MetricKind::Gauge);
        assert_eq!(Metric::LockAcquires.kind(), MetricKind::Counter);
    }

    #[test]
    fn group_sizes_bucket_by_powers_of_two() {
        let uppers = [1, 2, 4, 8, 16, 32, 64, u64::MAX];
        for (bucket, upper) in Metric::GROUP_SIZES.iter().zip(uppers) {
            assert_eq!(Metric::group_size(upper), *bucket);
        }
        assert_eq!(Metric::group_size(3), Metric::GroupSize4);
        assert_eq!(Metric::group_size(65), Metric::GroupSizeMore);
    }

    #[test]
    fn add_is_slot_wise() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        a[Metric::LockAcquires] = 3;
        a[Metric::UndoInverses] = 1;
        b[Metric::LockAcquires] = 4;
        b[Metric::GroupBatches] = 2;
        let sum = a + b;
        for (m, v) in sum.iter() {
            assert_eq!(v, a[m] + b[m], "{}", m.name());
        }
        assert_eq!(sum[Metric::LockAcquires], 7);
        assert_eq!([a, b].into_iter().sum::<MetricsSnapshot>(), sum);
    }

    #[test]
    fn display_follows_declaration_order() {
        let mut s = MetricsSnapshot::default();
        s[Metric::SnapReads] = 9;
        let rendered = s.to_string();
        let lines: Vec<_> = rendered.lines().collect();
        assert_eq!(lines.len(), Metric::COUNT);
        for (line, m) in lines.iter().zip(Metric::ALL) {
            assert_eq!(*line, format!("{} {}", m.name(), s[*m]));
        }
    }

    /// A machine whose every metric family has moved: a merged closed
    /// scope, a two-transaction group-commit batch and a PUSH through
    /// the local transport, on top of ordinary locked and snapshot
    /// PUSHes.
    fn busy_machine() -> crate::machine::Machine<crate::toy::ToyCounter> {
        use crate::lang::Code;
        use crate::scope::ScopeKind;
        use crate::toy::{CounterMethod, ToyCounter};
        let inc = || Code::method(CounterMethod::Inc);
        let mut m = crate::machine::Machine::new(ToyCounter::with_bound(64));
        let a = m.add_thread(vec![Code::seq(inc(), inc())]);
        m.app_auto(a).unwrap();
        m.begin_nested(a, ScopeKind::Closed).unwrap();
        m.app_auto(a).unwrap();
        m.commit_nested(a).unwrap();
        m.push_all_and_commit(a).unwrap();
        let b = m.add_thread(vec![inc()]);
        let c = m.add_thread(vec![inc()]);
        m.app_auto(b).unwrap();
        m.app_auto(c).unwrap();
        assert_eq!(m.commit_group(&[b, c]).unwrap().batches, 1);
        let d = m.add_thread(vec![inc()]);
        m.set_local_transport();
        let op = m.app_auto(d).unwrap();
        m.push(d, op).unwrap();
        m.commit(d).unwrap();
        let moved = m.metrics();
        for metric in [
            Metric::LockAcquires,
            Metric::SnapReads,
            Metric::ArenaLive,
            Metric::TransportRequests,
            Metric::GroupBatches,
            Metric::GroupSize2,
            Metric::ScopesOpened,
            Metric::ScopesMerged,
        ] {
            assert!(moved[metric] > 0, "{} never moved", metric.name());
        }
        m
    }

    /// Slots the shard layout owns: they restart on `set_log_shards`.
    const PER_SHARD: [Metric; 5] = [
        Metric::LockAcquires,
        Metric::LockContended,
        Metric::SnapReads,
        Metric::SnapRetries,
        Metric::SnapFallbacks,
    ];

    #[test]
    fn resharding_restarts_shard_slots_and_carries_the_rest() {
        let mut m = busy_machine();
        let before = m.metrics();
        m.set_log_shards(2);
        let after = m.metrics();
        for metric in Metric::ALL.iter().copied() {
            if PER_SHARD.contains(&metric) {
                assert_eq!(after[metric], 0, "{} carried over", metric.name());
            } else if metric.kind() == MetricKind::Counter && metric != Metric::ArenaReused {
                assert_eq!(after[metric], before[metric], "{} lost", metric.name());
            }
        }
        // The arena gauges are sampled from the rebuilt shard logs.
        assert_eq!(after[Metric::ArenaLive], before[Metric::ArenaLive]);
        // The new layout counts again, and its shards add up.
        push_one(&mut m);
        let total = m.metrics();
        assert!(total[Metric::LockAcquires] > 0);
        let shards: MetricsSnapshot = (0..2).map(|i| m.shard_metrics(i)).sum();
        for metric in PER_SHARD {
            assert_eq!(shards[metric], total[metric], "{}", metric.name());
        }
    }

    /// Applies and pushes one `Inc` on a fresh thread.
    fn push_one(m: &mut crate::machine::Machine<crate::toy::ToyCounter>) {
        let t = m.add_thread(vec![crate::lang::Code::method(
            crate::toy::CounterMethod::Inc,
        )]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
    }

    #[test]
    fn clone_copies_every_slot_and_shares_none() {
        let mut m = busy_machine();
        let copy = m.clone();
        assert_eq!(copy.metrics(), m.metrics());
        push_one(&mut m);
        assert!(m.metrics()[Metric::LockAcquires] > copy.metrics()[Metric::LockAcquires]);
    }

    #[test]
    fn block_counts_and_clones() {
        let block = MetricBlock::new();
        block.add(Metric::OpenCommits, 2);
        block.add(Metric::OpenCommits, 1);
        let copy = block.clone();
        block.add(Metric::OpenCommits, 1);
        assert_eq!(copy.snapshot()[Metric::OpenCommits], 3);
        assert_eq!(block.snapshot()[Metric::OpenCommits], 4);
    }
}
