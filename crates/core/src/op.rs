//! Operation records and identifiers.
//!
//! The Push/Pull model represents all state as *logs of operation records*
//! (paper §3, "Operations and logs"). An operation record
//! `op = ⟨m, σ₁, σ₂, id⟩` consists of the method name `m`, the pre-stack σ₁
//! (the method's arguments), the post-stack σ₂ (its return values) and a
//! globally unique identifier `id`.
//!
//! In this executable rendering the method type `M` carries the method name
//! *and* its arguments (σ₁), and the return type `R` carries the observable
//! result (σ₂). This is isomorphic to the paper's stacks: the paper's σ are
//! thread-local environments whose only observable content at an operation
//! boundary is the argument/return values.
//!
//! Equality in the paper is *lifted by id* (`⟨m,σ,σ′,id⟩ ∈ L` compares ids
//! only). We keep structural `Eq` derives for whole-record comparison and
//! provide explicit id-based membership helpers on the log types.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique identifier of an operation record.
///
/// The paper assumes a `fresh(id)` predicate; here freshness is guaranteed
/// by construction: ids are only minted by [`OpIdGen`], which hands out
/// strictly increasing values.
///
/// # Examples
///
/// ```
/// use pushpull_core::op::OpIdGen;
/// let gen = OpIdGen::new();
/// let a = gen.fresh();
/// let b = gen.fresh();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The hasher for maps keyed by [`OpId`]: one multiply by the 64-bit
/// golden ratio. Op ids are minted sequentially by one counter, so
/// SipHash's flood resistance buys nothing and its cost shows on every
/// shard lookup. The multiply maps consecutive ids to distinct low
/// (bucket) bits and mixes them into the high (tag) bits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHash;

/// The [`std::hash::Hasher`] that [`IdHash`] builds.
#[derive(Debug, Default)]
pub(crate) struct IdHasher(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::hash::BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// Identifier of a *transaction instance*.
///
/// A thread executes a sequence of transactions; each attempt that reaches
/// commit is one instance. Operations record the transaction that issued
/// them so that the global log can be partitioned (`G ∖ L`, `cmt(G, L, G′)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a thread in a [`Machine`](crate::machine::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Thread-safe generator of fresh [`OpId`]s (the paper's `fresh` predicate,
/// realized constructively).
#[derive(Debug, Default)]
pub struct OpIdGen {
    next: AtomicU64,
}

impl OpIdGen {
    /// Creates a generator whose first id is `#0`.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Mints a fresh, never-before-returned id.
    pub fn fresh(&self) -> OpId {
        OpId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for OpIdGen {
    fn clone(&self) -> Self {
        Self {
            next: AtomicU64::new(self.next.load(Ordering::Relaxed)),
        }
    }
}

/// An operation record `⟨m, σ₁, σ₂, id⟩` (paper §3), tagged with the
/// transaction that issued it.
///
/// `M` is the sequential specification's method type (name + arguments) and
/// `R` its return type; see [`SeqSpec`](crate::spec::SeqSpec).
///
/// # Examples
///
/// ```
/// use pushpull_core::op::{Op, OpId, TxnId};
/// let op = Op::new(OpId(0), TxnId(1), "inc", ());
/// assert_eq!(op.method, "inc");
/// assert!(op.same_id(&op));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op<M, R> {
    /// Globally unique identifier (the paper's `id`).
    pub id: OpId,
    /// The transaction instance that created this record.
    pub txn: TxnId,
    /// Method name with arguments (the paper's `m` plus the observable part of σ₁).
    pub method: M,
    /// Observed return value (the observable part of σ₂).
    pub ret: R,
}

impl<M, R> Op<M, R> {
    /// Creates a new operation record.
    pub fn new(id: OpId, txn: TxnId, method: M, ret: R) -> Self {
        Self {
            id,
            txn,
            method,
            ret,
        }
    }

    /// Id-based equality, the lifting the paper uses for log membership.
    pub fn same_id(&self, other: &Op<M, R>) -> bool {
        self.id == other.id
    }
}

impl<M: fmt::Display, R: fmt::Debug> fmt::Display for Op<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}={:?}@{}", self.method, self.id, self.ret, self.txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_fresh_and_increasing() {
        let gen = OpIdGen::new();
        let ids: Vec<OpId> = (0..100).map(|_| gen.fresh()).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn op_id_gen_is_thread_safe() {
        let gen = std::sync::Arc::new(OpIdGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.fresh()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<OpId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate ids minted across threads");
    }

    #[test]
    fn same_id_ignores_payload() {
        let a = Op::new(OpId(7), TxnId(0), "put", 1);
        let b = Op::new(OpId(7), TxnId(9), "get", 2);
        assert!(a.same_id(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn cloned_generator_continues_from_current() {
        let gen = OpIdGen::new();
        gen.fresh();
        gen.fresh();
        let clone = gen.clone();
        assert_eq!(clone.fresh(), OpId(2));
    }

    #[test]
    fn id_hash_spreads_consecutive_ids() {
        use std::hash::BuildHasher;
        // 1024 consecutive ids land in 1024 distinct buckets of a
        // 1024-bucket table, and their 7-bit tags are not all alike.
        let hashes: Vec<u64> = (500..1524).map(|i| IdHash.hash_one(OpId(i))).collect();
        let mut buckets: Vec<u64> = hashes.iter().map(|h| h & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
        let mut tags: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        tags.sort_unstable();
        tags.dedup();
        assert!(tags.len() > 100, "{} distinct tags", tags.len());
        let map: std::collections::HashMap<OpId, u64, IdHash> =
            (0..1000).map(|i| (OpId(i), i)).collect();
        assert!((0..1000).all(|i| map[&OpId(i)] == i));
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(OpId(3).to_string(), "#3");
        assert_eq!(TxnId(4).to_string(), "t4");
        assert_eq!(ThreadId(5).to_string(), "T5");
    }
}
