//! Inverse operations — how real systems *implement* UNPUSH.
//!
//! The model's UNPUSH removes an operation from the shared log; §4 notes
//! it is "typically implemented via inverse operations (such as `remove`
//! on an element that had been `added`)", and Figure 2's abort path calls
//! "the appropriate inverse operation". This module provides the inverse
//! oracle for each specification and the law that makes the
//! implementation strategy sound:
//!
//! > applying `op` and then `inverse(op)` denotes the same states as
//! > applying nothing.
//!
//! (That is why removing `op` from the log — what UNPUSH does — and
//! appending the inverse — what the implementation does — agree up to
//! `≼` for logs whose suffix commutes with `op`, i.e. exactly under
//! UNPUSH criterion (i).)
//!
//! Operations whose observation cannot be undone (a `Get` pinning a
//! value) are their own inverses in the trivial sense that they do not
//! change state; operations that *destroy information* (an absolute
//! `Write` over an unknown previous value) have no context-free inverse,
//! which is precisely why word-based STMs keep undo-logs — the inverse
//! is manufactured from the recorded previous value, as
//! [`MemInverse`] shows with `Prev`-carrying
//! rets.

use pushpull_core::op::Op;
use pushpull_core::spec::OpInverse;

use crate::bank::{BankMethod, BankOp, BankRet};
use crate::counter::{CtrMethod, CtrOp, CtrRet};
use crate::kvmap::{MapMethod, MapOp, MapRet};
use crate::rwmem::{MemInverse, MemMethod, UndoOp, UndoRet};
use crate::set::{SetMethod, SetOp, SetRet};

/// A specification whose operations admit inverses.
pub trait Inverses {
    /// Method and return types mirror the spec's.
    type Method;
    /// Return type.
    type Ret;

    /// The method that undoes `op`'s state change, with the expected
    /// observation, or `None` when the operation is read-only (nothing
    /// to undo).
    fn inverse(op: &Op<Self::Method, Self::Ret>) -> Option<(Self::Method, Self::Ret)>;
}

/// Lifts the [`Inverses`] oracle into the core machine's three-way
/// [`OpInverse`] verdict. `Some` becomes [`OpInverse::Inverse`]; `None`
/// becomes [`OpInverse::ReadOnly`], which is sound exactly because every
/// `None` below is a state-preserving operation — a read, a failed
/// update (`add` that was already present, `remove`/`Withdraw` that
/// found nothing), or a no-op (`Add(0)`, `Deposit(_, 0)`).
///
/// Specs with genuinely destructive operations (an absolute `Write`
/// without a recorded previous value) must *not* route through this
/// helper — they override [`pushpull_core::SeqSpec::inverse`] directly
/// to return [`OpInverse::NotInvertible`], as
/// [`RwMem`](crate::rwmem::RwMem) does.
pub fn lift<I>(op: &Op<I::Method, I::Ret>) -> OpInverse<I::Method, I::Ret>
where
    I: Inverses,
{
    match I::inverse(op) {
        Some((m, r)) => OpInverse::Inverse(m, r),
        None => OpInverse::ReadOnly,
    }
}

impl Inverses for crate::set::SetSpec {
    type Method = SetMethod;
    type Ret = SetRet;

    fn inverse(op: &SetOp) -> Option<(SetMethod, SetRet)> {
        match (op.method, op.ret) {
            // add that inserted ⇒ remove it; add that was a no-op ⇒ nothing.
            (SetMethod::Add(x), SetRet(true)) => Some((SetMethod::Remove(x), SetRet(true))),
            (SetMethod::Add(_), SetRet(false)) => None,
            // remove that removed ⇒ add it back.
            (SetMethod::Remove(x), SetRet(true)) => Some((SetMethod::Add(x), SetRet(true))),
            (SetMethod::Remove(_), SetRet(false)) => None,
            (SetMethod::Contains(_), _) => None,
        }
    }
}

impl Inverses for crate::kvmap::KvMap {
    type Method = MapMethod;
    type Ret = MapRet;

    fn inverse(op: &MapOp) -> Option<(MapMethod, MapRet)> {
        match (op.method, op.ret) {
            // The Prev-carrying ret is the undo log entry.
            (MapMethod::Put(k, v), MapRet::Prev(Some(old))) => {
                Some((MapMethod::Put(k, old), MapRet::Prev(Some(v))))
            }
            (MapMethod::Put(k, v), MapRet::Prev(None)) => {
                Some((MapMethod::Remove(k), MapRet::Prev(Some(v))))
            }
            (MapMethod::Remove(k), MapRet::Prev(Some(old))) => {
                Some((MapMethod::Put(k, old), MapRet::Prev(None)))
            }
            (MapMethod::Remove(_), MapRet::Prev(None)) => None,
            _ => None, // reads
        }
    }
}

impl Inverses for crate::counter::Counter {
    type Method = CtrMethod;
    type Ret = CtrRet;

    fn inverse(op: &CtrOp) -> Option<(CtrMethod, CtrRet)> {
        match op.method {
            CtrMethod::Add(0) => None,
            CtrMethod::Add(k) => Some((CtrMethod::Add(-k), CtrRet::Ack)),
            CtrMethod::Get => None,
        }
    }
}

impl Inverses for crate::bank::Bank {
    type Method = BankMethod;
    type Ret = BankRet;

    fn inverse(op: &BankOp) -> Option<(BankMethod, BankRet)> {
        match (op.method, op.ret) {
            (BankMethod::Deposit(a, n), BankRet::Ack) if n > 0 => {
                Some((BankMethod::Withdraw(a, n), BankRet::Ok(true)))
            }
            (BankMethod::Withdraw(a, n), BankRet::Ok(true)) if n > 0 => {
                Some((BankMethod::Deposit(a, n), BankRet::Ack))
            }
            _ => None,
        }
    }
}

impl Inverses for MemInverse {
    type Method = MemMethod;
    type Ret = UndoRet;

    fn inverse(op: &UndoOp) -> Option<(MemMethod, UndoRet)> {
        match (op.method, op.ret) {
            // The recorded previous value *is* the undo-log entry: write
            // it back, observing the value we are undoing.
            (MemMethod::Write(l, v), UndoRet::Prev(p)) => {
                Some((MemMethod::Write(l, p), UndoRet::Prev(v)))
            }
            _ => None, // reads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::op::{OpId, TxnId};
    use pushpull_core::spec::SeqSpec;

    /// The inverse law: `⟦ℓ · op · op⁻¹⟧ = ⟦ℓ⟧` whenever `ℓ · op` is
    /// allowed — checked over the whole bounded state universe by
    /// running from every state. A `None` verdict lifts to
    /// [`OpInverse::ReadOnly`], so it carries its own obligation:
    /// `⟦ℓ · op⟧ = ⟦ℓ⟧` (the operation must be state-preserving).
    fn check_inverse_law<S>(spec: &S, ops: &[Op<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>])
    where
        S: SeqSpec + Inverses<Method = <S as SeqSpec>::Method, Ret = <S as SeqSpec>::Ret>,
    {
        let universe = spec.state_universe().expect("bounded spec");
        for op in ops {
            let inv = <S as Inverses>::inverse(op)
                .map(|(im, ir)| Op::new(OpId(op.id.0 + 1000), TxnId(0), im, ir));
            for s in &universe {
                let start: std::collections::HashSet<_> = std::iter::once(s.clone()).collect();
                let fwd = spec.denote_from(&start, std::slice::from_ref(op));
                if fwd.is_empty() {
                    continue; // op not allowed here
                }
                match &inv {
                    Some(inv) => {
                        let round = spec.denote_from(&fwd, std::slice::from_ref(inv));
                        assert_eq!(
                            round, start,
                            "inverse law fails for {:?}/{:?} from {:?}",
                            op.method, op.ret, s
                        );
                    }
                    None => assert_eq!(
                        fwd, start,
                        "read-only law fails for {:?}/{:?} from {:?}",
                        op.method, op.ret, s
                    ),
                }
            }
        }
    }

    #[test]
    fn set_inverses_satisfy_the_law() {
        use crate::set::{ops as o, SetSpec};
        let spec = SetSpec::bounded(vec![1, 2]);
        let ops = vec![
            o::add(0, 0, 1, true),
            o::add(1, 0, 1, false),
            o::remove(2, 0, 2, true),
            o::remove(3, 0, 2, false),
            o::contains(4, 0, 1, true),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn map_inverses_satisfy_the_law() {
        use crate::kvmap::{ops as o, KvMap};
        let spec = KvMap::bounded(vec![1, 2], vec![10, 20]);
        let ops = vec![
            o::put(0, 0, 1, 10, None),
            o::put(1, 0, 1, 20, Some(10)),
            o::remove(2, 0, 2, Some(20)),
            o::remove(3, 0, 2, None),
            o::get(4, 0, 1, Some(10)),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn counter_inverses_satisfy_the_law() {
        use crate::counter::{ops as o, Counter};
        let spec = Counter::with_universe(5);
        let ops = vec![o::add(0, 0, 2), o::add(1, 0, -3), o::get(2, 0, 1)];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn bank_inverses_satisfy_the_law() {
        use crate::bank::{ops as o, Bank};
        let spec = Bank::bounded(vec![1], 6);
        let ops = vec![
            o::deposit(0, 0, 1, 2),
            o::withdraw(1, 0, 1, 3, true),
            o::balance(2, 0, 1, 4),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn mem_inverse_satisfies_the_law() {
        use crate::rwmem::{ops as o, Loc, MemInverse};
        let spec = MemInverse::bounded(vec![Loc(0), Loc(1)], vec![0, 1, 2]);
        let ops = vec![
            o::undo_write(0, 0, 0, 2, 0),
            o::undo_write(1, 0, 0, 1, 2),
            o::undo_write(2, 0, 1, 0, 1),
            o::undo_read(3, 0, 1, 0),
        ];
        check_inverse_law(&spec, &ops);
    }

    /// The lifted verdicts agree with the core oracle: `Some` lifts to
    /// `Inverse`, `None` to `ReadOnly`, and `RwMem`'s absolute writes —
    /// which destroy the overwritten value — stay `NotInvertible`.
    #[test]
    fn lift_matches_core_verdicts() {
        use pushpull_core::spec::OpInverse;
        {
            use crate::set::{ops as o, SetSpec};
            let spec = SetSpec::new();
            assert_eq!(
                spec.inverse(&o::add(0, 0, 1, true)),
                OpInverse::Inverse(SetMethod::Remove(1), SetRet(true))
            );
            assert_eq!(spec.inverse(&o::add(1, 0, 1, false)), OpInverse::ReadOnly);
            assert!(spec.has_inverses());
        }
        {
            use crate::rwmem::{ops as o, Loc, MemInverse, RwMem};
            let rw = RwMem::new();
            assert_eq!(rw.inverse(&o::read(0, 0, 1, 0)), OpInverse::ReadOnly);
            assert_eq!(rw.inverse(&o::write(1, 0, 1, 5)), OpInverse::NotInvertible);
            assert!(!rw.has_inverses());
            let undo = MemInverse::new();
            assert_eq!(
                undo.inverse(&o::undo_write(2, 0, 1, 5, 3)),
                OpInverse::Inverse(MemMethod::Write(Loc(1), 3), UndoRet::Prev(5))
            );
            assert!(undo.has_inverses());
        }
    }

    /// Figure 2's abort path as the implementation sees it: a boosted put
    /// aborts by applying the inverse put/remove to the base object —
    /// equivalently, removing the op from the log. Both views agree.
    #[test]
    fn unpush_agrees_with_inverse_application() {
        use crate::kvmap::{ops as o, KvMap};
        let spec = KvMap::new();
        // Log with an op to "unpush": [put(1,10,None), put(2,20,None)].
        let with_op = vec![o::put(0, 0, 1, 10, None), o::put(1, 1, 2, 20, None)];
        // View 1 (the model): remove put(2) from the log.
        let unpushed = vec![with_op[0].clone()];
        // View 2 (the implementation): append the inverse of put(2).
        let (im, ir) = <KvMap as Inverses>::inverse(&with_op[1]).unwrap();
        let mut inversed = with_op.clone();
        inversed.push(Op::new(OpId(99), TxnId(1), im, ir));
        use pushpull_core::spec::SeqSpec as _;
        assert_eq!(spec.denote(&unpushed), spec.denote(&inversed));
    }
}
