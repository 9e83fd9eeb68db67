//! Temporal-probabilistic set operations.
//!
//! The generalized lineage-aware temporal windows of this crate were
//! introduced as the TP-join counterpart of the window mechanism the same
//! authors used for *set operations* in temporal-probabilistic databases
//! (Papaioannou, Theobald, Böhlen — ICDE 2018, reference \[1\] of the paper).
//! This module closes the loop and expresses the three TP set operations on
//! union-compatible relations through the join machinery:
//!
//! * **difference** `r ∖ s` — at each time point, the probability that the
//!   fact is true in `r` and not true in `s`: the TP anti join with θ
//!   requiring equality on *all* fact attributes;
//! * **intersection** `r ∩ s` — the fact is true in both: the TP inner join
//!   with the all-attribute equality condition, projected back to `r`'s
//!   schema;
//! * **union** `r ∪ s` — the fact is true in `r` or in `s`: per time point
//!   the lineage `λr ∨ λs`, assembled from the overlapping, unmatched and
//!   negating windows of both sides.
//!
//! All three operations are rows of the operator table
//! ([`crate::optable`]) and execute lazily through the joins' one pass
//! runner, [`TpJoinStream`]: its constructors [`TpJoinStream::set_op`] and
//! [`TpJoinStream::set_op_with_engine`] build the all-attribute equality θ
//! and run the operation's row, and they are the engine behind the query
//! layer's set-operation result cursors. The one-shot functions
//! ([`tp_union`], [`tp_intersection`], [`tp_difference`]) simply drain the
//! stream; nothing is materialized besides the output itself.

use crate::optable::TpOp;
use crate::stream::{registered_engine, TpJoinStream};
use crate::theta::ThetaCondition;
use std::borrow::{Borrow, BorrowMut};
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{Schema, StorageError, TpRelation};

/// Which TP set operation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpSetOpKind {
    /// `r ∪ s` — the fact is true in `r` or in `s`.
    Union,
    /// `r ∩ s` — the fact is true in both relations.
    Intersection,
    /// `r ∖ s` — the fact is true in `r` and not in `s`.
    Difference,
}

impl TpSetOpKind {
    /// The operator symbol used in relation names and plan explanations.
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            TpSetOpKind::Union => "∪",
            TpSetOpKind::Intersection => "∩",
            TpSetOpKind::Difference => "∖",
        }
    }

    /// The SQL keyword of the operation in the query language
    /// (`UNION` / `INTERSECT` / `EXCEPT`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            TpSetOpKind::Union => "UNION",
            TpSetOpKind::Intersection => "INTERSECT",
            TpSetOpKind::Difference => "EXCEPT",
        }
    }
}

impl std::fmt::Display for TpSetOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Checks that two schemas are union-compatible for the positional TP set
/// operations: same arity and, per position, the same value type.
///
/// Column *names* may differ — the set operations are positional, like
/// SQL's bag operations. (The query layer additionally requires matching
/// names so that the output schema is unambiguous.)
///
/// # Errors
///
/// [`StorageError::ArityMismatch`] on differing arity;
/// [`StorageError::UnionIncompatible`] naming the offending column (after
/// the left schema) on a value-type mismatch.
pub fn check_union_compatible(left: &Schema, right: &Schema) -> Result<(), StorageError> {
    if left.arity() != right.arity() {
        return Err(StorageError::ArityMismatch {
            expected: left.arity(),
            got: right.arity(),
        });
    }
    for (lf, rf) in left.fields().iter().zip(right.fields()) {
        if lf.dtype != rf.dtype {
            return Err(StorageError::UnionIncompatible {
                column: lf.name.clone(),
                detail: format!("left is {}, right is {}", lf.dtype, rf.dtype),
            });
        }
    }
    Ok(())
}

/// Builds the θ condition equating every fact attribute of two
/// union-compatible relations, rejecting inputs whose schemas differ in
/// arity or per-position value type (a type mismatch would otherwise slip
/// through to runtime comparison, where `INT 1 = STR '1'` silently never
/// matches).
pub fn all_columns_equal(r: &TpRelation, s: &TpRelation) -> Result<ThetaCondition, StorageError> {
    check_union_compatible(r.schema(), s.schema())?;
    let mut theta = ThetaCondition::always();
    for (rf, sf) in r.schema().fields().iter().zip(s.schema().fields()) {
        theta = theta.and_compare(&rf.name, crate::theta::CompareOp::Eq, &sf.name);
    }
    Ok(theta)
}

/// TP set difference `r ∖Tp s` on union-compatible relations.
///
/// The result contains, per fact and time point, the probability that the
/// fact holds in `r` and does not hold in `s` — i.e. the TP anti join under
/// all-attribute equality. Executes streaming via [`TpJoinStream::set_op`].
pub fn tp_difference(r: &TpRelation, s: &TpRelation) -> Result<TpRelation, StorageError> {
    Ok(TpJoinStream::set_op(r, s, TpSetOpKind::Difference)?.collect_relation())
}

/// TP set intersection `r ∩Tp s` on union-compatible relations: per fact and
/// time point, the probability that the fact holds in both relations.
/// Executes streaming via [`TpJoinStream::set_op`].
pub fn tp_intersection(r: &TpRelation, s: &TpRelation) -> Result<TpRelation, StorageError> {
    Ok(TpJoinStream::set_op(r, s, TpSetOpKind::Intersection)?.collect_relation())
}

/// TP set union `r ∪Tp s` on union-compatible relations: per fact and time
/// point, the probability that the fact holds in `r` **or** in `s`
/// (lineage `λr ∨ λs` where both are valid, and the single-side lineage
/// elsewhere). Executes streaming via [`TpJoinStream::set_op`] — no window list is
/// materialized.
pub fn tp_union(r: &TpRelation, s: &TpRelation) -> Result<TpRelation, StorageError> {
    Ok(TpJoinStream::set_op(r, s, TpSetOpKind::Union)?.collect_relation())
}

/// The set-operation rows of the operator table, run by the one pass
/// runner. Difference and intersection are the TP anti and inner join
/// under the all-attribute equality θ (the intersection keeping `r`'s
/// columns only); the union runs two window passes — `WO → LAWAU → LAWAN`
/// of `r` against `s`, then `WO → LAWAU` of `s` against `r` for the right
/// side's unmatched sub-intervals. Like a join, each pass takes its probe
/// index (on every column) on its first pull — a stored relation's from its
/// memo — so the second pass of a union builds an index only after the
/// first pass is exhausted; everything else is lazy too.
impl<R: Borrow<TpRelation> + Clone> TpJoinStream<R, ProbabilityEngine> {
    /// Creates the stream of a set operation with an owned probability
    /// engine preloaded with the base-tuple probabilities of the two inputs:
    /// an iterator producing the output tuples of [`tp_union`] /
    /// [`tp_intersection`] / [`tp_difference`] one at a time, in the
    /// identical order (the one-shot functions collect it).
    ///
    /// ```
    /// use tpdb_core::{TpJoinStream, TpSetOpKind};
    ///
    /// let (a, b) = tpdb_datagen::booking_example();
    /// let mut stream = TpJoinStream::set_op(&a, &b, TpSetOpKind::Difference).unwrap();
    /// let first = stream.next().unwrap();
    /// assert!((0.0..=1.0).contains(&first.probability()));
    /// // Draining the stream gives exactly `tp_difference(&a, &b)`.
    /// let rest = stream.count();
    /// assert_eq!(1 + rest, tpdb_core::tp_difference(&a, &b).unwrap().len());
    /// ```
    ///
    /// # Errors
    ///
    /// As [`TpJoinStream::set_op_with_engine`].
    pub fn set_op(r: R, s: R, kind: TpSetOpKind) -> Result<Self, StorageError> {
        let engine = registered_engine(r.borrow(), s.borrow());
        Self::set_op_with_engine(r, s, kind, engine)
    }
}

impl<R, E> TpJoinStream<R, E>
where
    R: Borrow<TpRelation> + Clone,
    E: BorrowMut<ProbabilityEngine>,
{
    /// Creates the stream of a set operation with an explicit probability
    /// engine (owned or `&mut`-borrowed). Use this variant when the inputs
    /// are derived relations whose compound lineages reference base tuples
    /// not present in `r`/`s`.
    ///
    /// # Errors
    ///
    /// [`StorageError::ArityMismatch`] / [`StorageError::UnionIncompatible`]
    /// when the inputs are not union-compatible, and
    /// [`StorageError::MissingMarginal`] when a lineage of `r` or `s` names
    /// a variable `engine` has no marginal for.
    pub fn set_op_with_engine(
        r: R,
        s: R,
        kind: TpSetOpKind,
        engine: E,
    ) -> Result<Self, StorageError> {
        let theta = all_columns_equal(r.borrow(), s.borrow())?;
        Self::for_op(r, s, TpOp::SetOp(kind), &theta, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tpdb_lineage::{Lineage, SymbolTable, VarId};
    use tpdb_storage::{DataType, TpTuple, Value};
    use tpdb_temporal::Interval;

    /// Two union-compatible single-column relations:
    /// r: (x, [0,10), 0.8), (y, [2,6), 0.5)
    /// s: (x, [4,8), 0.5), (z, [0,4), 0.9)
    fn fixtures() -> (TpRelation, TpRelation, SymbolTable) {
        let mut syms = SymbolTable::new();
        let mut r = TpRelation::new("r", Schema::tp(&[("k", DataType::Str)]));
        r.push(TpTuple::new(
            vec![Value::str("x")],
            Lineage::var(syms.intern("r1")),
            Interval::new(0, 10),
            0.8,
        ))
        .unwrap();
        r.push(TpTuple::new(
            vec![Value::str("y")],
            Lineage::var(syms.intern("r2")),
            Interval::new(2, 6),
            0.5,
        ))
        .unwrap();
        let mut s = TpRelation::new("s", Schema::tp(&[("k", DataType::Str)]));
        s.push(TpTuple::new(
            vec![Value::str("x")],
            Lineage::var(syms.intern("s1")),
            Interval::new(4, 8),
            0.5,
        ))
        .unwrap();
        s.push(TpTuple::new(
            vec![Value::str("z")],
            Lineage::var(syms.intern("s2")),
            Interval::new(0, 4),
            0.9,
        ))
        .unwrap();
        (r, s, syms)
    }

    #[test]
    fn difference_keeps_r_probability_where_s_is_absent() {
        let (r, s, _) = fixtures();
        let d = tp_difference(&r, &s).unwrap();
        // fact x: unmatched over [0,4) and [8,10) with p = 0.8, negated over
        // [4,8) with p = 0.8 * 0.5 = 0.4; fact y: unmatched over [2,6).
        let probe = |key: &str, t: i64| -> Option<f64> {
            d.iter()
                .find(|tp| tp.fact(0) == &Value::str(key) && tp.valid_at(t))
                .map(|tp| tp.probability())
        };
        assert!((probe("x", 1).unwrap() - 0.8).abs() < 1e-9);
        assert!((probe("x", 5).unwrap() - 0.4).abs() < 1e-9);
        assert!((probe("x", 9).unwrap() - 0.8).abs() < 1e-9);
        assert!((probe("y", 3).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(probe("z", 2), None, "z only exists in s");
    }

    #[test]
    fn intersection_multiplies_probabilities_on_shared_intervals() {
        let (r, s, _) = fixtures();
        let i = tp_intersection(&r, &s).unwrap();
        assert_eq!(i.len(), 1);
        let t = i.tuple(0);
        assert_eq!(t.fact(0), &Value::str("x"));
        assert_eq!(t.interval(), Interval::new(4, 8));
        assert!((t.probability() - 0.4).abs() < 1e-9);
        assert_eq!(i.schema().arity(), 1);
    }

    #[test]
    fn union_covers_every_point_of_both_inputs_with_or_semantics() {
        let (r, s, _) = fixtures();
        let u = tp_union(&r, &s).unwrap();
        // probability of fact x at t=5: P(r1 ∨ s1) = 1 - 0.2*0.5 = 0.9
        let x_at_5 = u
            .iter()
            .find(|t| t.fact(0) == &Value::str("x") && t.valid_at(5))
            .unwrap();
        assert!((x_at_5.probability() - 0.9).abs() < 1e-9);
        // every point of every input tuple is covered
        for (rel, key_col) in [(&r, 0usize), (&s, 0usize)] {
            for tuple in rel.iter() {
                for t in tuple.interval().points() {
                    assert!(
                        u.iter()
                            .any(|o| o.fact(key_col) == tuple.fact(0) && o.valid_at(t)),
                        "point {t} of {:?} not covered by the union",
                        tuple.fact(0)
                    );
                }
            }
        }
        // the union is duplicate-free per fact
        assert!(tpdb_storage::check_duplicate_free(&u).is_empty());
    }

    #[test]
    fn streamed_set_ops_match_the_materialized_union_reference() {
        use crate::tree_reference::{bits, tree_rows, Op};
        let union = |r: &TpRelation, s: &TpRelation| {
            let theta = all_columns_equal(r, s).unwrap();
            let rows = tree_rows(
                Op::SetOp(TpSetOpKind::Union),
                r,
                s,
                &theta,
                &mut registered_engine(r, s),
            );
            let streamed = tp_union(r, s).unwrap();
            assert_eq!(streamed.tuples(), &rows[..]);
            assert_eq!(bits(streamed.tuples()), bits(&rows));
        };
        let (r, s, _) = fixtures();
        union(&r, &s);
        // A larger adversarial sample: the meteo generator produces dense
        // same-key interval sequences with shared endpoints.
        let (mr, ms) = tpdb_datagen::meteo_like(600, 7);
        union(&mr, &ms);
    }

    #[test]
    fn set_op_streams_produce_the_first_tuple_lazily() {
        let (r, s) = tpdb_datagen::meteo_like(2_000, 7);
        for kind in [
            TpSetOpKind::Union,
            TpSetOpKind::Intersection,
            TpSetOpKind::Difference,
        ] {
            let mut stream = TpJoinStream::set_op(&r, &s, kind).unwrap();
            assert!(stream.next().is_some(), "{kind}");
            // Forming the first tuple consumes exactly one window: on this
            // seeded workload the first window of every operation is of a
            // class it emits (skipped classes would count too).
            let consumed_at_first = stream.windows_consumed();
            assert_eq!(consumed_at_first, 1, "{kind}");
            let produced = 1 + stream.by_ref().count();
            assert!(produced > 100, "expected a large {kind}, got {produced}");
            // Draining consumes the rest: orders of magnitude more windows.
            assert!(stream.windows_consumed() >= 100, "{kind}");
        }
    }

    #[test]
    fn set_op_streams_work_with_arc_inputs() {
        let (r, s, _) = fixtures();
        for (kind, reference) in [
            (TpSetOpKind::Union, tp_union(&r, &s).unwrap()),
            (TpSetOpKind::Intersection, tp_intersection(&r, &s).unwrap()),
            (TpSetOpKind::Difference, tp_difference(&r, &s).unwrap()),
        ] {
            let (ar, ars) = (Arc::new(r.clone()), Arc::new(s.clone()));
            let streamed = TpJoinStream::set_op(ar, ars, kind)
                .unwrap()
                .collect_relation();
            assert_eq!(streamed, reference, "kind = {kind:?}");
        }
    }

    #[test]
    fn incompatible_schemas_are_rejected() {
        let (r, _, mut syms) = fixtures();
        let mut wide = TpRelation::new(
            "w",
            Schema::tp(&[("k", DataType::Str), ("extra", DataType::Int)]),
        );
        wide.push(TpTuple::new(
            vec![Value::str("x"), Value::Int(1)],
            Lineage::var(syms.intern("w1")),
            Interval::new(0, 2),
            0.5,
        ))
        .unwrap();
        assert!(tp_difference(&r, &wide).is_err());
        assert!(tp_intersection(&r, &wide).is_err());
        assert!(tp_union(&r, &wide).is_err());
    }

    #[test]
    fn mismatched_value_types_are_rejected_naming_the_column() {
        // Regression guard: arity matches but the value types differ — the
        // old all_columns_equal let this slip through to runtime comparison,
        // where INT 1 = STR '1' silently never matches.
        let (r, _, mut syms) = fixtures();
        let mut numeric = TpRelation::new("n", Schema::tp(&[("k", DataType::Int)]));
        numeric
            .push(TpTuple::new(
                vec![Value::Int(1)],
                Lineage::var(syms.intern("n1")),
                Interval::new(0, 2),
                0.5,
            ))
            .unwrap();
        for result in [
            tp_union(&r, &numeric),
            tp_intersection(&r, &numeric),
            tp_difference(&r, &numeric),
        ] {
            match result {
                Err(StorageError::UnionIncompatible { column, detail }) => {
                    assert_eq!(column, "k");
                    assert!(detail.contains("STR"), "{detail}");
                    assert!(detail.contains("INT"), "{detail}");
                }
                other => panic!("expected UnionIncompatible, got {other:?}"),
            }
        }
    }

    #[test]
    fn difference_with_empty_negative_is_identity() {
        let (r, _, _) = fixtures();
        let empty = TpRelation::new("s", r.schema().clone());
        let d = tp_difference(&r, &empty).unwrap();
        assert_eq!(d.len(), r.len());
        for (a, b) in d.iter().zip(r.iter()) {
            assert_eq!(a.interval(), b.interval());
            assert!((a.probability() - b.probability()).abs() < 1e-12);
        }
    }

    #[test]
    fn set_ops_ignore_probability_of_unrelated_vars() {
        // regression guard: lineage variables from one side must not leak
        // into the other side's unmatched windows
        let (r, s, _) = fixtures();
        let u = tp_union(&r, &s).unwrap();
        let z = u
            .iter()
            .find(|t| t.fact(0) == &Value::str("z"))
            .expect("z survives the union");
        assert_eq!(z.lineage().vars().len(), 1);
        assert!((z.probability() - 0.9).abs() < 1e-9);
        let _ = VarId(0);
    }

    #[test]
    fn stream_names_and_schemas_are_available_before_iteration() {
        let (r, s, _) = fixtures();
        let stream = TpJoinStream::set_op(&r, &s, TpSetOpKind::Union).unwrap();
        assert_eq!(stream.name(), "r∪s");
        assert_eq!(stream.schema().arity(), 1);
        assert_eq!(TpSetOpKind::Union.keyword(), "UNION");
        assert_eq!(TpSetOpKind::Intersection.to_string(), "INTERSECT");
        assert_eq!(TpSetOpKind::Difference.symbol(), "∖");
    }
}
