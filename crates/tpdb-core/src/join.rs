//! Temporal-probabilistic joins with negation (Table II of the paper).
//!
//! Every TP join with negation is the union of window sets — which ones,
//! per operator, is stated once, in the operator table of
//! [`crate::optable`]. An output tuple is formed for each window: the facts
//! and the interval are used in their exact form and the output lineage
//! combines `λr` and `λs` with the window class's lineage-concatenation
//! function (`and` for overlapping, `andNot` for negating, pass-through for
//! unmatched). The output probability is the probability of that lineage
//! under tuple independence.
//!
//! The NJ implementation executes the whole computation as a **streaming
//! pipeline**: the overlap join produces windows one `r`-tuple group at a
//! time ([`OverlapWindowStream`](crate::OverlapWindowStream)), the LAWAU
//! and LAWAN adaptors extend each group in place, and output tuples are
//! formed as the windows come out — no intermediate window vector is ever
//! materialized.

use crate::optable::{LineageFn, PassSpec, TpOp};
use crate::stream::registered_engine;
use crate::theta::ThetaCondition;
use crate::window::{Window, WindowKind, WindowSet};
use std::slice;
use tpdb_lineage::{
    InternedNode, LineageColumn, LineageInterner, LineageRef, ProbabilityEngine, ProbabilityError,
    ReadOnceColumns,
};
use tpdb_storage::{StorageError, TpRelation, TpTuple};

/// Which TP join with negation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpJoinKind {
    /// `r ⋈ s` — pairs of matching, temporally overlapping tuples.
    Inner,
    /// `r ▷ s` — at each time point, the probability that a tuple of `r`
    /// matches *no* tuple of `s`.
    Anti,
    /// `r ⟕ s` — inner join plus the anti-join part of `r`.
    LeftOuter,
    /// `r ⟖ s` — inner join plus the anti-join part of `s`.
    RightOuter,
    /// `r ⟗ s` — inner join plus both anti-join parts.
    FullOuter,
}

impl TpJoinKind {
    /// The operator symbol used in relation names and plan explanations.
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            TpJoinKind::Inner => "⋈",
            TpJoinKind::Anti => "▷",
            TpJoinKind::LeftOuter => "⟕",
            TpJoinKind::RightOuter => "⟖",
            TpJoinKind::FullOuter => "⟗",
        }
    }
}

/// TP inner join `r ⋈_θ s`. Probabilities of base tuples are taken from the
/// input relations themselves.
pub fn tp_inner_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, TpJoinKind::Inner)
}

/// TP anti join `r ▷_θ s`.
pub fn tp_anti_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, TpJoinKind::Anti)
}

/// TP left outer join `r ⟕_θ s` (the query of Fig. 1b).
pub fn tp_left_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, TpJoinKind::LeftOuter)
}

/// TP right outer join `r ⟖_θ s`.
pub fn tp_right_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, TpJoinKind::RightOuter)
}

/// TP full outer join `r ⟗_θ s`.
pub fn tp_full_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, TpJoinKind::FullOuter)
}

/// Computes any TP join with negation, deriving base-tuple probabilities
/// from the atomic lineages of the two inputs.
pub fn tp_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
) -> Result<TpRelation, StorageError> {
    tp_join_with_engine(r, s, theta, kind, &mut registered_engine(r, s))
}

/// [`tp_join`] under its former parallel name: a serial alias that ignores
/// `_parallelism` and is kept for source compatibility. Statements run on
/// the caller's thread whatever degree is asked for.
///
/// ```
/// use tpdb_core::{tp_join, tp_join_parallel, ThetaCondition, TpJoinKind};
///
/// let (a, b) = tpdb_datagen::booking_example();
/// let theta = ThetaCondition::column_equals("Loc", "Loc");
/// let serial = tp_join(&a, &b, &theta, TpJoinKind::LeftOuter).unwrap();
/// let aliased = tp_join_parallel(&a, &b, &theta, TpJoinKind::LeftOuter, 4).unwrap();
/// assert_eq!(aliased, serial);
/// ```
pub fn tp_join_parallel(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    _parallelism: usize,
) -> Result<TpRelation, StorageError> {
    tp_join(r, s, theta, kind)
}

/// Computes any TP join with negation using an explicit probability engine.
/// Use this variant when the inputs are themselves derived relations whose
/// compound lineages reference base tuples not present in `r`/`s`.
///
/// This is the fully streaming NJ join — overlap join → LAWAU → LAWAN →
/// output formation — drained: build [`crate::TpJoinStream`] directly to
/// consume output tuples lazily instead.
pub fn tp_join_with_engine(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    engine: &mut ProbabilityEngine,
) -> Result<TpRelation, StorageError> {
    Ok(crate::TpJoinStream::with_engine(r, s, theta, kind, engine)?.collect_relation())
}

/// Forms the output relation of a TP join from already-computed window sets.
///
/// `left_windows` are windows of `r` with respect to `s`; `right_windows`
/// are windows of `s` with respect to `r` (only consulted by right/full
/// outer joins, and their overlapping windows are ignored because
/// `WO(r;s,θ) = WO(s;r,θ)` is already contained in `left_windows`). Each
/// set carries the span buffer of its negating windows. Tuples are formed
/// exactly as the streaming join forms them, so the NJ implementation and
/// the Temporal Alignment baseline differ only in *how the windows are
/// computed*.
///
/// # Errors
///
/// [`StorageError::MissingMarginal`] when a lineage of `r` or `s` names a
/// variable `engine` has no marginal for.
pub fn assemble_join_result(
    r: &TpRelation,
    s: &TpRelation,
    kind: TpJoinKind,
    left_windows: &WindowSet,
    right_windows: &WindowSet,
    engine: &mut ProbabilityEngine,
) -> Result<TpRelation, StorageError> {
    let op = TpOp::Join(kind);
    let (name, schema) = op.output(r, s);
    let mut out = TpRelation::new(&name, schema);
    let mut formation = Formation::new(op, r, s, engine)?;
    for spec in op.passes() {
        let (windows, pos, neg) = if spec.flipped {
            (right_windows, s, r)
        } else {
            (left_windows, r, s)
        };
        for w in windows.iter() {
            let spans = &windows.spans;
            if let Some(tuple) = formation.form(w, spec, (pos, neg), spans, engine) {
                out.push_unchecked(tuple);
            }
        }
    }
    Ok(out)
}

/// Output formation for one statement: both input lineage columns and the
/// engine's decision whether they make every output root read-once. A
/// stored input's column is its catalog arena's, taken by identity
/// ([`ProbabilityEngine::column`]); a derived input's is interned into the
/// statement's engine. A `Formation` exists only for inputs whose every
/// variable has a marginal, so forming a row never checks one again.
/// Windows carry indices only; a tuple's `λr` is its `r` root, an
/// overlapping window's `λs` its `s` root, and a negating window's `λs` the
/// disjunction of the roots its span lists.
pub(crate) struct Formation {
    /// The roots of `r`'s and `s`'s lineage columns, by tuple index.
    r_col: LineageColumn,
    s_col: LineageColumn,
    /// The engine's proof that every output root is read-once
    /// ([`ProbabilityEngine::certify_columns`]); `None` prices each row as
    /// an arena node.
    pub(crate) certificate: Option<ReadOnceColumns>,
    /// A negating window's `λs` operands (reused across windows).
    operands: Vec<LineageRef>,
}

impl Formation {
    /// Takes the lineage columns of `r` and `s` from `engine` — a stored
    /// relation's from its arena, any other interned — and certifies them
    /// for `op`. A pass that emits negating windows draws `λs` spans from
    /// its negative column. Fails with [`StorageError::MissingMarginal`]
    /// when a lineage of either input names a variable with no marginal in
    /// `engine`.
    pub(crate) fn new(
        op: TpOp,
        r: &TpRelation,
        s: &TpRelation,
        engine: &mut ProbabilityEngine,
    ) -> Result<Self, StorageError> {
        let r_col = engine.column(r, r.tuples().iter().map(TpTuple::lazy_lineage));
        let s_col = engine.column(s, s.tuples().iter().map(TpTuple::lazy_lineage));
        let spanned = |flipped| {
            op.passes().iter().any(|spec| {
                spec.flipped == flipped && spec.lineage_fn(WindowKind::Negating).is_some()
            })
        };
        let certificate = engine
            .certify_columns(&r_col, &s_col, spanned(true), spanned(false))
            .map_err(|ProbabilityError::MissingVariable(var)| StorageError::MissingMarginal(var))?;
        Ok(Self {
            r_col,
            s_col,
            certificate,
            operands: Vec::new(),
        })
    }

    /// Forms the output tuple of `w` under the pass `spec` over `(pos,
    /// neg)` (`None` when the pass does not emit the window's class): the
    /// facts in the pass's layout, the window interval, and the lineage and
    /// probability of `(λr, λs)` under the class's lineage function.
    /// `spans` is the buffer `w`'s span indexes. In a certified statement
    /// the engine concatenates `λr` and `λs` **at the boundary**: it prices
    /// the row without an arena node and hands back a deferred lineage.
    /// Every row of any other statement takes the node path: its root is
    /// interned and priced like any node.
    pub(crate) fn form(
        &mut self,
        w: &Window,
        spec: &PassSpec,
        (pos, neg): (&TpRelation, &TpRelation),
        spans: &[u32],
        engine: &mut ProbabilityEngine,
    ) -> Option<TpTuple> {
        let lineage_fn = spec.lineage_fn(w.kind)?;
        let (pos_col, neg_col) = if spec.flipped {
            (&self.s_col, &self.r_col)
        } else {
            (&self.r_col, &self.s_col)
        };
        let lr = pos_col[w.r_idx];
        let (lineage, probability) = match (lineage_fn, &self.certificate) {
            (LineageFn::Pos, Some(proof)) => engine.certified_output(proof, lr),
            (LineageFn::Pos, None) => engine.output(lr),
            (LineageFn::Concat(how), certificate) => {
                let ops = &mut self.operands;
                let lambda_s = lambda_s(w, neg_col, spans, engine.interner(), ops);
                match certificate {
                    Some(proof) => engine.certified_concat(proof, how, lr, lambda_s),
                    None => engine.concat_output(how, lr, lambda_s),
                }
            }
        };
        let facts = spec.layout.facts(
            pos.tuple(w.r_idx).facts(),
            w.s_idx.map(|si| neg.tuple(si).facts()),
            neg.schema().arity(),
        );
        Some(TpTuple::with_lazy_lineage(
            facts,
            lineage,
            w.interval,
            probability,
        ))
    }
}

/// The operands of `w`'s `λs`: an overlapping window's `s` root, or the
/// roots a negating window's span lists, each `Or` root flattened into its
/// disjuncts (written to `operands`), in span order.
fn lambda_s<'a>(
    w: &Window,
    neg_col: &'a [LineageRef],
    spans: &[u32],
    interner: &LineageInterner,
    operands: &'a mut Vec<LineageRef>,
) -> &'a [LineageRef] {
    if let Some(si) = w.s_idx {
        return slice::from_ref(&neg_col[si]);
    }
    operands.clear();
    for &si in w.span.of(spans) {
        let root = neg_col[si as usize];
        match interner.node(root) {
            InternedNode::Or(disjuncts) => operands.extend_from_slice(disjuncts),
            _ => operands.push(root),
        }
    }
    operands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::booking_relations;
    use tpdb_storage::Value;
    use tpdb_temporal::Interval;

    fn theta() -> ThetaCondition {
        ThetaCondition::column_equals("Loc", "Loc")
    }

    /// Finds the output tuple with the given interval and first fact value.
    fn find<'a>(rel: &'a TpRelation, name: &str, iv: Interval) -> Option<&'a TpTuple> {
        rel.iter()
            .find(|t| t.fact(0) == &Value::str(name) && t.interval() == iv)
    }

    #[test]
    fn left_outer_join_reproduces_fig_1b() {
        let (a, b, _) = booking_relations();
        let q = tp_left_outer_join(&a, &b, &theta()).unwrap();
        assert_eq!(q.len(), 7, "{q}");

        // ('Ann, ZAK, -', a1, [2,4), 0.70)
        let t = find(&q, "Ann", Interval::new(2, 4)).unwrap();
        assert!(t.fact(2).is_null());
        assert!((t.probability() - 0.70).abs() < 1e-9);

        // ('Ann, ZAK, hotel1', a1 ∧ b3, [4,6), 0.49)
        let t = find(&q, "Ann", Interval::new(4, 6)).unwrap();
        assert_eq!(t.fact(2), &Value::str("hotel1"));
        assert!((t.probability() - 0.49).abs() < 1e-9);

        // ('Ann, ZAK, hotel2', a1 ∧ b2, [5,8), 0.42)
        let t = q
            .iter()
            .find(|t| t.fact(2) == &Value::str("hotel2"))
            .unwrap();
        assert_eq!(t.interval(), Interval::new(5, 8));
        assert!((t.probability() - 0.42).abs() < 1e-9);

        // ('Ann, ZAK, -', a1 ∧ ¬b3, [4,5), 0.21)
        let t = find(&q, "Ann", Interval::new(4, 5)).unwrap();
        assert!(t.fact(2).is_null());
        assert!((t.probability() - 0.21).abs() < 1e-9);

        // ('Ann, ZAK, -', a1 ∧ ¬(b3 ∨ b2), [5,6), 0.084)
        let t = find(&q, "Ann", Interval::new(5, 6)).unwrap();
        assert!(t.fact(2).is_null());
        assert!((t.probability() - 0.084).abs() < 1e-9);

        // ('Ann, ZAK, -', a1 ∧ ¬b2, [6,8), 0.28)
        let t = find(&q, "Ann", Interval::new(6, 8)).unwrap();
        assert!(t.fact(2).is_null());
        assert!((t.probability() - 0.28).abs() < 1e-9);

        // ('Jim, WEN, -', a2, [7,10), 0.80)
        let t = find(&q, "Jim", Interval::new(7, 10)).unwrap();
        assert!(t.fact(2).is_null());
        assert!((t.probability() - 0.80).abs() < 1e-9);
    }

    #[test]
    fn assembly_from_materialized_windows_equals_the_streaming_join() {
        // One output formation: assembling the materialized window sets
        // reproduces the streaming join for every operator.
        use crate::{lawan, lawau, overlapping_windows};
        let (a, b, _) = booking_relations();
        let left = lawan(&lawau(&overlapping_windows(&a, &b, &theta()).unwrap(), &a));
        let right = lawan(&lawau(
            &overlapping_windows(&b, &a, &theta().flipped()).unwrap(),
            &b,
        ));
        for kind in [
            TpJoinKind::Inner,
            TpJoinKind::Anti,
            TpJoinKind::LeftOuter,
            TpJoinKind::RightOuter,
            TpJoinKind::FullOuter,
        ] {
            let mut engine = registered_engine(&a, &b);
            let assembled = assemble_join_result(&a, &b, kind, &left, &right, &mut engine).unwrap();
            assert_eq!(
                assembled,
                tp_join(&a, &b, &theta(), kind).unwrap(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn inner_join_keeps_only_overlapping_windows() {
        let (a, b, _) = booking_relations();
        let q = tp_inner_join(&a, &b, &theta()).unwrap();
        assert_eq!(q.len(), 2);
        assert!(q.iter().all(|t| !t.fact(2).is_null()));
        let probs: Vec<f64> = q
            .iter()
            .map(|t| (t.probability() * 100.0).round() / 100.0)
            .collect();
        assert!(probs.contains(&0.49));
        assert!(probs.contains(&0.42));
    }

    #[test]
    fn anti_join_has_r_schema_and_negated_probabilities() {
        let (a, b, _) = booking_relations();
        let q = tp_anti_join(&a, &b, &theta()).unwrap();
        // Output columns: only those of a.
        assert_eq!(q.schema().arity(), 2);
        // Five tuples: [2,4), [4,5), [5,6), [6,8) for Ann and [7,10) for Jim.
        assert_eq!(q.len(), 5);
        let t = q
            .iter()
            .find(|t| t.interval() == Interval::new(5, 6))
            .unwrap();
        assert!((t.probability() - 0.084).abs() < 1e-9);
        let t = q
            .iter()
            .find(|t| t.interval() == Interval::new(7, 10))
            .unwrap();
        assert!((t.probability() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn right_outer_join_pads_left_columns() {
        let (a, b, _) = booking_relations();
        let q = tp_right_outer_join(&a, &b, &theta()).unwrap();
        // Inner part: 2 tuples. Right null-extension: hotel3 (SOR) matches
        // nothing -> unmatched [1,4); hotel2 and hotel1 have negating and
        // unmatched windows with respect to a.
        assert!(q.len() > 2);
        // every inner tuple has both sides set
        let inner: Vec<&TpTuple> = q
            .iter()
            .filter(|t| !t.fact(0).is_null() && !t.fact(2).is_null())
            .collect();
        assert_eq!(inner.len(), 2);
        // hotel3 is never matched: a padded tuple over [1,4) must exist
        let sor = q
            .iter()
            .find(|t| t.fact(2) == &Value::str("hotel3"))
            .unwrap();
        assert!(sor.fact(0).is_null());
        assert_eq!(sor.interval(), Interval::new(1, 4));
        assert!((sor.probability() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn full_outer_join_contains_left_and_right_extensions() {
        let (a, b, _) = booking_relations();
        let left = tp_left_outer_join(&a, &b, &theta()).unwrap();
        let right = tp_right_outer_join(&a, &b, &theta()).unwrap();
        let full = tp_full_outer_join(&a, &b, &theta()).unwrap();
        // |full| = |left| + |right| - |inner| (inner tuples appear once)
        let inner = tp_inner_join(&a, &b, &theta()).unwrap();
        assert_eq!(full.len(), left.len() + right.len() - inner.len());
    }

    #[test]
    fn join_name_and_schema_prefixing() {
        let (a, b, _) = booking_relations();
        let q = tp_left_outer_join(&a, &b, &theta()).unwrap();
        assert_eq!(q.name(), "a⟕b");
        // colliding column Loc from b is prefixed
        assert!(q.schema().index_of("b_Loc").is_some());
        assert_eq!(q.schema().arity(), 4);
    }

    #[test]
    fn probabilities_never_exceed_input_probability() {
        let (a, b, _) = booking_relations();
        let q = tp_left_outer_join(&a, &b, &theta()).unwrap();
        for t in q.iter() {
            assert!(t.probability() <= 0.8 + 1e-12);
            assert!(t.probability() >= 0.0);
        }
    }

    #[test]
    fn self_join_with_shared_lineage_is_exact() {
        // Joining a relation with itself produces lineages like a1 ∧ a1 and
        // a1 ∧ ¬a1 — the probability engine must handle the correlation.
        let (a, _, _) = booking_relations();
        let q = tp_left_outer_join(&a, &a.renamed("a2"), &theta()).unwrap();
        for t in q.iter() {
            assert!((0.0..=1.0).contains(&t.probability()));
        }
        // the overlapping self-pair (Ann ⋈ Ann over [2,8)) has probability
        // P(a1 ∧ a1) = P(a1) = 0.7
        let t = q
            .iter()
            .find(|t| !t.fact(2).is_null() && t.fact(0) == &Value::str("Ann"))
            .unwrap();
        assert!((t.probability() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let (a, b, _) = booking_relations();
        let empty_a = TpRelation::new("a", a.schema().clone());
        let empty_b = TpRelation::new("b", b.schema().clone());
        assert_eq!(tp_left_outer_join(&empty_a, &b, &theta()).unwrap().len(), 0);
        let left_only = tp_left_outer_join(&a, &empty_b, &theta()).unwrap();
        // every a tuple survives unmatched with its own probability
        assert_eq!(left_only.len(), a.len());
        for (t, orig) in left_only.iter().zip(a.iter()) {
            assert_eq!(t.interval(), orig.interval());
            assert!((t.probability() - orig.probability()).abs() < 1e-12);
        }
        assert_eq!(tp_anti_join(&a, &empty_b, &theta()).unwrap().len(), a.len());
        assert_eq!(tp_inner_join(&a, &empty_b, &theta()).unwrap().len(), 0);
    }

    #[test]
    fn unknown_theta_column_is_an_error() {
        let (a, b, _) = booking_relations();
        let bad = ThetaCondition::column_equals("Nope", "Loc");
        assert!(tp_left_outer_join(&a, &b, &bad).is_err());
    }
}
