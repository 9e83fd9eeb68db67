//! The read-once certificate's decision table. A statement is checked and
//! certified once, when its two lineage columns are interned: a root that
//! names a variable with no marginal fails the statement before its first
//! row; otherwise it is certified when every root is read-once and neither
//! a constant nor a negation, no variable is in both columns, and no
//! variable is in two roots of a column a negating pass draws `λs` spans
//! from. Base inputs are certified, and so are derived inputs that meet the
//! conditions; self-joins, shared variables and a spanned derived input
//! whose rows share a variable are not, and take the node path. Either way
//! every row is the tree path's, bits included.

use tpdb_core::{
    tp_intersection, tp_join, tp_union, ThetaCondition, TpJoinKind, TpJoinStream, TpSetOpKind,
};
use tpdb_lineage::{Lineage, ProbabilityEngine, VarId};
use tpdb_storage::{StorageError, TpRelation, TpTuple};
use tree_reference::{bits, tree_join};

mod tree_reference;

const KINDS: [TpJoinKind; 5] = [
    TpJoinKind::Inner,
    TpJoinKind::Anti,
    TpJoinKind::LeftOuter,
    TpJoinKind::RightOuter,
    TpJoinKind::FullOuter,
];

/// The join kinds whose flipped pass negates `r`: a span may draw from it.
const R_SPANNED: [TpJoinKind; 2] = [TpJoinKind::RightOuter, TpJoinKind::FullOuter];

/// The join kinds whose first pass negates `s`.
const S_SPANNED: [TpJoinKind; 3] = [
    TpJoinKind::Anti,
    TpJoinKind::LeftOuter,
    TpJoinKind::FullOuter,
];

/// An engine holding the marginals of the base tuples of `inputs`.
fn engine_over(inputs: &[&TpRelation]) -> ProbabilityEngine {
    let mut engine = ProbabilityEngine::new();
    for input in inputs {
        input.register_probabilities(&mut engine);
    }
    engine
}

/// Runs every join kind with a fresh `engine()`, checks that exactly the
/// kinds in `certified` are certified and, row for row, the tree path's
/// answer and probability bits.
fn assert_joins(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    engine: impl Fn() -> ProbabilityEngine,
    certified: &[TpJoinKind],
) {
    for kind in KINDS {
        let mut streamed_engine = engine();
        let stream = TpJoinStream::with_engine(r, s, theta, kind, &mut streamed_engine).unwrap();
        assert_eq!(stream.is_certified(), certified.contains(&kind), "{kind:?}");
        let streamed = stream.collect_relation();
        let tree = tree_join(r, s, theta, kind, &mut engine());
        assert_eq!(streamed.tuples(), tree, "{kind:?}");
        assert_eq!(bits(streamed.tuples()), bits(&tree), "{kind:?}");
    }
}

/// The join kinds that draw no span from a column in `spanned`.
fn kinds_not_spanning(spanned: &[TpJoinKind]) -> Vec<TpJoinKind> {
    KINDS.into_iter().filter(|k| !spanned.contains(k)).collect()
}

fn meteo() -> (TpRelation, TpRelation, ThetaCondition) {
    let (r, s) = tpdb_datagen::meteo_like(300, 7);
    (r, s, ThetaCondition::column_equals("Metric", "Metric"))
}

/// `rel` under fresh variables (same facts, intervals and marginals).
fn fresh_copy(rel: &TpRelation, name: &str) -> TpRelation {
    let mut out = TpRelation::new(name, rel.schema().clone());
    for t in rel.iter() {
        let var = t.lazy_lineage().as_var().expect("a base relation");
        let lineage = Lineage::var(VarId(var.0 + 1_000_000_000));
        out.push_unchecked(TpTuple::new(
            t.facts().to_vec(),
            lineage,
            t.interval(),
            t.probability(),
        ));
    }
    out
}

#[test]
fn base_relations_are_certified() {
    let (a, b) = tpdb_datagen::booking_example();
    let loc = ThetaCondition::column_equals("Loc", "Loc");
    assert_joins(&a, &b, &loc, || engine_over(&[&a, &b]), &KINDS);
    let (r, s, metric) = meteo();
    assert_joins(&r, &s, &metric, || engine_over(&[&r, &s]), &KINDS);
    let (r, s) = tpdb_datagen::webkit_like(600, 7);
    let key = ThetaCondition::column_equals("Key", "Key");
    assert_joins(&r, &s, &key, || engine_over(&[&r, &s]), &KINDS);
    for kind in [
        TpSetOpKind::Union,
        TpSetOpKind::Intersection,
        TpSetOpKind::Difference,
    ] {
        let (r, s, _) = meteo();
        assert!(TpJoinStream::set_op(&r, &s, kind).unwrap().is_certified());
    }
}

#[test]
fn a_self_join_is_not_certified() {
    let (r, _, metric) = meteo();
    let twin = r.renamed("twin");
    assert_joins(&r, &twin, &metric, || engine_over(&[&r]), &[]);
}

/// A join or union result shares variables between its rows: as an input
/// a negating pass draws spans from, it is not certified; as any other
/// input it is, its compound roots priced at the boundary.
#[test]
fn derived_inputs_are_certified_unless_a_spanned_input_repeats_a_variable() {
    let (r, s, metric) = meteo();
    let t = fresh_copy(&s, "t");
    let engine = || engine_over(&[&r, &s, &t]);
    let joined = tp_join(&r, &s, &metric, TpJoinKind::LeftOuter).unwrap();
    assert_joins(
        &joined,
        &t,
        &metric,
        engine,
        &kinds_not_spanning(&R_SPANNED),
    );
    let union = tp_union(&r, &s).unwrap();
    assert!(union
        .iter()
        .any(|u| u.lazy_lineage().as_var().is_none() && *u.lineage() != Lineage::tru()));
    assert_joins(&union, &t, &metric, engine, &kinds_not_spanning(&R_SPANNED));
    assert_joins(&t, &union, &metric, engine, &kinds_not_spanning(&S_SPANNED));
}

/// `(r ∪ s) − t` and `(r ∩ s) ∪ t` are certified: the union's flipped pass
/// emits no negating window, so `r ∩ s` may repeat a variable.
/// `(r ∪ s) − r` shares `r`'s variables and is not. Either way each row's
/// probability is the node path's price of its lineage (the trees are
/// held to the tree path by the `tpdb-core` unit
/// `derived_inputs_are_priced_as_the_tree_path_bit_for_bit`).
#[test]
fn set_operations_over_derived_inputs_are_certified_when_disjoint() {
    let (r, s, _) = meteo();
    let t = fresh_copy(&s, "t");
    let union = tp_union(&r, &s).unwrap();
    let intersection = tp_intersection(&r, &s).unwrap();
    for (left, right, kind, certified) in [
        (&union, &t, TpSetOpKind::Difference, true),
        (&intersection, &t, TpSetOpKind::Union, true),
        (&union, &r, TpSetOpKind::Difference, false),
    ] {
        let mut engine = engine_over(&[&r, &s, &t]);
        let stream = TpJoinStream::set_op_with_engine(left, right, kind, &mut engine).unwrap();
        assert_eq!(stream.is_certified(), certified, "{kind:?}");
        let rows = stream.collect_relation();
        assert!(!rows.is_empty(), "{kind:?}");
        let mut node_path = engine_over(&[&r, &s, &t]);
        for row in rows.iter() {
            let p = node_path.probability(row.lineage());
            assert_eq!(row.probability().to_bits(), p.to_bits(), "{kind:?} {row}");
        }
    }
}

#[test]
fn an_s_that_reuses_a_variable_of_r_is_not_certified() {
    let (r, s, metric) = meteo();
    let mut shared = TpRelation::new("shared", s.schema().clone());
    for (i, t) in s.iter().enumerate() {
        let (lineage, p) = if i == 0 {
            (r.tuple(0).lineage().clone(), r.tuple(0).probability())
        } else {
            (t.lineage().clone(), t.probability())
        };
        shared.push_unchecked(TpTuple::new(t.facts().to_vec(), lineage, t.interval(), p));
    }
    assert_joins(&r, &shared, &metric, || engine_over(&[&r, &shared]), &[]);
}

/// A statement over an input whose lineages name a variable with no
/// marginal fails when it opens, naming the smallest such variable, on the
/// stream and the materializing paths alike. (The tree reference still
/// panics on such a row, so it is not compared here.)
#[test]
fn a_missing_marginal_is_not_certified_and_fails_as_before() {
    let (r, s, metric) = meteo();
    let smallest = s
        .iter()
        .filter_map(|t| t.lazy_lineage().as_var())
        .min()
        .unwrap();
    let missing = StorageError::MissingMarginal(smallest);
    for kind in [TpJoinKind::LeftOuter, TpJoinKind::FullOuter] {
        let mut engine = engine_over(&[&r]);
        let streamed = TpJoinStream::with_engine(&r, &s, &metric, kind, &mut engine);
        assert_eq!(streamed.err(), Some(missing.clone()), "{kind:?}");
        let mut engine = engine_over(&[&r]);
        let joined = tpdb_core::tp_join_with_engine(&r, &s, &metric, kind, &mut engine);
        assert_eq!(joined, Err(missing.clone()), "{kind:?}");
    }
}
