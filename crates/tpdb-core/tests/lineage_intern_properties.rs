//! Property tests of the interned lineage layer: the hash-consed arena must
//! be an *invisible* representation change. Interned probabilities agree
//! with exact enumeration over the legacy trees, and the interned streaming
//! join/set-op pipelines produce byte-identical relations to the tree
//! reference (`tree_reference`) — for every join kind. An engine over a
//! sealed segment is the flat engine under another numbering.

use proptest::prelude::*;
use std::sync::Arc;
use tpdb_core::{
    all_columns_equal, lawan, lawau, overlapping_windows, tp_join, tp_join_with_engine, tp_union,
    ThetaCondition, TpJoinKind, TpJoinStream, TpSetOpKind,
};
use tpdb_lineage::{
    LazyLineage, Lineage, LineageInterner, LineageStack, MarginalMap, ProbabilityEngine, VarId,
};
use tpdb_storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::Interval;
use tree_reference::{bits, tree_join, tree_rows, Op};

mod tree_reference;

const ALL_KINDS: [TpJoinKind; 5] = [
    TpJoinKind::Inner,
    TpJoinKind::LeftOuter,
    TpJoinKind::RightOuter,
    TpJoinKind::FullOuter,
    TpJoinKind::Anti,
];

/// A deterministic, var-dependent marginal probability in (0, 1).
fn prob_of(var: u32) -> f64 {
    0.15 + 0.07 * f64::from(var % 11)
}

/// Builds a duplicate-free single-key relation from raw rows, skipping rows
/// that would overlap an existing same-key interval (same construction as
/// `window_properties.rs`, but with distinct per-tuple probabilities so
/// probability mistakes cannot hide behind symmetry).
fn build(name: &str, var_offset: u32, rows: &[(i64, i64, i64)]) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    let mut var = var_offset;
    for (key, start, duration) in rows {
        let interval = Interval::new(*start, *start + *duration);
        if rel
            .iter()
            .any(|t| t.fact(0) == &Value::Int(*key) && t.interval().overlaps(&interval))
        {
            continue;
        }
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            Lineage::var(VarId(var)),
            interval,
            prob_of(var),
        ))
        .unwrap();
        var += 1;
    }
    rel
}

fn rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..40, 1i64..10), 1..15)
}

/// The tree reference join under `k = k`, over base relations.
fn legacy_join(r: &TpRelation, s: &TpRelation, kind: TpJoinKind) -> Vec<TpTuple> {
    legacy_join_with_engine(r, s, kind, &mut engine_over(&[r, s]))
}

/// A fresh engine holding the marginals of the base tuples of `inputs`.
fn engine_over(inputs: &[&TpRelation]) -> ProbabilityEngine {
    let mut engine = ProbabilityEngine::new();
    for input in inputs {
        input.register_probabilities(&mut engine);
    }
    engine
}

/// [`legacy_join`] over inputs whose lineages may be derived: `engine`
/// supplies the marginals.
fn legacy_join_with_engine(
    r: &TpRelation,
    s: &TpRelation,
    kind: TpJoinKind,
    engine: &mut ProbabilityEngine,
) -> Vec<TpTuple> {
    tree_join(r, s, &ThetaCondition::column_equals("k", "k"), kind, engine)
}

/// A random lineage formula over the variables `0..8` (small enough that
/// exact enumeration over all 2^8 assignments stays cheap).
fn formula() -> impl Strategy<Value = Lineage> {
    // Constants are rare leaves: a 0..10 draw picks a variable 8 times in 10.
    let leaf = (0u32..10).prop_map(|v| match v {
        8 => Lineage::tru(),
        9 => Lineage::fls(),
        v => Lineage::var(VarId(v)),
    });
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Lineage::not),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Lineage::and),
            proptest::collection::vec(inner, 1..4).prop_map(Lineage::or),
        ]
    })
}

fn engine_over_formula_vars() -> ProbabilityEngine {
    let mut engine = ProbabilityEngine::new();
    engine.set_all((0..8).map(|v| (VarId(v), prob_of(v))));
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The id-keyed memo path computes the same probability as exact
    /// enumeration over the legacy tree (the representation-independent
    /// ground truth).
    #[test]
    fn interned_probability_matches_enumeration(f in formula()) {
        let mut engine = engine_over_formula_vars();
        let exact = engine.probability_by_enumeration(&f).unwrap();
        let interned = engine.probability(&f);
        prop_assert!(
            (interned - exact).abs() < 1e-9,
            "interned {} vs enumerated {} for {:?}",
            interned,
            exact,
            f
        );
        // Asking through the ref-keyed API is the same computation.
        let r = engine.intern(&f);
        prop_assert_eq!(interned.to_bits(), engine.probability_ref(r).to_bits());
        // The engine's arena and memo invariants survive the computation.
        prop_assert_eq!(engine.verify_arena(), Ok(()));
    }

    /// Hash-consing: interning a structurally equal tree twice yields the
    /// same id and allocates nothing new, and the tree ↔ ref round trip is
    /// stable.
    #[test]
    fn interning_is_idempotent_and_round_trips(f in formula()) {
        let mut interner = LineageInterner::new();
        let a = interner.intern(&f);
        let len = interner.len();
        prop_assert_eq!(a, interner.intern(&f.clone()));
        prop_assert_eq!(interner.len(), len);
        let round_tripped = interner.to_lineage(a);
        prop_assert_eq!(a, interner.intern(&round_tripped));
        prop_assert_eq!(interner.len(), len);
        // No dangling refs, canonical normal forms, consistent cons table.
        prop_assert_eq!(interner.verify_arena(), Ok(()));
    }

    /// The arena invariants hold through Shannon conditioning — the one
    /// operation that rewrites formulas instead of only composing them
    /// (every cofactor is re-normalized through the interned constructors).
    #[test]
    fn arena_invariants_hold_under_conditioning(f in formula()) {
        let mut engine = engine_over_formula_vars();
        let root = engine.intern(&f);
        let _ = engine.probability_ref(root);
        let interner = engine.interner_mut();
        for v in 0..8 {
            let t = interner.condition(root, VarId(v), true);
            let e = interner.condition(root, VarId(v), false);
            // Cofactors are valid refs into the same arena.
            prop_assert!(t.index() < interner.len());
            prop_assert!(e.index() < interner.len());
        }
        prop_assert_eq!(engine.verify_arena(), Ok(()));
    }

    /// An engine over a sealed segment prices as a flat engine: formulas
    /// interned partly into the frozen base and partly into the statement's
    /// overlay get one id per structure across the two (a frozen formula
    /// interns no new node), price to the flat engine's bits with as many
    /// Shannon expansions, keep the arena invariants, and a `set` that
    /// changes a frozen variable's marginal re-prices as on the flat engine.
    #[test]
    fn an_overlay_on_a_frozen_arena_prices_as_a_flat_engine(
        frozen in proptest::collection::vec(formula(), 1..6),
        overlay in proptest::collection::vec(formula(), 1..6),
        var in 0u32..8,
        p in 0.0f64..=1.0,
    ) {
        let marginals: MarginalMap = (0..8).map(|v| (VarId(v), prob_of(v))).collect();
        let column: Vec<LazyLineage> = frozen.iter().cloned().map(LazyLineage::from).collect();
        let stack = LineageStack::empty().push(&Arc::new(()), column.iter(), &marginals);
        let mut stacked = ProbabilityEngine::over(stack, Arc::new(marginals));
        let mut flat = engine_over_formula_vars();
        let formulas: Vec<&Lineage> = frozen.iter().chain(&overlay).collect();
        let frozen_len = stacked.interner().len();
        for f in &frozen {
            stacked.intern(f);
        }
        prop_assert_eq!(stacked.interner().len(), frozen_len);
        let ids = |e: &mut ProbabilityEngine| formulas.iter().map(|f| e.intern(f)).collect::<Vec<_>>();
        let (stacked_ids, flat_ids) = (ids(&mut stacked), ids(&mut flat));
        for i in 0..formulas.len() {
            for j in 0..i {
                prop_assert_eq!(
                    stacked_ids[i] == stacked_ids[j],
                    flat_ids[i] == flat_ids[j],
                    "{} / {}", formulas[i], formulas[j]
                );
            }
        }
        for round in 0..2 {
            for (&a, &b) in stacked_ids.iter().zip(&flat_ids) {
                let (got, want) = (stacked.probability_ref(a), flat.probability_ref(b));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "round {}: {} vs {}", round, got, want);
            }
            prop_assert_eq!(stacked.expansions(), flat.expansions());
            prop_assert_eq!(stacked.verify_arena(), Ok(()));
            stacked.set(VarId(var), p);
            flat.set(VarId(var), p);
        }
    }

    /// The interned streaming join equals the tree reference's join byte for
    /// byte — facts, intervals, lineage trees and probabilities — for all
    /// five join kinds.
    #[test]
    fn interned_join_matches_legacy_tree_join(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let theta = ThetaCondition::column_equals("k", "k");
        for kind in ALL_KINDS {
            let interned = tp_join(&r, &s, &theta, kind).unwrap();
            let legacy = legacy_join(&r, &s, kind);
            prop_assert_eq!(interned.tuples(), &legacy[..], "kind {:?}", kind);
        }
        // A left outer join emits every window as one tuple, in window
        // order. The negative side is a union, whose `Or` lineages recur
        // across its tuples: formation flattens each span's roots.
        let t = build("t", 2000, &rr);
        let u = tp_union(&s, &t).unwrap();
        let mut engine = engine_over(&[&r, &s, &t]);
        let streamed = tp_join_with_engine(&r, &u, &theta, TpJoinKind::LeftOuter, &mut engine).unwrap();
        let wuon = lawan(&lawau(&overlapping_windows(&r, &u, &theta).unwrap(), &r));
        prop_assert_eq!(streamed.len(), wuon.len());
        for (tuple, w) in streamed.iter().zip(wuon.iter()) {
            prop_assert_eq!(tuple.interval(), w.interval);
        }
        for kind in ALL_KINDS {
            let interned = tp_join_with_engine(&r, &u, &theta, kind, &mut engine).unwrap();
            let legacy = legacy_join_with_engine(&r, &u, kind, &mut engine_over(&[&r, &s, &t]));
            prop_assert_eq!(interned.tuples(), &legacy[..], "derived negative side, kind {:?}", kind);
        }
    }

    /// A negative side with duplicate contributors — the tuples of `r ∪ s`
    /// followed by those of `s` (as in `window_properties.rs`) — takes both
    /// branches of output formation over `λs` spans: read-once roots priced
    /// from the operands, and roots that share an `r` variable with their
    /// disjunction, which is interned. Each is the node path's answer: the
    /// legacy tree join interns every root. Probabilities compare by bits.
    #[test]
    fn span_joins_over_duplicate_contributors_match_the_node_path(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let mut derived = tp_union(&r, &s).unwrap();
        s.iter().for_each(|t| derived.push_unchecked(t.clone()));
        // Constant contributors: ⊤ absorbs an active set, ⊥ adds nothing.
        if let Some(t) = s.iter().next() {
            for constant in [Lineage::tru(), Lineage::fls()] {
                let facts = t.facts().to_vec();
                derived.push_unchecked(TpTuple::new(facts, constant, t.interval(), 0.5));
            }
        }
        let theta = ThetaCondition::column_equals("k", "k");
        for kind in ALL_KINDS {
            let spans = tp_join_with_engine(&r, &derived, &theta, kind, &mut engine_over(&[&r, &s]))
                .unwrap();
            let nodes = legacy_join_with_engine(&r, &derived, kind, &mut engine_over(&[&r, &s]));
            prop_assert_eq!(spans.tuples(), &nodes[..], "kind {:?}", kind);
            prop_assert_eq!(bits(spans.tuples()), bits(&nodes), "kind {:?}", kind);
        }
    }

    /// The interned streaming TP union equals the union the tree reference
    /// materializes (building `Lineage::or2` trees directly) tuple for
    /// tuple, probability bits included.
    #[test]
    fn interned_union_matches_materializing_union(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let streamed = tp_union(&r, &s).unwrap();
        let theta = all_columns_equal(&r, &s).unwrap();
        let union = Op::SetOp(TpSetOpKind::Union);
        let materialized = tree_rows(union, &r, &s, &theta, &mut engine_over(&[&r, &s]));
        prop_assert_eq!(streamed.tuples(), &materialized[..]);
        prop_assert_eq!(bits(streamed.tuples()), bits(&materialized));
    }

    /// Every output tuple of every interned join carries the probability of
    /// its own lineage tree, verified by exact enumeration.
    #[test]
    fn output_probabilities_match_enumeration(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let theta = ThetaCondition::column_equals("k", "k");
        let mut engine = ProbabilityEngine::new();
        r.register_probabilities(&mut engine);
        s.register_probabilities(&mut engine);
        for kind in ALL_KINDS {
            let out = tp_join(&r, &s, &theta, kind).unwrap();
            for t in out.iter() {
                let exact = engine.probability_by_enumeration(t.lineage()).unwrap();
                prop_assert!(
                    (t.probability() - exact).abs() < 1e-9,
                    "kind {:?}: tuple probability {} vs enumerated {}",
                    kind,
                    t.probability(),
                    exact
                );
            }
        }
    }
}

/// Output roots, `λs` disjunctions and their negations are formed at the
/// boundary: a certified join over base relations interns its two lineage
/// columns — the two constants and one `Var` per input tuple — and nothing
/// else: no node per output row, per negating window or per negated `s`.
#[test]
fn the_arena_does_not_grow_per_output_row() {
    let (r, s) = tpdb_datagen::meteo_like(300, 7);
    let theta = ThetaCondition::column_equals("Metric", "Metric");
    let mut engine = engine_over(&[&r, &s]);
    let out = tp_join_with_engine(&r, &s, &theta, TpJoinKind::LeftOuter, &mut engine).unwrap();
    let negating = lawan(&lawau(&overlapping_windows(&r, &s, &theta).unwrap(), &r))
        .iter()
        .filter(|w| w.is_negating())
        .count();
    assert!(negating > 100, "the workload must exercise LAWAN");
    assert!(out.len() > negating);
    assert_eq!(
        engine.interner().len(),
        2 + r.len() + s.len(),
        "{} + {} inputs and {negating} negating windows",
        r.len(),
        s.len()
    );
    assert_eq!(engine.expansions(), 0);
    assert_eq!(engine.verify_arena(), Ok(()));
}

/// The same on the selective workload, where most negating windows negate a
/// single `s` tuple: a full outer join over `webkit_like(12000, 64)` — both
/// passes, ≈ 82 000 rows — interns its 24 000 input lineages and nothing
/// else (once it took a `Not` node per distinct negated `s`, 45 860 nodes).
#[test]
fn a_certified_full_join_interns_only_its_input_columns() {
    let (r, s) = tpdb_datagen::webkit_like(12_000, 64);
    let theta = ThetaCondition::column_equals("Key", "Key");
    let mut engine = engine_over(&[&r, &s]);
    let out = tp_join_with_engine(&r, &s, &theta, TpJoinKind::FullOuter, &mut engine).unwrap();
    assert!(out.len() > 3 * (r.len() + s.len()), "{} rows", out.len());
    assert_eq!(engine.interner().len(), 2 + r.len() + s.len());
    assert_eq!(engine.expansions(), 0);
}

/// … while roots that share variables still take the node path: every row
/// of `(r ∪ s) − r` mentions an `r` variable on both sides of the negation,
/// so its root is interned. Each such root holds a literal that shares its
/// variable with a sibling (`(x_r ∨ x_s) ∧ ¬x_r`, `x_r ∧ ¬x_r`), and unit
/// propagation prices it with no Shannon expansion.
#[test]
fn correlated_roots_are_still_interned_and_expanded() {
    let (r, s) = tpdb_datagen::meteo_like(300, 7);
    let mut engine = engine_over(&[&r, &s]);
    let union = TpJoinStream::set_op_with_engine(&r, &s, TpSetOpKind::Union, &mut engine)
        .unwrap()
        .collect_relation();
    assert_eq!(
        engine.expansions(),
        0,
        "a union of base relations is read-once"
    );
    let before = engine.interner().len();
    let chain = TpJoinStream::set_op_with_engine(&union, &r, TpSetOpKind::Difference, &mut engine)
        .unwrap()
        .collect_relation();
    assert_eq!(engine.expansions(), 0);
    assert!(
        engine.interner().len() >= before + chain.len(),
        "every correlated root is a node"
    );
    assert_eq!(engine.verify_arena(), Ok(()));
}
