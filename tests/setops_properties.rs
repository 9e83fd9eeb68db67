//! Property tests for the query-layer TP set operations: for random
//! union-compatible relations and adversarial data, `UNION` / `INTERSECT`
//! / `EXCEPT` executed through the query layer are **byte-identical** to
//! the core `tp_union` / `tp_intersection` / `tp_difference` functions —
//! through every session path (one-shot text, prepared-then-bound, drained
//! cursor).
//!
//! The generators reuse the adversarial shapes of the plan-equivalence
//! suite (dense keys, shared endpoints, single-point intervals).

use proptest::prelude::*;
use tpdb::core::{tp_difference, tp_intersection, tp_union, TpJoinStream, TpSetOpKind};
use tpdb::lineage::{Lineage, ProbabilityEngine, VarId};
use tpdb::prelude::Session;
use tpdb::storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const KEYWORDS: [(&str, TpSetOpKind); 3] = [
    ("UNION", TpSetOpKind::Union),
    ("INTERSECT", TpSetOpKind::Intersection),
    ("EXCEPT", TpSetOpKind::Difference),
];

/// Builds a duplicate-free single-key relation from raw `(key, start,
/// duration)` rows, skipping rows that would overlap an existing same-key
/// interval (the TP duplicate-free constraint).
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
        let prob = 0.15 + 0.08 * f64::from(var % 10);
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            Lineage::var(VarId(var)),
            interval,
            prob,
        ))
        .unwrap();
        var += 1;
    }
    rel
}

/// The reference result of a set operation computed directly by the core
/// functions.
fn core_reference(kind: TpSetOpKind, r: &TpRelation, s: &TpRelation) -> TpRelation {
    match kind {
        TpSetOpKind::Union => tp_union(r, s).unwrap(),
        TpSetOpKind::Intersection => tp_intersection(r, s).unwrap(),
        TpSetOpKind::Difference => tp_difference(r, s).unwrap(),
    }
}

/// Keeps only the tuples with `k >= threshold` (the manual counterpart of
/// the `WHERE k >= $1` branch filters).
fn filtered(rel: &TpRelation, threshold: i64) -> TpRelation {
    let mut out = TpRelation::new(rel.name(), rel.schema().clone());
    for t in rel.iter() {
        if let Value::Int(k) = t.fact(0) {
            if *k >= threshold {
                out.push_unchecked(t.clone());
            }
        }
    }
    out
}

/// Asserts that every query-layer path produces exactly the core result,
/// for all three set operations.
fn assert_setops_identical(r: &TpRelation, s: &TpRelation, threshold: i64) {
    let mut catalog = Catalog::new();
    catalog.register(r.clone()).unwrap();
    catalog.register(s.clone()).unwrap();
    let session = Session::new(catalog);

    for (kw, kind) in KEYWORDS {
        let reference = core_reference(kind, r, s);
        let plain_text = format!("SELECT * FROM r {kw} SELECT * FROM s");

        // One-shot text, bare and with the (ignored) PARALLEL suffix,
        // which must still parse on a set operation.
        for suffix in ["", " PARALLEL 2"] {
            let result = session.execute(&format!("{plain_text}{suffix}")).unwrap();
            assert_eq!(
                result.tuples(),
                reference.tuples(),
                "{kw}{suffix}: one-shot vs core"
            );
            assert_eq!(result.schema(), reference.schema(), "{kw}{suffix}: schema");
        }

        // Prepared-then-bound: the branches filter on $1; the core
        // reference runs on manually pre-filtered inputs.
        let param_text =
            format!("SELECT * FROM r WHERE k >= $1 {kw} SELECT * FROM s WHERE k >= $1");
        let stmt = session.prepare(&param_text).unwrap();
        let params = [Value::Int(threshold)];
        let bound = stmt.execute(&params).unwrap();
        let bound_again = stmt.execute(&params).unwrap();
        let filtered_reference =
            core_reference(kind, &filtered(r, threshold), &filtered(s, threshold));
        assert_eq!(
            bound.tuples(),
            filtered_reference.tuples(),
            "{kw}: prepared-bound vs core on filtered inputs"
        );
        assert_eq!(bound_again, bound, "{kw}: prepared re-execution");

        // Drained cursors agree with the materializing paths, both via
        // collect() and a manual tuple-by-tuple drain.
        let collected = session.query(&plain_text).unwrap().collect().unwrap();
        assert_eq!(
            collected.tuples(),
            reference.tuples(),
            "{kw}: cursor collect vs core"
        );
        let mut cursor = stmt.query(&params).unwrap();
        let mut manual = Vec::new();
        for t in &mut cursor {
            manual.push(t.unwrap());
        }
        assert_eq!(
            manual,
            filtered_reference.tuples().to_vec(),
            "{kw}: manual cursor drain vs core"
        );
    }
}

/// Dense keys (only 2 distinct values), starts on a small grid (shared
/// endpoints) and durations skewed toward 1 (single-point intervals).
fn adversarial_rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec(
        (
            0i64..2,
            0i64..10,
            prop_oneof![Just(1i64), Just(1i64), Just(1i64), 1i64..5],
        ),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn query_layer_set_operations_match_the_core_functions(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
        threshold in 0i64..3,
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        assert_setops_identical(&r, &s, threshold);
    }
}

// ---- deterministic regressions -------------------------------------------

#[test]
fn set_operations_agree_on_empty_inputs() {
    let r = build("r", 0, &[]);
    let s = build("s", 1000, &[(0, 2, 3), (1, 0, 1)]);
    assert_setops_identical(&r, &s, 0);
    assert_setops_identical(&s.renamed("r"), &r.renamed("s"), 0);
    assert_setops_identical(&r, &r.renamed("s"), 1);
}

#[test]
fn chained_set_operations_compose_like_the_core_functions() {
    // (r ∪ s) ∖ r, left-associatively — exactly what the chained query
    // text produces. The derived intermediates carry compound lineages, so
    // the core reference must price them through an engine preloaded with
    // the base-tuple probabilities of r and s (exactly what the query layer
    // does with the catalog's engine).
    let r = build("r", 0, &[(0, 0, 4), (1, 2, 1), (0, 6, 2)]);
    let s = build("s", 1000, &[(0, 1, 3), (1, 5, 2)]);
    let mut base_engine = ProbabilityEngine::new();
    r.register_probabilities(&mut base_engine);
    s.register_probabilities(&mut base_engine);
    let over_derived = |left: &TpRelation, right: &TpRelation, kind| {
        TpJoinStream::set_op_with_engine(left, right, kind, base_engine.clone())
            .unwrap()
            .collect_relation()
    };

    let mut catalog = Catalog::new();
    catalog.register(r.clone()).unwrap();
    catalog.register(s.clone()).unwrap();
    let session = Session::new(catalog);

    let chained = session
        .execute("SELECT * FROM r UNION SELECT * FROM s EXCEPT SELECT * FROM r")
        .unwrap();
    let union = tp_union(&r, &s).unwrap();
    let reference = over_derived(&union, &r, TpSetOpKind::Difference);
    assert_eq!(chained.tuples(), reference.tuples());

    // parentheses regroup: r ∪ (s ∖ r)
    let grouped = session
        .execute("SELECT * FROM r UNION (SELECT * FROM s EXCEPT SELECT * FROM r)")
        .unwrap();
    let difference = tp_difference(&s, &r).unwrap();
    let reference = over_derived(&r, &difference, TpSetOpKind::Union);
    assert_eq!(grouped.tuples(), reference.tuples());
}
