//! Property tests for the session API: for random queries and data, the
//! three execution paths —
//!
//! 1. one-shot execution (`Session::execute` with the literal inlined in
//!    the text),
//! 2. prepared-then-bound execution (`Session::prepare` + `$1` binding),
//! 3. cursor streaming (a drained [`ResultCursor`]),
//!
//! — produce **identical** `TpRelation`s, for all five TP join kinds. The
//! generators reuse the adversarial shapes of the plan-equivalence suite
//! (dense keys, shared endpoints, single-point intervals).

use proptest::prelude::*;
use tpdb::lineage::{Lineage, VarId};
use tpdb::prelude::Session;
use tpdb::storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const KIND_KEYWORDS: [&str; 5] = ["INNER", "LEFT OUTER", "RIGHT OUTER", "FULL OUTER", "ANTI"];

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

fn catalog_over(r: &TpRelation, s: &TpRelation) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(r.clone()).unwrap();
    catalog.register(s.clone()).unwrap();
    catalog
}

/// Asserts that all execution paths agree for every join kind at the given
/// filter threshold.
fn assert_paths_identical(r: &TpRelation, s: &TpRelation, threshold: i64) {
    let session = Session::new(catalog_over(r, s));

    for kw in KIND_KEYWORDS {
        let literal_text =
            format!("SELECT * FROM r TP {kw} JOIN s ON r.k = s.k WHERE k >= {threshold}");
        let param_text = format!("SELECT * FROM r TP {kw} JOIN s ON r.k = s.k WHERE k >= $1");
        let params = [Value::Int(threshold)];

        // Path 1: one-shot session execution (plan cache; literal text).
        let one_shot = session.execute(&literal_text).unwrap();
        // Path 2: prepared once, bound, executed (twice — re-execution
        // must not change the answer).
        let stmt = session.prepare(&param_text).unwrap();
        let prepared = stmt.execute(&params).unwrap();
        let prepared_again = stmt.execute(&params).unwrap();

        // Path 3a: drained cursor via collect().
        let collected = session
            .query_with(&param_text, &params)
            .unwrap()
            .collect()
            .unwrap();
        // Path 3b: drained cursor via the Iterator, tuple by tuple.
        let mut cursor = stmt.query(&params).unwrap();
        let mut manual = TpRelation::new("result", cursor.schema().clone());
        for t in &mut cursor {
            manual.push_unchecked(t.unwrap());
        }

        assert_eq!(prepared, one_shot, "{kw}: prepared vs one-shot");
        assert_eq!(prepared_again, prepared, "{kw}: prepared re-execution");
        assert_eq!(collected, one_shot, "{kw}: cursor collect vs one-shot");
        assert_eq!(manual, one_shot, "{kw}: manual cursor drain vs one-shot");
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_shot_prepared_and_cursor_paths_are_identical(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
        threshold in 0i64..3,
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        assert_paths_identical(&r, &s, threshold);
    }
}

// ---- deterministic regressions -------------------------------------------

#[test]
fn paths_agree_on_the_paper_example() {
    let (a, b) = tpdb::datagen::booking_example();
    let session = Session::new({
        let mut c = Catalog::new();
        c.register(a.clone()).unwrap();
        c.register(b.clone()).unwrap();
        c
    });
    let literal = session
        .execute("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann'")
        .unwrap();
    let stmt = session
        .prepare("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = $1")
        .unwrap();
    let prepared = stmt.execute(&[Value::str("Ann")]).unwrap();
    let streamed = stmt.query(&[Value::str("Ann")]).unwrap().collect().unwrap();
    assert_eq!(prepared, literal);
    assert_eq!(streamed, literal);
    assert_eq!(literal.len(), 6);
}

#[test]
fn paths_agree_on_empty_inputs() {
    let r = build("r", 0, &[]);
    let s = build("s", 1000, &[(0, 2, 3)]);
    assert_paths_identical(&r, &s, 0);
    assert_paths_identical(&s.renamed("r"), &r.renamed("s"), 0);
}
