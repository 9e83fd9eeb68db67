//! Property tests for the binary snapshot format: for random catalogs,
//!
//! 1. `save → load → save` is **byte-identical** (the format is canonical:
//!    a decoded catalog re-encodes to exactly the bytes it came from),
//! 2. a loaded catalog answers every TP join kind and every TP set
//!    operation identically to the pre-save catalog, through both the
//!    one-shot and the prepared session paths,
//! 3. loaded marginals reprice compound lineage formulas exactly
//!    (bit-for-bit), and the rebuilt probability engine still passes the
//!    arena invariants of `verify_arena`.
//!
//! The relation generators reuse the adversarial shapes of the
//! plan-equivalence suite: dense keys, shared endpoints, single-point
//! intervals.

use proptest::prelude::*;
use tpdb::lineage::{Lineage, VarId};
use tpdb::prelude::Session;
use tpdb::storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const JOIN_KEYWORDS: [&str; 5] = ["INNER", "LEFT OUTER", "RIGHT OUTER", "FULL OUTER", "ANTI"];
const SETOP_KEYWORDS: [&str; 3] = ["UNION", "INTERSECT", "EXCEPT"];

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

/// Round-trips `catalog` through the snapshot byte format and returns the
/// reloaded catalog, asserting the canonical-bytes property on the way.
fn reload(catalog: &Catalog) -> Catalog {
    let first = catalog.to_snapshot_bytes().unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot_bytes(&first).unwrap();
    let second = loaded.to_snapshot_bytes().unwrap();
    assert_eq!(first, second, "save → load → save must be byte-identical");
    loaded
}

/// Every query answered by `original` must come back identical from
/// `loaded`, through one-shot and prepared execution.
fn assert_queries_identical(original: Catalog, loaded: Catalog, threshold: i64) {
    let before = Session::new(original);
    let after = Session::new(loaded);
    let mut texts: Vec<String> = JOIN_KEYWORDS
        .iter()
        .map(|kw| format!("SELECT * FROM r TP {kw} JOIN s ON r.k = s.k WHERE k >= $1"))
        .collect();
    texts.extend(
        SETOP_KEYWORDS
            .iter()
            .map(|kw| format!("SELECT * FROM r {kw} SELECT * FROM s WHERE k >= $1")),
    );
    for text in texts {
        let params = [Value::Int(threshold)];
        let one_shot_text = text.replace("$1", &threshold.to_string());
        assert_eq!(
            after.execute(&one_shot_text).unwrap(),
            before.execute(&one_shot_text).unwrap(),
            "one-shot `{one_shot_text}` after reload"
        );
        let stmt_before = before.prepare(&text).unwrap();
        let stmt_after = after.prepare(&text).unwrap();
        assert_eq!(
            stmt_after.execute(&params).unwrap(),
            stmt_before.execute(&params).unwrap(),
            "prepared `{text}` after reload"
        );
    }
}

/// Compound formulas over the variables actually present in the relations;
/// repricing them against the reloaded marginals must be bit-exact.
fn assert_marginals_reprice(original: &Catalog, loaded: &Catalog, r: &TpRelation, s: &TpRelation) {
    let vars: Vec<Lineage> = r
        .iter()
        .chain(s.iter())
        .map(|t| t.lineage().clone())
        .collect();
    if vars.is_empty() {
        return;
    }
    let first = vars[0].clone();
    let compounds = [
        Lineage::and(vars.clone()),
        Lineage::or(vars.clone()),
        Lineage::not(first.clone()),
        Lineage::or(vec![
            Lineage::and(vars.clone()),
            Lineage::not(Lineage::or(vars.clone())),
        ]),
        Lineage::and(vec![first.clone(), Lineage::not(first)]),
    ];
    let mut before = original.probability_engine();
    let mut after = loaded.probability_engine();
    for formula in &compounds {
        let p_before = before.probability(formula);
        let p_after = after.probability(formula);
        assert_eq!(
            p_before.to_bits(),
            p_after.to_bits(),
            "{formula}: {p_before} vs {p_after} after reload"
        );
    }
    assert_eq!(before.verify_arena(), Ok(()));
    assert_eq!(after.verify_arena(), Ok(()));
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
    fn save_load_save_is_byte_identical(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        reload(&catalog_over(&r, &s));
    }

    #[test]
    fn loaded_catalogs_answer_joins_and_setops_identically(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
        threshold in 0i64..3,
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let original = catalog_over(&r, &s);
        let loaded = reload(&original);
        assert_queries_identical(original, loaded, threshold);
    }

    #[test]
    fn loaded_marginals_reprice_compound_lineages_exactly(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let original = catalog_over(&r, &s);
        let loaded = reload(&original);
        assert_marginals_reprice(&original, &loaded, &r, &s);
    }
}

// ---- deterministic regressions -------------------------------------------

/// The file-based API round-trips the paper's booking example, including
/// interned symbol names and string-typed columns.
#[test]
fn file_round_trip_preserves_the_paper_example() {
    let (a, b) = tpdb::datagen::booking_example();
    let mut original = Catalog::new();
    original.register(a).unwrap();
    original.register(b).unwrap();

    let path = std::env::temp_dir().join(format!(
        "tpdb-roundtrip-{}-booking.snap",
        std::process::id()
    ));
    original.save_snapshot(&path).unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.relation_names(), original.relation_names());
    for name in original.relation_names() {
        assert_eq!(
            loaded.relation(&name).unwrap(),
            original.relation(&name).unwrap(),
            "relation `{name}` after file round trip"
        );
    }
    assert_eq!(
        loaded.symbols().len(),
        original.symbols().len(),
        "symbol dictionary survives"
    );
    assert_eq!(
        loaded.to_snapshot_bytes().unwrap(),
        original.to_snapshot_bytes().unwrap()
    );
}

/// An empty catalog round-trips too (no relations, no symbols).
#[test]
fn empty_catalog_round_trips() {
    let original = Catalog::new();
    let loaded = reload(&original);
    assert!(loaded.relation_names().is_empty());
}
