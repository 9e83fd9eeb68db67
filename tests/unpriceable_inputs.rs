//! An input whose lineage names a variable with no marginal probability
//! cannot be priced. A snapshot carries such a relation without complaint,
//! so every statement that prices rows over it fails when it opens, with a
//! typed storage error naming the smallest such variable — under NJ and TA
//! alike, for joins and set operations. It neither panics nor returns rows,
//! and a plain scan of the relation still answers.

use tpdb::lineage::{Lineage, VarId};
use tpdb::query::{Session, TpdbError};
use tpdb::storage::{Catalog, DataType, Schema, StorageError, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

fn keyed(name: &str, rows: &[(i64, Lineage, Interval, f64)]) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    for (key, lineage, interval, p) in rows {
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            lineage.clone(),
            *interval,
            *p,
        ))
        .unwrap();
    }
    rel
}

/// `r` holds one tuple with lineage `x1 ∧ x2` and no marginal for either
/// variable; `s` is a keyed base relation. Both come back from a snapshot.
fn loaded_catalog() -> Catalog {
    let var = |v| Lineage::var(VarId(v));
    let r = keyed(
        "r",
        &[(1, Lineage::and2(var(1), var(2)), Interval::new(0, 10), 0.5)],
    );
    let s = keyed(
        "s",
        &[
            (1, var(10), Interval::new(2, 6), 0.6),
            (2, var(11), Interval::new(0, 4), 0.3),
        ],
    );
    let mut catalog = Catalog::new();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    let bytes = catalog.to_snapshot_bytes().unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot_bytes(&bytes).unwrap();
    loaded
}

#[test]
fn statements_over_an_unpriceable_input_fail_with_a_storage_error() {
    let session = Session::new(loaded_catalog());
    let mut statements = Vec::new();
    for join in ["LEFT", "FULL OUTER"] {
        let text = format!("SELECT * FROM r TP {join} JOIN s ON r.k = s.k");
        statements.push(format!("{text} STRATEGY TA"));
        statements.push(text);
    }
    for setop in ["UNION", "EXCEPT"] {
        statements.push(format!("SELECT * FROM r {setop} SELECT * FROM s"));
    }
    for text in &statements {
        match session.execute(text) {
            Err(TpdbError::Storage(e)) => {
                assert_eq!(e, StorageError::MissingMarginal(VarId(1)), "`{text}`");
                assert!(e.to_string().contains("x1"), "`{text}`: {e}");
            }
            other => panic!("`{text}` answered {other:?}"),
        }
    }
    let scan = session.execute("SELECT * FROM r").unwrap();
    assert_eq!(scan.len(), 1);
}
