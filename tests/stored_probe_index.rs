//! A relation stored in a catalog keeps the overlap join's probe index of
//! each column list it is probed on, and every later statement reuses it.
//! These tests hold the reused indexes to the answers they must give: the
//! TA baseline's, the current tuples' after a relation is replaced, and
//! the same bytes from threads that race to build an index.

use std::sync::Arc;
use tpdb::query::Session;
use tpdb::server::protocol::render_relation_rows;
use tpdb::storage::{Catalog, TpRelation, Value};
use tpdb::temporal::Interval;

const ON_METRIC: &str = "SELECT * FROM meteo_r TP FULL OUTER JOIN meteo_s \
     ON meteo_r.Metric = meteo_s.Metric";
const ON_STATION_AND_METRIC: &str = "SELECT * FROM meteo_r TP FULL OUTER JOIN meteo_s \
     ON meteo_r.Station = meteo_s.Station AND meteo_r.Metric = meteo_s.Metric";

fn meteo_catalog(tuples: usize, seed: u64) -> Catalog {
    let (r, s) = tpdb::datagen::meteo_like(tuples, seed);
    let mut catalog = Catalog::new();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    catalog
}

/// The rows of an answer sorted by facts and interval, with their
/// probabilities: a multiset comparison that does not depend on the
/// order either strategy emits rows in.
fn sorted_rows(relation: &TpRelation) -> Vec<(Vec<Value>, Interval, f64)> {
    let mut rows: Vec<_> = relation
        .iter()
        .map(|t| (t.facts().to_vec(), t.interval(), t.probability()))
        .collect();
    rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    rows
}

fn assert_same_answer(nj: &TpRelation, ta: &TpRelation, what: &str) {
    let (nj, ta) = (sorted_rows(nj), sorted_rows(ta));
    assert_eq!(nj.len(), ta.len(), "{what}: row count");
    for (a, b) in nj.iter().zip(&ta) {
        assert_eq!((&a.0, a.1), (&b.0, b.1), "{what}: rows differ");
        assert!((a.2 - b.2).abs() <= 1e-9, "{what}: p {} vs {}", a.2, b.2);
    }
}

#[test]
fn one_stored_relation_probed_on_two_key_lists_answers_as_ta() {
    let session = Session::new(meteo_catalog(400, 11));
    for text in [ON_METRIC, ON_STATION_AND_METRIC] {
        let ta = session.execute(&format!("{text} STRATEGY TA")).unwrap();
        let statement = session.prepare(text).unwrap();
        // The first run builds the indexes, the second reuses them.
        for run in 0..2 {
            let nj = statement.execute(&[]).unwrap();
            assert_same_answer(&nj, &ta, &format!("{text}, run {run}"));
        }
    }
    // Both key lists of meteo_s are memoized: Metric, and Station + Metric.
    let s = session.catalog().relation("meteo_s").unwrap();
    for columns in [&[1][..], &[0, 1]] {
        assert!(Arc::ptr_eq(
            &s.probe_index(columns),
            &s.probe_index(columns)
        ));
    }
}

#[test]
fn a_relation_dropped_and_registered_again_is_probed_anew() {
    let mut session = Session::new(meteo_catalog(300, 3));
    let statement = ON_METRIC;
    let before = session.execute(statement).unwrap();
    let (_, replacement) = tpdb::datagen::meteo_like(200, 99);
    session.catalog_mut().drop_relation("meteo_s").unwrap();
    session.catalog_mut().register(replacement).unwrap();
    let after = session.execute(statement).unwrap();
    // The answer is the new tuples', the one a catalog that never held the
    // old ones gives.
    let mut fresh = Catalog::new();
    fresh.register(tpdb::datagen::meteo_like(300, 3).0).unwrap();
    fresh
        .register(tpdb::datagen::meteo_like(200, 99).1)
        .unwrap();
    let fresh = Session::new(fresh).execute(statement).unwrap();
    let ta = session
        .execute(&format!("{statement} STRATEGY TA"))
        .unwrap();
    assert_eq!(after, fresh);
    assert_same_answer(&after, &ta, "after the replacement");
    assert_ne!(sorted_rows(&after), sorted_rows(&before));
}

#[test]
fn two_threads_on_a_cold_catalog_render_the_same_bytes() {
    let expected = {
        let session = Session::new(meteo_catalog(600, 5));
        render_relation_rows(&session.execute(ON_METRIC).unwrap())
    };
    let session = Session::new(meteo_catalog(600, 5));
    let statement = session.prepare(ON_METRIC).unwrap();
    let rendered: Vec<Vec<String>> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| render_relation_rows(&statement.execute(&[]).unwrap())))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(rendered[0], expected);
    assert_eq!(rendered[1], expected);
}
