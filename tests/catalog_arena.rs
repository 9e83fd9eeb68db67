//! Statements over stored relations run on their catalog's lineage arena:
//! the stored columns, marginals and certification facts, built once per
//! schema epoch. These tests hold the arena to the catalog it was built
//! from. After each kind of mutation — `register`, `drop_relation`,
//! `import_delimited`, `LOAD SNAPSHOT` — a re-executed statement answers
//! exactly what a fresh session over the same catalog answers, and a cursor
//! opened before the mutation drains the old answer, in process and over a
//! connection. The shapes the arena must not certify — a self-join,
//! relations that share a variable, constant lineages — are priced exactly,
//! and an import whose symbols a stored relation already carries gets
//! variables of its own.

use std::sync::Arc;
use tpdb::core::{tp_join, ThetaCondition, TpJoinKind, TpJoinStream};
use tpdb::lineage::{Lineage, ProbabilityEngine, VarId};
use tpdb::query::Session;
use tpdb::server::protocol::render_relation_rows;
use tpdb::server::{Client, Server, ServerConfig};
use tpdb::storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const JOIN: &str = "SELECT * FROM r TP FULL OUTER JOIN s ON r.k = s.k";
const CHAIN: &str = "(SELECT * FROM r UNION SELECT * FROM s) EXCEPT SELECT * FROM r";

/// Twelve tuples over keys 0..3, duplicate-free, with variables
/// `first_var..` and `seed`-dependent intervals and probabilities. The
/// tests start their variables at 1000, above the symbol ids a CSV import
/// assigns.
fn keyed(name: &str, first_var: u32, seed: u64) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    for i in 0..12u64 {
        let start = (i / 3 * 10 + (i * 7 + seed) % 4) as i64;
        let length = 1 + ((i * 5 + seed * 3) % 7) as i64;
        let p = 0.05 + 0.9 * (((i + 1) * (seed + 3)) % 17) as f64 / 17.0;
        rel.push(TpTuple::new(
            vec![Value::Int((i % 3) as i64)],
            Lineage::var(VarId(first_var + i as u32)),
            Interval::new(start, start + length),
            p,
        ))
        .unwrap();
    }
    rel
}

fn catalog(relations: impl IntoIterator<Item = TpRelation>) -> Catalog {
    let mut catalog = Catalog::new();
    for relation in relations {
        catalog.register(relation).unwrap();
    }
    catalog
}

/// What a comparison of two answers looks at: every row's facts,
/// interval, lineage text and probability bits, in order.
fn rows(relation: &TpRelation) -> Vec<(Vec<Value>, Interval, String, u64)> {
    relation
        .iter()
        .map(|t| {
            let facts = t.facts().to_vec();
            (
                facts,
                t.interval(),
                t.lineage().to_string(),
                t.probability().to_bits(),
            )
        })
        .collect()
}

type Answer = Result<Vec<(Vec<Value>, Interval, String, u64)>, String>;

/// The answers of the join and the set-operation chain; every statement
/// goes through the session's plan cache.
fn answers(session: &Session) -> [Answer; 2] {
    [JOIN, CHAIN].map(|text| {
        let statement = session.prepare(text).map_err(|e| e.to_string())?;
        let result = statement.execute(&[]).map_err(|e| e.to_string())?;
        Ok(rows(&result))
    })
}

/// Applies `mutate` to the session's catalog and checks the arena against
/// it: a cursor per statement, opened and pulled once before the mutation,
/// drains the answer of before; after it, re-executing each statement
/// answers what a fresh session over a clone of the catalog answers.
/// Returns the answers after the mutation.
fn mutate_and_check(
    session: &mut Session,
    what: &str,
    mutate: impl FnOnce(&mut Session),
) -> [Answer; 2] {
    let before = answers(session);
    let mut cursors: Vec<_> = [JOIN, CHAIN]
        .iter()
        .map(|text| {
            let mut cursor = session.query(text).ok()?;
            let first = cursor.next()?;
            Some((first, cursor))
        })
        .collect();
    mutate(session);
    for (old, cursor) in before.iter().zip(&mut cursors) {
        let Some((first, cursor)) = cursor.take() else {
            continue;
        };
        let drained: Result<Vec<TpTuple>, _> = std::iter::once(first).chain(cursor).collect();
        let mut relation = TpRelation::new("drained", Schema::tp(&[]));
        drained
            .unwrap()
            .into_iter()
            .for_each(|t| relation.push_unchecked(t));
        assert_eq!(
            Ok(rows(&relation)),
            *old,
            "{what}: a cursor opened before drains the old answer"
        );
    }
    let fresh = answers(&Session::new(session.catalog().clone()));
    let reexecuted = answers(session);
    assert_eq!(reexecuted, fresh, "{what}");
    reexecuted
}

fn csv(relation: &TpRelation) -> String {
    relation
        .iter()
        .map(|t| {
            let iv = t.interval();
            format!(
                "{},{},{},{}\n",
                t.fact(0),
                iv.start(),
                iv.end(),
                t.probability()
            )
        })
        .collect()
}

fn temp_snapshot(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tpdb-catalog-arena-{tag}-{}.snap",
        std::process::id()
    ))
}

#[test]
fn every_mutation_rebuilds_the_arena_the_statements_run_on() {
    let mut session = Session::new(catalog([keyed("r", 1000, 1), keyed("s", 1100, 2)]));
    let first = answers(&session);
    assert!(first.iter().all(Result::is_ok), "{first:?}");

    let registered = mutate_and_check(&mut session, "register", |s| {
        s.catalog_mut().register(keyed("t", 1200, 3)).unwrap();
    });
    assert_eq!(registered, first, "an unrelated relation changes no answer");

    let dropped = mutate_and_check(&mut session, "drop_relation", |s| {
        s.catalog_mut().drop_relation("s").unwrap();
    });
    assert!(dropped.iter().all(Result::is_err), "{dropped:?}");

    let replaced = mutate_and_check(&mut session, "register of different data", |s| {
        s.catalog_mut().register(keyed("s", 1300, 4)).unwrap();
    });
    assert_ne!(replaced, first);

    let imported = mutate_and_check(&mut session, "import_delimited", |s| {
        let catalog = s.catalog_mut();
        catalog.drop_relation("s").unwrap();
        let schema = Schema::tp(&[("k", DataType::Int)]);
        let text = csv(&keyed("s", 1000, 5));
        catalog.import_delimited("s", schema, ',', &text).unwrap();
    });
    assert_ne!(imported, replaced);

    let path = temp_snapshot("epochs");
    catalog([keyed("r", 1400, 6), keyed("s", 1500, 7)])
        .save_snapshot(&path)
        .unwrap();
    let loaded = mutate_and_check(&mut session, "LOAD SNAPSHOT", |s| {
        s.execute_statement(&format!("LOAD SNAPSHOT '{}'", path.display()))
            .unwrap();
    });
    drop(std::fs::remove_file(&path));
    assert_ne!(loaded, imported);
}

#[test]
fn a_served_load_snapshot_answers_as_the_loaded_catalog_does_in_process() {
    let path = temp_snapshot("served");
    catalog([keyed("r", 1400, 8), keyed("s", 1500, 9)])
        .save_snapshot(&path)
        .unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot(&path).unwrap();
    let local = Session::new(loaded);

    let server = Server::start(
        catalog([keyed("r", 1000, 1), keyed("s", 1100, 2)]),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let before = client.query(JOIN).unwrap();
    client
        .query(&format!("LOAD SNAPSHOT '{}'", path.display()))
        .unwrap();
    for text in [JOIN, CHAIN] {
        let served = client.query(text).unwrap();
        let want = render_relation_rows(&local.execute(text).unwrap());
        assert_eq!(served.rows, want, "{text}");
    }
    assert_ne!(client.query(JOIN).unwrap().rows, before.rows);
    client.close().unwrap();
    server.shutdown();
    drop(std::fs::remove_file(&path));
}

/// `kind` over `r` and `s` through the catalog's engine — which must not
/// certify it — and through the free-relation API: equal rows, bit for
/// bit, each priced exactly (possible-worlds enumeration).
fn check_uncertified(catalog: &Catalog, r: &str, s: &str, kind: TpJoinKind) {
    let (r, s) = (catalog.relation(r).unwrap(), catalog.relation(s).unwrap());
    let theta = ThetaCondition::column_equals("k", "k");
    let mut engine = catalog.probability_engine();
    let stream =
        TpJoinStream::with_engine(Arc::clone(&r), Arc::clone(&s), &theta, kind, &mut engine)
            .unwrap();
    assert!(!stream.is_certified(), "{} {kind:?} {}", r.name(), s.name());
    let via_catalog = stream.collect_relation();
    let free = tp_join(&r, &s, &theta, kind).unwrap();
    assert_eq!(rows(&via_catalog), rows(&free));
    let mut enumerating = ProbabilityEngine::new();
    r.register_probabilities(&mut enumerating);
    s.register_probabilities(&mut enumerating);
    for t in via_catalog.iter() {
        let exact = enumerating.probability_by_enumeration(t.lineage()).unwrap();
        assert!(
            (t.probability() - exact).abs() < 1e-12,
            "{}: {} vs {exact}",
            t.lineage(),
            t.probability()
        );
    }
}

#[test]
fn two_stored_relations_are_certified_and_intern_nothing() {
    let catalog = catalog([keyed("r", 1000, 1), keyed("s", 1100, 2)]);
    let (r, s) = (
        catalog.relation("r").unwrap(),
        catalog.relation("s").unwrap(),
    );
    let theta = ThetaCondition::column_equals("k", "k");
    let mut engine = catalog.probability_engine();
    let frozen = engine.interner().len();
    let stream = TpJoinStream::with_engine(
        Arc::clone(&r),
        Arc::clone(&s),
        &theta,
        TpJoinKind::FullOuter,
        &mut engine,
    )
    .unwrap();
    assert!(stream.is_certified());
    let via_catalog = stream.collect_relation();
    assert_eq!(
        engine.interner().len(),
        frozen,
        "nothing interned, not even a row"
    );
    let free = tp_join(&r, &s, &theta, TpJoinKind::FullOuter).unwrap();
    assert_eq!(rows(&via_catalog), rows(&free));
}

#[test]
fn a_self_join_through_the_catalog_is_not_certified_and_exact() {
    let catalog = catalog([keyed("r", 1000, 1), keyed("s", 1100, 2)]);
    for kind in [TpJoinKind::FullOuter, TpJoinKind::Anti] {
        check_uncertified(&catalog, "r", "r", kind);
    }
    let session = Session::new(catalog);
    let text = "SELECT * FROM r TP FULL OUTER JOIN r ON r.k = r.k";
    let fresh = Session::new(session.catalog().clone());
    assert_eq!(
        rows(&session.execute(text).unwrap()),
        rows(&fresh.execute(text).unwrap())
    );
}

#[test]
fn snapshot_loaded_relations_that_share_a_variable_are_priced_exactly() {
    let r = keyed("r", 1000, 1);
    let path = temp_snapshot("shared");
    catalog([r.renamed("r2"), r, keyed("s", 1100, 2)])
        .save_snapshot(&path)
        .unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot(&path).unwrap();
    drop(std::fs::remove_file(&path));
    for kind in [
        TpJoinKind::LeftOuter,
        TpJoinKind::FullOuter,
        TpJoinKind::Anti,
    ] {
        check_uncertified(&loaded, "r", "r2", kind);
        check_uncertified(&loaded, "r2", "r", kind);
    }
    // `r2` shares every variable with `r`, yet not with `s`: only the
    // pairs that name both are decided over their roots.
    let (r2, s) = (
        loaded.relation("r2").unwrap(),
        loaded.relation("s").unwrap(),
    );
    let theta = ThetaCondition::column_equals("k", "k");
    let stream = TpJoinStream::with_engine(
        r2,
        s,
        &theta,
        TpJoinKind::FullOuter,
        loaded.probability_engine(),
    )
    .unwrap();
    assert!(stream.is_certified(), "r2 and s share nothing");
}

#[test]
fn constant_lineages_from_a_snapshot_are_priced_as_the_free_api_prices_them() {
    let mut constants = TpRelation::new("c", Schema::tp(&[("k", DataType::Int)]));
    for (k, lineage, p) in [
        (0, Lineage::tru(), 1.0),
        (1, Lineage::fls(), 0.0),
        (2, Lineage::tru(), 1.0),
    ] {
        constants
            .push(TpTuple::new(
                vec![Value::Int(k)],
                lineage,
                Interval::new(0, 40),
                p,
            ))
            .unwrap();
    }
    let path = temp_snapshot("constants");
    catalog([constants, keyed("s", 1100, 2)])
        .save_snapshot(&path)
        .unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot(&path).unwrap();
    drop(std::fs::remove_file(&path));
    for kind in [
        TpJoinKind::LeftOuter,
        TpJoinKind::FullOuter,
        TpJoinKind::Anti,
    ] {
        check_uncertified(&loaded, "c", "s", kind);
        check_uncertified(&loaded, "s", "c", kind);
    }
}

#[test]
fn an_imported_relation_whose_symbols_are_taken_gets_fresh_variables() {
    // Relation `a`'s eleventh tuple and relation `a1`'s first are both
    // named `a11`; the later import takes `a11'` instead of sharing `a`'s
    // variable, so every tuple is priced at its own probability.
    let schema = Schema::tp(&[("k", DataType::Int)]);
    let mut catalog = Catalog::new();
    for (name, seed) in [("a", 1), ("a1", 2), ("b", 3)] {
        let text = csv(&keyed(name, 0, seed));
        catalog
            .import_delimited(name, schema.clone(), ',', &text)
            .unwrap();
    }
    let (a, a1) = (
        catalog.relation("a").unwrap(),
        catalog.relation("a1").unwrap(),
    );
    assert_eq!(a.tuple(10).lineage().display_with(catalog.symbols()), "a11");
    assert_eq!(
        a1.tuple(0).lineage().display_with(catalog.symbols()),
        "a11'"
    );
    for t in a.iter().chain(a1.iter()) {
        let var = t.lazy_lineage().as_var().unwrap();
        assert_eq!(catalog.probability_of(var), Some(t.probability()));
    }

    let reloaded = {
        let mut loaded = Catalog::new();
        loaded
            .load_snapshot_bytes(&catalog.to_snapshot_bytes().unwrap())
            .unwrap();
        loaded
    };
    for catalog in [catalog, reloaded] {
        let session = Session::new(catalog);
        for (r, s) in [("a", "b"), ("a1", "b"), ("a", "a1")] {
            let nj = format!("SELECT * FROM {r} TP LEFT JOIN {s} ON {r}.k = {s}.k");
            let answer = rows(&session.execute(&nj).unwrap());
            let (r, s) = (
                session.catalog().relation(r).unwrap(),
                session.catalog().relation(s).unwrap(),
            );
            let theta = ThetaCondition::column_equals("k", "k");
            let free = tp_join(&r, &s, &theta, TpJoinKind::LeftOuter).unwrap();
            assert_eq!(answer, rows(&free), "{nj}: the tuples' own probabilities");
            let mut ta = rows(&session.execute(&format!("{nj} STRATEGY TA")).unwrap());
            let mut nj_sorted = answer;
            ta.sort();
            nj_sorted.sort();
            assert_eq!(nj_sorted, ta, "{nj}: NJ equals TA");
        }
    }
}
