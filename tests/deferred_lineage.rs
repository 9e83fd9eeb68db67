//! Output tuples of a join carry deferred lineages: a read-once root is
//! priced at output formation, and its tree is built on the first
//! `lineage()` call. These tests pin the laziness contract (one tree per
//! tuple, shared by its clones and across threads), the consumers that
//! force the tree — a join over a join result, and a snapshot of one — and
//! the two that must not: a row read after its statement, session and
//! catalog epoch are gone, and a set operation opened over a derived input.
//! A registered deferred result keeps the lineage segments its rows were
//! formed over alive, not the relations they were sealed for.

use std::sync::Arc;
use tpdb::core::TpSetOpKind;
use tpdb::core::{tp_join, tp_join_with_engine, ThetaCondition, TpJoinKind, TpJoinStream};
use tpdb::lineage::{Lineage, ProbabilityEngine, VarId};
use tpdb::query::Session;
use tpdb::server::protocol;
use tpdb::storage::{Catalog, TpRelation, TpTuple};

// Deferral must not grow every stored tuple, and tuples stay shareable.
const _: () = assert!(std::mem::size_of::<TpTuple>() <= 64);
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<TpTuple>();

fn theta() -> ThetaCondition {
    ThetaCondition::column_equals("Metric", "Metric")
}

/// `r ⟕ s` over a small meteo pair: negating windows with multi-operand
/// `λs` spans and overlapping windows, all read-once.
fn left_join() -> (TpRelation, TpRelation, TpRelation) {
    let (r, s) = tpdb::datagen::meteo_like(300, 7);
    let joined = tp_join(&r, &s, &theta(), TpJoinKind::LeftOuter).unwrap();
    (r, s, joined)
}

fn deferred(rel: &TpRelation) -> usize {
    rel.iter()
        .filter(|t| t.lazy_lineage().is_deferred())
        .count()
}

/// The same relation with every lineage built eagerly through
/// [`TpTuple::new`].
fn with_tree_lineages(rel: &TpRelation) -> TpRelation {
    let mut out = TpRelation::new(rel.name(), rel.schema().clone());
    for t in rel.iter() {
        out.push_unchecked(TpTuple::new(
            t.facts().to_vec(),
            t.lineage().clone(),
            t.interval(),
            t.probability(),
        ));
    }
    out
}

#[test]
fn a_deferred_tree_is_built_once_and_shared_by_clones() {
    let (_, _, joined) = left_join();
    let t = joined
        .iter()
        .find(|t| t.lazy_lineage().is_deferred())
        .expect("a read-once root is deferred");
    let early = t.clone();
    let first = t.lineage();
    assert!(!t.lazy_lineage().is_deferred());
    assert!(std::ptr::eq(first, t.lineage()), "one tree per tuple");
    assert!(std::ptr::eq(first, early.lineage()), "clones share it");
    assert_eq!(&early, t);
}

#[test]
fn threads_reading_one_relation_see_equal_trees() {
    let (_, _, joined) = left_join();
    let reference = with_tree_lineages(&left_join().2);
    let shared = Arc::new(joined);
    assert!(deferred(&shared) > 100, "the join must defer its roots");
    let read = |rel: Arc<TpRelation>| -> Vec<Lineage> {
        rel.iter().map(|t| t.lineage().clone()).collect()
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| read(Arc::clone(&shared)));
        let b = scope.spawn(|| read(Arc::clone(&shared)));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b);
    let trees: Vec<Lineage> = reference.iter().map(|t| t.lineage().clone()).collect();
    assert_eq!(a, trees);
    assert_eq!(*shared, reference);
}

/// A join whose input is a join result interns the input's lineages, which
/// builds the deferred trees; the answer equals the same join over the
/// eagerly built copy, probability bits included. The other input is `s`
/// under fresh variables (read-once roots over derived `λr`) or `s` itself
/// (roots sharing variables).
/// `s` under fresh variables: no variable in common with `r` or `s`.
fn fresh_copy(s: &TpRelation, name: &str) -> TpRelation {
    let mut fresh = TpRelation::new(name, s.schema().clone());
    for t in s.iter() {
        let Some(VarId(v)) = t.lazy_lineage().as_var() else {
            unreachable!("meteo tuples are base tuples")
        };
        let lineage = Lineage::var(VarId(v + 1_000_000_000));
        fresh.push_unchecked(TpTuple::new(
            t.facts().to_vec(),
            lineage,
            t.interval(),
            t.probability(),
        ));
    }
    fresh
}

/// `r`, `s` and `t` (`s` under fresh variables) of a small meteo pair.
fn meteo_catalog() -> Catalog {
    let (r, s) = tpdb::datagen::meteo_like(300, 7);
    let mut catalog = Catalog::new();
    catalog.register(fresh_copy(&s, "t")).unwrap();
    catalog.register(r.renamed("r")).unwrap();
    catalog.register(s.renamed("s")).unwrap();
    catalog
}

/// A certified statement's rows hold their recipes' nodes: the catalog's
/// segments for a join of stored relations, and the statement's own
/// segment sealed over them for an `EXCEPT` whose input is a union (a
/// derived compound input). Drained through a session that is then dropped, after
/// its catalog was reloaded and mutated, every row still reads — as a
/// tree, as text and on the wire — what the same statement's rows read
/// with their trees built while the catalog was live.
#[test]
fn rows_read_the_same_after_their_statement_and_catalog_are_gone() {
    let snapshot =
        std::env::temp_dir().join(format!("tpdb-deferred-outlive-{}.snap", std::process::id()));
    Catalog::new().save_snapshot(&snapshot).unwrap();
    for text in [
        "SELECT * FROM r TP LEFT JOIN s ON r.Metric = s.Metric",
        "(SELECT * FROM r UNION SELECT * FROM s) EXCEPT SELECT * FROM t",
    ] {
        let mut session = Session::new(meteo_catalog());
        let rows = session.execute(text).unwrap();
        let reference = with_tree_lineages(&session.execute(text).unwrap());
        let deferred_rows = deferred(&rows);
        assert!(deferred_rows > 100, "{text}: {deferred_rows} deferred rows");
        if text.contains("EXCEPT") {
            // λr is a union row's disjunction, an own node of the statement.
            let over_own = rows
                .iter()
                .filter(|t| t.lazy_lineage().is_deferred())
                .any(|t| t.lazy_lineage().to_string().starts_with('('));
            assert!(over_own, "{text}: no row negates a disjunction's span");
        }
        session
            .execute_statement(&format!("LOAD SNAPSHOT '{}'", snapshot.display()))
            .unwrap();
        let (u, _) = tpdb::datagen::meteo_like(50, 3);
        session.catalog_mut().register(u.renamed("u")).unwrap();
        drop(session);

        assert_eq!(rows.len(), reference.len());
        for (row, tree) in rows.iter().zip(reference.iter()) {
            assert_eq!(row.to_string(), tree.to_string(), "{text}");
            assert_eq!(protocol::render_tuple(row), protocol::render_tuple(tree));
        }
        assert_eq!(deferred(&rows), deferred_rows, "printing builds no tree");
        for (row, tree) in rows.iter().zip(reference.iter()) {
            assert_eq!(row.lineage(), tree.lineage(), "{text}");
            assert_eq!(row, tree);
        }
    }
    std::fs::remove_file(&snapshot).ok();
}

/// The chain's `EXCEPT` opens over its union input without building the
/// union rows' trees: each row is interned from its recipe's node ids, to
/// the node its tree interns to. The chain shares `r`'s variables, so the
/// `EXCEPT` is not certified and its own rows take the node path.
#[test]
fn a_set_operation_over_a_union_interns_its_rows_from_their_ids() {
    let catalog = meteo_catalog();
    let session = Session::new(catalog.clone());
    let union = session
        .execute("SELECT * FROM r UNION SELECT * FROM s")
        .unwrap();
    let deferred_rows = deferred(&union);
    assert!(deferred_rows > 100, "{deferred_rows} deferred union rows");

    let r = catalog.relation("r").unwrap();
    let stream = TpJoinStream::set_op_with_engine(
        &union,
        &*r,
        TpSetOpKind::Difference,
        catalog.probability_engine(),
    )
    .unwrap();
    assert!(!stream.is_certified());
    assert_eq!(deferred(&union), deferred_rows, "opening builds no tree");
    let mut engine = catalog.probability_engine();
    let column = engine.column(&union, union.tuples().iter().map(TpTuple::lazy_lineage));
    assert_eq!(deferred(&union), deferred_rows, "interning builds no tree");
    let own_nodes = engine.interner().len();
    for (t, &root) in union.iter().zip(column.iter()) {
        assert_eq!(engine.intern(t.lineage()), root);
    }
    assert_eq!(
        engine.interner().len(),
        own_nodes,
        "the same nodes, no more"
    );
    let drained: Vec<TpTuple> = stream.collect();
    assert!(!drained.is_empty());
}

#[test]
fn a_join_over_deferred_lineages_equals_one_over_trees() {
    let (r, s, joined) = left_join();
    let trees = with_tree_lineages(&left_join().2);
    assert!(deferred(&joined) > 100);
    let mut fresh = TpRelation::new("t", s.schema().clone());
    for t in s.iter() {
        let Some(VarId(v)) = t.lazy_lineage().as_var() else {
            unreachable!("meteo tuples are base tuples")
        };
        let lineage = Lineage::var(VarId(v + 1_000_000_000));
        fresh.push_unchecked(TpTuple::new(
            t.facts().to_vec(),
            lineage,
            t.interval(),
            t.probability(),
        ));
    }
    let engine = || {
        let mut engine = ProbabilityEngine::new();
        for rel in [&r, &s, &fresh] {
            rel.register_probabilities(&mut engine);
        }
        engine
    };
    let bits =
        |rel: &TpRelation| -> Vec<u64> { rel.iter().map(|t| t.probability().to_bits()).collect() };
    for other in [&fresh, &s] {
        for kind in [
            TpJoinKind::LeftOuter,
            TpJoinKind::Anti,
            TpJoinKind::FullOuter,
        ] {
            let over_deferred =
                tp_join_with_engine(&joined, other, &theta(), kind, &mut engine()).unwrap();
            let over_trees =
                tp_join_with_engine(&trees, other, &theta(), kind, &mut engine()).unwrap();
            assert_eq!(over_deferred, over_trees, "{kind:?} over {}", other.name());
            assert_eq!(bits(&over_deferred), bits(&over_trees), "{kind:?}");
        }
    }
}

/// A registered join result is saved through its (built) trees: the file
/// is the one the eagerly built copy writes, and it loads back to equal
/// relations and re-encodes to the same bytes.
#[test]
fn a_snapshot_of_a_join_result_round_trips_byte_identically() {
    let catalog_with = |joined: TpRelation| {
        let (r, s) = tpdb::datagen::meteo_like(300, 7);
        let mut catalog = Catalog::new();
        catalog.register(r).unwrap();
        catalog.register(s).unwrap();
        catalog.register(joined.renamed("j")).unwrap();
        catalog
    };
    let deferred_catalog = catalog_with(left_join().2);
    assert!(deferred(&deferred_catalog.relation("j").unwrap()) > 100);
    let tree_catalog = catalog_with(with_tree_lineages(&left_join().2));

    let path =
        std::env::temp_dir().join(format!("tpdb-deferred-lineage-{}.snap", std::process::id()));
    deferred_catalog.save_snapshot(&path).unwrap();
    let mut loaded = Catalog::new();
    loaded.load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let bytes = tree_catalog.to_snapshot_bytes().unwrap();
    assert_eq!(deferred_catalog.to_snapshot_bytes().unwrap(), bytes);
    assert_eq!(loaded.to_snapshot_bytes().unwrap(), bytes);
    for name in deferred_catalog.relation_names() {
        assert_eq!(
            loaded.relation(&name).unwrap(),
            deferred_catalog.relation(&name).unwrap(),
            "relation `{name}`"
        );
    }
}

/// The catalog-side references to the stored `r` after each of three
/// rounds of registering a session's join result and opening an engine on
/// the catalog's lineage stack, with the result's rows as the session
/// formed them (`eager` false) or with their trees built.
fn retained_by_registered_results(eager: bool) -> Vec<usize> {
    let (r, s) = tpdb::datagen::meteo_like(300, 7);
    let mut catalog = Catalog::new();
    catalog.register(r.renamed("r")).unwrap();
    catalog.register(s.renamed("s")).unwrap();
    let references = |catalog: &Catalog| Arc::strong_count(&catalog.relation("r").unwrap()) - 1;
    let mut counts = vec![references(&catalog)];
    for round in 0..3 {
        let session = Session::new(catalog.clone());
        let rows = session
            .execute("SELECT * FROM r TP LEFT JOIN s ON r.Metric = s.Metric")
            .unwrap();
        drop(session);
        let rows = if eager {
            with_tree_lineages(&rows)
        } else {
            rows
        };
        catalog
            .register(rows.renamed(&format!("j{round}")))
            .unwrap();
        drop(catalog.probability_engine());
        counts.push(references(&catalog));
    }
    counts
}

/// A registered result holds no more of the catalog than its rows' text
/// needs: each round of registering a deferred join result keeps alive
/// what registering the same rows as trees keeps alive.
#[test]
fn a_registered_deferred_result_keeps_no_old_arena_alive() {
    assert_eq!(
        retained_by_registered_results(false),
        retained_by_registered_results(true)
    );
}
