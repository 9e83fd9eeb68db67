//! Integration test: the possible-worlds semantics of the eight TP
//! operators, checked against an oracle that shares no code with the window
//! pipeline, the lineage arena or the TA baseline.
//!
//! A TP relation over independent base tuples denotes a distribution over
//! deterministic temporal relations: every subset `W` of the base tuples (a
//! *world*) has probability `∏_{i∈W} pᵢ · ∏_{i∉W} (1 − pᵢ)`, and in `W` at
//! time point `t` a relation holds the facts of its tuples that are in `W`
//! and valid at `t`. A TP operator must return, for every output fact and
//! time point, the total probability of the worlds in which the
//! *deterministic* operator, applied to that snapshot, yields the fact.
//!
//! The oracle does exactly that and nothing smarter: for at most six base
//! tuples over two keys and ten time points it enumerates all `2ⁿ` worlds,
//! evaluates the deterministic operator per time point per world on plain
//! `(k, v)` pairs, and sums world probabilities per (facts, time point).
//! What `Session` returns must agree to `1e-12` at every time point (a
//! missing row is probability 0), hold each fact at most once per time
//! point, and be maximal: adjacent rows with equal facts and equal lineage
//! never meet. The same statement prepared in process and sent to a server
//! must return the same rows, byte for byte.
//!
//! A `WHERE` over each of the five joins is checked the same way, the
//! deterministic selection applied to the join's rows of each snapshot;
//! the engine runs a predicate on a preserved side below the join.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tpdb::prelude::{Catalog, Interval, Schema, Session, TpRelation, Value};
use tpdb::server::{protocol, Client, Server, ServerConfig};
use tpdb::storage::DataType;

/// The time domain is `0..HORIZON`.
const HORIZON: i64 = 10;

/// A base tuple as the oracle sees it: plain data, no lineage.
#[derive(Debug, Clone, Copy)]
struct Base {
    k: i64,
    v: i64,
    start: i64,
    end: i64,
    p: f64,
}

/// The facts `(k, v)` of one tuple.
type Fact = (i64, i64);
/// The facts of one output row; `None` is `NULL`.
type Row = Vec<Option<i64>>;
/// Probability per (output facts, time point).
type Pointwise = BTreeMap<(Row, i64), f64>;

/// The eight TP operators: their query text and their deterministic
/// definition on the snapshot of one world at one time point. Joins match
/// on `k`; the set operations compare whole facts.
#[derive(Debug, Clone, Copy)]
enum Op {
    Inner,
    Left,
    Right,
    Full,
    Anti,
    Union,
    Intersect,
    Except,
}

const OPS: [Op; 8] = [
    Op::Inner,
    Op::Left,
    Op::Right,
    Op::Full,
    Op::Anti,
    Op::Union,
    Op::Intersect,
    Op::Except,
];

fn row(left: Option<Fact>, right: Option<Fact>) -> Row {
    [left, right]
        .into_iter()
        .flat_map(|side| match side {
            Some((k, v)) => [Some(k), Some(v)],
            None => [None, None],
        })
        .collect()
}

fn single(fact: &Fact) -> Row {
    vec![Some(fact.0), Some(fact.1)]
}

impl Op {
    fn sql(self, r: &str, s: &str, suffix: &str) -> String {
        let join =
            |kind: &str| format!("SELECT * FROM {r} TP {kind} JOIN {s} ON {r}.k = {s}.k{suffix}");
        let set = |kw: &str| format!("SELECT * FROM {r} {kw} SELECT * FROM {s}{suffix}");
        match self {
            Op::Inner => join("INNER"),
            Op::Left => join("LEFT"),
            Op::Right => join("RIGHT"),
            Op::Full => join("FULL"),
            Op::Anti => join("ANTI"),
            Op::Union => set("UNION"),
            Op::Intersect => set("INTERSECT"),
            Op::Except => set("EXCEPT"),
        }
    }

    /// The deterministic operator on two sets of facts.
    fn eval(self, r: &[Fact], s: &[Fact]) -> Vec<Row> {
        let matched = |a: &Fact, others: &[Fact]| others.iter().any(|b| a.0 == b.0);
        let pairs = || {
            r.iter()
                .flat_map(|a| s.iter().filter(|b| a.0 == b.0).map(|b| (*a, *b)))
                .map(|(a, b)| row(Some(a), Some(b)))
        };
        let left_only = || {
            r.iter()
                .filter(|a| !matched(a, s))
                .map(|a| row(Some(*a), None))
        };
        let right_only = || {
            s.iter()
                .filter(|b| !matched(b, r))
                .map(|b| row(None, Some(*b)))
        };
        match self {
            Op::Inner => pairs().collect(),
            Op::Left => pairs().chain(left_only()).collect(),
            Op::Right => pairs().chain(right_only()).collect(),
            Op::Full => pairs().chain(left_only()).chain(right_only()).collect(),
            Op::Anti => r.iter().filter(|a| !matched(a, s)).map(single).collect(),
            Op::Union => {
                let mut all: Vec<Row> = r.iter().chain(s).map(single).collect();
                all.sort();
                all.dedup();
                all
            }
            Op::Intersect => r.iter().filter(|a| s.contains(a)).map(single).collect(),
            Op::Except => r.iter().filter(|a| !s.contains(a)).map(single).collect(),
        }
    }
}

/// Reads single-relation rows back as facts (input of a chained operator).
fn facts_of(rows: &[Row]) -> Vec<Fact> {
    rows.iter()
        .map(|row| match row[..] {
            [Some(k), Some(v)] => (k, v),
            _ => panic!("not a single-relation row: {row:?}"),
        })
        .collect()
}

/// Sums, per (output facts, time point), the probability of every world in
/// which `eval` yields the facts at that time point. A world is a bit mask
/// over `r` followed by `s`; `eval` receives the two snapshots.
fn oracle(r: &[Base], s: &[Base], eval: impl Fn(&[Fact], &[Fact]) -> Vec<Row>) -> Pointwise {
    let bases: Vec<&Base> = r.iter().chain(s).collect();
    let mut sums = Pointwise::new();
    for world in 0u32..1 << bases.len() {
        let holds = |i: usize| world >> i & 1 == 1;
        let probability: f64 = bases
            .iter()
            .enumerate()
            .map(|(i, b)| if holds(i) { b.p } else { 1.0 - b.p })
            .product();
        for t in 0..HORIZON {
            let snapshot = |rel: &[Base], offset: usize| -> Vec<Fact> {
                rel.iter()
                    .enumerate()
                    .filter(|(i, b)| holds(offset + i) && b.start <= t && t < b.end)
                    .map(|(_, b)| (b.k, b.v))
                    .collect()
            };
            for facts in eval(&snapshot(r, 0), &snapshot(s, r.len())) {
                *sums.entry((facts, t)).or_insert(0.0) += probability;
            }
        }
    }
    sums
}

fn schema() -> Schema {
    Schema::tp(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// Turns raw rows into base tuples inside the time domain, dropping a row
/// whose facts already hold over an overlapping interval (base relations
/// are duplicate-free).
fn bases(rows: &[(i64, i64, i64, i64, f64)]) -> Vec<Base> {
    let mut kept: Vec<Base> = Vec::new();
    for &(k, v, start, len, p) in rows {
        let end = (start + len).min(HORIZON);
        let clashes = kept
            .iter()
            .any(|b| (b.k, b.v) == (k, v) && b.start < end && start < b.end);
        if !clashes {
            kept.push(Base {
                k,
                v,
                start,
                end,
                p,
            });
        }
    }
    kept
}

/// A catalog of `r` and `s` (fresh lineage variable per tuple) and `r2`, a
/// copy of `r` that shares `r`'s variables — the other side of a self-join.
fn catalog(r: &[Base], s: &[Base]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, rel) in [("r", r), ("s", s)] {
        let mut builder = catalog.create_relation(name, schema()).unwrap();
        for b in rel {
            builder.push(
                vec![Value::Int(b.k), Value::Int(b.v)],
                Interval::new(b.start, b.end),
                b.p,
            );
        }
        let _ = builder.finish();
    }
    let copy = catalog.relation("r").unwrap().renamed("r2");
    catalog.register(copy).unwrap();
    catalog
}

/// What the engine says per (facts, time point), after checking that no
/// fact is reported twice at a time point and that the rows are maximal.
fn engine_pointwise(result: &TpRelation) -> Result<Pointwise, String> {
    let facts = |t: &tpdb::prelude::TpTuple| -> Row {
        t.facts()
            .iter()
            .map(|value| match value {
                Value::Int(i) => Some(*i),
                Value::Null => None,
                other => panic!("unexpected fact {other:?}"),
            })
            .collect()
    };
    let mut points = Pointwise::new();
    for tuple in result.iter() {
        for t in tuple.interval().points() {
            if points
                .insert((facts(tuple), t), tuple.probability())
                .is_some()
            {
                return Err(format!("{:?} is reported twice at t={t}", facts(tuple)));
            }
        }
    }
    for a in result.iter() {
        for b in result.iter() {
            if a.interval().end() == b.interval().start()
                && a.facts() == b.facts()
                && a.lineage() == b.lineage()
            {
                return Err(format!(
                    "rows {:?} {} and {} carry the same lineage {} but are not merged",
                    facts(a),
                    a.interval(),
                    b.interval(),
                    a.lineage()
                ));
            }
        }
    }
    Ok(points)
}

/// Runs `query` at both degrees of parallelism and compares every time
/// point with the oracle; the same text prepared in process and sent to a
/// server must return the same rows, byte for byte.
fn check(
    r: &[Base],
    s: &[Base],
    query: &dyn Fn(&str) -> String,
    expected: &Pointwise,
) -> Result<(), String> {
    let mut session = Session::new(catalog(r, s));
    session.set_parallelism(1);
    let server = Server::start(catalog(r, s), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for suffix in ["", " PARALLEL 2"] {
        let text = query(suffix);
        let context = |what: String| format!("{text}\n  r = {r:?}\n  s = {s:?}\n  {what}");
        let result = session
            .execute(&text)
            .map_err(|e| context(format!("failed: {e}")))?;
        let measured = engine_pointwise(&result).map_err(context)?;
        for key in expected.keys().chain(measured.keys()) {
            let want = expected.get(key).copied().unwrap_or(0.0);
            let got = measured.get(key).copied().unwrap_or(0.0);
            if (want - got).abs() > 1e-12 {
                return Err(context(format!(
                    "facts {:?} at t={}: possible worlds give {want}, the engine {got}",
                    key.0, key.1
                )));
            }
        }
        let rows = protocol::render_relation_rows(&result);
        let prepared = session.prepare(&text).and_then(|q| q.execute(&[]));
        let prepared = prepared.map_err(|e| context(format!("prepared: {e}")))?;
        if protocol::render_relation_rows(&prepared) != rows {
            return Err(context("the prepared statement returns other rows".into()));
        }
        let served = client
            .query(&text)
            .map_err(|e| context(format!("served: {e}")))?;
        if served.rows != rows {
            return Err(context("the server returns other rows".into()));
        }
    }
    client.close().unwrap();
    server.shutdown();
    Ok(())
}

/// A `WHERE` over a join's rows `(k, v, s_k, s_v)` (an anti join's
/// `(k, v)`): its text, the deterministic selection, and whether it reads
/// a right column. Left, right and both-side predicates, so that over
/// every join some run below it and some stay above.
type Selection = (&'static str, fn(&Row) -> bool, bool);

/// `row[i] op c`, false on NULL.
fn cmp(row: &Row, i: usize, op: fn(&i64, &i64) -> bool, c: i64) -> bool {
    row[i].is_some_and(|x| op(&x, &c))
}

const SELECTIONS: [Selection; 4] = [
    ("v = 1", |row| cmp(row, 1, i64::eq, 1), false),
    ("k <> 0", |row| cmp(row, 0, i64::ne, 0), false),
    ("s_v = 0", |row| cmp(row, 3, i64::eq, 0), true),
    (
        "v >= 1 AND s_k < 1",
        |row| cmp(row, 1, i64::ge, 1) && cmp(row, 2, i64::lt, 1),
        true,
    ),
];

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64, i64, f64)>> {
    let probability = prop_oneof![Just(1.0), Just(0.5), 0.05f64..0.95];
    proptest::collection::vec(
        (0i64..2, 0i64..2, 0i64..HORIZON, 1i64..6, probability),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_operator_on_base_relations(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        for op in OPS {
            let expected = oracle(&r, &s, |r_t, s_t| op.eval(r_t, s_t));
            check(&r, &s, &|suffix| op.sql("r", "s", suffix), &expected)?;
        }
    }

    #[test]
    fn every_operator_as_a_self_join(rows_r in rows_strategy()) {
        // Both operands are snapshots of the same world: `r2`'s tuples are
        // `r`'s, variable for variable, so the lineages are correlated
        // (`x ∧ x`, `x ∧ ¬x`) and only Shannon expansion prices them.
        let r = bases(&rows_r);
        for op in OPS {
            let expected = oracle(&r, &[], |r_t, _| op.eval(r_t, r_t));
            check(&r, &[], &|suffix| op.sql("r", "r2", suffix), &expected)?;
        }
    }

    #[test]
    fn a_selection_over_every_join(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        for op in &OPS[..5] {
            for (clause, keep, right) in SELECTIONS {
                if right && matches!(op, Op::Anti) {
                    continue;
                }
                let expected = oracle(&r, &s, |r_t, s_t| {
                    op.eval(r_t, s_t).into_iter().filter(keep).collect()
                });
                let query = |suffix: &str| format!("{} WHERE {clause}{suffix}", op.sql("r", "s", ""));
                check(&r, &s, &query, &expected)?;
            }
        }
    }

    #[test]
    fn union_then_except_over_shared_lineage(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        let expected = oracle(&r, &s, |r_t, s_t| {
            Op::Except.eval(&facts_of(&Op::Union.eval(r_t, s_t)), r_t)
        });
        let query = |suffix: &str| {
            format!(
                "(SELECT * FROM r UNION SELECT * FROM s{suffix}) EXCEPT SELECT * FROM r{suffix}"
            )
        };
        check(&r, &s, &query, &expected)?;
    }

    /// `(r ∪ s) ∩ r`: a row over both is `(x_r ∨ x_s) ∧ x_r`.
    #[test]
    fn union_then_intersect_over_shared_lineage(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        let expected = oracle(&r, &s, |r_t, s_t| {
            Op::Intersect.eval(&facts_of(&Op::Union.eval(r_t, s_t)), r_t)
        });
        let query = |suffix: &str| {
            format!(
                "(SELECT * FROM r UNION SELECT * FROM s{suffix}) INTERSECT SELECT * FROM r{suffix}"
            )
        };
        check(&r, &s, &query, &expected)?;
    }

    /// `r − (r ∪ s)`: a row negates a union over its own variable,
    /// `x_r ∧ ¬(x_r ∨ x_s)`.
    #[test]
    fn except_a_union_over_shared_lineage(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        let expected = oracle(&r, &s, |r_t, s_t| {
            Op::Except.eval(r_t, &facts_of(&Op::Union.eval(r_t, s_t)))
        });
        let query = |suffix: &str| {
            format!(
                "SELECT * FROM r EXCEPT (SELECT * FROM r UNION SELECT * FROM s{suffix})"
            )
        };
        check(&r, &s, &query, &expected)?;
    }

    /// `(r ∪ s) − s`: the chain above with the other side negated.
    #[test]
    fn union_then_except_its_right_side(rows_r in rows_strategy(), rows_s in rows_strategy()) {
        let (r, s) = (bases(&rows_r), bases(&rows_s));
        let expected = oracle(&r, &s, |r_t, s_t| {
            Op::Except.eval(&facts_of(&Op::Union.eval(r_t, s_t)), s_t)
        });
        let query = |suffix: &str| {
            format!(
                "(SELECT * FROM r UNION SELECT * FROM s{suffix}) EXCEPT SELECT * FROM s{suffix}"
            )
        };
        check(&r, &s, &query, &expected)?;
    }
}

// ---- projection: pinned ahead of its fix ----------------------------------
//
// A projection that drops a column must coalesce the rows whose projected
// facts are equal: over the time points where several of them hold, the
// fact holds with the probability of their disjunction. ROADMAP item 1
// fixes this; until then these tests are ignored.

/// `r(k, v)` = {(1, 1) on [0,5), (1, 2) on [2,8)} and `s` = {(1, 3) on
/// [4,9)}, each with probability 0.5.
fn projection_inputs() -> (Vec<Base>, Vec<Base>) {
    let r = bases(&[(1, 1, 0, 5, 0.5), (1, 2, 2, 6, 0.5)]);
    let s = bases(&[(1, 3, 4, 5, 0.5)]);
    (r, s)
}

/// The deterministic `π_k` of a snapshot's rows, whose `k` is column `at`.
fn project_k(rows: impl IntoIterator<Item = Row>, at: usize) -> Vec<Row> {
    let mut ks: Vec<Row> = rows.into_iter().map(|row| vec![row[at]]).collect();
    ks.sort();
    ks.dedup();
    ks
}

#[test]
#[ignore = "projection keeps duplicates: fact 1 is reported twice at t=2 (x0 and x1, \
            0.5 each) instead of once as x0 ∨ x1 = 0.75 on [2,5); ROADMAP item 1"]
fn a_projection_coalesces_equal_facts() {
    let (r, s) = projection_inputs();
    let expected = oracle(&r, &s, |r_t, _| project_k(r_t.iter().map(single), 0));
    assert_eq!(expected.get(&(vec![Some(1)], 2)), Some(&0.75));
    check(&r, &s, &|_| "SELECT k FROM r".to_owned(), &expected).unwrap();
}

#[test]
#[ignore = "projection keeps duplicates: fact 1 is reported twice at t=4 (x0 ∨ x2 and \
            x1 ∨ x2, 0.75 each) instead of once as x0 ∨ x1 ∨ x2 = 0.875; ROADMAP item 1"]
fn a_union_of_projections_coalesces_equal_facts() {
    let (r, s) = projection_inputs();
    let expected = oracle(&r, &s, |r_t, s_t| {
        project_k(r_t.iter().chain(s_t).map(single), 0)
    });
    assert_eq!(expected.get(&(vec![Some(1)], 4)), Some(&0.875));
    let query = |_: &str| "(SELECT k FROM r) UNION (SELECT k FROM s)".to_owned();
    check(&r, &s, &query, &expected).unwrap();
}

#[test]
#[ignore = "projection keeps duplicates: fact 1 is reported four times at t=4 (x0 ∧ x2, \
            x0 ∧ ¬x2, x1 ∧ x2, x1 ∧ ¬x2, 0.25 each) instead of once as x0 ∨ x1 = 0.75; \
            ROADMAP item 1"]
fn a_projected_left_outer_join_coalesces_equal_facts() {
    let (r, s) = projection_inputs();
    let expected = oracle(&r, &s, |r_t, s_t| project_k(Op::Left.eval(r_t, s_t), 0));
    assert_eq!(expected.get(&(vec![Some(1)], 4)), Some(&0.75));
    let query = |suffix: &str| format!("SELECT k FROM r TP LEFT JOIN s ON r.k = s.k{suffix}");
    check(&r, &s, &query, &expected).unwrap();
}
