//! A `WHERE` over a TP join runs below the join where that cannot change
//! the rows (on a preserved side's columns: both sides of an inner join,
//! the left of a left outer and an anti join, the right of a right outer
//! join), and an `=` over a stored relation reads the relation's memoized
//! probe index instead of testing every tuple. Neither may change a byte
//! of the answer: every statement here is checked against the rows of the
//! same statement without its `WHERE`, filtered in this file, and each is
//! run three ways — inline literals, prepared in process, and prepared on a
//! server and sent by `EXECUTE`.

use std::sync::Arc;
use tpdb::query::{CompareOp, LiteralPredicate, LogicalPlan, Session, TpSetOpKind, TpdbError};
use tpdb::server::{protocol, Client, ClientError, ErrorCode, Server, ServerConfig, ServerHandle};
use tpdb::storage::{Catalog, DataType, Schema, StorageError, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

/// A small deterministic generator (xorshift), so the relations need no
/// dependency and are the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n) as i64
    }
}

/// `r(id, k, v)` and `s(id, k, w)`: 24 tuples each over 4 join keys, with
/// a NULL in every seventh `v` and `w`, intervals inside `[0, 40)`.
fn join_catalog() -> Catalog {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut catalog = Catalog::new();
    for (name, value) in [("r", "v"), ("s", "w")] {
        let schema = Schema::tp(&[
            ("id", DataType::Int),
            ("k", DataType::Int),
            (value, DataType::Int),
        ]);
        let mut builder = catalog.create_relation(name, schema).unwrap();
        for id in 0..24 {
            let v = if id % 7 == 3 {
                Value::Null
            } else {
                Value::Int(rng.below(4))
            };
            let start = rng.below(30);
            let end = start + 1 + rng.below(10);
            let p = 0.1 + 0.8 * (rng.below(100) as f64) / 100.0;
            builder.push(
                vec![Value::Int(id), Value::Int(rng.below(4)), v],
                Interval::new(start, end),
                p,
            );
        }
        builder.try_finish().unwrap();
    }
    catalog
}

/// `l op r` as SQL means it: NULL satisfies nothing, numbers compare by
/// value. Written here rather than taken from the engine.
fn holds(op: &str, l: &Value, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    let ord = l.cmp(r);
    match op {
        "=" => ord.is_eq(),
        "<>" => ord.is_ne(),
        "<" => ord.is_lt(),
        "<=" => ord.is_le(),
        ">=" => ord.is_ge(),
        other => panic!("operator {other}"),
    }
}

/// One `column op literal` predicate.
#[derive(Clone)]
struct Pred {
    column: &'static str,
    op: &'static str,
    literal: Value,
}

impl Pred {
    fn new(column: &'static str, op: &'static str, literal: Value) -> Self {
        Self {
            column,
            op,
            literal,
        }
    }
}

/// The `WHERE` clause of `predicates`, with `$1..$n` or inline literals.
fn where_clause(predicates: &[Pred], parameters: bool) -> String {
    let terms: Vec<String> = predicates
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let operand = if parameters {
                format!("${}", i + 1)
            } else {
                protocol::format_literal(&p.literal)
            };
            format!("{} {} {operand}", p.column, p.op)
        })
        .collect();
    format!(" WHERE {}", terms.join(" AND "))
}

/// The rendered rows of `result` whose facts satisfy every predicate, in
/// the result's order.
fn filter_rows(result: &TpRelation, predicates: &[Pred]) -> Vec<String> {
    let columns: Vec<usize> = predicates
        .iter()
        .map(|p| result.schema().index_of(p.column).unwrap())
        .collect();
    let keep = |t: &TpTuple| {
        predicates
            .iter()
            .zip(&columns)
            .all(|(p, &c)| holds(p.op, t.fact(c), &p.literal))
    };
    protocol::render_relation_rows(result)
        .into_iter()
        .zip(result.iter())
        .filter(|(_, t)| keep(t))
        .map(|(row, _)| row)
        .collect()
}

/// A session and a server over the same catalog, and a client of it.
struct ThreeWays {
    session: Session,
    server: ServerHandle,
    client: Client,
    statements: usize,
}

impl ThreeWays {
    fn new(catalog: Catalog) -> Self {
        let server = Server::start(catalog.clone(), ServerConfig::default()).unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        Self {
            session: Session::new(catalog),
            server,
            client,
            statements: 0,
        }
    }

    /// Runs `select + WHERE predicates + suffix` inline, prepared and
    /// served, asserts the three agree and returns their rows.
    fn rows(&mut self, select: &str, predicates: &[Pred], suffix: &str) -> Vec<String> {
        let inline = format!("{select}{}{suffix}", where_clause(predicates, false));
        let parameterized = format!("{select}{}{suffix}", where_clause(predicates, true));
        let values: Vec<Value> = predicates.iter().map(|p| p.literal.clone()).collect();
        let rows = protocol::render_relation_rows(&self.session.execute(&inline).unwrap());
        let prepared = self
            .session
            .prepare(&parameterized)
            .unwrap()
            .execute(&values)
            .unwrap();
        assert_eq!(
            protocol::render_relation_rows(&prepared),
            rows,
            "inline vs $n: {inline}"
        );
        self.statements += 1;
        let name = format!("q{}", self.statements);
        self.client.prepare(&name, &parameterized).unwrap();
        let served = self.client.execute(&name, &values).unwrap();
        assert_eq!(served.rows, rows, "inline vs EXECUTE: {inline}");
        rows
    }

    fn finish(self) {
        self.client.close().unwrap();
        self.server.shutdown();
    }
}

const KINDS: [&str; 5] = ["INNER", "LEFT", "RIGHT", "FULL", "ANTI"];
const OPS: [&str; 4] = ["=", "<>", "<", ">="];

#[test]
fn a_where_over_any_join_selects_the_rows_it_selects_above_the_join() {
    let catalog = join_catalog();
    let mut three = ThreeWays::new(catalog);
    let mut nonempty = 0;
    for kind in KINDS {
        for strategy in ["NJ", "TA"] {
            let select = format!("SELECT * FROM r TP {kind} JOIN s ON r.k = s.k");
            let suffix = format!(" STRATEGY {strategy}");
            let unfiltered = three.session.execute(&format!("{select}{suffix}")).unwrap();
            for op in OPS {
                let left = Pred::new("v", op, Value::Int(1));
                let left_key = Pred::new("k", op, Value::Int(2));
                let right = Pred::new("w", op, Value::Int(2));
                let right_key = Pred::new("s_k", op, Value::Int(1));
                let mut cases = vec![vec![left.clone()], vec![left_key.clone(), left.clone()]];
                // An anti join's rows have no right columns.
                if kind != "ANTI" {
                    cases.push(vec![right.clone()]);
                    cases.push(vec![right_key, right.clone()]);
                    cases.push(vec![left, right.clone()]);
                    cases.push(vec![right, left_key]);
                }
                for predicates in cases {
                    let expected = filter_rows(&unfiltered, &predicates);
                    let got = three.rows(&select, &predicates, &suffix);
                    assert_eq!(
                        got,
                        expected,
                        "{select}{}{suffix}",
                        where_clause(&predicates, false)
                    );
                    nonempty += usize::from(!got.is_empty());
                }
            }
        }
    }
    // The data selects something in most cases.
    assert!(nonempty > 150, "{nonempty}");
    three.finish();
}

/// `t(id, k INT, f FLOAT, name STR)`: `k` holds NULLs, `f` holds the
/// float 2^53 and the integers 2^53 and 2^53 + 1, `name` holds quotes.
fn index_catalog() -> Catalog {
    const TWO_53: i64 = 1 << 53;
    let mut catalog = Catalog::new();
    let schema = Schema::tp(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("f", DataType::Float),
        ("name", DataType::Str),
    ]);
    let fs = [
        Value::Float(TWO_53 as f64),
        Value::Int(TWO_53 + 1),
        Value::Int(TWO_53),
        Value::Float(0.5),
        Value::Null,
    ];
    let names = ["O'Brien", "O", "Brien", "'", "''"];
    let mut builder = catalog.create_relation("t", schema).unwrap();
    for id in 0..40i64 {
        let k = if id % 6 == 5 {
            Value::Null
        } else {
            Value::Int(id % 5)
        };
        builder.push(
            vec![
                Value::Int(id),
                k,
                fs[id as usize % fs.len()].clone(),
                Value::str(names[id as usize % names.len()]),
            ],
            Interval::new(id % 9, id % 9 + 3),
            0.5,
        );
    }
    builder.try_finish().unwrap();
    catalog
}

#[test]
fn an_index_filter_selects_what_the_scan_selects() {
    const TWO_53: i64 = 1 << 53;
    let catalog = index_catalog();
    let all = Session::new(catalog.clone())
        .execute("SELECT * FROM t")
        .unwrap();
    let mut three = ThreeWays::new(catalog);
    let cases = [
        (Pred::new("k", "=", Value::Float(3.0)), 7),
        (Pred::new("k", "=", Value::Int(3)), 7),
        (Pred::new("k", "=", Value::Float(3.5)), 0),
        (Pred::new("f", "=", Value::Int(TWO_53 + 1)), 8),
        (Pred::new("f", "=", Value::Int(TWO_53)), 16),
        (Pred::new("f", "=", Value::Float(TWO_53 as f64)), 16),
        (Pred::new("k", "=", Value::Null), 0),
        (Pred::new("f", "=", Value::Null), 0),
        (Pred::new("name", "=", Value::str("O'Brien")), 8),
        (Pred::new("name", "=", Value::str("''")), 8),
    ];
    for (predicate, count) in cases {
        let expected = filter_rows(&all, std::slice::from_ref(&predicate));
        assert_eq!(expected.len(), count, "{}", predicate.column);
        // The NULL literal has no inline form: it runs prepared and served.
        let got = if predicate.literal.is_null() {
            let text = format!(
                "SELECT * FROM t{}",
                where_clause(std::slice::from_ref(&predicate), true)
            );
            let prepared = three.session.prepare(&text).unwrap();
            let values = [predicate.literal.clone()];
            let rows = protocol::render_relation_rows(&prepared.execute(&values).unwrap());
            three.statements += 1;
            let name = format!("q{}", three.statements);
            three.client.prepare(&name, &text).unwrap();
            assert_eq!(three.client.execute(&name, &values).unwrap().rows, rows);
            rows
        } else {
            three.rows("SELECT * FROM t", std::slice::from_ref(&predicate), "")
        };
        assert_eq!(
            got, expected,
            "{} = {:?}",
            predicate.column, predicate.literal
        );
        // The scan path (no `=`, so no index) selects the same rows.
        if !predicate.literal.is_null() {
            let range = [
                Pred::new(predicate.column, ">=", predicate.literal.clone()),
                Pred::new(predicate.column, "<=", predicate.literal.clone()),
            ];
            assert_eq!(three.rows("SELECT * FROM t", &range, ""), got);
        }
    }
    // A column holding NULLs: `<>` keeps no NULL, with or without an `=`.
    let ne = [Pred::new("k", "<>", Value::Int(1))];
    assert_eq!(
        three.rows("SELECT * FROM t", &ne, ""),
        filter_rows(&all, &ne)
    );
    let both = [
        Pred::new("k", "<>", Value::Int(1)),
        Pred::new("name", "=", Value::str("O")),
    ];
    assert_eq!(
        three.rows("SELECT * FROM t", &both, ""),
        filter_rows(&all, &both)
    );
    three.finish();
}

#[test]
fn repeated_executions_share_one_memoized_index() {
    let session = Session::new(index_catalog());
    let stored = session.catalog().relation("t").unwrap();
    let statement = session.prepare("SELECT * FROM t WHERE name = $1").unwrap();
    // Preparing and explaining build nothing.
    let _ = statement.explain().unwrap();
    assert!(stored.memoized_probe_index(&[3]).is_none());
    let first = statement.execute(&[Value::str("O")]).unwrap();
    let index = stored.memoized_probe_index(&[3]).unwrap();
    for name in ["O", "Brien", "nobody"] {
        statement.execute(&[Value::str(name)]).unwrap();
        let again = stored.memoized_probe_index(&[3]).unwrap();
        assert!(Arc::ptr_eq(&index, &again), "{name}");
    }
    assert_eq!(first.len(), 8);
    // A scan-path filter, a NULL and a non-stored input build none.
    session.execute("SELECT * FROM t WHERE k < 3").unwrap();
    statement.execute(&[Value::Null]).unwrap();
    let unstored = LogicalPlan::scan("t")
        .set_op(TpSetOpKind::Union, LogicalPlan::scan("t"))
        .filter(vec![LiteralPredicate::new(
            "k",
            CompareOp::Eq,
            Value::Int(1),
        )]);
    assert_eq!(session.run(&unstored).unwrap().len(), 7);
    for column in 0..3 {
        assert!(stored.memoized_probe_index(&[column]).is_none(), "{column}");
    }
}

#[test]
fn a_relation_registered_again_builds_its_index_on_its_first_execution() {
    let mut session = Session::new(index_catalog());
    let query = "SELECT * FROM t WHERE k = 2";
    let before = session.execute(query).unwrap();
    let old = session.catalog().relation("t").unwrap();
    assert!(old.memoized_probe_index(&[1]).is_some());
    let copy = TpRelation::clone(&old);
    session.catalog_mut().drop_relation("t").unwrap();
    session.catalog_mut().register(copy).unwrap();
    let new = session.catalog().relation("t").unwrap();
    assert!(new.memoized_probe_index(&[1]).is_none());
    assert_eq!(session.execute(query).unwrap(), before);
    assert!(new.memoized_probe_index(&[1]).is_some());
}

#[test]
fn explain_shows_the_filter_below_the_join_reading_the_index() {
    // The relations and the join of tpbench's `served_mix` `small_join`.
    let mut catalog = Catalog::new();
    let (r, s) = tpdb::datagen::meteo_like(400, 3);
    catalog.register(r.renamed("small_r")).unwrap();
    catalog.register(s.renamed("small_s")).unwrap();
    let session = Session::new(catalog);
    let join = "SELECT * FROM small_r TP LEFT JOIN small_s ON small_r.Metric = small_s.Metric";
    let scans = "Scan small_r (400 tuples); Scan small_s (400 tuples)";
    for (condition, physical) in [
        (
            "Metric = 3",
            format!(
                "TpJoin ⟕ [NJ] (r.Metric = s.Metric) over [Filter (Metric = 3) by index on \
                 Metric -> {scans}]"
            ),
        ),
        (
            "Metric = $1",
            format!(
                "TpJoin ⟕ [NJ] (r.Metric = s.Metric) over [Filter (Metric = NULL) by index on \
                 Metric -> {scans}]"
            ),
        ),
        (
            "Station < 3 AND Metric = 1.0",
            format!(
                "TpJoin ⟕ [NJ] (r.Metric = s.Metric) over [Filter (Station < 3 AND Metric = 1.0) \
                 by index on Metric -> {scans}]"
            ),
        ),
        (
            "s_Station >= 2 AND Metric <> 1",
            format!(
                "Filter (s_Station >= 2) -> TpJoin ⟕ [NJ] (r.Metric = s.Metric) over \
                 [Filter (Metric <> 1) -> {scans}]"
            ),
        ),
    ] {
        let text = session
            .explain(&format!("{join} WHERE {condition}"))
            .unwrap();
        assert!(
            text.contains(&format!("Physical plan:\n  {physical}\n")),
            "{text}"
        );
    }
}

#[test]
fn mistyped_predicates_are_typed_errors_inline_prepared_and_served() {
    let catalog = index_catalog();
    let server = Server::start(catalog.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = Session::new(catalog);
    let incomparable = |result: Result<TpRelation, TpdbError>, what: &str| match result {
        Err(TpdbError::Storage(StorageError::Incomparable { column, .. })) => column,
        other => panic!("{what}: expected Incomparable, got {other:?}"),
    };
    for (column, op, value) in [
        ("name", "=", Value::Int(1)),
        ("name", ">", Value::Int(1)),
        ("k", "=", Value::str("1")),
        ("f", "<", Value::str("x")),
        ("k", "=", Value::Float(1e16)),
    ] {
        let inline = format!(
            "SELECT * FROM t WHERE {column} {op} {}",
            protocol::format_literal(&value)
        );
        let parameterized = format!("SELECT * FROM t WHERE {column} {op} $1");
        let values = [value.clone()];
        if matches!(value, Value::Float(_)) {
            // INT against FLOAT compares: the exponent literal reads and runs.
            assert!(session.execute(&inline).unwrap().is_empty());
            continue;
        }
        assert_eq!(incomparable(session.execute(&inline), &inline), column);
        let prepared = session.prepare(&parameterized).unwrap();
        assert_eq!(incomparable(prepared.execute(&values), &inline), column);
        client.prepare("q", &parameterized).unwrap();
        match client.execute("q", &values) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Storage);
                assert!(message.contains("cannot compare column"), "{message}");
            }
            other => panic!("{inline}: expected a served error, got {other:?}"),
        }
    }
    // θ between a string and a number is refused the same way.
    let mut catalog = index_catalog();
    let other = catalog.relation("t").unwrap().renamed("u");
    catalog.register(other).unwrap();
    let theta = Session::new(catalog).execute("SELECT * FROM t TP INNER JOIN u ON t.name = u.k");
    assert_eq!(incomparable(theta, "θ"), "r.name");
    client.close().unwrap();
    server.shutdown();
}
