//! The bytes of the wire's row frames, checked against an independent
//! reference: the rendering the server used before rows were written in
//! place — a recursive `String`-building lineage printer, `escape(&value.
//! to_string())` per fact and `fields.join("\t")` — kept here verbatim. The
//! served-mix oracle and `concurrency.rs` compare the server with
//! `render_relation_rows`, the same row writer the server runs, so they
//! check framing and transport; this file is what holds the row bytes.
//!
//! The reference reads `lineage()`, which builds a deferred tree, so every
//! check renders through the protocol first and records that rendering left
//! each deferred lineage deferred.

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tpdb_core::{tp_difference, tp_intersection, tp_join, tp_union, ThetaCondition, TpJoinKind};
use tpdb_lineage::{Lineage, LineageNode, VarId};
use tpdb_query::Session;
use tpdb_server::protocol::{
    render_relation_rows, render_tuple, rows_response, write_rows_frame, CHUNK_BYTES,
};
use tpdb_server::{Client, Server, ServerConfig};
use tpdb_storage::{Catalog, DataType, Field, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::{Interval, MAX_TIME, MIN_TIME};

/// The rendering of the wire before rows were written in place.
mod reference {
    use super::*;

    pub fn escape_field(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                _ => out.push(c),
            }
        }
        out
    }

    /// `Lineage`'s text with no symbol names: `x<id>` per variable.
    pub fn lineage(l: &Lineage) -> String {
        fn go(l: &Lineage, out: &mut String, parent_prec: u8) {
            // precedences: Or = 1, And = 2, Not/atom = 3
            match l.node() {
                LineageNode::True => out.push('⊤'),
                LineageNode::False => out.push('⊥'),
                LineageNode::Var(v) => out.push_str(&v.to_string()),
                LineageNode::Not(c) => {
                    out.push('¬');
                    go(c, out, 3);
                }
                LineageNode::And(cs) => {
                    let need_paren = parent_prec > 2;
                    if need_paren {
                        out.push('(');
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" ∧ ");
                        }
                        go(c, out, 2);
                    }
                    if need_paren {
                        out.push(')');
                    }
                }
                LineageNode::Or(cs) => {
                    let need_paren = parent_prec > 1;
                    if need_paren {
                        out.push('(');
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" ∨ ");
                        }
                        go(c, out, 1);
                    }
                    if need_paren {
                        out.push(')');
                    }
                }
            }
        }
        let mut s = String::new();
        go(l, &mut s, 0);
        s
    }

    pub fn tuple(tuple: &TpTuple) -> String {
        let mut fields: Vec<String> = tuple
            .facts()
            .iter()
            .map(|v| escape_field(&v.to_string()))
            .collect();
        fields.push(tuple.interval().to_string());
        fields.push(tuple.probability().to_string());
        fields.push(escape_field(&lineage(tuple.lineage())));
        fields.join("\t")
    }

    pub fn schema(schema: &Schema) -> String {
        let cols: Vec<String> = schema
            .fields()
            .iter()
            .map(|f| format!("{}:{}", escape_field(&f.name), f.dtype))
            .collect();
        cols.join("\t")
    }

    pub fn rows(relation: &TpRelation) -> Vec<String> {
        relation.iter().map(tuple).collect()
    }

    pub fn frame(relation: &TpRelation) -> String {
        let rows = rows(relation);
        let mut out = format!(
            "ROWS {}\nSCHEMA {}\n",
            rows.len(),
            schema(relation.schema())
        );
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out.push_str("OK\n");
        out
    }
}

/// The chunks [`write_rows_frame`] hands to its flush, in order.
fn chunks(relation: &TpRelation) -> Vec<String> {
    let mut chunks = Vec::new();
    let mut out = String::new();
    write_rows_frame(&mut out, relation, |chunk| {
        chunks.push(chunk.to_owned());
        Ok::<(), ()>(())
    })
    .unwrap();
    assert!(out.is_empty(), "the last chunk was not flushed");
    chunks
}

/// Which lineages of `relation` are still deferred.
fn deferred(relation: &TpRelation) -> Vec<bool> {
    relation
        .iter()
        .map(|t| t.lazy_lineage().is_deferred())
        .collect()
}

/// Renders `relation` every way the protocol can — the server's frame,
/// the one-shot rows and the `Response` encoding — then checks that no
/// deferred lineage was built and that all three equal the reference.
fn check_against_reference(relation: &TpRelation) -> Result<(), String> {
    let before = deferred(relation);
    let frame = chunks(relation).concat();
    let rows = render_relation_rows(relation);
    let encoded = rows_response(relation).encode();
    if deferred(relation) != before {
        return Err(format!(
            "rendering built a deferred lineage of `{}`",
            relation.name()
        ));
    }
    let want = reference::frame(relation);
    if frame != want {
        return Err(format!(
            "frame of `{}`:\n{frame}\nwant:\n{want}",
            relation.name()
        ));
    }
    if encoded != want {
        return Err(format!("encoded response of `{}` differs", relation.name()));
    }
    if rows != reference::rows(relation) {
        return Err(format!("rows of `{}` differ", relation.name()));
    }
    // A lineage is written unescaped: its text holds no escaped character.
    for t in relation.iter() {
        let text = t.lazy_lineage().to_string();
        if text.contains(['\\', '\t', '\n', '\r']) {
            return Err(format!("lineage text {text:?} needs escaping"));
        }
    }
    Ok(())
}

/// Pieces of hostile text: the four escaped characters, multi-byte UTF-8,
/// and plain ASCII.
const PIECES: [&str; 11] = [
    "\t", "\n", "\r", "\\", "\\t", "ä", "中", "🦀", "¬", "a", " ",
];

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..6)
        .prop_map(|pieces| pieces.into_iter().map(|i| PIECES[i]).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9..1e9f64).prop_map(Value::Float),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-0.0),
            Just(1e300),
            Just(5e-324),
        ]
        .prop_map(Value::Float),
        arb_text().prop_map(|s| Value::str(&s)),
    ]
}

fn arb_lineage() -> impl Strategy<Value = Lineage> {
    let leaf = prop_oneof![
        (0u32..8).prop_map(|i| Lineage::var(VarId(i))),
        Just(Lineage::var(VarId(u32::MAX))),
        Just(Lineage::tru()),
        Just(Lineage::fls()),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Lineage::not),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Lineage::and),
            proptest::collection::vec(inner, 2..4).prop_map(Lineage::or),
        ]
    })
}

/// A keyed base relation `(Key, Note)` over `0..12`: keys drawn from four
/// hostile strings so that joins match, notes arbitrary, and no fact held
/// twice at a time point (base relations are duplicate-free).
fn keyed(catalog: &mut Catalog, name: &str, rows: &[(usize, String, i64, i64, f64)]) -> TpRelation {
    const KEYS: [&str; 4] = ["k\t1", "k\n2", "ä\\3", "中\r"];
    let schema = Schema::tp(&[("Key", DataType::Str), ("No\tte", DataType::Str)]);
    let mut kept: Vec<(usize, &str, i64, i64)> = Vec::new();
    let mut builder = catalog.create_relation(name, schema).unwrap();
    for (key, note, start, len, p) in rows {
        let end = start + len;
        let clashes = kept
            .iter()
            .any(|&(k, n, s, e)| (k, n) == (*key, note.as_str()) && s < end && *start < e);
        if clashes {
            continue;
        }
        kept.push((*key, note, *start, end));
        builder.push(
            vec![Value::str(KEYS[*key]), Value::str(note)],
            Interval::new(*start, end),
            *p,
        );
    }
    TpRelation::clone(&builder.finish())
}

fn arb_rows() -> impl Strategy<Value = Vec<(usize, String, i64, i64, f64)>> {
    proptest::collection::vec(
        (
            0usize..4,
            prop_oneof![Just(String::new()), Just("ä\t".to_owned()), arb_text()],
            0i64..10,
            1i64..5,
            0.05..1.0f64,
        ),
        0..7,
    )
}

/// The outputs of all five joins (certified: deferred recipes of every
/// shape), self-joins (uncertified: trees built eagerly), the three set
/// operations and `(r ∪ s) − r` (a derived input sharing variables, run
/// through a session so the catalog prices it).
fn operator_outputs(catalog: &Catalog, r: &TpRelation, s: &TpRelation) -> Vec<TpRelation> {
    let theta = ThetaCondition::column_equals("Key", "Key");
    let mut out: Vec<TpRelation> = [
        TpJoinKind::Inner,
        TpJoinKind::LeftOuter,
        TpJoinKind::RightOuter,
        TpJoinKind::FullOuter,
        TpJoinKind::Anti,
    ]
    .into_iter()
    .map(|kind| tp_join(r, s, &theta, kind).unwrap())
    .collect();
    out.push(tp_join(r, r, &theta, TpJoinKind::FullOuter).unwrap());
    out.push(tp_join(r, r, &theta, TpJoinKind::Anti).unwrap());
    out.push(tp_union(r, s).unwrap());
    out.push(tp_intersection(r, s).unwrap());
    out.push(tp_difference(r, s).unwrap());
    let chain = "(SELECT * FROM r UNION SELECT * FROM s) EXCEPT SELECT * FROM r";
    out.push(Session::new(catalog.clone()).execute(chain).unwrap());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn prop_hostile_facts_and_random_lineages_render_as_the_reference(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec(arb_value(), 0..4),
                arb_lineage(),
                -5i64..20,
                1i64..1000,
                0.0..=1.0f64,
            ),
            0..6,
        ),
        name in arb_text()
    ) {
        let mut fields = vec![Field::new(&name, DataType::Str)];
        for i in 1..4 {
            fields.push(Field::new(&format!("c{i}"), DataType::Int));
        }
        let mut relation = TpRelation::new("hostile", Schema::new(fields));
        for (facts, lineage, start, len, p) in rows {
            let tuple = TpTuple::new(facts, lineage, Interval::new(start, start + len), p);
            prop_assert_eq!(render_tuple(&tuple), reference::tuple(&tuple));
            relation.push_unchecked(tuple);
        }
        check_against_reference(&relation)?;
    }

    #[test]
    fn prop_join_and_set_operation_outputs_render_as_the_reference(
        r_rows in arb_rows(),
        s_rows in arb_rows()
    ) {
        let mut catalog = Catalog::new();
        let r = keyed(&mut catalog, "r", &r_rows);
        let s = keyed(&mut catalog, "s", &s_rows);
        for output in operator_outputs(&catalog, &r, &s) {
            check_against_reference(&output)?;
        }
    }
}

/// The values at the edges of each field's writer: the digit writer's
/// (integer facts, interval endpoints and variable ids at their extremes
/// and around every power of ten), the `Display`-written floats, booleans
/// and NULL, and strings holding every escape and multi-byte text.
#[test]
fn field_writer_edges_render_as_the_reference() {
    let mut ints = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    for k in 0..19 {
        let p = 10i64.pow(k);
        ints.extend([p - 1, p, p + 1, -p - 1, -p, 1 - p]);
    }
    let mut facts: Vec<Value> = ints.into_iter().map(Value::Int).collect();
    facts.extend(
        [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            5e-324,
            0.1,
        ]
        .map(Value::Float),
    );
    facts.extend([Value::Bool(true), Value::Bool(false), Value::Null]);
    facts.extend(["\\\t\n\r", "a\\tb", "ä中🦀¬", "", "-"].map(Value::str));
    let intervals = [
        Interval::new(MIN_TIME, MAX_TIME),
        Interval::new(i64::MIN, i64::MAX),
        Interval::new(-1, 0),
        Interval::new(9, 10),
        Interval::new(99_999, 100_001),
    ];
    let (low, high) = (Lineage::var(VarId(0)), Lineage::var(VarId(u32::MAX)));
    let lineages = [
        low.clone(),
        high.clone(),
        Lineage::and_not_concat(&low, &Lineage::or2(high.clone(), Lineage::var(VarId(10)))),
        Lineage::or2(Lineage::and2(low, high), Lineage::var(VarId(999_999_999))),
    ];
    let schema = Schema::new(vec![Field::new("v", DataType::Str)]);
    let mut relation = TpRelation::new("edges", schema);
    for (i, fact) in facts.into_iter().enumerate() {
        let tuple = TpTuple::new(
            vec![fact],
            lineages[i % lineages.len()].clone(),
            intervals[i % intervals.len()],
            [0.0, 1.0, 0.1, 5e-324][i % 4],
        );
        assert_eq!(render_tuple(&tuple), reference::tuple(&tuple));
        relation.push_unchecked(tuple);
    }
    check_against_reference(&relation).unwrap();
}

/// A `ROWS` frame leaves in chunks that concatenate to the reference
/// frame. Every chunk ends on a line; each but the last holds at least
/// `CHUNK_BYTES` and at most `CHUNK_BYTES` plus its last line, the last
/// less than `CHUNK_BYTES` plus the terminator. Checked with no rows, one
/// row, rows that end exactly on the chunk boundary and one byte short of
/// it, and the 2 575-row webkit anti join (three chunks).
#[test]
fn chunked_frames_concatenate_to_the_reference() {
    let schema = Schema::new(vec![Field::new("pad", DataType::Str)]);
    // `n` rows of a 1 000-byte string fact, the last grown by `extra` bytes.
    let padded = |n: usize, extra: usize| {
        let mut relation = TpRelation::new("padded", schema.clone());
        for i in 0..n {
            let len = if i + 1 == n { 1000 + extra } else { 1000 };
            relation.push_unchecked(TpTuple::new(
                vec![Value::str(&"p".repeat(len))],
                Lineage::var(VarId(i as u32)),
                Interval::new(i as i64, i as i64 + 1),
                0.5,
            ));
        }
        relation
    };
    // 60 rows end this many bytes into their frame; growing the last row
    // by the rest puts its end on the boundary.
    let ends_at = reference::frame(&padded(60, 0)).len() - "OK\n".len();
    assert!(ends_at < CHUNK_BYTES, "{ends_at}");
    let (r, s) = tpdb_datagen::webkit_like(1000, 7);
    let theta = ThetaCondition::column_equals("Key", "Key");
    let anti = tp_join(&r, &s, &theta, TpJoinKind::Anti).unwrap();
    assert_eq!(anti.len(), 2575);
    let cases = [
        (padded(0, 0), Some(vec![25])),
        (padded(1, 0), None),
        (
            padded(60, CHUNK_BYTES - ends_at),
            Some(vec![CHUNK_BYTES, 3]),
        ),
        (
            padded(60, CHUNK_BYTES - ends_at - 1),
            Some(vec![CHUNK_BYTES + 2]),
        ),
        (anti, None),
    ];
    for (relation, sizes) in cases {
        let want = reference::frame(&relation);
        let chunks = chunks(&relation);
        assert_eq!(chunks.concat(), want, "{} rows", relation.len());
        let lengths: Vec<usize> = chunks.iter().map(String::len).collect();
        if let Some(sizes) = sizes {
            assert_eq!(lengths, sizes);
        }
        let (last, full) = chunks.split_last().unwrap();
        assert!(last.ends_with("OK\n") && last.len() < CHUNK_BYTES + 3);
        for chunk in full {
            let line = chunk[..chunk.len() - 1]
                .rfind('\n')
                .map_or(chunk.len(), |i| chunk.len() - i - 1);
            assert!(chunk.ends_with('\n'), "a chunk ends mid-line");
            assert!(
                (CHUNK_BYTES..CHUNK_BYTES + line).contains(&chunk.len()),
                "a {}-byte chunk whose last line is {line} bytes",
                chunk.len()
            );
        }
        if relation.len() == 2575 {
            assert_eq!(
                chunks.len(),
                want.len().div_ceil(CHUNK_BYTES),
                "{lengths:?}"
            );
            check_against_reference(&relation).unwrap();
        }
    }
}

/// Over the meteo workload every recipe shape occurs — `λr ∧ λs`,
/// `λr ∧ ¬λs` and `λr ∧ ¬(c₁ ∨ … ∨ c_k)` — and each prints its tree's text.
#[test]
fn every_recipe_shape_renders_as_the_reference() {
    let (r, s) = tpdb_datagen::meteo_like(300, 7);
    let theta = ThetaCondition::column_equals("Metric", "Metric");
    let full = tp_join(&r, &s, &theta, TpJoinKind::FullOuter).unwrap();
    let deferred_rows: Vec<String> = full
        .iter()
        .filter(|t| t.lazy_lineage().is_deferred())
        .map(render_tuple)
        .collect();
    let lineage_of = |row: &String| row.rsplit('\t').next().unwrap_or_default().to_owned();
    let shapes = [
        |l: &str| l.contains(" ∧ ") && !l.contains('¬'),
        |l: &str| l.contains(" ∧ ¬x"),
        |l: &str| l.contains(" ∧ ¬(") && l.contains(" ∨ "),
    ];
    for (i, shape) in shapes.iter().enumerate() {
        assert!(
            deferred_rows.iter().any(|row| shape(&lineage_of(row))),
            "no deferred row of shape {i}"
        );
    }
    check_against_reference(&full).unwrap();
}

/// The rows a server sends equal the reference rendering of the same
/// statement run in process, for every operator, a self-join and a filter
/// over hostile keys.
#[test]
fn served_rows_equal_the_reference_rendering() {
    let mut catalog = Catalog::new();
    let rows = |seed: usize| -> Vec<(usize, String, i64, i64, f64)> {
        (0..12)
            .map(|i| {
                let k = (i * 7 + seed) % 4;
                let note = PIECES[(i + seed) % PIECES.len()].repeat(i % 3);
                let start = ((i * 5 + seed) % 9) as i64;
                (k, note, start, 1 + (i % 4) as i64, 0.1 + 0.07 * i as f64)
            })
            .collect()
    };
    keyed(&mut catalog, "r", &rows(0));
    keyed(&mut catalog, "s", &rows(3));
    let session = Session::new(catalog.clone());
    let server = Server::start(catalog, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let statements = [
        "SELECT * FROM r TP INNER JOIN s ON r.Key = s.Key",
        "SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key",
        "SELECT * FROM r TP RIGHT JOIN s ON r.Key = s.Key",
        "SELECT * FROM r TP FULL OUTER JOIN s ON r.Key = s.Key",
        "SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key",
        "SELECT * FROM r TP FULL OUTER JOIN r ON r.Key = r.Key",
        "SELECT * FROM r UNION SELECT * FROM s",
        "SELECT * FROM r INTERSECT SELECT * FROM s",
        "SELECT * FROM r EXCEPT SELECT * FROM s",
        "(SELECT * FROM r UNION SELECT * FROM s) EXCEPT SELECT * FROM r",
        "SELECT * FROM r WHERE Key = 'ä\\3'",
    ];
    for statement in statements {
        let local = session.execute(statement).unwrap();
        let served = client.query(statement).unwrap();
        assert_eq!(
            served.schema,
            reference::schema(local.schema()),
            "{statement}"
        );
        assert_eq!(served.rows, reference::rows(&local), "{statement}");
    }
    client.close().unwrap();
    server.shutdown();
}

/// The paper's Fig. 1 left outer join as the server sends it, byte for
/// byte: seven rows, Ann's `[5,6)` window with lineage `x0 ∧ ¬(x4 ∨ x3)`.
#[test]
fn the_booking_left_join_frame_is_pinned() {
    const GOLDEN: &str = "ROWS 7\n\
        SCHEMA Name:STR\tLoc:STR\tHotel:STR\ts_Loc:STR\n\
        Ann\tZAK\t-\t-\t[2,4)\t0.7\tx0\n\
        Ann\tZAK\thotel1\tZAK\t[4,6)\t0.48999999999999994\tx0 ∧ x4\n\
        Ann\tZAK\thotel2\tZAK\t[5,8)\t0.42\tx0 ∧ x3\n\
        Ann\tZAK\t-\t-\t[4,5)\t0.21000000000000002\tx0 ∧ ¬x4\n\
        Ann\tZAK\t-\t-\t[5,6)\t0.08399999999999999\tx0 ∧ ¬(x4 ∨ x3)\n\
        Ann\tZAK\t-\t-\t[6,8)\t0.27999999999999997\tx0 ∧ ¬x3\n\
        Jim\tWEN\t-\t-\t[7,10)\t0.8\tx1\n\
        OK\n";
    let mut catalog = Catalog::new();
    let (a, b) = tpdb_datagen::booking_example();
    catalog.register(a).unwrap();
    catalog.register(b).unwrap();
    let server = Server::start(catalog, ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    (&stream)
        .write_all(b"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc\n")
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut frame = String::new();
    while !frame.ends_with("OK\n") {
        assert!(reader.read_line(&mut frame).unwrap() > 0, "EOF mid-frame");
    }
    assert_eq!(frame, GOLDEN);
    drop(reader);
    drop(stream);
    server.shutdown();
}
