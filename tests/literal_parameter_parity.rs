//! A literal written in the query text means what the same value bound to
//! `$1` means: integers are read exactly (no detour through `f64`), `''`
//! escapes a quote inside a string, and an integer literal out of `i64`'s
//! range is a typed parse error. Each value is checked three ways — inline,
//! prepared in process, and prepared on a server and sent by `EXECUTE` — and
//! the three results must render to the same rows. `TRUE` and `FALSE` are
//! the literals of a `Bool`.

use tpdb::query::{Session, TpdbError};
use tpdb::server::{protocol, Client, ClientError, ErrorCode, Server, ServerConfig};
use tpdb::storage::{Catalog, DataType, Schema, Value};
use tpdb::temporal::Interval;

const TWO_53: i64 = 1 << 53;

/// Integers a float cannot tell apart, the two ends of `i64`, and names
/// holding a quote.
const KEYS: [i64; 10] = [
    TWO_53 - 1,
    TWO_53,
    TWO_53 + 1,
    TWO_53 + 2,
    -TWO_53,
    -TWO_53 - 1,
    i64::MIN,
    i64::MIN + 1,
    i64::MAX - 1,
    i64::MAX,
];
const NAMES: [&str; 3] = ["O'Brien", "O", "Brien"];

/// `t(k, name)`: one tuple per key, names cycling through [`NAMES`].
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let schema = Schema::tp(&[("k", DataType::Int), ("name", DataType::Str)]);
    let mut t = catalog.create_relation("t", schema).unwrap();
    for (i, &k) in KEYS.iter().enumerate() {
        let name = NAMES[i % NAMES.len()];
        t.push(
            vec![Value::Int(k), Value::str(name)],
            Interval::new(0, 10),
            0.5,
        );
    }
    t.try_finish().unwrap();
    catalog
}

/// How `value` is written inline in query text.
fn inline(value: &Value) -> String {
    match value {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

#[test]
fn inline_literals_select_the_rows_their_parameters_select() {
    let server = Server::start(catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = Session::new(catalog());

    let mut cases: Vec<(&str, Value)> = Vec::new();
    for k in KEYS {
        for column in ["k = ", "k < ", "k >= "] {
            cases.push((column, Value::Int(k)));
        }
    }
    for name in NAMES {
        cases.push(("name = ", Value::str(name)));
    }
    for (i, (predicate, value)) in cases.into_iter().enumerate() {
        let prefix = format!("SELECT * FROM t WHERE {predicate}");
        let text = format!("{prefix}{}", inline(&value));
        let inline_rows = session.execute(&text).unwrap();
        let prepared = session
            .prepare(&format!("{prefix}$1"))
            .unwrap()
            .execute(std::slice::from_ref(&value))
            .unwrap();
        let name = format!("q{i}");
        client.prepare(&name, &format!("{prefix}$1")).unwrap();
        let served = client.execute(&name, std::slice::from_ref(&value)).unwrap();

        let rendered = protocol::render_relation_rows(&inline_rows);
        assert_eq!(
            rendered,
            protocol::render_relation_rows(&prepared),
            "inline vs $1: {text}"
        );
        assert_eq!(rendered, served.rows, "inline vs EXECUTE: {text}");
        if predicate.ends_with("= ") {
            assert!(!rendered.is_empty(), "{text} selects its own tuple");
        }
    }
    client.close().unwrap();
    server.shutdown();
}

/// `TRUE` and `FALSE`, in any case, are the literals of `Value::Bool`: each
/// spelling selects the rows `$1` bound to the same `Bool` selects, in
/// process and on a server.
#[test]
fn boolean_literals_select_the_rows_their_parameters_select() {
    let mut catalog = Catalog::new();
    let schema = Schema::tp(&[("k", DataType::Int), ("ok", DataType::Bool)]);
    let mut flags = catalog.create_relation("flags", schema).unwrap();
    for k in 0..6 {
        flags.push(
            vec![Value::Int(k), Value::Bool(k % 3 == 0)],
            Interval::new(0, 10),
            0.5,
        );
    }
    flags.try_finish().unwrap();
    let server = Server::start(catalog.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = Session::new(catalog);

    for (literals, value) in [
        (["TRUE", "true", "True"], Value::Bool(true)),
        (["FALSE", "false", "fAlSe"], Value::Bool(false)),
    ] {
        for op in ["=", "<>"] {
            let prefix = format!("SELECT * FROM flags WHERE ok {op} ");
            let prepared = session
                .prepare(&format!("{prefix}$1"))
                .unwrap()
                .execute(std::slice::from_ref(&value))
                .unwrap();
            let rendered = protocol::render_relation_rows(&prepared);
            assert!(!rendered.is_empty(), "{prefix}{value}");
            let name = format!("b{value}{}", op.len());
            client.prepare(&name, &format!("{prefix}$1")).unwrap();
            let served = client.execute(&name, std::slice::from_ref(&value)).unwrap();
            assert_eq!(rendered, served.rows, "$1 vs EXECUTE: {prefix}{value}");
            for literal in literals {
                let text = format!("{prefix}{literal}");
                let inline_rows = session.execute(&text).unwrap();
                assert_eq!(
                    protocol::render_relation_rows(&inline_rows),
                    rendered,
                    "inline vs $1: {text}"
                );
            }
        }
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn integer_literals_out_of_range_are_parse_errors_at_the_literal() {
    let server = Server::start(catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = Session::new(catalog());
    for literal in [
        "99999999999999999999",
        "9223372036854775808",
        "-9223372036854775809",
    ] {
        let text = format!("SELECT * FROM t WHERE k = {literal}");
        match session.execute(&text) {
            Err(TpdbError::Parse(e)) => {
                let start = text.len() - literal.len();
                assert_eq!((e.span.start, e.span.end), (start, text.len()), "{text}");
                assert_eq!(e.token.as_deref(), Some(literal), "{text}");
            }
            other => panic!("{text}: expected a parse error, got {other:?}"),
        }
        match client.query(&text) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Parse),
            other => panic!("{text}: expected a served parse error, got {other:?}"),
        }
    }
    client.close().unwrap();
    server.shutdown();
}
