//! The degree-of-parallelism knobs that remain for source compatibility —
//! the `PARALLEL n` suffix, `Session::set_parallelism` and
//! `ServerConfig::parallelism` — change nothing: every statement runs on
//! one thread, so each knob returns the bare statement's rows byte for
//! byte, and the in-process knobs print the bare statement's `EXPLAIN`.

use tpdb::query::Session;
use tpdb::server::{protocol, Client, Server, ServerConfig};
use tpdb::storage::{Catalog, TpRelation};

const KINDS: [&str; 5] = ["INNER", "ANTI", "LEFT", "RIGHT", "FULL"];

/// The booking relations `a`, `b` and the `meteo_like` pair `meteo_r`,
/// `meteo_s` in one catalog.
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let (a, b) = tpdb::datagen::booking_example();
    let (r, s) = tpdb::datagen::meteo_like(200, 7);
    for rel in [a, b, r, s] {
        catalog.register(rel).unwrap();
    }
    catalog
}

/// The five joins on both inputs, the three set operations and
/// `(r UNION s) EXCEPT r` on `meteo_like`.
fn statements() -> Vec<String> {
    let mut out = Vec::new();
    for kind in KINDS {
        out.push(format!("SELECT * FROM a TP {kind} JOIN b ON a.Loc = b.Loc"));
        out.push(format!(
            "SELECT * FROM meteo_r TP {kind} JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric"
        ));
    }
    for op in ["UNION", "INTERSECT", "EXCEPT"] {
        out.push(format!("SELECT * FROM meteo_r {op} SELECT * FROM meteo_s"));
    }
    out.push(
        "(SELECT * FROM meteo_r UNION SELECT * FROM meteo_s) EXCEPT SELECT * FROM meteo_r"
            .to_owned(),
    );
    out
}

/// Asserts `got` is `want` row for row, probability bits included.
fn assert_identical(got: &TpRelation, want: &TpRelation, what: &str) {
    assert_eq!(got, want, "{what}");
    let bits =
        |rel: &TpRelation| -> Vec<u64> { rel.iter().map(|t| t.probability().to_bits()).collect() };
    assert_eq!(bits(got), bits(want), "{what}: probability bits");
}

#[test]
fn parallelism_knobs_change_neither_rows_nor_explain() {
    let server = Server::start(
        catalog(),
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            parallelism: 8,
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let bare_session = Session::new(catalog());
    let mut widened = Session::new(catalog());
    widened.set_parallelism(8);

    for text in statements() {
        let bare = bare_session.execute(&text).unwrap();
        assert!(!bare.is_empty(), "degenerate statement: {text}");
        let suffixed = format!("{text} PARALLEL 4");

        assert_identical(&bare_session.execute(&suffixed).unwrap(), &bare, &suffixed);
        assert_identical(
            &widened.execute(&text).unwrap(),
            &bare,
            &format!("set_parallelism(8): {text}"),
        );
        // Rendered probabilities are shortest round-trip decimals, so equal
        // lines mean equal probability bits.
        let served = client.query(&text).unwrap();
        assert_eq!(
            served.schema,
            protocol::render_schema(bare.schema()),
            "{text}"
        );
        assert_eq!(
            served.rows,
            protocol::render_relation_rows(&bare),
            "served with parallelism 8: {text}"
        );

        // Fresh sessions, so the plan-cache line reads the same everywhere.
        let explain = |session: Session, text: &str| session.explain(text).unwrap();
        let want = explain(Session::new(catalog()), &text);
        assert_eq!(explain(Session::new(catalog()), &suffixed), want);
        let mut knobbed = Session::new(catalog());
        knobbed.set_parallelism(8);
        assert_eq!(explain(knobbed, &text), want);
    }
    client.close().unwrap();
    server.shutdown();
}
