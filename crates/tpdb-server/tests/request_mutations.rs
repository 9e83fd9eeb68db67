//! Seeded byte-mutation loops over the two parsers a request line meets:
//! `protocol::parse_request`, which reads the line, and
//! `tpdb_query::parse_query`, which reads the statement text it carries.
//! Valid lines — the served-mix statements, `EXECUTE` with literals of
//! every type, `PREPARE` and `LOAD SNAPSHOT` — are flipped, grown and
//! shrunk thousands of times; every mutant must give `Ok` or a typed error,
//! never a panic. A statement that parses is also explained (planned,
//! never executed) against a small catalog, and an `EXECUTE`'s literals are
//! bound to a prepared statement, so planning and binding see the same
//! hostile text.
//!
//! The mutations are biased towards what steers the parsers: quotes,
//! parentheses, commas, `$`, digits, signs and exponents, keywords and
//! whitespace. A line is bytes on the wire; a mutant that is no longer
//! UTF-8 is read with replacement characters, as nothing else reaches the
//! parser (the connection's line reader refuses invalid UTF-8).

use std::time::{Duration, Instant};
use tpdb_query::{parse_query, Session};
use tpdb_server::protocol::{parse_request, Request};
use tpdb_storage::{Catalog, Value};

/// SplitMix64: a fixed seed gives the same mutants on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The served-mix statements, as text and behind `PREPARE`, and the other
/// request lines the workload sends.
const SEEDS: [&str; 14] = [
    "SELECT * FROM meteo_r WHERE Metric = $1",
    "SELECT * FROM small_r TP LEFT JOIN small_s ON small_r.Metric = small_s.Metric WHERE Metric = $1",
    "SELECT * FROM webkit_r TP ANTI JOIN webkit_s ON webkit_r.Key = webkit_s.Key",
    "(SELECT * FROM small_r UNION SELECT * FROM small_s) EXCEPT SELECT * FROM small_r",
    "SELECT * FROM small_r WHERE Metric = 7 AND Station < 1003",
    "SELECT Station, Metric FROM small_r WHERE Station >= -2.5e3 AND Metric <> 3",
    "PREPARE drill AS SELECT * FROM meteo_r WHERE Metric = $1",
    "PREPARE small_join AS SELECT * FROM small_r TP LEFT JOIN small_s ON small_r.Metric = small_s.Metric WHERE Metric = $1",
    "EXECUTE drill (7)",
    "EXECUTE small_join ('O''Brien', -9223372036854775808, 1.5e-7, TRUE, NULL)",
    "EXECUTE drill",
    "EXPLAIN SELECT * FROM webkit_r TP FULL OUTER JOIN webkit_s ON webkit_r.Key = webkit_s.Key",
    "LOAD SNAPSHOT 'snapshots/served mix.snap'",
    "SAVE SNAPSHOT 'state.snap'",
];

/// Bytes that steer the two parsers, and pieces of text inserted whole.
const STEERING: [u8; 16] = [
    b'\'', b'(', b')', b',', b'$', b'-', b'.', b'e', b'0', b'9', b' ', b'\t', b'=', b'<', b'\\',
    0xFF,
];
const PIECES: [&str; 12] = [
    "''",
    "$0",
    "$99999999999999999999",
    "(",
    "SELECT * FROM small_r",
    " UNION ",
    " TP ANTI JOIN ",
    " ON ",
    " WHERE ",
    "1e400",
    "ä中",
    "EXECUTE ",
];

/// One mutant: a few bytes replaced, inserted or deleted, or a piece of
/// text inserted, and one time in four the line cut short.
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = rng.pick(&STEERING),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                let piece = rng.pick(&PIECES);
                bytes.splice(at..at, piece.bytes());
            }
            3 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            _ => bytes.insert(at, rng.pick(&STEERING)),
        }
    }
    if rng.below(4) == 0 {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A catalog holding the relations the seeds name, a few tuples each
/// (`small_*` are copies of `meteo_*`).
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let (meteo_r, meteo_s) = tpdb_datagen::meteo_like(40, 3);
    let (webkit_r, webkit_s) = tpdb_datagen::webkit_like(40, 3);
    let small_r = meteo_r.renamed("small_r");
    let small_s = meteo_s.renamed("small_s");
    for relation in [meteo_r, meteo_s, webkit_r, webkit_s, small_r, small_s] {
        catalog.register(relation).unwrap();
    }
    catalog
}

#[test]
fn mutated_request_lines_parse_or_fail_typed() {
    let session = Session::new(catalog());
    let drill = session.prepare(SEEDS[0]).unwrap();
    // Every seed is valid as it stands.
    for seed in SEEDS {
        assert!(parse_request(seed).is_ok(), "{seed}");
    }
    for statement in &SEEDS[..6] {
        session.explain(statement).unwrap();
    }

    let started = Instant::now();
    let mut rng = Rng(0x11E_5EED);
    let (mut requests, mut statements) = (0, 0);
    for round in 0..6000 {
        let line = mutate(SEEDS[round % SEEDS.len()], &mut rng);
        let text = match parse_request(&line) {
            Err(e) => {
                assert!(!e.to_string().is_empty(), "{line:?}");
                continue;
            }
            Ok(Request::Query(text) | Request::Explain(text)) => text,
            Ok(Request::Prepare { name, text }) => {
                assert!(!name.is_empty() && line.contains(&name), "{line:?}");
                text
            }
            Ok(Request::Execute { params, .. }) => {
                // Wrong counts and mistyped values are typed errors.
                drop(drill.explain_bound(&params));
                requests += 1;
                continue;
            }
            Ok(_) => continue,
        };
        requests += 1;
        match parse_query(&text) {
            Ok(_) => {
                statements += 1;
                drop(session.explain(&text));
            }
            Err(e) => assert!(
                e.span.start <= e.span.end && e.span.end <= text.len(),
                "span {:?} outside {text:?}",
                e.span
            ),
        }
        // The text alone, as a client would send it without a command.
        drop(parse_query(&line));
    }
    // Some mutants stay valid, so the loop reaches planning and binding.
    assert!(
        requests > 1000 && statements > 100,
        "{requests} / {statements}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{:?} for the mutants",
        started.elapsed()
    );
}

/// Literal lists as `EXECUTE` reads them: every mutant of a valid list is
/// a list of values or a typed error, and a list that reads back formats
/// to literals that read back as the same values.
#[test]
fn mutated_literal_lists_parse_or_fail_typed() {
    let seeds = [
        "'O''Brien', -9223372036854775808, 1.5e-7, TRUE, NULL",
        "9223372036854775807, -0.0, 1e16, NaN, inf, FALSE, ''",
        "'a,b', ' ', 'ä中🦀', -1",
    ];
    let mut rng = Rng(0x7E57_11E5);
    for round in 0..3000 {
        let list = mutate(seeds[round % seeds.len()], &mut rng);
        let Ok(values) = tpdb_server::protocol::parse_literals(&list) else {
            continue;
        };
        let formatted: Vec<String> = values
            .iter()
            .map(tpdb_server::protocol::format_literal)
            .collect();
        let again = tpdb_server::protocol::parse_literals(&formatted.join(", ")).unwrap();
        // Debug tells `Int(1)` from `Float(1.0)` and NaN from NaN.
        let debug = |values: &[Value]| format!("{values:?}");
        assert_eq!(debug(&again), debug(&values), "{list:?}");
    }
}
