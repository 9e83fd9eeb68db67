//! Property tests for the session API: for random queries and data, the
//! three execution paths —
//!
//! 1. one-shot execution (`Session::execute` with the literal inlined in
//!    the text),
//! 2. prepared-then-bound execution (`Session::prepare` + `$1` binding),
//! 3. cursor streaming (a drained [`ResultCursor`]),
//!
//! — produce **identical** `TpRelation`s, for all five TP join kinds. The
//! generators reuse the adversarial shapes of the plan-equivalence suite
//! (dense keys, shared endpoints, single-point intervals).
//!
//! A second group checks the plan-cache key contract: whitespace outside
//! string literals does not change a statement's [`normalize_text`] key or
//! its parsed plan, texts that share a key parse to one plan, and
//! whitespace inside a literal is part of the key.

use proptest::prelude::*;
use tpdb::lineage::{Lineage, VarId};
use tpdb::prelude::Session;
use tpdb::query::{normalize_text, parse_query};
use tpdb::storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const KIND_KEYWORDS: [&str; 5] = ["INNER", "LEFT OUTER", "RIGHT OUTER", "FULL OUTER", "ANTI"];

/// Builds a duplicate-free single-key relation from raw `(key, start,
/// duration)` rows, skipping rows that would overlap an existing same-key
/// interval (the TP duplicate-free constraint).
fn build(name: &str, var_offset: u32, rows: &[(i64, i64, i64)]) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    let mut var = var_offset;
    for (key, start, duration) in rows {
        let interval = Interval::new(*start, *start + *duration);
        if rel
            .iter()
            .any(|t| t.fact(0) == &Value::Int(*key) && t.interval().overlaps(&interval))
        {
            continue;
        }
        let prob = 0.15 + 0.08 * f64::from(var % 10);
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            Lineage::var(VarId(var)),
            interval,
            prob,
        ))
        .unwrap();
        var += 1;
    }
    rel
}

fn catalog_over(r: &TpRelation, s: &TpRelation) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(r.clone()).unwrap();
    catalog.register(s.clone()).unwrap();
    catalog
}

/// Asserts that all execution paths agree for every join kind at the given
/// filter threshold.
fn assert_paths_identical(r: &TpRelation, s: &TpRelation, threshold: i64) {
    let session = Session::new(catalog_over(r, s));

    for kw in KIND_KEYWORDS {
        let literal_text =
            format!("SELECT * FROM r TP {kw} JOIN s ON r.k = s.k WHERE k >= {threshold}");
        let param_text = format!("SELECT * FROM r TP {kw} JOIN s ON r.k = s.k WHERE k >= $1");
        let params = [Value::Int(threshold)];

        // Path 1: one-shot session execution (plan cache; literal text).
        let one_shot = session.execute(&literal_text).unwrap();
        // Path 2: prepared once, bound, executed (twice — re-execution
        // must not change the answer).
        let stmt = session.prepare(&param_text).unwrap();
        let prepared = stmt.execute(&params).unwrap();
        let prepared_again = stmt.execute(&params).unwrap();

        // Path 3a: drained cursor via collect().
        let collected = session
            .query_with(&param_text, &params)
            .unwrap()
            .collect()
            .unwrap();
        // Path 3b: drained cursor via the Iterator, tuple by tuple.
        let mut cursor = stmt.query(&params).unwrap();
        let mut manual = TpRelation::new("result", cursor.schema().clone());
        for t in &mut cursor {
            manual.push_unchecked(t.unwrap());
        }

        assert_eq!(prepared, one_shot, "{kw}: prepared vs one-shot");
        assert_eq!(prepared_again, prepared, "{kw}: prepared re-execution");
        assert_eq!(collected, one_shot, "{kw}: cursor collect vs one-shot");
        assert_eq!(manual, one_shot, "{kw}: manual cursor drain vs one-shot");
    }
}

/// Dense keys (only 2 distinct values), starts on a small grid (shared
/// endpoints) and durations skewed toward 1 (single-point intervals).
fn adversarial_rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec(
        (
            0i64..2,
            0i64..10,
            prop_oneof![Just(1i64), Just(1i64), Just(1i64), 1i64..5],
        ),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_shot_prepared_and_cursor_paths_are_identical(
        rr in adversarial_rows(),
        ss in adversarial_rows(),
        threshold in 0i64..3,
    ) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        assert_paths_identical(&r, &s, threshold);
    }
}

// ---- the plan-cache key contract ------------------------------------------

/// One statement as tokens; `Err(inner)` is a string literal whose inner
/// whitespace is `inner` (between the words `x` and `y`).
type Tokens = Vec<Result<&'static str, &'static str>>;

/// Whitespace runs a string literal may carry inside.
const INNER_GAPS: [&str; 5] = [" ", "  ", "\t", " \t", "\n"];

/// One of `items`, uniformly.
fn pick<T: Copy>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// The head of a statement over `a` and `b`: a projection and, unless
/// the drawn kind is past the last, a TP join.
fn head() -> impl Strategy<Value = Tokens> {
    const PROJECTIONS: [&[&str]; 3] = [&["*"], &["Name"], &["Name", ",", "Loc"]];
    (0..PROJECTIONS.len(), 0..=KIND_KEYWORDS.len()).prop_map(|(projection, kind)| {
        let mut tokens: Tokens = vec![Ok("SELECT")];
        tokens.extend(PROJECTIONS[projection].iter().copied().map(Ok));
        tokens.extend([Ok("FROM"), Ok("a")]);
        if let Some(kw) = KIND_KEYWORDS.get(kind) {
            tokens.push(Ok("TP"));
            tokens.extend(kw.split(' ').map(Ok));
            let on = ["JOIN", "b", "ON", "a", ".", "Loc", "=", "b", ".", "Loc"];
            tokens.extend(on.map(Ok));
        }
        tokens
    })
}

/// A statement: a [`head`] and an optional filter whose operand is an
/// integer or a two-word string literal.
fn statement() -> impl Strategy<Value = Tokens> {
    let operand = prop_oneof![
        pick(&["1", "22"]).prop_map(Ok),
        pick(&INNER_GAPS).prop_map(Err),
    ];
    let filter = (
        pick(&[false, true]),
        pick(&["Name", "k"]),
        pick(&["=", ">=", "<>"]),
        operand,
    );
    (head(), filter).prop_map(|(mut tokens, (filtered, column, op, operand))| {
        if filtered {
            tokens.extend([Ok("WHERE"), Ok(column), Ok(op), operand]);
        }
        tokens
    })
}

/// A non-empty whitespace run.
fn gap() -> impl Strategy<Value = String> {
    proptest::collection::vec(pick(&[' ', '\t', '\n', '\r']), 1..4).prop_map(String::from_iter)
}

/// Lays `tokens` out with the whitespace runs of `gaps`, cycled: one
/// before the first token, one between each two, one after the last.
fn render(tokens: &Tokens, gaps: &[String]) -> String {
    let mut gaps = gaps.iter().cycle();
    let mut text = String::new();
    for token in tokens {
        text.push_str(gaps.next().map_or(" ", String::as_str));
        match token {
            Ok(word) => text.push_str(word),
            Err(inner) => {
                text.push_str("'x");
                text.push_str(inner);
                text.push_str("y'");
            }
        }
    }
    text.push_str(gaps.next().map_or("", String::as_str));
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reshuffled_whitespace_keeps_one_key_and_one_plan(
        tokens in statement(),
        first in proptest::collection::vec(gap(), 1..8),
        second in proptest::collection::vec(gap(), 1..8),
    ) {
        let (a, b) = (render(&tokens, &first), render(&tokens, &second));
        prop_assert_eq!(normalize_text(&a), normalize_text(&b));
        prop_assert_eq!(parse_query(&a).unwrap(), parse_query(&b).unwrap());
    }

    /// The key of a text is a text of its own key that parses to the same
    /// plan; so any two texts sharing a key both parse to the key's plan.
    #[test]
    fn texts_that_share_a_key_parse_to_one_plan(
        tokens in statement(),
        gaps in proptest::collection::vec(gap(), 1..8),
    ) {
        let text = render(&tokens, &gaps);
        let key = normalize_text(&text);
        prop_assert_eq!(&normalize_text(&key), &key);
        prop_assert_eq!(parse_query(&key).unwrap(), parse_query(&text).unwrap());
    }

    #[test]
    fn literal_inner_whitespace_is_part_of_the_key(
        tokens in head(),
        gaps in proptest::collection::vec(gap(), 1..8),
        one in 0..INNER_GAPS.len(),
        step in 1..INNER_GAPS.len(),
    ) {
        let with_literal = |inner| {
            let mut tokens = tokens.clone();
            tokens.extend([Ok("WHERE"), Ok("Name"), Ok("="), Err(inner)]);
            render(&tokens, &gaps)
        };
        let other = (one + step) % INNER_GAPS.len();
        let (a, b) = (with_literal(INNER_GAPS[one]), with_literal(INNER_GAPS[other]));
        prop_assert_ne!(normalize_text(&a), normalize_text(&b));
        prop_assert_ne!(parse_query(&a).unwrap(), parse_query(&b).unwrap());
    }
}

// ---- deterministic regressions -------------------------------------------

#[test]
fn paths_agree_on_the_paper_example() {
    let (a, b) = tpdb::datagen::booking_example();
    let session = Session::new({
        let mut c = Catalog::new();
        c.register(a.clone()).unwrap();
        c.register(b.clone()).unwrap();
        c
    });
    let literal = session
        .execute("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann'")
        .unwrap();
    let stmt = session
        .prepare("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = $1")
        .unwrap();
    let prepared = stmt.execute(&[Value::str("Ann")]).unwrap();
    let streamed = stmt.query(&[Value::str("Ann")]).unwrap().collect().unwrap();
    assert_eq!(prepared, literal);
    assert_eq!(streamed, literal);
    assert_eq!(literal.len(), 6);
}

#[test]
fn paths_agree_on_empty_inputs() {
    let r = build("r", 0, &[]);
    let s = build("s", 1000, &[(0, 2, 3)]);
    assert_paths_identical(&r, &s, 0);
    assert_paths_identical(&s.renamed("r"), &r.renamed("s"), 0);
}
