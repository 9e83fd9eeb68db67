//! Edge-case tests for `Catalog::import_delimited` — the CSV/TSV bulk
//! loader. Quoting, line endings, `NULL` vs empty-string, typed per-line
//! errors (with 1-based line numbers) and the duplicate-key (TP
//! duplicate-free) check are all pinned here; the happy path is covered by
//! the snapshot/bench suites.

// Tests assert bit-exact values on purpose (reproducibility contract).
#![allow(clippy::float_cmp)]

use csv_text::to_csv;
use proptest::prelude::*;
use tpdb::lineage::Lineage;
use tpdb::storage::{Catalog, DataType, Schema, StorageError, TpTuple, Value};
use tpdb::temporal::Interval;

mod csv_text;

fn meteo_schema() -> Schema {
    Schema::tp(&[("city", DataType::Str), ("temp", DataType::Float)])
}

fn import(text: &str) -> Result<Vec<(Vec<Value>, Interval, f64)>, StorageError> {
    let mut catalog = Catalog::new();
    let relation = catalog.import_delimited("m", meteo_schema(), ',', text)?;
    Ok(relation
        .iter()
        .map(|t| {
            (
                (0..relation.schema().arity())
                    .map(|i| t.fact(i).clone())
                    .collect(),
                t.interval(),
                t.probability(),
            )
        })
        .collect())
}

fn parse_error(text: &str) -> (usize, String) {
    match import(text).unwrap_err() {
        StorageError::ParseError { line, message } => (line, message),
        other => panic!("expected ParseError, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Quoting
// ---------------------------------------------------------------------------

#[test]
fn quoted_fields_keep_delimiters_literal() {
    let rows = import("\"Delft, Zuid\",18.5,0,5,0.9\n").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0[0], Value::Str("Delft, Zuid".into()));
    assert_eq!(rows[0].0[1], Value::Float(18.5));
}

#[test]
fn quoted_fields_keep_newlines_literal() {
    let rows = import("\"Delft\nZuid\",1.0,0,5,0.9\ncity2,2.0,0,5,0.8\n").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].0[0], Value::Str("Delft\nZuid".into()));
    assert_eq!(rows[1].0[0], Value::Str("city2".into()));
}

#[test]
fn doubled_quotes_escape_inside_quoted_fields() {
    let rows = import("\"say \"\"hi\"\"\",1.0,0,5,0.9\n").unwrap();
    assert_eq!(rows[0].0[0], Value::Str("say \"hi\"".into()));
}

#[test]
fn unterminated_quote_reports_the_record_line() {
    let (line, message) = parse_error("a,1.0,0,5,0.9\n\"oops,2.0,0,5,0.9\n");
    assert_eq!(line, 2);
    assert!(message.contains("unterminated quoted field"), "{message}");
}

#[test]
fn the_first_faulty_record_in_file_order_is_reported() {
    // A bad value on line 2 and an unterminated quote on line 4: records
    // are typed as they are read, so line 2 is reported.
    let (line, message) =
        parse_error("a,1.0,0,5,0.9\nb,warm,0,5,0.9\nc,2.0,0,5,0.9\n\"oops,3.0,0,5,0.9\n");
    assert_eq!(line, 2);
    assert!(message.contains("`warm`"), "{message}");
}

#[test]
fn numbers_may_be_quoted_too() {
    let rows = import("\"Delft\",\"18.5\",\"0\",\"5\",\"0.9\"\n").unwrap();
    assert_eq!(rows[0].0[1], Value::Float(18.5));
    assert_eq!(rows[0].1, Interval::new(0, 5));
    assert_eq!(rows[0].2, 0.9);
}

// ---------------------------------------------------------------------------
// Line endings, blank lines, NULL vs empty string
// ---------------------------------------------------------------------------

#[test]
fn crlf_line_endings_are_accepted() {
    let rows = import("a,1.0,0,5,0.9\r\nb,2.0,0,5,0.8\r\n").unwrap();
    assert_eq!(rows.len(), 2);
    // No stray `\r` in the last field.
    assert_eq!(rows[1].2, 0.8);
}

#[test]
fn blank_lines_are_skipped_but_still_counted() {
    // The malformed record sits on line 4: line numbers must count the
    // blank lines, not the records.
    let (line, _) = parse_error("a,1.0,0,5,0.9\n\n\nb,bad,0,5,0.8\n");
    assert_eq!(line, 4);
}

#[test]
fn missing_trailing_newline_is_fine() {
    let rows = import("a,1.0,0,5,0.9").unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn empty_unquoted_field_is_null_and_empty_quoted_field_is_empty_string() {
    let rows = import(",1.0,0,5,0.9\n\"\",2.0,6,9,0.8\n").unwrap();
    assert_eq!(rows[0].0[0], Value::Null);
    assert_eq!(rows[1].0[0], Value::str(""));
}

#[test]
fn empty_trailing_field_counts_toward_the_arity() {
    // `a,,0,5,0.9` has five fields; the empty second one is a NULL temp.
    let rows = import("a,,0,5,0.9\n").unwrap();
    assert_eq!(rows[0].0[1], Value::Null);
    // ...while a record that ends mid-way is an arity error, not a crash.
    let (line, message) = parse_error("a,1.0,0,5\n");
    assert_eq!(line, 1);
    assert!(message.contains("expected 5 field(s), got 4"), "{message}");
}

// ---------------------------------------------------------------------------
// Typed per-line errors
// ---------------------------------------------------------------------------

#[test]
fn too_many_fields_is_an_arity_error() {
    let (line, message) = parse_error("a,1.0,0,5,0.9,extra\n");
    assert_eq!(line, 1);
    assert!(message.contains("expected 5 field(s), got 6"), "{message}");
}

#[test]
fn bad_typed_value_names_its_column() {
    let (line, message) = parse_error("a,warm,0,5,0.9\n");
    assert_eq!(line, 1);
    assert!(
        message.contains("column temp") && message.contains("`warm`"),
        "{message}"
    );
}

#[test]
fn bool_columns_parse_strictly() {
    let mut catalog = Catalog::new();
    let schema = Schema::tp(&[("ok", DataType::Bool)]);
    let relation = catalog
        .import_delimited(
            "flags",
            schema.clone(),
            ',',
            "true,0,5,0.9\nfalse,5,9,0.8\n",
        )
        .unwrap();
    let got: Vec<_> = relation.iter().map(|t| t.fact(0).clone()).collect();
    assert_eq!(got, vec![Value::Bool(true), Value::Bool(false)]);
    // `1` is not a boolean.
    let err = catalog
        .import_delimited("flags2", schema, ',', "1,0,5,0.9\n")
        .unwrap_err();
    assert!(
        matches!(err, StorageError::ParseError { line: 1, .. }),
        "{err:?}"
    );
}

#[test]
fn malformed_interval_endpoints_are_reported() {
    let (line, message) = parse_error("a,1.0,zero,5,0.9\n");
    assert_eq!(line, 1);
    assert!(
        message.contains("invalid interval start: `zero`"),
        "{message}"
    );
    let (line, message) = parse_error("a,1.0,0,1e3,0.9\n");
    assert_eq!(line, 1);
    assert!(message.contains("invalid interval end: `1e3`"), "{message}");
}

#[test]
fn empty_intervals_are_rejected_per_line() {
    // end <= start violates the half-open interval contract.
    let (line, _) = parse_error("a,1.0,0,5,0.9\nb,2.0,7,7,0.8\n");
    assert_eq!(line, 2);
}

#[test]
fn malformed_probabilities_are_reported() {
    let (line, message) = parse_error("a,1.0,0,5,likely\n");
    assert_eq!(line, 1);
    assert!(
        message.contains("invalid probability: `likely`"),
        "{message}"
    );
    for out_of_range in ["1.5", "-0.1", "inf", "NaN"] {
        let (line, message) = parse_error(&format!("a,1.0,0,5,{out_of_range}\n"));
        assert_eq!(line, 1, "{out_of_range}");
        assert!(
            message.contains("must be finite and within [0, 1]"),
            "{out_of_range}: {message}"
        );
    }
}

#[test]
fn duplicate_keys_are_reported_against_the_later_line() {
    // Same fact (a, 1.0) valid over [0,5) and the overlapping [3,9).
    let (line, message) = parse_error("a,1.0,0,5,0.9\nb,2.0,0,5,0.8\na,1.0,3,9,0.7\n");
    assert_eq!(line, 3);
    assert!(message.contains("duplicate key"), "{message}");
    // Touching intervals ([0,5) then [5,9)) do not overlap: accepted.
    let rows = import("a,1.0,0,5,0.9\na,1.0,5,9,0.7\n").unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn null_facts_participate_in_the_duplicate_key_check() {
    let (line, _) = parse_error(",1.0,0,5,0.9\n,1.0,2,4,0.8\n");
    assert_eq!(line, 2);
}

// ---------------------------------------------------------------------------
// Failure atomicity and the file path front-end
// ---------------------------------------------------------------------------

#[test]
fn failed_import_leaves_the_catalog_without_the_relation() {
    let mut catalog = Catalog::new();
    let err = catalog
        .import_delimited("m", meteo_schema(), ',', "a,1.0,0,5,2.0\n")
        .unwrap_err();
    assert!(matches!(err, StorageError::ParseError { .. }));
    assert!(catalog.relation("m").is_err(), "no partial relation");
    // The name is still free: a corrected import succeeds.
    let relation = catalog
        .import_delimited("m", meteo_schema(), ',', "a,1.0,0,5,0.9\n")
        .unwrap();
    assert_eq!(relation.len(), 1);
}

#[test]
fn importing_over_an_existing_relation_is_a_typed_error() {
    let mut catalog = Catalog::new();
    catalog
        .import_delimited("m", meteo_schema(), ',', "a,1.0,0,5,0.9\n")
        .unwrap();
    let err = catalog
        .import_delimited("m", meteo_schema(), ',', "b,2.0,0,5,0.8\n")
        .unwrap_err();
    assert_eq!(err, StorageError::RelationExists("m".into()));
}

#[test]
fn tsv_uses_the_same_machinery() {
    let mut catalog = Catalog::new();
    let relation = catalog
        .import_delimited("m", meteo_schema(), '\t', "Delft, Zuid\t18.5\t0\t5\t0.9\n")
        .unwrap();
    // With a tab delimiter the comma is just text — no quoting needed.
    assert_eq!(
        relation.iter().next().unwrap().fact(0),
        &Value::Str("Delft, Zuid".into())
    );
}

#[test]
fn import_from_a_missing_file_is_a_snapshot_io_error() {
    let mut catalog = Catalog::new();
    let missing = std::env::temp_dir().join(format!(
        "tpdb-csv-{}-does-not-exist.csv",
        std::process::id()
    ));
    let err = catalog
        .import_delimited_path("m", meteo_schema(), ',', &missing)
        .unwrap_err();
    assert!(matches!(err, StorageError::SnapshotIo { .. }), "{err:?}");
}

#[test]
fn imported_tuples_get_atomic_lineages_and_marginals() {
    let mut catalog = Catalog::new();
    let relation = catalog
        .import_delimited("m", meteo_schema(), ',', "a,1.0,0,5,0.9\nb,2.0,0,5,0.25\n")
        .unwrap();
    let mut engine = catalog.probability_engine();
    for tuple in relation.iter() {
        let p = engine.probability(tuple.lineage());
        assert_eq!(p, tuple.probability(), "marginal of {}", tuple.lineage());
    }
}

// ---------------------------------------------------------------------------
// Round trip: rendered relations import as the builder makes them
// ---------------------------------------------------------------------------

/// A string built from the pieces quoting must survive: quotes, the
/// delimiter, bare and CRLF newlines, doubled quotes, carriage returns and
/// multi-byte characters — or NULL.
fn awkward_value() -> impl Strategy<Value = Value> {
    let piece = prop_oneof![
        Just("\""),
        Just(","),
        Just("\n"),
        Just("\r\n"),
        Just("\"\""),
        Just("\r"),
        Just(""),
        Just("a"),
        Just(" b "),
        Just("é∆"),
    ];
    let text =
        proptest::collection::vec(piece, 0..6).prop_map(|pieces| Value::str(&pieces.concat()));
    prop_oneof![text.clone(), text, Just(Value::Null)]
}

/// Rows of `(name, tag, key)` facts, an interval and a probability; every
/// key is its row's index, so no two rows share a fact.
fn awkward_rows() -> impl Strategy<Value = Vec<(Value, Value, Interval, f64)>> {
    let row = (
        awkward_value(),
        awkward_value(),
        (-50i64..50, 1i64..20),
        any::<u64>(),
    )
        .prop_map(|(name, tag, (start, len), bits)| {
            let probability = (bits >> 11) as f64 / (1u64 << 53) as f64;
            (name, tag, Interval::new(start, start + len), probability)
        });
    proptest::collection::vec(row, 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn rendered_relations_import_as_the_builder_makes_them(rows in awkward_rows()) {
        let schema = Schema::tp(&[
            ("name", DataType::Str),
            ("tag", DataType::Str),
            ("key", DataType::Int),
        ]);
        let facts = |i: usize, name: &Value, tag: &Value| {
            vec![name.clone(), tag.clone(), Value::Int(i as i64)]
        };
        let tuples: Vec<TpTuple> = rows
            .iter()
            .enumerate()
            .map(|(i, (name, tag, interval, p))| {
                TpTuple::new(facts(i, name, tag), Lineage::tru(), *interval, *p)
            })
            .collect();
        let text = to_csv(&tuples);

        let mut imported = Catalog::new();
        let got = imported
            .import_delimited("m", schema.clone(), ',', &text)
            .map_err(|e| format!("{e} importing {text:?}"))?;
        let mut built = Catalog::new();
        let mut builder = built.create_relation("m", schema).unwrap();
        for (i, (name, tag, interval, p)) in rows.iter().enumerate() {
            builder.push(facts(i, name, tag), *interval, *p);
        }
        let want = builder.finish();

        prop_assert_eq!(got.len(), want.len());
        for (ordinal, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert_eq!(g.facts(), w.facts());
            prop_assert_eq!(g.interval(), w.interval());
            prop_assert_eq!(g.probability().to_bits(), w.probability().to_bits());
            prop_assert_eq!(g.lineage(), w.lineage());
            let var = g.lazy_lineage().as_var().unwrap();
            let name = format!("m{}", ordinal + 1);
            prop_assert_eq!(imported.symbols().name(var), Some(name.as_str()));
            prop_assert_eq!(imported.probability_of(var), Some(g.probability()));
        }

        // Line numbers count physical lines, the newlines inside quoted
        // fields included.
        let bad = format!("{text}x,y,z,0,5,0.5\n");
        let line = text.matches('\n').count() + 1;
        match imported.import_delimited("bad", got.schema().clone(), ',', &bad) {
            Err(StorageError::ParseError { line: l, .. }) => prop_assert_eq!(l, line),
            other => return Err(format!("expected a ParseError, got {other:?}")),
        }
    }
}
