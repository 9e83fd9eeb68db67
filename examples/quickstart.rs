//! Quickstart: build two TP relations, run every TP join with negation
//! through a `Session` and print the results.
//!
//! Run with: `cargo run --example quickstart`

use tpdb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the base relations through a catalog. Every pushed tuple gets
    //    an atomic lineage variable (a1, a2, ..., b1, ...) and its marginal
    //    probability is registered with the catalog.
    let mut catalog = Catalog::new();

    let mut a = catalog.create_relation(
        "a",
        Schema::tp(&[
            ("Name", tpdb::storage::DataType::Str),
            ("Loc", tpdb::storage::DataType::Str),
        ]),
    )?;
    a.push(
        vec![Value::str("Ann"), Value::str("ZAK")],
        Interval::new(2, 8),
        0.7,
    )
    .push(
        vec![Value::str("Jim"), Value::str("WEN")],
        Interval::new(7, 10),
        0.8,
    );
    let a = a.finish();

    let mut b = catalog.create_relation(
        "b",
        Schema::tp(&[
            ("Hotel", tpdb::storage::DataType::Str),
            ("Loc", tpdb::storage::DataType::Str),
        ]),
    )?;
    b.push(
        vec![Value::str("hotel3"), Value::str("SOR")],
        Interval::new(1, 4),
        0.9,
    )
    .push(
        vec![Value::str("hotel2"), Value::str("ZAK")],
        Interval::new(5, 8),
        0.6,
    )
    .push(
        vec![Value::str("hotel1"), Value::str("ZAK")],
        Interval::new(4, 6),
        0.7,
    );
    let b = b.finish();

    println!("{a}");
    println!("{b}");

    // 2. Keep direct handles on the relations for the window inspection
    //    below, then hand the catalog to a session — the query front-end.
    let session = Session::new(catalog);

    // 3. Run every TP join with negation through the query language. The
    //    session caches the parsed plans, so re-running any of these
    //    queries would skip parse + validation entirely.
    for (title, kind) in [
        ("TP inner join", "INNER"),
        ("TP left outer join (the query of Fig. 1b)", "LEFT OUTER"),
        ("TP anti join", "ANTI"),
        ("TP right outer join", "RIGHT OUTER"),
        ("TP full outer join", "FULL OUTER"),
    ] {
        let q = format!("SELECT * FROM a TP {kind} JOIN b ON a.Loc = b.Loc");
        println!("{title}:\n{}", session.execute(&q)?);
    }

    // 4. The same join as a lazy tuple stream (what session cursors drive):
    //    the first answer tuple is formed from a single window.
    let theta = ThetaCondition::column_equals("Loc", "Loc");
    let mut stream = TpJoinStream::new(&*a, &*b, &theta, tpdb::core::TpJoinKind::LeftOuter)?;
    let first = stream.next().expect("the join has answers");
    println!(
        "first streamed answer tuple: {} @ {} (after {} window)",
        first.fact(0),
        first.interval(),
        stream.windows_consumed()
    );

    // 5. Look at the windows behind the left outer join.
    let windows = overlapping_windows(&a, &b, &theta)?;
    let wuon = lawan(&lawau(&windows, &a));
    println!("generalized lineage-aware temporal windows of a with respect to b:");
    for w in wuon.iter() {
        let symbols = session.catalog().symbols();
        println!("  {}", w.display_with(&a, &b, &wuon.spans, symbols));
    }
    Ok(())
}
