//! The booking-website scenario of the paper's introduction, driven through
//! the session API: prepared statements, parameter binding, streaming
//! cursors and the plan cache.
//!
//! The website archives predictions about where clients want to travel
//! (relation `a`) and about hotel availability (relation `b`). To manage
//! supply and demand it asks, for each day, with which probability a client
//! will find *no* accommodation at their preferred location — a TP left
//! outer / anti join. A production front-end serves that question for
//! *many* clients: prepare the statement once, bind each client's name.
//!
//! Run with: `cargo run --example booking_website`

use tpdb::query::Session;
use tpdb::storage::{Catalog, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The running example of Fig. 1, prepackaged by the data generator.
    let (a, b) = tpdb::datagen::booking_example();

    let mut catalog = Catalog::new();
    catalog.register(a)?;
    catalog.register(b)?;
    let session = Session::new(catalog);

    // Q = a ⟕_{a.Loc = b.Loc} b  — Fig. 1b.
    let q = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc";
    println!("EXPLAIN {q}\n{}", session.explain(q)?);
    let result = session.execute(q)?;
    println!("Result ({} tuples):\n{result}", result.len());

    // When will a client definitely need an alternative? The anti join
    // keeps, per day, the probability that *no* matching hotel is
    // available. Prepared once, executed per client with a bound `$1`.
    let stmt =
        session.prepare("SELECT Name FROM a TP ANTI JOIN b ON a.Loc = b.Loc WHERE Name = $1")?;
    for client in ["Ann", "Jim"] {
        let unbooked = stmt.execute(&[Value::str(client)])?;
        println!("Days on which {client} finds no hotel (with probability):\n{unbooked}");
    }

    // The same prepared statement as a streaming cursor: tuples arrive as
    // they leave the window pipeline, nothing is materialized.
    let mut cursor = stmt.query(&[Value::str("Ann")])?;
    let first = cursor.next().expect("Ann has unbooked days")?;
    println!(
        "first streamed tuple: {} during {} with p = {:.2}",
        first.fact(0),
        first.interval(),
        first.probability()
    );
    drop(cursor); // dropping a cursor abandons the rest of the computation

    // Both executions above reused the cached plan: one miss, then hits.
    let stats = session.stats();
    println!(
        "plan cache: {} hit(s), {} miss(es), {} cached plan(s)",
        stats.cache_hits, stats.cache_misses, stats.cached_plans
    );
    assert!(stats.cache_hits >= 1);
    Ok(())
}
