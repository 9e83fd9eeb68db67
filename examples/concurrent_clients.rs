//! The server front-end under concurrent load: start a TP server
//! in-process over the meteo workload, hammer it from four client
//! threads (prepared statements, bound parameters, plain queries), and
//! print the aggregate request statistics — throughput, plan-cache
//! behavior and the per-client agreement check that every client saw
//! byte-identical rows.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use std::time::Instant;
use tpdb::query::Session;
use tpdb::server::{protocol, Client, Server, ServerConfig};
use tpdb::storage::{Catalog, Value};

const CLIENTS: usize = 4;
const ROUNDS: usize = 5;
const JOIN: &str = "SELECT * FROM meteo_r TP LEFT JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (r, s) = tpdb::datagen::meteo_like(400, 7);
    println!("workload: meteo, {} + {} tuples", r.len(), s.len());

    let mut catalog = Catalog::new();
    catalog.register(r)?;
    catalog.register(s)?;

    // Serial reference: the rows every concurrent client must reproduce,
    // rendered exactly as the server renders them.
    let serial = Session::new(catalog.clone());
    let reference = protocol::render_relation_rows(&serial.execute(JOIN)?);
    println!(
        "reference result: {} rows (serial session)",
        reference.len()
    );

    let server = Server::start(
        catalog,
        ServerConfig {
            workers: CLIENTS,
            queue_depth: 4 * CLIENTS,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!(
        "server: 127.0.0.1:{}, {CLIENTS} workers, queue depth {}",
        addr.port(),
        4 * CLIENTS
    );

    let started = Instant::now();
    let mut per_client = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for id in 0..CLIENTS {
            let reference = &reference;
            handles.push(scope.spawn(move || -> Result<(usize, u128), String> {
                let fail = |e: tpdb::server::ClientError| format!("client {id}: {e}");
                let mut client = Client::connect(addr).map_err(|e| format!("client {id}: {e}"))?;
                client
                    .prepare("drill", "SELECT * FROM meteo_r WHERE Metric = $1")
                    .map_err(fail)?;
                let t0 = Instant::now();
                let mut requests = 0usize;
                for round in 0..ROUNDS {
                    // The shared join: every client must see the serial rows.
                    let rows = client.query(JOIN).map_err(fail)?;
                    if &rows.rows != reference {
                        return Err(format!("client {id}: round {round} diverged from serial"));
                    }
                    // A parameterized drill-down through the prepared path.
                    let metric = (round % 8) as i64;
                    client
                        .execute("drill", &[Value::Int(metric)])
                        .map_err(fail)?;
                    requests += 2;
                }
                client.close().map_err(fail)?;
                Ok((requests, t0.elapsed().as_millis()))
            }));
        }
        for handle in handles {
            per_client.push(handle.join().expect("client thread panicked"));
        }
    });
    let wall_ms = started.elapsed().as_millis().max(1);

    let mut total_requests = 0usize;
    for (id, outcome) in per_client.into_iter().enumerate() {
        let (requests, ms) = outcome?;
        println!("client {id}: {requests} requests in {ms} ms — all rows byte-identical");
        total_requests += requests;
    }

    let stats = server.shutdown();
    println!("---");
    println!(
        "aggregate: {total_requests} requests over {CLIENTS} clients in {wall_ms} ms \
         ({:.0} req/s)",
        total_requests as f64 * 1000.0 / wall_ms as f64
    );
    println!(
        "server counters: {} connections, {} requests, {} executed, \
         cache {} hits / {} misses, {} busy rejections",
        stats.connections,
        stats.requests,
        stats.executed,
        stats.cache_hits,
        stats.cache_misses,
        stats.busy_rejections
    );
    assert_eq!(stats.connections as usize, CLIENTS);
    assert_eq!(stats.executing, 0);
    Ok(())
}
