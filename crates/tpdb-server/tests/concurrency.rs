//! Concurrency properties of the server: N clients hammering one server
//! get results byte-identical to a serial in-process `Session` run,
//! interleaved catalog swaps never produce a torn read, and the admission
//! gate keeps its bounds under load and never waits on a client's socket.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tpdb_query::Session;
use tpdb_server::{protocol, Client, ErrorCode, Server, ServerConfig};
use tpdb_storage::Catalog;

/// All five TP join kinds plus a set operation, over the meteo workload.
const QUERIES: [&str; 6] = [
    "SELECT * FROM meteo_r TP INNER JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric",
    "SELECT * FROM meteo_r TP LEFT JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric",
    "SELECT * FROM meteo_r TP RIGHT JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric",
    "SELECT * FROM meteo_r TP FULL OUTER JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric",
    "SELECT * FROM meteo_r TP ANTI JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric",
    "SELECT * FROM meteo_r UNION SELECT * FROM meteo_s",
];

fn meteo_catalog(tuples: usize, seed: u64) -> Catalog {
    let (r, s) = tpdb_datagen::meteo_like(tuples, seed);
    let mut catalog = Catalog::new();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    catalog
}

/// Renders the serial reference result of `query` exactly as the server
/// renders its response rows.
fn serial_rows(session: &Session, query: &str) -> Vec<String> {
    protocol::render_relation_rows(&session.execute(query).unwrap())
}

#[test]
fn concurrent_prepared_queries_match_serial_execution_byte_for_byte() {
    let catalog = meteo_catalog(200, 7);
    let serial = Session::new(catalog.clone());
    let expected: Vec<Vec<String>> = QUERIES.iter().map(|q| serial_rows(&serial, q)).collect();
    assert!(
        expected.iter().any(|rows| !rows.is_empty()),
        "degenerate workload: every reference result is empty"
    );

    let server = Server::start(
        catalog,
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Prepare each statement once (connection-local names),
                // then execute it repeatedly through the shared cache.
                for (i, query) in QUERIES.iter().enumerate() {
                    let slots = client.prepare(&format!("q{i}"), query).unwrap();
                    assert_eq!(slots, 0);
                }
                for round in 0..3 {
                    for (i, reference) in expected.iter().enumerate() {
                        let got = client.execute(&format!("q{i}"), &[]).unwrap();
                        assert_eq!(
                            &got.rows, reference,
                            "round {round}, query {i}: server rows diverge from serial run"
                        );
                    }
                }
                client.close().unwrap();
            });
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.connections, 4);
    // 4 clients × (6 prepares + 3 rounds × 6 executes) all planned through
    // the shared cache: after the first few misses everything hits.
    assert!(stats.cache_hits > stats.cache_misses, "{stats:?}");
}

#[test]
fn interleaved_catalog_swaps_never_yield_a_torn_read() {
    let dir = std::env::temp_dir().join(format!("tpdb-server-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("state-a.snap");
    let path_b = dir.join("state-b.snap");

    // Two complete catalog states with the same relation names but
    // different contents (different seeds).
    let catalog_a = meteo_catalog(120, 11);
    let catalog_b = meteo_catalog(120, 29);
    catalog_a.save_snapshot(&path_a).unwrap();
    catalog_b.save_snapshot(&path_b).unwrap();

    let query = QUERIES[1]; // TP LEFT JOIN
    let serial_a = Session::new(catalog_a.clone());
    let serial_b = Session::new(catalog_b.clone());
    let rows_a = serial_rows(&serial_a, query);
    let rows_b = serial_rows(&serial_b, query);
    assert_ne!(rows_a, rows_b, "states must be distinguishable");

    let server = Server::start(
        catalog_a,
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut seen = HashSet::new();
    std::thread::scope(|scope| {
        // One writer flips the catalog between the two states via the
        // atomic snapshot-load path.
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for i in 0..10 {
                let path = if i % 2 == 0 { &path_b } else { &path_a };
                client
                    .query(&format!("LOAD SNAPSHOT '{}'", path.display()))
                    .unwrap();
            }
            client.close().unwrap();
        });
        // Readers hammer the join; every answer must be exactly one of the
        // two serial renderings — old epoch or new epoch, never a mix.
        let mut readers = Vec::new();
        for _ in 0..3 {
            readers.push(scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                let mut observed = HashSet::new();
                for _ in 0..20 {
                    let got = client.query(query).unwrap();
                    let state = if got.rows == rows_a {
                        "a"
                    } else if got.rows == rows_b {
                        "b"
                    } else {
                        panic!("torn read: rows match neither catalog state");
                    };
                    observed.insert(state);
                }
                client.close().unwrap();
                observed
            }));
        }
        writer.join().unwrap();
        for reader in readers {
            seen.extend(reader.join().unwrap());
        }
    });
    // The flipping writer ran concurrently, so readers should have seen
    // both states (not strictly guaranteed, but with 10 flips against 60
    // reads a single-state run would itself be suspicious).
    assert!(!seen.is_empty());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_gate_keeps_its_bounds_under_a_hammer() {
    const SCAN: &str = "SELECT * FROM meteo_r";
    let catalog = meteo_catalog(40, 5);
    let serial = Session::new(catalog.clone());
    let scan_rows = serial_rows(&serial, SCAN);
    let join_rows = serial_rows(&serial, QUERIES[1]);
    assert!(!scan_rows.is_empty() && !join_rows.is_empty());

    let server = Server::start(
        catalog,
        ServerConfig {
            workers: 2,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let done = AtomicBool::new(false);

    let (samples, busy) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = 0_u64;
            while !done.load(Ordering::SeqCst) {
                let s = server.stats();
                assert!(s.executing <= 2 && s.queued <= 2, "{s:?}");
                samples += 1;
                std::thread::yield_now();
            }
            samples
        });
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let (scan_rows, join_rows) = (&scan_rows, &join_rows);
                scope.spawn(move || {
                    // Any refusal must be the typed backpressure error.
                    let mut rejected = 0_u64;
                    let mut busy = |e: tpdb_server::ClientError| {
                        assert_eq!(e.server_code(), Some(ErrorCode::ServerBusy), "{e}");
                        rejected += 1;
                    };
                    let mut client = Client::connect(addr).unwrap();
                    while let Err(e) = client.prepare("scan", SCAN) {
                        busy(e);
                    }
                    for i in 0..200 {
                        let reply = match i % 3 {
                            0 => client.ping().map(|()| None),
                            1 => client.execute("scan", &[]).map(|r| Some((r, scan_rows))),
                            _ => client.query(QUERIES[1]).map(|r| Some((r, join_rows))),
                        };
                        match reply {
                            Ok(None) => {}
                            Ok(Some((got, expected))) => assert_eq!(&got.rows, expected),
                            Err(e) => busy(e),
                        }
                    }
                    client.close().unwrap();
                    rejected
                })
            })
            .collect();
        let busy: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        done.store(true, Ordering::SeqCst);
        (sampler.join().unwrap(), busy)
    });

    assert!(samples > 0);
    let stats = server.shutdown();
    assert_eq!((stats.executing, stats.queued), (0, 0), "{stats:?}");
    assert_eq!(stats.busy_rejections, busy, "{stats:?}");
}

#[test]
fn a_reader_that_stalls_on_its_reply_holds_no_slot() {
    let server = Server::start(
        meteo_catalog(3000, 1),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let wait_for = |what: &str, cond: &dyn Fn(tpdb_server::ServerStats) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(server.stats()) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // A asks for a reply of several MB — more than the socket buffers
    // take — and never reads a byte of it.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled
        .write_all(format!("{}\n", QUERIES[1]).as_bytes())
        .unwrap();
    wait_for("A's statement to finish", &|s| s.executed == 1);
    wait_for("A's slot to be given back", &|s| s.executing == 0);

    // The only slot is free again although A's frame is still being
    // written: B is served at once.
    let mut b = Client::connect(addr).unwrap();
    let before = Instant::now();
    b.ping().unwrap();
    assert!(before.elapsed() < Duration::from_secs(1));
    b.close().unwrap();

    // Hanging up fails A's pending write, so its thread can be joined.
    drop(stalled);
    server.shutdown();
}

#[test]
fn a_slow_reader_gets_every_row_and_holds_no_slot_while_they_are_written() {
    let catalog = meteo_catalog(3000, 1);
    let expected = serial_rows(&Session::new(catalog.clone()), QUERIES[1]);
    let server = Server::start(
        catalog,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // The reply is several MB, written in 64 KiB chunks; the client takes
    // at most 64 KiB per read and sleeps between reads.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(format!("{}\n", QUERIES[1]).as_bytes())
        .unwrap();
    let mut frame = Vec::new();
    let mut buf = vec![0u8; protocol::CHUNK_BYTES];
    let (mut reads, mut lines) = (0, 0);
    // The frame is whole once it holds the header, the schema, its rows
    // and `OK`: the row count plus three lines.
    while lines != expected.len() + 3 {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "EOF after {} bytes", frame.len());
        frame.extend_from_slice(&buf[..n]);
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count();
        reads += 1;
        // The statement has run and its slot is free while its frame is
        // still on its way.
        let stats = server.stats();
        assert_eq!((stats.executed, stats.executing), (1, 0), "{stats:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        frame.len() > 8 * protocol::CHUNK_BYTES,
        "{} bytes",
        frame.len()
    );
    assert!(reads > 8, "{reads} reads");
    let text = String::from_utf8(frame).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], format!("ROWS {}", expected.len()));
    assert_eq!(lines.last(), Some(&"OK"));
    assert_eq!(lines[2..lines.len() - 1], expected[..]);

    drop(stream);
    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_a_client_that_never_reads() {
    let server = Server::start(meteo_catalog(3000, 1), ServerConfig::default()).unwrap();

    // The same several-MB reply nobody reads — and this time the client
    // does not hang up either: the socket stays open across the shutdown.
    let mut stalled = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stalled
        .write_all(format!("{}\n", QUERIES[1]).as_bytes())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().executed < 1 {
        assert!(Instant::now() < deadline, "the statement never finished");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown's grace is 2 s; it must be back 3 s after that at most.
    let started = Instant::now();
    let shutdown = std::thread::spawn(move || server.shutdown());
    while !shutdown.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown still waits for the client that never reads"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.connections_open, 0);
    assert_eq!(stats.executing, 0);
    drop(stalled);
}
