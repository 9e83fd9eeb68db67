//! Server lifecycle: protocol commands, typed error paths, backpressure
//! (`ServerBusy`) and graceful shutdown (`ServerShuttingDown`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tpdb_lineage::{Lineage, VarId};
use tpdb_server::{Client, ClientError, ErrorCode, Server, ServerConfig, ServerHandle};
use tpdb_storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::Interval;

fn booking_server(config: ServerConfig) -> ServerHandle {
    let mut catalog = Catalog::new();
    let (a, b) = tpdb_datagen::booking_example();
    catalog.register(a).unwrap();
    catalog.register(b).unwrap();
    Server::start(catalog, config).unwrap()
}

/// Polls `cond` on the server stats until it holds (or panics after 5s).
fn wait_for(server: &ServerHandle, what: &str, cond: impl Fn(tpdb_server::ServerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond(server.stats()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn server_code(err: &ClientError) -> Option<ErrorCode> {
    err.server_code()
}

#[test]
fn protocol_commands_round_trip() {
    let server = booking_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.ping().unwrap();

    // Plain query.
    let rows = client
        .query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
        .unwrap();
    assert_eq!(rows.rows.len(), 7);
    assert!(rows.schema.contains("Name:STR"), "{}", rows.schema);

    // Prepare/execute with a bound string parameter.
    let slots = client
        .prepare("by_name", "SELECT Name FROM a WHERE Name = $1")
        .unwrap();
    assert_eq!(slots, 1);
    let ann = client.execute("by_name", &[Value::str("Ann")]).unwrap();
    assert_eq!(ann.rows.len(), 1);
    assert!(ann.rows[0].starts_with("Ann\t"), "{:?}", ann.rows);

    // EXPLAIN returns the plan without executing.
    let plan = client
        .explain("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
        .unwrap();
    assert!(
        plan.iter().any(|l| l.contains("TpJoin")),
        "unexpected EXPLAIN output: {plan:?}"
    );

    // STATS reports counters as key=value lines.
    let stats = client.stats().unwrap();
    assert!(stats.iter().any(|l| l.starts_with("connections=")));
    assert!(stats.iter().any(|l| l.starts_with("schema_epoch=")));

    client.close().unwrap();
    let final_stats = server.shutdown();
    assert_eq!(final_stats.connections, 1);
    assert!(final_stats.executed >= 2);
}

#[test]
fn snapshot_statements_flow_through_the_server() {
    let dir = std::env::temp_dir().join(format!("tpdb-server-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("booking.snap");

    let server = booking_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let reference = client
        .query("SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc")
        .unwrap();

    // SAVE reports one (Relation, Tuples) row per relation.
    let summary = client
        .query(&format!("SAVE SNAPSHOT '{}'", path.display()))
        .unwrap();
    assert_eq!(summary.rows.len(), 2);
    assert!(summary.rows[0].starts_with("a\t"), "{:?}", summary.rows);

    // LOAD swaps the catalog atomically; the query answers identically.
    let loaded = client
        .query(&format!("LOAD SNAPSHOT '{}'", path.display()))
        .unwrap();
    assert_eq!(loaded.rows.len(), 2);
    let after = client
        .query("SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc")
        .unwrap();
    assert_eq!(after, reference);

    client.close().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends one request line over a raw socket and reads its whole reply
/// frame: the `ERR` line alone, or a `ROWS`/`TEXT` header through its `OK`
/// terminator. A read past the socket's timeout fails the test instead of
/// blocking it.
fn exchange(stream: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    stream
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut read_line = || {
        let mut reply = String::new();
        let n = stream
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("no reply to `{line}`: {e}"));
        assert!(n > 0, "connection closed while answering `{line}`");
        reply.trim_end().to_owned()
    };
    let header = read_line();
    let mut frame = vec![header.clone()];
    let body = match header.split_once(' ') {
        Some(("ROWS", n)) => n.parse::<usize>().unwrap() + 2,
        Some(("TEXT", n)) => n.parse::<usize>().unwrap() + 1,
        _ => 0,
    };
    for _ in 0..body {
        frame.push(read_line());
    }
    frame
}

#[test]
fn a_join_over_an_unpriceable_snapshot_answers_a_storage_error() {
    let dir = std::env::temp_dir().join(format!("tpdb-server-unpriced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unpriced.snap");
    // `r`'s one tuple carries `x1 ∧ x2`, and neither variable has a
    // marginal; `s` is a keyed base relation.
    let keyed = |name: &str, lineage: Lineage| {
        let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        let tuple = TpTuple::new(vec![Value::Int(1)], lineage, Interval::new(0, 10), 0.5);
        rel.push(tuple).unwrap();
        rel
    };
    let var = |v| Lineage::var(VarId(v));
    let mut catalog = Catalog::new();
    catalog
        .register(keyed("r", Lineage::and2(var(1), var(2))))
        .unwrap();
    catalog.register(keyed("s", var(10))).unwrap();
    catalog.save_snapshot(&path).unwrap();

    let server = booking_server(ServerConfig::default());
    let socket = TcpStream::connect(server.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut stream = BufReader::new(socket);
    let loaded = exchange(&mut stream, &format!("LOAD SNAPSHOT '{}'", path.display()));
    assert_eq!(loaded.last().map(String::as_str), Some("OK"), "{loaded:?}");
    let join = exchange(&mut stream, "SELECT * FROM r TP LEFT JOIN s ON r.k = s.k");
    assert!(
        join[0].starts_with("ERR Storage ") && join[0].contains("x1"),
        "{join:?}"
    );
    assert_eq!(exchange(&mut stream, "PING"), ["TEXT 1", "PONG", "OK"]);
    drop(stream);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_errors_come_back_as_typed_wire_errors() {
    let server = booking_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Parse error.
    let err = client.query("SELECT FROM WHERE").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Parse), "{err}");

    // Unknown relation → storage error.
    let err = client.query("SELECT * FROM missing").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Storage), "{err}");

    // Parameterized statement executed bare → parameter-count error.
    client
        .prepare("p1", "SELECT * FROM a WHERE Name = $1")
        .unwrap();
    let err = client.execute("p1", &[]).unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::ParameterCount), "{err}");

    // Unknown prepared statement and malformed request → protocol errors.
    let err = client.execute("nope", &[]).unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Protocol), "{err}");
    let err = client.request("SLEEP never").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Protocol), "{err}");

    // The connection survives every error above.
    client.ping().unwrap();
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn full_admission_queue_rejects_with_server_busy() {
    let server = booking_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // A occupies the only worker ...
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.sleep_ms(400).unwrap();
            client.close().unwrap();
        });
        wait_for(&server, "A to start executing", |s| s.executing == 1);

        // ... B fills the depth-1 queue ...
        let b = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.sleep_ms(1).unwrap();
            client.close().unwrap();
        });
        wait_for(&server, "B to be queued", |s| s.queued == 1);

        // ... so C is rejected immediately with the typed backpressure
        // error instead of waiting.
        let mut c = Client::connect(addr).unwrap();
        let before = Instant::now();
        let err = c.ping().unwrap_err();
        assert_eq!(server_code(&err), Some(ErrorCode::ServerBusy), "{err}");
        assert!(
            before.elapsed() < Duration::from_millis(300),
            "busy rejection must not wait for the queue"
        );
        c.close().unwrap();

        a.join().unwrap();
        b.join().unwrap();
    });

    let stats = server.shutdown();
    assert!(stats.busy_rejections >= 1, "{stats:?}");
}

#[test]
fn graceful_shutdown_drains_in_flight_and_rejects_queued_requests() {
    let server = booking_server(ServerConfig {
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let a = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.request("SLEEP 600")
    });
    // Wait for A to hold the worker, then pile two requests into the
    // queue behind it.
    wait_for(&server, "A to start executing", |s| s.executing == 1);
    let queued: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping()
            })
        })
        .collect();
    wait_for(&server, "B and C to be queued", |s| s.queued == 2);

    // Shutdown: A (in flight) drains and succeeds; B and C (queued, never
    // started) get the typed shutdown error; the call joins every thread.
    let stats = server.shutdown();

    assert!(a.join().unwrap().is_ok(), "in-flight request must drain");
    for handle in queued {
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(
            server_code(&err),
            Some(ErrorCode::ServerShuttingDown),
            "{err}"
        );
    }
    assert!(stats.shutdown_rejections >= 2, "{stats:?}");
    assert_eq!(stats.executing, 0, "{stats:?}");

    // The listener is closed: new connections are refused (or at best
    // cannot complete a request).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut client) => assert!(
            client.ping().is_err(),
            "server still answering after shutdown"
        ),
    }
}

#[test]
fn dropping_the_handle_shuts_down_without_hanging() {
    let server = booking_server(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    drop(server); // must join every thread, not hang
    assert!(
        client.ping().is_err(),
        "connection must be closed by shutdown"
    );
}

#[test]
fn waiting_requests_are_admitted_in_arrival_order() {
    let server = booking_server(ServerConfig {
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let finished = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // A holds the only slot while B, C, D and E line up behind it, one
        // at a time, so their arrival order is known.
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.sleep_ms(300).unwrap();
            client.close().unwrap();
        });
        wait_for(&server, "A to start executing", |s| s.executing == 1);
        for (k, name) in ["B", "C", "D", "E"].into_iter().enumerate() {
            let finished = &finished;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.sleep_ms(20).unwrap();
                finished.lock().unwrap().push(name);
                client.close().unwrap();
            });
            wait_for(&server, "the next waiter to be queued", |s| {
                s.queued == k as u64 + 1
            });
        }
        a.join().unwrap();
    });

    // Each reply is 20 ms behind the previous one, so the order in which
    // the clients saw their replies is the order of admission.
    assert_eq!(*finished.lock().unwrap(), ["B", "C", "D", "E"]);
    let stats = server.shutdown();
    assert_eq!((stats.executing, stats.queued), (0, 0), "{stats:?}");
    assert_eq!(stats.busy_rejections, 0, "{stats:?}");
}

#[test]
fn error_replies_release_their_slot() {
    let server = booking_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..100 {
        let err = client.execute("nope", &[]).unwrap_err();
        assert_eq!(server_code(&err), Some(ErrorCode::Protocol), "{err}");
    }
    let err = client.query("SELECT * FROM missing").unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Storage), "{err}");
    let stats = server.stats();
    assert_eq!((stats.executing, stats.queued), (0, 0), "{stats:?}");
    client.ping().unwrap();
    client.close().unwrap();
    server.shutdown();
}

/// Open file descriptors of this process (Linux only).
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn closed_connections_are_forgotten_before_shutdown() {
    let server = booking_server(ServerConfig::default());
    let addr = server.local_addr();
    let fds_before = open_fds();

    for _ in 0..300 {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        client.close().unwrap();
    }

    wait_for(&server, "every connection thread to finish", |s| {
        s.connections_open == 0
    });
    assert_eq!(server.stats().connections, 300);
    // The gauge is what STATS reports, counting the asking connection.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.iter().any(|l| l == "connections_open=1"), "{stats:?}");
    client.close().unwrap();

    // Sockets and thread handles of closed connections are released while
    // the server runs (the accept above reaped them), not at shutdown.
    // Other tests of this binary open sockets of their own meanwhile, hence
    // the polling; a leak would keep the count 300 up for good.
    if let Some(before) = fds_before {
        let deadline = Instant::now() + Duration::from_secs(5);
        while open_fds().is_some_and(|now| now >= before + 10) {
            assert!(
                Instant::now() < deadline,
                "file descriptors leaked: {before} before, {:?} after 300 connections",
                open_fds()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    server.shutdown();
}

#[test]
fn a_deeply_nested_statement_is_refused_and_the_server_stays_up() {
    // 100 000 parentheses once overflowed the connection thread's stack and
    // aborted the whole server process.
    let server = booking_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let depth = 100_000;
    let text = format!("{}SELECT * FROM a{}", "(".repeat(depth), ")".repeat(depth));
    let err = client.query(&text).unwrap_err();
    assert_eq!(server_code(&err), Some(ErrorCode::Parse), "{err}");
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
}
