//! The server: acceptor, per-connection threads that execute their own
//! statements behind a counting admission gate, and graceful shutdown.
//!
//! ## Thread and data topology
//!
//! ```text
//! acceptor ──► connection threads (1/conn), each in a loop:
//!                read a line, parse the request
//!                pass the admission gate (run │ wait in line │ `ServerBusy`)
//!                pin catalog snapshot, plan via shared cache, execute
//!                  into a materialized result relation
//!                give the slot back
//!                encode the frame into the connection's buffer, one
//!                  `write_all` per 64 KiB chunk
//!                drop the result, then the pinned catalog
//! ```
//!
//! Every thread is spawned through [`crate::pool`] and joined at
//! shutdown: one acceptor plus one thread per open connection, whatever
//! `workers` is. A connection thread runs its statement itself; the gate
//! (`admit`) only counts: at most `workers` statements execute at once,
//! at most `queue_depth` requests wait — first come, first served — and
//! the next one is answered `ERR ServerBusy` on the spot (explicit
//! backpressure). The slot is given back before the response frame is
//! encoded and written, so a client that is slow to read its reply keeps
//! its own thread busy, never an execution slot.
//!
//! Every fallible step of a request — plan, bind, execute, materialize —
//! finishes under the slot, so nothing after a frame's header can fail but
//! the socket, and a failed write closes the connection. Each connection
//! owns one reply buffer. A statement's rows are encoded into it straight
//! from the result relation ([`write_rows_frame`]), lineage printed from
//! its recipe, and the buffer is written out each time it reaches
//! [`CHUNK_BYTES`] (64 KiB): the client parses one chunk while the next is
//! encoded, and a `ROWS` frame never fills the buffer beyond one chunk
//! plus one row, so it is kept for the connection's next request as it is
//! (there is no release rule). `TEXT` and `ERR` frames, and a snapshot
//! statement's summary rows, go out the same way after the slot is given
//! back; a `TEXT` or `ERR` frame is written whole. The result relation,
//! and then the catalog its statement pinned, are freed only after the
//! frame's last byte is written, while the client reads it: a connection
//! holds its materialized result plus one chunk for as long as a slow
//! reader takes.
//!
//! [`CHUNK_BYTES`]: crate::protocol::CHUNK_BYTES
//!
//! ## Reads, writes and epochs
//!
//! A request pins one [`Catalog`] snapshot
//! ([`SharedCatalog::snapshot`]) and executes entirely against it, so a
//! query sees one schema epoch — never a torn mix — while `LOAD SNAPSHOT`
//! or DDL swaps the published catalog atomically underneath. Plans come
//! from one [`PlanCache`] of [`PLAN_CACHE_CAPACITY`] plans shared by all
//! connections, keyed by normalized text and validated against the pinned
//! snapshot's epoch.
//!
//! ## Shutdown sequence
//!
//! [`ServerHandle::shutdown`]: set the draining flag → wake and join the
//! acceptor (the listener closes; new connects are refused) → half-close
//! (`Shutdown::Read`) every live connection so its thread sees EOF after
//! its in-flight reply → wake the gate's waiters, which see the flag and
//! answer `ERR ServerShuttingDown` without executing → wait until the
//! connection threads have finished, at most `SHUTDOWN_GRACE` (2 s) beyond the
//! last executing statement → close (`Shutdown::Both`) the sockets of the
//! threads still writing to a client that does not read → join the
//! connection threads. In-flight statements complete normally and their
//! replies are delivered to every client that reads them; no thread
//! outlives the call.

use crate::pool;
use crate::protocol::{parse_request, write_rows_frame, ErrorCode, Request, Response};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use tpdb_query::{
    explain, run_prepared, snapshot_summary, LogicalPlan, PlanCache, PreparedPlan, TpdbError,
};
use tpdb_storage::{Catalog, SharedCatalog, TpRelation};

/// Server sizing and execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Statements executing at once (each on its connection's thread).
    /// Default: 4.
    pub workers: usize,
    /// Requests that may wait for an execution slot, served in arrival
    /// order. A request arriving while `queue_depth` requests wait is
    /// rejected with `ServerBusy`. Default: 16.
    pub queue_depth: usize,
    /// Ignored; kept for source compatibility. Every statement runs on its
    /// connection's thread, and concurrency comes from `workers`
    /// statements executing side by side. Default: 1.
    pub parallelism: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 16,
            parallelism: 1,
        }
    }
}

/// A point-in-time copy of the server's counters
/// ([`ServerHandle::stats`], and the `STATS` wire command).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections open right now.
    pub connections_open: u64,
    /// Request lines read (parseable or not).
    pub requests: u64,
    /// Statements executed to completion (success or engine error).
    pub executed: u64,
    /// Requests rejected with `ServerBusy` (queue full).
    pub busy_rejections: u64,
    /// Requests rejected with `ServerShuttingDown`.
    pub shutdown_rejections: u64,
    /// Requests currently executing.
    pub executing: u64,
    /// Requests admitted and waiting for an execution slot.
    pub queued: u64,
    /// Shared plan-cache hits.
    pub cache_hits: u64,
    /// Shared plan-cache misses.
    pub cache_misses: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    executed: AtomicU64,
    busy_rejections: AtomicU64,
    shutdown_rejections: AtomicU64,
}

/// The admission gate's state, guarded by one mutex: how many statements
/// execute, and a ticket pair that keeps the waiters in arrival order.
#[derive(Debug, Default)]
struct Gate {
    executing: usize,
    /// The ticket the next waiter draws.
    next_ticket: usize,
    /// The ticket whose holder is admitted next; the waiters hold
    /// `now_serving..next_ticket`.
    now_serving: usize,
}

impl Gate {
    fn queued(&self) -> usize {
        self.next_ticket - self.now_serving
    }
}

/// One execution slot, given back on drop — also when the statement
/// panics, which therefore costs its connection and nothing else.
struct Slot<'a> {
    inner: &'a Inner,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut gate = lock(&self.inner.gate);
        gate.executing -= 1;
        if gate.queued() > 0 {
            self.inner.turn.notify_all();
        }
    }
}

/// Per-connection session state: the named prepared statements of this
/// connection. (Statement *plans* live in the shared cache; the
/// connection only owns the name → text binding.)
type ConnState = HashMap<String, String>;

/// One accepted connection as shutdown needs it: a clone of its socket to
/// half-close (and close, should its client never read), and its thread to
/// join.
struct Conn {
    stream: TcpStream,
    handle: JoinHandle<()>,
}

/// Everything the threads share.
struct Inner {
    shared: SharedCatalog,
    cache: PlanCache,
    /// Statements that may execute at once.
    workers: usize,
    /// Requests that may wait for a slot.
    queue_depth: usize,
    gate: Mutex<Gate>,
    /// Signalled when the head waiter may be admitted, and at shutdown.
    turn: Condvar,
    shutting_down: AtomicBool,
    counters: Counters,
    /// The connections whose threads have not been joined yet; finished
    /// ones are reaped on every accept.
    conns: Mutex<Vec<Conn>>,
}

/// Entry point: [`Server::start`] binds a listener and returns the
/// running server's [`ServerHandle`].
pub struct Server;

impl Server {
    /// Starts a server over `catalog` on a loopback port chosen by the
    /// OS. The returned handle owns every thread; dropping it (or calling
    /// [`ServerHandle::shutdown`]) stops the server and joins them all.
    pub fn start(catalog: Catalog, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            shared: SharedCatalog::new(catalog),
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            gate: Mutex::new(Gate::default()),
            turn: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            pool::spawn("acceptor", move || acceptor_loop(&inner, &listener))?
        };
        Ok(ServerHandle {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }
}

/// The running server: address, live counters, and the shutdown path.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listener address clients connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        stats_snapshot(&self.inner)
    }

    /// A pinned snapshot of the current catalog (same view a request
    /// arriving now would pin).
    #[must_use]
    pub fn catalog(&self) -> Arc<Catalog> {
        self.inner.shared.snapshot()
    }

    /// Stops the server: drains in-flight statements, answers waiting ones
    /// with `ServerShuttingDown`, closes the listener and joins every
    /// thread. Returns the final counters. See the module docs for the
    /// exact sequence.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_in_place();
        stats_snapshot(&self.inner)
    }

    fn shutdown_in_place(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of accept(); it re-checks the flag, breaks,
        // and drops the listener (new connects are then refused).
        drop(TcpStream::connect(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            drop(acceptor.join());
        }
        // Half-close live connections: their threads see EOF after writing
        // the reply of any in-flight request, then exit. Already-closed
        // sockets error harmlessly.
        let conns = std::mem::take(&mut *lock(&self.inner.conns));
        for conn in &conns {
            drop(conn.stream.shutdown(Shutdown::Read));
        }
        // Waiters test the flag under the gate's lock, so passing through
        // it once puts this wake-up after any test that still read `false`.
        drop(lock(&self.inner.gate));
        self.inner.turn.notify_all();
        // Statements finish however long they take; once none executes,
        // what is left is reply writing, which only a reading client ends.
        let mut polls_left = SHUTDOWN_GRACE.as_millis() / GRACE_POLL.as_millis();
        while polls_left > 0 && conns.iter().any(|conn| !conn.handle.is_finished()) {
            if lock(&self.inner.gate).executing == 0 {
                polls_left -= 1;
            }
            std::thread::sleep(GRACE_POLL);
        }
        for conn in conns {
            if !conn.handle.is_finished() {
                // Fails the write the thread is blocked in.
                drop(conn.stream.shutdown(Shutdown::Both));
            }
            drop(conn.handle.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Locks a mutex, recovering from poisoning: the guarded state is the
/// gate's three counters or the connection registry, mutated by single
/// steps that cannot leave it torn — and shutdown must proceed even if
/// some thread panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn stats_snapshot(inner: &Inner) -> ServerStats {
    let cache = inner.cache.stats();
    let c = &inner.counters;
    let (executing, queued) = {
        let gate = lock(&inner.gate);
        (gate.executing, gate.queued())
    };
    let open = lock(&inner.conns)
        .iter()
        .filter(|conn| !conn.handle.is_finished())
        .count();
    ServerStats {
        connections: c.connections.load(Ordering::Relaxed),
        connections_open: open as u64,
        requests: c.requests.load(Ordering::Relaxed),
        executed: c.executed.load(Ordering::Relaxed),
        busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
        shutdown_rejections: c.shutdown_rejections.load(Ordering::Relaxed),
        executing: executing as u64,
        queued: queued as u64,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    }
}

/// How long shutdown lets connection threads go on writing replies once no
/// statement executes, before it closes the sockets of those still blocked
/// (a client that never reads its reply would otherwise hold the join
/// forever).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// How often shutdown looks whether the connection threads have finished
/// (an idle connection's thread exits within microseconds of the
/// half-close, so a clean shutdown sleeps once).
const GRACE_POLL: Duration = Duration::from_millis(1);

/// How long the acceptor pauses after a failed `accept()` (out of file
/// descriptors, typically) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Plans the shared cache holds: four times a session's 128, for the
/// distinct statements of all connections together.
const PLAN_CACHE_CAPACITY: usize = 512;

/// Accepts connections until the shutdown flag is raised; each connection
/// gets its own thread, registered with a clone of its socket for
/// shutdown. Threads that have finished are joined and their sockets
/// closed here, so the registry holds the open connections plus whatever
/// closed since the last accept.
fn acceptor_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.shutting_down.load(Ordering::SeqCst) {
            // The wake-up connect (or a client racing shutdown): refuse.
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        inner.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Responses are written as one frame each; disable Nagle so the
        // frame leaves immediately instead of waiting on a delayed ACK.
        stream.set_nodelay(true).ok();

        let mut conns = lock(&inner.conns);
        for done in conns.extract_if(.., |conn| conn.handle.is_finished()) {
            drop(done.handle.join());
        }
        // A connection that cannot be registered could not be shut down
        // either: it is dropped, which closes it.
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let conn_inner = Arc::clone(inner);
        if let Ok(handle) = pool::spawn("conn", move || serve_connection(&conn_inner, &stream)) {
            conns.push(Conn {
                stream: registered,
                handle,
            });
        }
    }
}

/// A request's answer: built under the slot, written after it is given
/// back.
enum Reply {
    /// A `TEXT` or `ERR` frame.
    Frame(Response),
    /// A statement's result and the catalog the statement pinned, dropped
    /// in this order once the `ROWS` frame is written (see
    /// [`run_statement`]).
    Rows {
        relation: TpRelation,
        _pinned: Arc<Catalog>,
    },
}

/// Reads request lines off one connection, executes them behind the
/// admission gate and writes response frames back — strictly one request
/// in flight per connection.
fn serve_connection(inner: &Inner, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut conn = ConnState::new();
    let mut line = String::new();
    let mut out = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // EOF or torn connection
            Ok(_) => {}
        }
        let text = line.trim_end_matches(['\r', '\n']);
        if text.trim().is_empty() {
            continue;
        }
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match parse_request(text) {
            Err(e) => Reply::Frame(Response::Error {
                code: ErrorCode::Protocol,
                message: e.into_message(),
            }),
            Ok(Request::Close) => {
                let bye = Reply::Frame(Response::Text(vec!["BYE".to_owned()]));
                drop(write_reply(&mut writer, &mut out, &bye));
                return;
            }
            // The slot lives for this arm only: it is given back before
            // the frame is encoded, so a slow reader never holds one.
            Ok(request) => match admit(inner) {
                Ok(_slot) => handle_request(inner, &mut conn, request)
                    .unwrap_or_else(|e| Reply::Frame(Response::from_error(&e))),
                Err(refusal) => Reply::Frame(refusal),
            },
        };
        if write_reply(&mut writer, &mut out, &reply).is_err() {
            return;
        }
        // `reply` drops here, after its last byte is written.
    }
}

/// Encodes `reply` through `out` and writes it to `writer`: a `ROWS` frame
/// one chunk at a time ([`write_rows_frame`]), any other frame whole. `out`
/// is left empty unless the write fails.
fn write_reply(writer: &mut impl Write, out: &mut String, reply: &Reply) -> io::Result<()> {
    let mut send = |chunk: &str| writer.write_all(chunk.as_bytes());
    match reply {
        Reply::Rows { relation, .. } => write_rows_frame(out, relation, send),
        Reply::Frame(response) => {
            response.encode_into(out);
            send(out)?;
            out.clear();
            Ok(())
        }
    }
}

/// Admission control. A request runs at once when fewer than `workers`
/// statements execute and nobody waits; otherwise it waits its turn — in
/// arrival order, behind at most `queue_depth` others — and beyond that
/// it is answered with `ServerBusy` right here: bounded waiting, explicit
/// backpressure. Requests that arrive, or are still waiting, once
/// shutdown began get `ServerShuttingDown`.
fn admit(inner: &Inner) -> Result<Slot<'_>, Response> {
    let closing = || inner.shutting_down.load(Ordering::SeqCst);
    let mut gate = lock(&inner.gate);
    if !closing() && (gate.executing >= inner.workers || gate.queued() > 0) {
        if gate.queued() >= inner.queue_depth {
            inner
                .counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(Response::Error {
                code: ErrorCode::ServerBusy,
                message: format!("admission queue full ({} waiting); retry", gate.queued()),
            });
        }
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        gate = inner
            .turn
            .wait_while(gate, |gate| {
                !closing() && (gate.now_serving != ticket || gate.executing >= inner.workers)
            })
            .unwrap_or_else(PoisonError::into_inner);
        // Leaving the queue, admitted or not: nobody is admitted once the
        // flag is up, so the order in which waiters leave then is immaterial.
        gate.now_serving += 1;
    }
    if closing() {
        inner
            .counters
            .shutdown_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Err(Response::Error {
            code: ErrorCode::ServerShuttingDown,
            message: "server is shutting down".to_owned(),
        });
    }
    gate.executing += 1;
    if gate.queued() > 0 && gate.executing < inner.workers {
        // Another slot is free as well: the new head waiter may take it.
        inner.turn.notify_all();
    }
    Ok(Slot { inner })
}

/// Executes one request on its connection's thread (which holds a slot)
/// and returns its reply.
fn handle_request(
    inner: &Inner,
    conn: &mut ConnState,
    request: Request,
) -> Result<Reply, TpdbError> {
    let response = match request {
        Request::Query(text) => return run_statement(inner, &text, &[]),
        Request::Execute { name, params } => match conn.get(&name) {
            Some(text) => return run_statement(inner, text, &params),
            None => Response::Error {
                code: ErrorCode::Protocol,
                message: format!("unknown prepared statement `{name}`"),
            },
        },
        Request::Ping => Response::Text(vec!["PONG".to_owned()]),
        Request::Sleep(millis) => {
            std::thread::sleep(Duration::from_millis(millis));
            Response::Text(vec![format!("SLEPT {millis}")])
        }
        Request::Stats => {
            let s = stats_snapshot(inner);
            Response::Text(vec![
                format!("connections={}", s.connections),
                format!("requests={}", s.requests),
                format!("executed={}", s.executed),
                format!("busy_rejections={}", s.busy_rejections),
                format!("shutdown_rejections={}", s.shutdown_rejections),
                format!("executing={}", s.executing),
                format!("queued={}", s.queued),
                format!("cache_hits={}", s.cache_hits),
                format!("cache_misses={}", s.cache_misses),
                format!("schema_epoch={}", inner.shared.schema_epoch()),
                format!("connections_open={}", s.connections_open),
            ])
        }
        Request::Explain(text) => {
            let (snapshot, prepared) = plan(inner, &text)?;
            let out = explain(&snapshot, &prepared.plan)?;
            Response::Text(out.lines().map(str::to_owned).collect())
        }
        Request::Prepare { name, text } => {
            let parameters = plan(inner, &text)?.1.parameters;
            conn.insert(name.clone(), text);
            Response::Text(vec![format!("PREPARED {name} PARAMS {parameters}")])
        }
        // Close is answered before admission (see `serve_connection`).
        Request::Close => Response::Text(vec!["BYE".to_owned()]),
    };
    Ok(Reply::Frame(response))
}

/// Pins a catalog snapshot and plans `text` against it through the shared
/// cache.
fn plan(inner: &Inner, text: &str) -> Result<(Arc<Catalog>, Arc<PreparedPlan>), TpdbError> {
    let snapshot = inner.shared.snapshot();
    let prepared = inner.cache.get_or_prepare(&snapshot, text)?;
    Ok((snapshot, prepared))
}

/// Runs one statement: pin a snapshot, plan through the shared cache,
/// bind and execute into a materialized result, whose `ROWS` frame the
/// caller writes once the slot is given back. `LOAD SNAPSHOT` is the one
/// mutating statement and goes through the shared catalog's atomic swap
/// instead.
///
/// The pinned snapshot is returned with the result rather than dropped
/// here: after a `LOAD SNAPSHOT` it may be the last reference to the
/// catalog the load replaced, whose relations, arena and probe indexes are
/// then freed by the caller once the reply is out.
fn run_statement(
    inner: &Inner,
    text: &str,
    params: &[tpdb_storage::Value],
) -> Result<Reply, TpdbError> {
    let (snapshot, prepared) = plan(inner, text)?;
    let relation = match &prepared.plan {
        LogicalPlan::LoadSnapshot { path } => {
            let loaded = inner.shared.update(|catalog| {
                catalog.load_snapshot(path)?;
                // A clone that allocates per relation, not per tuple
                // (relations, symbols and marginals stay shared), pins the
                // freshly loaded state for the summary even if another
                // update lands right behind this one.
                Ok::<Catalog, tpdb_storage::StorageError>(catalog.clone())
            })?;
            snapshot_summary(&loaded)?
        }
        _ => run_prepared(&snapshot, &prepared, params)?,
    };
    inner.counters.executed.fetch_add(1, Ordering::Relaxed);
    Ok(Reply::Rows {
        relation,
        _pinned: snapshot,
    })
}
