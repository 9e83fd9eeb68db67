//! The heap cost of the served read path, counted by a global allocator:
//! a response is written in chunks through a buffer that already has room
//! without one allocation, deferred lineages included, the buffer never
//! grows beyond one chunk plus one row, the client reads it with one
//! allocation per row, so does the one-shot `render_relation_rows`, and a
//! filtered scan copies only the tuples it returns. One test per binary:
//! the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpdb_core::{tp_join, ThetaCondition, TpJoinKind};
use tpdb_query::{parse_query, plan_query};
use tpdb_server::protocol::{render_relation_rows, write_rows_frame, CHUNK_BYTES};
use tpdb_server::Client;
use tpdb_storage::{Catalog, TpRelation, TpTuple};

/// Counts every allocation and reallocation; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn deferred(relation: &TpRelation) -> Vec<bool> {
    relation
        .iter()
        .map(|t| t.lazy_lineage().is_deferred())
        .collect()
}

#[test]
fn the_served_read_path_allocates_only_for_the_rows_it_returns() {
    // A certified anti join: its rows carry deferred `λr ∧ ¬λs` recipes.
    let (r, s) = tpdb_datagen::webkit_like(1000, 7);
    let theta = ThetaCondition::column_equals("Key", "Key");
    let anti = tp_join(&r, &s, &theta, TpJoinKind::Anti).unwrap();
    let before = deferred(&anti);
    assert!(
        before.iter().filter(|&&d| d).count() > 100,
        "the anti join must defer its roots"
    );
    // The first write sizes the buffer and keeps the frame; the second,
    // counted, compares every chunk with the frame in place.
    let mut out = String::new();
    let mut frame = String::new();
    write_rows_frame(&mut out, &anti, |chunk| {
        frame.push_str(chunk);
        Ok::<(), ()>(())
    })
    .unwrap();
    let capacity = out.capacity();
    let mut sent = 0;
    let (sink, written) = allocations(|| {
        write_rows_frame(&mut out, &anti, |chunk| {
            assert_eq!(chunk, &frame[sent..sent + chunk.len()]);
            sent += chunk.len();
            Ok::<(), ()>(())
        })
    });
    sink.unwrap();
    assert_eq!(written, 0, "allocations writing into a sized buffer");
    assert_eq!((sent, out.capacity()), (frame.len(), capacity));
    assert_eq!(deferred(&anti), before, "rendering built a deferred tree");
    // The buffer holds one chunk plus the longest line (measured: capacity
    // 65 588 = 64 KiB + 52 for a 137 936-byte frame, three chunks, whose
    // longest line is 64 bytes).
    let longest = frame.lines().map(|line| line.len() + 1).max().unwrap();
    assert!(
        capacity <= CHUNK_BYTES + longest,
        "capacity {capacity}, longest line {longest}, frame {}",
        frame.len()
    );

    // The client reads a frame with one allocation per row: a connection
    // whose peer has written two copies of the frame, the first read to
    // size the client's line buffer, the second counted.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let frames = frame.repeat(2);
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(frames.as_bytes()).unwrap();
        // Drain the requests until the client hangs up, allocating nothing.
        let mut sink = [0u8; 256];
        while stream.read(&mut sink).is_ok_and(|n| n > 0) {}
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query("first").unwrap().rows.len(), anti.len());
    let (rows, read) = allocations(|| client.query("second").unwrap());
    assert_eq!(rows.rows.len(), anti.len());
    assert!(
        read <= anti.len() + 4,
        "{read} allocations reading {} rows",
        anti.len()
    );
    drop(client);
    peer.join().unwrap();

    // The one-shot renderer writes every row through one reused buffer and
    // copies it out at its exact size (measured: rows + 5, the result
    // vector and the buffer's growth).
    let (rendered, rendering) = allocations(|| render_relation_rows(&anti));
    assert_eq!(rendered.len(), anti.len());
    assert!(
        rendering <= anti.len() + 8,
        "{rendering} allocations rendering {} rows",
        anti.len()
    );

    // A filter over a stored scan clones the matches, not every tuple.
    let (meteo, _) = tpdb_datagen::meteo_like(4000, 7);
    let stored = meteo.len();
    let mut catalog = Catalog::new();
    catalog.register(meteo).unwrap();
    let plan = parse_query("SELECT * FROM meteo_r WHERE Metric = 7").unwrap();
    let mut op = plan_query(&catalog, &plan).unwrap();
    let mut rows: Vec<TpTuple> = Vec::with_capacity(stored);
    let ((), drained) = allocations(|| {
        while let Some(t) = op.next() {
            rows.push(t.unwrap());
        }
    });
    assert!(
        !rows.is_empty() && rows.len() * 10 < stored,
        "{} of {stored} rows match",
        rows.len()
    );
    assert!(
        drained <= 2 * rows.len() + 8,
        "{drained} allocations draining {} of {stored} rows",
        rows.len()
    );
}
