//! The heap cost of opening a statement over stored relations, counted by a
//! global allocator: the inputs arrive interned in the catalog's lineage
//! arena, with their marginals and certification facts, so opening a
//! prepared join cursor and pulling its first row allocates nothing per
//! input tuple; the stored relations keep their probe indexes from the
//! first execution, so it allocates nothing per join key either. What
//! remains is per statement and per window group. One test per binary: the
//! counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpdb_query::Session;
use tpdb_storage::Catalog;

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

const LEFT_JOIN: &str =
    "SELECT * FROM meteo_r TP LEFT JOIN meteo_s ON meteo_r.Metric = meteo_s.Metric";

/// The allocations of opening the prepared meteo left outer join over
/// `tuples`-tuple relations and pulling its first row, after one drained
/// execution has built the catalog's arena and cached the plan.
fn open_and_pull_first_row(tuples: usize) -> usize {
    let (r, s) = tpdb_datagen::meteo_like(tuples, 7);
    let mut catalog = Catalog::new();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    let session = Session::new(catalog);
    let statement = session.prepare(LEFT_JOIN).unwrap();
    let rows = statement.query(&[]).unwrap().count();
    assert!(rows > tuples, "{rows} rows");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut cursor = statement.query(&[]).unwrap();
    let first = cursor.next();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(first.unwrap().is_ok());
    allocations
}

/// Nothing per input tuple or per key partition allocates: the first
/// execution left the probe indexes in the stored relations, so opening
/// 6000 tuples allocates what opening 3000 does, within a handful
/// (measured: 71 and 71; 357 and 397 while each pass built its index).
#[test]
fn opening_a_catalog_join_allocates_nothing_per_input_tuple() {
    let small = open_and_pull_first_row(3000);
    let large = open_and_pull_first_row(6000);
    assert!(
        large.abs_diff(small) <= 4 && small <= 80,
        "{small} allocations at 3000 tuples, {large} at 6000"
    );
}
