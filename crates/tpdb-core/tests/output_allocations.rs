//! The heap cost of output formation, counted by a global allocator: a read-once
//! output root is priced from its operands and its lineage tree is built only
//! when `lineage()` is read, so draining a join allocates little more than
//! each row's facts and its deferred lineage. One test per binary: the counter
//! is process-wide, so both drains share the one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpdb_core::{ThetaCondition, TpJoinKind, TpJoinStream};
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{TpRelation, TpTuple};

mod tree_reference;

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

/// Drains `kind` over `r` and `s`, returning the rows and the allocations
/// per row (stream set-up included), and checks that the deferred trees,
/// once read, are the trees of the tree reference.
fn drain(r: &TpRelation, s: &TpRelation, column: &str, kind: TpJoinKind) -> (Vec<TpTuple>, f64) {
    let theta = ThetaCondition::column_equals(column, column);
    let rows = TpJoinStream::new(r, s, &theta, kind).unwrap().count();
    let mut out = Vec::with_capacity(rows);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    out.extend(TpJoinStream::new(r, s, &theta, kind).unwrap());
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.len(), rows);

    let mut engine = ProbabilityEngine::new();
    r.register_probabilities(&mut engine);
    s.register_probabilities(&mut engine);
    let trees = tree_reference::tree_join(r, s, &theta, kind, &mut engine);
    assert_eq!(trees.len(), rows);
    for (streamed, tree) in out.iter().zip(&trees) {
        assert_eq!(streamed.lineage(), tree.lineage());
        assert_eq!(streamed, tree);
    }
    (out, allocations as f64 / rows as f64)
}

/// A left outer join over the meteo workload (40 keys, long `λs`
/// disjunctions) allocates at most 2.5 times per output row (2.44 measured),
/// and a full outer join over the webkit workload (mostly single-operand
/// `λs`) at most 1.9 times (1.81): no `And`/`Or`/`Not` wrapper of a
/// read-once root is built while the stream drains, no `¬λs` is interned as
/// a node, and the probe indexes allocate one key per distinct key, none
/// per tuple or probe.
#[test]
fn a_drained_left_join_allocates_at_most_three_times_per_row() {
    let (r, s) = tpdb_datagen::meteo_like(3000, 64);
    let (rows, per_row) = drain(&r, &s, "Metric", TpJoinKind::LeftOuter);
    assert!(rows.len() > 10_000, "{} rows", rows.len());
    assert!(per_row <= 2.5, "{per_row} allocations per row");

    let (r, s) = tpdb_datagen::webkit_like(12_000, 64);
    let (rows, per_row) = drain(&r, &s, "Key", TpJoinKind::FullOuter);
    assert!(rows.len() > 50_000, "{} rows", rows.len());
    assert!(per_row <= 1.9, "{per_row} allocations per row");
}
