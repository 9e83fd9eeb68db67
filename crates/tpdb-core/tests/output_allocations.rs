//! The heap cost of output formation, counted by a global allocator: a read-once
//! output root is priced from its operands and its lineage tree is built only
//! when `lineage()` is read, so draining a join allocates little more than
//! each row's facts and its deferred lineage. One test per binary: the counter
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpdb_core::{
    assemble_join_result, lawan, lawau, overlapping_windows, ThetaCondition, TpJoinKind,
    TpJoinStream,
};
use tpdb_lineage::ProbabilityEngine;

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

/// A left outer join over the meteo workload (40 keys, long `λs`
/// disjunctions) allocates at most 3 times per output row, stream set-up
/// included — no `And`/`Or`/`Not` wrapper of a read-once root is built
/// while the stream drains — and the deferred trees, once read, are the
/// trees of the materializing path.
#[test]
fn a_drained_left_join_allocates_at_most_three_times_per_row() {
    let (r, s) = tpdb_datagen::meteo_like(3000, 64);
    let theta = ThetaCondition::column_equals("Metric", "Metric");
    let rows = TpJoinStream::new(&r, &s, &theta, TpJoinKind::LeftOuter)
        .unwrap()
        .count();
    assert!(rows > 10_000, "{rows} rows");

    let mut out = Vec::with_capacity(rows);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    out.extend(TpJoinStream::new(&r, &s, &theta, TpJoinKind::LeftOuter).unwrap());
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.len(), rows);
    let per_row = allocations as f64 / rows as f64;
    assert!(per_row <= 3.0, "{allocations} allocations for {rows} rows");

    let wuon = lawan(&lawau(&overlapping_windows(&r, &s, &theta).unwrap(), &r));
    let mut engine = ProbabilityEngine::new();
    r.register_probabilities(&mut engine);
    s.register_probabilities(&mut engine);
    let trees = assemble_join_result(&r, &s, TpJoinKind::LeftOuter, &wuon, &[], &mut engine);
    assert_eq!(trees.len(), rows);
    for (streamed, tree) in out.iter().zip(trees.iter()) {
        assert_eq!(streamed.lineage(), tree.lineage());
        assert_eq!(streamed, tree);
    }
}
