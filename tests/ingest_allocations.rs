//! The heap cost of ingest, counted by a global allocator: importing
//! delimited text, loading a snapshot and cloning a catalog. Import borrows
//! its fields from the text and allocates each symbol name once, load does
//! the same from the snapshot payload, and a clone shares the symbol table,
//! so what is left per tuple is its facts, its lineage and its name. One
//! test per binary: the counter is process-wide.

use csv_text::to_csv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpdb::storage::{Catalog, TpRelation};

mod csv_text;

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

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Both relations of a workload pair with their CSV text.
fn rendered(pair: &(TpRelation, TpRelation)) -> [(&TpRelation, String); 2] {
    [
        (&pair.0, to_csv(pair.0.tuples())),
        (&pair.1, to_csv(pair.1.tuples())),
    ]
}

/// Imports each relation under its own name.
fn import(inputs: &[(&TpRelation, String)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (relation, csv) in inputs {
        let schema = relation.schema().clone();
        catalog
            .import_delimited(relation.name(), schema, ',', csv)
            .unwrap();
    }
    catalog
}

/// Per imported tuple at most 3.5 allocations (measured 3.01 on
/// `webkit_like` and on `meteo_like`: facts, lineage, name; 13.2 and 15.3
/// while every field was an owned `String` and every name three), per
/// loaded tuple at most 3.5 (measured 3.00; 4.00 while the decoder staged a
/// `Vec<String>` of names), and a `Catalog::clone` allocates per relation:
/// 5 for four relations at 1 000 and at 4 000 tuples a relation (8 007 and
/// 32 007 while the symbol table was copied, 2.0 per tuple).
#[test]
fn ingest_allocates_a_bounded_count_per_tuple_and_a_clone_none() {
    let workloads = [
        ("webkit_like", tpdb_datagen::webkit_like(6000, 7)),
        ("meteo_like", tpdb_datagen::meteo_like(6000, 7)),
    ];
    for (workload, pair) in workloads {
        let tuples = (pair.0.len() + pair.1.len()) as f64;
        let inputs = rendered(&pair);
        let (imported, allocations) = counted(|| import(&inputs));
        let per_import = allocations as f64 / tuples;
        assert!(
            per_import <= 3.5,
            "{workload}: {per_import} allocations per imported tuple"
        );

        let bytes = imported.to_snapshot_bytes().unwrap();
        let (loaded, allocations) = counted(|| {
            let mut catalog = Catalog::new();
            catalog.load_snapshot_bytes(&bytes).unwrap();
            catalog
        });
        let per_load = allocations as f64 / tuples;
        assert!(
            per_load <= 3.5,
            "{workload}: {per_load} allocations per loaded tuple"
        );
        assert_eq!(loaded.to_snapshot_bytes().unwrap(), bytes, "{workload}");
    }

    let clone_cost = |tuples: usize| {
        let (webkit, meteo) = (
            tpdb_datagen::webkit_like(tuples, 7),
            tpdb_datagen::meteo_like(tuples, 7),
        );
        let inputs: Vec<_> = rendered(&webkit)
            .into_iter()
            .chain(rendered(&meteo))
            .collect();
        let catalog = import(&inputs);
        let _ = catalog.probability_engine();
        counted(|| catalog.clone()).1
    };
    let (small, large) = (clone_cost(1000), clone_cost(4000));
    assert_eq!(small, large, "a clone allocates per tuple");
    assert!(small <= 8, "{small} allocations to clone four relations");
}
