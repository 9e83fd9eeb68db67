//! A concurrently shared catalog handle with epoch-consistent snapshot
//! reads.
//!
//! [`SharedCatalog`] is the multi-session view of a [`Catalog`]: readers
//! call [`snapshot`](SharedCatalog::snapshot) and receive an
//! `Arc<Catalog>` **pinned at one schema epoch** — an immutable view no
//! concurrent mutation can tear, because mutations never touch a published
//! catalog. [`update`](SharedCatalog::update) instead clones the current
//! catalog (relation payloads, symbol table and marginals stay shared
//! behind their own `Arc`s), applies the mutation to the private copy, and
//! swaps the handle atomically. A
//! query that pinned epoch `e` therefore sees *all* of epoch `e` and
//! *nothing* of epoch `e + 1`, even while DDL or a `LOAD SNAPSHOT` runs in
//! parallel — the read path of the server front-end.
//!
//! ```
//! use tpdb_storage::{Catalog, DataType, Schema, SharedCatalog, TpRelation};
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .register(TpRelation::new("a", Schema::tp(&[("X", DataType::Int)])))
//!     .unwrap();
//! let shared = SharedCatalog::new(catalog);
//!
//! // Readers pin an epoch-consistent view ...
//! let pinned = shared.snapshot();
//! assert_eq!(pinned.schema_epoch(), 1);
//!
//! // ... that survives a concurrent mutation unchanged.
//! shared.update(|c| c.drop_relation("a")).unwrap();
//! assert!(pinned.relation("a").is_ok()); // the pinned view still has it
//! assert!(shared.snapshot().relation("a").is_err()); // a fresh pin does not
//! assert_eq!(shared.snapshot().schema_epoch(), 2);
//! ```

use crate::catalog::Catalog;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A swap-on-write handle to a [`Catalog`] shared by many sessions.
///
/// See the module docs above for the snapshot/update protocol. The
/// handle itself is cheap to share (`Arc<SharedCatalog>`); every method
/// takes `&self`.
#[derive(Debug)]
pub struct SharedCatalog {
    /// The published catalog. Readers hold its lock only to clone the
    /// `Arc`, a writer only to swap it.
    current: RwLock<Arc<Catalog>>,
    /// Taken by writers alone, for the whole of an update: writers
    /// serialize on it, and readers never wait for a mutation's work.
    writer: Mutex<()>,
}

impl SharedCatalog {
    /// Wraps a catalog for shared access.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self {
            current: RwLock::new(Arc::new(catalog)),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current catalog: the returned `Arc` is an immutable,
    /// epoch-consistent view that concurrent [`update`](Self::update)s
    /// cannot change. Cost: one `RwLock` read acquisition and one `Arc`
    /// clone — no data is copied.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Catalog> {
        // A poisoned lock is recovered with `into_inner`: the slot holds a
        // single `Arc` pointer, which cannot be observed torn, and a
        // read-only pin must not fail an otherwise healthy server.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The schema epoch of the currently published catalog.
    #[must_use]
    pub fn schema_epoch(&self) -> u64 {
        self.snapshot().schema_epoch()
    }

    /// Applies a mutation atomically: clones the published catalog — one
    /// allocation per relation, none per tuple: payloads, symbol table and
    /// marginals are shared until `f` writes them — runs `f` on the
    /// private copy, and swaps the copy in. Readers pinned on
    /// the old epoch keep their view; the next [`snapshot`](Self::snapshot)
    /// sees the whole mutation or none of it. Writers serialize on a lock
    /// of their own, held for the whole update, so no update is lost;
    /// readers wait only for the swap, never for `f`.
    ///
    /// `f`'s return value is passed through, so fallible catalog calls
    /// compose: `shared.update(|c| c.drop_relation("a"))?`. **A mutation
    /// that fails must leave the catalog unchanged or report it**: the
    /// clone is swapped in regardless of what `f` returns, because `f` may
    /// legitimately make several changes before one fails (the catalog's
    /// own mutators are individually atomic, so this matches single-owner
    /// behavior).
    ///
    /// Infallible: a lock poisoned by an `f` that panicked is recovered.
    /// `f` ran on a private copy and the slot is written only after `f`
    /// returns, so a panic leaves the published catalog as it was.
    pub fn update<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut copy = Catalog::clone(&self.snapshot());
        let out = f(&mut copy);
        let replaced = {
            let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *slot, Arc::new(copy))
        };
        // The replaced catalog is released outside the readers' lock: when
        // this was its last pin, freeing it is the writer's work alone.
        drop(replaced);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::schema::{DataType, Schema};
    use crate::TpRelation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(TpRelation::new("r", Schema::tp(&[("X", DataType::Int)])))
            .unwrap();
        c
    }

    #[test]
    fn snapshots_are_epoch_pinned_and_immutable() {
        let shared = SharedCatalog::new(catalog());
        let before = shared.snapshot();
        let epoch = before.schema_epoch();
        shared
            .update(|c| c.register(TpRelation::new("s", Schema::tp(&[("Y", DataType::Int)]))))
            .unwrap();
        // The pinned view is untouched; the published one moved on.
        assert_eq!(before.schema_epoch(), epoch);
        assert!(before.relation("s").is_err());
        let after = shared.snapshot();
        assert_eq!(after.schema_epoch(), epoch + 1);
        assert!(after.relation("s").is_ok());
    }

    #[test]
    fn update_passes_the_closure_result_through() {
        let shared = SharedCatalog::new(catalog());
        let inner = shared.update(|c| c.drop_relation("missing"));
        assert!(matches!(inner, Err(StorageError::UnknownRelation(_))));
        // The failed drop mutated nothing; r is still there.
        assert!(shared.snapshot().relation("r").is_ok());
    }

    #[test]
    fn updates_from_many_threads_serialize() {
        let shared = SharedCatalog::new(Catalog::new());
        #[expect(clippy::disallowed_methods, reason = "the test races writers")]
        std::thread::scope(|scope| {
            for i in 0..8 {
                let shared = &shared;
                scope.spawn(move || {
                    shared
                        .update(|c| {
                            c.register(TpRelation::new(
                                format!("r{i}").as_str(),
                                Schema::tp(&[("X", DataType::Int)]),
                            ))
                        })
                        .unwrap();
                });
            }
        });
        let final_view = shared.snapshot();
        assert_eq!(final_view.schema_epoch(), 8);
        assert_eq!(final_view.relation_names().len(), 8);
    }

    #[test]
    fn cloned_catalogs_share_relation_payloads() {
        let shared = SharedCatalog::new(catalog());
        let a = shared.snapshot();
        shared.update(|_| ());
        let b = shared.snapshot();
        // The update cloned the map, not the relations.
        assert!(Arc::ptr_eq(
            &a.relation("r").unwrap(),
            &b.relation("r").unwrap()
        ));
    }

    #[test]
    fn readers_do_not_wait_for_an_update_in_progress() {
        use std::sync::mpsc;
        use std::time::Duration;
        let shared = &SharedCatalog::new(catalog());
        let epoch = shared.schema_epoch();
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        #[expect(clippy::disallowed_methods, reason = "the test parks a writer")]
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                shared.update(|c| {
                    parked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    c.register(TpRelation::new("s", Schema::tp(&[("Y", DataType::Int)])))
                })
            });
            parked_rx.recv().unwrap();
            // The first update's closure is parked: a reader pins the
            // published catalog without waiting for it ...
            let (pinned_tx, pinned_rx) = mpsc::channel();
            scope.spawn(move || pinned_tx.send(shared.snapshot().schema_epoch()).unwrap());
            let pinned = pinned_rx.recv_timeout(Duration::from_secs(10));
            // ... and a second writer queues behind it.
            let second = scope.spawn(move || {
                shared.update(|c| {
                    c.register(TpRelation::new("t", Schema::tp(&[("Z", DataType::Int)])))
                })
            });
            release_tx.send(()).unwrap();
            assert_eq!(pinned, Ok(epoch), "the reader waited for the update");
            first.join().unwrap().unwrap();
            second.join().unwrap().unwrap();
        });
        // Both updates landed, one after the other.
        let after = shared.snapshot();
        assert_eq!(after.schema_epoch(), epoch + 2);
        assert!(after.relation("s").is_ok() && after.relation("t").is_ok());
    }

    #[test]
    fn a_panicking_update_leaves_the_handle_usable() {
        let shared = SharedCatalog::new(catalog());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.update(|c| {
                c.drop_relation("r").unwrap();
                panic!("mutation failed midway");
            })
        }));
        assert!(panicked.is_err());
        // The half-done copy was never published ...
        assert!(shared.snapshot().relation("r").is_ok());
        // ... and the next update runs and is seen.
        shared
            .update(|c| c.register(TpRelation::new("s", Schema::tp(&[("Y", DataType::Int)]))))
            .unwrap();
        assert!(shared.snapshot().relation("s").is_ok());
    }
}
