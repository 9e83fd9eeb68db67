//! The `Send`/`Sync` audit behind the server front-end: every type a
//! worker thread touches must cross (or be shared across) thread
//! boundaries. These are compile-time proofs — if a `Rc`, `RefCell` or
//! raw pointer sneaks into any of these types, this file stops building,
//! which is the point: the server's thread-safety is a checked property,
//! not an assumption.

use tpdb::prelude::*;
use tpdb::query::{PlanCache, PreparedPlan};
use tpdb::server::{Client, Response, ServerHandle, ServerStats};
use tpdb::storage::SharedCatalog;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_types_cross_thread_boundaries() {
    // Storage: catalogs move to worker threads and snapshots are shared.
    assert_send_sync::<Catalog>();
    assert_send_sync::<SharedCatalog>();
    assert_send_sync::<TpRelation>();
    assert_send_sync::<TpTuple>();
    assert_send_sync::<Value>();
    assert_send_sync::<Schema>();

    // Lineage: formulas ride inside tuples; the probability engine is
    // per-evaluation state a worker owns.
    assert_send_sync::<Lineage>();
    assert_send_sync::<SymbolTable>();
    assert_send_sync::<ProbabilityEngine>();

    // Temporal primitives.
    assert_send_sync::<Interval>();
}

#[test]
fn query_layer_types_cross_thread_boundaries() {
    // Sessions can be owned by a worker; prepared handles borrow them.
    assert_send_sync::<Session>();
    assert_send_sync::<PreparedQuery<'static>>();
    // Cursors wrap a boxed operator pipeline: `PhysicalOperator: Send`
    // makes the whole pipeline movable to the thread that drains it.
    assert_send::<ResultCursor>();
    // The shared plan cache is the one all workers hit concurrently.
    assert_send_sync::<PlanCache>();
    assert_send_sync::<PreparedPlan>();
    assert_send_sync::<TpdbError>();
}

#[test]
fn server_types_cross_thread_boundaries() {
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<ServerStats>();
    assert_send::<Client>();
    assert_send_sync::<Response>();
}
