//! # tpdb-server
//!
//! A concurrent multi-session TCP front-end for the TP query engine — the
//! subsystem that turns the library into a database many clients share
//! (ROADMAP item 3).
//!
//! * **Line protocol** ([`protocol`]): newline-delimited requests carrying
//!   the existing query text (plus `PREPARE`/`EXECUTE`/`EXPLAIN`/snapshot
//!   statements), count-delimited response frames.
//! * **Bounded execution with backpressure** ([`Server`]): statements run
//!   on their connection's thread behind a counting admission gate — at
//!   most `workers` at once, at most `queue_depth` waiting in arrival
//!   order; beyond that the server answers `ERR ServerBusy` instead of
//!   letting requests pile up without limit.
//! * **Epoch-consistent reads**: each request pins an
//!   [`Arc<Catalog>`](tpdb_storage::Catalog) snapshot via
//!   [`SharedCatalog`](tpdb_storage::SharedCatalog); `LOAD SNAPSHOT` and
//!   DDL swap the published catalog atomically, so readers see one schema
//!   epoch — never a torn mix.
//! * **Shared plan cache**: one [`PlanCache`](tpdb_query::PlanCache)
//!   serves all connections, keyed by normalized text + schema epoch.
//! * **Blocking client** ([`Client`]): used by the tests, the
//!   `concurrent_clients` example and `tpbench`'s `served_mix` workload.
//!
//! ```
//! use tpdb_server::{Client, Server, ServerConfig};
//! use tpdb_storage::Catalog;
//!
//! let mut catalog = Catalog::new();
//! let (a, b) = tpdb_datagen::booking_example();
//! catalog.register(a).unwrap();
//! catalog.register(b).unwrap();
//!
//! let server = Server::start(catalog, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let rows = client
//!     .query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
//!     .unwrap();
//! assert_eq!(rows.rows.len(), 7);
//!
//! client.close().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod client;
mod pool;
pub mod protocol;
mod server;

pub use client::{Client, ClientError, Rows};
pub use protocol::{ErrorCode, Request, Response};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
