//! # tpdb-query
//!
//! A pipelined (Volcano-style) query engine for TP relations: logical
//! plans, physical operators, a rule-based planner and a small textual
//! query language. This crate stands in for the PostgreSQL integration of
//! the paper (parser / optimizer / executor modifications): both the NJ
//! window approach and the Temporal Alignment baseline are exposed as join
//! *strategies* that the planner can pick, and the NJ join is executed as a
//! fully pipelined operator built on the streaming window adaptors of
//! `tpdb-core`.
//!
//! The public entry point is the [`Session`], which implements the
//! standard database front-end contract:
//!
//! * **prepare once** — [`Session::prepare`] parses and validates a
//!   statement a single time, caching the plan (keyed by normalized query
//!   text and the catalog's schema epoch);
//! * **bind many** — the resulting [`PreparedQuery`] executes repeatedly
//!   with different `$1..$n` parameter bindings;
//! * **stream results** — [`Session::query`] / [`PreparedQuery::query`]
//!   open a [`ResultCursor`] that yields tuples as they leave the
//!   streaming window pipeline instead of materializing the result.
//!
//! Every API returns the unified [`TpdbError`]; parse errors carry byte
//! spans and the offending token.
//!
//! ## Example
//!
//! ```
//! use tpdb_query::Session;
//! use tpdb_storage::{Catalog, Value};
//!
//! let mut catalog = Catalog::new();
//! let (a, b) = tpdb_datagen::booking_example();
//! catalog.register(a).unwrap();
//! catalog.register(b).unwrap();
//!
//! let session = Session::new(catalog);
//!
//! // Prepare once, bind many.
//! let stmt = session
//!     .prepare("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = $1")
//!     .unwrap();
//! assert_eq!(stmt.execute(&[Value::str("Ann")]).unwrap().len(), 6);
//!
//! // Stream instead of materializing.
//! let mut cursor = session
//!     .query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
//!     .unwrap();
//! assert!(cursor.next().unwrap().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod cursor;
mod error;
mod exec;
mod expr;
mod parser;
mod plan;
mod planner;
mod session;
mod shared_cache;

pub use cursor::ResultCursor;
pub use error::{ParseError, Span, TpdbError};
pub use exec::{execute_plan, PhysicalOperator};
pub use expr::{LiteralPredicate, Operand};
pub use parser::parse_query;
pub use plan::{JoinStrategy, LogicalPlan};
pub use planner::{explain, plan_query, plan_query_with, QueryOptions};
pub use session::{snapshot_summary, PreparedQuery, Session, SessionStats};
pub use shared_cache::{
    normalize_text, prepare_plan, run_prepared, PlanCache, PlanCacheStats, PreparedPlan,
};
pub use tpdb_core::{CompareOp, TpSetOpKind};
