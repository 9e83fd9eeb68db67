//! # tpdb-storage
//!
//! The temporal-probabilistic (TP) data model and an in-memory storage
//! engine: values, schemas, tuples, relations, catalogs and import/export.
//!
//! A TP relation has schema `(F, λ, T, p)`:
//!
//! * `F` — the non-temporal *fact* attributes (regular relational columns),
//! * `λ` — the tuple's lineage, a boolean formula over base-tuple variables,
//! * `T` — the half-open validity interval `[Ts, Te)`,
//! * `p` — the probability that the fact holds at each time point of `T`.
//!
//! Base relations carry atomic lineages (a fresh variable per tuple), derived
//! relations carry compound lineages. A TP relation is *duplicate-free*: for
//! any fact, the valid intervals of its tuples do not overlap. This crate
//! stands in for the storage layer PostgreSQL provided in the paper's
//! implementation.
//!
//! ```
//! use tpdb_storage::{Catalog, DataType, Schema, Value};
//! use tpdb_temporal::Interval;
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]);
//! let mut builder = catalog.create_relation("a", schema).unwrap();
//! builder.push(
//!     vec![Value::str("Ann"), Value::str("ZAK")],
//!     Interval::new(2, 8),
//!     0.7,
//! );
//! builder.push(
//!     vec![Value::str("Jim"), Value::str("WEN")],
//!     Interval::new(7, 10),
//!     0.8,
//! );
//! let a = builder.finish();
//! assert_eq!(a.len(), 2);
//! assert_eq!(a.tuple(0).probability(), 0.7);
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

mod catalog;
mod error;
mod integrity;
mod probe;
mod relation;
mod schema;
mod shared;
pub mod snapshot;
mod tuple;
mod value;

pub use catalog::{Catalog, RelationBuilder};
pub use error::StorageError;
pub use integrity::{check_duplicate_free, IntegrityViolation};
pub use probe::ProbeIndex;
pub use relation::TpRelation;
pub use schema::{DataType, Field, Schema};
pub use shared::SharedCatalog;
/// The decimal digit writer of lineage text, for the row writers above this
/// crate: the wire writes integer facts and interval endpoints with it.
pub use tpdb_lineage::write_decimal;
pub use tuple::TpTuple;
pub use value::Value;
