//! # TPDB — Temporal-Probabilistic Database engine
//!
//! An open-source Rust reproduction of *"Outer and Anti Joins in
//! Temporal-Probabilistic Databases"* (Papaioannou, Theobald, Böhlen — ICDE
//! 2019).
//!
//! The umbrella crate re-exports the public API of every component crate so
//! that downstream users can depend on a single crate:
//!
//! * [`temporal`] — intervals, the timeline and the overlap-join interval index,
//! * [`lineage`] — boolean lineage formulas and exact probability,
//! * [`storage`] — the TP data model, relations and catalog,
//! * [`core`] — lineage-aware temporal windows, LAWAU/LAWAN and TP joins,
//! * [`ta`] — the Temporal Alignment baseline,
//! * [`query`] — the pipelined (Volcano-style) query engine,
//! * [`server`] — the concurrent multi-session TCP front-end,
//! * [`datagen`] — synthetic dataset generators for the experiments.
//!
//! ## Quickstart
//!
//! ```
//! use tpdb::prelude::*;
//!
//! // Build the running example of the paper (Fig. 1).
//! let (a, b) = tpdb::datagen::booking_example();
//!
//! // TP left outer join:   Q = a ⟕_{a.Loc = b.Loc} b
//! let theta = ThetaCondition::column_equals("Loc", "Loc");
//! let result = tp_left_outer_join(&a, &b, &theta).unwrap();
//!
//! // Seven answer tuples, as in Fig. 1b.
//! assert_eq!(result.len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub use tpdb_core as core;
pub use tpdb_datagen as datagen;
pub use tpdb_lineage as lineage;
pub use tpdb_query as query;
pub use tpdb_server as server;
pub use tpdb_storage as storage;
pub use tpdb_ta as ta;
pub use tpdb_temporal as temporal;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use tpdb_core::{
        lawan, lawau, overlapping_windows, tp_anti_join, tp_difference, tp_full_outer_join,
        tp_inner_join, tp_intersection, tp_left_outer_join, tp_right_outer_join, tp_union,
        ThetaCondition, TpJoinStream, TpSetOpKind, Window, WindowKind,
    };
    pub use tpdb_lineage::{Lineage, ProbabilityEngine, SymbolTable, VarId};
    pub use tpdb_query::{PreparedQuery, ResultCursor, Session, SessionStats, TpdbError};
    pub use tpdb_storage::{Catalog, Field, Schema, TpRelation, TpTuple, Value};
    pub use tpdb_temporal::{Interval, TimePoint};
}
