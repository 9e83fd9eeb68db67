//! # tpdb-temporal
//!
//! Intervals, the discrete timeline and the interval index of the overlap
//! join.
//!
//! This crate provides the temporal substrate of the TPDB system: half-open
//! validity intervals `[start, end)` over a discrete integer timeline and
//! the start-sorted partition kernels ([`sort_partition`],
//! [`overlapping_in`]) that the overlap join's probe index
//! (`tpdb_storage::ProbeIndex`) is built and probed with.
//! [`SortedIntervalIndex`] wraps them for a single partition.
//!
//! The time domain is a discrete, totally ordered set of [`TimePoint`]s
//! (chronons). All intervals are half-open: a tuple with interval `[2, 8)` is
//! valid at time points 2, 3, ..., 7 but not at 8. This matches the convention
//! of the paper *"Outer and Anti Joins in Temporal-Probabilistic Databases"*
//! (Papaioannou, Theobald, Böhlen — ICDE 2019).
//!
//! ## Quick example
//!
//! ```
//! use tpdb_temporal::Interval;
//!
//! let a = Interval::new(2, 8);
//! let b = Interval::new(4, 6);
//! assert!(a.overlaps(&b));
//! assert_eq!(a.intersect(&b), Some(Interval::new(4, 6)));
//! // [2,8) and [8,12) meet at 8 but share no time point.
//! let c = Interval::new(8, 12);
//! assert!(!a.overlaps(&c));
//! assert_eq!(a.intersect(&c), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod interval;
mod point;
mod sorted;

pub use interval::{Interval, IntervalError};
pub use point::{TimePoint, MAX_TIME, MIN_TIME};
pub use sorted::{overlapping_in, sort_partition, SortedIntervalIndex, SortedIntervalIndexBuilder};
