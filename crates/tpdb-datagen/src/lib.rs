//! # tpdb-datagen
//!
//! Deterministic, seeded generators for the workloads used in the paper's
//! evaluation (Section IV) and for the examples and tests of this
//! repository.
//!
//! The original evaluation uses two real-world datasets that are not
//! redistributable with this repository:
//!
//! * the **Webkit** dataset (file-change history of the WebKit SVN
//!   repository): predictions that a file remains unchanged over an
//!   interval — many distinct join values (one per file), non-overlapping
//!   version intervals per file, a selective equi-join condition;
//! * the **Meteo Swiss** dataset: predictions that a metric at a weather
//!   station does not vary by more than 0.1 over an interval — very few
//!   distinct join values (metrics) drawn uniformly, hence a non-selective
//!   join condition.
//!
//! [`webkit_like`] and [`meteo_like`] generate synthetic datasets with the
//! same structural properties (see DESIGN.md §3 for the substitution
//! rationale); [`uniform`] and [`zipf`] provide fully parameterizable
//! workloads for ablations. [`booking_example`] reproduces the running
//! example of Fig. 1 exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod booking;
mod synthetic;

pub use booking::booking_example;
pub use synthetic::{meteo_like, uniform, webkit_like, zipf, GeneratorConfig};
