//! # tpdb-ta
//!
//! The **Temporal Alignment (TA)** baseline: the adjustment-operator
//! approach of Dignös, Böhlen, Gamper and Jensen (*"Extending the Kernel of
//! a Relational DBMS with Comprehensive Support for Sequenced Temporal
//! Queries"*, TODS 2016), adapted to temporal-probabilistic joins with
//! negation. This is the only prior approach the paper identifies as
//! adaptable to TP joins with negation and it is the comparison system of
//! the evaluation section.
//!
//! TA works by *aligning* (splitting) the tuples of the positive relation at
//! the interval boundaries of the matching tuples of the negative relation,
//! replicating a tuple once per produced fragment, and then running
//! conventional (non-temporal) joins over the aligned fragments. Compared to
//! the lineage-aware window approach (NJ) of `tpdb-core` this has three
//! sources of overhead, all called out in Section IV of the paper:
//!
//! 1. the conventional overlap join is executed **twice** when computing the
//!    overlapping and unmatched windows (`WUO`),
//! 2. the negating windows are computed by re-scanning the matching tuples
//!    for every aligned fragment (tuple replication + recomputation),
//! 3. the final union has to eliminate the unmatched windows that were
//!    computed twice, and because the θ condition is not usable at that
//!    stage the engine falls back to nested-loop plans.
//!
//! Every overlap join and alignment pass of TA finds its matches with one
//! matcher of its own: a hash partition of `s` on the equi-join key, the
//! plan a DBMS picks inside the alignment operator, or nested loops where
//! θ (or, in the end-to-end join, the plan) cannot use one. NJ's sweep is
//! never TA's.
//!
//! Both systems produce identical results — the integration tests assert
//! NJ ≡ TA on randomized inputs — only their costs differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod align;
mod joins;
mod windows;

pub use align::{align, AlignedFragment};
pub use joins::{
    ta_anti_join, ta_full_outer_join, ta_inner_join, ta_join, ta_left_outer_join,
    ta_right_outer_join,
};
pub use windows::{ta_negating_windows, ta_wuo_windows, ta_wuon_windows};
