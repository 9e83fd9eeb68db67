//! # tpdb-lineage
//!
//! Boolean lineage formulas and exact probability computation for
//! probabilistic databases.
//!
//! In a temporal-probabilistic (TP) database every base tuple is annotated
//! with a boolean random variable and a marginal probability. Derived tuples
//! carry a *lineage*: a boolean formula over those variables describing in
//! which possible worlds the derived tuple exists. The probability of a
//! derived tuple is the probability that its lineage evaluates to `true`.
//!
//! This crate implements
//!
//! * the lineage formula representation ([`Lineage`]) with structural
//!   simplification,
//! * the lineage concatenation functions used when forming output tuples
//!   from generalized lineage-aware temporal windows (Section II of the
//!   paper) — [`Concat`] names them for the interned path, and
//!   [`Lineage::and_concat`] and [`Lineage::and_not_concat`] build them as
//!   trees; the pass-through of an unmatched window is `λr` itself,
//! * exact probability computation ([`ProbabilityEngine`]) using
//!   independence-based decomposition with a Shannon-expansion fallback,
//! * a hash-consed formula arena ([`LineageInterner`]) deduplicating
//!   structurally equal nodes behind dense [`LineageRef`] ids — the
//!   representation output formation and the probability memo operate
//!   on, with [`Lineage`] trees as the serde/test conversion boundary.
//!   Every node lives in a segment: a catalog keeps a [`LineageStack`] of
//!   sealed segments, one per stored relation, each interned and priced
//!   once when its relation arrives; a statement's interner is that stack
//!   plus one open segment, sealed on top when the statement is certified,
//! * [`LazyLineage`], an output tuple's lineage: a tree, or a read-once
//!   concatenation priced at output formation — a recipe over its
//!   operands' arena node ids — whose tree is built only when it is first
//!   read,
//! * a [`SymbolTable`] mapping human-readable base-tuple names (`a1`, `b3`,
//!   ...) to variable identifiers.
//!
//! ## Example
//!
//! ```
//! use tpdb_lineage::{Lineage, ProbabilityEngine, SymbolTable};
//!
//! let mut syms = SymbolTable::new();
//! let a1 = syms.intern("a1");
//! let b2 = syms.intern("b2");
//! let b3 = syms.intern("b3");
//!
//! // λ = a1 ∧ ¬(b3 ∨ b2): "Ann wants to visit ZAK and no hotel is available"
//! let lambda = Lineage::and_not_concat(
//!     &Lineage::var(a1),
//!     &Lineage::or(vec![Lineage::var(b3), Lineage::var(b2)]),
//! );
//!
//! let mut engine = ProbabilityEngine::new();
//! engine.set(a1, 0.7);
//! engine.set(b2, 0.6);
//! engine.set(b3, 0.7);
//! let p = engine.probability(&lambda);
//! assert!((p - 0.084).abs() < 1e-9); // matches Fig. 1b of the paper
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

mod formula;
mod intern;
mod lazy;
mod prob;
mod segment;
mod symbols;

pub use formula::{write_decimal, Lineage, LineageNode};
pub use intern::{FxHashMap, FxHashSet, FxHasher, InternedNode, LineageInterner, LineageRef};
pub use lazy::LazyLineage;
pub use prob::{Concat, MarginalMap, ProbabilityEngine, ProbabilityError, ReadOnceColumns};
pub use segment::{LineageColumn, LineageStack};
pub use symbols::{SymbolTable, SymbolTableError, VarId};
