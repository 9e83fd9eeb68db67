//! TP tuples.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use tpdb_lineage::{LazyLineage, Lineage};
use tpdb_temporal::Interval;

/// A temporal-probabilistic tuple `(F, λ, T, p)`.
///
/// * `facts` — the values of the non-temporal attributes `F`,
/// * `lineage` — the boolean lineage formula `λ`. An output tuple's may be
///   a deferred read-once concatenation: a recipe over the `u32` node ids
///   of its operands and one shared `Arc` of the lineage arena they live
///   in, whose tree is built on the first [`lineage`](Self::lineage) call.
///   The tuple keeps that arena alive, even after the catalog it came from
///   has moved on (a `LOAD SNAPSHOT`, a new relation),
/// * `interval` — the validity interval `T = [Ts, Te)`,
/// * `probability` — `p = Pr(λ)`, the probability that the fact holds at
///   each time point of `T`.
///
/// Equality and `Debug` compare and print the lineage as a tree, building a
/// deferred one; `Display` prints a deferred lineage from its recipe.
///
/// A tuple is at most 64 bytes — every stored tuple carries the lineage
/// field, so the recipe lives behind the `Arc`, not inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpTuple {
    facts: Vec<Value>,
    lineage: LazyLineage,
    interval: Interval,
    probability: f64,
}

impl TpTuple {
    /// Creates a tuple. The probability is clamped into `[0, 1]` only by the
    /// caller's validation; this constructor stores it verbatim.
    #[must_use]
    pub fn new(facts: Vec<Value>, lineage: Lineage, interval: Interval, probability: f64) -> Self {
        Self::with_lazy_lineage(facts, lineage.into(), interval, probability)
    }

    /// [`new`](Self::new) over a lineage that may still be deferred — how
    /// output formation stores the pair the probability engine returns.
    #[must_use]
    pub fn with_lazy_lineage(
        facts: Vec<Value>,
        lineage: LazyLineage,
        interval: Interval,
        probability: f64,
    ) -> Self {
        Self {
            facts,
            lineage,
            interval,
            probability,
        }
    }

    /// The fact attribute values.
    #[must_use]
    pub fn facts(&self) -> &[Value] {
        &self.facts
    }

    /// The fact value at position `idx`.
    #[must_use]
    pub fn fact(&self, idx: usize) -> &Value {
        &self.facts[idx]
    }

    /// The lineage formula, built on the first call when it is deferred.
    #[must_use]
    pub fn lineage(&self) -> &Lineage {
        self.lineage.get()
    }

    /// The lineage as stored, without building a deferred tree.
    #[must_use]
    pub fn lazy_lineage(&self) -> &LazyLineage {
        &self.lineage
    }

    /// The validity interval.
    #[must_use]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// The tuple probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Is the tuple valid at time point `t`?
    #[must_use]
    pub fn valid_at(&self, t: tpdb_temporal::TimePoint) -> bool {
        self.interval.contains_point(t)
    }
}

impl fmt::Display for TpTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.facts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(
            f,
            " | {} | {} | {:.4})",
            self.lineage, self.interval, self.probability
        )
    }
}

#[cfg(test)]
// Tests assert bit-exact values on purpose (reproducibility contract).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use tpdb_lineage::VarId;

    fn tuple() -> TpTuple {
        TpTuple::new(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Lineage::var(VarId(0)),
            Interval::new(2, 8),
            0.7,
        )
    }

    #[test]
    fn accessors() {
        let t = tuple();
        assert_eq!(t.facts().len(), 2);
        assert_eq!(t.fact(0), &Value::str("Ann"));
        assert_eq!(t.interval(), Interval::new(2, 8));
        assert_eq!(t.probability(), 0.7);
        assert!(t.valid_at(2));
        assert!(t.valid_at(7));
        assert!(!t.valid_at(8));
    }

    #[test]
    fn display_contains_all_parts() {
        let s = tuple().to_string();
        assert!(s.contains("Ann"));
        assert!(s.contains("[2,8)"));
        assert!(s.contains("0.7000"));
    }
}
