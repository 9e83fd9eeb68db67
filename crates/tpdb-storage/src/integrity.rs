//! Integrity checking for TP relations.

use crate::relation::TpRelation;
use crate::value::Value;
use std::fmt;
use tpdb_temporal::Interval;

/// A violation of the duplicate-free TP integrity constraint: two tuples
/// with the same fact whose validity intervals overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityViolation {
    /// The shared fact values.
    pub facts: Vec<Value>,
    /// Interval of the first offending tuple.
    pub first: Interval,
    /// Interval of the second offending tuple.
    pub second: Interval,
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duplicate fact valid over overlapping intervals {} and {}",
            self.first, self.second
        )
    }
}

/// Checks the duplicate-free constraint of the TP data model: for every
/// fact, at most one tuple is valid at any time point.
///
/// The paper's running example relies on this property ("there is no other
/// tuple in a that predicts the probability of 'Jim visiting Wengen' over an
/// interval overlapping with [7,10)"). The window algorithms do not require
/// it for termination, but output probabilities are only meaningful on
/// duplicate-free inputs, so generators and importers validate it.
///
/// The violations are ordered by the starts of their two intervals, ties by
/// fact.
#[must_use]
pub fn check_duplicate_free(relation: &TpRelation) -> Vec<IntegrityViolation> {
    let tuples = relation.tuples();
    let mut violations: Vec<IntegrityViolation> =
        overlapping_neighbours(tuples.len(), |i| (tuples[i].facts(), tuples[i].interval()))
            .map(|(a, b)| IntegrityViolation {
                facts: tuples[a].facts().to_vec(),
                first: tuples[a].interval(),
                second: tuples[b].interval(),
            })
            .collect();
    violations.sort_by_key(|v| (v.first.start(), v.second.start()));
    violations
}

/// The pairs `(a, b)` of items with the same fact over overlapping
/// intervals that are neighbours once the items are sorted by fact,
/// interval start, interval end and position — each fact's intervals are
/// then adjacent and start-ordered, so a fact that is not duplicate-free
/// shows at least one such pair. `item(i)` gives the fact and interval of
/// item `i` of `len`; pairs come in sorted order, `a` sorting before `b`.
pub(crate) fn overlapping_neighbours<'a>(
    len: usize,
    item: impl Fn(usize) -> (&'a [Value], Interval),
) -> impl Iterator<Item = (usize, usize)> {
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_unstable_by_key(|&i| (item(i), i));
    (1..order.len()).filter_map(move |k| {
        let (a, b) = (order[k - 1], order[k]);
        let ((fa, ia), (fb, ib)) = (item(a), item(b));
        (fa == fb && ia.overlaps(&ib)).then_some((a, b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::tuple::TpTuple;
    use tpdb_lineage::Lineage;

    fn relation_with(intervals: &[(&str, i64, i64)]) -> TpRelation {
        let mut r = TpRelation::new("r", Schema::tp(&[("k", DataType::Str)]));
        for (k, s, e) in intervals {
            r.push(TpTuple::new(
                vec![Value::str(k)],
                Lineage::tru(),
                Interval::new(*s, *e),
                1.0,
            ))
            .unwrap();
        }
        r
    }

    #[test]
    fn disjoint_same_fact_is_ok() {
        let r = relation_with(&[("x", 1, 3), ("x", 3, 6), ("x", 8, 9)]);
        assert!(check_duplicate_free(&r).is_empty());
    }

    #[test]
    fn overlapping_same_fact_is_reported() {
        let r = relation_with(&[("x", 1, 5), ("x", 4, 8)]);
        let v = check_duplicate_free(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].first, Interval::new(1, 5));
        assert_eq!(v[0].second, Interval::new(4, 8));
        assert!(v[0].to_string().contains("overlapping"));
    }

    #[test]
    fn overlapping_different_facts_is_ok() {
        let r = relation_with(&[("x", 1, 5), ("y", 4, 8)]);
        assert!(check_duplicate_free(&r).is_empty());
    }

    #[test]
    fn paper_base_relations_are_duplicate_free() {
        let r = relation_with(&[("ZAK", 5, 8), ("ZAK", 4, 6)]);
        // hotel2 [5,8) and hotel1 [4,6) share the location but are different
        // facts in relation b (Hotel differs); here we model them as the same
        // fact, so the overlap is flagged.
        assert_eq!(check_duplicate_free(&r).len(), 1);
    }
}
