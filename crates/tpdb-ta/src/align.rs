//! The temporal alignment (adjustment) primitive.
//!
//! `align(r, s, θ)` splits every tuple of `r` at the interval boundaries of
//! the θ-matching tuples of `s`, producing one *fragment* per elementary
//! sub-interval. A fragment is a replicated copy of the originating tuple
//! restricted to the sub-interval — this tuple replication is the defining
//! characteristic (and the main cost) of the alignment approach.

use std::collections::HashMap;
use tpdb_core::{BoundTheta, ThetaCondition};
use tpdb_storage::{StorageError, TpRelation, TpTuple, Value};
use tpdb_temporal::{Interval, TimePoint};

/// A fragment of an `r` tuple produced by temporal alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedFragment {
    /// Index of the originating tuple in the positive relation.
    pub r_idx: usize,
    /// The fragment's sub-interval of the originating tuple's interval.
    pub interval: Interval,
    /// Whether at least one θ-matching tuple of `s` is valid over the
    /// fragment (fragments with `covered == false` correspond to the
    /// unmatched portions of the tuple).
    pub covered: bool,
}

/// Splits every tuple of `r` at the boundaries of the θ-matching tuples of
/// `s`. When θ is an equi-join the matching tuples are found through a hash
/// partition of `s` (the plan a DBMS would pick inside the alignment
/// operator); otherwise every pair is compared.
pub fn align(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<Vec<AlignedFragment>, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    Ok(align_bound(r, s, &bound, true))
}

/// [`align`] with a pre-bound θ condition and an explicit plan choice:
/// `use_hash = false` forces the nested-loop alignment the paper observes in
/// the end-to-end TA join, where the optimizer can no longer exploit θ.
#[must_use]
pub fn align_bound(
    r: &TpRelation,
    s: &TpRelation,
    bound: &BoundTheta,
    use_hash: bool,
) -> Vec<AlignedFragment> {
    let mut matcher = Matcher::new(s, bound, use_hash);
    let mut out = Vec::new();
    for (r_idx, rt) in r.iter().enumerate() {
        let matches = matcher.matches(rt);
        for interval in fragments(rt.interval(), &matches) {
            let covered = matches.iter().any(|(m, _)| m.overlaps(&interval));
            out.push(AlignedFragment {
                r_idx,
                interval,
                covered,
            });
        }
    }
    out
}

/// Finds the θ-matching `s` tuples of an `r` tuple the way a DBMS does
/// inside the alignment operator: through a hash partition of `s` on the
/// equi-join key when allowed and θ is an equi-join, by comparing every
/// pair otherwise.
pub(crate) struct Matcher<'a> {
    s: &'a TpRelation,
    bound: &'a BoundTheta,
    partitions: Option<HashMap<Vec<Value>, Vec<usize>>>,
    /// The probe's equi-join key (reused across probes).
    key: Vec<Value>,
}

impl<'a> Matcher<'a> {
    pub(crate) fn new(s: &'a TpRelation, bound: &'a BoundTheta, use_hash: bool) -> Self {
        let mut key = Vec::new();
        let partitions = (use_hash && bound.is_equi_join()).then(|| {
            let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (si, st) in s.iter().enumerate() {
                bound.right_key_into(st, &mut key);
                if let Some(list) = map.get_mut(key.as_slice()) {
                    list.push(si);
                } else {
                    map.insert(key.clone(), vec![si]);
                }
            }
            map
        });
        Self {
            s,
            bound,
            partitions,
            key,
        }
    }

    /// The overlaps `rt.T ∩ s.T` with the θ-matching `s` tuples, with their
    /// `s` index, in `s` order.
    pub(crate) fn matches(&mut self, rt: &TpTuple) -> Vec<(Interval, usize)> {
        let overlap = |si: usize| {
            let st = self.s.tuple(si);
            let overlap = rt.interval().intersect(&st.interval())?;
            self.bound.matches(rt, st).then_some((overlap, si))
        };
        match &self.partitions {
            Some(map) => {
                self.bound.left_key_into(rt, &mut self.key);
                let list = map.get(self.key.as_slice());
                list.into_iter()
                    .flatten()
                    .filter_map(|&si| overlap(si))
                    .collect()
            }
            None => (0..self.s.len()).filter_map(overlap).collect(),
        }
    }
}

/// The fragments of `r_iv`: one per consecutive pair of the boundaries of
/// `r_iv` and of the `matches` inside it.
pub(crate) fn fragments(
    r_iv: Interval,
    matches: &[(Interval, usize)],
) -> impl Iterator<Item = Interval> {
    let mut boundaries: Vec<TimePoint> = vec![r_iv.start(), r_iv.end()];
    boundaries.extend(matches.iter().flat_map(|(m, _)| [m.start(), m.end()]));
    boundaries.sort_unstable();
    boundaries.dedup();
    (1..boundaries.len()).map(move |i| Interval::new(boundaries[i - 1], boundaries[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_lineage::{Lineage, SymbolTable};
    use tpdb_storage::{DataType, Schema, TpTuple, Value};

    fn one_tuple_relation(
        name: &str,
        key: i64,
        iv: (i64, i64),
        syms: &mut SymbolTable,
    ) -> TpRelation {
        let mut r = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        r.push(TpTuple::new(
            vec![Value::Int(key)],
            Lineage::var(syms.intern(&format!("{name}1"))),
            Interval::new(iv.0, iv.1),
            0.5,
        ))
        .unwrap();
        r
    }

    fn many_tuple_relation(
        name: &str,
        key: i64,
        ivs: &[(i64, i64)],
        syms: &mut SymbolTable,
    ) -> TpRelation {
        let mut r = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        for (i, iv) in ivs.iter().enumerate() {
            r.push(TpTuple::new(
                vec![Value::Int(key)],
                Lineage::var(syms.intern(&format!("{name}{i}"))),
                Interval::new(iv.0, iv.1),
                0.5,
            ))
            .unwrap();
        }
        r
    }

    #[test]
    fn fragments_partition_the_tuple_interval() {
        let mut syms = SymbolTable::new();
        let r = one_tuple_relation("r", 1, (0, 20), &mut syms);
        let s = many_tuple_relation("s", 1, &[(2, 6), (4, 10), (15, 25)], &mut syms);
        let theta = ThetaCondition::column_equals("k", "k");
        let frags = align(&r, &s, &theta).unwrap();
        // fragments are contiguous and partition [0, 20)
        assert_eq!(frags.first().unwrap().interval.start(), 0);
        assert_eq!(frags.last().unwrap().interval.end(), 20);
        for pair in frags.windows(2) {
            assert_eq!(pair[0].interval.end(), pair[1].interval.start());
        }
        let total: i64 = frags.iter().map(|f| f.interval.duration()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn covered_flag_matches_overlap() {
        let mut syms = SymbolTable::new();
        let r = one_tuple_relation("r", 1, (0, 10), &mut syms);
        let s = many_tuple_relation("s", 1, &[(3, 6)], &mut syms);
        let theta = ThetaCondition::column_equals("k", "k");
        let frags = align(&r, &s, &theta).unwrap();
        assert_eq!(frags.len(), 3);
        assert!(!frags[0].covered);
        assert_eq!(frags[0].interval, Interval::new(0, 3));
        assert!(frags[1].covered);
        assert_eq!(frags[1].interval, Interval::new(3, 6));
        assert!(!frags[2].covered);
        assert_eq!(frags[2].interval, Interval::new(6, 10));
    }

    #[test]
    fn non_matching_tuples_produce_one_uncovered_fragment() {
        let mut syms = SymbolTable::new();
        let r = one_tuple_relation("r", 1, (0, 10), &mut syms);
        let s = many_tuple_relation("s", 2, &[(3, 6)], &mut syms); // different key
        let theta = ThetaCondition::column_equals("k", "k");
        let frags = align(&r, &s, &theta).unwrap();
        assert_eq!(
            frags,
            vec![AlignedFragment {
                r_idx: 0,
                interval: Interval::new(0, 10),
                covered: false
            }]
        );
    }

    #[test]
    fn replication_grows_with_matching_tuples() {
        let mut syms = SymbolTable::new();
        let r = one_tuple_relation("r", 1, (0, 100), &mut syms);
        let s = many_tuple_relation(
            "s",
            1,
            &(0..10).map(|i| (i * 10, i * 10 + 5)).collect::<Vec<_>>(),
            &mut syms,
        );
        let theta = ThetaCondition::column_equals("k", "k");
        let frags = align(&r, &s, &theta).unwrap();
        // 10 covered + 10 gaps = 20 fragments for a single input tuple:
        // alignment replicates aggressively.
        assert_eq!(frags.len(), 20);
        assert_eq!(frags.iter().filter(|f| f.covered).count(), 10);
    }

    #[test]
    fn empty_negative_relation_keeps_whole_tuples() {
        let mut syms = SymbolTable::new();
        let r = one_tuple_relation("r", 1, (5, 9), &mut syms);
        let s = TpRelation::new("s", Schema::tp(&[("k", DataType::Int)]));
        let theta = ThetaCondition::column_equals("k", "k");
        let frags = align(&r, &s, &theta).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].interval, Interval::new(5, 9));
        assert!(!frags[0].covered);
    }
}
