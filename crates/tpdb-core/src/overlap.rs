//! The overlap join `r ⟕_{θo ∧ θ} s` (Section III-A).
//!
//! The first phase of the NJ approach is a conventional left outer join with
//! the overlap predicate `θo : r.T ∩ s.T ≠ ∅` conjoined with the θ condition
//! on the non-temporal attributes. It produces
//!
//! * one **overlapping window** per qualifying pair, spanning `r.T ∩ s.T`,
//!   and
//! * one **unmatched window** spanning the full interval of every `r` tuple
//!   that overlaps with no θ-matching `s` tuple at all (the "outer" part of
//!   the join).
//!
//! The remaining unmatched windows — sub-intervals of partially covered `r`
//! tuples — are added afterwards by [`lawau`](crate::lawau::lawau).
//!
//! ## One plan for every θ, and its output order
//!
//! The join partitions `s` on the values of θ's equality conjuncts and
//! sorts each partition by interval start once ([`ProbeIndex`], which lives
//! next to [`TpRelation`] in `tpdb-storage`); a θ with no equality has the
//! empty key, so one partition. A probe
//! binary-searches the first possibly overlapping candidate of its key's
//! partition and scans forward until the candidates start past the probe
//! interval, yielding intersections with non-decreasing starts. Each
//! candidate is then checked against θ's other comparisons, its residual;
//! the partition key decides the equalities:
//!
//! * `Value`'s `Eq` is θ's `=` except that NULL equals NULL, and its `Hash`
//!   agrees with its `Eq`, so a NULL-free key's partition is exactly the `s`
//!   tuples whose equalities hold. Keys holding a NULL are neither indexed
//!   nor looked up (such a probe gets its whole-interval unmatched window).
//! * A pure equi-join has an empty residual, and its probe checks no
//!   candidate at all.
//!
//! The `r` tuples are probed in index order and each probe's windows are
//! sorted by `(start, end)`, so the join output is always **grouped by
//! `r_idx` and ordered by window start within each group** — the order
//! LAWAU and LAWAN consume — without any global re-sort of the joined
//! windows.
//!
//! [`OverlapWindowStream`] exposes the same join as an iterator producing
//! one `r`-tuple group at a time, which is what lets the full window
//! pipeline (overlap join → LAWAU → LAWAN → output formation) run without
//! materializing any intermediate window vector.
//!
//! The stream takes its probe index on its first pull, not when it is
//! created, from [`TpRelation::probe_index`] on θ's equality columns of
//! `s`. A relation stored in a catalog keeps that index: the first pass
//! that probes it on a column list builds it, and every later pass and
//! statement shares it, so a prepared join's first row waits for no build.
//! Any other `s` (the free API, a derived input, a relation cloned out of
//! a catalog) builds one index per pass, and a flipped second pass (right
//! and full outer join, union) builds its own only once the first pass is
//! exhausted and dropped. This module keeps the probing and the window
//! writing; a probe looks its partition up by `&[Value]` from the stream's
//! reused key buffer.

use crate::pipeline::{next_window, WindowGroups};
use crate::theta::{BoundTheta, ThetaCondition};
use crate::window::Window;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;
use tpdb_storage::{ProbeIndex, StorageError, TpRelation, TpTuple, Value};

/// Computes the overlapping windows of `r` with respect to `s` under θ,
/// together with the whole-interval unmatched windows of `r` tuples that
/// match nothing.
pub fn overlapping_windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<Vec<Window>, StorageError> {
    Ok(OverlapWindowStream::new(r, s, theta)?.collect())
}

/// Appends the windows of the probe tuple `r[ri]` to `out`, sorted by
/// `(start, end)`: its overlapping windows, or one whole-interval unmatched
/// window when nothing matches. Each window is written once, in the buffer
/// its consumer reads it from; `key` is the caller's reused buffer for the
/// probe's partition key.
fn probe_into(
    index: &ProbeIndex,
    ri: usize,
    rt: &TpTuple,
    s: &TpRelation,
    bound: &BoundTheta,
    key: &mut Vec<Value>,
    out: &mut VecDeque<Window>,
) {
    let from = out.len();
    let r_iv = rt.interval();
    bound.left_key_into(rt, key);
    if let Some(candidates) = index.overlapping(key, r_iv) {
        let window = |(s_iv, si)| {
            #[expect(clippy::expect_used, reason = "index invariant")]
            let inter = r_iv
                .intersect(&s_iv)
                .expect("sorted-partition candidates overlap the probe");
            Window::overlapping(inter, ri, si)
        };
        // The partition decides θ's equalities; only a residual is
        // checked per candidate.
        if bound.has_residual() {
            let residual = |&(_, si): &(_, usize)| bound.residual_matches(rt, s.tuple(si));
            out.extend(candidates.filter(residual).map(window));
        } else {
            out.extend(candidates.map(window));
        }
    }
    if out.len() == from {
        out.push_back(Window::unmatched(r_iv, ri));
    } else {
        // The candidates come in start order, so the intersection starts
        // never decrease; the sort only orders the ends of the windows
        // clipped to the probe's start. It is per probe group, never a
        // global re-sort (the buffer only ever grows from a cleared state,
        // so it is already contiguous).
        out.make_contiguous()[from..].sort_by_key(|w| (w.interval.start(), w.interval.end()));
    }
}

/// The overlap join as a streaming iterator: windows come out grouped by
/// `r_idx` (in `r` index order) and sorted by `(start, end)` within each
/// group, one probe at a time. Feeding this into
/// [`LawauStream`](crate::pipeline::LawauStream) and
/// [`LawanStream`](crate::pipeline::LawanStream) pipelines the entire window
/// computation without materializing any window vector. The probe index is
/// taken by the first pull, so creating a stream costs only binding θ.
///
/// The two relations are held through any [`Borrow`]`<TpRelation>`: plain
/// references inside a join operator, `Arc<TpRelation>` in long-lived
/// cursors ([`crate::TpJoinStream`]) that must own their inputs.
pub struct OverlapWindowStream<R: Borrow<TpRelation>, S: Borrow<TpRelation>> {
    r: R,
    s: S,
    bound: BoundTheta,
    /// The probe index of `s` on θ's equality columns; `None` until the
    /// first pull, which takes it from a stored `s`'s memo or builds it.
    pub(crate) index: Option<Arc<ProbeIndex>>,
    /// The probe's partition key (reused across probes).
    key: Vec<Value>,
    /// The next `r` index to probe.
    next_probe: usize,
    /// The current probe's windows when the stream is consumed as an
    /// iterator (reused across probes); moved out of the front.
    ready: VecDeque<Window>,
}

impl<R: Borrow<TpRelation>, S: Borrow<TpRelation>> OverlapWindowStream<R, S> {
    /// Creates the stream under θ.
    pub fn new(r: R, s: S, theta: &ThetaCondition) -> Result<Self, StorageError> {
        let bound = theta.bind(r.borrow().schema(), s.borrow().schema())?;
        Ok(Self::from_bound(r, s, bound))
    }

    /// Creates the stream under an already bound θ. The probe index is
    /// built on the first pull, not here.
    pub(crate) fn from_bound(r: R, s: S, bound: BoundTheta) -> Self {
        Self {
            r,
            s,
            bound,
            index: None,
            key: Vec::new(),
            next_probe: 0,
            ready: VecDeque::new(),
        }
    }
}

impl<R: Borrow<TpRelation>, S: Borrow<TpRelation>> WindowGroups for OverlapWindowStream<R, S> {
    /// A probe *is* a group: the next `r` tuple's windows are written
    /// straight into the consumer's buffer. The first probe takes the
    /// index.
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let ri = self.next_probe;
        let rt = self.r.borrow().tuples().get(ri)?;
        self.next_probe += 1;
        let (s, bound) = (self.s.borrow(), &self.bound);
        let index = self
            .index
            .get_or_insert_with(|| s.probe_index(&bound.right_columns()));
        probe_into(index, ri, rt, s, bound, &mut self.key, out);
        Some(ri)
    }
}

impl<R: Borrow<TpRelation>, S: Borrow<TpRelation>> Iterator for OverlapWindowStream<R, S> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        next_window(self, |stream| &mut stream.ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::booking_relations;
    use crate::theta::CompareOp;
    use tpdb_storage::{DataType, Schema};
    use tpdb_temporal::Interval;

    #[test]
    fn paper_example_overlapping_and_whole_unmatched_windows() {
        let (a, b, syms) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let windows = overlapping_windows(&a, &b, &theta).unwrap();
        let lambda_s = |w: &Window| b.tuple(w.s_idx.unwrap()).lineage().display_with(&syms);

        // Expected (Fig. 2): overlapping windows w3 = (a1, b3, [4,6)) and
        // w4 = (a1, b2, [5,8)); unmatched window w2 = (a2, null, [7,10)).
        // (The remaining unmatched window [2,4) of a1 is produced by LAWAU.)
        assert_eq!(windows.len(), 3);
        let overlapping: Vec<&Window> = windows.iter().filter(|w| w.is_overlapping()).collect();
        assert_eq!(overlapping.len(), 2);
        assert_eq!(overlapping[0].interval, Interval::new(4, 6));
        assert_eq!(lambda_s(overlapping[0]), "b3");
        assert_eq!(overlapping[1].interval, Interval::new(5, 8));
        assert_eq!(lambda_s(overlapping[1]), "b2");

        let unmatched: Vec<&Window> = windows.iter().filter(|w| w.is_unmatched()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0].r_idx, 1); // Jim
        assert_eq!(unmatched[0].interval, Interval::new(7, 10));
    }

    /// The overlap join of one probe by definition: every `s` tuple that
    /// overlaps `r[ri]` and satisfies θ, or the whole-interval unmatched
    /// window when there is none.
    fn nested_loop(ri: usize, r: &TpRelation, s: &TpRelation, bound: &BoundTheta) -> Vec<Window> {
        let rt = r.tuple(ri);
        let mut windows: Vec<Window> = s
            .iter()
            .enumerate()
            .filter(|(_, st)| bound.matches(rt, st))
            .filter_map(|(si, st)| {
                let inter = rt.interval().intersect(&st.interval())?;
                Some(Window::overlapping(inter, ri, si))
            })
            .collect();
        if windows.is_empty() {
            windows.push(Window::unmatched(rt.interval(), ri));
        }
        windows
    }

    #[test]
    fn the_probe_equals_a_nested_loop_reference() {
        // Pure equi-joins, equalities with a residual, residuals alone and
        // θ = true, over the running example and over meteo data, whose
        // few keys give crowded partitions and many clipped windows.
        let (a, b, _) = booking_relations();
        let (mr, ms) = tpdb_datagen::meteo_like(160, 3);
        let loc = || ThetaCondition::column_equals("Loc", "Loc");
        let metric = || ThetaCondition::column_equals("Metric", "Metric");
        let station = |op| ThetaCondition::always().and_compare("Station", op, "Station");
        let cases = [
            (&a, &b, loc()),
            (&a, &b, loc().and_compare("Name", CompareOp::Lt, "Hotel")),
            (
                &a,
                &b,
                ThetaCondition::always().and_compare("Loc", CompareOp::Ne, "Loc"),
            ),
            (&a, &b, ThetaCondition::always()),
            (&mr, &ms, metric()),
            (
                &mr,
                &ms,
                metric().and_compare("Station", CompareOp::Le, "Station"),
            ),
            (&mr, &ms, station(CompareOp::Ge)),
            (&mr, &ms, station(CompareOp::Ne)),
            (&mr, &ms, ThetaCondition::always()),
        ];
        for (r, s, theta) in cases {
            let bound = theta.bind(r.schema(), s.schema()).unwrap();
            let index = ProbeIndex::build(s, &bound.right_columns());
            let mut key = Vec::new();
            for (ri, rt) in r.iter().enumerate() {
                let mut probed = VecDeque::new();
                probe_into(&index, ri, rt, s, &bound, &mut key, &mut probed);
                let mut probed = Vec::from(probed);
                let order = |w: &Window| (w.interval.start(), w.interval.end());
                assert!(probed.is_sorted_by_key(order), "θ = {theta}, r[{ri}]");
                // Windows with equal (start, end) may come in any order.
                let full = |w: &Window| (order(w), w.s_idx);
                probed.sort_by_key(full);
                let mut expected = nested_loop(ri, r, s, &bound);
                expected.sort_by_key(full);
                assert_eq!(probed, expected, "θ = {theta}, r[{ri}]");
            }
        }
    }

    #[test]
    fn streaming_overlap_join_matches_materializing() {
        let (a, b, _) = booking_relations();
        for theta in [
            ThetaCondition::column_equals("Loc", "Loc"),
            ThetaCondition::always(),
        ] {
            let materialized = overlapping_windows(&a, &b, &theta).unwrap();
            let streamed: Vec<Window> = OverlapWindowStream::new(&a, &b, &theta).unwrap().collect();
            assert_eq!(streamed, materialized, "θ = {theta}");
        }
    }

    #[test]
    fn non_selective_theta_produces_cross_product_windows() {
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::always();
        let windows = overlapping_windows(&a, &b, &theta).unwrap();
        // every temporally overlapping pair qualifies:
        // a1[2,8) x b1[1,4), b2[5,8), b3[4,6)  -> 3 overlapping
        // a2[7,10) x b2[5,8)                   -> 1 overlapping
        assert_eq!(windows.iter().filter(|w| w.is_overlapping()).count(), 4);
        assert_eq!(windows.iter().filter(|w| w.is_unmatched()).count(), 0);
    }

    #[test]
    fn temporally_disjoint_tuples_do_not_match() {
        let (a, b, _) = booking_relations();
        // Jim [7,10) and hotel3 [1,4) share no time point even under θ=true;
        // restrict to those two via a condition that only they satisfy.
        let theta = ThetaCondition::column_equals("Name", "Hotel");
        let windows = overlapping_windows(&a, &b, &theta).unwrap();
        assert!(windows.iter().all(|w| w.is_unmatched()));
        assert_eq!(windows.len(), 2);
    }

    #[test]
    fn empty_negative_relation_yields_only_unmatched() {
        let (a, _, _) = booking_relations();
        let empty = TpRelation::new(
            "b",
            Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)]),
        );
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let windows = overlapping_windows(&a, &empty, &theta).unwrap();
        assert_eq!(windows.len(), 2);
        assert!(windows.iter().all(|w| w.is_unmatched()));
    }

    #[test]
    fn empty_positive_relation_yields_nothing() {
        let (_, b, _) = booking_relations();
        let empty = TpRelation::new(
            "a",
            Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]),
        );
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let windows = overlapping_windows(&empty, &b, &theta).unwrap();
        assert!(windows.is_empty());
        assert_eq!(
            OverlapWindowStream::new(&empty, &b, &theta)
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn windows_are_grouped_by_r_tuple_and_sorted_by_start() {
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let windows = overlapping_windows(&a, &b, &theta).unwrap();
        let keys: Vec<(usize, i64)> = windows
            .iter()
            .map(|w| (w.r_idx, w.interval.start()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
