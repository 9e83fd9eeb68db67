//! LAWAU — the Lineage-Aware Window Algorithm for Unmatched windows
//! (Section III-B).
//!
//! LAWAU extends the result of the overlap join `r ⟕_{θo∧θ} s` with the
//! *remaining* unmatched windows: the maximal sub-intervals of an `r` tuple
//! during which no θ-matching tuple of `s` is valid. The input windows are
//! grouped by the originating `r` tuple (fact `Fr` and interval) and sorted
//! by the starting point of the overlapping intervals; a single sweep over
//! each group fills the uncovered gaps.
//!
//! The five cases of Fig. 3 of the paper describe how the ending point
//! `windTe` of the sweeping window is determined; in this implementation the
//! sweep keeps a *coverage cursor* (the largest end point of any overlapping
//! window seen so far) and the cases map onto it as follows:
//!
//! * **Case 1/2** — the next overlapping window starts after the cursor:
//!   the sweeping window ends at that start point and an unmatched window
//!   `[cursor, next.start)` is produced.
//! * **Case 3/4** — the next overlapping window starts at or before the
//!   cursor: no gap; the cursor advances to `max(cursor, next.end)`.
//! * **Case 5** — the group is exhausted and the cursor lies before the end
//!   of the `r` tuple's interval: a final unmatched window
//!   `[cursor, r.Te)` is produced.
//!
//! There is **one sweep body**, [`sweep_group`], and it takes its group
//! **by value**: every incoming window is moved — never cloned — into the
//! output buffer, the gap windows are interleaved while moving. The
//! streaming adaptor drains its group buffer into it, the materializing
//! [`lawau`] (which owns no windows) feeds it `slice.iter().copied()`. The
//! sweep keeps no state besides the cursor, so nothing outlives a group.

use crate::window::Window;
use std::collections::VecDeque;
use tpdb_storage::TpRelation;
use tpdb_temporal::Interval;

/// Runs LAWAU over the output of
/// [`overlapping_windows`](crate::overlap::overlapping_windows).
///
/// `windows` must be grouped by `r_idx` and sorted by window start within
/// each group (the order the overlap join produces). The result `WUO`
/// contains every input window plus the newly created unmatched windows,
/// grouped by `r_idx` and sorted by start within each group.
#[must_use]
pub fn lawau(windows: &[Window], r: &TpRelation) -> Vec<Window> {
    let mut out = VecDeque::with_capacity(windows.len() + windows.len() / 2);
    for group in windows.chunk_by(|a, b| a.r_idx == b.r_idx) {
        let Some(first) = group.first() else { continue };
        let interval = r.tuple(first.r_idx).interval();
        sweep_group(group.iter().copied(), first.r_idx, interval, &mut out);
    }
    out.into()
}

/// Sweeps one group (all windows of the `r` tuple `r_idx`, valid over
/// `r_interval`, by value, in start order): moves the existing windows to
/// the back of `out` and inserts the gap-filling unmatched windows in
/// chronological position.
pub(crate) fn sweep_group(
    group: impl Iterator<Item = Window>,
    r_idx: usize,
    r_interval: Interval,
    out: &mut VecDeque<Window>,
) {
    let gap = |from, to| Window::unmatched(Interval::new(from, to), r_idx);
    // `cursor` is the end of the covered prefix of r.T (Cases 3/4 advance
    // it, Cases 1/2 emit a gap before it advances). A whole-interval
    // unmatched window of the overlap join covers all of r.T by itself.
    let mut cursor = r_interval.start();
    for w in group {
        if w.interval.start() > cursor {
            // Cases 1/2: [cursor, w.Ts) is covered by no overlapping window.
            out.push_back(gap(cursor, w.interval.start()));
        }
        cursor = cursor.max(w.interval.end());
        out.push_back(w);
    }
    if cursor < r_interval.end() {
        // Case 5: the suffix of r.T after the last overlapping window.
        out.push_back(gap(cursor, r_interval.end()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::overlapping_windows;
    use crate::testutil::booking_relations;
    use crate::theta::ThetaCondition;
    use crate::window::WindowKind;
    use tpdb_lineage::Lineage;
    use tpdb_storage::{DataType, Schema, TpTuple, Value};

    fn run_booking() -> (
        Vec<Window>,
        TpRelation,
        TpRelation,
        tpdb_lineage::SymbolTable,
    ) {
        let (a, b, syms) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        let wuo = lawau(&wo, &a);
        (wuo, a, b, syms)
    }

    #[test]
    fn paper_example_unmatched_windows() {
        let (wuo, _, _, _) = run_booking();
        // Fig. 2: WU = { w1 = (a1, null, [2,4)), w2 = (a2, null, [7,10)) }
        //         WO = { w3 = (a1, b3, [4,6)), w4 = (a1, b2, [5,8)) }
        assert_eq!(wuo.len(), 4);
        let unmatched: Vec<&Window> = wuo.iter().filter(|w| w.is_unmatched()).collect();
        assert_eq!(unmatched.len(), 2);
        assert_eq!(unmatched[0].r_idx, 0);
        assert_eq!(unmatched[0].interval, Interval::new(2, 4));
        assert_eq!(unmatched[1].r_idx, 1);
        assert_eq!(unmatched[1].interval, Interval::new(7, 10));
        // overlapping windows are passed through untouched
        assert_eq!(wuo.iter().filter(|w| w.is_overlapping()).count(), 2);
    }

    #[test]
    fn output_keeps_group_and_start_order() {
        let (wuo, _, _, _) = run_booking();
        let keys: Vec<(usize, i64)> = wuo.iter().map(|w| (w.r_idx, w.interval.start())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    /// Builds a single-column positive relation with one tuple spanning
    /// `[0, 20)` and a negative relation with the given matching intervals,
    /// then returns the unmatched windows LAWAU produces for the tuple.
    fn gaps_for(negative_intervals: &[(i64, i64)]) -> Vec<Interval> {
        let mut syms = tpdb_lineage::SymbolTable::new();
        let mut r = TpRelation::new("r", Schema::tp(&[("k", DataType::Int)]));
        r.push(TpTuple::new(
            vec![Value::Int(1)],
            Lineage::var(syms.intern("r1")),
            Interval::new(0, 20),
            0.5,
        ))
        .unwrap();
        let mut s = TpRelation::new("s", Schema::tp(&[("k", DataType::Int)]));
        for (i, (a, b)) in negative_intervals.iter().enumerate() {
            s.push(TpTuple::new(
                vec![Value::Int(1)],
                Lineage::var(syms.intern(&format!("s{i}"))),
                Interval::new(*a, *b),
                0.5,
            ))
            .unwrap();
        }
        let theta = ThetaCondition::column_equals("k", "k");
        let wo = overlapping_windows(&r, &s, &theta).unwrap();
        lawau(&wo, &r)
            .into_iter()
            .filter(|w| w.is_unmatched())
            .map(|w| w.interval)
            .collect()
    }

    #[test]
    fn case1_gap_before_first_overlap() {
        assert_eq!(gaps_for(&[(5, 20)]), vec![Interval::new(0, 5)]);
    }

    #[test]
    fn case2_gap_between_overlaps() {
        assert_eq!(gaps_for(&[(0, 5), (10, 20)]), vec![Interval::new(5, 10)]);
    }

    #[test]
    fn case3_contained_overlap_produces_no_extra_gap() {
        // second negative interval is contained in the coverage of the first
        assert_eq!(gaps_for(&[(0, 12), (3, 6)]), vec![Interval::new(12, 20)]);
    }

    #[test]
    fn case4_chained_overlaps_extend_coverage() {
        assert_eq!(gaps_for(&[(0, 8), (6, 20)]), vec![]);
    }

    #[test]
    fn case5_suffix_gap_after_last_overlap() {
        assert_eq!(gaps_for(&[(0, 15)]), vec![Interval::new(15, 20)]);
    }

    #[test]
    fn multiple_gaps_and_exact_cover() {
        assert_eq!(
            gaps_for(&[(2, 4), (8, 10), (14, 16)]),
            vec![
                Interval::new(0, 2),
                Interval::new(4, 8),
                Interval::new(10, 14),
                Interval::new(16, 20)
            ]
        );
        assert_eq!(gaps_for(&[(0, 20)]), vec![]);
    }

    #[test]
    fn whole_interval_unmatched_windows_pass_through_unchanged() {
        let (wuo, a, _, _) = run_booking();
        let jim = wuo.iter().filter(|w| w.r_idx == 1).collect::<Vec<_>>();
        assert_eq!(jim.len(), 1);
        assert_eq!(jim[0].kind, WindowKind::Unmatched);
        assert_eq!(jim[0].interval, a.tuple(1).interval());
    }

    #[test]
    fn unmatched_windows_cover_exactly_the_uncovered_part() {
        // Point-wise check on the paper example: for every time point of a1,
        // either an overlapping or an unmatched window covers it, never both.
        let (wuo, a, _, _) = run_booking();
        let a1 = a.tuple(0).interval();
        for t in a1.points() {
            let in_overlap = wuo
                .iter()
                .any(|w| w.r_idx == 0 && w.is_overlapping() && w.interval.contains_point(t));
            let in_unmatched = wuo
                .iter()
                .any(|w| w.r_idx == 0 && w.is_unmatched() && w.interval.contains_point(t));
            assert!(in_overlap ^ in_unmatched, "t = {t}");
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let (a, _, _) = booking_relations();
        assert!(lawau(&[], &a).is_empty());
    }
}
