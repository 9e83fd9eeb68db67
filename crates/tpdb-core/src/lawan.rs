//! LAWAN — the Lineage-Aware Window Algorithm for Negating windows
//! (Section III-C).
//!
//! LAWAN extends the result `WUO` of [`lawau`](crate::lawau::lawau) with the
//! negating windows. The windows of `WUO` are ordered by the fact of `r`
//! (here: by the originating `r` tuple) and by their starting point; the
//! algorithm sweeps over `WUO` and produces negating windows whenever a
//! group of overlapping windows with the same fact `Fr` is encountered. A
//! new negating window starts at every point where a θ-matching `s` tuple
//! starts or stops being valid; its `λs` is the disjunction of the lineages
//! of the `s` tuples valid over the window.
//!
//! The three cases of Fig. 4 of the paper determine the ending point of the
//! sweeping window: (1) the current elementary interval is covered by a
//! single overlapping window which is simply copied, (2) the next boundary
//! is the ending point of an active `s` tuple, (3) the next boundary is the
//! starting point of the next group.
//!
//! The paper takes Case 2's ending points from a priority queue. Here the
//! active set carries them instead: it is one `Vec<(end, s index)>` of the
//! active overlapping windows in activation order, and the smallest end is
//! cached beside it. The next boundary is `min(next start, cached min end)`
//! — the queue's head — and at every boundary where the set is non-empty
//! one pass over it copies the span of the window that closes there, drops
//! the entries ending at the boundary (the queue's pops) and recomputes the
//! min end. The windows starting at the boundary are then appended. The two
//! are equivalent because a negating window must copy the whole active set
//! anyway: the pass costs what the emitted span costs, so a group sweeps in
//! `O(|WUO| + Σ|span|)`, with no heap, no search and no shifting. The
//! retained entries keep their order, so a span lists its `s` tuples in
//! activation order — the operand order that fixes the bits of
//! `1 − ∏(1 − p(cᵢ))`.
//!
//! There is **one sweep body**, [`sweep_group`], and it runs **in place**
//! on the tail of the output buffer: the group's `WUO` windows are already
//! there (written by the upstream stage, or copied in by the materializing
//! [`lawan`]), the negating windows are appended behind them, and the
//! overlapping windows are read back by buffer index. Copied windows first,
//! negating windows after: the output stays grouped by `r` tuple, in the
//! row order every golden fixture pins.
//!
//! The sweep touches no lineage. A negating window copies the active `s`
//! indices into a span buffer and carries its [`Span`]; output formation
//! reads `λs` from the `s` tuples it lists (a group has one overlapping
//! window per `(r, s)` pair, so an index occurs once). The active set is
//! empty between groups, so its storage is reused.

use crate::window::{Span, Window, WindowSet};
use std::collections::VecDeque;
use tpdb_temporal::{Interval, TimePoint};

/// Runs LAWAN over the output `WUO` of [`lawau`](crate::lawau::lawau).
///
/// `wuo` must be grouped by `r_idx` with windows sorted by start within each
/// group. The result `WUON` contains every input window plus the negating
/// windows, grouped by `r_idx`, and the span buffer of the negating windows.
#[must_use]
pub fn lawan(wuo: &[Window]) -> WindowSet {
    let mut out = VecDeque::with_capacity(wuo.len() * 2);
    let (mut active, mut spans) = (Vec::new(), Vec::new());
    for group in wuo.chunk_by(|a, b| a.r_idx == b.r_idx) {
        let from = out.len();
        out.extend(group);
        sweep_group(&mut out, from, &mut active, &mut spans);
    }
    WindowSet {
        windows: out.into(),
        spans,
    }
}

/// An `s` index, or a span buffer position or length, as the `u32` the
/// active set and a [`Span`] hold.
fn as_u32(i: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "relations and span buffers stay below 2^32 entries"
    )]
    u32::try_from(i).expect("an index beyond u32")
}

/// The next overlapping window of `out[i..end]` at or after `i`: its
/// position (`end` if there is none) and its `s` index.
fn next_overlapping(out: &VecDeque<Window>, mut i: usize, end: usize) -> (usize, usize) {
    while i < end {
        if let Some(si) = out[i].s_idx {
            return (i, si);
        }
        i += 1;
    }
    (end, 0)
}

/// Sweeps one group in place: `out[from..]` holds all `WUO` windows of a
/// single `r` tuple in start order; the negating windows derived from the
/// overlapping ones are appended behind them, their spans to `spans`.
/// `active` — the sweep state whose storage outlives a group: the `(end,
/// s index)` of each active overlapping window, in activation order — is
/// empty on entry and on return.
pub(crate) fn sweep_group(
    out: &mut VecDeque<Window>,
    from: usize,
    active: &mut Vec<(TimePoint, u32)>,
    spans: &mut Vec<u32>,
) {
    debug_assert!(active.is_empty());
    let (end, r_idx) = (out.len(), out[from].r_idx);
    let (mut i, mut si) = next_overlapping(out, from, end);
    // The start of the sweeping window (meaningful while `active` is
    // non-empty) and the smallest end in `active` (`MAX` when it is empty).
    let (mut wind_ts, mut min_end) = (0, TimePoint::MAX);
    loop {
        // The next boundary: the smaller of the next start point (Case 3)
        // and the smallest ending point of an active window (Case 2).
        let boundary = match (i < end).then(|| out[i].interval.start()) {
            Some(start) => start.min(min_end),
            None if active.is_empty() => break,
            None => min_end,
        };

        // Close the sweeping window [wind_ts, boundary) over the active s
        // tuples and expire the windows ending at `boundary` (intervals are
        // half-open), in one pass that keeps activation order.
        if !active.is_empty() {
            let span = Span {
                start: as_u32(spans.len()),
                len: as_u32(active.len()),
            };
            min_end = TimePoint::MAX;
            active.retain(|&(e, s)| {
                spans.push(s);
                let keep = e != boundary;
                if keep {
                    min_end = min_end.min(e);
                }
                keep
            });
            out.push_back(Window::negating(
                Interval::new(wind_ts, boundary),
                r_idx,
                span,
            ));
        }

        // Activate the windows starting here.
        while i < end && out[i].interval.start() == boundary {
            let e = out[i].interval.end();
            active.push((e, as_u32(si)));
            min_end = min_end.min(e);
            (i, si) = next_overlapping(out, i + 1, end);
        }
        wind_ts = boundary;
    }
    debug_assert!(active.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lawau::lawau;
    use crate::overlap::overlapping_windows;
    use crate::testutil::booking_relations;
    use crate::theta::ThetaCondition;
    use crate::window::WindowKind;
    use tpdb_lineage::{Lineage, SymbolTable};
    use tpdb_storage::{DataType, Schema, TpRelation, TpTuple, Value};

    fn run_booking() -> (WindowSet, TpRelation, SymbolTable) {
        let (a, b, syms) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        let wuo = lawau(&wo, &a);
        (lawan(&wuo), b, syms)
    }

    #[test]
    fn paper_example_negating_windows() {
        let (wuon, b, syms) = run_booking();
        // Fig. 2: WN = { w5 = (a1, [4,5), b3), w6 = (a1, [5,6), b3 ∨ b2),
        //                w7 = (a1, [6,8), b2) }
        let negating: Vec<&Window> = wuon.iter().filter(|w| w.is_negating()).collect();
        assert_eq!(negating.len(), 3);
        let lambda_s = |w: &Window| {
            let span = w.span.of(&wuon.spans).iter();
            let names: Vec<String> = span
                .map(|&si| b.tuple(si as usize).lineage().display_with(&syms))
                .collect();
            names.join(" ∨ ")
        };
        assert_eq!(negating[0].interval, Interval::new(4, 5));
        assert_eq!(lambda_s(negating[0]), "b3");
        assert_eq!(negating[1].interval, Interval::new(5, 6));
        assert_eq!(lambda_s(negating[1]), "b3 ∨ b2");
        assert_eq!(negating[2].interval, Interval::new(6, 8));
        assert_eq!(lambda_s(negating[2]), "b2");

        // all windows of WUO are preserved
        assert_eq!(wuon.iter().filter(|w| w.is_overlapping()).count(), 2);
        assert_eq!(wuon.iter().filter(|w| w.is_unmatched()).count(), 2);
        assert_eq!(wuon.len(), 7);
    }

    #[test]
    fn negating_windows_only_for_groups_with_overlaps() {
        let (wuon, _, _) = run_booking();
        // Jim (r_idx = 1) has no overlapping window, hence no negating ones.
        assert!(wuon
            .iter()
            .filter(|w| w.r_idx == 1)
            .all(|w| w.is_unmatched()));
    }

    /// One positive tuple over [0, 20), several negative tuples; returns the
    /// negating windows with the `s` indices their spans list, after
    /// checking that each span is exactly the set of `s` tuples valid at
    /// every point of its window.
    fn negating_for(negative_intervals: &[(i64, i64)]) -> Vec<(Interval, Vec<u32>)> {
        let mut syms = SymbolTable::new();
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
        let wuon = lawan(&lawau(&wo, &r));
        let negating: Vec<(Interval, Vec<u32>)> = wuon
            .iter()
            .filter(|w| w.is_negating())
            .map(|w| (w.interval, w.span.of(&wuon.spans).to_vec()))
            .collect();
        for (interval, span) in &negating {
            let mut listed = span.clone();
            listed.sort_unstable();
            for t in interval.points() {
                let valid: Vec<u32> = (0..s.len() as u32)
                    .filter(|&si| s.tuple(si as usize).valid_at(t))
                    .collect();
                assert_eq!(listed, valid, "{interval} at {t}");
            }
        }
        negating
    }

    #[test]
    fn case2_boundaries_at_ending_points() {
        // two nested negative tuples: [2,10) and [4,6)
        // elementary negating windows: [2,4){s0}, [4,6){s0, s1}, [6,10){s0}
        assert_eq!(
            negating_for(&[(2, 10), (4, 6)]),
            vec![
                (Interval::new(2, 4), vec![0]),
                (Interval::new(4, 6), vec![0, 1]),
                (Interval::new(6, 10), vec![0])
            ]
        );
    }

    #[test]
    fn case3_boundaries_at_starting_points_of_next_group() {
        // two disjoint negative tuples produce two separate negating windows
        assert_eq!(
            negating_for(&[(1, 3), (7, 9)]),
            vec![
                (Interval::new(1, 3), vec![0]),
                (Interval::new(7, 9), vec![1])
            ]
        );
    }

    #[test]
    fn meeting_negative_tuples_produce_adjacent_windows() {
        assert_eq!(
            negating_for(&[(1, 5), (5, 9)]),
            vec![
                (Interval::new(1, 5), vec![0]),
                (Interval::new(5, 9), vec![1])
            ]
        );
    }

    #[test]
    fn identical_negative_intervals_are_disjoined() {
        assert_eq!(
            negating_for(&[(3, 7), (3, 7)]),
            vec![(Interval::new(3, 7), vec![0, 1])]
        );
    }

    #[test]
    fn staircase_of_overlapping_negative_tuples() {
        // An expired tuple leaves the span; the rest keep activation order.
        assert_eq!(
            negating_for(&[(0, 6), (4, 12), (10, 20)]),
            vec![
                (Interval::new(0, 4), vec![0]),
                (Interval::new(4, 6), vec![0, 1]),
                (Interval::new(6, 10), vec![1]),
                (Interval::new(10, 12), vec![1, 2]),
                (Interval::new(12, 20), vec![2]),
            ]
        );
    }

    #[test]
    fn negating_windows_cover_exactly_the_overlapped_part() {
        let (wuon, _, _) = run_booking();
        // For the Ann tuple (valid [2,8)): negating windows must cover
        // exactly the time points covered by overlapping windows.
        for t in 2..8 {
            let in_overlap = wuon
                .iter()
                .any(|w| w.r_idx == 0 && w.is_overlapping() && w.interval.contains_point(t));
            let in_negating = wuon
                .iter()
                .any(|w| w.r_idx == 0 && w.is_negating() && w.interval.contains_point(t));
            assert_eq!(in_overlap, in_negating, "t = {t}");
        }
    }

    #[test]
    fn negating_windows_do_not_overlap_each_other() {
        let (wuon, _, _) = run_booking();
        let negs: Vec<&Window> = wuon.iter().filter(|w| w.is_negating()).collect();
        for (i, w1) in negs.iter().enumerate() {
            for w2 in negs.iter().skip(i + 1) {
                if w1.r_idx == w2.r_idx {
                    assert!(!w1.interval.overlaps(&w2.interval));
                }
            }
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(lawan(&[]).is_empty());
    }

    /// Overlapping windows name one `s` tuple, negating windows a non-empty
    /// span of the `s` tuples matching over the window, unmatched windows
    /// neither.
    #[test]
    fn kinds_partition_the_output() {
        let (wuon, b, _) = run_booking();
        for w in wuon.iter() {
            let span = w.span.of(&wuon.spans);
            match w.kind {
                WindowKind::Overlapping | WindowKind::Unmatched => {
                    assert_eq!(w.s_idx.is_some(), w.is_overlapping());
                    assert!(span.is_empty());
                }
                WindowKind::Negating => {
                    assert!(w.s_idx.is_none());
                    assert!(!span.is_empty());
                    for &si in span {
                        let st = b.tuple(si as usize);
                        assert!(st.interval().contains(&w.interval), "{w:?}");
                        assert_eq!(st.fact(1), &Value::str("ZAK"));
                    }
                }
            }
        }
    }
}
