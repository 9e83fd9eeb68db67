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
//! is the ending point of an active `s` tuple (taken from the priority
//! queue of ending points), (3) the next boundary is the starting point of
//! the next group. The implementation keeps the ending points of the active
//! overlapping windows in a priority queue ([`EventQueue`]) exactly as the
//! paper describes.
//!
//! There is **one sweep body**, [`sweep_group`], and it runs **in place**
//! on the tail of the output buffer: the group's `WUO` windows are already
//! there (written by the upstream stage on the streaming path, cloned in by
//! the materializing [`lawan`], which owns no windows), the negating windows
//! are appended behind them, and the overlapping windows are read back by
//! buffer index — no window is cloned or regrouped and no per-group list is
//! built. Copied windows first, negating windows after: that keeps the
//! output grouped by `r` tuple, which is all downstream consumers need, and
//! is the row order every golden fixture pins.
//!
//! What outlives a group is the sweep state: the ending-point queue and the
//! active set, owned by the stream. Both are empty when a group's sweep ends (every activated
//! window has expired — debug-asserted), so the next group reuses their
//! storage and the steady-state sweep allocates only the tree path's `λs`.
//!
//! `λs` is maintained **incrementally** in an ordered vector of
//! reference-counted operands ([`IncrementalDisjunction`] over trees,
//! [`InternedDisjunction`] over arena ids; see `tpdb_lineage::disjunction`
//! for why it is searched linearly and never hashed): a window starting or
//! ending at a boundary updates it, and emitting a negating window only
//! copies the live operands: into an `Or` tree, or into the pass's operand
//! buffer, whose [`SideRef::Span`] the interned window carries — no node.

use crate::window::{SideRef, Window};
use std::collections::VecDeque;
use std::fmt::Debug;
use tpdb_lineage::{
    IncrementalDisjunction, InternedDisjunction, Lineage, LineageInterner, LineageRef,
};
use tpdb_temporal::{EventQueue, Interval};

/// Runs LAWAN over the output `WUO` of [`lawau`](crate::lawau::lawau).
///
/// `wuo` must be grouped by `r_idx` with windows sorted by start within each
/// group. The result `WUON` contains every input window plus the negating
/// windows, grouped by `r_idx`.
#[must_use]
pub fn lawan(wuo: &[Window]) -> Vec<Window> {
    let mut out = VecDeque::with_capacity(wuo.len() * 2);
    let (mut queue, mut active) = (EventQueue::new(), IncrementalDisjunction::new());
    for group in wuo.chunk_by(|a, b| a.r_idx == b.r_idx) {
        let from = out.len();
        out.extend(group.iter().cloned());
        sweep_group(&mut out, from, &mut queue, &mut active, &(), &mut vec![]);
    }
    out.into()
}

/// A lineage representation the LAWAN sweep can run over — [`Lineage`]
/// trees and interned [`LineageRef`] ids: names the form of `λs`, the
/// multiset of `λs` lineages active at the sweep line and the operations
/// the sweep needs of it. Operand order is the activation order in every
/// representation, so the tree and the interned sweep yield the same
/// windows — and the same output bytes — after conversion.
pub trait WindowLineage: Clone {
    /// `λs` in a window: a tree, or a [`SideRef`] (`From` an `s` lineage).
    type Side: Clone + Debug + PartialEq + From<Self>;
    /// The active set ([`IncrementalDisjunction`] / [`InternedDisjunction`]).
    type Active: Default + Debug;
    /// Where the operands live: nothing for trees, the interner for ids.
    type Arena;
    /// An `s` tuple with lineage `lambda_s` starts being valid.
    fn activate(active: &mut Self::Active, lambda_s: &Self::Side, arena: &Self::Arena);
    /// One previously activated `s` tuple with lineage `lambda_s` expires.
    fn expire(active: &mut Self::Active, lambda_s: &Self::Side, arena: &Self::Arena);
    /// Is no `s` tuple active?
    fn is_empty(active: &Self::Active) -> bool;
    /// The disjunction of the active lineages, operands in activation
    /// order (≥ 2 interned ones: appended to `operands`, as their span).
    fn disjunction(active: &Self::Active, operands: &mut Vec<LineageRef>) -> Self::Side;
}

impl WindowLineage for Lineage {
    type Side = Lineage;
    type Active = IncrementalDisjunction;
    type Arena = ();

    fn activate(active: &mut Self::Active, lambda_s: &Self, (): &()) {
        active.insert(lambda_s);
    }

    fn expire(active: &mut Self::Active, lambda_s: &Self, (): &()) {
        active.remove(lambda_s);
    }

    fn is_empty(active: &Self::Active) -> bool {
        active.is_empty()
    }

    fn disjunction(active: &Self::Active, _: &mut Vec<LineageRef>) -> Self {
        active.disjunction()
    }
}

/// The `λs` of an overlapping window: its `s` tuple's node.
fn node(lambda_s: &SideRef) -> LineageRef {
    match *lambda_s {
        SideRef::Node(lineage) => lineage,
        #[expect(clippy::unreachable, reason = "window-kind invariant")]
        SideRef::Span { .. } => unreachable!("only negating windows carry spans"),
    }
}

impl WindowLineage for LineageRef {
    type Side = SideRef;
    type Active = InternedDisjunction;
    type Arena = LineageInterner;

    fn activate(active: &mut Self::Active, lambda_s: &SideRef, interner: &LineageInterner) {
        active.insert(node(lambda_s), interner);
    }

    fn expire(active: &mut Self::Active, lambda_s: &SideRef, interner: &LineageInterner) {
        active.remove(node(lambda_s), interner);
    }

    fn is_empty(active: &Self::Active) -> bool {
        active.is_empty()
    }

    fn disjunction(active: &Self::Active, operands: &mut Vec<LineageRef>) -> SideRef {
        let start = operands.len();
        operands.extend(active.operands());
        if let [only] = operands[start..] {
            operands.truncate(start);
            return SideRef::Node(only);
        }
        #[expect(
            clippy::expect_used,
            reason = "a span indexes one pass's operand buffer"
        )]
        let index = |i: usize| u32::try_from(i).expect("span beyond u32 indices");
        let (start, len) = (index(start), index(operands.len() - start));
        SideRef::Span { start, len }
    }
}

/// The first overlapping window of `out[i..end]` (`end` if there is none).
fn next_overlapping<L, S>(out: &VecDeque<Window<L, S>>, mut i: usize, end: usize) -> usize {
    while i < end && !out[i].is_overlapping() {
        i += 1;
    }
    i
}

/// Sweeps one group in place: `out[from..]` holds all `WUO` windows of a
/// single `r` tuple in start order; the negating windows derived from the
/// overlapping ones are appended behind them. `queue` and `active` — the
/// sweep state whose storage outlives a group — are empty on entry and on
/// return; `arena` is where the operands live; `operands`, empty on entry,
/// receives the operands of the `λs` spans.
pub(crate) fn sweep_group<L: WindowLineage>(
    out: &mut VecDeque<Window<L, L::Side>>,
    from: usize,
    queue: &mut EventQueue,
    active: &mut L::Active,
    arena: &L::Arena,
    operands: &mut Vec<LineageRef>,
) {
    #[expect(clippy::expect_used, reason = "window-kind invariant")]
    fn lambda_s<L, S>(w: &Window<L, S>) -> &S {
        w.lambda_s
            .as_ref()
            .expect("overlapping windows always carry λs")
    }
    debug_assert!(queue.is_empty() && L::is_empty(active) && operands.is_empty());

    // Sweep the overlapping windows of the group in start order, keeping the
    // ending points of the active windows in the priority queue (by buffer
    // index) and their lineage disjunction in the operand list.
    let end = out.len();
    let first = next_overlapping(out, from, end);
    let mut i = first;
    let mut wind_ts = None;
    loop {
        // Determine the next boundary: the smaller of the next start point
        // (Case 3: a new window group/start follows) and the next ending
        // point in the priority queue (Case 2).
        let next_start = (i < end).then(|| out[i].interval.start());
        let next_end = queue.peek().map(|(t, _)| t);
        let boundary = match (next_start, next_end) {
            (Some(s), Some(e)) => s.min(e),
            (Some(s), None) => s,
            (None, Some(e)) => e,
            (None, None) => break,
        };

        // Close the sweeping window [wind_ts, boundary) if any s tuple was
        // active over it.
        if let Some(ts) = wind_ts {
            if !L::is_empty(active) && ts < boundary {
                // One λr per negating window: a `u32` copy on the interned
                // path, an `Arc` bump on the tree one.
                let lambda_r = out[first].lambda_r.clone();
                out.push_back(Window::negating(
                    Interval::new(ts, boundary),
                    out[first].r_idx,
                    lambda_r,
                    L::disjunction(active, operands),
                ));
            }
        }

        // Apply all events at `boundary`: expire ended windows first (their
        // intervals are half-open), then activate windows starting here.
        while let Some(item) = queue.pop_if_expired(boundary) {
            L::expire(active, lambda_s(&out[item]), arena);
        }
        while i < end && out[i].interval.start() == boundary {
            L::activate(active, lambda_s(&out[i]), arena);
            queue.push(out[i].interval.end(), i);
            i = next_overlapping(out, i + 1, end);
        }
        wind_ts = Some(boundary);
    }
    debug_assert!(queue.is_empty() && L::is_empty(active));
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

    fn run_booking() -> (Vec<Window>, SymbolTable) {
        let (a, b, syms) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        let wuo = lawau(&wo, &a);
        (lawan(&wuo), syms)
    }

    #[test]
    fn paper_example_negating_windows() {
        let (wuon, syms) = run_booking();
        // Fig. 2: WN = { w5 = (a1, [4,5), b3), w6 = (a1, [5,6), b2 ∨ b3),
        //                w7 = (a1, [6,8), b2) }
        let negating: Vec<&Window> = wuon.iter().filter(|w| w.is_negating()).collect();
        assert_eq!(negating.len(), 3);

        assert_eq!(negating[0].interval, Interval::new(4, 5));
        assert_eq!(
            negating[0].lambda_s.as_ref().unwrap().display_with(&syms),
            "b3"
        );

        assert_eq!(negating[1].interval, Interval::new(5, 6));
        let l = negating[1].lambda_s.as_ref().unwrap().display_with(&syms);
        assert!(l == "b3 ∨ b2" || l == "b2 ∨ b3", "got {l}");

        assert_eq!(negating[2].interval, Interval::new(6, 8));
        assert_eq!(
            negating[2].lambda_s.as_ref().unwrap().display_with(&syms),
            "b2"
        );

        // all windows of WUO are preserved
        assert_eq!(wuon.iter().filter(|w| w.is_overlapping()).count(), 2);
        assert_eq!(wuon.iter().filter(|w| w.is_unmatched()).count(), 2);
        assert_eq!(wuon.len(), 7);
    }

    #[test]
    fn negating_windows_only_for_groups_with_overlaps() {
        let (wuon, _) = run_booking();
        // Jim (r_idx = 1) has no overlapping window, hence no negating ones.
        assert!(wuon
            .iter()
            .filter(|w| w.r_idx == 1)
            .all(|w| w.is_unmatched()));
    }

    /// One positive tuple over [0, 20), several negative tuples; returns the
    /// negating windows (interval, number of disjuncts in λs).
    fn negating_for(negative_intervals: &[(i64, i64)]) -> Vec<(Interval, usize)> {
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
        wuon.into_iter()
            .filter(|w| w.is_negating())
            .map(|w| {
                let n = match w.lambda_s.as_ref().unwrap().node() {
                    tpdb_lineage::LineageNode::Or(cs) => cs.len(),
                    tpdb_lineage::LineageNode::Var(_) => 1,
                    other => panic!("unexpected λs shape: {other:?}"),
                };
                (w.interval, n)
            })
            .collect()
    }

    #[test]
    fn case2_boundaries_at_ending_points() {
        // two nested negative tuples: [2,10) and [4,6)
        // elementary negating windows: [2,4){1}, [4,6){2}, [6,10){1}
        assert_eq!(
            negating_for(&[(2, 10), (4, 6)]),
            vec![
                (Interval::new(2, 4), 1),
                (Interval::new(4, 6), 2),
                (Interval::new(6, 10), 1)
            ]
        );
    }

    #[test]
    fn case3_boundaries_at_starting_points_of_next_group() {
        // two disjoint negative tuples produce two separate negating windows
        assert_eq!(
            negating_for(&[(1, 3), (7, 9)]),
            vec![(Interval::new(1, 3), 1), (Interval::new(7, 9), 1)]
        );
    }

    #[test]
    fn meeting_negative_tuples_produce_adjacent_windows() {
        assert_eq!(
            negating_for(&[(1, 5), (5, 9)]),
            vec![(Interval::new(1, 5), 1), (Interval::new(5, 9), 1)]
        );
    }

    #[test]
    fn identical_negative_intervals_are_disjoined() {
        assert_eq!(
            negating_for(&[(3, 7), (3, 7)]),
            vec![(Interval::new(3, 7), 2)]
        );
    }

    #[test]
    fn staircase_of_overlapping_negative_tuples() {
        assert_eq!(
            negating_for(&[(0, 6), (4, 12), (10, 20)]),
            vec![
                (Interval::new(0, 4), 1),
                (Interval::new(4, 6), 2),
                (Interval::new(6, 10), 1),
                (Interval::new(10, 12), 2),
                (Interval::new(12, 20), 1),
            ]
        );
    }

    #[test]
    fn negating_windows_cover_exactly_the_overlapped_part() {
        let (wuon, _) = run_booking();
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
        let (wuon, _) = run_booking();
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

    #[test]
    fn kinds_partition_the_output() {
        let (wuon, _) = run_booking();
        for w in &wuon {
            match w.kind {
                WindowKind::Overlapping => {
                    assert!(w.s_idx.is_some());
                    assert!(w.lambda_s.is_some());
                }
                WindowKind::Unmatched => {
                    assert!(w.s_idx.is_none());
                    assert!(w.lambda_s.is_none());
                }
                WindowKind::Negating => {
                    assert!(w.s_idx.is_none());
                    assert!(w.lambda_s.is_some());
                }
            }
        }
    }
}
