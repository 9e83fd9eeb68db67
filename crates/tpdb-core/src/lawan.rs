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
//! The disjunction `λs` of the active lineages is maintained
//! **incrementally**: a window starting or ending at a boundary updates an
//! ordered vector of reference-counted operands
//! ([`IncrementalDisjunction`] over trees, [`InternedDisjunction`] over
//! arena ids) in time proportional to its own lineage times the active-set
//! size, and emitting a negating window only copies the live operands — the
//! full active set is never re-flattened or re-deduplicated at a boundary.
//! Nothing in the sweep hashes or, in the steady state, allocates per
//! boundary: membership is a linear search (the active set is the handful
//! of `s` tuples valid at one time point under one `r` tuple — 6 on
//! average on the meteo workload, 1 on webkit — and every update is
//! followed by an emission that copies the whole set anyway), expired
//! ending points are popped one at a time, and the interned emission
//! gathers its operands in the interner's reused buffer.
//!
//! There is **one sweep body**, [`sweep_group`], generic over the lineage
//! representation through the [`ActiveSet`] operations: the tree streams,
//! the materializing [`lawan`] (and through it the TA baseline) and the
//! executing interned pipelines all run it.

use crate::window::{Window, WindowSink};
use tpdb_lineage::{
    IncrementalDisjunction, InternedDisjunction, Lineage, LineageInterner, LineageRef,
};
use tpdb_temporal::{EventQueue, Interval, TimePoint};

/// Runs LAWAN over the output `WUO` of [`lawau`](crate::lawau::lawau).
///
/// `wuo` must be grouped by `r_idx` with windows sorted by start within each
/// group. The result `WUON` contains every input window plus the negating
/// windows, grouped by `r_idx`.
#[must_use]
pub fn lawan(wuo: &[Window]) -> Vec<Window> {
    let mut out: Vec<Window> = Vec::with_capacity(wuo.len() * 2);
    let mut idx = 0;
    while idx < wuo.len() {
        let r_idx = wuo[idx].r_idx;
        let group_start = idx;
        while idx < wuo.len() && wuo[idx].r_idx == r_idx {
            idx += 1;
        }
        sweep_group(
            &wuo[group_start..idx],
            IncrementalDisjunction::new(),
            &mut out,
        );
    }
    out
}

/// The multiset of `λs` lineages active at the sweep line, in the lineage
/// representation `L` — what [`sweep_group`] needs of
/// [`IncrementalDisjunction`] / [`InternedDisjunction`].
pub(crate) trait ActiveSet<L> {
    /// An `s` tuple with lineage `lambda_s` starts being valid.
    fn activate(&mut self, lambda_s: &L);
    /// One previously activated `s` tuple with lineage `lambda_s` expires.
    fn expire(&mut self, lambda_s: &L);
    /// Is no `s` tuple active?
    fn is_empty(&self) -> bool;
    /// The disjunction of the active lineages, operands in activation
    /// order.
    fn disjunction(&mut self) -> L;
}

impl ActiveSet<Lineage> for IncrementalDisjunction {
    fn activate(&mut self, lambda_s: &Lineage) {
        self.insert(lambda_s);
    }

    fn expire(&mut self, lambda_s: &Lineage) {
        self.remove(lambda_s);
    }

    fn is_empty(&self) -> bool {
        IncrementalDisjunction::is_empty(self)
    }

    fn disjunction(&mut self) -> Lineage {
        IncrementalDisjunction::disjunction(self)
    }
}

/// An [`InternedDisjunction`] together with the arena its operands live in
/// and its emitted disjunctions are interned into.
pub(crate) struct InternedActiveSet<'a> {
    active: InternedDisjunction,
    interner: &'a mut LineageInterner,
}

impl<'a> InternedActiveSet<'a> {
    pub(crate) fn new(interner: &'a mut LineageInterner) -> Self {
        Self {
            active: InternedDisjunction::new(),
            interner,
        }
    }
}

impl ActiveSet<LineageRef> for InternedActiveSet<'_> {
    fn activate(&mut self, lambda_s: &LineageRef) {
        self.active.insert(*lambda_s, self.interner);
    }

    fn expire(&mut self, lambda_s: &LineageRef) {
        self.active.remove(*lambda_s, self.interner);
    }

    fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    fn disjunction(&mut self) -> LineageRef {
        self.active.disjunction(self.interner)
    }
}

/// Sweeps one group (all `WUO` windows of a single `r` tuple): copies the
/// unmatched and overlapping windows to the output and inserts the negating
/// windows derived from the overlapping ones. `active` is the (empty)
/// active set of the group in the windows' lineage representation; operand
/// order is the activation order in every representation, so the tree and
/// the interned sweep yield the same windows — and the same output bytes —
/// after conversion.
pub(crate) fn sweep_group<L: Clone>(
    group: &[Window<L>],
    mut active: impl ActiveSet<L>,
    out: &mut impl WindowSink<L>,
) {
    // Copy every existing window through (Case 1 alternates these copies
    // with the creation of negating windows; emitting them up front keeps
    // the output grouped by r tuple, which is all downstream consumers
    // need).
    for w in group {
        out.put(w.clone());
    }

    let overlapping: Vec<&Window<L>> = group.iter().filter(|w| w.is_overlapping()).collect();
    let Some(first) = overlapping.first() else {
        return;
    };
    let r_idx = first.r_idx;
    let lambda_r = &first.lambda_r;
    fn lambda_s<L>(w: &Window<L>) -> &L {
        w.lambda_s
            .as_ref()
            // Window-kind invariant. tpdb-lint: allow(no-panic-in-lib)
            .expect("overlapping windows always carry λs")
    }

    // Sweep the overlapping windows of the group in start order, keeping the
    // ending points of the active windows in a priority queue and their
    // lineage disjunction in an incrementally maintained operand list.
    let mut queue = EventQueue::new();
    let mut i = 0usize;
    let mut wind_ts: Option<TimePoint> = None;

    loop {
        // Determine the next boundary: the smaller of the next start point
        // (Case 3: a new window group/start follows) and the next ending
        // point in the priority queue (Case 2).
        let next_start = overlapping.get(i).map(|w| w.interval.start());
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
            if !active.is_empty() && ts < boundary {
                out.put(Window::negating(
                    Interval::new(ts, boundary),
                    r_idx,
                    // One λr per negating window: a `u32` copy on the
                    // interned path, an `Arc` bump on the tree one.
                    // tpdb-lint: allow(no-lineage-clone-in-streams)
                    lambda_r.clone(),
                    active.disjunction(),
                ));
            }
        }

        // Apply all events at `boundary`: expire ended windows first (their
        // intervals are half-open), then activate windows starting here.
        while let Some(item) = queue.pop_if_expired(boundary) {
            active.expire(lambda_s(overlapping[item]));
        }
        while let Some(w) = overlapping.get(i) {
            if w.interval.start() != boundary {
                break;
            }
            active.activate(lambda_s(w));
            queue.push(w.interval.end(), i);
            i += 1;
        }
        wind_ts = Some(boundary);
    }
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
