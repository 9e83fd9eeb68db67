//! Property-based tests of the window algebra invariants from Definition 1
//! and Table I of the paper, on randomized duplicate-free inputs.

use proptest::prelude::*;
use std::cell::Cell;
use std::collections::VecDeque;
use tpdb_core::{
    lawan, lawau, overlapping_windows, tp_union, LawanStream, LawauStream, OverlapWindowStream,
    ThetaCondition, Window, WindowGroups, WindowKind, WindowSet,
};
use tpdb_lineage::{Lineage, VarId};
use tpdb_storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::Interval;
use tree_reference::{drain, resolved};

mod tree_reference;

/// Builds a duplicate-free single-key relation from raw rows, skipping rows
/// that would overlap an existing same-key interval.
fn build(name: &str, var_offset: u32, rows: &[(i64, i64, i64)]) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    let mut var = var_offset;
    for (key, start, duration) in rows {
        let interval = Interval::new(*start, *start + *duration);
        if rel
            .iter()
            .any(|t| t.fact(0) == &Value::Int(*key) && t.interval().overlaps(&interval))
        {
            continue;
        }
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            Lineage::var(VarId(var)),
            interval,
            0.5,
        ))
        .unwrap();
        var += 1;
    }
    rel
}

fn rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..40, 1i64..10), 1..15)
}

/// A derived negative side: the tuples of `r ∪ s` followed by those of `s`
/// itself. It is *not* duplicate-free, so under one `r` tuple several
/// negative tuples are valid at once: `Or` lineages (`rᵢ ∨ sⱼ`) are
/// flattened into the active set next to a second contributor of `sⱼ`, and
/// identical and meeting intervals reach the sweep.
fn derived_negative(r: &TpRelation, s: &TpRelation) -> TpRelation {
    let mut derived = TpRelation::new("rs", r.schema().clone());
    for t in tp_union(r, s).unwrap().iter().chain(s.iter()) {
        derived.push(t.clone()).unwrap();
    }
    derived
}

/// WUON three ways — the stacked streams popped window by window, the same
/// stages fed from a plain vector, the materializing algorithms (which
/// sweep every group on the tail of one buffer and keep one span buffer) —
/// which must agree window for window: order, kind, `s_idx` and the `s`
/// tuples a span lists.
fn assert_streamed_is_materialized(r: &TpRelation, s: &TpRelation, theta: &ThetaCondition) {
    let wo = overlapping_windows(r, s, theta).unwrap();
    let materialized = resolved(&lawan(&lawau(&wo, r)));
    let overlap = OverlapWindowStream::new(r, s, theta).unwrap();
    let streamed = drain(LawanStream::new(LawauStream::new(overlap, r)));
    assert_eq!(streamed, materialized);
    let from_vec = LawauStream::new(wo.into_iter().peekable(), r);
    let from_vec = from_vec.collect::<Vec<_>>().into_iter().peekable();
    assert_eq!(drain(LawanStream::new(from_vec)), materialized);
}

fn all_windows(r: &TpRelation, s: &TpRelation) -> WindowSet {
    let theta = ThetaCondition::column_equals("k", "k");
    lawan(&lawau(&overlapping_windows(r, s, &theta).unwrap(), r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming pipeline is the materializing one, window for window —
    /// not merely as a multiset: on duplicate-free sides under the key
    /// equality, and with a derived, overlapping negative side under the
    /// key equality and under θ = true (every negative tuple matches, so
    /// the active sets are as large as the data allows).
    #[test]
    fn streamed_wuon_is_the_materialized_wuon(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let on_key = ThetaCondition::column_equals("k", "k");
        assert_streamed_is_materialized(&r, &s, &on_key);
        let derived = derived_negative(&r, &s);
        assert_streamed_is_materialized(&r, &derived, &on_key);
        assert_streamed_is_materialized(&r, &derived, &ThetaCondition::always());
    }

    /// Unmatched and negating windows of one r tuple partition its interval:
    /// every time point of the tuple is covered by exactly one of them.
    #[test]
    fn unmatched_and_negating_partition_each_positive_tuple(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let windows = all_windows(&r, &s);
        for (ri, rt) in r.iter().enumerate() {
            for t in rt.interval().points() {
                let covering = windows
                    .iter()
                    .filter(|w| w.r_idx == ri && w.kind != WindowKind::Overlapping && w.interval.contains_point(t))
                    .count();
                prop_assert_eq!(covering, 1, "time point {} of r tuple {} covered {} times", t, ri, covering);
            }
        }
    }

    /// A time point lies in a negating window of an r tuple iff some
    /// θ-matching s tuple is valid there; it lies in an unmatched window iff
    /// none is (Table I).
    #[test]
    fn window_kinds_reflect_matching_validity(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let windows = all_windows(&r, &s);
        for (ri, rt) in r.iter().enumerate() {
            for t in rt.interval().points() {
                let any_match = s
                    .iter()
                    .any(|st| st.valid_at(t) && st.fact(0) == rt.fact(0));
                let in_negating = windows.iter().any(|w| {
                    w.r_idx == ri && w.kind == WindowKind::Negating && w.interval.contains_point(t)
                });
                let in_unmatched = windows.iter().any(|w| {
                    w.r_idx == ri && w.kind == WindowKind::Unmatched && w.interval.contains_point(t)
                });
                prop_assert_eq!(any_match, in_negating);
                prop_assert_eq!(!any_match, in_unmatched);
            }
        }
    }

    /// λs of a negating window is the disjunction of the θ-matching s
    /// tuples its span lists, and the span lists exactly those valid over
    /// the window, each once (checked at every point: the set never changes
    /// within the window, which is the maximality condition of Definition
    /// 1), on a duplicate-free and on a derived negative side.
    #[test]
    fn negating_lambda_s_is_the_disjunction_of_valid_matches(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let derived = derived_negative(&r, &s);
        for s in [&s, &derived] {
            let windows = all_windows(&r, s);
            for w in windows.iter().filter(|w| w.kind == WindowKind::Negating) {
                let rt = r.tuple(w.r_idx);
                let mut listed = w.span.of(&windows.spans).to_vec();
                listed.sort_unstable();
                prop_assert!(!listed.is_empty());
                for t in w.interval.points() {
                    let valid: Vec<u32> = (0..s.len())
                        .filter(|&si| s.tuple(si).fact(0) == rt.fact(0) && s.tuple(si).valid_at(t))
                        .map(|si| si as u32)
                        .collect();
                    prop_assert_eq!(&listed, &valid);
                }
            }
        }
    }

    /// A span lists its `s` tuples in activation order — the operand order
    /// that fixes the bits of `1 − ∏(1 − p(cᵢ))` — which is brute-forced
    /// here: the θ-matching `s` tuples valid over the window, ordered by
    /// the start of their overlapping window, then by that window's
    /// position in the group. On a duplicate-free and on a derived negative
    /// side, under the key equality and under θ = true.
    #[test]
    fn spans_list_the_valid_matches_in_activation_order(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let derived = derived_negative(&r, &s);
        for s in [&s, &derived] {
            for theta in [ThetaCondition::column_equals("k", "k"), ThetaCondition::always()] {
                let windows = lawan(&lawau(&overlapping_windows(&r, s, &theta).unwrap(), &r));
                for w in windows.iter().filter(|w| w.kind == WindowKind::Negating) {
                    let mut valid: Vec<(i64, usize, u32)> = windows
                        .iter()
                        .filter(|o| o.r_idx == w.r_idx)
                        .enumerate()
                        .filter_map(|(position, o)| Some((o.interval.start(), position, o.s_idx?)))
                        .filter(|&(_, _, si)| s.tuple(si).interval().contains(&w.interval))
                        .map(|(start, position, si)| (start, position, si as u32))
                        .collect();
                    valid.sort_unstable();
                    let expected: Vec<u32> = valid.into_iter().map(|(_, _, si)| si).collect();
                    prop_assert_eq!(w.span.of(&windows.spans), &expected[..], "{:?}", w);
                }
            }
        }
    }

    /// Overlapping windows are exactly the pairwise intersections of
    /// θ-matching tuples.
    #[test]
    fn overlapping_windows_enumerate_matching_pairs(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let windows = all_windows(&r, &s);
        let mut expected = 0usize;
        for rt in r.iter() {
            for st in s.iter() {
                if rt.fact(0) == st.fact(0) && rt.interval().overlaps(&st.interval()) {
                    expected += 1;
                }
            }
        }
        let actual = windows.iter().filter(|w| w.kind == WindowKind::Overlapping).count();
        prop_assert_eq!(actual, expected);
    }

    /// Windows never extend past the validity interval of their positive
    /// tuple, and negating/unmatched windows of the same tuple never overlap
    /// each other (maximality ⇒ disjointness).
    #[test]
    fn windows_are_bounded_and_disjoint_per_tuple(rr in rows(), ss in rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        let windows = all_windows(&r, &s);
        for w in windows.iter() {
            prop_assert!(r.tuple(w.r_idx).interval().contains(&w.interval));
        }
        for kind in [WindowKind::Unmatched, WindowKind::Negating] {
            for (ri, _) in r.iter().enumerate() {
                let of_kind: Vec<&Window> = windows
                    .iter()
                    .filter(|w| w.r_idx == ri && w.kind == kind)
                    .collect();
                for (i, w1) in of_kind.iter().enumerate() {
                    for w2 in of_kind.iter().skip(i + 1) {
                        prop_assert!(!w1.interval.overlaps(&w2.interval));
                    }
                }
            }
        }
    }
}

/// One positive tuple per `(key, start, end)` and one negative tuple per
/// `(key, start, end)`, variables numbered from 0 and 100.
fn relations(pos: &[(i64, i64, i64)], neg: &[(i64, i64, i64)]) -> (TpRelation, TpRelation) {
    let rel = |name: &str, offset: u32, rows: &[(i64, i64, i64)]| {
        let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        for (i, (key, start, end)) in rows.iter().enumerate() {
            rel.push(TpTuple::new(
                vec![Value::Int(*key)],
                Lineage::var(VarId(offset + i as u32)),
                Interval::new(*start, *end),
                0.5,
            ))
            .unwrap();
        }
        rel
    };
    (rel("r", 0, pos), rel("s", 100, neg))
}

/// Three positive tuples — two of key 0 around one of key 1 — and four
/// staggered negative tuples of key 0: the groups' active sets are large,
/// empty, large.
fn large_empty_large() -> (TpRelation, TpRelation) {
    relations(
        &[(0, 0, 20), (1, 0, 20), (0, 2, 18)],
        &[(0, 1, 9), (0, 3, 12), (0, 3, 12), (0, 9, 19)],
    )
}

#[test]
fn lawan_pulls_one_group_at_a_time() {
    /// Counts the groups LAWAN asks its upstream for.
    struct Counted<'a, G>(G, &'a Cell<usize>);
    impl<G: WindowGroups> WindowGroups for Counted<'_, G> {
        fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
            self.1.set(self.1.get() + 1);
            self.0.next_group(out)
        }
    }

    let (r, s) = large_empty_large();
    let theta = ThetaCondition::column_equals("k", "k");
    let wuo = lawau(&overlapping_windows(&r, &s, &theta).unwrap(), &r);
    let wuon = lawan(&wuo);
    let group_len = |windows: &[Window], ri| windows.iter().filter(|w| w.r_idx == ri).count();

    // Stacked on a group source: exactly one group is pulled before the
    // first window, and no further one until that group is used up.
    let groups = Cell::new(0);
    let overlap = OverlapWindowStream::new(&r, &s, &theta).unwrap();
    let mut stream = LawanStream::new(Counted(LawauStream::new(overlap, &r), &groups));
    assert_eq!(groups.get(), 0, "nothing is pulled at construction");
    for pulled in 1..=3 {
        for _ in 0..group_len(&wuon, pulled - 1) {
            assert!(stream.next().is_some());
            assert_eq!(groups.get(), pulled);
        }
    }
    assert!(stream.next().is_none());

    // Fed from a plain iterator: the first group and the one window of
    // lookahead that ends it, nothing more.
    let windows = Cell::new(0);
    let counted = wuo
        .clone()
        .into_iter()
        .inspect(|_| windows.set(windows.get() + 1));
    let mut stream = LawanStream::new(counted.peekable());
    assert_eq!(windows.get(), 0);
    for _ in 0..group_len(&wuon, 0) {
        assert!(stream.next().is_some());
        assert_eq!(windows.get(), group_len(&wuo, 0) + 1);
    }
    assert!(stream.next().is_some());
    assert_eq!(windows.get(), group_len(&wuo, 0) + group_len(&wuo, 1) + 1);
}

#[test]
fn sweep_state_is_clean_after_a_drained_group() {
    // One stream sweeps a group with a large active set, one with none, and
    // a second large one that re-activates the very same operands: the
    // reused active set (and its cached smallest end) must behave as new.
    let (r, s) = large_empty_large();
    let theta = ThetaCondition::column_equals("k", "k");
    let overlap = OverlapWindowStream::new(&r, &s, &theta).unwrap();
    let all = drain(LawanStream::new(LawauStream::new(overlap, &r)));
    assert!(all.iter().any(|(w, _)| w.r_idx == 0 && w.is_negating()));
    assert!(all
        .iter()
        .filter(|(w, _)| w.r_idx == 1)
        .all(|(w, _)| w.is_unmatched()));

    let mut last = TpRelation::new("r", r.schema().clone());
    last.push(r.tuple(2).clone()).unwrap();
    let overlap = OverlapWindowStream::new(&last, &s, &theta).unwrap();
    let fresh = drain(LawanStream::new(LawauStream::new(overlap, &last)));
    let reused: Vec<_> = all
        .into_iter()
        .filter(|(w, _)| w.r_idx == 2)
        .map(|(w, span)| (Window { r_idx: 0, ..w }, span))
        .collect();
    // [2,3), [3,9), [9,12), [12,18)
    assert_eq!(fresh.iter().filter(|(w, _)| w.is_negating()).count(), 4);
    assert_eq!(reused, fresh);
}
