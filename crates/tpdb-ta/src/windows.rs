//! Window computation the Temporal Alignment way.
//!
//! TA derives the same three window classes as the lineage-aware approach,
//! but with the redundancies the paper measures:
//!
//! * [`ta_wuo_windows`] runs the conventional overlap join **twice** — once
//!   to obtain the overlapping windows, and a second alignment pass to find
//!   the unmatched sub-intervals.
//! * [`ta_negating_windows`] aligns the positive relation yet again and then
//!   re-scans the matching negative tuples for every aligned fragment to
//!   list them in the fragment's span, whose disjunction is `λs`.
//! * [`ta_wuon_windows`] unions the two results and has to eliminate the
//!   unmatched windows that were computed twice.

use crate::align::{align_bound, fragments, Matcher};
use tpdb_core::{BoundTheta, Span, ThetaCondition, Window, WindowSet};
use tpdb_storage::{StorageError, TpRelation};

/// Overlapping + unmatched windows (`WUO`), computed the TA way: the overlap
/// join runs once for the overlapping windows and the alignment pass
/// (effectively a second overlap join) recomputes the matches to find the
/// unmatched sub-intervals.
pub fn ta_wuo_windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<Vec<Window>, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    Ok(ta_wuo_with_plan(r, s, &bound, true))
}

/// [`ta_wuo_windows`] with an explicit plan choice (`use_hash = false`
/// forces nested loops, as in the end-to-end TA join).
pub(crate) fn ta_wuo_with_plan(
    r: &TpRelation,
    s: &TpRelation,
    bound: &BoundTheta,
    use_hash: bool,
) -> Vec<Window> {
    // Pass 1: conventional overlap join — the overlapping windows, found
    // with the plan a DBMS picks inside the alignment operator (a hash
    // join when θ is usable as an equi-join, nested loops otherwise).
    let mut matcher = Matcher::new(s, bound, use_hash);
    let mut windows = Vec::new();
    for (ri, rt) in r.iter().enumerate() {
        let matches = matcher.matches(rt).into_iter();
        windows.extend(matches.map(|(overlap, si)| Window::overlapping(overlap, ri, si)));
    }

    // Pass 2: alignment — recompute the matches of every r tuple to find the
    // uncovered fragments, which become the unmatched windows.
    let uncovered = align_bound(r, s, bound, use_hash)
        .into_iter()
        .filter(|frag| !frag.covered);
    windows.extend(uncovered.map(|frag| Window::unmatched(frag.interval, frag.r_idx)));

    windows.sort_by_key(|w| (w.r_idx, w.interval.start(), w.interval.end()));
    windows
}

/// Negating windows computed the TA way: align the positive relation against
/// the negative one and, for every covered fragment, re-scan the matching
/// negative tuples to list them in the fragment's span.
pub fn ta_negating_windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<WindowSet, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    Ok(ta_negating_with_plan(r, s, &bound, true))
}

/// [`ta_negating_windows`] with an explicit plan choice.
fn ta_negating_with_plan(
    r: &TpRelation,
    s: &TpRelation,
    bound: &BoundTheta,
    use_hash: bool,
) -> WindowSet {
    let index = |i: usize| u32::try_from(i).expect("indices fit u32");
    let mut matcher = Matcher::new(s, bound, use_hash);
    let mut out = WindowSet::default();
    for (ri, rt) in r.iter().enumerate() {
        // Re-derive the matching overlaps of this tuple (alignment pass),
        // replicating the overlap computation that LAWAN gets for free from
        // the already-computed overlapping windows.
        let matches = matcher.matches(rt);
        // One pass per fragment over the matches of the tuple: quadratic in
        // the per-tuple match count, which is TA's replication overhead.
        for fragment in fragments(rt.interval(), &matches) {
            let start = out.spans.len();
            let covering = matches
                .iter()
                .filter(|(overlap, _)| overlap.contains(&fragment));
            out.spans.extend(covering.map(|&(_, si)| index(si)));
            let len = index(out.spans.len() - start);
            // An uncovered fragment is an unmatched window, not a negating one.
            if len > 0 {
                let span = Span {
                    start: index(start),
                    len,
                };
                out.windows.push(Window::negating(fragment, ri, span));
            }
        }
    }
    out
}

/// `WUON` — all three window classes, computed the TA way and combined with
/// a duplicate-eliminating union (the unmatched windows are produced by both
/// sub-computations and must be de-duplicated, exactly the overhead the
/// paper attributes to TA's union step).
pub fn ta_wuon_windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<WindowSet, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    Ok(ta_wuon_with_plan(r, s, &bound, true))
}

/// [`ta_wuon_windows`] with an explicit plan choice.
pub(crate) fn ta_wuon_with_plan(
    r: &TpRelation,
    s: &TpRelation,
    bound: &BoundTheta,
    use_hash: bool,
) -> WindowSet {
    let wuo = ta_wuo_with_plan(r, s, bound, use_hash);
    let mut all = ta_negating_with_plan(r, s, bound, use_hash);

    // The negating computation re-derives the unmatched fragments as part of
    // its alignment pass; emulate TA's union by concatenating both results
    // (including those re-derived unmatched windows) and eliminating
    // duplicates afterwards.
    let re_derived_unmatched = align_bound(r, s, bound, use_hash)
        .into_iter()
        .filter(|f| !f.covered)
        .map(|f| Window::unmatched(f.interval, f.r_idx));
    all.windows.extend(wuo);
    all.windows.extend(re_derived_unmatched);
    all.windows.sort_by_key(|w| {
        let (start, end) = (w.interval.start(), w.interval.end());
        (w.r_idx, start, end, w.kind as u8, w.s_idx)
    });
    all.windows.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_core::{lawan, lawau, overlapping_windows, WindowKind};
    use tpdb_lineage::{Lineage, SymbolTable};
    use tpdb_storage::{DataType, Schema, TpTuple, Value};
    use tpdb_temporal::Interval;

    fn booking() -> (TpRelation, TpRelation) {
        let mut syms = SymbolTable::new();
        let mut a = TpRelation::new(
            "a",
            Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]),
        );
        for (name, loc, iv, p) in [("Ann", "ZAK", (2, 8), 0.7), ("Jim", "WEN", (7, 10), 0.8)] {
            let var = syms.fresh("a");
            a.push(TpTuple::new(
                vec![Value::str(name), Value::str(loc)],
                Lineage::var(var),
                Interval::new(iv.0, iv.1),
                p,
            ))
            .unwrap();
        }
        let mut b = TpRelation::new(
            "b",
            Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)]),
        );
        for (h, loc, iv, p) in [
            ("hotel3", "SOR", (1, 4), 0.9),
            ("hotel2", "ZAK", (5, 8), 0.6),
            ("hotel1", "ZAK", (4, 6), 0.7),
        ] {
            let var = syms.fresh("b");
            b.push(TpTuple::new(
                vec![Value::str(h), Value::str(loc)],
                Lineage::var(var),
                Interval::new(iv.0, iv.1),
                p,
            ))
            .unwrap();
        }
        (a, b)
    }

    fn theta() -> ThetaCondition {
        ThetaCondition::column_equals("Loc", "Loc")
    }

    /// Canonical form for window-set comparison: ignore input ordering.
    fn canon(ws: &[Window]) -> Vec<(usize, WindowKind, i64, i64)> {
        let mut ws = ws.to_vec();
        ws.sort_by_key(|w| {
            (
                w.r_idx,
                w.interval.start(),
                w.interval.end(),
                w.kind as u8,
                w.s_idx,
            )
        });
        ws.iter()
            .map(|w| (w.r_idx, w.kind, w.interval.start(), w.interval.end()))
            .collect()
    }

    #[test]
    fn ta_wuo_matches_nj_wuo_on_paper_example() {
        let (a, b) = booking();
        let nj = lawau(&overlapping_windows(&a, &b, &theta()).unwrap(), &a);
        let ta = ta_wuo_windows(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_negating_matches_nj_negating_on_paper_example() {
        let (a, b) = booking();
        let nj = lawan(&lawau(&overlapping_windows(&a, &b, &theta()).unwrap(), &a));
        let ta = ta_negating_windows(&a, &b, &theta()).unwrap();
        let negating: Vec<Window> = nj.iter().copied().filter(Window::is_negating).collect();
        assert_eq!(canon(&negating), canon(&ta));
        // λs of the [5,6) window disjoins the same two s tuples in both
        let span = |set: &WindowSet| {
            let w = set.iter().find(|w| w.interval == Interval::new(5, 6));
            let mut span = w.unwrap().span.of(&set.spans).to_vec();
            span.sort_unstable();
            span
        };
        assert_eq!(span(&ta), [1, 2]);
        assert_eq!(span(&nj), span(&ta));
    }

    #[test]
    fn ta_wuon_matches_nj_wuon_on_paper_example() {
        let (a, b) = booking();
        let nj = lawan(&lawau(&overlapping_windows(&a, &b, &theta()).unwrap(), &a));
        let ta = ta_wuon_windows(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn union_removes_duplicate_unmatched_windows() {
        let (a, b) = booking();
        let ta = ta_wuon_windows(&a, &b, &theta()).unwrap();
        // unmatched windows appear exactly once despite being computed twice
        let unmatched: Vec<&Window> = ta.iter().filter(|w| w.is_unmatched()).collect();
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn nested_loop_plan_produces_identical_windows() {
        let (a, b) = booking();
        let bound = theta().bind(a.schema(), b.schema()).unwrap();
        let hash = ta_wuon_with_plan(&a, &b, &bound, true);
        let nl = ta_wuon_with_plan(&a, &b, &bound, false);
        assert_eq!(canon(&hash), canon(&nl));
    }
}
