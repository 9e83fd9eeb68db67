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
//! ## Physical plans and output order
//!
//! All three plans probe the `r` tuples in index order and emit each probe's
//! windows sorted by `(start, end)`, so the join output is always **grouped
//! by `r_idx` and ordered by window start within each group** — the order
//! LAWAU and LAWAN consume — without any global re-sort of the joined
//! windows:
//!
//! * [`OverlapJoinPlan::Sweep`] (the default for equi-joins) partitions `s`
//!   on the equi-join key and sorts each partition by interval start once
//!   ([`SortedIntervalIndex`]); a probe binary-searches the first possibly
//!   overlapping candidate and scans forward until the candidates start past
//!   the probe interval, yielding intersections with non-decreasing starts.
//! * [`OverlapJoinPlan::Hash`] partitions `s` on the equi-join key and scans
//!   the whole partition per probe (the plan the TA baseline's DBMS picks).
//! * [`OverlapJoinPlan::NestedLoop`] compares every pair; the only plan
//!   applicable to non-equi θ conditions.
//!
//! [`OverlapWindowStream`] exposes the same join as an iterator producing
//! one `r`-tuple group at a time, which is what lets the full window
//! pipeline (overlap join → LAWAU → LAWAN → output formation) run without
//! materializing any intermediate window vector.

use crate::pipeline::{next_window, WindowGroups};
use crate::theta::{BoundTheta, ThetaCondition};
use crate::window::Window;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use tpdb_storage::{StorageError, TpRelation, TpTuple, Value};
use tpdb_temporal::{SortedIntervalIndex, SortedIntervalIndexBuilder};

/// Which physical plan the overlap join uses.
///
/// The keyed plans (sweep, hash) require a pure equi-join θ. Forcing a
/// keyed plan on a non-equi θ is a loud error, never a silent downgrade:
///
/// ```
/// use tpdb_core::{overlapping_windows_with_plan, OverlapJoinPlan, ThetaCondition};
///
/// let (a, b) = tpdb_datagen::booking_example();
/// let equi = ThetaCondition::column_equals("Loc", "Loc")
///     .bind(a.schema(), b.schema())
///     .unwrap();
/// let non_equi = ThetaCondition::always().bind(a.schema(), b.schema()).unwrap();
///
/// // the sweep runs on the equi-join ...
/// assert!(overlapping_windows_with_plan(&a, &b, &equi, OverlapJoinPlan::Sweep).is_ok());
/// // ... and refuses the non-equi θ instead of silently degrading
/// assert!(overlapping_windows_with_plan(&a, &b, &non_equi, OverlapJoinPlan::Sweep).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapJoinPlan {
    /// Hash-partition `s` on the equi-join key, scan the whole partition per
    /// probe. Only applicable when θ is a pure conjunction of equalities.
    Hash,
    /// Compare every pair of tuples. Always applicable.
    NestedLoop,
    /// Hash-partition `s` on the equi-join key and sort each partition by
    /// interval start; probe with a binary search plus bounded forward scan.
    /// Only applicable when θ is a pure conjunction of equalities. This is
    /// the default plan for equi-joins.
    Sweep,
}

impl OverlapJoinPlan {
    /// Short lower-case plan name (used in `EXPLAIN` output and benchmark
    /// series labels).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            OverlapJoinPlan::Hash => "hash",
            OverlapJoinPlan::NestedLoop => "nested-loop",
            OverlapJoinPlan::Sweep => "sweep",
        }
    }

    /// Does the plan require θ to be a pure equi-join?
    #[must_use]
    pub fn requires_equi_join(&self) -> bool {
        !matches!(self, OverlapJoinPlan::NestedLoop)
    }

    /// The error returned when this plan is forced on a θ it cannot execute.
    fn not_applicable(self) -> StorageError {
        StorageError::PlanNotApplicable {
            plan: self.label().to_owned(),
            reason: "the overlap-join plan requires a pure equi-join θ condition; \
                     use the nested-loop plan for general θ"
                .to_owned(),
        }
    }
}

impl fmt::Display for OverlapJoinPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The plan [`overlapping_windows`] picks automatically: sweep when θ is a
/// pure equi-join, nested loop otherwise.
#[must_use]
pub fn auto_plan(bound: &BoundTheta) -> OverlapJoinPlan {
    if bound.is_equi_join() {
        OverlapJoinPlan::Sweep
    } else {
        OverlapJoinPlan::NestedLoop
    }
}

/// Computes the overlapping windows of `r` with respect to `s` under θ,
/// together with the whole-interval unmatched windows of `r` tuples that
/// match nothing. The plan is chosen automatically ([`auto_plan`]).
pub fn overlapping_windows(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<Vec<Window>, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    overlapping_windows_with_plan(r, s, &bound, auto_plan(&bound))
}

/// Computes the overlapping + whole-interval unmatched windows with an
/// explicitly chosen plan (exposed for the planner and the ablation
/// benchmarks).
///
/// # Errors
///
/// Returns [`StorageError::PlanNotApplicable`] when a hash or sweep plan is
/// forced but θ is not a pure equi-join. A forced plan never silently
/// downgrades to a nested loop — callers that report which plan ran can
/// trust that it actually did.
pub fn overlapping_windows_with_plan(
    r: &TpRelation,
    s: &TpRelation,
    bound: &BoundTheta,
    plan: OverlapJoinPlan,
) -> Result<Vec<Window>, StorageError> {
    Ok(OverlapWindowStream::with_plan(r, s, bound.clone(), plan)?.collect())
}

/// The build-side structure of the overlap join, built once per pass and
/// probed once per `r` tuple.
enum ProbeIndex {
    /// Per-key partitions sorted by interval start.
    Sweep(HashMap<Vec<Value>, SortedIntervalIndex>),
    /// Per-key partitions in `s` index order.
    Hash(HashMap<Vec<Value>, Vec<usize>>),
    /// No index: every probe scans all of `s`.
    NestedLoop,
}

impl ProbeIndex {
    fn build(
        s: &TpRelation,
        bound: &BoundTheta,
        plan: OverlapJoinPlan,
    ) -> Result<Self, StorageError> {
        if plan.requires_equi_join() && !bound.is_equi_join() {
            return Err(plan.not_applicable());
        }
        Ok(match plan {
            OverlapJoinPlan::Sweep => {
                let mut builders: HashMap<Vec<Value>, SortedIntervalIndexBuilder> = HashMap::new();
                for (si, st) in s.iter().enumerate() {
                    builders
                        .entry(bound.right_key(st))
                        .or_default()
                        .push(st.interval(), si);
                }
                ProbeIndex::Sweep(builders.into_iter().map(|(k, b)| (k, b.finish())).collect())
            }
            OverlapJoinPlan::Hash => {
                let mut partitions: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (si, st) in s.iter().enumerate() {
                    partitions.entry(bound.right_key(st)).or_default().push(si);
                }
                ProbeIndex::Hash(partitions)
            }
            OverlapJoinPlan::NestedLoop => ProbeIndex::NestedLoop,
        })
    }

    /// Appends the windows of the probe tuple `r[ri]` to `out`, sorted by
    /// `(start, end)`: its overlapping windows, or one whole-interval
    /// unmatched window when nothing matches. Each window is written once,
    /// in the buffer its consumer reads it from.
    fn probe_into(
        &self,
        ri: usize,
        rt: &TpTuple,
        s: &TpRelation,
        bound: &BoundTheta,
        out: &mut VecDeque<Window>,
    ) {
        let from = out.len();
        let r_iv = rt.interval();
        let mut emit = |inter, si| out.push_back(Window::overlapping(inter, ri, si));
        match self {
            ProbeIndex::Sweep(partitions) => {
                if let Some(partition) = partitions.get(&bound.left_key(rt)) {
                    for (s_iv, si) in partition.overlapping(r_iv) {
                        // The sorted partition covers the equality part of θ
                        // and the temporal overlap; re-check the bound
                        // condition for its NULL semantics (NULL keys hash
                        // together but never satisfy θ).
                        if !bound.matches(rt, s.tuple(si)) {
                            continue;
                        }
                        #[expect(clippy::expect_used, reason = "index invariant")]
                        let inter = r_iv
                            .intersect(&s_iv)
                            .expect("sorted-partition candidates overlap the probe");
                        emit(inter, si);
                    }
                }
            }
            ProbeIndex::Hash(partitions) => {
                let candidates = partitions.get(&bound.left_key(rt));
                for &si in candidates.into_iter().flatten() {
                    let st = s.tuple(si);
                    if let Some(inter) = r_iv.intersect(&st.interval()) {
                        if bound.matches(rt, st) {
                            emit(inter, si);
                        }
                    }
                }
            }
            ProbeIndex::NestedLoop => {
                for (si, st) in s.iter().enumerate() {
                    if let Some(inter) = r_iv.intersect(&st.interval()) {
                        if bound.matches(rt, st) {
                            emit(inter, si);
                        }
                    }
                }
            }
        }
        if out.len() == from {
            out.push_back(Window::unmatched(r_iv, ri));
        } else {
            // The sweep plan already yields non-decreasing intersection
            // starts, so this is a near-no-op run detection; the hash and
            // nested-loop plans emit in s-index order and genuinely sort
            // here. Either way the sort is per probe group, never a global
            // re-sort of the join output. (The buffer only ever grows from
            // a cleared state, so it is already contiguous.)
            out.make_contiguous()[from..].sort_by_key(|w| (w.interval.start(), w.interval.end()));
        }
    }
}

/// The overlap join as a streaming iterator: windows come out grouped by
/// `r_idx` (in `r` index order) and sorted by `(start, end)` within each
/// group, one probe at a time. Feeding this into
/// [`LawauStream`](crate::pipeline::LawauStream) and
/// [`LawanStream`](crate::pipeline::LawanStream) pipelines the entire window
/// computation without materializing any window vector.
///
/// The two relations are held through any [`Borrow`]`<TpRelation>`: plain
/// references inside a join operator, `Arc<TpRelation>` in long-lived
/// cursors ([`crate::TpJoinStream`]) that must own their inputs.
pub struct OverlapWindowStream<R: Borrow<TpRelation>, S: Borrow<TpRelation>> {
    r: R,
    s: S,
    bound: BoundTheta,
    index: ProbeIndex,
    /// The next `r` index to probe.
    next_probe: usize,
    /// The current probe's windows when the stream is consumed as an
    /// iterator (reused across probes); moved out of the front.
    ready: VecDeque<Window>,
}

impl<R: Borrow<TpRelation>, S: Borrow<TpRelation>> OverlapWindowStream<R, S> {
    /// Creates the stream with the automatically chosen plan
    /// ([`auto_plan`]).
    pub fn new(r: R, s: S, theta: &ThetaCondition) -> Result<Self, StorageError> {
        let bound = theta.bind(r.borrow().schema(), s.borrow().schema())?;
        let plan = auto_plan(&bound);
        Self::with_plan(r, s, bound, plan)
    }

    /// Creates the stream with an explicitly chosen plan. The probe index
    /// is built here.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::PlanNotApplicable`] when a hash or sweep plan
    /// is forced but θ is not a pure equi-join.
    pub fn with_plan(
        r: R,
        s: S,
        bound: BoundTheta,
        plan: OverlapJoinPlan,
    ) -> Result<Self, StorageError> {
        let index = ProbeIndex::build(s.borrow(), &bound, plan)?;
        Ok(Self {
            r,
            s,
            bound,
            index,
            next_probe: 0,
            ready: VecDeque::new(),
        })
    }
}

impl<R: Borrow<TpRelation>, S: Borrow<TpRelation>> WindowGroups for OverlapWindowStream<R, S> {
    /// A probe *is* a group: the next `r` tuple's windows are written
    /// straight into the consumer's buffer.
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let ri = self.next_probe;
        let rt = self.r.borrow().tuples().get(ri)?;
        self.next_probe += 1;
        self.index
            .probe_into(ri, rt, self.s.borrow(), &self.bound, out);
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

    /// Canonical window order for plan-agreement comparisons (plans may
    /// legitimately order windows with identical intervals differently).
    fn canon(mut ws: Vec<Window>) -> Vec<Window> {
        ws.sort_by_key(|w| (w.r_idx, w.interval.start(), w.interval.end(), w.s_idx));
        ws
    }

    #[test]
    fn all_plans_agree() {
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let bound = theta.bind(a.schema(), b.schema()).unwrap();
        let hash = overlapping_windows_with_plan(&a, &b, &bound, OverlapJoinPlan::Hash).unwrap();
        let nl =
            overlapping_windows_with_plan(&a, &b, &bound, OverlapJoinPlan::NestedLoop).unwrap();
        let sweep = overlapping_windows_with_plan(&a, &b, &bound, OverlapJoinPlan::Sweep).unwrap();
        assert_eq!(hash, nl);
        assert_eq!(canon(sweep), canon(hash));
    }

    #[test]
    fn forced_hash_or_sweep_on_non_equi_theta_is_an_error() {
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::always().and_compare("Loc", CompareOp::Lt, "Loc");
        let bound = theta.bind(a.schema(), b.schema()).unwrap();
        for plan in [OverlapJoinPlan::Hash, OverlapJoinPlan::Sweep] {
            let err = overlapping_windows_with_plan(&a, &b, &bound, plan).unwrap_err();
            match err {
                StorageError::PlanNotApplicable { plan: p, .. } => assert_eq!(p, plan.label()),
                other => panic!("expected PlanNotApplicable, got {other:?}"),
            }
        }
        // the nested loop still runs
        assert!(overlapping_windows_with_plan(&a, &b, &bound, OverlapJoinPlan::NestedLoop).is_ok());
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

    #[test]
    fn plan_labels_and_applicability() {
        assert_eq!(OverlapJoinPlan::Sweep.to_string(), "sweep");
        assert_eq!(OverlapJoinPlan::Hash.to_string(), "hash");
        assert_eq!(OverlapJoinPlan::NestedLoop.to_string(), "nested-loop");
        assert!(OverlapJoinPlan::Sweep.requires_equi_join());
        assert!(OverlapJoinPlan::Hash.requires_equi_join());
        assert!(!OverlapJoinPlan::NestedLoop.requires_equi_join());
    }
}
