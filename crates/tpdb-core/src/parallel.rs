//! Morsel-driven work-stealing execution of the TP join and set-operation
//! pipelines.
//!
//! The streaming NJ pipeline (overlap join → LAWAU → LAWAN → output
//! formation) treats every `r` tuple's window group independently, and the
//! keyed overlap-join plans (sweep, hash) confine each probe to the build
//! partition of its equi-join key. Together these make the pipeline
//! *morselizable*: build the probe index over the full build side **once**,
//! share it read-only across workers, cut the probe side into small
//! key-group-respecting morsels ([`crate::morsel::MorselPlan`]), and let
//! `P` scoped workers steal morsels from a shared injector until the queue
//! is drained. A worker that draws a cheap morsel immediately steals the
//! next one, so skewed key distributions (meteo's 40 keys, or one key
//! holding 90% of the tuples) no longer cap the speedup the way static
//! partition-per-worker execution did.
//!
//! ## Determinism
//!
//! Parallel execution is **byte-identical** to serial execution:
//!
//! * Every morsel is claimed by exactly one worker, so each `r` tuple's
//!   complete window group — and therefore each output tuple — is produced
//!   by exactly one worker, by the same code the serial pipeline runs
//!   against the same shared index.
//! * Workers tag output tuples with the global index of the originating
//!   positive tuple. The serial pipeline emits output grouped by that index
//!   in ascending order, so a stable merge on it reconstructs the serial
//!   order exactly.
//! * Probabilities are computed per worker by a cloned
//!   [`ProbabilityEngine`]; the engine is a pure, deterministic function of
//!   the registered marginals, so the floating-point results are identical
//!   bit-for-bit regardless of which thread computes them.
//!
//! Joins and set operations are the same driver ([`run_parallel`]): every
//! pass of the operator's row in [`crate::optable`] becomes one
//! work-stealing pass whose outputs merge by probe index.
//!
//! ## Fallback
//!
//! The nested-loop plan compares every pair of tuples and cannot shard by
//! key. Requesting `parallelism > 1` for a join that resolves to a
//! nested-loop plan (a non-equi θ) is not an error: the join runs serially
//! — the same pass runner with one morsel spanning every probe — and
//! [`parallel_degree`], which the query layer's `EXPLAIN` uses, reports
//! degree 1.

use crate::join::form_output_tuple_interned;
use crate::morsel::{scope_workers, Injector, MorselPlan};
use crate::optable::{PassSpec, TpOp};
use crate::overlap::{
    auto_plan, interned_lineages, OverlapJoinPlan, OverlapWindowStream, ProbeIndex,
};
use crate::setops::{all_columns_equal, TpSetOpKind};
use crate::stream::{registered_engine, Pipe, TpJoinStream};
use crate::theta::{BoundTheta, ThetaCondition};
use crate::TpJoinKind;
use std::sync::Arc;
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{StorageError, TpRelation, TpTuple};

/// The default degree of parallelism: the number of hardware threads the
/// host exposes (1 when it cannot be determined).
#[must_use]
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Upper bound on the degree of parallelism. A requested degree is clamped
/// here instead of being handed verbatim to the OS: one worker maps to one
/// `std::thread`, and an absurd request (`PARALLEL 500000`) must degrade to
/// a bounded worker pool, not abort the query when thread creation fails.
pub const MAX_PARALLELISM: usize = 256;

/// The degree of parallelism a join will actually execute with: the
/// requested degree (clamped to `1..=`[`MAX_PARALLELISM`]) for shardable
/// (keyed) plans, 1 for the nested loop. `EXPLAIN` reports this value, so
/// what the plan output claims is what the executor does. The driver may
/// still run *fewer* workers when the data produces fewer morsels than the
/// degree — the surplus workers would find the injector already drained.
#[must_use]
pub fn parallel_degree(plan: OverlapJoinPlan, requested: usize) -> usize {
    if plan.is_shardable() {
        requested.clamp(1, MAX_PARALLELISM)
    } else {
        1
    }
}

/// Output tuples tagged with the global index of the positive tuple that
/// produced them (the merge key).
type TaggedTuples = Vec<(usize, TpTuple)>;

/// Merges per-worker `(positive index, tuple)` streams back into the serial
/// emission order. Morsel index sets are disjoint and each morsel is
/// processed by exactly one worker, so within one probe index all tuples
/// sit in a single vector in their emission order — a stable sort on the
/// index reproduces the serial order exactly.
fn merge_in_index_order(parts: Vec<TaggedTuples>, out: &mut TpRelation) {
    let mut all: Vec<(usize, TpTuple)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(idx, _)| *idx);
    for (_, tuple) in all {
        out.push_unchecked(tuple);
    }
}

/// The index + morsel + injector scaffold of one parallel pass: builds the
/// probe index over the full build side `neg` **once** (shared read-only —
/// no per-shard rebuild), cuts `pos`'s probe indices into morsels, and runs
/// up to `degree` scoped workers. Each worker is handed the shared index
/// and the stream of morsels it steals; the per-worker results are returned
/// in worker order.
fn steal_morsels<T, F>(
    pos: &TpRelation,
    neg: &TpRelation,
    bound: &BoundTheta,
    plan: OverlapJoinPlan,
    degree: usize,
    work: F,
) -> Result<Vec<T>, StorageError>
where
    T: Send,
    F: Fn(&Arc<ProbeIndex>, &mut dyn Iterator<Item = &[usize]>) -> T + Sync,
{
    let index = Arc::new(ProbeIndex::build(neg, bound, plan)?);
    let morsels = MorselPlan::build(pos, bound);
    let injector = Injector::new(morsels.morsel_count());
    // Surplus workers would find the injector already drained.
    let workers = degree.min(morsels.morsel_count());
    Ok(scope_workers(workers, |_| {
        let mut stolen = std::iter::from_fn(|| injector.steal().map(|m| morsels.morsel(m)));
        work(&index, &mut stolen)
    }))
}

/// One work-stealing pass of the window pipeline: each stolen morsel of
/// `pos`'s probe indices runs the pass of `spec` — the same [`Pipe`] and
/// output formation as the serial runner — against the shared build-side
/// index over `neg`. Results are returned per worker, tagged with the
/// global probe index for [`merge_in_index_order`].
fn run_pass(
    pos: &TpRelation,
    neg: &TpRelation,
    bound: &BoundTheta,
    plan: OverlapJoinPlan,
    spec: &PassSpec,
    degree: usize,
    engine: &ProbabilityEngine,
) -> Result<Vec<TaggedTuples>, StorageError> {
    steal_morsels(pos, neg, bound, plan, degree, |index, morsels| {
        // Per-worker state, paid once per worker (not per morsel): a cloned
        // engine, both lineage columns interned into it and certified, the
        // span buffer.
        let mut engine = engine.clone();
        let pos_lins = interned_lineages(pos, engine.interner_mut());
        let neg_lins = interned_lineages(neg, engine.interner_mut());
        let cert = engine.certify_columns(&pos_lins, &neg_lins);
        let mut out: TaggedTuples = Vec::new();
        let mut ops = Vec::new();
        for probes in morsels {
            let wo = OverlapWindowStream::over_index(
                pos,
                neg,
                bound.clone(),
                Arc::clone(index),
                Some(probes),
                Arc::clone(&pos_lins),
                Arc::clone(&neg_lins),
            );
            let mut pipe = Pipe::over(wo, pos, spec.depth);
            while let Some(w) = pipe.next_with(engine.interner(), &mut ops) {
                let cert = cert.as_ref();
                let tuple = form_output_tuple_interned(&w, pos, neg, spec, &ops, cert, &mut engine);
                if let Some(t) = tuple {
                    out.push((w.r_idx, t));
                }
            }
        }
        out
    })
}

/// The morsel-driven driver behind [`tp_join_parallel`] and
/// [`tp_set_op_parallel`]: runs every pass of `op` as a work-stealing job
/// and merges each pass's output back into the serial emission order.
///
/// Everything that cannot (or should not) shard runs the serial stream
/// instead: a requested degree of 1, a non-shardable plan, or a keyed plan
/// forced on a non-equi θ — for the latter the serial path returns the same
/// `PlanNotApplicable` error the serial contract promises.
fn run_parallel(
    op: TpOp,
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    plan: Option<OverlapJoinPlan>,
    parallelism: usize,
    engine: &ProbabilityEngine,
) -> Result<TpRelation, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;
    let plan = plan.unwrap_or_else(|| auto_plan(&bound));
    let degree = parallel_degree(plan, parallelism);
    if degree <= 1 || !bound.is_equi_join() {
        let stream = TpJoinStream::for_op(r, s, op, theta, Some(plan), engine.clone())?;
        return Ok(stream.collect_relation());
    }
    let (name, schema) = op.output(r, s);
    let mut out = TpRelation::new(&name, schema);
    for spec in op.passes() {
        let parts = if spec.flipped {
            let flipped = theta.flipped().bind(s.schema(), r.schema())?;
            run_pass(s, r, &flipped, plan, spec, degree, engine)?
        } else {
            run_pass(r, s, &bound, plan, spec, degree, engine)?
        };
        merge_in_index_order(parts, &mut out);
    }
    Ok(out)
}

/// [`crate::tp_join`] executed with morsel-driven work-stealing
/// parallelism. Base-tuple probabilities are derived from the two inputs;
/// see [`tp_join_parallel_with_engine_and_plan`] for the full-control
/// variant.
///
/// `parallelism` is the requested worker count; `1` (or a nested-loop plan)
/// means serial execution. The result is byte-identical to the serial join.
///
/// ```
/// use tpdb_core::{tp_join, tp_join_parallel, ThetaCondition, TpJoinKind};
///
/// let (a, b) = tpdb_datagen::booking_example();
/// let theta = ThetaCondition::column_equals("Loc", "Loc");
/// let serial = tp_join(&a, &b, &theta, TpJoinKind::LeftOuter).unwrap();
/// let parallel = tp_join_parallel(&a, &b, &theta, TpJoinKind::LeftOuter, 4).unwrap();
/// assert_eq!(parallel, serial);
/// ```
pub fn tp_join_parallel(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    parallelism: usize,
) -> Result<TpRelation, StorageError> {
    tp_join_parallel_with_plan(r, s, theta, kind, None, parallelism)
}

/// [`tp_join_parallel`] with an explicitly chosen overlap-join plan (`None`
/// lets the engine pick: sweep for equi-joins, nested loop otherwise).
///
/// # Errors
///
/// Returns [`StorageError::PlanNotApplicable`] when a hash or sweep plan is
/// forced but θ is not a pure equi-join — the same contract as the serial
/// [`crate::tp_join_with_plan`].
pub fn tp_join_parallel_with_plan(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    plan: Option<OverlapJoinPlan>,
    parallelism: usize,
) -> Result<TpRelation, StorageError> {
    let engine = registered_engine(r, s);
    tp_join_parallel_with_engine_and_plan(r, s, theta, kind, plan, parallelism, &engine)
}

/// The morsel-driven parallel TP join with an explicit probability engine
/// (cloned into every worker) and an optional forced overlap-join plan.
///
/// Falls back to the serial pipeline when the effective degree is 1: the
/// requested `parallelism` is 1, or the (resolved) plan is a nested loop,
/// which cannot shard by key.
pub fn tp_join_parallel_with_engine_and_plan(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    plan: Option<OverlapJoinPlan>,
    parallelism: usize,
    engine: &ProbabilityEngine,
) -> Result<TpRelation, StorageError> {
    run_parallel(TpOp::Join(kind), r, s, theta, plan, parallelism, engine)
}

/// A TP set operation executed with morsel-driven work-stealing
/// parallelism. Base-tuple probabilities are derived from the two inputs;
/// see [`tp_set_op_parallel_with_engine_and_plan`] for the full-control
/// variant.
///
/// The result is byte-identical to the streaming [`crate::TpSetOpStream`] (and
/// therefore to the one-shot [`crate::tp_union`] /
/// [`crate::tp_intersection`] / [`crate::tp_difference`]):
///
/// ```
/// use tpdb_core::{tp_set_op_parallel, tp_union, TpSetOpKind};
///
/// let (a, b) = tpdb_datagen::booking_example();
/// let serial = tp_union(&a, &b).unwrap();
/// let parallel = tp_set_op_parallel(&a, &b, TpSetOpKind::Union, 4).unwrap();
/// assert_eq!(parallel, serial);
/// ```
pub fn tp_set_op_parallel(
    r: &TpRelation,
    s: &TpRelation,
    kind: TpSetOpKind,
    parallelism: usize,
) -> Result<TpRelation, StorageError> {
    let engine = registered_engine(r, s);
    tp_set_op_parallel_with_engine_and_plan(r, s, kind, None, parallelism, &engine)
}

/// The morsel-driven parallel TP set operation with an explicit probability
/// engine (cloned into every worker) and an optional forced overlap-join
/// plan.
///
/// Difference and intersection run the anti/inner join pass; the union
/// runs its two window passes (r-vs-s at full pipeline depth, s-vs-r to
/// LAWAU) as work-stealing morsel jobs — the serial
/// [`crate::TpSetOpStream`] passes, morsel by morsel. Falls back to the
/// streaming set operation when the effective degree is 1 (requested
/// `parallelism` of 1, or a forced nested-loop plan).
///
/// # Errors
///
/// [`StorageError::ArityMismatch`] / [`StorageError::UnionIncompatible`]
/// when the inputs are not union-compatible.
pub fn tp_set_op_parallel_with_engine_and_plan(
    r: &TpRelation,
    s: &TpRelation,
    kind: TpSetOpKind,
    plan: Option<OverlapJoinPlan>,
    parallelism: usize,
    engine: &ProbabilityEngine,
) -> Result<TpRelation, StorageError> {
    let theta = all_columns_equal(r, s)?;
    run_parallel(TpOp::SetOp(kind), r, s, &theta, plan, parallelism, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::booking_relations;
    use crate::theta::CompareOp;
    use crate::tp_join_with_plan;
    use crate::{tp_difference, tp_intersection, tp_union, TpSetOpStream};

    const KINDS: [TpJoinKind; 5] = [
        TpJoinKind::Inner,
        TpJoinKind::Anti,
        TpJoinKind::LeftOuter,
        TpJoinKind::RightOuter,
        TpJoinKind::FullOuter,
    ];

    const SET_OPS: [TpSetOpKind; 3] = [
        TpSetOpKind::Union,
        TpSetOpKind::Intersection,
        TpSetOpKind::Difference,
    ];

    fn theta() -> ThetaCondition {
        ThetaCondition::column_equals("Loc", "Loc")
    }

    #[test]
    fn parallel_equals_serial_for_every_kind_and_degree() {
        let (a, b, _) = booking_relations();
        for kind in KINDS {
            let serial = crate::tp_join(&a, &b, &theta(), kind).unwrap();
            for degree in [1, 2, 3, 8] {
                let parallel = tp_join_parallel(&a, &b, &theta(), kind, degree).unwrap();
                assert_eq!(parallel, serial, "kind = {kind:?}, degree = {degree}");
            }
        }
    }

    #[test]
    fn parallel_respects_forced_plans() {
        let (a, b, _) = booking_relations();
        for plan in [OverlapJoinPlan::Sweep, OverlapJoinPlan::Hash] {
            let serial =
                tp_join_with_plan(&a, &b, &theta(), TpJoinKind::FullOuter, Some(plan)).unwrap();
            let parallel =
                tp_join_parallel_with_plan(&a, &b, &theta(), TpJoinKind::FullOuter, Some(plan), 4)
                    .unwrap();
            assert_eq!(parallel, serial, "plan = {plan}");
        }
    }

    #[test]
    fn non_equi_theta_falls_back_to_serial() {
        // θ = true resolves to the nested-loop plan, which cannot shard:
        // the join must run (serially) instead of panicking.
        let (a, b, _) = booking_relations();
        let always = ThetaCondition::always();
        let serial = crate::tp_join(&a, &b, &always, TpJoinKind::LeftOuter).unwrap();
        let parallel = tp_join_parallel(&a, &b, &always, TpJoinKind::LeftOuter, 4).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel_degree(OverlapJoinPlan::NestedLoop, 4), 1);
    }

    #[test]
    fn forced_keyed_plan_on_non_equi_theta_is_still_an_error() {
        let (a, b, _) = booking_relations();
        let non_equi = ThetaCondition::always().and_compare("Loc", CompareOp::Lt, "Loc");
        let err = tp_join_parallel_with_plan(
            &a,
            &b,
            &non_equi,
            TpJoinKind::Inner,
            Some(OverlapJoinPlan::Sweep),
            4,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::PlanNotApplicable { .. }));
    }

    #[test]
    fn degree_exceeding_morsel_count_trims_the_workers() {
        let (a, b, _) = booking_relations();
        // The tiny booking input fits one morsel; the driver runs one
        // worker instead of spawning 15 idle ones — and stays correct.
        let bound = theta().bind(a.schema(), b.schema()).unwrap();
        assert_eq!(MorselPlan::build(&a, &bound).morsel_count(), 1);
        let serial = crate::tp_join(&a, &b, &theta(), TpJoinKind::FullOuter).unwrap();
        let parallel = tp_join_parallel(&a, &b, &theta(), TpJoinKind::FullOuter, 16).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn absurd_degrees_are_clamped_not_crashed() {
        let (a, b, _) = booking_relations();
        assert_eq!(
            parallel_degree(OverlapJoinPlan::Sweep, 500_000),
            MAX_PARALLELISM
        );
        // Executes with a bounded worker pool instead of asking the OS for
        // half a million threads.
        let serial = crate::tp_join(&a, &b, &theta(), TpJoinKind::LeftOuter).unwrap();
        let parallel = tp_join_parallel(&a, &b, &theta(), TpJoinKind::LeftOuter, 500_000).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn empty_inputs() {
        let (a, b, _) = booking_relations();
        let empty_a = TpRelation::new("a", a.schema().clone());
        let empty_b = TpRelation::new("b", b.schema().clone());
        assert_eq!(
            tp_join_parallel(&empty_a, &b, &theta(), TpJoinKind::LeftOuter, 4)
                .unwrap()
                .len(),
            0
        );
        let left_only = tp_join_parallel(&a, &empty_b, &theta(), TpJoinKind::LeftOuter, 4).unwrap();
        assert_eq!(
            left_only,
            crate::tp_join(&a, &empty_b, &theta(), TpJoinKind::LeftOuter).unwrap()
        );
        assert_eq!(
            tp_join_parallel(&empty_a, &empty_b, &theta(), TpJoinKind::FullOuter, 4)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn set_op_parallel_equals_serial_for_every_kind_and_degree() {
        // booking a (Name, Loc) and b (Hotel, Loc) are union-compatible
        // positionally: both are (Str, Str).
        let (a, b, _) = booking_relations();
        for kind in SET_OPS {
            let serial = match kind {
                TpSetOpKind::Union => tp_union(&a, &b).unwrap(),
                TpSetOpKind::Intersection => tp_intersection(&a, &b).unwrap(),
                TpSetOpKind::Difference => tp_difference(&a, &b).unwrap(),
            };
            for degree in [1, 2, 4, 7] {
                let parallel = tp_set_op_parallel(&a, &b, kind, degree).unwrap();
                assert_eq!(parallel, serial, "kind = {kind:?}, degree = {degree}");
            }
        }
    }

    #[test]
    fn set_op_parallel_with_forced_nested_loop_falls_back_to_serial() {
        let (a, b, _) = booking_relations();
        for kind in SET_OPS {
            let serial = TpSetOpStream::with_plan(&a, &b, kind, Some(OverlapJoinPlan::NestedLoop))
                .unwrap()
                .collect_relation();
            let mut engine = ProbabilityEngine::new();
            a.register_probabilities(&mut engine);
            b.register_probabilities(&mut engine);
            let parallel = tp_set_op_parallel_with_engine_and_plan(
                &a,
                &b,
                kind,
                Some(OverlapJoinPlan::NestedLoop),
                4,
                &engine,
            )
            .unwrap();
            assert_eq!(parallel, serial, "kind = {kind:?}");
        }
    }

    #[test]
    fn set_op_parallel_rejects_union_incompatible_inputs() {
        let (a, _, _) = booking_relations();
        let skinny = TpRelation::new(
            "s",
            tpdb_storage::Schema::tp(&[("x", tpdb_storage::DataType::Str)]),
        );
        let err = tp_set_op_parallel(&a, &skinny, TpSetOpKind::Union, 4).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
        assert_eq!(parallel_degree(OverlapJoinPlan::Sweep, 0), 1);
        assert_eq!(parallel_degree(OverlapJoinPlan::Sweep, 6), 6);
        assert_eq!(parallel_degree(OverlapJoinPlan::Hash, 3), 3);
    }
}
