//! Property tests for morsel-driven work stealing: under adversarial key
//! skew (one hot key holding ~90% of the tuples — the distribution that
//! capped the old static partitioning at ~1.1x), every TP join kind and
//! every TP set operation executed with stolen morsels at P ∈ {2, 4, 7}
//! is **byte-identical** to the serial pipeline — same tuples in the same
//! order, same schema, same relation name.
//!
//! The hot relation is sized past `MORSEL_MAX` (1024), so the hot key is
//! genuinely chopped across several morsels and the merge-by-probe-index
//! step is exercised across worker boundaries, not just within one.

use proptest::prelude::*;
use tpdb::core::{
    tp_difference, tp_intersection, tp_join, tp_join_parallel, tp_set_op_parallel,
    tp_set_op_parallel_with_engine_and_plan, tp_union, OverlapJoinPlan, ThetaCondition, TpJoinKind,
    TpSetOpKind, TpSetOpStream,
};
use tpdb::lineage::{Lineage, ProbabilityEngine, VarId};
use tpdb::storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::temporal::Interval;

const JOIN_KINDS: [TpJoinKind; 5] = [
    TpJoinKind::Inner,
    TpJoinKind::LeftOuter,
    TpJoinKind::RightOuter,
    TpJoinKind::FullOuter,
    TpJoinKind::Anti,
];

const SET_OPS: [TpSetOpKind; 3] = [
    TpSetOpKind::Union,
    TpSetOpKind::Intersection,
    TpSetOpKind::Difference,
];

const DEGREES: [usize; 3] = [2, 4, 7];

/// Builds a duplicate-free single-column relation with `hot` tuples of the
/// hot key 0 and `cold[k]` tuples of key `k + 1`, interleaved so key
/// groups are not contiguous in index order. Per-key intervals advance on
/// a stride so same-key tuples never overlap (the TP duplicate-free
/// constraint) without an O(n²) scan; `stagger` shifts each key's phase so
/// cross-relation overlap patterns vary per case.
fn skewed_relation(
    name: &str,
    var_offset: u32,
    hot: usize,
    cold: &[usize],
    stagger: i64,
) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    let mut remaining: Vec<usize> = std::iter::once(hot).chain(cold.iter().copied()).collect();
    let mut emitted = vec![0i64; remaining.len()];
    let mut var = var_offset;
    loop {
        let mut pushed = false;
        for (k, left) in remaining.iter_mut().enumerate() {
            if *left == 0 {
                continue;
            }
            *left -= 1;
            pushed = true;
            // Stride 3, length 2: same-key intervals are disjoint, but
            // cross-key (and cross-relation, via stagger) overlaps abound.
            let start = emitted[k] * 3 + stagger * (k as i64 + 1);
            emitted[k] += 1;
            rel.push(TpTuple::new(
                vec![Value::Int(k as i64)],
                Lineage::var(VarId(var)),
                Interval::new(start, start + 2),
                0.15 + 0.08 * f64::from(var % 10),
            ))
            .unwrap();
            var += 1;
        }
        if !pushed {
            return rel;
        }
    }
}

fn assert_byte_identical(serial: &TpRelation, stolen: &TpRelation, context: &str) {
    assert_eq!(stolen.name(), serial.name(), "{context}: relation name");
    assert_eq!(stolen.schema(), serial.schema(), "{context}: schema");
    assert_eq!(stolen.tuples(), serial.tuples(), "{context}: tuples");
}

/// Every join kind and set operation, serial vs stolen at each degree —
/// the set operations additionally under a forced hash plan, whose
/// partitions are unsorted (the per-probe sort runs inside each morsel).
fn assert_stolen_equals_serial(r: &TpRelation, s: &TpRelation) {
    let theta = ThetaCondition::column_equals("k", "k");
    for kind in JOIN_KINDS {
        let serial = tp_join(r, s, &theta, kind).unwrap();
        for degree in DEGREES {
            let stolen = tp_join_parallel(r, s, &theta, kind, degree).unwrap();
            assert_byte_identical(&serial, &stolen, &format!("{kind:?} join P={degree}"));
        }
    }
    for kind in SET_OPS {
        let serial = match kind {
            TpSetOpKind::Union => tp_union(r, s).unwrap(),
            TpSetOpKind::Intersection => tp_intersection(r, s).unwrap(),
            TpSetOpKind::Difference => tp_difference(r, s).unwrap(),
        };
        for degree in DEGREES {
            let stolen = tp_set_op_parallel(r, s, kind, degree).unwrap();
            assert_byte_identical(&serial, &stolen, &format!("{kind:?} P={degree}"));
        }
        let hash = Some(OverlapJoinPlan::Hash);
        let serial = TpSetOpStream::with_plan(r, s, kind, hash)
            .unwrap()
            .collect_relation();
        let mut engine = ProbabilityEngine::new();
        r.register_probabilities(&mut engine);
        s.register_probabilities(&mut engine);
        for degree in [2, 4] {
            let stolen =
                tp_set_op_parallel_with_engine_and_plan(r, s, kind, hash, degree, &engine).unwrap();
            assert_byte_identical(&serial, &stolen, &format!("{kind:?} hash P={degree}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The 90%-hot-key distribution: r's hot key exceeds `MORSEL_MAX`, so
    /// it is chopped across morsels; s is small but key-overlapping, so
    /// every window kind (overlapping, unmatched, negating) occurs.
    #[test]
    fn stolen_execution_is_byte_identical_under_adversarial_skew(
        hot in 1100usize..1400,
        cold in proptest::collection::vec(2usize..40, 2..5),
        s_hot in 4usize..16,
        s_cold in proptest::collection::vec(1usize..8, 2..5),
        stagger in 0i64..7,
    ) {
        let r = skewed_relation("r", 0, hot, &cold, 0);
        let s = skewed_relation("s", 100_000, s_hot, &s_cold, stagger);
        assert_stolen_equals_serial(&r, &s);
    }

    /// Skew on the *build* side instead: the probe side stays small (often
    /// a single morsel, trimming the worker count), while the shared probe
    /// index carries the hot key.
    #[test]
    fn stolen_execution_survives_a_skewed_build_side(
        r_hot in 8usize..40,
        r_cold in proptest::collection::vec(1usize..10, 1..4),
        s_hot in 300usize..600,
        stagger in 0i64..5,
    ) {
        let r = skewed_relation("r", 0, r_hot, &r_cold, stagger);
        let s = skewed_relation("s", 100_000, s_hot, &[7, 3], 1);
        assert_stolen_equals_serial(&r, &s);
    }
}

// ---- deterministic regressions -------------------------------------------

#[test]
fn empty_and_tiny_inputs_take_the_serial_fallback_unchanged() {
    let empty = skewed_relation("r", 0, 0, &[], 0);
    let tiny = skewed_relation("s", 100_000, 3, &[2], 1);
    assert_stolen_equals_serial(&empty, &tiny);
    assert_stolen_equals_serial(&tiny.renamed("r"), &empty.renamed("s"));
}

#[test]
fn the_hot_key_case_really_crosses_the_morsel_cap() {
    // Guards the premise of the proptest above: 1100+ hot tuples must not
    // fit one morsel (MORSEL_MAX = 1024), or the skew test would silently
    // degenerate to single-worker execution.
    let r = skewed_relation("r", 0, 1100, &[10], 0);
    assert!(r.len() > 1024);
}
