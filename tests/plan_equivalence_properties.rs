//! Property tests: NJ ≡ TA on adversarial synthetic data, for every TP join
//! kind under four θ shapes. The overlap join has one plan: it partitions
//! `s` on θ's equalities and checks θ's other comparisons per candidate. So
//! the shapes are what vary: the pure equi-join `k = k` (no residual, no
//! re-check), an equi-join with a residual `k = k ∧ k <= k`, a residual
//! alone (`k < k`, one partition) and θ = `true`.
//!
//! The generators deliberately produce the inputs that stress the sweep
//! join and the window algorithms most:
//!
//! * **dense same-key partitions** — only two distinct join keys, so every
//!   probe scans a crowded sorted partition,
//! * **shared interval endpoints** — starts drawn from a small grid, so
//!   many windows open/close at the same boundary,
//! * **single-point intervals** `[t, t+1)` — the smallest representable
//!   windows, adjacent to everything around them,
//! * **long-lived tuples** — one `s` tuple per key spanning the whole
//!   history, which every probe of that key scans.
//!
//! Beside the single-key join, the shapes are held to TA on keys that stress
//! how the sweep index hashes and compares them: two-column keys, NULL keys
//! (which hash together but never match), an `Int` key against a `Float`
//! key around 2^53, where rounding would equate distinct integers, and the
//! signed zeros and NaN. The sweep does not re-check θ's equalities on the
//! tuples of a partition, so these cases are what hold its partition key
//! to θ.

use proptest::prelude::*;
use tpdb::core::{tp_join, CompareOp, ThetaCondition, TpJoinKind};
use tpdb::lineage::{Lineage, VarId};
use tpdb::storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb::ta::ta_join;
use tpdb::temporal::Interval;

/// The four θ shapes over the key columns `keys`: the pure equi-join on all
/// of them, an equality on the first with a residual `<=` on the last, a
/// residual `<` on the last alone, and θ = `true`.
fn shapes(keys: &[&str]) -> [(&'static str, ThetaCondition); 4] {
    let (first, last) = (keys[0], keys[keys.len() - 1]);
    let equi = keys.iter().fold(ThetaCondition::always(), |theta, k| {
        theta.and_compare(k, CompareOp::Eq, k)
    });
    let keyed = ThetaCondition::column_equals(first, first);
    [
        ("equi", equi),
        (
            "equi + residual",
            keyed.and_compare(last, CompareOp::Le, last),
        ),
        (
            "residual",
            ThetaCondition::always().and_compare(last, CompareOp::Lt, last),
        ),
        ("true", ThetaCondition::always()),
    ]
}

const KINDS: [TpJoinKind; 5] = [
    TpJoinKind::Inner,
    TpJoinKind::LeftOuter,
    TpJoinKind::Anti,
    TpJoinKind::RightOuter,
    TpJoinKind::FullOuter,
];

/// Builds a duplicate-free single-key relation from raw `(key, start,
/// duration)` rows, skipping rows that would overlap an existing same-key
/// interval (the TP duplicate-free constraint). Probabilities vary per
/// tuple so that the probability engine is stressed too.
fn build(name: &str, var_offset: u32, rows: &[(i64, i64, i64)]) -> TpRelation {
    let rows: Vec<_> = rows
        .iter()
        .map(|&(key, start, duration)| (vec![Value::Int(key)], start, duration))
        .collect();
    build_facts(name, var_offset, &[("k", DataType::Int)], &rows)
}

/// [`build`] over any columns: one tuple per `(facts, start, duration)` row,
/// skipping rows that would overlap an earlier tuple with equal facts.
fn build_facts(
    name: &str,
    var_offset: u32,
    columns: &[(&str, DataType)],
    rows: &[(Vec<Value>, i64, i64)],
) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(columns));
    let mut var = var_offset;
    for (facts, start, duration) in rows {
        let interval = Interval::new(*start, *start + *duration);
        if rel
            .iter()
            .any(|t| t.facts() == facts && t.interval().overlaps(&interval))
        {
            continue;
        }
        let prob = 0.15 + 0.08 * f64::from(var % 10);
        rel.push(TpTuple::new(
            facts.clone(),
            Lineage::var(VarId(var)),
            interval,
            prob,
        ))
        .unwrap();
        var += 1;
    }
    rel
}

/// Canonical form of a join result: facts, interval and probability rounded
/// to 1e-9, sorted. Lineage *syntax* may legitimately differ between the
/// systems; semantics — and therefore probabilities — may not.
fn canon(rel: &TpRelation) -> Vec<(Vec<String>, i64, i64, i64)> {
    let mut out: Vec<(Vec<String>, i64, i64, i64)> = rel
        .iter()
        .map(|t| {
            (
                t.facts().iter().map(|v| v.to_string()).collect(),
                t.interval().start(),
                t.interval().end(),
                (t.probability() * 1e9).round() as i64,
            )
        })
        .collect();
    out.sort();
    out
}

/// NJ equals TA under θ for every join kind.
fn assert_matches_ta(r: &TpRelation, s: &TpRelation, name: &str, theta: &ThetaCondition) {
    for kind in KINDS {
        let ta = canon(&ta_join(r, s, theta, kind).unwrap());
        let nj = canon(&tp_join(r, s, theta, kind).unwrap());
        assert_eq!(
            nj, ta,
            "NJ and TA disagree on the {kind:?} join under {name} θ = {theta} of r={r} s={s}"
        );
    }
}

/// Every θ shape over `keys` equals TA for every join kind.
fn assert_shapes_match_ta(r: &TpRelation, s: &TpRelation, keys: &[&str]) {
    for (name, theta) in shapes(keys) {
        assert_matches_ta(r, s, name, &theta);
    }
}

/// Dense keys (only 2 distinct values), starts on a small grid (shared
/// endpoints) and durations skewed toward 1 (single-point intervals).
fn adversarial_rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec(
        (
            0i64..2,
            0i64..10,
            prop_oneof![Just(1i64), Just(1i64), Just(1i64), 1i64..5],
        ),
        1..16,
    )
}

/// Rows over `(k, k2)` with either key NULL now and then; `build_facts`
/// keeps them duplicate-free.
fn two_key_rows(nulls: bool) -> impl Strategy<Value = Vec<(Vec<Value>, i64, i64)>> {
    let key = move || {
        let keys = if nulls { 0i64..3 } else { 0i64..2 };
        keys.prop_map(|k| if k == 2 { Value::Null } else { Value::Int(k) })
    };
    proptest::collection::vec(
        (key(), key(), 0i64..10, 1i64..4).prop_map(|(k, k2, start, d)| (vec![k, k2], start, d)),
        1..12,
    )
}

fn two_key_relation(name: &str, var_offset: u32, rows: &[(Vec<Value>, i64, i64)]) -> TpRelation {
    let columns = [("k", DataType::Int), ("k2", DataType::Int)];
    build_facts(name, var_offset, &columns, rows)
}

/// Relations over `(k, v)` from adversarial rows, `v` = `(start + d) % 2`,
/// with one more `s` tuple per key of either side: `(key, 2)`, valid over
/// the whole history and a little beyond. Its facts differ from every
/// other tuple's, so `s` stays duplicate-free. The residual `v <= v` holds
/// for every long-lived tuple and for some of the others.
fn with_long_lived(rr: &[(i64, i64, i64)], ss: &[(i64, i64, i64)]) -> (TpRelation, TpRelation) {
    let columns = [("k", DataType::Int), ("v", DataType::Int)];
    let facts = |rows: &[(i64, i64, i64)]| -> Vec<(Vec<Value>, i64, i64)> {
        let fact = |&(k, start, d): &(i64, i64, i64)| {
            (vec![Value::Int(k), Value::Int((start + d) % 2)], start, d)
        };
        rows.iter().map(fact).collect()
    };
    let mut s_rows = facts(ss);
    let all = || rr.iter().chain(ss);
    let first = all().map(|&(_, start, _)| start).min().unwrap_or(0) - 1;
    let last = all().map(|&(_, start, d)| start + d).max().unwrap_or(0) + 1;
    let mut keys: Vec<i64> = all().map(|&(k, _, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    s_rows.extend(
        keys.into_iter()
            .map(|k| (vec![Value::Int(k), Value::Int(2)], first, last - first)),
    );
    let r = build_facts("r", 0, &columns, &facts(rr));
    (r, build_facts("s", 1000, &columns, &s_rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A two-column key: the sweep partitions on `(k, k2)`, or on `k` with
    /// the residual `k2 <= k2`.
    #[test]
    fn a_two_column_key_runs_every_plan_as_ta(rr in two_key_rows(false), ss in two_key_rows(false)) {
        let r = two_key_relation("r", 0, &rr);
        let s = two_key_relation("s", 1000, &ss);
        assert_shapes_match_ta(&r, &s, &["k", "k2"]);
    }

    /// NULL keys on either side share a sweep partition but never match,
    /// and a NULL never satisfies a residual.
    #[test]
    fn null_keys_never_match_under_any_plan(rr in two_key_rows(true), ss in two_key_rows(true)) {
        let r = two_key_relation("r", 0, &rr);
        let s = two_key_relation("s", 1000, &ss);
        // The column of an inner-join row (r's, then s's) a θ column names.
        let column = |name: &str, side: usize| usize::from(name == "k2") + 2 * side;
        for keys in [&["k"][..], &["k", "k2"][..]] {
            assert_shapes_match_ta(&r, &s, keys);
            for (name, theta) in shapes(keys) {
                let inner = tp_join(&r, &s, &theta, TpJoinKind::Inner).unwrap();
                let compared: Vec<usize> = theta.comparisons().iter()
                    .flat_map(|(l, _, r)| [column(l, 0), column(r, 1)])
                    .collect();
                let non_null = |t: &TpTuple| compared.iter().all(|&i| !t.fact(i).is_null());
                prop_assert!(inner.iter().all(non_null), "{} θ = {}: {}", name, theta, inner);
            }
        }
    }

    #[test]
    fn nj_equals_ta_under_every_theta_shape(rr in adversarial_rows(), ss in adversarial_rows()) {
        let r = build("r", 0, &rr);
        let s = build("s", 1000, &ss);
        assert_shapes_match_ta(&r, &s, &["k"]);
    }

    /// A long-lived `s` tuple per key: every probe of the key scans it, and
    /// it bounds the partition's scan start (`start − max_duration`).
    #[test]
    fn long_lived_tuples_run_as_ta(rr in adversarial_rows(), ss in adversarial_rows()) {
        let (r, s) = with_long_lived(&rr, &ss);
        let equi = ThetaCondition::column_equals("k", "k");
        let residual = equi.clone().and_compare("v", CompareOp::Le, "v");
        assert_matches_ta(&r, &s, "equi", &equi);
        assert_matches_ta(&r, &s, "equi + residual", &residual);
    }
}

// ---- deterministic adversarial regressions --------------------------------

#[test]
fn an_int_key_matches_a_float_key_only_when_it_is_exactly_equal() {
    // θ binding does not check types: `r.k` is an Int, `s.k` a Float. Around
    // 2^53 distinct integers round to one float, yet only 2^53 itself
    // equals 2^53.0, whichever θ shape or system runs the join.
    let two_53 = 1i64 << 53;
    let ints = [two_53 - 1, two_53, two_53 + 1, two_53 + 2];
    let r_rows: Vec<_> = ints.iter().map(|&k| (vec![Value::Int(k)], 0, 10)).collect();
    let r = build_facts("r", 0, &[("k", DataType::Int)], &r_rows);
    let floats = [two_53 as f64, (two_53 + 2) as f64];
    let s_rows: Vec<_> = floats
        .iter()
        .map(|&k| (vec![Value::Float(k)], 2, 4))
        .collect();
    let s = build_facts("s", 1000, &[("k", DataType::Float)], &s_rows);
    assert_shapes_match_ta(&r, &s, &["k"]);
    // The two shapes that hold `k = k`.
    for (name, theta) in shapes(&["k"]).into_iter().take(2) {
        let inner = tp_join(&r, &s, &theta, TpJoinKind::Inner).unwrap();
        let matched: Vec<&Value> = inner.iter().map(|t| t.fact(0)).collect();
        assert_eq!(
            matched,
            [&Value::Int(two_53), &Value::Int(two_53 + 2)],
            "{name}"
        );
    }
}

#[test]
fn the_sweep_partition_of_a_key_is_exactly_its_theta_matches() {
    // The sweep trusts its partition key: two keys share a partition iff
    // they are equal as `Value`s, which must be θ's `=` for every key that
    // holds no NULL. The keys where the two could part: an Int and a Float
    // zero (equal), a negative zero (equal only to itself under the total
    // order), a NaN (equal to itself), 2^53 - 1 (exact as a float) and
    // 2^53 + 1 (which rounds to 2^53.0 but does not equal it), and NULL
    // (in no partition). Every key occurs on both sides; `id` names the
    // tuple.
    let two_53 = 1i64 << 53;
    let keys = [
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Int(two_53 - 1),
        Value::Float((two_53 - 1) as f64),
        Value::Int(two_53 + 1),
        Value::Float((two_53 + 1) as f64),
        Value::Null,
    ];
    let columns = [("k", DataType::Float), ("id", DataType::Int)];
    let rows = |interval: fn(usize) -> (i64, i64)| -> Vec<(Vec<Value>, i64, i64)> {
        let row = |(i, k): (usize, &Value)| {
            let (start, duration) = interval(i);
            (vec![k.clone(), Value::Int(i as i64)], start, duration)
        };
        keys.iter().enumerate().map(row).collect()
    };
    // r's tuples cover [0, 10); s's are staggered, so keys that match
    // twice give negating windows with two operands.
    let r = build_facts("r", 0, &columns, &rows(|_| (0, 10)));
    let s = build_facts("s", 1000, &columns, &rows(|i| (2 + (i % 3) as i64, 4)));
    assert_eq!((r.len(), s.len()), (keys.len(), keys.len()));
    assert_shapes_match_ta(&r, &s, &["k"]);

    // The matching (r id, s id) pairs, by key index above.
    let expected = [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
        (4, 5),
        (5, 4),
        (5, 5),
        (6, 6),
        (7, 7),
    ];
    let ids = |join: &TpRelation| {
        let id = |t: &TpTuple, i| t.fact(i).as_int().unwrap();
        let mut pairs: Vec<(i64, i64)> = join.iter().map(|t| (id(t, 1), id(t, 3))).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    // The two shapes that hold `k = k`.
    for (name, theta) in shapes(&["k"]).into_iter().take(2) {
        let inner = tp_join(&r, &s, &theta, TpJoinKind::Inner).unwrap();
        assert_eq!(ids(&inner), expected, "{name}");
        let ta = ta_join(&r, &s, &theta, TpJoinKind::Inner).unwrap();
        assert_eq!(ids(&ta), expected, "{name}");
    }
}

#[test]
fn identical_intervals_in_a_dense_partition() {
    // Every s tuple shares the same key and the same interval: the sorted
    // partition is all ties, the active set is the whole partition.
    let r = build("r", 0, &[(0, 0, 8)]);
    let s = build(
        "s",
        1000,
        &[(0, 2, 3), (0, 2, 3), (0, 2, 3), (0, 2, 3), (0, 2, 3)],
    );
    // duplicate-free pruning keeps only the first of the identical rows, so
    // force distinct-but-touching copies too
    assert_shapes_match_ta(&r, &s, &["k"]);
}

#[test]
fn chain_of_single_point_intervals() {
    // s covers [2, 7) with five adjacent single-point tuples: every boundary
    // is both an end and a start.
    let r = build("r", 0, &[(0, 0, 10)]);
    let s = build(
        "s",
        1000,
        &[(0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (0, 6, 1)],
    );
    assert_shapes_match_ta(&r, &s, &["k"]);
}

#[test]
fn shared_endpoints_staircase() {
    // Overlapping s tuples whose starts and ends land on shared grid points
    // (r itself starts and ends exactly on s boundaries).
    let r = build("r", 0, &[(0, 2, 6), (1, 2, 6)]);
    let mut s = TpRelation::new("s", Schema::tp(&[("k", DataType::Int)]));
    for (i, (start, end)) in [(0, 4), (2, 4), (2, 8), (4, 8), (6, 10)].iter().enumerate() {
        s.push(TpTuple::new(
            vec![Value::Int(0)],
            Lineage::var(VarId(2000 + i as u32)),
            Interval::new(*start, *end),
            0.4,
        ))
        .unwrap();
    }
    assert_shapes_match_ta(&r, &s, &["k"]);
}

#[test]
fn single_point_probe_tuples() {
    // r tuples are themselves single-point: each probe interval [t, t+1)
    // must find exactly the s tuples valid at t.
    let r = build(
        "r",
        0,
        &[(0, 3, 1), (0, 4, 1), (0, 7, 1), (1, 3, 1), (1, 9, 1)],
    );
    let s = build("s", 1000, &[(0, 0, 4), (0, 4, 4), (1, 2, 2), (1, 8, 1)]);
    assert_shapes_match_ta(&r, &s, &["k"]);
}
