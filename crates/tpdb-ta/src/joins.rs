//! End-to-end TP joins with negation computed via Temporal Alignment.
//!
//! The window sets are produced by the alignment-based routines of
//! [`crate::windows`]: the same windows NJ computes, a negating window's
//! `s` tuples listed in a span. Output tuples are then formed by NJ's own
//! output formation (`tpdb_core::assemble_join_result`), so the two systems
//! return identical results and differ only in how the windows are
//! computed.
//!
//! Following the observation of the paper's evaluation (Section IV), the
//! end-to-end TA join cannot push the θ condition into its overlap joins and
//! alignment steps once the duplicate-eliminating union is part of the plan,
//! so the optimizer falls back to nested-loop plans — which is what makes TA
//! up to two orders of magnitude slower than NJ on the full TP outer join.

use crate::windows::{ta_wuo_with_plan, ta_wuon_with_plan};
use tpdb_core::{assemble_join_result, ThetaCondition, TpJoinKind, Window, WindowSet};
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{StorageError, TpRelation};

/// TP inner join via Temporal Alignment.
pub fn ta_inner_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    ta_join(r, s, theta, TpJoinKind::Inner)
}

/// TP anti join via Temporal Alignment.
pub fn ta_anti_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    ta_join(r, s, theta, TpJoinKind::Anti)
}

/// TP left outer join via Temporal Alignment.
pub fn ta_left_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    ta_join(r, s, theta, TpJoinKind::LeftOuter)
}

/// TP right outer join via Temporal Alignment.
pub fn ta_right_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    ta_join(r, s, theta, TpJoinKind::RightOuter)
}

/// TP full outer join via Temporal Alignment.
pub fn ta_full_outer_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
) -> Result<TpRelation, StorageError> {
    ta_join(r, s, theta, TpJoinKind::FullOuter)
}

/// Any TP join with negation via Temporal Alignment.
///
/// Base-tuple probabilities are taken from the atomic lineages of the
/// inputs, as in [`tpdb_core::tp_join`].
///
/// # Errors
///
/// θ's binding errors, and [`StorageError::MissingMarginal`] when a lineage
/// of `r` or `s` names a variable that no atomic lineage gives a marginal.
pub fn ta_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
) -> Result<TpRelation, StorageError> {
    let bound = theta.bind(r.schema(), s.schema())?;

    // The end-to-end TA plan cannot exploit θ: nested loops everywhere.
    let use_hash = false;

    let left_windows: WindowSet = match kind {
        TpJoinKind::Inner | TpJoinKind::RightOuter => {
            let mut wuo = ta_wuo_with_plan(r, s, &bound, use_hash);
            wuo.retain(Window::is_overlapping);
            wuo.into()
        }
        TpJoinKind::Anti | TpJoinKind::LeftOuter | TpJoinKind::FullOuter => {
            ta_wuon_with_plan(r, s, &bound, use_hash)
        }
    };

    let right_windows = match kind {
        TpJoinKind::RightOuter | TpJoinKind::FullOuter => {
            let flipped = theta.flipped().bind(s.schema(), r.schema())?;
            ta_wuon_with_plan(s, r, &flipped, use_hash)
        }
        _ => WindowSet::default(),
    };

    let mut engine = ProbabilityEngine::new();
    r.register_probabilities(&mut engine);
    s.register_probabilities(&mut engine);
    let (left, right) = (&left_windows, &right_windows);
    assemble_join_result(r, s, kind, left, right, &mut engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_core::{
        tp_anti_join, tp_full_outer_join, tp_inner_join, tp_left_outer_join, tp_right_outer_join,
    };
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

    /// Canonical form of a join result: facts + interval + rounded
    /// probability, sorted. Lineage syntax may differ between the systems
    /// (e.g. operand order), but semantics — and thus probabilities — must
    /// agree.
    fn canon(rel: &TpRelation) -> Vec<(Vec<String>, i64, i64, i64)> {
        let mut rows: Vec<(Vec<String>, i64, i64, i64)> = rel
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
        rows.sort();
        rows
    }

    #[test]
    fn ta_left_outer_matches_nj_on_paper_example() {
        let (a, b) = booking();
        let nj = tp_left_outer_join(&a, &b, &theta()).unwrap();
        let ta = ta_left_outer_join(&a, &b, &theta()).unwrap();
        assert_eq!(nj.len(), 7);
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_anti_matches_nj() {
        let (a, b) = booking();
        let nj = tp_anti_join(&a, &b, &theta()).unwrap();
        let ta = ta_anti_join(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_inner_matches_nj() {
        let (a, b) = booking();
        let nj = tp_inner_join(&a, &b, &theta()).unwrap();
        let ta = ta_inner_join(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_right_outer_matches_nj() {
        let (a, b) = booking();
        let nj = tp_right_outer_join(&a, &b, &theta()).unwrap();
        let ta = ta_right_outer_join(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_full_outer_matches_nj() {
        let (a, b) = booking();
        let nj = tp_full_outer_join(&a, &b, &theta()).unwrap();
        let ta = ta_full_outer_join(&a, &b, &theta()).unwrap();
        assert_eq!(canon(&nj), canon(&ta));
    }

    #[test]
    fn ta_rejects_unknown_columns() {
        let (a, b) = booking();
        let bad = ThetaCondition::column_equals("Nope", "Loc");
        assert!(ta_left_outer_join(&a, &b, &bad).is_err());
    }
}
