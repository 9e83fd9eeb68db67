//! Lowering of logical plans to physical operator trees.

use crate::exec::{FilterExec, PhysicalOperator, ProjectExec, ScanExec, WindowOp, WindowOpExec};
use crate::expr::{BoundPredicate, LiteralPredicate};
use crate::plan::{JoinStrategy, LogicalPlan};
use crate::TpdbError;
use tpdb_core::{ThetaCondition, TpJoinKind};
use tpdb_storage::{Catalog, Schema, Value};

/// Execution options, kept for source compatibility: statements run on one
/// thread and there is nothing left to configure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOptions;

impl QueryOptions {
    /// The options of serial execution — the only kind there is.
    #[must_use]
    pub fn serial() -> Self {
        Self
    }
}

/// [`plan_query`] with execution options, which are ignored; kept for
/// source compatibility.
pub fn plan_query_with(
    catalog: &Catalog,
    plan: &LogicalPlan,
    _options: &QueryOptions,
) -> Result<Box<dyn PhysicalOperator>, TpdbError> {
    plan_query(catalog, plan)
}

/// Lowers `plan` with a `NULL` standing in for each `$n` placeholder: the
/// validation lowering of a statement that may not be bound yet (prepare
/// and `EXPLAIN`). Unknown relations and columns, θ binding failures and
/// union-incompatible set operations fail here; the operators are built but
/// never pulled.
pub(crate) fn lower_with_null_parameters(
    catalog: &Catalog,
    plan: &LogicalPlan,
) -> Result<Box<dyn PhysicalOperator>, TpdbError> {
    let slots = plan.parameter_count();
    if slots == 0 {
        return plan_query(catalog, plan);
    }
    plan_query(catalog, &plan.bind_parameters(&vec![Value::Null; slots])?)
}

/// Lowers a logical plan to a tree of physical operators, resolving
/// relation names and column references against the catalog.
///
/// The plan must be fully bound: a `$n` placeholder in a filter predicate
/// fails with [`TpdbError::UnboundParameter`] — substitute values first
/// with [`LogicalPlan::bind_parameters`] (or prepare the statement through
/// a [`crate::Session`], which does this for you).
pub fn plan_query(
    catalog: &Catalog,
    plan: &LogicalPlan,
) -> Result<Box<dyn PhysicalOperator>, TpdbError> {
    match plan {
        LogicalPlan::Scan { relation } => {
            let rel = catalog.relation(relation)?;
            Ok(Box::new(ScanExec::new(rel)))
        }
        LogicalPlan::Filter { input, predicates } => {
            if let LogicalPlan::TpJoin {
                left,
                right,
                theta,
                kind,
                strategy,
            } = &**input
            {
                return lower_join(catalog, left, right, theta, *kind, *strategy, predicates);
            }
            let child = plan_query(catalog, input)?;
            let bound = bind_all(predicates, child.schema())?;
            Ok(Box::new(FilterExec::new(child, bound)))
        }
        LogicalPlan::Project { input, columns } => {
            let child = plan_query(catalog, input)?;
            let indices = columns
                .iter()
                .map(|c| child.schema().require(c))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Box::new(ProjectExec::new(child, indices)))
        }
        LogicalPlan::TpJoin {
            left,
            right,
            theta,
            kind,
            strategy,
        } => lower_join(catalog, left, right, theta, *kind, *strategy, &[]),
        LogicalPlan::SetOp { kind, left, right } => {
            let left = plan_query(catalog, left)?;
            let right = plan_query(catalog, right)?;
            // Union compatibility fails at plan time, not at the first
            // execution: arity and per-position value types through the
            // core check, plus matching column names — the output schema is
            // the left input's, so a name mismatch would silently relabel
            // the right side's values.
            tpdb_core::check_union_compatible(left.schema(), right.schema())?;
            for (lf, rf) in left.schema().fields().iter().zip(right.schema().fields()) {
                if lf.name != rf.name {
                    return Err(TpdbError::Storage(
                        tpdb_storage::StorageError::UnionIncompatible {
                            column: lf.name.clone(),
                            detail: format!("left names it '{}', right '{}'", lf.name, rf.name),
                        },
                    ));
                }
            }
            let schema = left.schema().clone();
            Ok(Box::new(WindowOpExec::new(
                left,
                right,
                WindowOp::SetOp(*kind),
                schema,
                catalog.probability_engine(),
            )))
        }
        // Utility statements have no streamable physical operator; they
        // execute through `Session` against the catalog itself.
        LogicalPlan::SaveSnapshot { .. } | LogicalPlan::LoadSnapshot { .. } => Err(
            TpdbError::Storage(tpdb_storage::StorageError::PlanNotApplicable {
                plan: "snapshot".to_owned(),
                reason: "SAVE/LOAD SNAPSHOT are utility statements; run them through a session"
                    .to_owned(),
            }),
        ),
    }
}

/// Binds each predicate against `schema`.
fn bind_all(
    predicates: &[LiteralPredicate],
    schema: &Schema,
) -> Result<Vec<BoundPredicate>, TpdbError> {
    predicates.iter().map(|p| p.bind(schema)).collect()
}

/// `input` under a filter of `predicates`, or `input` itself when there
/// are none.
fn filtered(
    input: Box<dyn PhysicalOperator>,
    predicates: Vec<BoundPredicate>,
) -> Box<dyn PhysicalOperator> {
    if predicates.is_empty() {
        return input;
    }
    Box::new(FilterExec::new(input, predicates))
}

/// Lowers a TP join and the `WHERE` predicates directly over it (none
/// for a bare join): each predicate runs below the join where [`route`]
/// allows, the rest above it. θ is bound against the input schemas here,
/// so its errors surface before execution.
fn lower_join(
    catalog: &Catalog,
    left: &LogicalPlan,
    right: &LogicalPlan,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    strategy: JoinStrategy,
    predicates: &[LiteralPredicate],
) -> Result<Box<dyn PhysicalOperator>, TpdbError> {
    let left = plan_query(catalog, left)?;
    let right = plan_query(catalog, right)?;
    theta.bind(left.schema(), right.schema())?;
    // The anti join keeps the left input's schema; the other joins append
    // the right input's columns, a name the left already has prefixed with
    // `s_`.
    let schema = match kind {
        TpJoinKind::Anti => left.schema().clone(),
        _ => left.schema().concat(right.schema(), "s_"),
    };
    let bound = bind_all(predicates, &schema)?;
    let (to_left, to_right, above) = route(bound, kind, left.schema().arity());
    let join = WindowOpExec::new(
        filtered(left, to_left),
        filtered(right, to_right),
        WindowOp::Join {
            theta: theta.clone(),
            kind,
            strategy,
        },
        schema,
        catalog.probability_engine(),
    );
    Ok(filtered(Box::new(join), above))
}

/// Splits a `WHERE` over a TP join, bound against the join's output
/// schema, into the predicates that move below the join (onto its left
/// and its right input, renumbered to that input's columns) and the ones
/// that stay above it.
///
/// Every output row of a TP join is one tuple of a preserved relation with
/// one of its windows (Table II), and a preserved side's columns hold that
/// tuple's facts on every row, never a NULL pad: so a predicate on them
/// keeps or drops the tuple's whole group, and filtering the tuple out of
/// the input first yields the same rows. Both sides are preserved in an
/// inner join, the left in a left outer and an anti join, the right in a
/// right outer join, and neither in a full outer join (each side is padded
/// on the other's unmatched windows), where nothing moves. Right columns
/// follow the left ones in the output, so a right predicate's column is
/// its output index minus the left arity (names may carry the `s_`
/// prefix). The choice does not depend on the strategy.
fn route(
    predicates: Vec<BoundPredicate>,
    kind: TpJoinKind,
    left_arity: usize,
) -> (
    Vec<BoundPredicate>,
    Vec<BoundPredicate>,
    Vec<BoundPredicate>,
) {
    let (left_moves, right_moves) = match kind {
        TpJoinKind::Inner => (true, true),
        TpJoinKind::LeftOuter | TpJoinKind::Anti => (true, false),
        TpJoinKind::RightOuter => (false, true),
        TpJoinKind::FullOuter => (false, false),
    };
    let (mut left, mut right, mut above) = (Vec::new(), Vec::new(), Vec::new());
    for mut p in predicates {
        let on_left = p.column < left_arity;
        if on_left && left_moves {
            left.push(p);
        } else if !on_left && right_moves {
            p.column -= left_arity;
            right.push(p);
        } else {
            above.push(p);
        }
    }
    (left, right, above)
}

/// Returns the physical plan description for a logical plan — the moral
/// equivalent of `EXPLAIN`.
///
/// A parameterized plan explains without binding: the logical plan prints
/// the `$n` placeholder slots, the physical plan is validated with `NULL`
/// stand-ins (its filters print `NULL` for each slot), and a trailing
/// `Parameters:` line reports the open slots.
pub fn explain(catalog: &Catalog, plan: &LogicalPlan) -> Result<String, TpdbError> {
    let slots = plan.parameter_count();
    // Utility statements are described directly — they never lower to a
    // stream operator.
    let physical = match plan {
        LogicalPlan::SaveSnapshot { path } => format!(
            "SnapshotWrite '{path}' ({} relation(s))",
            catalog.relation_names().len()
        ),
        LogicalPlan::LoadSnapshot { path } => {
            format!("SnapshotRead '{path}' (replaces the catalog, all-or-nothing)")
        }
        other => lower_with_null_parameters(catalog, other)?.describe(),
    };
    let mut out = format!(
        "Logical plan:\n{}\nPhysical plan:\n  {physical}\n",
        plan.pretty(),
    );
    if slots > 0 {
        out.push_str(&format!(
            "Parameters: {slots} unbound slot(s) $1..${slots}\n"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_core::CompareOp;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let (a, b) = tpdb_datagen::booking_example();
        c.register(a).unwrap();
        c.register(b).unwrap();
        c
    }

    #[test]
    fn planning_validates_theta_columns() {
        let c = catalog();
        let bad = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Missing", "Loc"),
            TpJoinKind::LeftOuter,
            JoinStrategy::Nj,
        );
        assert!(plan_query(&c, &bad).is_err());
    }

    #[test]
    fn planning_validates_projection_columns() {
        let c = catalog();
        let bad = LogicalPlan::scan("a").project(vec!["Missing".to_owned()]);
        assert!(plan_query(&c, &bad).is_err());
    }

    #[test]
    fn a_residual_theta_plans_through_filters_and_executes() {
        let c = catalog();
        let join = |theta| {
            LogicalPlan::scan("a")
                .tp_join(
                    LogicalPlan::scan("b"),
                    theta,
                    TpJoinKind::LeftOuter,
                    JoinStrategy::Nj,
                )
                .filter(Vec::new())
        };
        let equi = ThetaCondition::column_equals("Loc", "Loc");
        let residual = equi.clone().and_compare("Loc", CompareOp::Le, "Loc");
        for theta in [equi, residual] {
            let logical = join(theta.clone());
            let op = plan_query(&c, &logical).unwrap();
            assert!(
                op.describe().contains(&format!("[NJ] ({theta})")),
                "{}",
                op.describe()
            );
            let result = crate::exec::execute_plan(&c, &logical).unwrap();
            assert_eq!(result.len(), 7, "{theta}");
        }
    }

    #[test]
    fn explain_contains_both_plans() {
        let c = catalog();
        let plan = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Loc", "Loc"),
            TpJoinKind::Anti,
            JoinStrategy::Nj,
        );
        let text = explain(&c, &plan).unwrap();
        assert!(text.contains("Logical plan:"));
        assert!(text.contains("Physical plan:"));
        assert!(text.contains("▷"));
    }
}
