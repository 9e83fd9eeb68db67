//! Logical query plans.

use crate::error::TpdbError;
use crate::expr::LiteralPredicate;
use tpdb_core::{ThetaCondition, TpJoinKind, TpSetOpKind};
use tpdb_storage::Value;

/// The join strategy the planner should use for a TP join with negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// The lineage-aware window approach of the paper (overlap join +
    /// LAWAU + LAWAN), executed as a pipelined operator. This is the
    /// default.
    #[default]
    Nj,
    /// The Temporal Alignment baseline (tuple replication + repeated overlap
    /// joins + duplicate-eliminating union).
    Ta,
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinStrategy::Nj => write!(f, "NJ"),
            JoinStrategy::Ta => write!(f, "TA"),
        }
    }
}

/// A logical query plan over the relations of a catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a stored relation by name.
    Scan {
        /// Relation name in the catalog.
        relation: String,
    },
    /// Keep only the tuples satisfying every predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Conjunction of literal predicates.
        predicates: Vec<LiteralPredicate>,
    },
    /// Project a subset of the fact columns (lineage, interval and
    /// probability are always retained).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Column names to keep, in output order.
        columns: Vec<String>,
    },
    /// A TP join with negation between two sub-plans.
    TpJoin {
        /// Left (positive) input.
        left: Box<LogicalPlan>,
        /// Right (negative) input.
        right: Box<LogicalPlan>,
        /// Join condition on the non-temporal attributes.
        theta: ThetaCondition,
        /// Which TP join to compute.
        kind: TpJoinKind,
        /// Which algorithm to use.
        strategy: JoinStrategy,
    },
    /// A TP set operation (`UNION` / `INTERSECT` / `EXCEPT`) between two
    /// union-compatible sub-plans. Lowered onto the all-attribute-equality
    /// TP join machinery: `EXCEPT` is the TP anti join, `INTERSECT` the TP
    /// inner join projected back to the left schema, and `UNION` the
    /// dedicated two-pass window stream.
    SetOp {
        /// Which set operation to compute.
        kind: TpSetOpKind,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// `SAVE SNAPSHOT '<path>'` — serialize the whole catalog to a snapshot
    /// file. A utility statement: it reads the catalog instead of scanning
    /// relations, and executes through the session rather than the stream
    /// engine.
    SaveSnapshot {
        /// Target file path.
        path: String,
    },
    /// `LOAD SNAPSHOT '<path>'` — replace the catalog with a snapshot file's
    /// contents (all-or-nothing). A utility statement; it requires exclusive
    /// catalog access and is rejected by the shared-session execution paths.
    LoadSnapshot {
        /// Source file path.
        path: String,
    },
}

impl LogicalPlan {
    /// Convenience constructor for a scan.
    #[must_use]
    pub fn scan(relation: &str) -> Self {
        LogicalPlan::Scan {
            relation: relation.to_owned(),
        }
    }

    /// Wraps the plan in a filter.
    #[must_use]
    pub fn filter(self, predicates: Vec<LiteralPredicate>) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicates,
        }
    }

    /// Wraps the plan in a projection.
    #[must_use]
    pub fn project(self, columns: Vec<String>) -> Self {
        LogicalPlan::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// Joins this plan (as the positive side) with another plan.
    #[must_use]
    pub fn tp_join(
        self,
        right: LogicalPlan,
        theta: ThetaCondition,
        kind: TpJoinKind,
        strategy: JoinStrategy,
    ) -> Self {
        LogicalPlan::TpJoin {
            left: Box::new(self),
            right: Box::new(right),
            theta,
            kind,
            strategy,
        }
    }

    /// Combines this plan (as the left input) with another plan through a
    /// TP set operation.
    #[must_use]
    pub fn set_op(self, kind: TpSetOpKind, right: LogicalPlan) -> Self {
        LogicalPlan::SetOp {
            kind,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Is this a utility statement (`SAVE SNAPSHOT` / `LOAD SNAPSHOT`)?
    /// Utility statements have no streamable physical plan: sessions execute
    /// them against the catalog directly.
    #[must_use]
    pub fn is_utility(&self) -> bool {
        matches!(
            self,
            LogicalPlan::SaveSnapshot { .. } | LogicalPlan::LoadSnapshot { .. }
        )
    }

    /// The number of `$n` parameter slots the plan references: the highest
    /// placeholder index, so `WHERE Key = $2` reports 2 slots even when
    /// `$1` is unused (PostgreSQL semantics). Bind exactly this many values
    /// with [`LogicalPlan::bind_parameters`] before execution.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::SaveSnapshot { .. }
            | LogicalPlan::LoadSnapshot { .. } => 0,
            LogicalPlan::Filter { input, predicates } => predicates
                .iter()
                .filter_map(LiteralPredicate::parameter_index)
                .max()
                .unwrap_or(0)
                .max(input.parameter_count()),
            LogicalPlan::Project { input, .. } => input.parameter_count(),
            LogicalPlan::TpJoin { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                left.parameter_count().max(right.parameter_count())
            }
        }
    }

    /// Returns a copy of the plan with every `$n` placeholder replaced by
    /// `params[n-1]`.
    ///
    /// # Errors
    ///
    /// [`TpdbError::ParameterCount`] when `params.len()` differs from
    /// [`parameter_count`](Self::parameter_count) — executing a prepared
    /// statement requires binding exactly one value per slot.
    pub fn bind_parameters(&self, params: &[Value]) -> Result<LogicalPlan, TpdbError> {
        let expected = self.parameter_count();
        if params.len() != expected {
            return Err(TpdbError::ParameterCount {
                expected,
                got: params.len(),
            });
        }
        self.substitute(params)
    }

    /// Recursively substitutes placeholders (count already validated).
    fn substitute(&self, params: &[Value]) -> Result<LogicalPlan, TpdbError> {
        Ok(match self {
            leaf @ (LogicalPlan::Scan { .. }
            | LogicalPlan::SaveSnapshot { .. }
            | LogicalPlan::LoadSnapshot { .. }) => leaf.clone(),
            LogicalPlan::Filter { input, predicates } => LogicalPlan::Filter {
                input: Box::new(input.substitute(params)?),
                predicates: predicates
                    .iter()
                    .map(|p| p.with_params(params))
                    .collect::<Result<Vec<_>, _>>()?,
            },
            LogicalPlan::Project { input, columns } => LogicalPlan::Project {
                input: Box::new(input.substitute(params)?),
                columns: columns.clone(),
            },
            LogicalPlan::TpJoin {
                left,
                right,
                theta,
                kind,
                strategy,
            } => LogicalPlan::TpJoin {
                left: Box::new(left.substitute(params)?),
                right: Box::new(right.substitute(params)?),
                theta: theta.clone(),
                kind: *kind,
                strategy: *strategy,
            },
            LogicalPlan::SetOp { kind, left, right } => LogicalPlan::SetOp {
                kind: *kind,
                left: Box::new(left.substitute(params)?),
                right: Box::new(right.substitute(params)?),
            },
        })
    }

    /// Renders the plan as an indented tree (similar to `EXPLAIN`). Filter
    /// predicates are printed in query syntax, with unbound parameters as
    /// their `$n` slots and bound parameters as the bound values.
    #[must_use]
    pub fn pretty(&self) -> String {
        fn go(plan: &LogicalPlan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match plan {
                LogicalPlan::Scan { relation } => {
                    out.push_str(&format!("{pad}Scan {relation}\n"));
                }
                LogicalPlan::Filter { input, predicates } => {
                    let rendered: Vec<String> =
                        predicates.iter().map(ToString::to_string).collect();
                    out.push_str(&format!("{pad}Filter ({})\n", rendered.join(" AND ")));
                    go(input, indent + 1, out);
                }
                LogicalPlan::Project { input, columns } => {
                    out.push_str(&format!("{pad}Project [{}]\n", columns.join(", ")));
                    go(input, indent + 1, out);
                }
                LogicalPlan::TpJoin {
                    left,
                    right,
                    theta,
                    kind,
                    strategy,
                } => {
                    out.push_str(&format!(
                        "{pad}TpJoin {} ({theta}) strategy={strategy}\n",
                        kind.symbol()
                    ));
                    go(left, indent + 1, out);
                    go(right, indent + 1, out);
                }
                LogicalPlan::SetOp { kind, left, right } => {
                    out.push_str(&format!("{pad}SetOp {kind} ({})\n", kind.symbol()));
                    go(left, indent + 1, out);
                    go(right, indent + 1, out);
                }
                LogicalPlan::SaveSnapshot { path } => {
                    out.push_str(&format!("{pad}SaveSnapshot '{path}'\n"));
                }
                LogicalPlan::LoadSnapshot { path } => {
                    out.push_str(&format!("{pad}LoadSnapshot '{path}'\n"));
                }
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_core::CompareOp;
    use tpdb_storage::Value;

    #[test]
    fn builders_compose() {
        let plan = LogicalPlan::scan("a")
            .filter(vec![LiteralPredicate::new(
                "Loc",
                CompareOp::Eq,
                Value::str("ZAK"),
            )])
            .tp_join(
                LogicalPlan::scan("b"),
                ThetaCondition::column_equals("Loc", "Loc"),
                TpJoinKind::LeftOuter,
                JoinStrategy::Nj,
            )
            .project(vec!["Name".to_owned(), "Hotel".to_owned()]);
        let text = plan.pretty();
        assert!(text.contains("Project [Name, Hotel]"));
        assert!(text.contains("TpJoin ⟕"));
        assert!(text.contains("strategy=NJ"));
        assert!(text.contains("Scan a"));
        assert!(text.contains("Scan b"));
    }

    #[test]
    fn default_strategy_is_nj() {
        assert_eq!(JoinStrategy::default(), JoinStrategy::Nj);
        assert_eq!(JoinStrategy::Ta.to_string(), "TA");
    }

    #[test]
    fn parameter_slots_are_counted_and_bound() {
        let plan = LogicalPlan::scan("a").filter(vec![
            LiteralPredicate::param("Loc", CompareOp::Eq, 1),
            LiteralPredicate::param("Key", CompareOp::Ge, 2),
        ]);
        assert_eq!(plan.parameter_count(), 2);
        assert!(plan.pretty().contains("Filter (Loc = $1 AND Key >= $2)"));

        let bound = plan
            .bind_parameters(&[Value::str("ZAK"), Value::Int(3)])
            .unwrap();
        assert_eq!(bound.parameter_count(), 0);
        assert!(bound.pretty().contains("Filter (Loc = 'ZAK' AND Key >= 3)"));

        // exact arity is required, in both directions
        assert!(matches!(
            plan.bind_parameters(&[Value::Int(1)]),
            Err(TpdbError::ParameterCount {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            bound.bind_parameters(&[Value::Int(1)]),
            Err(TpdbError::ParameterCount {
                expected: 0,
                got: 1
            })
        ));
    }

    #[test]
    fn highest_slot_index_counts_even_when_lower_slots_are_unused() {
        let plan =
            LogicalPlan::scan("a").filter(vec![LiteralPredicate::param("Key", CompareOp::Eq, 2)]);
        assert_eq!(plan.parameter_count(), 2);
        let bound = plan
            .bind_parameters(&[Value::Int(0), Value::Int(7)])
            .unwrap();
        assert!(bound.pretty().contains("Key = 7"), "{}", bound.pretty());
    }

    #[test]
    fn set_op_builders_print_count_and_bind() {
        let plan = LogicalPlan::scan("a")
            .filter(vec![LiteralPredicate::param("k", CompareOp::Ge, 1)])
            .set_op(
                TpSetOpKind::Union,
                LogicalPlan::scan("b").filter(vec![LiteralPredicate::param("k", CompareOp::Ge, 1)]),
            );
        assert_eq!(plan.parameter_count(), 1);
        let text = plan.pretty();
        assert!(text.contains("SetOp UNION (∪)"), "{text}");
        assert!(text.contains("Scan a"));
        assert!(text.contains("Scan b"));
        let bound = plan.bind_parameters(&[Value::Int(3)]).unwrap();
        assert_eq!(bound.parameter_count(), 0);
        assert!(bound.pretty().contains("k >= 3"), "{}", bound.pretty());
        assert!(bound.pretty().starts_with("SetOp UNION (∪)\n"));
    }
}
