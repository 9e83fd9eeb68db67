//! Filter predicates over fact attributes. A predicate compares with
//! θ's operator, [`CompareOp`], and so follows θ's NULL rule and order.

use crate::error::TpdbError;
use std::fmt;
use tpdb_core::CompareOp;
use tpdb_storage::{Schema, TpTuple, Value};

/// The right-hand side of a filter predicate: an inline literal or a `$n`
/// placeholder bound at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An inline literal value.
    Literal(Value),
    /// A parameter placeholder `$n` (1-based), bound when the prepared
    /// statement executes.
    Param(usize),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Operand::Literal(v) => write!(f, "{v}"),
            Operand::Param(i) => write!(f, "${i}"),
        }
    }
}

/// A predicate comparing a fact column with a literal or a parameter
/// (`WHERE column op operand`). Conjunctions are represented as a list of
/// these predicates in the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralPredicate {
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal to compare against, or the `$n` slot supplying it.
    pub operand: Operand,
}

impl LiteralPredicate {
    /// Creates a predicate comparing against an inline literal.
    #[must_use]
    pub fn new(column: &str, op: CompareOp, literal: Value) -> Self {
        Self {
            column: column.to_owned(),
            op,
            operand: Operand::Literal(literal),
        }
    }

    /// Creates a predicate comparing against the `$index` placeholder
    /// (1-based).
    #[must_use]
    pub fn param(column: &str, op: CompareOp, index: usize) -> Self {
        Self {
            column: column.to_owned(),
            op,
            operand: Operand::Param(index),
        }
    }

    /// The 1-based placeholder index, when the operand is a parameter.
    #[must_use]
    pub fn parameter_index(&self) -> Option<usize> {
        match self.operand {
            Operand::Param(i) => Some(i),
            Operand::Literal(_) => None,
        }
    }

    /// Returns a copy with any `$n` placeholder replaced by `params[n-1]`.
    ///
    /// # Errors
    ///
    /// [`TpdbError::UnboundParameter`] when the placeholder index exceeds
    /// the supplied values.
    pub fn with_params(&self, params: &[Value]) -> Result<LiteralPredicate, TpdbError> {
        match &self.operand {
            Operand::Literal(_) => Ok(self.clone()),
            Operand::Param(i) => match params.get(i - 1) {
                Some(v) => Ok(LiteralPredicate::new(&self.column, self.op, v.clone())),
                None => Err(TpdbError::UnboundParameter { index: *i }),
            },
        }
    }

    /// Resolves the column index against a schema. The operand must be a
    /// literal — a `$n` placeholder here means the statement was executed
    /// without binding values ([`TpdbError::UnboundParameter`]).
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, TpdbError> {
        let literal = match &self.operand {
            Operand::Literal(v) => v.clone(),
            Operand::Param(i) => return Err(TpdbError::UnboundParameter { index: *i }),
        };
        Ok(BoundPredicate {
            column: schema.require(&self.column)?,
            op: self.op,
            literal,
        })
    }
}

impl fmt::Display for LiteralPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.operand)
    }
}

/// A [`LiteralPredicate`] resolved to a column position and a concrete
/// literal.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate {
    column: usize,
    op: CompareOp,
    literal: Value,
}

impl BoundPredicate {
    /// Does the tuple satisfy the predicate?
    #[must_use]
    pub fn matches(&self, tuple: &TpTuple) -> bool {
        self.op.eval(tuple.fact(self.column), &self.literal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_lineage::Lineage;
    use tpdb_storage::{DataType, Schema};
    use tpdb_temporal::Interval;

    fn schema() -> Schema {
        Schema::tp(&[("Name", DataType::Str), ("Age", DataType::Int)])
    }

    fn tup(name: &str, age: i64) -> TpTuple {
        TpTuple::new(
            vec![Value::str(name), Value::Int(age)],
            Lineage::tru(),
            Interval::new(0, 1),
            1.0,
        )
    }

    #[test]
    fn bind_and_match() {
        let p = LiteralPredicate::new("Age", CompareOp::Ge, Value::Int(30))
            .bind(&schema())
            .unwrap();
        assert!(p.matches(&tup("Ann", 31)));
        assert!(p.matches(&tup("Ann", 30)));
        assert!(!p.matches(&tup("Ann", 29)));
    }

    #[test]
    fn string_equality() {
        let p = LiteralPredicate::new("Name", CompareOp::Eq, Value::str("Ann"))
            .bind(&schema())
            .unwrap();
        assert!(p.matches(&tup("Ann", 1)));
        assert!(!p.matches(&tup("Jim", 1)));
    }

    #[test]
    fn unknown_column_fails_binding() {
        assert!(LiteralPredicate::new("Nope", CompareOp::Eq, Value::Int(0))
            .bind(&schema())
            .is_err());
    }

    #[test]
    fn unbound_parameter_fails_binding_with_its_index() {
        let p = LiteralPredicate::param("Age", CompareOp::Ge, 2);
        assert_eq!(p.parameter_index(), Some(2));
        match p.bind(&schema()) {
            Err(TpdbError::UnboundParameter { index }) => assert_eq!(index, 2),
            other => panic!("expected UnboundParameter, got {other:?}"),
        }
    }

    #[test]
    fn with_params_substitutes_placeholders() {
        let p = LiteralPredicate::param("Age", CompareOp::Ge, 1);
        let bound = p.with_params(&[Value::Int(30)]).unwrap();
        assert_eq!(bound.operand, Operand::Literal(Value::Int(30)));
        assert!(bound.bind(&schema()).unwrap().matches(&tup("Ann", 31)));
        // literals pass through untouched
        let lit = LiteralPredicate::new("Age", CompareOp::Lt, Value::Int(5));
        assert_eq!(lit.with_params(&[]).unwrap(), lit);
        // missing value
        assert!(matches!(
            p.with_params(&[]),
            Err(TpdbError::UnboundParameter { index: 1 })
        ));
    }

    #[test]
    fn predicates_render_as_query_text() {
        assert_eq!(
            LiteralPredicate::new("Name", CompareOp::Eq, Value::str("Ann")).to_string(),
            "Name = 'Ann'"
        );
        assert_eq!(
            LiteralPredicate::param("Age", CompareOp::Ge, 3).to_string(),
            "Age >= $3"
        );
        assert_eq!(
            LiteralPredicate::new("Age", CompareOp::Lt, Value::Int(5)).to_string(),
            "Age < 5"
        );
    }

    #[test]
    fn null_never_matches() {
        let p = LiteralPredicate::new("Name", CompareOp::Ne, Value::str("Ann"))
            .bind(&schema())
            .unwrap();
        let t = TpTuple::new(
            vec![Value::Null, Value::Int(1)],
            Lineage::tru(),
            Interval::new(0, 1),
            1.0,
        );
        assert!(!p.matches(&t));
    }

    #[test]
    fn all_operators() {
        let mk = |op| {
            LiteralPredicate::new("Age", op, Value::Int(30))
                .bind(&schema())
                .unwrap()
        };
        assert!(mk(CompareOp::Eq).matches(&tup("x", 30)));
        assert!(mk(CompareOp::Ne).matches(&tup("x", 31)));
        assert!(mk(CompareOp::Lt).matches(&tup("x", 29)));
        assert!(mk(CompareOp::Le).matches(&tup("x", 30)));
        assert!(mk(CompareOp::Gt).matches(&tup("x", 31)));
        assert!(mk(CompareOp::Ge).matches(&tup("x", 30)));
    }
}
