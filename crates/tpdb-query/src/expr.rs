//! Filter predicates over fact attributes. A predicate compares with
//! θ's operator, [`CompareOp`], and so follows θ's NULL rule and order,
//! and it binds only where θ would: a literal whose type cannot compare
//! with its column's ([`DataType::compares_with`]) fails the statement.

use crate::error::TpdbError;
use std::fmt;
use tpdb_core::CompareOp;
use tpdb_storage::{DataType, Schema, StorageError, TpTuple, Value};

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

/// Written as query text: a string quoted with `''` for a quote, a float
/// in `{:?}` form (`1.0`, `1e16`), which reads back as the same `Float`,
/// and NULL as `NULL` (a bound parameter; query text has no NULL literal).
impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Operand::Literal(Value::Float(x)) => write!(f, "{x:?}"),
            Operand::Literal(Value::Null) => write!(f, "NULL"),
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
    /// without binding values ([`TpdbError::UnboundParameter`]) — whose
    /// type compares with the column's: a NULL, the column's own type, or
    /// an `Int` against a `Float` column and back
    /// ([`StorageError::Incomparable`] otherwise).
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, TpdbError> {
        let literal = match &self.operand {
            Operand::Literal(v) => v.clone(),
            Operand::Param(i) => return Err(TpdbError::UnboundParameter { index: *i }),
        };
        let column = schema.require(&self.column)?;
        let dtype = schema.fields()[column].dtype;
        if let Some(ltype) = DataType::of(&literal) {
            if !dtype.compares_with(ltype) {
                return Err(TpdbError::Storage(StorageError::Incomparable {
                    column: self.column.clone(),
                    detail: format!(
                        "{} is {dtype}, the literal {} is {ltype}",
                        self.column, self.operand
                    ),
                }));
            }
        }
        Ok(BoundPredicate {
            column,
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
    pub(crate) column: usize,
    pub(crate) op: CompareOp,
    pub(crate) literal: Value,
}

impl BoundPredicate {
    /// Does the tuple satisfy the predicate?
    #[must_use]
    pub fn matches(&self, tuple: &TpTuple) -> bool {
        self.op.eval(tuple.fact(self.column), &self.literal)
    }

    /// The predicate as query text, its column named after `schema`, the
    /// schema it was bound against.
    pub(crate) fn render(&self, schema: &Schema) -> String {
        let name = schema.fields().get(self.column).map_or("?", |f| &f.name);
        let literal = Operand::Literal(self.literal.clone());
        format!("{name} {} {literal}", self.op)
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
    fn float_literals_render_as_floats() {
        for (value, text) in [
            (Value::Float(1.0), "Age = 1.0"),
            (Value::Float(1e16), "Age = 1e16"),
            (Value::Float(-0.0), "Age = -0.0"),
            (Value::Float(1.5e-7), "Age = 1.5e-7"),
            (Value::Int(1), "Age = 1"),
        ] {
            let p = LiteralPredicate::new("Age", CompareOp::Eq, value);
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn literals_of_incomparable_types_fail_binding() {
        let ok = |column: &str, value: Value| {
            LiteralPredicate::new(column, CompareOp::Lt, value)
                .bind(&schema())
                .is_ok()
        };
        assert!(ok("Age", Value::Float(2.5)));
        assert!(ok("Age", Value::Null));
        assert!(ok("Name", Value::Null));
        assert!(!ok("Age", Value::Bool(true)));
        match LiteralPredicate::new("Name", CompareOp::Eq, Value::Int(1)).bind(&schema()) {
            Err(TpdbError::Storage(StorageError::Incomparable { column, detail })) => {
                assert_eq!(column, "Name");
                assert_eq!(detail, "Name is STR, the literal 1 is INT");
            }
            other => panic!("expected Incomparable, got {other:?}"),
        }
        assert!(!ok("Age", Value::str("30")));
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
