//! Join conditions θ on the non-temporal attributes of two TP relations.

use serde::{Deserialize, Serialize};
use std::fmt;
use tpdb_storage::{Schema, StorageError, TpTuple, Value};

/// A comparison operator between two values: two fact attributes in θ, or a
/// fact attribute and a literal in a query's `WHERE` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Does `l op r` hold? Values compare by [`Value`]'s total order; NULL
    /// never satisfies a comparison (SQL's three-valued logic collapsed to
    /// false, which is what a join or filter predicate needs).
    #[must_use]
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        if l.is_null() || r.is_null() {
            return false;
        }
        let ord = l.cmp(r);
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }

    /// The operator with its operands swapped: `l op r` holds exactly when
    /// `r op.flip() l` does.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A join condition θ over the non-temporal attributes of a left (positive)
/// and a right (negative) relation.
///
/// θ is a conjunction of column-to-column comparisons. The common case in
/// the paper — and the only case its datasets use — is a single equality
/// (`a.Loc = b.Loc`). Every θ runs the same overlap join: it partitions `s`
/// on θ's equalities and checks the other comparisons per candidate
/// ([`BoundTheta`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThetaCondition {
    comparisons: Vec<(String, CompareOp, String)>,
}

impl ThetaCondition {
    /// The always-true condition (a pure temporal join).
    #[must_use]
    pub fn always() -> Self {
        Self {
            comparisons: Vec::new(),
        }
    }

    /// Single equality `left_column = right_column` (e.g. `a.Loc = b.Loc`).
    #[must_use]
    pub fn column_equals(left_column: &str, right_column: &str) -> Self {
        Self {
            comparisons: vec![(
                left_column.to_owned(),
                CompareOp::Eq,
                right_column.to_owned(),
            )],
        }
    }

    /// Adds another comparison to the conjunction.
    #[must_use]
    pub fn and_compare(mut self, left_column: &str, op: CompareOp, right_column: &str) -> Self {
        self.comparisons
            .push((left_column.to_owned(), op, right_column.to_owned()));
        self
    }

    /// The comparisons of the conjunction.
    #[must_use]
    pub fn comparisons(&self) -> &[(String, CompareOp, String)] {
        &self.comparisons
    }

    /// The same condition with the roles of the two relations swapped
    /// (used when computing windows of `s` with respect to `r` for right
    /// outer and full outer joins).
    #[must_use]
    pub fn flipped(&self) -> Self {
        Self {
            comparisons: self
                .comparisons
                .iter()
                .map(|(l, op, r)| (r.clone(), op.flip(), l.clone()))
                .collect(),
        }
    }

    /// Resolves the column names against concrete schemas.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownColumn`] for a name neither schema has, and
    /// [`StorageError::Incomparable`] for a comparison between columns whose
    /// types cannot compare ([`tpdb_storage::DataType::compares_with`]).
    pub fn bind(&self, left: &Schema, right: &Schema) -> Result<BoundTheta, StorageError> {
        let mut equi_keys = Vec::new();
        let mut residual = Vec::new();
        for (l, op, r) in &self.comparisons {
            let li = left.require(l)?;
            let ri = right.require(r)?;
            let (lt, rt) = (left.fields()[li].dtype, right.fields()[ri].dtype);
            if !lt.compares_with(rt) {
                return Err(StorageError::Incomparable {
                    column: format!("r.{l}"),
                    detail: format!("r.{l} is {lt}, s.{r} is {rt}"),
                });
            }
            if *op == CompareOp::Eq {
                equi_keys.push((li, ri));
            } else {
                residual.push((li, *op, ri));
            }
        }
        Ok(BoundTheta {
            equi_keys,
            residual,
        })
    }
}

impl fmt::Display for ThetaCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.comparisons.is_empty() {
            return write!(f, "true");
        }
        for (i, (l, op, r)) in self.comparisons.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "r.{l} {op} s.{r}")?;
        }
        Ok(())
    }
}

/// A [`ThetaCondition`] resolved to column positions of two concrete
/// schemas and split for the overlap join: its equalities are the key the
/// sweep partitions `s` on, and the other comparisons are the residual it
/// checks per candidate. A θ with no equality has the empty key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTheta {
    equi_keys: Vec<(usize, usize)>,
    residual: Vec<(usize, CompareOp, usize)>,
}

impl BoundTheta {
    /// Does the pair of tuples satisfy θ?
    #[must_use]
    pub fn matches(&self, left: &TpTuple, right: &TpTuple) -> bool {
        self.equi_keys
            .iter()
            .all(|(li, ri)| CompareOp::Eq.eval(left.fact(*li), right.fact(*ri)))
            && self.residual_matches(left, right)
    }

    /// Does the pair satisfy θ's comparisons other than its equalities?
    pub(crate) fn residual_matches(&self, left: &TpTuple, right: &TpTuple) -> bool {
        self.residual
            .iter()
            .all(|(li, op, ri)| op.eval(left.fact(*li), right.fact(*ri)))
    }

    /// Has θ a comparison other than its equalities?
    pub(crate) fn has_residual(&self) -> bool {
        !self.residual.is_empty()
    }

    /// Is the condition a non-empty conjunction of equalities only (keyed
    /// on its equi-join key)?
    #[must_use]
    pub fn is_equi_join(&self) -> bool {
        self.residual.is_empty() && !self.equi_keys.is_empty()
    }

    /// Overwrites `key` with the left-side values of θ's equalities (empty
    /// when it has none). The buffer is reused from call to call, so a probe
    /// allocates nothing.
    pub fn left_key_into(&self, t: &TpTuple, key: &mut Vec<Value>) {
        key.clear();
        key.extend(self.equi_keys.iter().map(|(l, _)| t.fact(*l).clone()));
    }

    /// The right-side columns of θ's equalities, in order: the column list
    /// the overlap join partitions `s` on
    /// ([`TpRelation::probe_index`](tpdb_storage::TpRelation::probe_index)).
    #[must_use]
    pub fn right_columns(&self) -> Vec<usize> {
        self.equi_keys.iter().map(|&(_, r)| r).collect()
    }

    /// Overwrites `key` with the right-side values of θ's equalities.
    pub fn right_key_into(&self, t: &TpTuple, key: &mut Vec<Value>) {
        key.clear();
        key.extend(self.equi_keys.iter().map(|(_, r)| t.fact(*r).clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_lineage::Lineage;
    use tpdb_storage::DataType;
    use tpdb_temporal::Interval;

    fn schema_a() -> Schema {
        Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)])
    }

    fn schema_b() -> Schema {
        Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)])
    }

    fn tup(facts: Vec<Value>) -> TpTuple {
        TpTuple::new(facts, Lineage::tru(), Interval::new(0, 1), 1.0)
    }

    #[test]
    fn equality_binding_and_matching() {
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let bound = theta.bind(&schema_a(), &schema_b()).unwrap();
        assert!(bound.is_equi_join());
        let ann = tup(vec![Value::str("Ann"), Value::str("ZAK")]);
        let hotel_zak = tup(vec![Value::str("hotel1"), Value::str("ZAK")]);
        let hotel_sor = tup(vec![Value::str("hotel3"), Value::str("SOR")]);
        assert!(bound.matches(&ann, &hotel_zak));
        assert!(!bound.matches(&ann, &hotel_sor));
        let mut key = vec![Value::Null, Value::Null];
        bound.left_key_into(&ann, &mut key);
        assert_eq!(key, [Value::str("ZAK")]);
        bound.right_key_into(&hotel_sor, &mut key);
        assert_eq!(key, [Value::str("SOR")]);
    }

    #[test]
    fn always_condition_matches_everything() {
        let theta = ThetaCondition::always();
        let bound = theta.bind(&schema_a(), &schema_b()).unwrap();
        assert!(!bound.is_equi_join());
        assert!(bound.matches(
            &tup(vec![Value::str("Ann"), Value::str("ZAK")]),
            &tup(vec![Value::str("h"), Value::str("SOR")])
        ));
    }

    #[test]
    fn nulls_never_match() {
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let bound = theta.bind(&schema_a(), &schema_b()).unwrap();
        assert!(!bound.matches(
            &tup(vec![Value::str("Ann"), Value::Null]),
            &tup(vec![Value::str("h"), Value::Null])
        ));
    }

    #[test]
    fn inequality_conditions_are_not_equi_joins() {
        let theta = ThetaCondition::always().and_compare("Loc", CompareOp::Lt, "Loc");
        let bound = theta.bind(&schema_a(), &schema_b()).unwrap();
        assert!(!bound.is_equi_join());
        assert!(bound.matches(
            &tup(vec![Value::str("Ann"), Value::str("AAA")]),
            &tup(vec![Value::str("h"), Value::str("ZZZ")])
        ));
        assert!(!bound.matches(
            &tup(vec![Value::str("Ann"), Value::str("ZZZ")]),
            &tup(vec![Value::str("h"), Value::str("AAA")])
        ));
    }

    #[test]
    fn flipped_swaps_sides_and_operators() {
        let theta = ThetaCondition::always().and_compare("Name", CompareOp::Lt, "Hotel");
        let flipped = theta.flipped();
        let bound = flipped.bind(&schema_b(), &schema_a()).unwrap();
        // hotel > name  <=>  name < hotel
        assert!(bound.matches(
            &tup(vec![Value::str("zzz"), Value::str("ZAK")]),
            &tup(vec![Value::str("aaa"), Value::str("ZAK")])
        ));
    }

    #[test]
    fn unknown_columns_are_rejected_at_bind_time() {
        let theta = ThetaCondition::column_equals("Loc", "Missing");
        assert!(theta.bind(&schema_a(), &schema_b()).is_err());
    }

    #[test]
    fn comparisons_across_incomparable_types_are_rejected_at_bind_time() {
        let numbers = Schema::tp(&[("I", DataType::Int), ("F", DataType::Float)]);
        // INT against FLOAT compares by exact value.
        let mixed = ThetaCondition::column_equals("I", "F").and_compare("F", CompareOp::Lt, "I");
        assert!(mixed.bind(&numbers, &numbers).is_ok());
        for op in [CompareOp::Eq, CompareOp::Lt] {
            let theta = ThetaCondition::always().and_compare("Loc", op, "I");
            match theta.bind(&schema_a(), &numbers) {
                Err(StorageError::Incomparable { column, detail }) => {
                    assert_eq!(column, "r.Loc");
                    assert_eq!(detail, "r.Loc is STR, s.I is INT");
                }
                other => panic!("expected Incomparable, got {other:?}"),
            }
        }
    }

    #[test]
    fn display_renders_condition() {
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        assert_eq!(theta.to_string(), "r.Loc = s.Loc");
        assert_eq!(ThetaCondition::always().to_string(), "true");
    }

    #[test]
    fn multi_column_conjunction() {
        let theta =
            ThetaCondition::column_equals("Loc", "Loc").and_compare("Name", CompareOp::Ne, "Hotel");
        let bound = theta.bind(&schema_a(), &schema_b()).unwrap();
        assert!(!bound.is_equi_join()); // mixed ops: not a pure equi join
        assert!(bound.matches(
            &tup(vec![Value::str("Ann"), Value::str("ZAK")]),
            &tup(vec![Value::str("hotel1"), Value::str("ZAK")])
        ));
        assert!(!bound.matches(
            &tup(vec![Value::str("Ann"), Value::str("ZAK")]),
            &tup(vec![Value::str("Ann"), Value::str("ZAK")])
        ));
    }
}
