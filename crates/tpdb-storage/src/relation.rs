//! TP relations: named, schema-typed collections of TP tuples.

use crate::error::StorageError;
use crate::probe::{ProbeIndex, ProbeMemo};
use crate::schema::Schema;
use crate::tuple::TpTuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use tpdb_lineage::ProbabilityEngine;
use tpdb_temporal::TimePoint;

/// A temporal-probabilistic relation with schema `(F, λ, T, p)`.
///
/// A `TpRelation` is an ordered, in-memory collection of [`TpTuple`]s sharing
/// a fact [`Schema`]. Base relations are created through the
/// [`Catalog`](crate::Catalog) (which assigns atomic lineage variables);
/// derived relations are produced by the join operators.
///
/// A relation the catalog stores keeps the overlap join's probe index of
/// each column list it is probed on ([`probe_index`](Self::probe_index)).
/// The memo is not part of the relation's value: `Clone`,
/// [`renamed`](Self::renamed) and [`filter`](Self::filter) give a relation
/// without one, [`push`](Self::push), [`push_unchecked`](Self::push_unchecked)
/// and [`reserve`](Self::reserve) drop it, and `PartialEq` and `Debug` ignore
/// it.
#[derive(Serialize, Deserialize)]
pub struct TpRelation {
    name: String,
    schema: Schema,
    tuples: Vec<TpTuple>,
    /// Installed by the catalog; `None` elsewhere.
    #[serde(skip)]
    pub(crate) probes: Option<ProbeMemo>,
}

impl Clone for TpRelation {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            probes: None,
        }
    }
}

impl PartialEq for TpRelation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.tuples == other.tuples
    }
}

impl fmt::Debug for TpRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TpRelation")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl TpRelation {
    /// Creates an empty relation.
    #[must_use]
    pub fn new(name: &str, schema: Schema) -> Self {
        Self {
            name: name.to_owned(),
            schema,
            tuples: Vec::new(),
            probes: None,
        }
    }

    /// The relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fact schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples, in insertion order.
    #[must_use]
    pub fn tuples(&self) -> &[TpTuple] {
        &self.tuples
    }

    /// Consumes the relation into its tuples, in insertion order — the
    /// move counterpart of [`tuples`](Self::tuples) for consumers that
    /// stream a finished result.
    #[must_use]
    pub fn into_tuples(self) -> Vec<TpTuple> {
        self.tuples
    }

    /// The tuple at position `idx`.
    #[must_use]
    pub fn tuple(&self, idx: usize) -> &TpTuple {
        &self.tuples[idx]
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &TpTuple> {
        self.tuples.iter()
    }

    /// Appends a tuple after validating it against the schema and checking
    /// the probability range.
    pub fn push(&mut self, tuple: TpTuple) -> Result<(), StorageError> {
        self.schema.validate(tuple.facts())?;
        let p = tuple.probability();
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(StorageError::InvalidProbability(p));
        }
        self.push_unchecked(tuple);
        Ok(())
    }

    /// Appends a tuple without validation (used by operators whose inputs
    /// are already validated relations).
    pub fn push_unchecked(&mut self, tuple: TpTuple) {
        self.probes = None;
        self.tuples.push(tuple);
    }

    /// Reserves capacity for at least `additional` more tuples (bulk-load
    /// support: loaders that know the final cardinality up front avoid the
    /// doubling reallocations of repeated pushes).
    pub fn reserve(&mut self, additional: usize) {
        self.probes = None;
        self.tuples.reserve(additional);
    }

    /// The overlap join's probe index of this relation on `columns`
    /// ([`ProbeIndex::build`]). A relation stored in a catalog builds it on
    /// the first call and shares it with every later call, pass and
    /// catalog clone; any other relation builds a fresh one per call.
    #[must_use]
    pub fn probe_index(&self, columns: &[usize]) -> Arc<ProbeIndex> {
        match &self.probes {
            Some(memo) => memo.get_or_build(self, columns),
            None => Arc::new(ProbeIndex::build(self, columns)),
        }
    }

    /// Does the relation keep its probe indexes, that is, is it stored in a
    /// catalog? Only then is an index worth building for one statement.
    #[must_use]
    pub fn memoizes_probes(&self) -> bool {
        self.probes.is_some()
    }

    /// The probe index on `columns` this relation already keeps, if any;
    /// builds nothing.
    #[must_use]
    pub fn memoized_probe_index(&self, columns: &[usize]) -> Option<Arc<ProbeIndex>> {
        self.probes.as_ref()?.get(columns)
    }

    /// Gives the relation a probe-index memo: the catalog stores it, so its
    /// tuples no longer change.
    pub(crate) fn memoize_probes(&mut self) {
        self.probes = Some(ProbeMemo::default());
    }

    /// Returns a new relation containing the tuples satisfying `predicate`.
    #[must_use]
    pub fn filter<F: Fn(&TpTuple) -> bool>(&self, predicate: F) -> TpRelation {
        TpRelation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            tuples: self
                .tuples
                .iter()
                .filter(|t| predicate(t))
                .cloned()
                .collect(),
            probes: None,
        }
    }

    /// The distinct values of a fact column (used by the data generators and
    /// by selectivity statistics in the planner).
    #[must_use]
    pub fn distinct_values(&self, column: usize) -> Vec<Value> {
        let mut vals: Vec<Value> = self.tuples.iter().map(|t| t.fact(column).clone()).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Registers the probability of every *base* tuple (atomic lineage) with
    /// the probability engine. Derived (compound) lineages are skipped: their
    /// probabilities are derived quantities.
    pub fn register_probabilities(&self, engine: &mut ProbabilityEngine) {
        // Batched: the engine clears its memo at most once for the whole
        // relation instead of once per tuple.
        engine.set_all(
            self.tuples
                .iter()
                .filter_map(|t| Some((t.lazy_lineage().as_var()?, t.probability()))),
        );
    }

    /// The tuples valid at time point `t` (point-wise semantics; used by the
    /// semantic equivalence checks in tests).
    #[must_use]
    pub fn valid_at(&self, t: TimePoint) -> Vec<&TpTuple> {
        self.tuples.iter().filter(|tp| tp.valid_at(t)).collect()
    }

    /// Renames the relation (used when the same stored relation is scanned
    /// twice under different correlation names).
    #[must_use]
    pub fn renamed(&self, name: &str) -> TpRelation {
        TpRelation {
            name: name.to_owned(),
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            probes: None,
        }
    }
}

impl fmt::Display for TpRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}", self.name, self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use tpdb_lineage::{Lineage, VarId};
    use tpdb_temporal::Interval;

    fn rel() -> TpRelation {
        let mut r = TpRelation::new(
            "a",
            Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]),
        );
        r.push(TpTuple::new(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Lineage::var(VarId(0)),
            Interval::new(2, 8),
            0.7,
        ))
        .unwrap();
        r.push(TpTuple::new(
            vec![Value::str("Jim"), Value::str("WEN")],
            Lineage::var(VarId(1)),
            Interval::new(7, 10),
            0.8,
        ))
        .unwrap();
        r
    }

    #[test]
    fn push_validates_schema_and_probability() {
        let mut r = rel();
        assert_eq!(r.len(), 2);
        let bad_arity = TpTuple::new(
            vec![Value::str("x")],
            Lineage::var(VarId(9)),
            Interval::new(0, 1),
            0.5,
        );
        assert!(matches!(
            r.push(bad_arity),
            Err(StorageError::ArityMismatch { .. })
        ));
        let bad_prob = TpTuple::new(
            vec![Value::str("x"), Value::str("y")],
            Lineage::var(VarId(9)),
            Interval::new(0, 1),
            1.5,
        );
        assert!(matches!(
            r.push(bad_prob),
            Err(StorageError::InvalidProbability(_))
        ));
    }

    #[test]
    fn filter_and_distinct() {
        let r = rel();
        let only_ann = r.filter(|t| t.fact(0) == &Value::str("Ann"));
        assert_eq!(only_ann.len(), 1);
        assert_eq!(
            r.distinct_values(1),
            vec![Value::str("WEN"), Value::str("ZAK")]
        );
    }

    #[test]
    fn register_probabilities_covers_base_tuples_only() {
        let mut r = rel();
        // add a derived tuple with compound lineage; it must not be registered
        r.push(TpTuple::new(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Lineage::and2(Lineage::var(VarId(0)), Lineage::var(VarId(1))),
            Interval::new(20, 21),
            0.56,
        ))
        .unwrap();
        let mut engine = ProbabilityEngine::new();
        r.register_probabilities(&mut engine);
        assert_eq!(engine.len(), 2);
        assert_eq!(engine.get(VarId(0)), Some(0.7));
        assert_eq!(engine.get(VarId(1)), Some(0.8));
    }

    #[test]
    fn valid_at_keeps_the_tuples_covering_the_point() {
        let r = rel();
        assert_eq!(r.valid_at(7).len(), 2);
        assert_eq!(r.valid_at(9).len(), 1);
        assert_eq!(r.valid_at(100).len(), 0);
    }

    #[test]
    fn into_tuples_moves_the_tuples_out_in_order() {
        let r = rel();
        let expected = r.tuples().to_vec();
        assert_eq!(r.into_tuples(), expected);
    }

    #[test]
    fn renamed_keeps_contents() {
        let r = rel().renamed("a2");
        assert_eq!(r.name(), "a2");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn display_lists_tuples() {
        let s = rel().to_string();
        assert!(s.contains("Ann"));
        assert!(s.contains("Jim"));
    }
}
