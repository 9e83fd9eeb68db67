//! The database catalog: named relations, the lineage symbol table and base
//! probabilities.

use crate::error::StorageError;
use crate::relation::TpRelation;
use crate::schema::Schema;
use crate::tuple::TpTuple;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tpdb_lineage::{Lineage, MarginalMap, ProbabilityEngine, SymbolTable, VarId};
use tpdb_temporal::Interval;

/// The catalog of a TP database.
///
/// The catalog owns
///
/// * the registered base relations (shared, read-mostly — guarded by a
///   [`RwLock`] so that the query engine can scan relations from multiple
///   operator threads),
/// * the [`SymbolTable`] assigning one lineage variable per base tuple, and
/// * the marginal probabilities of those variables.
///
/// It plays the role of the PostgreSQL system catalog in the paper's
/// implementation.
///
/// Every mutation of the relation set (register, create, drop) bumps the
/// catalog's **schema epoch** ([`schema_epoch`](Self::schema_epoch)), a
/// monotonic counter that cached query plans are keyed on: a plan prepared
/// against epoch `e` is stale — and must be re-validated — once the
/// catalog reports an epoch other than `e`.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: RwLock<HashMap<String, Arc<TpRelation>>>,
    symbols: SymbolTable,
    /// One entry per base tuple, in the map type the probability engine
    /// prices from and behind an `Arc`, so every engine handed out shares
    /// it ([`probability_engine`](Self::probability_engine)); mutations go
    /// through `Arc::make_mut`, which copies only while an engine still
    /// holds the previous version.
    probabilities: Arc<MarginalMap>,
    /// Monotonic counter of relation-set mutations (the plan-cache key).
    epoch: u64,
}

/// The relation map guarded by the catalog lock.
type RelationMap = HashMap<String, Arc<TpRelation>>;

impl Clone for Catalog {
    /// Deep-clones the catalog metadata while sharing the relation data:
    /// the clone gets its own relation map, symbol table and epoch counter,
    /// but the `Arc<TpRelation>` payloads and the marginal map (until one
    /// side writes) are shared. This
    /// is the copy-on-write step of [`crate::SharedCatalog::update`]: a
    /// mutation clones the current catalog, applies its change and swaps
    /// the result in, so pinned readers keep an immutable view.
    fn clone(&self) -> Self {
        // A poisoned lock is recovered with `into_inner`: the map cannot be
        // observed torn (its mutations are single `HashMap` calls), and
        // `Clone` has no error channel. Same justification as
        // `relation_names`.
        let relations = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Self {
            relations: RwLock::new(relations),
            symbols: self.symbols.clone(),
            probabilities: Arc::clone(&self.probabilities),
            epoch: self.epoch,
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the relation map; a poisoned lock surfaces as
    /// [`StorageError::CatalogPoisoned`].
    fn read_relations(&self) -> Result<RwLockReadGuard<'_, RelationMap>, StorageError> {
        self.relations
            .read()
            .map_err(|_| StorageError::CatalogPoisoned)
    }

    /// Write access to the relation map; a poisoned lock surfaces as
    /// [`StorageError::CatalogPoisoned`].
    fn write_relations(&self) -> Result<RwLockWriteGuard<'_, RelationMap>, StorageError> {
        self.relations
            .write()
            .map_err(|_| StorageError::CatalogPoisoned)
    }

    /// Starts building a new base relation. Tuples pushed through the
    /// returned [`RelationBuilder`] are assigned fresh atomic lineage
    /// variables named `<relation><ordinal>` (e.g. `a1`, `a2`, ...), exactly
    /// like the running example of the paper.
    pub fn create_relation(
        &mut self,
        name: &str,
        schema: Schema,
    ) -> Result<RelationBuilder<'_>, StorageError> {
        if self.read_relations()?.contains_key(name) {
            return Err(StorageError::RelationExists(name.to_owned()));
        }
        Ok(RelationBuilder {
            catalog: self,
            relation: TpRelation::new(name, schema),
            error: None,
        })
    }

    /// Registers an externally built relation (e.g. produced by a generator
    /// or an operator) under its own name. Atomic lineages already present
    /// in the relation are registered with their tuple probabilities.
    pub fn register(&mut self, relation: TpRelation) -> Result<(), StorageError> {
        let name = relation.name().to_owned();
        if self.read_relations()?.contains_key(&name) {
            return Err(StorageError::RelationExists(name));
        }
        let probabilities = Arc::make_mut(&mut self.probabilities);
        for t in relation.iter() {
            if let Some(v) = t.lazy_lineage().as_var() {
                probabilities.insert(v, t.probability());
            }
        }
        self.write_relations()?.insert(name, Arc::new(relation));
        self.epoch += 1;
        Ok(())
    }

    /// The current schema epoch: a monotonic counter bumped on every
    /// mutation of the relation set. Query-layer plan caches compare the
    /// epoch a plan was prepared under with the current value to detect
    /// staleness.
    #[must_use]
    pub fn schema_epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Result<Arc<TpRelation>, StorageError> {
        self.read_relations()?
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_owned()))
    }

    /// Removes a relation from the catalog.
    pub fn drop_relation(&mut self, name: &str) -> Result<(), StorageError> {
        self.write_relations()?
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownRelation(name.to_owned()))?;
        self.epoch += 1;
        Ok(())
    }

    /// Names of all registered relations (sorted).
    ///
    /// Infallible by design: a poisoned lock is recovered with
    /// [`PoisonError::into_inner`] — the map cannot be observed torn (its
    /// mutations are single `HashMap` calls), and a read-only listing must
    /// not fail an otherwise healthy session.
    #[must_use]
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The lineage symbol table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table (used by generators that intern
    /// their own variables).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// The registered probability of a base-tuple variable.
    #[must_use]
    pub fn probability_of(&self, var: VarId) -> Option<f64> {
        self.probabilities.get(&var).copied()
    }

    /// A [`ProbabilityEngine`] over every base-tuple probability known to
    /// the catalog. The engine shares the catalog's map — an `Arc` clone,
    /// whatever the number of base tuples; every value in it was
    /// range-checked when its tuple was pushed or its snapshot decoded.
    #[must_use]
    pub fn probability_engine(&self) -> ProbabilityEngine {
        ProbabilityEngine::with_marginals(Arc::clone(&self.probabilities))
    }

    /// The full marginal-probability map (snapshot serialization support).
    pub(crate) fn marginals(&self) -> &MarginalMap {
        &self.probabilities
    }

    /// Atomically replaces the catalog's entire contents — symbol table,
    /// marginals and relation set — and bumps the schema epoch once. This is
    /// the commit point of [`Catalog::load_snapshot`]: the caller fully
    /// decodes and validates a snapshot first, so a failed load never leaves
    /// the catalog partially mutated.
    pub(crate) fn replace_contents(
        &mut self,
        symbols: SymbolTable,
        probabilities: MarginalMap,
        relations: Vec<TpRelation>,
    ) -> Result<(), StorageError> {
        let map: RelationMap = relations
            .into_iter()
            .map(|r| (r.name().to_owned(), Arc::new(r)))
            .collect();
        *self.write_relations()? = map;
        self.symbols = symbols;
        self.probabilities = Arc::new(probabilities);
        self.epoch += 1;
        Ok(())
    }
}

/// Incremental builder for base relations registered in a [`Catalog`].
#[derive(Debug)]
pub struct RelationBuilder<'a> {
    catalog: &'a mut Catalog,
    relation: TpRelation,
    error: Option<StorageError>,
}

impl RelationBuilder<'_> {
    /// Appends a base tuple with the given facts, validity interval and
    /// probability. A fresh lineage variable `<relation><ordinal>` is
    /// interned for it. Errors are deferred until [`RelationBuilder::finish`]
    /// / [`RelationBuilder::try_finish`] so pushes can be chained.
    pub fn push(&mut self, facts: Vec<Value>, interval: Interval, probability: f64) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        let ordinal = self.relation.len() + 1;
        let symbol = format!("{}{}", self.relation.name(), ordinal);
        let var = self.catalog.symbols.intern(&symbol);
        let tuple = TpTuple::new(facts, Lineage::var(var), interval, probability);
        if let Err(e) = self.relation.push(tuple) {
            self.error = Some(e);
        } else {
            Arc::make_mut(&mut self.catalog.probabilities).insert(var, probability);
        }
        self
    }

    /// Finalizes the relation, registers it in the catalog and returns a
    /// shared handle.
    ///
    /// # Panics
    /// Panics if any push failed; use [`RelationBuilder::try_finish`] to
    /// handle errors.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the panic is this method's documented contract; the fallible sibling is `try_finish`"
    )]
    pub fn finish(self) -> Arc<TpRelation> {
        self.try_finish().expect("relation construction failed")
    }

    /// Finalizes the relation, surfacing any deferred error.
    pub fn try_finish(self) -> Result<Arc<TpRelation>, StorageError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let name = self.relation.name().to_owned();
        let arc = Arc::new(self.relation);
        self.catalog
            .write_relations()?
            .insert(name, Arc::clone(&arc));
        self.catalog.epoch += 1;
        Ok(arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Schema {
        Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)])
    }

    #[test]
    fn build_base_relation_with_atomic_lineages() {
        let mut c = Catalog::new();
        let mut b = c.create_relation("a", schema()).unwrap();
        b.push(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Interval::new(2, 8),
            0.7,
        )
        .push(
            vec![Value::str("Jim"), Value::str("WEN")],
            Interval::new(7, 10),
            0.8,
        );
        let a = b.finish();
        assert_eq!(a.len(), 2);
        // symbols a1, a2 were interned and probabilities recorded
        let a1 = c.symbols().lookup("a1").unwrap();
        let a2 = c.symbols().lookup("a2").unwrap();
        assert_eq!(c.probability_of(a1), Some(0.7));
        assert_eq!(c.probability_of(a2), Some(0.8));
        assert_eq!(a.tuple(0).lineage(), &Lineage::var(a1));
    }

    #[test]
    fn duplicate_relation_names_are_rejected() {
        let mut c = Catalog::new();
        let _ = c.create_relation("a", schema()).unwrap().finish();
        assert!(matches!(
            c.create_relation("a", schema()),
            Err(StorageError::RelationExists(_))
        ));
    }

    #[test]
    fn lookup_and_drop() {
        let mut c = Catalog::new();
        let _ = c.create_relation("a", schema()).unwrap().finish();
        assert!(c.relation("a").is_ok());
        assert_eq!(c.relation_names(), vec!["a".to_owned()]);
        c.drop_relation("a").unwrap();
        assert!(matches!(
            c.relation("a"),
            Err(StorageError::UnknownRelation(_))
        ));
        assert!(c.drop_relation("a").is_err());
    }

    #[test]
    fn builder_defers_errors_until_finish() {
        let mut c = Catalog::new();
        let mut b = c.create_relation("a", schema()).unwrap();
        b.push(vec![Value::str("Ann")], Interval::new(2, 8), 0.7); // wrong arity
        assert!(b.try_finish().is_err());
    }

    #[test]
    fn schema_epoch_bumps_on_every_relation_set_mutation() {
        let mut c = Catalog::new();
        assert_eq!(c.schema_epoch(), 0);
        let _ = c.create_relation("a", schema()).unwrap().finish();
        assert_eq!(c.schema_epoch(), 1);
        c.register(TpRelation::new("b", schema())).unwrap();
        assert_eq!(c.schema_epoch(), 2);
        c.drop_relation("a").unwrap();
        assert_eq!(c.schema_epoch(), 3);
        // failed mutations do not bump the epoch
        assert!(c.drop_relation("a").is_err());
        assert!(c.register(TpRelation::new("b", schema())).is_err());
        assert!(c.create_relation("b", schema()).is_err());
        assert_eq!(c.schema_epoch(), 3);
    }

    #[test]
    fn register_external_relation_records_probabilities() {
        let mut c = Catalog::new();
        let v = c.symbols_mut().intern("x1");
        let mut r = TpRelation::new("x", schema());
        r.push(TpTuple::new(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Lineage::var(v),
            Interval::new(0, 5),
            0.25,
        ))
        .unwrap();
        c.register(r).unwrap();
        assert_eq!(c.probability_of(v), Some(0.25));
        let engine = c.probability_engine();
        assert_eq!(engine.get(v), Some(0.25));
    }

    #[test]
    fn probability_engine_contains_all_base_vars() {
        let mut c = Catalog::new();
        let mut b = c.create_relation("a", schema()).unwrap();
        b.push(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Interval::new(2, 8),
            0.7,
        );
        let _ = b.finish();
        let mut engine = c.probability_engine();
        let a1 = c.symbols().lookup("a1").unwrap();
        assert!((engine.probability(&Lineage::var(a1)) - 0.7).abs() < 1e-12);
    }
}
