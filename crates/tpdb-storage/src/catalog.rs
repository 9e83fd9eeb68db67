//! The database catalog: named relations, the lineage symbol table and base
//! probabilities.

use crate::error::StorageError;
use crate::relation::TpRelation;
use crate::schema::Schema;
use crate::tuple::TpTuple;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use tpdb_lineage::{Lineage, LineageArena, MarginalMap, ProbabilityEngine, SymbolTable, VarId};
use tpdb_temporal::Interval;

/// The catalog of a TP database.
///
/// The catalog owns
///
/// * the registered base relations, each behind an `Arc` that scans and
///   clones share, and each with the overlap join's probe indexes it has
///   been probed with ([`TpRelation::probe_index`]): the first statement
///   that probes a stored relation on a column list builds that index, and
///   every later statement and catalog clone shares it until the relation
///   is dropped or replaced,
/// * the [`SymbolTable`] assigning one lineage variable per base tuple,
/// * the marginal probabilities of the variables its relations carry —
///   one per variable: every atomic tuple of every relation carries its
///   variable's marginal, which [`register`](Self::register) and snapshot
///   loading enforce, a [`RelationBuilder`] gives fresh variables, and
///   [`drop_relation`](Self::drop_relation) takes the marginals no
///   remaining relation carries, and
/// * the [`LineageArena`] of its current contents, built on first use.
///
/// It plays the role of the PostgreSQL system catalog in the paper's
/// implementation.
///
/// Every mutation of the relation set (register, create, drop) bumps the
/// catalog's **schema epoch** ([`schema_epoch`](Self::schema_epoch)), a
/// monotonic counter that cached query plans are keyed on: a plan prepared
/// against epoch `e` is stale — and must be re-validated — once the
/// catalog reports an epoch other than `e`. A mutation also drops the
/// arena; the next [`probability_engine`](Self::probability_engine) builds
/// the new epoch's.
///
/// The catalog holds no lock: every mutation takes `&mut self`, and
/// threads share a catalog only through the immutable `Arc<Catalog>`
/// snapshots of a [`SharedCatalog`](crate::SharedCatalog), whose
/// [`update`](crate::SharedCatalog::update) mutates a private clone.
/// `Clone` copies the relation map — one entry per relation — and shares
/// the relation payloads with their probe indexes, the symbol table, the
/// marginal map and the arena (until one side writes), so it allocates per
/// relation, never per tuple. A relation taken out of the catalog and
/// cloned (or [`renamed`](TpRelation::renamed), or
/// [`filter`](TpRelation::filter)ed) is a value of its own and has no
/// probe memo.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: HashMap<String, Arc<TpRelation>>,
    /// Behind an `Arc` with copy-on-write through `Arc::make_mut`, like
    /// `probabilities`: a clone shares it until one side interns a name.
    symbols: Arc<SymbolTable>,
    /// One entry per base tuple, in the map type the probability engine
    /// prices from and behind an `Arc`, so every engine handed out shares
    /// it ([`probability_engine`](Self::probability_engine)); mutations go
    /// through `Arc::make_mut`, which copies only while an engine still
    /// holds the previous version.
    probabilities: Arc<MarginalMap>,
    /// Monotonic counter of relation-set mutations (the plan-cache key).
    epoch: u64,
    /// The stored columns and marginals of the current contents, interned
    /// and priced once: built by the first
    /// [`probability_engine`](Self::probability_engine) after a mutation,
    /// so that importing eight relations builds it once, not eight times.
    arena: OnceLock<Arc<LineageArena>>,
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a new base relation. Tuples pushed through the
    /// returned [`RelationBuilder`] are assigned fresh atomic lineage
    /// variables named `<relation><ordinal>` (e.g. `a1`, `a2`, ...), exactly
    /// like the running example of the paper ([`RelationBuilder::push`]).
    pub fn create_relation(
        &mut self,
        name: &str,
        schema: Schema,
    ) -> Result<RelationBuilder<'_>, StorageError> {
        if self.relations.contains_key(name) {
            return Err(StorageError::RelationExists(name.to_owned()));
        }
        Ok(RelationBuilder {
            catalog: self,
            relation: TpRelation::new(name, schema),
            symbol: String::new(),
            error: None,
        })
    }

    /// Registers an externally built relation (e.g. produced by a generator
    /// or an operator) under its own name. Atomic lineages already present
    /// in the relation are registered with their tuple probabilities.
    ///
    /// # Errors
    ///
    /// [`StorageError::RelationExists`], and
    /// [`StorageError::ConflictingMarginal`] when an atomic tuple's
    /// probability differs from its variable's marginal — the catalog's,
    /// or another atomic tuple's of the relation. Either leaves the
    /// catalog and its epoch unchanged.
    pub fn register(&mut self, relation: TpRelation) -> Result<(), StorageError> {
        self.insert(relation).map(drop)
    }

    /// [`register`](Self::register), returning the shared handle.
    fn insert(&mut self, mut relation: TpRelation) -> Result<Arc<TpRelation>, StorageError> {
        let name = relation.name().to_owned();
        if self.relations.contains_key(&name) {
            return Err(StorageError::RelationExists(name));
        }
        let fresh = atomic_marginals(&self.probabilities, [&relation])?;
        if !fresh.is_empty() {
            Arc::make_mut(&mut self.probabilities).extend(fresh);
        }
        relation.memoize_probes();
        let relation = Arc::new(relation);
        self.relations.insert(name, Arc::clone(&relation));
        self.bump();
        Ok(relation)
    }

    /// Records a mutation: the epoch moves on and the arena is dropped.
    fn bump(&mut self) {
        self.epoch += 1;
        self.arena = OnceLock::new();
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
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_owned()))
    }

    /// Removes a relation from the catalog, with the marginals of the
    /// variables no remaining relation carries: a later relation may give
    /// them other probabilities.
    pub fn drop_relation(&mut self, name: &str) -> Result<(), StorageError> {
        let dropped = self
            .relations
            .remove(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_owned()))?;
        let mut orphans: HashSet<VarId> = dropped
            .iter()
            .flat_map(|t| t.lineage().vars())
            .filter(|v| self.probabilities.contains_key(v))
            .collect();
        if !orphans.is_empty() {
            for tuple in self.relations.values().flat_map(|r| r.iter()) {
                for var in tuple.lineage().vars() {
                    orphans.remove(&var);
                }
            }
            Arc::make_mut(&mut self.probabilities).retain(|v, _| !orphans.contains(v));
        }
        self.bump();
        Ok(())
    }

    /// Names of all registered relations (sorted).
    #[must_use]
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
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
        Arc::make_mut(&mut self.symbols)
    }

    /// The registered probability of a base-tuple variable.
    #[must_use]
    pub fn probability_of(&self, var: VarId) -> Option<f64> {
        self.probabilities.get(&var).copied()
    }

    /// A [`ProbabilityEngine`] over the catalog's lineage arena: every
    /// base-tuple probability and every stored relation's lineage column,
    /// interned and priced once per schema epoch and shared — an `Arc`
    /// clone, whatever the number of base tuples. The first call after a
    /// mutation builds the arena; every value in it was range-checked when
    /// its tuple was pushed or its snapshot decoded. A statement's join or
    /// set operation over stored relations then finds their columns in the
    /// arena ([`ProbabilityEngine::column`]) and registers nothing.
    #[must_use]
    pub fn probability_engine(&self) -> ProbabilityEngine {
        let arena = self.arena.get_or_init(|| Arc::new(self.build_arena()));
        ProbabilityEngine::over(Arc::clone(arena))
    }

    /// Interns every stored relation's lineage column, in name order, into
    /// a fresh arena over the catalog's marginals.
    fn build_arena(&self) -> LineageArena {
        let mut stored: Vec<&Arc<TpRelation>> = self.relations.values().collect();
        stored.sort_by(|a, b| a.name().cmp(b.name()));
        let mut builder = LineageArena::builder(Arc::clone(&self.probabilities));
        for relation in stored {
            let lineages = relation.tuples().iter().map(TpTuple::lazy_lineage);
            builder.column(Arc::clone(relation) as _, lineages);
        }
        builder.finish()
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
    ) {
        self.relations = relations
            .into_iter()
            .map(|mut r| {
                r.memoize_probes();
                (r.name().to_owned(), Arc::new(r))
            })
            .collect();
        self.symbols = Arc::new(symbols);
        self.probabilities = Arc::new(probabilities);
        self.bump();
    }
}

/// The marginals that the atomic tuples of `relations` give variables
/// `registered` has none for — or [`StorageError::ConflictingMarginal`]
/// when an atomic tuple's probability differs from its variable's marginal
/// in `registered`, or from another atomic tuple's of the same variable.
pub(crate) fn atomic_marginals<'a>(
    registered: &MarginalMap,
    relations: impl IntoIterator<Item = &'a TpRelation>,
) -> Result<MarginalMap, StorageError> {
    let mut fresh = MarginalMap::default();
    for tuple in relations.into_iter().flat_map(TpRelation::iter) {
        let Some(var) = tuple.lazy_lineage().as_var() else {
            continue;
        };
        let found = tuple.probability();
        let marginal = match registered.get(&var) {
            Some(&p) => p,
            None => *fresh.entry(var).or_insert(found),
        };
        if marginal.to_bits() != found.to_bits() {
            return Err(StorageError::ConflictingMarginal {
                var,
                marginal,
                found,
            });
        }
    }
    Ok(fresh)
}

/// Incremental builder for base relations registered in a [`Catalog`].
#[derive(Debug)]
pub struct RelationBuilder<'a> {
    catalog: &'a mut Catalog,
    relation: TpRelation,
    /// The name being interned, rewritten in place by every push.
    symbol: String,
    error: Option<StorageError>,
}

impl RelationBuilder<'_> {
    /// Appends a base tuple with the given facts, validity interval and
    /// probability. A fresh lineage variable `<relation><ordinal>` is
    /// interned for it — with a `'` appended for as long as the variable
    /// already has a marginal, i.e. a stored relation carries it (relation
    /// `a`'s eleventh tuple and relation `a1`'s first are both `a11`).
    /// Errors are deferred until [`RelationBuilder::finish`] /
    /// [`RelationBuilder::try_finish`] so pushes can be chained.
    pub fn push(&mut self, facts: Vec<Value>, interval: Interval, probability: f64) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        let ordinal = self.relation.len() + 1;
        self.symbol.clear();
        self.symbol.push_str(self.relation.name());
        let _ = write!(self.symbol, "{ordinal}");
        let symbols = Arc::make_mut(&mut self.catalog.symbols);
        let mut var = symbols.intern(&self.symbol);
        while self.catalog.probabilities.contains_key(&var) {
            self.symbol.push('\'');
            var = symbols.intern(&self.symbol);
        }
        let tuple = TpTuple::new(facts, Lineage::var(var), interval, probability);
        if let Err(e) = self.relation.push(tuple) {
            self.error = Some(e);
        }
        self
    }

    /// Reserves room for `additional` more tuples and their symbols.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.relation.reserve(additional);
        Arc::make_mut(&mut self.catalog.symbols).reserve(additional);
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

    /// Finalizes the relation and registers it, with its tuples'
    /// marginals, surfacing any deferred error.
    pub fn try_finish(self) -> Result<Arc<TpRelation>, StorageError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.catalog.insert(self.relation)
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
    fn register_refuses_a_second_marginal_for_a_variable() {
        let tuple = |var, p| {
            let facts = vec![Value::str("Ann"), Value::str("ZAK")];
            TpTuple::new(facts, Lineage::var(VarId(var)), Interval::new(0, 5), p)
        };
        let relation = |name, tuples: Vec<TpTuple>| {
            let mut r = TpRelation::new(name, schema());
            tuples.into_iter().for_each(|t| r.push(t).unwrap());
            r
        };
        let mut c = Catalog::new();
        c.register(relation("x", vec![tuple(1, 0.25)])).unwrap();
        let engine = c.probability_engine();
        let epoch = c.schema_epoch();
        // The same variable under another probability, in a later relation
        // or twice in one, is refused; the catalog stays as it was.
        for tuples in [
            vec![tuple(2, 0.5), tuple(1, 0.3)],
            vec![tuple(3, 0.5), tuple(3, 0.6)],
        ] {
            let refused = c.register(relation("y", tuples));
            assert!(
                matches!(refused, Err(StorageError::ConflictingMarginal { .. })),
                "{refused:?}"
            );
            assert_eq!(c.schema_epoch(), epoch);
            assert_eq!(c.relation_names(), ["x"]);
            assert_eq!(c.probability_of(VarId(2)), None);
            assert_eq!(c.probability_of(VarId(3)), None);
        }
        assert_eq!(
            c.register(relation("y", vec![tuple(1, 0.3)])),
            Err(StorageError::ConflictingMarginal {
                var: VarId(1),
                marginal: 0.25,
                found: 0.3
            })
        );
        assert_eq!(engine.get(VarId(1)), Some(0.25));
        // The same variable under the same probability is one marginal.
        c.register(relation("y", vec![tuple(1, 0.25)])).unwrap();
        assert_eq!(c.probability_of(VarId(1)), Some(0.25));
    }

    #[test]
    fn a_dropped_relation_takes_the_marginals_no_other_relation_carries() {
        let tuple = |lineage, p| {
            let facts = vec![Value::str("Ann"), Value::str("ZAK")];
            TpTuple::new(facts, lineage, Interval::new(0, 5), p)
        };
        let atomic = |name, vars: &[(u32, f64)]| {
            let mut r = TpRelation::new(name, schema());
            for &(v, p) in vars {
                r.push(tuple(Lineage::var(VarId(v)), p)).unwrap();
            }
            r
        };
        let mut c = Catalog::new();
        c.register(atomic("x", &[(1, 0.25)])).unwrap();
        c.register(atomic("y", &[(2, 0.5), (3, 0.6)])).unwrap();
        let mut derived = TpRelation::new("d", schema());
        let both = Lineage::and2(Lineage::var(VarId(2)), Lineage::var(VarId(3)));
        derived.push(tuple(both, 0.3)).unwrap();
        c.register(derived).unwrap();

        // Regenerated under other probabilities after a drop: accepted.
        c.drop_relation("x").unwrap();
        assert_eq!(c.probability_of(VarId(1)), None);
        c.register(atomic("x", &[(1, 0.75)])).unwrap();
        assert_eq!(c.probability_of(VarId(1)), Some(0.75));
        // `d` still carries x2 and x3, so their marginals stay.
        c.drop_relation("y").unwrap();
        assert_eq!(c.probability_of(VarId(2)), Some(0.5));
        assert!(matches!(
            c.register(atomic("z", &[(2, 0.9)])),
            Err(StorageError::ConflictingMarginal { .. })
        ));

        // A dropped relation re-created under its name reuses its symbols.
        let row = || vec![Value::str("Ann"), Value::str("ZAK")];
        let mut builder = c.create_relation("a", schema()).unwrap();
        builder.push(row(), Interval::new(0, 5), 0.7);
        let first = builder.finish();
        c.drop_relation("a").unwrap();
        let mut builder = c.create_relation("a", schema()).unwrap();
        builder.push(row(), Interval::new(0, 5), 0.2);
        let second = builder.finish();
        assert_eq!(first.tuple(0).lineage(), second.tuple(0).lineage());
        let a1 = c.symbols().lookup("a1").unwrap();
        assert_eq!(second.tuple(0).lineage(), &Lineage::var(a1));
        assert_eq!(c.probability_of(a1), Some(0.2));
    }

    #[test]
    fn each_mutation_drops_the_arena_and_a_clone_shares_it() {
        let mut c = Catalog::new();
        let _ = c.create_relation("a", schema()).unwrap().finish();
        let arena = |c: &Catalog| Arc::clone(c.arena.get_or_init(|| Arc::new(c.build_arena())));
        let first = arena(&c);
        assert!(Arc::ptr_eq(&first, &arena(&c)), "built once per epoch");
        let clone = c.clone();
        assert!(Arc::ptr_eq(&first, &arena(&clone)));
        c.register(TpRelation::new("b", schema())).unwrap();
        let second = arena(&c);
        assert!(!Arc::ptr_eq(&first, &second));
        c.drop_relation("b").unwrap();
        assert!(!Arc::ptr_eq(&second, &arena(&c)));
        assert!(
            Arc::ptr_eq(&first, &arena(&clone)),
            "the clone keeps its own"
        );
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
