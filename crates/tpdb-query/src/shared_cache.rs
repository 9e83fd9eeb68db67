//! Plan preparation and the plan cache.
//!
//! [`prepare_plan`] is the one parse-and-validate path of the query layer:
//! it turns statement text into a [`PreparedPlan`] — the parsed
//! [`LogicalPlan`], its `$n` parameter-slot count, and the catalog schema
//! epoch the validation ran against. [`PlanCache`] is the one plan cache:
//! one mutex over the map, its FIFO order and its counters, held for a
//! probe or an insert and never while parsing. The server front-end shares
//! one across its connections; a [`crate::Session`] owns a private one.
//!
//! The whitespace-normalized text is the key, and an entry only answers a
//! lookup when its recorded schema epoch matches the reading catalog's
//! current epoch — any DDL or snapshot load invalidates every older entry
//! implicitly.
//!
//! ```
//! use tpdb_query::PlanCache;
//! use tpdb_storage::Catalog;
//!
//! let mut catalog = Catalog::new();
//! let (a, b) = tpdb_datagen::booking_example();
//! catalog.register(a).unwrap();
//! catalog.register(b).unwrap();
//!
//! let cache = PlanCache::new(16);
//! let q = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc";
//! let first = cache.get_or_prepare(&catalog, q).unwrap();
//! let again = cache.get_or_prepare(&catalog, q).unwrap();
//! assert_eq!(first.epoch, again.epoch);
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use crate::exec::execute_plan;
use crate::parser::parse_query;
use crate::plan::LogicalPlan;
use crate::planner::lower_with_null_parameters;
use crate::session::snapshot_summary;
use crate::TpdbError;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tpdb_storage::{Catalog, TpRelation, Value};

/// A statement parsed and validated once: the immutable unit the
/// [`PlanCache`] hands out behind `Arc`s.
#[derive(Debug)]
pub struct PreparedPlan {
    /// The parsed logical plan, `$n` placeholders unbound.
    pub plan: LogicalPlan,
    /// Number of `$n` parameter slots the statement references.
    pub parameters: usize,
    /// Schema epoch of the catalog the plan was validated against; a
    /// catalog reporting any other epoch makes this plan stale.
    pub epoch: u64,
}

/// Binds `params` and executes `prepared` against a catalog the caller
/// only reads — the one bind-and-run path of both front-ends (a
/// [`crate::Session`] over its own catalog, the server over a pinned
/// snapshot). `SAVE SNAPSHOT` runs here and reports its summary; `LOAD
/// SNAPSHOT` replaces the catalog and is refused: each front-end routes it
/// to the catalog it owns before calling this.
pub fn run_prepared(
    catalog: &Catalog,
    prepared: &PreparedPlan,
    params: &[Value],
) -> Result<TpRelation, TpdbError> {
    match &prepared.plan {
        LogicalPlan::SaveSnapshot { path } => {
            catalog.save_snapshot(path)?;
            snapshot_summary(catalog)
        }
        LogicalPlan::LoadSnapshot { .. } => Err(TpdbError::Storage(
            tpdb_storage::StorageError::PlanNotApplicable {
                plan: "LoadSnapshot".to_owned(),
                reason: "LOAD SNAPSHOT replaces the catalog; run it through \
                         Session::execute_statement on an exclusive session"
                    .to_owned(),
            },
        )),
        _ => execute_plan(catalog, &prepared.plan.bind_parameters(params)?),
    }
}

/// Parses and validates `text` against `catalog`, the single
/// parse-and-validate path shared by [`crate::Session::prepare`] and the
/// shared cache. Validation lowers the plan once (with `NULL` stand-ins
/// for parameters), so unknown relations, unknown columns, θ binding
/// failures and union-incompatible set operations all fail here — at
/// prepare time, not at the first execution.
pub fn prepare_plan(catalog: &Catalog, text: &str) -> Result<PreparedPlan, TpdbError> {
    let plan = parse_query(text)?;
    let parameters = plan.parameter_count();
    // Utility statements (snapshot save/load) have no physical plan to
    // probe; everything else validates by lowering once.
    if !plan.is_utility() {
        lower_with_null_parameters(catalog, &plan)?;
    }
    Ok(PreparedPlan {
        plan,
        parameters,
        epoch: catalog.schema_epoch(),
    })
}

/// Normalizes statement text for cache keying: surrounding whitespace is
/// trimmed and internal whitespace runs collapse to a single space, so
/// reformatting a query does not defeat the cache. Whitespace inside
/// `'...'` string literals is copied verbatim — `'A  B'` and `'A B'` are
/// different literals and must not share a cached plan. (Keywords are
/// matched case-insensitively by the parser, but identifiers and literals
/// are case-sensitive — case is therefore preserved here.)
#[must_use]
pub fn normalize_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push(c);
        if c == '\'' {
            // copy the literal (including its whitespace) up to the
            // closing quote; an unterminated literal fails at parse time,
            // before anything is cached
            for q in chars.by_ref() {
                out.push(q);
                if q == '\'' {
                    break;
                }
            }
        }
    }
    out
}

/// Counters of a [`PlanCache`] ([`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (text found, epoch current).
    pub hits: u64,
    /// Lookups that had to parse + validate (including epoch-stale hits).
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// What the cache's mutex guards.
#[derive(Debug, Default)]
struct Entries {
    plans: HashMap<String, Arc<PreparedPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

/// A plan cache that many sessions may share: one mutex-guarded map keyed
/// by normalized statement text ([`normalize_text`]). Entries are
/// validated against the reading catalog's schema epoch on every lookup,
/// so one cache serves sessions pinned at different epochs correctly — a
/// stale entry is re-prepared and replaced in place.
///
/// Eviction is FIFO with a fixed capacity.
#[derive(Debug)]
pub struct PlanCache {
    entries: Mutex<Entries>,
    capacity: usize,
}

impl PlanCache {
    /// Creates a cache of `capacity` plans (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// Looks the statement up (keyed by normalized text, validated against
    /// `catalog`'s schema epoch) or parses, validates and caches it.
    /// Parsing happens outside the lock; a racing prepare of the same text
    /// at worst parses twice and the later insert wins.
    pub fn get_or_prepare(
        &self,
        catalog: &Catalog,
        text: &str,
    ) -> Result<Arc<PreparedPlan>, TpdbError> {
        let key = normalize_text(text);
        let epoch = catalog.schema_epoch();
        {
            let mut entries = self.lock();
            let cached = entries
                .plans
                .get(&key)
                .filter(|entry| entry.epoch == epoch)
                .map(Arc::clone);
            if let Some(entry) = cached {
                entries.hits += 1;
                return Ok(entry);
            }
            entries.misses += 1;
        }
        let prepared = Arc::new(prepare_plan(catalog, text)?);
        let mut entries = self.lock();
        if !entries.plans.contains_key(&key) {
            entries.order.push_back(key.clone());
            if entries.order.len() > self.capacity {
                if let Some(evicted) = entries.order.pop_front() {
                    entries.plans.remove(&evicted);
                }
            }
        }
        entries.plans.insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// A snapshot of the cache's hit/miss counters and current size.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self.lock();
        PlanCacheStats {
            hits: entries.hits,
            misses: entries.misses,
            entries: entries.plans.len(),
        }
    }

    /// Locks the cache. Poisoning is recovered: every mutation is a single
    /// map/deque call or counter bump on `Arc`'d immutable plans, so a
    /// panicking thread cannot leave the cache torn — and a best-effort
    /// cache must never take the server down with it.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_storage::{DataType, Schema, TpRelation};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let (a, b) = tpdb_datagen::booking_example();
        c.register(a).unwrap();
        c.register(b).unwrap();
        c
    }

    #[test]
    fn lookups_hit_after_one_miss_and_survive_reformatting() {
        let c = catalog();
        let cache = PlanCache::new(16);
        let q = "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc";
        cache.get_or_prepare(&c, q).unwrap();
        cache
            .get_or_prepare(&c, "  SELECT *   FROM a\n TP ANTI JOIN b ON a.Loc = b.Loc ")
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn epoch_changes_invalidate_entries_in_place() {
        let mut c = catalog();
        let cache = PlanCache::new(16);
        let q = "SELECT * FROM a";
        let first = cache.get_or_prepare(&c, q).unwrap();
        c.register(TpRelation::new("x", Schema::tp(&[("X", DataType::Int)])))
            .unwrap();
        let second = cache.get_or_prepare(&c, q).unwrap();
        assert_ne!(first.epoch, second.epoch);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        // the refreshed entry answers the next lookup
        cache.get_or_prepare(&c, q).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn dropped_relations_fail_loudly_instead_of_reusing_stale_plans() {
        let mut c = catalog();
        let cache = PlanCache::new(16);
        let q = "SELECT * FROM a";
        cache.get_or_prepare(&c, q).unwrap();
        c.drop_relation("a").unwrap();
        match cache.get_or_prepare(&c, q) {
            Err(TpdbError::Storage(e)) => assert!(e.to_string().contains("unknown relation")),
            other => panic!("expected unknown relation, got {other:?}"),
        }
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let c = catalog();
        let cache = PlanCache::new(8);
        for i in 0..64 {
            let q = format!("SELECT * FROM a WHERE Loc = 'L{i}'");
            cache.get_or_prepare(&c, &q).unwrap();
        }
        assert!(cache.stats().entries <= 8, "{:?}", cache.stats());
    }
}
