//! Sessions: prepared statements, parameter binding, plan caching and
//! streaming execution.

use crate::cursor::ResultCursor;
use crate::exec::execute_plan;
use crate::plan::LogicalPlan;
use crate::planner::{explain, plan_query};
use crate::shared_cache::{run_prepared, PlanCache, PreparedPlan};
use crate::TpdbError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tpdb_storage::{Catalog, DataType, Schema, TpRelation, TpTuple, Value};

/// Upper bound on cached plans per session; the oldest entry is evicted
/// first (FIFO) once the cache is full.
const MAX_CACHED_PLANS: usize = 128;

/// A TP database session: a catalog of relations plus the standard
/// database front-end contract — *prepare once, bind many, stream
/// results*.
///
/// * [`prepare`](Self::prepare) parses and validates a statement **once**
///   and returns a [`PreparedQuery`] that can be executed many times with
///   different `$n` parameter bindings.
/// * Parsed plans are cached per session, keyed by the normalized query
///   text and the catalog's schema epoch — re-preparing (or re-executing)
///   the same text skips the parser and validator entirely, and any
///   catalog mutation invalidates the affected entries automatically.
///   [`stats`](Self::stats) exposes the hit/miss counters; `EXPLAIN`
///   output reports them too.
/// * [`query`](Self::query) opens a streaming [`ResultCursor`] that yields
///   tuples as they leave the join pipeline instead of materializing the
///   result; [`execute`](Self::execute) is the materializing counterpart.
///
/// Every method returns the unified [`TpdbError`].
///
/// ```
/// use tpdb_query::Session;
/// use tpdb_storage::{Catalog, Value};
///
/// let mut catalog = Catalog::new();
/// let (a, b) = tpdb_datagen::booking_example();
/// catalog.register(a).unwrap();
/// catalog.register(b).unwrap();
/// let session = Session::new(catalog);
///
/// // Prepare once; bind and execute many times.
/// let stmt = session
///     .prepare("SELECT Name FROM a TP ANTI JOIN b ON a.Loc = b.Loc WHERE Name = $1")
///     .unwrap();
/// let ann = stmt.execute(&[Value::str("Ann")]).unwrap();
/// let jim = stmt.execute(&[Value::str("Jim")]).unwrap();
/// assert_eq!(ann.len(), 4);
/// assert_eq!(jim.len(), 1);
///
/// // The one-shot path shares the plan cache: this is a cache hit.
/// let again = session
///     .execute_with(
///         "SELECT Name FROM a TP ANTI JOIN b ON a.Loc = b.Loc WHERE Name = $1",
///         &[Value::str("Jim")],
///     )
///     .unwrap();
/// assert_eq!(again, jim);
/// assert!(session.stats().cache_hits >= 1);
/// ```
#[derive(Debug)]
pub struct Session {
    catalog: Catalog,
    /// The session's private [`PlanCache`] of `MAX_CACHED_PLANS` plans.
    cache: PlanCache,
    /// `prepare` calls served (a statistic; publishes no other data).
    prepared: AtomicU64,
    /// Statements executed (a statistic; publishes no other data).
    executions: AtomicU64,
}

/// Counters of a session's plan cache and execution activity
/// ([`Session::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Plan-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Plan-cache lookups that had to parse + validate (including lookups
    /// invalidated by a schema-epoch change).
    pub cache_misses: u64,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// `prepare` calls served (cached or not).
    pub statements_prepared: u64,
    /// Statements executed (materializing and cursor openings alike).
    pub executions: u64,
}

impl Session {
    /// Creates a session over an existing catalog.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            cache: PlanCache::new(MAX_CACHED_PLANS),
            prepared: AtomicU64::new(0),
            executions: AtomicU64::new(0),
        }
    }

    /// The underlying catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (to register or drop relations).
    /// Mutating the relation set bumps the catalog's schema epoch, which
    /// invalidates every cached plan prepared before the change.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Ignored; kept for source compatibility. Every statement runs on the
    /// calling thread whatever degree is asked for.
    pub fn set_parallelism(&mut self, _degree: usize) {}

    /// Counts one executed statement.
    fn count_execution(&self) {
        self.executions.fetch_add(1, Ordering::Relaxed);
    }

    /// Parses, validates and caches a statement, returning a handle that
    /// executes it with bound parameter values. Preparing the same
    /// (whitespace-normalized) text again is answered from the plan cache
    /// without re-parsing, until a catalog mutation invalidates the entry.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery<'_>, TpdbError> {
        let plan = self.cached_plan(text)?;
        self.prepared.fetch_add(1, Ordering::Relaxed);
        Ok(PreparedQuery {
            session: self,
            plan,
        })
    }

    /// One-shot execution of a statement without parameters, returning the
    /// materialized result relation. Repeated calls with the same text hit
    /// the plan cache and skip parse + validation.
    ///
    /// `SAVE SNAPSHOT '<path>'` executes here too (it only reads the
    /// catalog); `LOAD SNAPSHOT` mutates the catalog and therefore needs
    /// [`execute_statement`](Self::execute_statement).
    pub fn execute(&self, text: &str) -> Result<TpRelation, TpdbError> {
        self.execute_with(text, &[])
    }

    /// Executes a statement that may mutate the catalog — the entry point
    /// for `LOAD SNAPSHOT '<path>'`, which atomically replaces the
    /// catalog's contents (and thereby invalidates every cached plan via
    /// the schema epoch). Every other statement, `SAVE SNAPSHOT` included,
    /// behaves exactly as under [`execute`](Self::execute).
    ///
    /// Returns the statement summary: snapshot statements report one
    /// `(Relation, Tuples)` row per relation written or loaded.
    pub fn execute_statement(&mut self, text: &str) -> Result<TpRelation, TpdbError> {
        let prepared = self.cached_plan(text)?;
        match &prepared.plan {
            LogicalPlan::LoadSnapshot { path } => {
                self.catalog.load_snapshot(path)?;
                self.count_execution();
                snapshot_summary(&self.catalog)
            }
            _ => self.run_prepared(&prepared, &[]),
        }
    }

    /// One-shot execution with `$n` parameter values (`params[0]` binds
    /// `$1`).
    pub fn execute_with(&self, text: &str, params: &[Value]) -> Result<TpRelation, TpdbError> {
        let plan = self.cached_plan(text)?;
        self.run_prepared(&plan, params)
    }

    /// Opens a streaming [`ResultCursor`] over a statement without
    /// parameters. See [`query_with`](Self::query_with).
    pub fn query(&self, text: &str) -> Result<ResultCursor, TpdbError> {
        self.query_with(text, &[])
    }

    /// Opens a streaming [`ResultCursor`] with `$n` parameter values: the
    /// result is produced tuple by tuple from the streaming join pipeline;
    /// nothing is materialized unless the cursor is drained.
    pub fn query_with(&self, text: &str, params: &[Value]) -> Result<ResultCursor, TpdbError> {
        let plan = self.cached_plan(text)?;
        self.open_cursor(&plan, params)
    }

    /// Executes an already-built logical plan (no text, no cache).
    pub fn run(&self, plan: &LogicalPlan) -> Result<TpRelation, TpdbError> {
        self.count_execution();
        execute_plan(&self.catalog, plan)
    }

    /// Returns the `EXPLAIN` output of a statement without executing it:
    /// the logical and physical plans, the open `$n` parameter slots of a
    /// parameterized statement, and the state of the session's plan cache.
    /// The lookup itself goes through the cache, so explaining and then
    /// executing a statement costs one parse.
    pub fn explain(&self, text: &str) -> Result<String, TpdbError> {
        let plan = self.cached_plan(text)?;
        let mut out = explain(&self.catalog, &plan.plan)?;
        out.push_str(&self.cache_line());
        Ok(out)
    }

    /// A snapshot of the session's plan-cache and execution counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let cache = self.cache.stats();
        SessionStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cached_plans: cache.entries,
            statements_prepared: self.prepared.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
        }
    }

    /// The `Plan cache:` line appended to `EXPLAIN` output.
    fn cache_line(&self) -> String {
        let s = self.stats();
        format!(
            "Plan cache: {} hit(s), {} miss(es), {} cached plan(s)\n",
            s.cache_hits, s.cache_misses, s.cached_plans
        )
    }

    /// Looks up (or parses, validates and caches) the plan of `text`.
    fn cached_plan(&self, text: &str) -> Result<Arc<PreparedPlan>, TpdbError> {
        self.cache.get_or_prepare(&self.catalog, text)
    }

    /// Binds parameters and executes to a materialized relation, counting
    /// the statements that complete.
    fn run_prepared(
        &self,
        prepared: &PreparedPlan,
        params: &[Value],
    ) -> Result<TpRelation, TpdbError> {
        let result = run_prepared(&self.catalog, prepared, params);
        if result.is_ok() {
            self.count_execution();
        }
        result
    }

    /// Binds parameters and opens a streaming cursor: the first tuple does
    /// not wait for the full result.
    fn open_cursor(
        &self,
        prepared: &PreparedPlan,
        params: &[Value],
    ) -> Result<ResultCursor, TpdbError> {
        if prepared.plan.is_utility() {
            return Err(TpdbError::Storage(
                tpdb_storage::StorageError::PlanNotApplicable {
                    plan: "snapshot".to_owned(),
                    reason: "utility statements produce no result stream; execute them instead"
                        .to_owned(),
                },
            ));
        }
        let bound = prepared.plan.bind_parameters(params)?;
        self.count_execution();
        let op = plan_query(&self.catalog, &bound)?;
        Ok(ResultCursor::new(op))
    }
}

/// The result relation of a snapshot statement: one `(Relation, Tuples)`
/// row per catalog relation, so scripts can see what a SAVE wrote or a
/// LOAD brought in without a follow-up query. Public so the server
/// front-end renders the same summaries as an in-process session.
pub fn snapshot_summary(catalog: &Catalog) -> Result<TpRelation, TpdbError> {
    let schema = Schema::tp(&[("Relation", DataType::Str), ("Tuples", DataType::Int)]);
    let mut summary = TpRelation::new("snapshot", schema);
    for name in catalog.relation_names() {
        let tuples = i64::try_from(catalog.relation(&name)?.len()).unwrap_or(i64::MAX);
        summary.push(TpTuple::new(
            vec![Value::str(&name), Value::Int(tuples)],
            tpdb_lineage::Lineage::tru(),
            tpdb_temporal::Interval::always(),
            1.0,
        ))?;
    }
    Ok(summary)
}

/// A statement prepared by [`Session::prepare`]: parsed and validated
/// once, executable many times with different parameter bindings.
///
/// The handle borrows its session (the catalog outlives every statement).
/// Executing binds one [`Value`] per `$n` slot, in order: `params[0]`
/// binds `$1`.
///
/// ```
/// use tpdb_query::Session;
/// use tpdb_storage::{Catalog, Value};
///
/// let mut catalog = Catalog::new();
/// let (a, b) = tpdb_datagen::booking_example();
/// catalog.register(a).unwrap();
/// catalog.register(b).unwrap();
/// let session = Session::new(catalog);
///
/// let stmt = session.prepare("SELECT * FROM a WHERE Loc = $1").unwrap();
/// assert_eq!(stmt.parameter_count(), 1);
///
/// // Materializing execution ...
/// let zak = stmt.execute(&[Value::str("ZAK")]).unwrap();
/// assert_eq!(zak.len(), 1);
///
/// // ... or a streaming cursor over the same statement.
/// let rows: Vec<_> = stmt
///     .query(&[Value::str("WEN")])
///     .unwrap()
///     .map(Result::unwrap)
///     .collect();
/// assert_eq!(rows.len(), 1);
/// ```
#[derive(Debug)]
pub struct PreparedQuery<'s> {
    session: &'s Session,
    plan: Arc<PreparedPlan>,
}

impl PreparedQuery<'_> {
    /// The number of `$n` parameter slots the statement expects.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.plan.parameters
    }

    /// Executes the statement with the given parameter values and returns
    /// the materialized result. No parsing or validation happens here —
    /// both were done once, at prepare time.
    pub fn execute(&self, params: &[Value]) -> Result<TpRelation, TpdbError> {
        self.session.run_prepared(&self.plan, params)
    }

    /// Opens a streaming [`ResultCursor`] over the statement with the
    /// given parameter values.
    pub fn query(&self, params: &[Value]) -> Result<ResultCursor, TpdbError> {
        self.session.open_cursor(&self.plan, params)
    }

    /// The `EXPLAIN` output of the statement with its placeholders
    /// unbound: the logical plan prints the `$n` slots and a `Parameters:`
    /// line reports how many values an execution must bind.
    pub fn explain(&self) -> Result<String, TpdbError> {
        let mut out = explain(&self.session.catalog, &self.plan.plan)?;
        out.push_str(&self.session.cache_line());
        Ok(out)
    }

    /// The `EXPLAIN` output of the statement with `params` bound: the plan
    /// is printed with the bound values in place of the placeholders, and
    /// a `Parameters:` line lists each binding.
    pub fn explain_bound(&self, params: &[Value]) -> Result<String, TpdbError> {
        let bound = self.plan.plan.bind_parameters(params)?;
        let mut out = explain(&self.session.catalog, &bound)?;
        if !params.is_empty() {
            let bindings: Vec<String> = params
                .iter()
                .enumerate()
                .map(|(i, v)| format!("${} = {}", i + 1, crate::expr::Operand::Literal(v.clone())))
                .collect();
            out.push_str(&format!("Parameters: {}\n", bindings.join(", ")));
        }
        out.push_str(&self.session.cache_line());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::shared_cache::normalize_text;
    use tpdb_storage::{DataType, Schema};

    fn session() -> Session {
        let mut catalog = Catalog::new();
        let (a, b) = tpdb_datagen::booking_example();
        catalog.register(a).unwrap();
        catalog.register(b).unwrap();
        Session::new(catalog)
    }

    #[test]
    fn execute_matches_the_paper_result() {
        let s = session();
        let result = s
            .execute("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
            .unwrap();
        assert_eq!(result.len(), 7);
    }

    #[test]
    fn repeated_execution_hits_the_plan_cache() {
        let s = session();
        let q = "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc";
        let first = s.execute(q).unwrap();
        assert_eq!(
            s.stats(),
            SessionStats {
                cache_hits: 0,
                cache_misses: 1,
                cached_plans: 1,
                statements_prepared: 0,
                executions: 1
            }
        );
        // reformatted text normalizes to the same cache key
        let second = s
            .execute("  SELECT *   FROM a TP ANTI JOIN b\n ON a.Loc = b.Loc ")
            .unwrap();
        assert_eq!(first, second);
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.executions, 2);
    }

    #[test]
    fn prepared_statements_bind_parameters() {
        let s = session();
        let stmt = s
            .prepare("SELECT Name FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = $1")
            .unwrap();
        assert_eq!(stmt.parameter_count(), 1);
        let ann = stmt.execute(&[Value::str("Ann")]).unwrap();
        let jim = stmt.execute(&[Value::str("Jim")]).unwrap();
        assert_eq!(ann.len() + jim.len(), 7);
        // wrong arity is rejected before execution
        assert!(matches!(
            stmt.execute(&[]),
            Err(TpdbError::ParameterCount {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            stmt.execute(&[Value::str("Ann"), Value::str("Jim")]),
            Err(TpdbError::ParameterCount {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn prepare_validates_against_the_catalog_up_front() {
        let s = session();
        // not a statement at all
        assert!(s.prepare("not a query").is_err());
        // unknown relation
        assert!(s.prepare("SELECT * FROM missing").is_err());
        // unknown column inside a parameterized predicate
        assert!(s.prepare("SELECT * FROM a WHERE Nope = $1").is_err());
        // a join under the TA strategy prepares like any other
        assert!(s
            .prepare("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc STRATEGY TA")
            .is_ok());
    }

    #[test]
    fn a_failed_prepare_counts_a_miss_and_caches_nothing() {
        let s = session();
        assert!(s.execute("SELECT * FROM missing").is_err());
        assert!(s.prepare("SELECT * FROM missing").is_err());
        assert_eq!(
            s.stats(),
            SessionStats {
                cache_hits: 0,
                cache_misses: 2,
                cached_plans: 0,
                statements_prepared: 0,
                executions: 0
            }
        );
    }

    #[test]
    fn catalog_mutation_invalidates_cached_plans() {
        let mut s = session();
        let q = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc";
        s.execute(q).unwrap();
        s.execute(q).unwrap();
        assert_eq!(s.stats().cache_hits, 1);

        // any relation-set mutation bumps the schema epoch ...
        let extra = TpRelation::new("extra", Schema::tp(&[("X", DataType::Int)]));
        s.catalog_mut().register(extra).unwrap();

        // ... so the next lookup is a miss (revalidation), then hits again
        s.execute(q).unwrap();
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        s.execute(q).unwrap();
        assert_eq!(s.stats().cache_hits, 2);
    }

    #[test]
    fn dropping_a_relation_invalidates_and_surfaces_the_error() {
        let mut s = session();
        let q = "SELECT * FROM a";
        s.execute(q).unwrap();
        s.catalog_mut().drop_relation("a").unwrap();
        // the stale cached plan is not reused: re-validation fails loudly
        match s.execute(q) {
            Err(TpdbError::Storage(e)) => assert!(e.to_string().contains("unknown relation")),
            other => panic!("expected unknown relation, got {other:?}"),
        }
    }

    #[test]
    fn cursor_streams_and_collects_identically() {
        let s = session();
        let q = "SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc";
        let materialized = s.execute(q).unwrap();
        let collected = s.query(q).unwrap().collect().unwrap();
        assert_eq!(collected, materialized);
        // manual drain agrees too, tuple by tuple
        let mut cursor = s.query(q).unwrap();
        let mut manual = Vec::new();
        for t in &mut cursor {
            manual.push(t.unwrap());
        }
        assert_eq!(manual.len(), materialized.len());
        assert_eq!(cursor.fetched(), materialized.len());
        assert_eq!(manual, materialized.tuples().to_vec());
    }

    #[test]
    fn explain_reports_parameters_and_cache_state() {
        let s = session();
        let q = "SELECT * FROM a WHERE Loc = $1";
        let text = s.explain(q).unwrap();
        assert!(text.contains("Filter (Loc = $1)"), "{text}");
        assert!(text.contains("Parameters: 1 unbound slot(s)"), "{text}");
        assert!(text.contains("Plan cache: 0 hit(s), 1 miss(es)"), "{text}");

        let stmt = s.prepare(q).unwrap();
        let bound = stmt.explain_bound(&[Value::str("ZAK")]).unwrap();
        assert!(bound.contains("Filter (Loc = 'ZAK')"), "{bound}");
        assert!(bound.contains("$1 = 'ZAK'"), "{bound}");
        // the prepare above was answered from the cache
        assert!(bound.contains("1 hit(s)"), "{bound}");
    }

    #[test]
    fn unbound_parameters_cannot_sneak_into_execution() {
        let s = session();
        let q = "SELECT * FROM a WHERE Loc = $1";
        assert!(matches!(
            s.execute(q),
            Err(TpdbError::ParameterCount {
                expected: 1,
                got: 0
            })
        ));
        // run() on a hand-built parameterized plan fails at binding
        let plan = parse_query(q).unwrap();
        assert!(matches!(
            s.run(&plan),
            Err(TpdbError::UnboundParameter { index: 1 })
        ));
    }

    #[test]
    fn set_operations_flow_through_the_session_with_zero_special_cases() {
        // Prepared statements, plan caching, stats, EXPLAIN and cursors all
        // work on set-operation text exactly as they do on joins.
        let mut catalog = Catalog::new();
        let (r, s) = tpdb_datagen::meteo_like(300, 5);
        catalog.register(r.clone()).unwrap();
        catalog.register(s.clone()).unwrap();
        let session = Session::new(catalog);

        let q = "SELECT * FROM meteo_r UNION SELECT * FROM meteo_s";
        let reference = tpdb_core::tp_union(&r, &s).unwrap();

        // one-shot (miss), re-execution (hit)
        let first = session.execute(q).unwrap();
        assert_eq!(first.tuples(), reference.tuples());
        let second = session.execute(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(session.stats().cache_hits, 1);

        // prepared handle shares the cached plan
        let stmt = session.prepare(q).unwrap();
        assert_eq!(stmt.parameter_count(), 0);
        assert_eq!(stmt.execute(&[]).unwrap().tuples(), reference.tuples());

        // cursor streaming agrees tuple by tuple
        let collected = session.query(q).unwrap().collect().unwrap();
        assert_eq!(collected.tuples(), reference.tuples());

        // EXPLAIN prints both plans and the cache line
        let text = session.explain(q).unwrap();
        assert!(text.contains("SetOp UNION (∪)"), "{text}");
        assert!(text.contains("SetOp UNION [∪] over"), "{text}");
        assert!(text.contains("Plan cache:"), "{text}");

        // parameterized set operations prepare and bind like any statement
        let stmt = session
            .prepare(
                "SELECT * FROM meteo_r WHERE Metric = $1 \
                 EXCEPT SELECT * FROM meteo_s WHERE Metric = $1",
            )
            .unwrap();
        assert_eq!(stmt.parameter_count(), 1);
        let bound = stmt.execute(&[Value::Int(0)]).unwrap();
        assert!(bound.iter().all(|t| t.fact(1) == &Value::Int(0)));
    }

    #[test]
    fn union_incompatible_set_operations_fail_at_prepare_time() {
        let s = session(); // booking: a(Name, Loc) vs b(Hotel, Loc)
        match s.prepare("SELECT * FROM a UNION SELECT * FROM b") {
            Err(TpdbError::Storage(e)) => {
                let text = e.to_string();
                assert!(text.contains("union-compatible"), "{text}");
                assert!(text.contains("column Name"), "{text}");
            }
            other => panic!("expected UnionIncompatible, got {other:?}"),
        }
        // projecting both sides onto the shared column makes them compatible
        assert!(s
            .prepare("SELECT Loc FROM a UNION SELECT Loc FROM b")
            .is_ok());
    }

    #[test]
    fn normalization_preserves_whitespace_inside_string_literals() {
        // reformatting outside literals is key-equivalent ...
        assert_eq!(
            normalize_text("  SELECT *\n FROM   a "),
            normalize_text("SELECT * FROM a")
        );
        // ... but whitespace inside a literal is part of the value
        assert_ne!(
            normalize_text("SELECT * FROM a WHERE Loc = 'A  B'"),
            normalize_text("SELECT * FROM a WHERE Loc = 'A B'")
        );
        assert_eq!(
            normalize_text("SELECT * FROM a WHERE Loc = 'A \t B'"),
            "SELECT * FROM a WHERE Loc = 'A \t B'"
        );
    }

    #[test]
    fn literals_differing_only_in_whitespace_do_not_collide_in_the_cache() {
        // Regression: the cache key once collapsed whitespace inside
        // string literals, so these two queries shared one cached plan and
        // the second silently returned the first one's rows.
        let mut s = Session::new(Catalog::new());
        let mut rel = TpRelation::new("a", Schema::tp(&[("Loc", DataType::Str)]));
        for (loc, p) in [("A  B", 0.5), ("A B", 0.25)] {
            rel.push_unchecked(tpdb_storage::TpTuple::new(
                vec![Value::str(loc)],
                tpdb_lineage::Lineage::tru(),
                tpdb_temporal::Interval::new(0, 1),
                p,
            ));
        }
        s.catalog_mut().register(rel).unwrap();

        let wide = s.execute("SELECT * FROM a WHERE Loc = 'A  B'").unwrap();
        let narrow = s.execute("SELECT * FROM a WHERE Loc = 'A B'").unwrap();
        assert_eq!(wide.len(), 1);
        assert_eq!(narrow.len(), 1);
        assert_eq!(wide.tuple(0).fact(0), &Value::str("A  B"));
        assert_eq!(narrow.tuple(0).fact(0), &Value::str("A B"));
        // two distinct cache entries, no false hit
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cached_plans, 2);
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let s = session();
        for i in 0..(MAX_CACHED_PLANS + 10) {
            let q = format!("SELECT * FROM a WHERE Loc = 'L{i}'");
            s.execute(&q).unwrap();
        }
        assert_eq!(s.stats().cached_plans, MAX_CACHED_PLANS);
    }

    /// A scratch snapshot path unique to this test process.
    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tpdb-session-{tag}-{}.snap", std::process::id()))
    }

    #[test]
    fn save_and_load_snapshot_round_trip_through_statements() {
        let path = scratch("roundtrip");
        let s = session();
        let before = s
            .execute("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
            .unwrap();
        // SAVE runs through the ordinary read-only path and reports one
        // (Relation, Tuples) row per relation, in name order.
        let summary = s
            .execute(&format!("SAVE SNAPSHOT '{}'", path.display()))
            .unwrap();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary.tuples()[0].facts()[0], Value::str("a"));
        assert_eq!(summary.tuples()[1].facts()[0], Value::str("b"));

        // LOAD replaces a fresh catalog and answers the same query
        // identically.
        let mut empty = Session::new(Catalog::new());
        let loaded = empty
            .execute_statement(&format!("LOAD SNAPSHOT '{}'", path.display()))
            .unwrap();
        assert_eq!(loaded.len(), 2);
        let after = empty
            .execute("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
            .unwrap();
        assert_eq!(before, after);
        #[expect(clippy::disallowed_methods, reason = "the test cleans up its snapshot")]
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_snapshot_needs_the_mutating_entry_point() {
        let s = session();
        let err = s.execute("LOAD SNAPSHOT '/tmp/nope.snap'").unwrap_err();
        assert!(
            matches!(
                &err,
                TpdbError::Storage(tpdb_storage::StorageError::PlanNotApplicable { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn snapshot_statements_do_not_stream() {
        let s = session();
        let err = s.query("SAVE SNAPSHOT '/tmp/nope.snap'").unwrap_err();
        assert!(err.to_string().contains("no result stream"), "{err}");
    }

    #[test]
    fn explain_describes_snapshot_statements() {
        let s = session();
        let save = s.explain("SAVE SNAPSHOT '/tmp/x.snap'").unwrap();
        assert!(
            save.contains("SnapshotWrite '/tmp/x.snap' (2 relation(s))"),
            "{save}"
        );
        let load = s.explain("LOAD SNAPSHOT '/tmp/x.snap'").unwrap();
        assert!(load.contains("SnapshotRead"), "{load}");
    }

    #[test]
    fn snapshot_statements_reject_missing_or_empty_paths() {
        let s = session();
        assert!(s.execute("SAVE SNAPSHOT").is_err());
        assert!(s.execute("SAVE SNAPSHOT ''").is_err());
        assert!(s.execute("LOAD SNAPSHOT 42").is_err());
        // a failed write surfaces as the typed io error, not a panic
        let err = s
            .execute("SAVE SNAPSHOT '/nonexistent-dir/x.snap'")
            .unwrap_err();
        assert!(
            matches!(
                &err,
                TpdbError::Storage(tpdb_storage::StorageError::SnapshotIo { .. })
            ),
            "{err}"
        );
    }
}
