//! Physical operators (Volcano iterator model) and plan execution.
//!
//! Every operator implements [`PhysicalOperator`] and produces its output
//! one tuple at a time through `next()`. Scans, filters and projections are
//! fully streaming. The TP window operator (joins and set operations)
//! materializes its two inputs (the windows need the complete negative
//! relation — exactly as the hash/merge join of a conventional DBMS
//! materializes its build side) and then produces output tuples lazily: the
//! NJ machinery drives the streaming [`TpJoinStream`] pipeline tuple by
//! tuple on the caller's thread. The TA strategy runs the
//! alignment baseline.
//!
//! Operators yield `Result` items: any error cuts the stream short and is
//! reported as the single unified [`TpdbError`].

use crate::expr::BoundPredicate;
use crate::plan::{JoinStrategy, LogicalPlan};
use crate::TpdbError;
use std::sync::Arc;
use tpdb_core::{CompareOp, ThetaCondition, TpJoinKind, TpJoinStream, TpSetOpKind};
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{Catalog, Schema, TpRelation, TpTuple};

/// A Volcano-style physical operator.
///
/// `Send` is a supertrait: a boxed pipeline (and therefore a
/// [`crate::ResultCursor`]) can move to a server worker thread and execute
/// there. Operators hold `Arc`'d relations and owned iterator state — no
/// `Rc`/`RefCell` — so the bound costs implementors nothing.
pub trait PhysicalOperator: Send {
    /// The fact schema of the tuples this operator produces.
    fn schema(&self) -> &Schema;

    /// Produces the next output tuple, `Some(Err(_))` when execution fails,
    /// or `None` when exhausted.
    fn next(&mut self) -> Option<Result<TpTuple, TpdbError>>;

    /// A short human-readable description (used by `EXPLAIN`).
    fn describe(&self) -> String;

    /// The operator's entire output as an already-stored relation, when it
    /// is a pure scan with no per-tuple work pending (`None` otherwise).
    /// Consumers that materialize their inputs (joins, set operations) use
    /// this to skip the tuple-by-tuple copy of a base relation.
    fn as_relation(&self) -> Option<Arc<TpRelation>> {
        None
    }

    /// Drains the operator into a materialized relation.
    fn collect(&mut self, name: &str) -> Result<TpRelation, TpdbError> {
        let mut rel = TpRelation::new(name, self.schema().clone());
        while let Some(t) = self.next() {
            rel.push_unchecked(t?);
        }
        Ok(rel)
    }

    /// Materializes the operator's output, reusing the stored relation when
    /// the operator is a pure scan ([`PhysicalOperator::as_relation`]) and
    /// draining into a fresh relation named `name` otherwise.
    fn materialize(&mut self, name: &str) -> Result<Arc<TpRelation>, TpdbError> {
        match self.as_relation() {
            Some(rel) => Ok(rel),
            None => Ok(Arc::new(self.collect(name)?)),
        }
    }
}

/// Sequential scan over a stored relation.
pub struct ScanExec {
    relation: Arc<TpRelation>,
    cursor: usize,
}

impl ScanExec {
    /// Creates a scan over `relation`.
    #[must_use]
    pub fn new(relation: Arc<TpRelation>) -> Self {
        Self {
            relation,
            cursor: 0,
        }
    }
}

impl PhysicalOperator for ScanExec {
    fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    fn next(&mut self) -> Option<Result<TpTuple, TpdbError>> {
        let t = self.relation.tuples().get(self.cursor)?.clone();
        self.cursor += 1;
        Some(Ok(t))
    }

    fn as_relation(&self) -> Option<Arc<TpRelation>> {
        // Only while untouched: a partially drained scan no longer
        // represents its full output.
        (self.cursor == 0).then(|| Arc::clone(&self.relation))
    }

    fn describe(&self) -> String {
        format!(
            "Scan {} ({} tuples)",
            self.relation.name(),
            self.relation.len()
        )
    }
}

/// Streaming filter.
///
/// Over a fresh scan it reads the stored tuples by reference, visits a
/// list of candidate positions in relation order, tests every predicate on
/// each candidate and clones only the matches. The candidates are every
/// position, or, when the relation is stored in a catalog
/// ([`TpRelation::memoizes_probes`]) and a predicate is an `=`, the
/// positions of the first such predicate's literal in the relation's
/// memoized probe index on that column ([`TpRelation::probe_index`]), read
/// at the first pull. A NULL literal matches nothing and reads no index.
/// Over any other input it filters the tuples the input produces.
pub struct FilterExec {
    input: Box<dyn PhysicalOperator>,
    predicates: Vec<BoundPredicate>,
    /// The input's stored relation and the candidates still to test, when
    /// the input is a fresh scan; the input itself is then never pulled.
    stored: Option<Stored>,
}

/// A fresh scan's relation as a filter reads it.
struct Stored {
    relation: Arc<TpRelation>,
    /// The `=` predicate whose column's index yields the candidates.
    lookup: Option<usize>,
    /// The candidate positions, ascending; `None` until the first pull
    /// reads the index, and when there is no lookup (every position is a
    /// candidate).
    positions: Option<Vec<usize>>,
    /// How many candidates were tested.
    cursor: usize,
}

impl Stored {
    /// The next candidate position.
    fn next_candidate(&mut self) -> Option<usize> {
        let position = match &self.positions {
            Some(positions) => *positions.get(self.cursor)?,
            None => self.cursor,
        };
        self.cursor += 1;
        Some(position)
    }
}

impl FilterExec {
    /// Creates a filter over `input`.
    #[must_use]
    pub fn new(input: Box<dyn PhysicalOperator>, predicates: Vec<BoundPredicate>) -> Self {
        let stored = input.as_relation().map(|relation| Stored {
            lookup: relation
                .memoizes_probes()
                .then(|| predicates.iter().position(|p| p.op == CompareOp::Eq))
                .flatten(),
            relation,
            positions: None,
            cursor: 0,
        });
        Self {
            input,
            predicates,
            stored,
        }
    }
}

/// Does `tuple` satisfy every predicate?
fn satisfies(predicates: &[BoundPredicate], tuple: &TpTuple) -> bool {
    predicates.iter().all(|p| p.matches(tuple))
}

impl PhysicalOperator for FilterExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<Result<TpTuple, TpdbError>> {
        if let Some(stored) = &mut self.stored {
            let lookup = stored.lookup.and_then(|i| self.predicates.get(i));
            if let (Some(p), None) = (lookup, &stored.positions) {
                let mut positions: Vec<usize> = if p.literal.is_null() {
                    Vec::new()
                } else {
                    let index = stored.relation.probe_index(&[p.column]);
                    let key = std::slice::from_ref(&p.literal);
                    index.positions(key).collect()
                };
                positions.sort_unstable();
                stored.positions = Some(positions);
            }
            while let Some(position) = stored.next_candidate() {
                let tuple = stored.relation.tuples().get(position)?;
                if satisfies(&self.predicates, tuple) {
                    return Some(Ok(tuple.clone()));
                }
            }
            return None;
        }
        loop {
            match self.input.next()? {
                Ok(t) => {
                    if satisfies(&self.predicates, &t) {
                        return Some(Ok(t));
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn describe(&self) -> String {
        let schema = self.input.schema();
        let rendered: Vec<String> = self.predicates.iter().map(|p| p.render(schema)).collect();
        let lookup = self
            .stored
            .as_ref()
            .and_then(|s| self.predicates.get(s.lookup?))
            .map(|p| format!(" by index on {}", schema.fields()[p.column].name))
            .unwrap_or_default();
        format!(
            "Filter ({}){lookup} -> {}",
            rendered.join(" AND "),
            self.input.describe()
        )
    }
}

/// Streaming projection onto a subset of the fact columns.
pub struct ProjectExec {
    input: Box<dyn PhysicalOperator>,
    indices: Vec<usize>,
    schema: Schema,
}

impl ProjectExec {
    /// Creates a projection keeping `indices` of the input schema.
    #[must_use]
    pub fn new(input: Box<dyn PhysicalOperator>, indices: Vec<usize>) -> Self {
        let fields: Vec<tpdb_storage::Field> = indices
            .iter()
            .map(|&i| input.schema().fields()[i].clone())
            .collect();
        let schema = Schema::new(fields);
        Self {
            input,
            indices,
            schema,
        }
    }
}

impl PhysicalOperator for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<TpTuple, TpdbError>> {
        let t = match self.input.next()? {
            Ok(t) => t,
            Err(e) => return Some(Err(e)),
        };
        let facts = self.indices.iter().map(|&i| t.fact(i).clone()).collect();
        Some(Ok(TpTuple::with_lazy_lineage(
            facts,
            t.lazy_lineage().clone(),
            t.interval(),
            t.probability(),
        )))
    }

    fn describe(&self) -> String {
        format!(
            "Project ({} cols) -> {}",
            self.indices.len(),
            self.input.describe()
        )
    }
}

/// Which window operator a [`WindowOpExec`] runs: a TP join (which adds θ
/// and the choice of the TA baseline) or a TP set operation.
pub enum WindowOp {
    /// A TP join with negation under θ, by the NJ or the TA strategy.
    Join {
        /// The join condition.
        theta: ThetaCondition,
        /// Which join.
        kind: TpJoinKind,
        /// NJ window pipeline or the Temporal Alignment baseline.
        strategy: JoinStrategy,
    },
    /// `UNION` / `INTERSECT` / `EXCEPT` under all-attribute equality
    /// (NJ machinery only).
    SetOp(TpSetOpKind),
}

/// Execution state of the window operator.
enum OpState {
    /// Inputs not yet materialized.
    Pending,
    /// Producing output: lazily out of the NJ streaming pipeline, or from
    /// the materialized TA result.
    Running(Box<dyn Iterator<Item = TpTuple> + Send>),
    /// Exhausted, or an error was already reported.
    Done,
}

/// The TP window operator: joins and set operations (`UNION` / `INTERSECT`
/// / `EXCEPT`). The two inputs are materialized when the first output tuple
/// is requested — the operators need the complete negative side to build
/// windows. Output tuples are then produced lazily through
/// [`TpJoinStream`] (NJ), or streamed from the materialized TA result.
pub struct WindowOpExec {
    left: Box<dyn PhysicalOperator>,
    right: Box<dyn PhysicalOperator>,
    op: WindowOp,
    /// The engine over the catalog's lineage arena, made by the planner and
    /// taken at start: a stored input's lineage column, its marginals and
    /// its certification facts are the arena's, so the operator registers
    /// and interns nothing for it. A *derived* input (a `WHERE` result, a
    /// set-operation result such as `r UNION s` under `... EXCEPT r`) is
    /// interned into the engine's own nodes, where its base-tuple
    /// variables find the arena's marginals.
    base_engine: ProbabilityEngine,
    schema: Schema,
    state: OpState,
}

impl WindowOpExec {
    /// Creates a window operator producing `schema`, the planner's output
    /// schema of `op` over the two inputs. `base_engine` is the engine over
    /// the catalog's lineage arena
    /// ([`tpdb_storage::Catalog::probability_engine`]), which holds every
    /// base-tuple probability, so stored inputs arrive interned and derived
    /// inputs with compound lineages can be priced.
    #[must_use]
    pub fn new(
        left: Box<dyn PhysicalOperator>,
        right: Box<dyn PhysicalOperator>,
        op: WindowOp,
        schema: Schema,
        base_engine: ProbabilityEngine,
    ) -> Self {
        Self {
            left,
            right,
            op,
            base_engine,
            schema,
            state: OpState::Pending,
        }
    }

    /// Materializes the inputs and starts the operator. Scan children hand
    /// over their stored relation without a tuple-by-tuple copy.
    fn start(&mut self) -> Result<OpState, TpdbError> {
        let left = self.left.materialize("left")?;
        let right = self.right.materialize("right")?;
        if let WindowOp::Join {
            theta,
            kind,
            strategy: JoinStrategy::Ta,
        } = &self.op
        {
            let result = tpdb_ta::ta_join(&left, &right, theta, *kind)?;
            return Ok(OpState::Running(Box::new(result.into_tuples().into_iter())));
        }
        let engine = std::mem::take(&mut self.base_engine);
        let stream = match &self.op {
            WindowOp::Join { theta, kind, .. } => {
                TpJoinStream::with_engine(left, right, theta, *kind, engine)?
            }
            WindowOp::SetOp(kind) => TpJoinStream::set_op_with_engine(left, right, *kind, engine)?,
        };
        Ok(OpState::Running(Box::new(stream)))
    }
}

impl PhysicalOperator for WindowOpExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<TpTuple, TpdbError>> {
        if matches!(self.state, OpState::Pending) {
            match self.start() {
                Ok(state) => self.state = state,
                Err(e) => {
                    self.state = OpState::Done;
                    return Some(Err(e));
                }
            }
        }
        match &mut self.state {
            OpState::Running(tuples) => tuples.next().map(Ok),
            OpState::Pending | OpState::Done => None,
        }
    }

    fn describe(&self) -> String {
        let inputs = format!("[{}; {}]", self.left.describe(), self.right.describe());
        match &self.op {
            WindowOp::Join {
                theta,
                kind,
                strategy,
            } => format!(
                "TpJoin {} [{strategy}] ({theta}) over {inputs}",
                kind.symbol()
            ),
            WindowOp::SetOp(kind) => {
                format!("SetOp {kind} [{}] over {inputs}", kind.symbol())
            }
        }
    }
}

/// Plans and executes a logical plan against a catalog, returning the
/// materialized result relation.
pub fn execute_plan(catalog: &Catalog, plan: &LogicalPlan) -> Result<TpRelation, TpdbError> {
    let mut root = crate::planner::plan_query(catalog, plan)?;
    root.collect("result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LiteralPredicate;
    use crate::planner::plan_query;
    use tpdb_core::CompareOp;
    use tpdb_storage::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let (a, b) = tpdb_datagen::booking_example();
        c.register(a).unwrap();
        c.register(b).unwrap();
        c
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let c = catalog();
        let plan = LogicalPlan::scan("a")
            .filter(vec![LiteralPredicate::new(
                "Loc",
                CompareOp::Eq,
                Value::str("ZAK"),
            )])
            .project(vec!["Name".to_owned()]);
        let result = execute_plan(&c, &plan).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuple(0).fact(0), &Value::str("Ann"));
        assert_eq!(result.schema().arity(), 1);
        // probability and interval survive the projection
        assert!((result.tuple(0).probability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn nj_join_plan_produces_paper_result() {
        let c = catalog();
        let plan = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Loc", "Loc"),
            TpJoinKind::LeftOuter,
            JoinStrategy::Nj,
        );
        let result = execute_plan(&c, &plan).unwrap();
        assert_eq!(result.len(), 7);
    }

    #[test]
    fn ta_strategy_gives_same_cardinality() {
        let c = catalog();
        let mk = |strategy| {
            LogicalPlan::scan("a").tp_join(
                LogicalPlan::scan("b"),
                ThetaCondition::column_equals("Loc", "Loc"),
                TpJoinKind::LeftOuter,
                strategy,
            )
        };
        let nj = execute_plan(&c, &mk(JoinStrategy::Nj)).unwrap();
        let ta = execute_plan(&c, &mk(JoinStrategy::Ta)).unwrap();
        assert_eq!(nj.len(), ta.len());
    }

    #[test]
    fn join_then_filter_then_project() {
        let c = catalog();
        let plan = LogicalPlan::scan("a")
            .tp_join(
                LogicalPlan::scan("b"),
                ThetaCondition::column_equals("Loc", "Loc"),
                TpJoinKind::LeftOuter,
                JoinStrategy::Nj,
            )
            .filter(vec![LiteralPredicate::new(
                "Hotel",
                CompareOp::Eq,
                Value::str("hotel1"),
            )])
            .project(vec!["Name".to_owned(), "Hotel".to_owned()]);
        let result = execute_plan(&c, &plan).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuple(0).fact(1), &Value::str("hotel1"));
    }

    #[test]
    fn anti_join_schema_has_only_left_columns() {
        let c = catalog();
        let plan = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Loc", "Loc"),
            TpJoinKind::Anti,
            JoinStrategy::Nj,
        );
        let result = execute_plan(&c, &plan).unwrap();
        assert_eq!(result.schema().arity(), 2);
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn set_operations_match_the_core_functions() {
        // The booking relations are not union-compatible (different
        // schemas), so run the set ops on a self-union-compatible pair.
        let mut c = Catalog::new();
        let (r, s) = tpdb_datagen::meteo_like(400, 3);
        c.register(r.clone()).unwrap();
        c.register(s.clone()).unwrap();
        for (kind, reference) in [
            (TpSetOpKind::Union, tpdb_core::tp_union(&r, &s).unwrap()),
            (
                TpSetOpKind::Intersection,
                tpdb_core::tp_intersection(&r, &s).unwrap(),
            ),
            (
                TpSetOpKind::Difference,
                tpdb_core::tp_difference(&r, &s).unwrap(),
            ),
        ] {
            let plan = LogicalPlan::scan("meteo_r").set_op(kind, LogicalPlan::scan("meteo_s"));
            let result = execute_plan(&c, &plan).unwrap();
            assert_eq!(result.tuples(), reference.tuples(), "{kind}");
            assert_eq!(result.schema(), reference.schema(), "{kind} schema");
        }
    }

    #[test]
    fn set_op_streams_tuple_by_tuple_when_serial() {
        let mut c = Catalog::new();
        let (r, s) = tpdb_datagen::meteo_like(400, 3);
        let expected = tpdb_core::tp_union(&r, &s).unwrap();
        c.register(r).unwrap();
        c.register(s).unwrap();
        let plan =
            LogicalPlan::scan("meteo_r").set_op(TpSetOpKind::Union, LogicalPlan::scan("meteo_s"));
        let mut op = plan_query(&c, &plan).unwrap();
        let mut n = 0;
        while let Some(t) = op.next() {
            assert!(t.is_ok());
            n += 1;
        }
        assert_eq!(n, expected.len());
        assert!(op.next().is_none(), "exhausted operators stay exhausted");
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let c = catalog();
        let plan = LogicalPlan::scan("nope");
        assert!(execute_plan(&c, &plan).is_err());
    }

    #[test]
    fn join_operator_streams_tuple_by_tuple() {
        // Pulling from the operator directly: the NJ path yields tuples one
        // at a time through the streaming pipeline.
        let c = catalog();
        let plan = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Loc", "Loc"),
            TpJoinKind::LeftOuter,
            JoinStrategy::Nj,
        );
        let mut op = plan_query(&c, &plan).unwrap();
        let mut n = 0;
        while let Some(t) = op.next() {
            assert!(t.is_ok());
            n += 1;
        }
        assert_eq!(n, 7);
        assert!(op.next().is_none(), "exhausted operators stay exhausted");
    }

    #[test]
    fn join_schema_is_stable_across_the_first_next() {
        // Regression: the operator used to adopt the core join's schema
        // (`b_Loc`) on start, after parents and cursors had already bound
        // against the planned one (`s_Loc`).
        let c = catalog();
        let join = |strategy| {
            LogicalPlan::scan("a").tp_join(
                LogicalPlan::scan("b"),
                ThetaCondition::column_equals("Loc", "Loc"),
                TpJoinKind::LeftOuter,
                strategy,
            )
        };
        for plan in [join(JoinStrategy::Nj), join(JoinStrategy::Ta)] {
            let mut op = plan_query(&c, &plan).unwrap();
            let before = op.schema().clone();
            assert!(before.index_of("s_Loc").is_some(), "{before:?}");
            assert!(op.next().unwrap().is_ok());
            assert_eq!(op.schema(), &before, "{}", op.describe());
        }
    }

    #[test]
    fn explain_text_of_joins_and_set_ops_is_pinned() {
        let mut c = catalog();
        let (r, s) = tpdb_datagen::meteo_like(50, 3);
        c.register(r).unwrap();
        c.register(s).unwrap();
        let join = |strategy, theta| {
            LogicalPlan::scan("a").tp_join(
                LogicalPlan::scan("b"),
                theta,
                TpJoinKind::LeftOuter,
                strategy,
            )
        };
        let equi = ThetaCondition::column_equals("Loc", "Loc");
        let non_equi = equi.clone().and_compare("Name", CompareOp::Lt, "Hotel");
        let union =
            LogicalPlan::scan("meteo_r").set_op(TpSetOpKind::Union, LogicalPlan::scan("meteo_s"));
        let inputs = "[Scan a (2 tuples); Scan b (3 tuples)]";
        let meteo = "[Scan meteo_r (50 tuples); Scan meteo_s (50 tuples)]";
        for (plan, expected) in [
            (
                join(JoinStrategy::Nj, equi.clone()),
                format!("TpJoin ⟕ [NJ] (r.Loc = s.Loc) over {inputs}"),
            ),
            (
                join(JoinStrategy::Nj, non_equi.clone()),
                format!("TpJoin ⟕ [NJ] (r.Loc = s.Loc ∧ r.Name < s.Hotel) over {inputs}"),
            ),
            (
                join(JoinStrategy::Ta, equi),
                format!("TpJoin ⟕ [TA] (r.Loc = s.Loc) over {inputs}"),
            ),
            (
                join(JoinStrategy::Ta, non_equi),
                format!("TpJoin ⟕ [TA] (r.Loc = s.Loc ∧ r.Name < s.Hotel) over {inputs}"),
            ),
            (union, format!("SetOp UNION [∪] over {meteo}")),
        ] {
            assert_eq!(plan_query(&c, &plan).unwrap().describe(), expected);
        }
    }

    #[test]
    fn describe_mentions_operators() {
        let c = catalog();
        let plan = LogicalPlan::scan("a").tp_join(
            LogicalPlan::scan("b"),
            ThetaCondition::column_equals("Loc", "Loc"),
            TpJoinKind::LeftOuter,
            JoinStrategy::Ta,
        );
        let op = plan_query(&c, &plan).unwrap();
        let d = op.describe();
        assert!(d.contains("TpJoin"));
        assert!(d.contains("TA"));
        assert!(d.contains("Scan a"));
    }
}
