//! The TP operators as lazy tuple streams.
//!
//! [`TpJoinStream`] is the one pass runner of the crate: it executes a row
//! of the operator table ([`crate::optable`]) through the streaming window
//! pipeline (`OverlapWindowStream → LawauStream → LawanStream → output
//! formation`) one **output tuple** at a time, instead of collecting the
//! result into a [`TpRelation`]. Its constructors here run the join rows,
//! those in [`crate::setops`] ([`TpJoinStream::set_op`]) the set-operation
//! rows; it is the engine behind the query layer's result cursors: the
//! first output tuple is available after probing a single positive tuple's
//! window group — the full output is never materialized unless the caller
//! drains the stream.
//!
//! A statement is one such run on the caller's thread: the runner takes
//! both lineage columns once per operator ([`ProbabilityEngine::column`]: a
//! stored relation's from the engine's catalog arena, any other input's
//! interned), asks the engine once whether every variable under them has a
//! marginal (the statement fails before its first row otherwise) and
//! whether they make every output root read-once
//! ([`ProbabilityEngine::certify_columns`]), and [`Pipe::build`] binds θ
//! for each pass under the window adaptors the pass needs. A pass takes
//! its probe index when it is first pulled
//! ([`TpRelation::probe_index`]): a stored relation's is built by the first
//! statement that probes it on θ's columns and shared by every later one,
//! so a prepared statement's first output row waits for no index build.
//! Any other input builds one index per pass, and a flipped second pass
//! builds its own only after the first pass is exhausted and dropped.
//!
//! Both input relations are held through one handle type, any
//! [`Borrow`]`<TpRelation>` + [`Clone`], so the stream works with plain
//! references inside a one-shot join (this is how [`crate::tp_join`] itself
//! is implemented) and with `Arc<TpRelation>` in long-lived cursors that
//! must own their inputs; a flipped pass swaps the two handles.

use crate::join::Formation;
use crate::optable::{PassSpec, TpOp};
use crate::overlap::OverlapWindowStream;
use crate::pipeline::{LawanStream, LawauStream};
use crate::theta::ThetaCondition;
use crate::window::Window;
use crate::TpJoinKind;
use std::borrow::{Borrow, BorrowMut};
use std::collections::VecDeque;
use tpdb_lineage::ProbabilityEngine;
use tpdb_storage::{Schema, StorageError, TpRelation, TpTuple};

/// How deep into the window pipeline a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PipeDepth {
    /// Overlapping + whole-interval unmatched windows only (the bare
    /// overlap join: passes that emit `WO` alone need no null-extension).
    Overlap,
    /// Overlap join → LAWAU (the second pass of the union only needs the
    /// unmatched sub-intervals of the right side).
    Unmatched,
    /// The full stack: overlap join → LAWAU → LAWAN.
    Full,
}

/// The overlap join → LAWAU stack (the `Wu` depth of a [`Pipe`]).
type WuStream<R> = LawauStream<OverlapWindowStream<R, R>, R>;

/// One pass of the window pipeline, cut off at a [`PipeDepth`].
// A handful of Pipes exist per statement (one per pass); the size
// difference between the variants is irrelevant at that cardinality.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Pipe<R: Borrow<TpRelation> + Clone> {
    /// Overlapping + whole-interval unmatched windows only.
    Wo(OverlapWindowStream<R, R>),
    /// Overlap join → LAWAU.
    Wu(WuStream<R>),
    /// The full pipeline: overlap join → LAWAU → LAWAN.
    Wuon(LawanStream<WuStream<R>>),
}

impl<R: Borrow<TpRelation> + Clone> Pipe<R> {
    /// Builds the pass pipe for windows of `pos` with respect to `neg`. θ is
    /// bound here; the probe index is taken on the first pull.
    pub(crate) fn build(
        pos: R,
        neg: R,
        theta: &ThetaCondition,
        depth: PipeDepth,
    ) -> Result<Self, StorageError> {
        let bound = theta.bind(pos.borrow().schema(), neg.borrow().schema())?;
        let wo = OverlapWindowStream::from_bound(pos.clone(), neg, bound);
        Ok(match depth {
            PipeDepth::Overlap => Pipe::Wo(wo),
            PipeDepth::Unmatched => Pipe::Wu(LawauStream::new(wo, pos)),
            PipeDepth::Full => Pipe::Wuon(LawanStream::new(LawauStream::new(wo, pos))),
        })
    }

    /// The span buffer of the last window's group: form the window before
    /// the next call of `next`.
    pub(crate) fn spans(&self) -> &[u32] {
        match self {
            Pipe::Wuon(inner) => inner.spans(),
            _ => &[],
        }
    }
}

impl<R: Borrow<TpRelation> + Clone> Iterator for Pipe<R> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        match self {
            Pipe::Wo(inner) => inner.next(),
            Pipe::Wu(inner) => inner.next(),
            Pipe::Wuon(inner) => inner.next(),
        }
    }
}

/// One table row being executed: its spec, its positive and negative
/// relation, and the window pipe between them.
struct Pass<R: Borrow<TpRelation> + Clone> {
    spec: &'static PassSpec,
    pos: R,
    neg: R,
    pipe: Pipe<R>,
}

/// A TP operator executed lazily: an iterator producing the output tuples
/// of [`crate::tp_join`] (or of a set operation, [`TpJoinStream::set_op`])
/// one at a time, in the identical order. Collecting the stream
/// ([`TpJoinStream::collect_relation`]) gives exactly the relation the
/// one-shot function returns.
///
/// `R` holds both input relations (`&TpRelation`, `Arc<TpRelation>`, …);
/// `E` holds the probability engine (`ProbabilityEngine` owned, or
/// `&mut ProbabilityEngine` borrowed from the caller).
///
/// Construction binds θ (an unbindable θ fails here) and takes the two
/// lineage columns, interning those the engine's arena does not hold; each
/// pass takes its probe index when it is first pulled — from a stored
/// relation's memo, or built for this pass — so the flipped second pass of
/// a right or full outer join builds an index only after the first pass is
/// exhausted.
/// [`windows_consumed`](TpJoinStream::windows_consumed) counts how much of
/// the window pipeline an iteration has actually pulled.
///
/// ```
/// use tpdb_core::{ThetaCondition, TpJoinKind, TpJoinStream};
///
/// let (a, b) = tpdb_datagen::booking_example();
/// let theta = ThetaCondition::column_equals("Loc", "Loc");
///
/// let mut stream = TpJoinStream::new(&a, &b, &theta, TpJoinKind::LeftOuter).unwrap();
/// let first = stream.next().unwrap();
/// // Exactly one window was consumed to form the first answer tuple.
/// assert_eq!(stream.windows_consumed(), 1);
/// assert!((0.0..=1.0).contains(&first.probability()));
///
/// // Draining the stream yields the full Fig. 1b result (7 tuples).
/// assert_eq!(1 + stream.count(), 7);
/// ```
// The stream is the crate's one lazy pass runner: it executes the passes of
// any row of the operator table ([`TpJoinStream::for_op`]) in table order,
// forming one output tuple per accepted window. Finished passes are dropped
// (releasing their hold on a probe index) before the next one takes its own.
pub struct TpJoinStream<R, E = ProbabilityEngine>
where
    R: Borrow<TpRelation> + Clone,
    E: BorrowMut<ProbabilityEngine>,
{
    engine: E,
    schema: Schema,
    name: String,
    /// The passes still to run; the front one is executing.
    passes: VecDeque<Pass<R>>,
    /// The statement's lineage columns and read-once decision.
    formation: Formation,
    windows_consumed: usize,
    produced: usize,
}

impl<R: Borrow<TpRelation> + Clone> TpJoinStream<R, ProbabilityEngine> {
    /// Creates the stream with an owned probability engine preloaded with
    /// the base-tuple probabilities of the two inputs.
    pub fn new(r: R, s: R, theta: &ThetaCondition, kind: TpJoinKind) -> Result<Self, StorageError> {
        let engine = registered_engine(r.borrow(), s.borrow());
        Self::with_engine(r, s, theta, kind, engine)
    }
}

/// A fresh probability engine preloaded with the base-tuple probabilities
/// of the two inputs.
pub(crate) fn registered_engine(r: &TpRelation, s: &TpRelation) -> ProbabilityEngine {
    let mut engine = ProbabilityEngine::new();
    r.register_probabilities(&mut engine);
    s.register_probabilities(&mut engine);
    engine
}

impl<R, E> TpJoinStream<R, E>
where
    R: Borrow<TpRelation> + Clone,
    E: BorrowMut<ProbabilityEngine>,
{
    /// Creates the stream with an explicit probability engine (owned or
    /// `&mut`-borrowed). Use this variant when the inputs are derived
    /// relations whose compound lineages reference base tuples not present
    /// in `r`/`s`.
    ///
    /// # Errors
    ///
    /// θ's binding errors, and [`StorageError::MissingMarginal`] when a
    /// lineage of `r` or `s` names a variable `engine` has no marginal for.
    pub fn with_engine(
        r: R,
        s: R,
        theta: &ThetaCondition,
        kind: TpJoinKind,
        engine: E,
    ) -> Result<Self, StorageError> {
        Self::for_op(r, s, TpOp::Join(kind), theta, engine)
    }

    /// The runner behind every operator: builds the passes of `op`'s table
    /// row over `r` and `s` under θ (flipped for the `s;r` passes).
    pub(crate) fn for_op(
        r: R,
        s: R,
        op: TpOp,
        theta: &ThetaCondition,
        mut engine: E,
    ) -> Result<Self, StorageError> {
        let (name, schema) = op.output(r.borrow(), s.borrow());
        // Both lineage columns are taken, checked and certified once per
        // operator; a flipped second pass swaps the same two columns.
        let formation = Formation::new(op, r.borrow(), s.borrow(), engine.borrow_mut())?;
        let mut passes = VecDeque::new();
        for spec in op.passes() {
            let flipped_theta;
            let (pos, neg, theta) = if spec.flipped {
                flipped_theta = theta.flipped();
                (s.clone(), r.clone(), &flipped_theta)
            } else {
                (r.clone(), s.clone(), theta)
            };
            let pipe = Pipe::build(pos.clone(), neg.clone(), theta, spec.depth)?;
            passes.push_back(Pass {
                spec,
                pos,
                neg,
                pipe,
            });
        }
        Ok(Self {
            engine,
            schema,
            name,
            passes,
            formation,
            windows_consumed: 0,
            produced: 0,
        })
    }
    /// The fact schema of the output tuples.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The name the collected result relation carries (`r⟕s`, `r▷s`, …).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many windows have left the pipeline so far — the laziness probe:
    /// after pulling the first output tuple of a left outer join this is
    /// `1`, not the total window count of the join. Windows a pass inspects
    /// without forming a tuple (the overlapping windows of a difference)
    /// count too.
    #[must_use]
    pub fn windows_consumed(&self) -> usize {
        self.windows_consumed
    }

    /// How many output tuples the stream has produced so far.
    #[must_use]
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Did the engine certify the statement read-once
    /// ([`ProbabilityEngine::certify_columns`])? Then every row is priced
    /// without an arena node and no lineage node is interned past the two
    /// input columns. Self-joins, inputs that share a variable, a negated
    /// input whose rows share one and correlated roots are not certified:
    /// each of their rows interns its root. (An input with an unregistered
    /// variable has no stream: the constructor fails.)
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.formation.certificate.is_some()
    }

    /// Drains the remaining stream into a materialized relation — the exact
    /// relation the one-shot function ([`crate::tp_join`],
    /// [`crate::tp_union`], …) returns when called on fresh inputs.
    #[must_use]
    pub fn collect_relation(self) -> TpRelation {
        let mut out = TpRelation::new(&self.name, self.schema.clone());
        for t in self {
            out.push_unchecked(t);
        }
        out
    }
}

impl<R, E> Iterator for TpJoinStream<R, E>
where
    R: Borrow<TpRelation> + Clone,
    E: BorrowMut<ProbabilityEngine>,
{
    type Item = TpTuple;

    fn next(&mut self) -> Option<TpTuple> {
        let engine = self.engine.borrow_mut();
        while let Some(pass) = self.passes.front_mut() {
            let Some(w) = pass.pipe.next() else {
                self.passes.pop_front();
                continue;
            };
            self.windows_consumed += 1;
            let inputs = (pass.pos.borrow(), pass.neg.borrow());
            let spans = pass.pipe.spans();
            if let Some(t) = self.formation.form(&w, pass.spec, inputs, spans, engine) {
                self.produced += 1;
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::booking_relations;
    use std::sync::Arc;

    const KINDS: [TpJoinKind; 5] = [
        TpJoinKind::Inner,
        TpJoinKind::Anti,
        TpJoinKind::LeftOuter,
        TpJoinKind::RightOuter,
        TpJoinKind::FullOuter,
    ];

    fn theta() -> ThetaCondition {
        ThetaCondition::column_equals("Loc", "Loc")
    }

    #[test]
    fn stream_collects_to_the_one_shot_join_for_every_kind() {
        let (a, b, _) = booking_relations();
        for kind in KINDS {
            let one_shot = crate::tp_join(&a, &b, &theta(), kind).unwrap();
            let streamed = TpJoinStream::new(&a, &b, &theta(), kind)
                .unwrap()
                .collect_relation();
            assert_eq!(streamed, one_shot, "kind = {kind:?}");
        }
    }

    #[test]
    fn stream_works_with_arc_inputs() {
        let (a, b, _) = booking_relations();
        let one_shot = crate::tp_join(&a, &b, &theta(), TpJoinKind::FullOuter).unwrap();
        let (a, b) = (Arc::new(a), Arc::new(b));
        let streamed = TpJoinStream::new(a, b, &theta(), TpJoinKind::FullOuter)
            .unwrap()
            .collect_relation();
        assert_eq!(streamed, one_shot);
    }

    #[test]
    fn first_tuple_is_produced_lazily() {
        // A large meteo workload: the full left outer join has thousands of
        // output tuples, but forming the first one must consume exactly one
        // window (every window of a left outer join participates).
        let (r, s) = tpdb_datagen::meteo_like(2_000, 7);
        let theta = ThetaCondition::column_equals("Metric", "Metric");
        let mut stream = TpJoinStream::new(&r, &s, &theta, TpJoinKind::LeftOuter).unwrap();
        let first = stream.next();
        assert!(first.is_some());
        assert_eq!(stream.windows_consumed(), 1);
        assert_eq!(stream.produced(), 1);
        // Draining consumes the rest: orders of magnitude more windows.
        let total = 1 + stream.count();
        assert!(total > 1_000, "expected a large output, got {total}");
    }

    #[test]
    fn flipped_pass_counts_the_overlapping_windows_it_skips() {
        // A right outer join pulls the bare overlap join of a;b, then the
        // full pipeline of b;a — whose overlapping windows are consumed
        // (and counted) but form no second copy of the inner part.
        use crate::{lawan, lawau, overlapping_windows};
        let (a, b, _) = booking_relations();
        let first = overlapping_windows(&a, &b, &theta()).unwrap();
        let second = lawan(&lawau(
            &overlapping_windows(&b, &a, &theta().flipped()).unwrap(),
            &b,
        ));
        let mut stream = TpJoinStream::new(&a, &b, &theta(), TpJoinKind::RightOuter).unwrap();
        let produced = stream.by_ref().count();
        assert_eq!(stream.windows_consumed(), first.len() + second.len());
        assert_eq!(stream.produced(), produced);
        let emitted = first.iter().filter(|w| w.is_overlapping()).count()
            + second.iter().filter(|w| !w.is_overlapping()).count();
        assert_eq!(produced, emitted);
    }

    #[test]
    fn pipe_depth_cuts_the_window_pipeline() {
        use crate::window::WindowKind::{Negating, Overlapping, Unmatched};
        let (a, b, _) = booking_relations();
        for (depth, kinds, windows) in [
            // the bare overlap join: a1's two pairings + a2 whole-interval
            (PipeDepth::Overlap, vec![Overlapping, Unmatched], 3),
            // + LAWAU: a1's uncovered prefix [2,4)
            (PipeDepth::Unmatched, vec![Overlapping, Unmatched], 4),
            // + LAWAN: the three negating windows of Fig. 1b
            (PipeDepth::Full, vec![Overlapping, Unmatched, Negating], 7),
        ] {
            let pipe = Pipe::build(&a, &b, &theta(), depth).unwrap();
            let seen: Vec<_> = pipe.map(|w| w.kind).collect();
            assert_eq!(seen.len(), windows, "{depth:?}");
            assert!(
                seen.iter().all(|k| kinds.contains(k)),
                "{depth:?}: {seen:?}"
            );
            assert!(
                kinds.iter().all(|k| seen.contains(k)),
                "{depth:?}: {seen:?}"
            );
        }
    }

    #[test]
    fn spans_list_the_active_s_tuples_in_activation_order() {
        // Under one r tuple: s₀ = a over [0,5), s₁ = b over [1,10) and
        // s₂ = a again over [2,10). Each negating window lists the s tuples
        // valid over it in activation order; when s₀ expires at 5, the
        // span reads [s₁, s₂], so formation disjoins b before a.
        use crate::tree_reference::{bits, tree_join};
        use crate::window::WindowKind;
        use tpdb_lineage::{Lineage, VarId};
        use tpdb_storage::{DataType, Value};
        use tpdb_temporal::Interval;
        let tuple = |var, (from, to)| {
            let lineage = Lineage::var(VarId(var));
            TpTuple::new(vec![Value::Int(0)], lineage, Interval::new(from, to), 0.5)
        };
        let mut r = TpRelation::new("r", Schema::tp(&[("k", DataType::Int)]));
        r.push_unchecked(tuple(0, (0, 20)));
        let mut s = TpRelation::new("s", r.schema().clone());
        for (var, interval) in [(1, (0, 5)), (2, (1, 10)), (1, (2, 10))] {
            s.push_unchecked(tuple(var, interval));
        }
        let theta = ThetaCondition::column_equals("k", "k");
        let mut pipe = Pipe::build(&r, &s, &theta, PipeDepth::Full).unwrap();
        let mut negating = Vec::new();
        while let Some(w) = pipe.next() {
            if w.kind == WindowKind::Negating {
                negating.push((w.interval, w.span.of(pipe.spans()).to_vec()));
            }
        }
        let iv = Interval::new;
        assert_eq!(
            negating,
            [
                (iv(0, 1), vec![0]),
                (iv(1, 2), vec![0, 1]),
                (iv(2, 5), vec![0, 1, 2]),
                (iv(5, 10), vec![1, 2]),
            ]
        );
        // Two active s tuples share the root `a` over [2,5): `a` is
        // disjoined once. The statement repeats a variable in its negated
        // column, so it is not certified: every row is the node path's.
        let stream = TpJoinStream::new(&r, &s, &theta, TpJoinKind::Anti).unwrap();
        assert!(!stream.is_certified());
        let anti = stream.collect_relation();
        let x = |var| Lineage::var(VarId(var));
        let and_not = |ls| Lineage::and_not_concat(&x(0), &ls);
        let lineages: Vec<(Interval, Lineage)> = anti
            .iter()
            .map(|t| (t.interval(), t.lineage().clone()))
            .collect();
        assert_eq!(
            lineages,
            [
                (iv(10, 20), x(0)),
                (iv(0, 1), and_not(x(1))),
                (iv(1, 2), and_not(Lineage::or2(x(1), x(2)))),
                (iv(2, 5), and_not(Lineage::or2(x(1), x(2)))),
                (iv(5, 10), and_not(Lineage::or2(x(2), x(1)))),
            ]
        );
        let mut engine = registered_engine(&r, &s);
        let tree = tree_join(&r, &s, &theta, TpJoinKind::Anti, &mut engine);
        assert_eq!(anti.tuples(), tree);
        assert_eq!(bits(anti.tuples()), bits(&tree));
    }

    /// `rel` with the probabilities of its tuples drawn from `ps` in turn.
    fn with_probabilities(rel: &TpRelation, ps: &[f64]) -> TpRelation {
        let mut out = TpRelation::new(rel.name(), rel.schema().clone());
        for (t, p) in rel.iter().zip(ps.iter().cycle()) {
            let facts = t.facts().to_vec();
            out.push_unchecked(TpTuple::new(facts, t.lineage().clone(), t.interval(), *p));
        }
        out
    }

    /// The tree reference's rows of an operator.
    fn tree_path(
        op: TpOp,
        r: &TpRelation,
        s: &TpRelation,
        theta: &ThetaCondition,
        engine: &mut ProbabilityEngine,
    ) -> Vec<TpTuple> {
        use crate::tree_reference::{tree_rows, Op};
        let op = match op {
            TpOp::Join(kind) => Op::Join(kind),
            TpOp::SetOp(kind) => Op::SetOp(kind),
        };
        tree_rows(op, r, s, theta, engine)
    }

    /// The five joins under `k = k` and the three set operations, over `r`
    /// and `s`.
    fn operators(r: &TpRelation, s: &TpRelation) -> Vec<(TpOp, ThetaCondition)> {
        use crate::TpSetOpKind;
        let join_theta = ThetaCondition::column_equals("k", "k");
        let set_theta = crate::setops::all_columns_equal(r, s).unwrap();
        let joins = KINDS.map(|kind| (TpOp::Join(kind), join_theta.clone()));
        let set_ops = [
            TpSetOpKind::Union,
            TpSetOpKind::Intersection,
            TpSetOpKind::Difference,
        ]
        .map(|kind| (TpOp::SetOp(kind), set_theta.clone()));
        joins.into_iter().chain(set_ops).collect()
    }

    proptest::proptest! {
        /// A certified statement prices every row from the marginals and
        /// interns nothing past its two columns, yet each row is the tree
        /// path's: equal facts, interval and lineage tree, and equal
        /// probability bits — for the five joins and the three set
        /// operations over random base relations with random marginals.
        #[test]
        fn certified_pricing_is_the_tree_path_bit_for_bit(
            rr in proptest::collection::vec((0i64..3, 0i64..30, 1i64..10), 1..8),
            ss in proptest::collection::vec((0i64..3, 0i64..30, 1i64..10), 1..8),
            ps in proptest::collection::vec(0.0f64..=1.0, 1..16),
        ) {
            use crate::testutil::keyed_relation;
            let r = with_probabilities(&keyed_relation("r", 0, &rr), &ps);
            let s = with_probabilities(&keyed_relation("s", 100, &ss), &ps[ps.len() / 2..]);
            for (op, theta) in operators(&r, &s) {
                let mut engine = registered_engine(&r, &s);
                let stream = TpJoinStream::for_op(&r, &s, op, &theta, &mut engine).unwrap();
                proptest::prop_assert!(stream.is_certified(), "{:?}", op);
                let streamed = stream.collect_relation();
                proptest::prop_assert_eq!(engine.interner().len(), 2 + r.len() + s.len());
                let tree = tree_path(op, &r, &s, &theta, &mut registered_engine(&r, &s));
                proptest::prop_assert_eq!(streamed.len(), tree.len(), "{:?}", op);
                for (row, want) in streamed.iter().zip(&tree) {
                    proptest::prop_assert_eq!(row.lineage(), want.lineage(), "{:?}", op);
                    proptest::prop_assert_eq!(
                        row.probability().to_bits(),
                        want.probability().to_bits(),
                        "{:?} {}", op, want.lineage()
                    );
                    proptest::prop_assert_eq!(row, want, "{:?}", op);
                }
            }
        }

        /// A set-operation result as either input of every operator, beside
        /// a base relation: certified unless the pass negating it draws spans
        /// from rows that share a variable, and, certified or not, the tree
        /// path row for row — compound roots, `Or` roots split into spans
        /// and negated conjuncts included — with equal probability bits.
        #[test]
        fn derived_inputs_are_priced_as_the_tree_path_bit_for_bit(
            rr in proptest::collection::vec((0i64..3, 0i64..30, 1i64..10), 1..6),
            ss in proptest::collection::vec((0i64..3, 0i64..30, 1i64..10), 1..6),
            tt in proptest::collection::vec((0i64..3, 0i64..30, 1i64..10), 1..6),
            ps in proptest::collection::vec(0.0f64..=1.0, 1..16),
        ) {
            use crate::testutil::keyed_relation;
            let r = with_probabilities(&keyed_relation("r", 0, &rr), &ps);
            let s = with_probabilities(&keyed_relation("s", 100, &ss), &ps[ps.len() / 2..]);
            let t = with_probabilities(&keyed_relation("t", 200, &tt), &ps[ps.len() / 3..]);
            let base = || {
                let mut engine = registered_engine(&r, &s);
                t.register_probabilities(&mut engine);
                engine
            };
            let derived = [
                crate::tp_union(&r, &s).unwrap(),
                crate::tp_intersection(&r, &s).unwrap(),
                crate::tp_difference(&r, &s).unwrap(),
            ];
            let mut certified = 0;
            for d in &derived {
                for (left, right) in [(d, &t), (&t, d)] {
                    for (op, theta) in operators(left, right) {
                        let mut engine = base();
                        let stream =
                            TpJoinStream::for_op(left, right, op, &theta, &mut engine).unwrap();
                        certified += usize::from(stream.is_certified());
                        let streamed = stream.collect_relation();
                        let tree = tree_path(op, left, right, &theta, &mut base());
                        proptest::prop_assert_eq!(streamed.tuples(), &tree[..], "{:?}", op);
                        let bits = crate::tree_reference::bits;
                        proptest::prop_assert_eq!(bits(streamed.tuples()), bits(&tree), "{:?}", op);
                    }
                }
            }
            // Whatever d's rows share, nine statements per d negate no span
            // of it: (d, t) under all but the right and full outer joins,
            // (t, d) under the inner and right outer joins and ∩.
            proptest::prop_assert!(certified >= 3 * 9, "{certified} certified statements");
        }
    }

    /// Which passes still to run hold a probe index, the front pass first.
    fn indexed<R, E>(stream: &TpJoinStream<R, E>) -> Vec<bool>
    where
        R: Borrow<TpRelation> + Clone,
        E: BorrowMut<ProbabilityEngine>,
    {
        let has_index = |pipe: &Pipe<_>| match pipe {
            Pipe::Wo(wo) => wo.index.is_some(),
            Pipe::Wu(wu) => wu.input.index.is_some(),
            Pipe::Wuon(wuon) => wuon.input.input.index.is_some(),
        };
        stream
            .passes
            .iter()
            .map(|pass| has_index(&pass.pipe))
            .collect()
    }

    /// Pulls `stream` dry, checking that no pass holds an index before it
    /// is the front pass: the flipped pass builds its own only after the
    /// first one is exhausted and dropped.
    fn assert_one_index_at_a_time<R, E>(mut stream: TpJoinStream<R, E>)
    where
        R: Borrow<TpRelation> + Clone,
        E: BorrowMut<ProbabilityEngine>,
    {
        assert_eq!(indexed(&stream), [false, false]);
        assert!(stream.next().is_some());
        assert_eq!(indexed(&stream), [true, false]);
        let mut flipped_rows = 0;
        loop {
            let row = stream.next();
            match indexed(&stream)[..] {
                [true, false] => assert!(row.is_some()),
                [true] => flipped_rows += usize::from(row.is_some()),
                [] => break,
                ref other => panic!("indexes held: {other:?}"),
            }
        }
        assert!(flipped_rows > 0);
    }

    #[test]
    fn each_pass_builds_its_index_when_it_starts() {
        let (a, b, _) = booking_relations();
        let full = TpJoinStream::new(&a, &b, &theta(), TpJoinKind::FullOuter).unwrap();
        assert_one_index_at_a_time(full);
        let r = crate::testutil::keyed_relation("r", 0, &[(0, 0, 5)]);
        let s = crate::testutil::keyed_relation("s", 100, &[(0, 3, 5), (1, 0, 2)]);
        let union = TpJoinStream::set_op(&r, &s, crate::TpSetOpKind::Union).unwrap();
        assert_one_index_at_a_time(union);
        // θ is still bound at construction.
        let unbindable = ThetaCondition::column_equals("Loc", "NoSuchColumn");
        assert!(TpJoinStream::new(&a, &b, &unbindable, TpJoinKind::FullOuter).is_err());
    }

    #[test]
    fn name_and_schema_are_available_before_iteration() {
        let (a, b, _) = booking_relations();
        let stream = TpJoinStream::new(&a, &b, &theta(), TpJoinKind::LeftOuter).unwrap();
        assert_eq!(stream.name(), "a⟕b");
        assert_eq!(stream.schema().arity(), 4);
    }
}
