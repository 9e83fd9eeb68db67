//! The tree reference the bit-for-bit tests hold the engine to: an
//! operator's rows formed from materialized windows, each output lineage
//! built as a [`Lineage`] tree from the relations' own lineages and the
//! window's `s_idx` or span, and priced by interning that tree
//! ([`ProbabilityEngine::probability`]). It shares the window algorithms
//! with the engine and nothing of its output formation: no interned
//! column, no certificate, no deferred lineage. The operator table is
//! restated here from Table II of the paper.

#![allow(dead_code)]

use tpdb_core::{
    lawan, lawau, overlapping_windows, LawanStream, Span, ThetaCondition, TpJoinKind, TpSetOpKind,
    Window, WindowGroups, WindowKind, WindowSet,
};
use tpdb_lineage::{Lineage, ProbabilityEngine};
use tpdb_storage::{TpRelation, TpTuple, Value};

/// An operator of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Join(TpJoinKind),
    SetOp(TpSetOpKind),
}

/// How a pass combines `λr` and `λs` for one window class.
#[derive(Clone, Copy)]
enum Concat {
    Pos,
    And,
    AndNot,
    Or,
}

/// Where a pass puts the facts of its positive and its negative tuple.
#[derive(Clone, Copy)]
enum Facts {
    PosNeg,
    NegPos,
    PosOnly,
}

/// One window pass: over `s;r` when `flipped`, forming a row from the
/// overlapping, unmatched and negating windows its `concat` names.
struct Pass {
    flipped: bool,
    concat: [Option<Concat>; 3],
    facts: Facts,
}

const INNER: [Option<Concat>; 3] = [Some(Concat::And), None, None];
const ANTI: [Option<Concat>; 3] = [None, Some(Concat::Pos), Some(Concat::AndNot)];
const OUTER: [Option<Concat>; 3] = [Some(Concat::And), Some(Concat::Pos), Some(Concat::AndNot)];

/// Table II: the passes of each operator, in output order.
fn passes(op: Op) -> Vec<Pass> {
    let pass = |flipped, concat, facts| Pass {
        flipped,
        concat,
        facts,
    };
    match op {
        Op::Join(TpJoinKind::Inner) => vec![pass(false, INNER, Facts::PosNeg)],
        Op::Join(TpJoinKind::Anti) | Op::SetOp(TpSetOpKind::Difference) => {
            vec![pass(false, ANTI, Facts::PosOnly)]
        }
        Op::Join(TpJoinKind::LeftOuter) => vec![pass(false, OUTER, Facts::PosNeg)],
        Op::Join(TpJoinKind::RightOuter) => vec![
            pass(false, INNER, Facts::PosNeg),
            pass(true, ANTI, Facts::NegPos),
        ],
        Op::Join(TpJoinKind::FullOuter) => vec![
            pass(false, OUTER, Facts::PosNeg),
            pass(true, ANTI, Facts::NegPos),
        ],
        Op::SetOp(TpSetOpKind::Union) => vec![
            pass(
                false,
                [None, Some(Concat::Pos), Some(Concat::Or)],
                Facts::PosOnly,
            ),
            pass(true, [None, Some(Concat::Pos), None], Facts::PosOnly),
        ],
        Op::SetOp(TpSetOpKind::Intersection) => vec![pass(false, INNER, Facts::PosOnly)],
    }
}

/// The rows of `op` over `r` and `s` under θ (the all-column equality for
/// a set operation), in the engine's row order, priced by `engine`.
pub fn tree_rows(
    op: Op,
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    engine: &mut ProbabilityEngine,
) -> Vec<TpTuple> {
    let mut rows = Vec::new();
    for pass in passes(op) {
        let (pos, neg, theta) = if pass.flipped {
            (s, r, theta.flipped())
        } else {
            (r, s, theta.clone())
        };
        let windows = lawan(&lawau(&overlapping_windows(pos, neg, &theta).unwrap(), pos));
        for w in windows.iter() {
            let span = w.span.of(&windows.spans);
            rows.extend(tree_row(w, span, &pass, pos, neg, engine));
        }
    }
    rows
}

/// The output row `pass` forms from `w`, whose span lists `span`: its
/// lineage a tree, its probability the node path's.
fn tree_row(
    w: &Window,
    span: &[u32],
    pass: &Pass,
    pos: &TpRelation,
    neg: &TpRelation,
    engine: &mut ProbabilityEngine,
) -> Option<TpTuple> {
    let class = match w.kind {
        WindowKind::Overlapping => 0,
        WindowKind::Unmatched => 1,
        WindowKind::Negating => 2,
    };
    let concat = pass.concat[class]?;
    let lr = pos.tuple(w.r_idx).lineage();
    let ls = || match w.s_idx {
        Some(si) => neg.tuple(si).lineage().clone(),
        None => Lineage::or(
            span.iter()
                .map(|&si| neg.tuple(si as usize).lineage().clone())
                .collect(),
        ),
    };
    let lineage = match concat {
        Concat::Pos => lr.clone(),
        Concat::And => Lineage::and_concat(lr, &ls()),
        Concat::AndNot => Lineage::and_not_concat(lr, &ls()),
        Concat::Or => Lineage::or2(lr.clone(), ls()),
    };
    let probability = engine.probability(&lineage);
    let nulls = vec![Value::Null; neg.schema().arity()];
    let pos_facts = pos.tuple(w.r_idx).facts();
    let neg_facts = w.s_idx.map_or(&nulls[..], |si| neg.tuple(si).facts());
    let facts = match pass.facts {
        Facts::PosNeg => [pos_facts, neg_facts].concat(),
        Facts::NegPos => [neg_facts, pos_facts].concat(),
        Facts::PosOnly => pos_facts.to_vec(),
    };
    Some(TpTuple::new(facts, lineage, w.interval, probability))
}

/// [`tree_rows`] of a join under θ.
pub fn tree_join(
    r: &TpRelation,
    s: &TpRelation,
    theta: &ThetaCondition,
    kind: TpJoinKind,
    engine: &mut ProbabilityEngine,
) -> Vec<TpTuple> {
    tree_rows(Op::Join(kind), r, s, theta, engine)
}

/// The rows' probabilities as bits.
pub fn bits(rows: &[TpTuple]) -> Vec<u64> {
    rows.iter().map(|t| t.probability().to_bits()).collect()
}

/// A window with the `s` indices its span lists: comparable across span
/// buffers.
pub type Resolved = (Window, Vec<u32>);

/// `w` with its span read from `spans` (and cleared in the window).
pub fn resolve(w: &Window, spans: &[u32]) -> Resolved {
    let listed = w.span.of(spans).to_vec();
    let w = Window {
        span: Span::default(),
        ..*w
    };
    (w, listed)
}

/// The windows of a materialized set, resolved.
pub fn resolved(set: &WindowSet) -> Vec<Resolved> {
    set.iter().map(|w| resolve(w, &set.spans)).collect()
}

/// Drains a LAWAN stream, resolving each window's span before the next
/// window is pulled.
pub fn drain<I: WindowGroups>(mut stream: LawanStream<I>) -> Vec<Resolved> {
    let mut out = Vec::new();
    while let Some(w) = stream.next() {
        out.push(resolve(&w, stream.spans()));
    }
    out
}
