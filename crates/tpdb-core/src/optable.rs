//! The operator table: every TP operator as at most two window passes.
//!
//! Table II of the paper defines each TP join with negation as a union of
//! window sets — `WO`, `WU`, `WN` of `r;s` and `WU`, `WN` of `s;r` — with
//! one lineage-concatenation function per window class, and the set
//! operations of its reference \[1\] ride the same windows. This module is
//! the one place that states it: per operator, its passes as *(flipped?,
//! pipeline depth, lineage function per accepted window class, fact
//! layout)*.
//!
//! | operator         | pass over `r;s`                      | pass over `s;r`          | facts      |
//! |------------------|--------------------------------------|--------------------------|------------|
//! | `r ⋈ s`          | `WO: λr∧λs`                          | —                        | `Fr ∘ Fs`  |
//! | `r ▷ s`, `r ∖ s` | `WU: λr`, `WN: λr∧¬λs`               | —                        | `Fr`       |
//! | `r ⟕ s`          | `WO: λr∧λs`, `WU: λr`, `WN: λr∧¬λs`  | —                        | `Fr ∘ Fs`  |
//! | `r ⟖ s`          | `WO: λr∧λs`                          | `WU: λs`, `WN: λs∧¬λr`   | `Fr ∘ Fs`  |
//! | `r ⟗ s`          | `WO: λr∧λs`, `WU: λr`, `WN: λr∧¬λs`  | `WU: λs`, `WN: λs∧¬λr`   | `Fr ∘ Fs`  |
//! | `r ∪ s`          | `WU: λr`, `WN: λr∨λs`                | `WU: λs`                 | `Fr`, `Fs` |
//! | `r ∩ s`          | `WO: λr∧λs`                          | —                        | `Fr`       |
//!
//! A pass only runs the pipeline as deep as the classes it accepts need
//! ([`PipeDepth`]): `WO` alone stops after the overlap join, the union's
//! second pass after LAWAU. The pass runner ([`crate::stream`]) and the TA
//! baseline's output assembly ([`crate::assemble_join_result`]) both
//! execute these rows; neither names an operator.

use crate::join::TpJoinKind;
use crate::setops::TpSetOpKind;
use crate::stream::PipeDepth;
use crate::window::WindowKind;
use tpdb_lineage::Concat;
use tpdb_storage::{Schema, TpRelation, Value};
use FactLayout::{NegPos, PosNeg, PosOnly};
use PipeDepth::{Full, Overlap, Unmatched};

/// One of the eight TP operators the window pipeline executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TpOp {
    /// A TP join with negation (Table II).
    Join(TpJoinKind),
    /// A TP set operation (under all-attribute equality).
    SetOp(TpSetOpKind),
}

/// The lineage function applied to a window's `(λr, λs)`, with `r` the
/// *positive* relation of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineageFn {
    /// `λr` (pass-through; `λs` is null).
    Pos,
    /// One of the paper's lineage-concatenation functions of `λr` and `λs`.
    Concat(Concat),
}

const POS: Option<LineageFn> = Some(LineageFn::Pos);
const AND: Option<LineageFn> = Some(LineageFn::Concat(Concat::And));
const AND_NOT: Option<LineageFn> = Some(LineageFn::Concat(Concat::AndNot));
const OR: Option<LineageFn> = Some(LineageFn::Concat(Concat::Or));

/// How the output facts are laid out from the pass's positive (`Fr`) and
/// negative (`Fs`, `NULL`-padded when the window has no `s` tuple) facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactLayout {
    /// `Fr ∘ Fs`.
    PosNeg,
    /// `Fs ∘ Fr` — flipped passes, whose positive relation fills the
    /// right-hand output columns.
    NegPos,
    /// `Fr` only.
    PosOnly,
}

impl FactLayout {
    /// Lays out the output facts of one window.
    pub(crate) fn facts(
        self,
        pos: &[Value],
        neg: Option<&[Value]>,
        neg_arity: usize,
    ) -> Vec<Value> {
        if self == PosOnly {
            return pos.to_vec();
        }
        let mut facts = Vec::with_capacity(pos.len() + neg_arity);
        if self == PosNeg {
            facts.extend_from_slice(pos);
        }
        match neg {
            Some(neg) => facts.extend_from_slice(neg),
            None => facts.resize(facts.len() + neg_arity, Value::Null),
        }
        if self == NegPos {
            facts.extend_from_slice(pos);
        }
        facts
    }
}

/// One window pass of an operator.
#[derive(Debug)]
pub(crate) struct PassSpec {
    /// `false`: windows of `r` with respect to `s`; `true`: of `s` with
    /// respect to `r` (θ flipped).
    pub(crate) flipped: bool,
    /// How deep the window pipeline runs.
    pub(crate) depth: PipeDepth,
    /// The lineage function per window class `WO`, `WU`, `WN`; `None` =
    /// the class is not part of the operator (its windows are skipped).
    wo: Option<LineageFn>,
    wu: Option<LineageFn>,
    wn: Option<LineageFn>,
    /// The output fact layout.
    pub(crate) layout: FactLayout,
}

impl PassSpec {
    /// The lineage function of a window class, `None` when the pass does
    /// not emit that class.
    pub(crate) fn lineage_fn(&self, kind: WindowKind) -> Option<LineageFn> {
        match kind {
            WindowKind::Overlapping => self.wo,
            WindowKind::Unmatched => self.wu,
            WindowKind::Negating => self.wn,
        }
    }
}

const fn pass(
    flipped: bool,
    depth: PipeDepth,
    [wo, wu, wn]: [Option<LineageFn>; 3],
    layout: FactLayout,
) -> PassSpec {
    PassSpec {
        flipped,
        depth,
        wo,
        wu,
        wn,
        layout,
    }
}

/// `WO` only — the inner-join part.
const INNER: [Option<LineageFn>; 3] = [AND, None, None];
/// `WU` and `WN` — the anti-join part of the pass's positive relation.
const ANTI: [Option<LineageFn>; 3] = [None, POS, AND_NOT];
/// All three classes — inner plus anti part.
const OUTER: [Option<LineageFn>; 3] = [AND, POS, AND_NOT];

static INNER_JOIN: [PassSpec; 1] = [pass(false, Overlap, INNER, PosNeg)];
static ANTI_JOIN: [PassSpec; 1] = [pass(false, Full, ANTI, PosOnly)];
static LEFT_OUTER: [PassSpec; 1] = [pass(false, Full, OUTER, PosNeg)];
static RIGHT_OUTER: [PassSpec; 2] = [
    pass(false, Overlap, INNER, PosNeg),
    pass(true, Full, ANTI, NegPos),
];
static FULL_OUTER: [PassSpec; 2] = [
    pass(false, Full, OUTER, PosNeg),
    pass(true, Full, ANTI, NegPos),
];
// The union skips WO: the negating windows of the same group cover the
// identical sub-intervals and already carry the full disjunction λs. From
// s's perspective only the unmatched sub-intervals are new.
static UNION: [PassSpec; 2] = [
    pass(false, Full, [None, POS, OR], PosOnly),
    pass(true, Unmatched, [None, POS, None], PosOnly),
];
static INTERSECTION: [PassSpec; 1] = [pass(false, Overlap, INNER, PosOnly)];

impl TpOp {
    /// The operator's window passes, in emission order.
    pub(crate) fn passes(self) -> &'static [PassSpec] {
        match self {
            TpOp::Join(TpJoinKind::Inner) => &INNER_JOIN,
            TpOp::Join(TpJoinKind::Anti) | TpOp::SetOp(TpSetOpKind::Difference) => &ANTI_JOIN,
            TpOp::Join(TpJoinKind::LeftOuter) => &LEFT_OUTER,
            TpOp::Join(TpJoinKind::RightOuter) => &RIGHT_OUTER,
            TpOp::Join(TpJoinKind::FullOuter) => &FULL_OUTER,
            TpOp::SetOp(TpSetOpKind::Union) => &UNION,
            TpOp::SetOp(TpSetOpKind::Intersection) => &INTERSECTION,
        }
    }

    /// Name (`r⟕s`, `r∪s`, …) and fact schema of the result relation:
    /// `r`'s schema when only positive facts are emitted, otherwise `r`'s
    /// columns followed by `s`'s (colliding names prefixed with `s`'s name).
    pub(crate) fn output(self, r: &TpRelation, s: &TpRelation) -> (String, Schema) {
        let symbol = match self {
            TpOp::Join(kind) => kind.symbol(),
            TpOp::SetOp(kind) => kind.symbol(),
        };
        let schema = match self.passes().first().map(|pass| pass.layout) {
            Some(PosNeg | NegPos) => r.schema().concat(s.schema(), &format!("{}_", s.name())),
            Some(PosOnly) | None => r.schema().clone(),
        };
        (format!("{}{symbol}{}", r.name(), s.name()), schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R_S: bool = false;
    const S_R: bool = true;

    /// Which `(pass, window class, lineage function)` triples an operator
    /// emits, flattened from the table.
    fn emitted(op: TpOp) -> Vec<(bool, WindowKind, Option<LineageFn>)> {
        let mut out = Vec::new();
        for spec in op.passes() {
            for kind in [
                WindowKind::Overlapping,
                WindowKind::Unmatched,
                WindowKind::Negating,
            ] {
                if let f @ Some(_) = spec.lineage_fn(kind) {
                    out.push((spec.flipped, kind, f));
                }
            }
        }
        out
    }

    #[test]
    fn the_table_is_paper_table_ii_plus_the_three_set_operations() {
        use WindowKind::{Negating as WN, Overlapping as WO, Unmatched as WU};
        // Table II: the window sets per join, with `and` for overlapping,
        // pass-through for unmatched and `andNot` for negating windows.
        let wo = (R_S, WO, AND);
        let left = [(R_S, WU, POS), (R_S, WN, AND_NOT)];
        let right = [(S_R, WU, POS), (S_R, WN, AND_NOT)];
        assert_eq!(emitted(TpOp::Join(TpJoinKind::Inner)), [wo]);
        assert_eq!(emitted(TpOp::Join(TpJoinKind::Anti)), left);
        assert_eq!(
            emitted(TpOp::Join(TpJoinKind::LeftOuter)),
            [wo, left[0], left[1]]
        );
        assert_eq!(
            emitted(TpOp::Join(TpJoinKind::RightOuter)),
            [wo, right[0], right[1]]
        );
        assert_eq!(
            emitted(TpOp::Join(TpJoinKind::FullOuter)),
            [wo, left[0], left[1], right[0], right[1]]
        );
        // Reference [1]: difference = anti join, intersection = inner join
        // on r's columns, union = λr / λr∨λs over r plus s's unmatched rest.
        assert_eq!(emitted(TpOp::SetOp(TpSetOpKind::Difference)), left);
        assert_eq!(emitted(TpOp::SetOp(TpSetOpKind::Intersection)), [wo]);
        assert_eq!(
            emitted(TpOp::SetOp(TpSetOpKind::Union)),
            [(R_S, WU, POS), (R_S, WN, OR), (S_R, WU, POS)]
        );
    }

    #[test]
    fn passes_run_no_deeper_than_their_window_classes_need() {
        let ops = [
            TpOp::Join(TpJoinKind::Inner),
            TpOp::Join(TpJoinKind::Anti),
            TpOp::Join(TpJoinKind::LeftOuter),
            TpOp::Join(TpJoinKind::RightOuter),
            TpOp::Join(TpJoinKind::FullOuter),
            TpOp::SetOp(TpSetOpKind::Union),
            TpOp::SetOp(TpSetOpKind::Intersection),
            TpOp::SetOp(TpSetOpKind::Difference),
        ];
        for op in ops {
            let passes = op.passes();
            assert!((1..=2).contains(&passes.len()), "{op:?}");
            // The first pass is over r;s, a second one over s;r.
            assert!(!passes[0].flipped, "{op:?}");
            assert!(passes.get(1).is_none_or(|p| p.flipped), "{op:?}");
            for spec in passes {
                let needs = if spec.lineage_fn(WindowKind::Negating).is_some() {
                    Full
                } else if spec.lineage_fn(WindowKind::Unmatched).is_some() {
                    Unmatched
                } else {
                    Overlap
                };
                assert_eq!(spec.depth, needs, "{op:?}");
                // Flipped passes of joins put the positive facts on the
                // right; single-sided operators never pad.
                let single_sided = passes[0].layout == PosOnly;
                let expected = match (single_sided, spec.flipped) {
                    (true, _) => PosOnly,
                    (false, false) => PosNeg,
                    (false, true) => NegPos,
                };
                assert_eq!(spec.layout, expected, "{op:?}");
            }
        }
    }

    #[test]
    fn fact_layouts_pad_the_missing_side_with_nulls() {
        let pos = [Value::Int(1)];
        let neg = [Value::Int(2), Value::Int(3)];
        assert_eq!(
            PosNeg.facts(&pos, Some(&neg), 2),
            [Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(
            NegPos.facts(&pos, None, 2),
            [Value::Null, Value::Null, Value::Int(1)]
        );
        assert_eq!(PosOnly.facts(&pos, Some(&neg), 2), [Value::Int(1)]);
    }
}
