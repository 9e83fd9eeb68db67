//! Lineage formula representation.

use crate::symbols::{SymbolTable, VarId};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A node of a lineage formula.
///
/// `And`/`Or` are n-ary (flattened) to keep the formulas produced by window
/// grouping shallow: the negating window `a1 ∧ ¬(b3 ∨ b2 ∨ b7)` is two levels
/// deep no matter how many negative tuples participate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineageNode {
    /// The formula that is true in every possible world.
    True,
    /// The formula that is false in every possible world.
    False,
    /// A base-tuple variable.
    Var(VarId),
    /// Negation of a sub-formula.
    Not(Lineage),
    /// Conjunction of at least two sub-formulas.
    And(Vec<Lineage>),
    /// Disjunction of at least two sub-formulas.
    Or(Vec<Lineage>),
}

/// An immutable, cheaply clonable lineage formula.
///
/// Lineages are shared via [`Arc`]; cloning a lineage or embedding it in a
/// larger formula never copies the underlying tree. This is what allows the
/// window algorithms to keep per-relation lineages "decoupled until the
/// formation of output tuples" without any materialization cost.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Lineage(Arc<LineageNode>);

impl Lineage {
    // ----- constructors -------------------------------------------------

    /// The constant-true lineage.
    #[must_use]
    pub fn tru() -> Self {
        Lineage(Arc::new(LineageNode::True))
    }

    /// The constant-false lineage.
    #[must_use]
    pub fn fls() -> Self {
        Lineage(Arc::new(LineageNode::False))
    }

    /// An atomic lineage: a single base-tuple variable.
    #[must_use]
    pub fn var(v: VarId) -> Self {
        Lineage(Arc::new(LineageNode::Var(v)))
    }

    /// Negation with structural simplification:
    /// `¬true = false`, `¬false = true`, `¬¬φ = φ`.
    // An associated constructor like `and`/`or`, not a `!` overload: it
    // consumes its operand and simplifies structurally.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(operand: Lineage) -> Self {
        match operand.node() {
            LineageNode::True => Self::fls(),
            LineageNode::False => Self::tru(),
            LineageNode::Not(inner) => inner.clone(),
            _ => Lineage(Arc::new(LineageNode::Not(operand))),
        }
    }

    /// N-ary conjunction with flattening, unit elimination and
    /// deduplication. `and([])` is `true`; a conjunction containing `false`
    /// collapses to `false`.
    #[must_use]
    pub fn and(operands: Vec<Lineage>) -> Self {
        Self::nary(true, operands)
    }

    /// N-ary disjunction with flattening, unit elimination and
    /// deduplication. `or([])` is `false`; a disjunction containing `true`
    /// collapses to `true`.
    #[must_use]
    pub fn or(operands: Vec<Lineage>) -> Self {
        Self::nary(false, operands)
    }

    /// The shared body of [`and`](Self::and) / [`or`](Self::or): flattens
    /// one level, drops the unit, collapses on the absorbing constant and
    /// deduplicates in first-occurrence order. Windows over wide groups
    /// (e.g. the Meteo workload) build disjunctions with hundreds of
    /// operands, so membership checks go through a hash set.
    fn nary(is_and: bool, operands: Vec<Lineage>) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(operands.len());
        let mut flat = Vec::with_capacity(operands.len());
        let mut push = |l: &Lineage| {
            if seen.insert(l.clone()) {
                flat.push(l.clone());
            }
        };
        for op in &operands {
            match (op.node(), is_and) {
                (LineageNode::True, true) | (LineageNode::False, false) => {}
                (LineageNode::False, true) => return Self::fls(),
                (LineageNode::True, false) => return Self::tru(),
                (LineageNode::And(children), true) | (LineageNode::Or(children), false) => {
                    children.iter().for_each(&mut push);
                }
                _ => push(op),
            }
        }
        match flat.len() {
            0 if is_and => Self::tru(),
            0 => Self::fls(),
            1 => flat.swap_remove(0),
            _ if is_and => Lineage(Arc::new(LineageNode::And(flat))),
            _ => Lineage(Arc::new(LineageNode::Or(flat))),
        }
    }

    /// Wraps a node that already satisfies the constructors' normal form
    /// (flattened, constant-free, deduplicated `And`/`Or` of ≥ 2 children;
    /// `Not` over neither a constant nor a `Not`) — the arena's invariants,
    /// so [`crate::LineageInterner::to_lineage`] emits trees through here
    /// without re-normalizing them.
    pub(crate) fn from_normalized(node: LineageNode) -> Self {
        Lineage(Arc::new(node))
    }

    /// Binary conjunction convenience wrapper.
    #[must_use]
    pub fn and2(a: Lineage, b: Lineage) -> Self {
        Self::and(vec![a, b])
    }

    /// Binary disjunction convenience wrapper.
    #[must_use]
    pub fn or2(a: Lineage, b: Lineage) -> Self {
        Self::or(vec![a, b])
    }

    // ----- the paper's lineage concatenation functions -------------------

    /// The `and` concatenation function used for overlapping windows:
    /// `λr ∧ λs`.
    #[must_use]
    pub fn and_concat(lambda_r: &Lineage, lambda_s: &Lineage) -> Self {
        Self::and2(lambda_r.clone(), lambda_s.clone())
    }

    /// The `andNot` concatenation function used for negating windows:
    /// `λr ∧ ¬λs`.
    #[must_use]
    pub fn and_not_concat(lambda_r: &Lineage, lambda_s: &Lineage) -> Self {
        Self::and2(lambda_r.clone(), Self::not(lambda_s.clone()))
    }

    // ----- inspection ----------------------------------------------------

    /// The root node of the formula.
    #[must_use]
    pub fn node(&self) -> &LineageNode {
        &self.0
    }

    /// The set of variables mentioned anywhere in the formula.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self.node() {
            LineageNode::True | LineageNode::False => {}
            LineageNode::Var(v) => {
                out.insert(*v);
            }
            LineageNode::Not(c) => c.collect_vars(out),
            LineageNode::And(cs) | LineageNode::Or(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
        }
    }

    /// Evaluates the formula in the possible world described by
    /// `assignment`.
    pub fn evaluate<F: Fn(VarId) -> bool + Copy>(&self, assignment: F) -> bool {
        match self.node() {
            LineageNode::True => true,
            LineageNode::False => false,
            LineageNode::Var(v) => assignment(*v),
            LineageNode::Not(c) => !c.evaluate(assignment),
            LineageNode::And(cs) => cs.iter().all(|c| c.evaluate(assignment)),
            LineageNode::Or(cs) => cs.iter().any(|c| c.evaluate(assignment)),
        }
    }

    /// Renders the formula with the names from `syms` (falling back to the
    /// raw variable id when a name is unknown).
    #[must_use]
    #[expect(clippy::expect_used, reason = "writing to a String cannot fail")]
    pub fn display_with(&self, syms: &SymbolTable) -> String {
        let mut s = String::new();
        write_lineage(&mut s, self, Some(syms), prec::TOP)
            .expect("writing to a String cannot fail");
        s
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_lineage(f, self, None, prec::TOP)
    }
}

/// The binding strength of a formula's text form: a child whose operator
/// binds more loosely than its parent's context is parenthesized.
pub(crate) mod prec {
    /// The context of a whole formula: nothing is parenthesized.
    pub const TOP: u8 = 0;
    /// `∨`, the loosest operator.
    pub const OR: u8 = 1;
    /// `∧`.
    pub const AND: u8 = 2;
    /// `¬` and atoms: the operand of `¬` is written in this context.
    pub const ATOM: u8 = 3;
}

/// `And` or `Or` as text: its separator and its precedence.
#[derive(Clone, Copy)]
pub(crate) enum Junction {
    And,
    Or,
}

impl Junction {
    fn prec(self) -> u8 {
        match self {
            Junction::And => prec::AND,
            Junction::Or => prec::OR,
        }
    }

    /// The separator between two operands.
    pub(crate) fn separator(self) -> &'static str {
        match self {
            Junction::And => " ∧ ",
            Junction::Or => " ∨ ",
        }
    }
}

/// The negation sign, written before its operand.
pub(crate) const NOT: char = '¬';

/// Writes `l` as text in a context of precedence `parent` (see [`prec`]),
/// naming variables from `syms` where it knows them and `x<id>` otherwise.
/// The one text writer of lineage formulas: [`Lineage`]'s `Display` and
/// [`Lineage::display_with`] call it, and a deferred
/// [`crate::LazyLineage`] prints its recipe through its pieces. It
/// allocates nothing beyond what `out` does.
pub(crate) fn write_lineage<W: fmt::Write + ?Sized>(
    out: &mut W,
    l: &Lineage,
    syms: Option<&SymbolTable>,
    parent: u8,
) -> fmt::Result {
    match l.node() {
        LineageNode::True => out.write_char('⊤'),
        LineageNode::False => out.write_char('⊥'),
        LineageNode::Var(v) => match syms.and_then(|s| s.name(*v)) {
            Some(name) => out.write_str(name),
            None => {
                out.write_char('x')?;
                write_decimal(out, v.0.into())
            }
        },
        LineageNode::Not(c) => {
            out.write_char(NOT)?;
            write_lineage(out, c, syms, prec::ATOM)
        }
        LineageNode::And(cs) => write_junction(out, Junction::And, cs, syms, parent),
        LineageNode::Or(cs) => write_junction(out, Junction::Or, cs, syms, parent),
    }
}

/// Writes `n` in decimal — the text of its `Display` — with plain byte
/// writes: the row writers' digits (variable ids here, integer facts and
/// interval endpoints on the wire) go through no `fmt::Arguments`.
pub fn write_decimal<W: fmt::Write + ?Sized>(out: &mut W, n: i64) -> fmt::Result {
    let mut digits = [b'-'; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    while at == digits.len() || rest > 0 {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    at -= usize::from(n < 0);
    out.write_str(std::str::from_utf8(&digits[at..]).map_err(|_| fmt::Error)?)
}

/// Writes the `junction` of `operands` in a context of precedence
/// `parent`, parenthesized when the junction binds more loosely.
pub(crate) fn write_junction<W: fmt::Write + ?Sized, L: Borrow<Lineage>>(
    out: &mut W,
    junction: Junction,
    operands: impl IntoIterator<Item = L>,
    syms: Option<&SymbolTable>,
    parent: u8,
) -> fmt::Result {
    let paren = parent > junction.prec();
    if paren {
        out.write_char('(')?;
    }
    write_operands(out, junction, operands, syms)?;
    if paren {
        out.write_char(')')?;
    }
    Ok(())
}

/// Writes `operands` separated by `junction`'s separator, each in the
/// junction's context, without parentheses around the list.
pub(crate) fn write_operands<W: fmt::Write + ?Sized, L: Borrow<Lineage>>(
    out: &mut W,
    junction: Junction,
    operands: impl IntoIterator<Item = L>,
    syms: Option<&SymbolTable>,
) -> fmt::Result {
    for (i, c) in operands.into_iter().enumerate() {
        if i > 0 {
            out.write_str(junction.separator())?;
        }
        write_lineage(out, c.borrow(), syms, junction.prec())?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Shannon cofactor on trees, the reference of the arena's
    /// [`crate::LineageInterner::condition`].
    pub(crate) trait Cofactor {
        /// Conditions the formula on `var = value`, applying the
        /// constructors' simplifications.
        fn condition(&self, var: VarId, value: bool) -> Lineage;
    }

    impl Cofactor for Lineage {
        fn condition(&self, var: VarId, value: bool) -> Lineage {
            match self.node() {
                LineageNode::Var(v) if *v == var && value => Lineage::tru(),
                LineageNode::Var(v) if *v == var => Lineage::fls(),
                LineageNode::True | LineageNode::False | LineageNode::Var(_) => self.clone(),
                LineageNode::Not(c) => Lineage::not(c.condition(var, value)),
                LineageNode::And(cs) => {
                    Lineage::and(cs.iter().map(|c| c.condition(var, value)).collect())
                }
                LineageNode::Or(cs) => {
                    Lineage::or(cs.iter().map(|c| c.condition(var, value)).collect())
                }
            }
        }
    }

    fn is_false(l: &Lineage) -> bool {
        matches!(l.node(), LineageNode::False)
    }

    fn is_true(l: &Lineage) -> bool {
        matches!(l.node(), LineageNode::True)
    }

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    #[test]
    fn constants_and_atoms() {
        assert!(is_true(&Lineage::tru()));
        assert!(is_false(&Lineage::fls()));
        assert!(!is_true(&v(0)));
        assert_eq!(v(3).vars().into_iter().collect::<Vec<_>>(), vec![VarId(3)]);
    }

    #[test]
    fn not_simplifications() {
        assert!(is_false(&Lineage::not(Lineage::tru())));
        assert!(is_true(&Lineage::not(Lineage::fls())));
        assert_eq!(Lineage::not(Lineage::not(v(1))), v(1));
    }

    #[test]
    fn and_simplifications() {
        assert!(is_true(&Lineage::and(vec![])));
        assert_eq!(Lineage::and(vec![v(1)]), v(1));
        assert!(is_false(&Lineage::and(vec![v(1), Lineage::fls()])));
        assert_eq!(Lineage::and(vec![v(1), Lineage::tru()]), v(1));
        // flattening and dedup
        let nested = Lineage::and(vec![Lineage::and(vec![v(1), v(2)]), v(2), v(3)]);
        match nested.node() {
            LineageNode::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn or_simplifications() {
        assert!(is_false(&Lineage::or(vec![])));
        assert_eq!(Lineage::or(vec![v(1)]), v(1));
        assert!(is_true(&Lineage::or(vec![v(1), Lineage::tru()])));
        assert_eq!(Lineage::or(vec![v(1), Lineage::fls()]), v(1));
        let nested = Lineage::or(vec![Lineage::or(vec![v(1), v(2)]), v(1)]);
        match nested.node() {
            LineageNode::Or(cs) => assert_eq!(cs.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn concat_functions_match_paper_shapes() {
        let mut syms = SymbolTable::new();
        let a1 = syms.intern("a1");
        let b2 = syms.intern("b2");
        let b3 = syms.intern("b3");

        let overlap = Lineage::and_concat(&Lineage::var(a1), &Lineage::var(b3));
        assert_eq!(overlap.display_with(&syms), "a1 ∧ b3");

        let neg = Lineage::and_not_concat(
            &Lineage::var(a1),
            &Lineage::or(vec![Lineage::var(b3), Lineage::var(b2)]),
        );
        assert_eq!(neg.display_with(&syms), "a1 ∧ ¬(b3 ∨ b2)");
    }

    #[test]
    fn evaluate_respects_boolean_semantics() {
        let f = Lineage::and2(v(0), Lineage::not(Lineage::or2(v(1), v(2))));
        // true only when x0=1, x1=0, x2=0
        let worlds = [
            ([true, false, false], true),
            ([true, true, false], false),
            ([true, false, true], false),
            ([false, false, false], false),
        ];
        for (w, expected) in worlds {
            assert_eq!(f.evaluate(|v| w[v.index() as usize]), expected);
        }
    }

    #[test]
    fn condition_produces_cofactors() {
        let f = Lineage::and2(v(0), Lineage::or2(v(1), v(2)));
        assert_eq!(f.condition(VarId(0), false), Lineage::fls());
        assert_eq!(f.condition(VarId(0), true), Lineage::or2(v(1), v(2)));
        assert_eq!(f.condition(VarId(1), true), v(0));
    }

    #[test]
    fn display_uses_symbols_and_falls_back_to_ids() {
        let mut syms = SymbolTable::new();
        let a1 = syms.intern("a1");
        let f = Lineage::and2(Lineage::var(a1), Lineage::var(VarId(42)));
        assert_eq!(f.display_with(&syms), "a1 ∧ x42");
    }

    // ---- property tests -------------------------------------------------

    fn arb_lineage() -> impl Strategy<Value = Lineage> {
        let leaf = prop_oneof![
            (0u32..6).prop_map(|i| Lineage::var(VarId(i))),
            Just(Lineage::tru()),
            Just(Lineage::fls()),
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(Lineage::not),
                proptest::collection::vec(inner.clone(), 2..4).prop_map(Lineage::and),
                proptest::collection::vec(inner, 2..4).prop_map(Lineage::or),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_double_negation_preserves_semantics(f in arb_lineage(), world in proptest::collection::vec(any::<bool>(), 6)) {
            let g = Lineage::not(Lineage::not(f.clone()));
            let assign = |v: VarId| world[v.index() as usize];
            prop_assert_eq!(f.evaluate(assign), g.evaluate(assign));
        }

        #[test]
        fn prop_condition_agrees_with_evaluation(f in arb_lineage(), world in proptest::collection::vec(any::<bool>(), 6), var in 0u32..6) {
            let var = VarId(var);
            let value = world[var.index() as usize];
            let cofactor = f.condition(var, value);
            let assign = |v: VarId| world[v.index() as usize];
            prop_assert_eq!(f.evaluate(assign), cofactor.evaluate(assign));
            // the cofactor no longer depends on `var`
            prop_assert!(!cofactor.vars().contains(&var));
        }

        #[test]
        fn prop_de_morgan(f in arb_lineage(), g in arb_lineage(), world in proptest::collection::vec(any::<bool>(), 6)) {
            let assign = |v: VarId| world[v.index() as usize];
            let lhs = Lineage::not(Lineage::and2(f.clone(), g.clone()));
            let rhs = Lineage::or2(Lineage::not(f), Lineage::not(g));
            prop_assert_eq!(lhs.evaluate(assign), rhs.evaluate(assign));
        }

        #[test]
        fn prop_constructors_preserve_semantics(fs in proptest::collection::vec(arb_lineage(), 0..4), world in proptest::collection::vec(any::<bool>(), 6)) {
            let assign = |v: VarId| world[v.index() as usize];
            let and = Lineage::and(fs.clone());
            let or = Lineage::or(fs.clone());
            prop_assert_eq!(and.evaluate(assign), fs.iter().all(|f| f.evaluate(assign)));
            prop_assert_eq!(or.evaluate(assign), fs.iter().any(|f| f.evaluate(assign)));
        }
    }
}
