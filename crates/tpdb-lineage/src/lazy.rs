//! Output lineages whose tree is built on first read.
//!
//! The consumer of a TP join needs each output tuple's probability, which
//! [`crate::ProbabilityEngine`] prices from the operands at output
//! formation; the formula itself is read only by some consumers (display,
//! snapshots, a join over the result). A read-once concatenation therefore
//! travels as a *recipe* over its operands' already-converted trees, and the
//! `And`/`Or`/`Not` wrapper of the root is allocated the first time
//! [`LazyLineage::get`] is called — once, shared by every clone.

use crate::formula::{
    prec, write_junction, write_lineage, write_operands, Junction, Lineage, LineageNode, NOT,
};
use crate::symbols::VarId;
use std::fmt;
use std::slice;
use std::sync::{Arc, OnceLock};

/// An output tuple's lineage: a built [`Lineage`] tree, or a read-once
/// concatenation whose tree is built on the first [`get`](Self::get).
/// Sixteen bytes either way; cloning is a reference-count increment.
#[derive(Clone)]
pub struct LazyLineage(Repr);

#[derive(Clone)]
enum Repr {
    Tree(Lineage),
    Deferred(Arc<Deferred>),
}

/// A recipe and the tree it builds, once.
struct Deferred {
    tree: OnceLock<Lineage>,
    recipe: Recipe,
}

/// How a read-once root is assembled from its operands' trees. Every shape
/// is only formed when the operands share no variable, so concatenating
/// their conjuncts is already the constructors' normal form.
enum Recipe {
    /// `a ∧ b`: the conjuncts of `a`, then those of `b`.
    And2(Lineage, Lineage),
    /// `a ∧ ¬b` (`b` neither a constant nor a negation): the conjuncts of
    /// `a`, then `¬b`.
    AndNot(Lineage, Lineage),
    /// `[λr, c₁, …, c_k]` (k ≥ 2, the `cᵢ` flattened and distinct):
    /// `λr ∧ ¬(c₁ ∨ … ∨ c_k)`.
    AndNotOr(Box<[Lineage]>),
}

impl Recipe {
    fn build(&self) -> Lineage {
        let conjuncts = match self {
            Recipe::And2(a, b) => [conjuncts(a), conjuncts(b)].concat(),
            Recipe::AndNot(a, b) => {
                let not = Lineage::from_normalized(LineageNode::Not(b.clone()));
                [conjuncts(a), slice::from_ref(&not)].concat()
            }
            Recipe::AndNotOr(operands) => {
                let (conjuncts_r, disjuncts) = span_operands(operands);
                let or = Lineage::from_normalized(LineageNode::Or(disjuncts.to_vec()));
                let not = Lineage::from_normalized(LineageNode::Not(or));
                [conjuncts_r, slice::from_ref(&not)].concat()
            }
        };
        Lineage::from_normalized(LineageNode::And(conjuncts))
    }
}

/// The text of the tree [`Recipe::build`] builds, written without building
/// it: the root's conjuncts in order, the negated operand last.
impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let and = Junction::And;
        match self {
            Recipe::And2(a, b) => {
                write_operands(f, and, conjuncts(a), None)?;
                f.write_str(and.separator())?;
                write_operands(f, and, conjuncts(b), None)
            }
            Recipe::AndNot(a, b) => {
                write_operands(f, and, conjuncts(a), None)?;
                write!(f, "{}{NOT}", and.separator())?;
                write_lineage(f, b, None, prec::ATOM)
            }
            Recipe::AndNotOr(operands) => {
                let (conjuncts_r, disjuncts) = span_operands(operands);
                write_operands(f, and, conjuncts_r, None)?;
                write!(f, "{}{NOT}", and.separator())?;
                write_junction(f, Junction::Or, disjuncts, None, prec::ATOM)
            }
        }
    }
}

/// The operands a conjunction flattens `l` into.
fn conjuncts(l: &Lineage) -> &[Lineage] {
    match l.node() {
        LineageNode::And(children) => children,
        _ => slice::from_ref(l),
    }
}

/// A span recipe's `[λr, c₁, …, c_k]` split into the conjuncts of `λr` and
/// the disjuncts `cᵢ`.
fn span_operands(operands: &[Lineage]) -> (&[Lineage], &[Lineage]) {
    match operands.split_first() {
        Some((lambda_r, disjuncts)) => (conjuncts(lambda_r), disjuncts),
        None => (&[], &[]),
    }
}

impl LazyLineage {
    /// `a ∧ b` over two non-constant trees that share no variable and
    /// whose conjuncts are pairwise distinct.
    pub(crate) fn and2(a: Lineage, b: Lineage) -> Self {
        Self::deferred(Recipe::And2(a, b))
    }

    /// `a ∧ ¬b` over a non-constant `a` and a `b` that is neither a constant
    /// nor a negation, sharing no variable with `a`: the tree of
    /// `and2(a, ¬b)` without an interned `¬b`.
    pub(crate) fn and_not(a: Lineage, b: Lineage) -> Self {
        Self::deferred(Recipe::AndNot(a, b))
    }

    /// `λr ∧ ¬(c₁ ∨ … ∨ c_k)` over `[λr, c₁, …, c_k]`: a non-constant `λr`
    /// and k ≥ 2 distinct, flattened disjuncts, no two sharing a variable.
    pub(crate) fn and_not_or(operands: Vec<Lineage>) -> Self {
        debug_assert!(operands.len() >= 3, "a span recipe needs two disjuncts");
        Self::deferred(Recipe::AndNotOr(operands.into_boxed_slice()))
    }

    fn deferred(recipe: Recipe) -> Self {
        Self(Repr::Deferred(Arc::new(Deferred {
            tree: OnceLock::new(),
            recipe,
        })))
    }

    /// The lineage tree, built on the first call (thread-safe; every
    /// clone sees the same tree).
    #[must_use]
    pub fn get(&self) -> &Lineage {
        match &self.0 {
            Repr::Tree(tree) => tree,
            Repr::Deferred(d) => d.tree.get_or_init(|| d.recipe.build()),
        }
    }

    /// The base-tuple variable when the lineage is atomic, without building
    /// a deferred tree (a deferred root is always a conjunction).
    #[must_use]
    pub fn as_var(&self) -> Option<VarId> {
        match &self.0 {
            Repr::Tree(tree) => match tree.node() {
                LineageNode::Var(v) => Some(*v),
                _ => None,
            },
            Repr::Deferred(_) => None,
        }
    }

    /// Is the tree still unbuilt?
    #[must_use]
    pub fn is_deferred(&self) -> bool {
        matches!(&self.0, Repr::Deferred(d) if d.tree.get().is_none())
    }
}

impl From<Lineage> for LazyLineage {
    fn from(tree: Lineage) -> Self {
        Self(Repr::Tree(tree))
    }
}

impl PartialEq for LazyLineage {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

/// The text of [`get`](Self::get)'s tree; a deferred root is printed from
/// its recipe and stays deferred.
impl fmt::Display for LazyLineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Tree(tree) => tree.fmt(f),
            Repr::Deferred(d) => d.recipe.fmt(f),
        }
    }
}

impl fmt::Debug for LazyLineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: u32) -> Lineage {
        Lineage::var(VarId(v))
    }

    #[test]
    fn recipes_build_the_constructors_trees() {
        let (x, y, z) = (var(0), var(1), var(2));
        let xy = Lineage::and2(x.clone(), y.clone());
        let lazy = LazyLineage::and2(xy.clone(), Lineage::not(z.clone()));
        assert!(lazy.is_deferred());
        assert_eq!(lazy.get(), &Lineage::and_not_concat(&xy, &z));
        assert!(!lazy.is_deferred());

        let negated = LazyLineage::and_not(xy.clone(), z.clone());
        assert_eq!(negated.get(), &Lineage::and_not_concat(&xy, &z));

        let span = LazyLineage::and_not_or(vec![x.clone(), y.clone(), z.clone()]);
        let or = Lineage::or2(y, z);
        assert_eq!(span.get(), &Lineage::and_not_concat(&x, &or));
        assert_eq!(span.as_var(), None);
        assert_eq!(LazyLineage::from(x).as_var(), Some(VarId(0)));
    }

    #[test]
    fn recipes_print_their_trees_text_without_building_them() {
        let (x, y, z, w) = (var(0), var(1), var(2), var(3));
        let xy = Lineage::and2(x.clone(), y.clone());
        let zw = Lineage::or2(z.clone(), w.clone());
        let cases = [
            LazyLineage::and2(x.clone(), y.clone()),
            LazyLineage::and2(xy.clone(), Lineage::not(zw.clone())),
            LazyLineage::and_not(x.clone(), z.clone()),
            LazyLineage::and_not(xy.clone(), zw.clone()),
            LazyLineage::and_not(x.clone(), Lineage::and2(z.clone(), w.clone())),
            LazyLineage::and_not_or(vec![xy, z, Lineage::and2(w, Lineage::not(x))]),
        ];
        for lazy in cases {
            let text = lazy.to_string();
            assert!(lazy.is_deferred(), "{text}");
            assert_eq!(text, lazy.get().to_string());
        }
        assert_eq!(
            LazyLineage::and_not_or(vec![var(0), var(4), var(3)]).to_string(),
            "x0 ∧ ¬(x4 ∨ x3)"
        );
    }

    #[test]
    fn sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LazyLineage>(), 16);
    }
}
