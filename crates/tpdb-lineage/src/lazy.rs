//! Output lineages whose tree is built on first read.
//!
//! The consumer of a TP join needs each output tuple's probability, which
//! [`crate::ProbabilityEngine`] prices from the operands' arena nodes at
//! output formation; the formula itself is read only by some consumers
//! (display, the wire, snapshots, a join over the result). A read-once
//! concatenation of Table II — `λr ∧ λs`, `λr ∧ ¬λs`,
//! `λr ∧ ¬(c₁ ∨ … ∨ c_k)`, the union's `λr ∨ λs` — therefore travels as a
//! *recipe*: the concatenation function and its operands' `u32` node ids
//! (a span's in one boxed slice), plus one [`Arc`] of the
//! [`FrozenOverlay`] the ids resolve in. The tree is built the first time
//! [`LazyLineage::get`] is called — once, shared by every clone — from the
//! overlay's per-node trees; `Display` writes the same text from those
//! trees without building the root. Forming a row touches no tree: it
//! clones one `Arc` and copies ids. (While recipes held clones of the
//! operands' trees — one reference count per operand, on nodes scattered
//! over the arena — the lineage half of certified formation over
//! `meteo_like(3000, 64)` took 5.3–5.9 ms per pass; over ids, 3.3–3.8 ms.)
//!
//! A recipe keeps its overlay alive, and with it the catalog arena under
//! it: a row stays readable after its statement, its session and its
//! catalog epoch are gone (a `LOAD SNAPSHOT` included).
//!
//! The recipe sits behind the `Arc`, so a [`LazyLineage`] is 16 bytes
//! whatever it holds: every stored tuple carries one, and `TpTuple` must
//! stay within 64 bytes (an inline recipe made it 96 and raised
//! `webkit_full`'s peak RSS by 15 %).
//!
//! A derived input interns a recipe straight from its ids
//! ([`LazyLineage::intern_into`]), building no tree.

use crate::arena::LineageArena;
use crate::formula::{
    prec, write_junction, write_lineage, write_operands, Junction, Lineage, LineageNode, NOT,
};
use crate::intern::{InternedNode, LineageInterner, LineageRef};
use crate::prob::Concat;
use crate::symbols::VarId;
use std::fmt;
use std::slice;
use std::sync::{Arc, OnceLock};

/// An output tuple's lineage: a built [`Lineage`] tree, or a recipe over
/// arena node ids whose tree is built on the first [`get`](Self::get).
/// Sixteen bytes either way; cloning is a reference-count increment.
#[derive(Clone)]
pub struct LazyLineage(Repr);

#[derive(Clone)]
enum Repr {
    Tree(Lineage),
    Deferred(Arc<Deferred>),
}

/// A recipe, the overlay its ids resolve in, and the tree it builds, once.
struct Deferred {
    tree: OnceLock<Lineage>,
    nodes: Arc<FrozenOverlay>,
    recipe: Recipe,
}

/// How a root is assembled from arena nodes. It is only formed over a
/// certified statement's operands: read-once, sharing no variable, neither
/// a constant nor a negation, so concatenating their conjuncts (disjuncts)
/// is already the constructors' normal form.
enum Recipe {
    /// `how(λr, c)`: `λs` is one node.
    Pair(Concat, LineageRef, LineageRef),
    /// `how(λr, c₁ ∨ … ∨ c_k)` over a span's k ≥ 2 distinct, flattened
    /// disjuncts.
    Span(Concat, LineageRef, Box<[LineageRef]>),
}

impl Recipe {
    /// The concatenation function, `λr` and the operands of `λs`.
    fn parts(&self) -> (Concat, LineageRef, &[LineageRef]) {
        match self {
            Recipe::Pair(how, r, c) => (*how, *r, slice::from_ref(c)),
            Recipe::Span(how, r, span) => (*how, *r, span),
        }
    }
}

/// The nodes a recipe's ids resolve in: a frozen [`LineageArena`] — the
/// catalog's, for a statement over stored relations — and the statement
/// engine's own nodes, frozen on top of it when the statement was
/// certified, before its first row (a derived or free-relation input's
/// column). Ids below the arena's length are the arena's; the rest index
/// the own nodes. Immutable but for each own node's tree, built on first
/// read unless the engine had converted it.
#[derive(Debug)]
pub(crate) struct FrozenOverlay {
    pub(crate) arena: Arc<LineageArena>,
    pub(crate) own: Box<[InternedNode]>,
    pub(crate) trees: Box<[OnceLock<Lineage>]>,
}

impl FrozenOverlay {
    /// Node `r`: the arena's, or an own node.
    fn node(&self, r: LineageRef) -> &InternedNode {
        match r.index().checked_sub(self.arena.len()) {
            Some(i) => &self.own[i],
            None => &self.arena.nodes.nodes[r.index()],
        }
    }

    /// The tree of node `r`: an arena node's, or an own node's, built from
    /// its children's trees the first time it is asked for.
    pub(crate) fn tree(&self, r: LineageRef) -> Lineage {
        let own = r.index().checked_sub(self.arena.len());
        let build = || {
            let children = |cs: &[LineageRef]| cs.iter().map(|&c| self.tree(c)).collect();
            Lineage::from_normalized(match self.node(r) {
                InternedNode::True => LineageNode::True,
                InternedNode::False => LineageNode::False,
                InternedNode::Var(v) => LineageNode::Var(*v),
                InternedNode::Not(c) => LineageNode::Not(self.tree(*c)),
                InternedNode::And(cs) => LineageNode::And(children(cs)),
                InternedNode::Or(cs) => LineageNode::Or(children(cs)),
            })
        };
        match own {
            Some(i) => self.trees[i].get_or_init(build).clone(),
            None => self.arena.nodes.legacy[r.index()]
                .clone()
                .unwrap_or_else(build),
        }
    }
}

/// The operands a conjunction (`and`) or a disjunction flattens `l` into.
fn flatten(l: &Lineage, and: bool) -> &[Lineage] {
    match (l.node(), and) {
        (LineageNode::And(children), true) | (LineageNode::Or(children), false) => children,
        _ => slice::from_ref(l),
    }
}

impl Deferred {
    /// The tree of the recipe: the root's conjuncts (disjuncts) in order,
    /// `¬λs` last.
    fn build(&self) -> Lineage {
        let tree = |c: &LineageRef| self.nodes.tree(*c);
        let (how, r, span) = self.recipe.parts();
        let and = how != Concat::Or;
        let lambda_s = match span {
            [c] => tree(c),
            _ => Lineage::from_normalized(LineageNode::Or(span.iter().map(tree).collect())),
        };
        let negated;
        let tail = if how == Concat::AndNot {
            negated = Lineage::from_normalized(LineageNode::Not(lambda_s));
            slice::from_ref(&negated)
        } else {
            flatten(&lambda_s, and)
        };
        let children = [flatten(&tree(&r), and), tail].concat();
        Lineage::from_normalized(if and {
            LineageNode::And(children)
        } else {
            LineageNode::Or(children)
        })
    }

    /// Writes the text of the tree [`build`](Self::build) builds, from the
    /// operands' trees without building it.
    fn write_text<W: fmt::Write + ?Sized>(&self, f: &mut W) -> fmt::Result {
        let tree = |c: &LineageRef| self.nodes.tree(*c);
        let (how, r, span) = self.recipe.parts();
        let and = how != Concat::Or;
        let junction = if and { Junction::And } else { Junction::Or };
        write_operands(f, junction, flatten(&tree(&r), and), None)?;
        f.write_str(junction.separator())?;
        if how == Concat::AndNot {
            f.write_char(NOT)?;
        }
        match span {
            [c] if how == Concat::AndNot => write_lineage(f, &tree(c), None, prec::ATOM),
            [c] => write_operands(f, junction, flatten(&tree(c), and), None),
            _ if and => write_junction(f, Junction::Or, span.iter().map(tree), None, prec::ATOM),
            _ => write_operands(f, junction, span.iter().map(tree), None),
        }
    }
}

impl LazyLineage {
    /// `how(λr, c₁ ∨ … ∨ c_k)` over `lambda_s = [c₁, …, c_k]` (k ≥ 1) of a
    /// certified statement, whose ids resolve in `nodes`: `λr` is a root of
    /// one column, and the `cᵢ` one root of the other column or a span's
    /// distinct, flattened disjuncts.
    pub(crate) fn concat(
        nodes: &Arc<FrozenOverlay>,
        how: Concat,
        lambda_r: LineageRef,
        lambda_s: &[LineageRef],
    ) -> Self {
        let recipe = match *lambda_s {
            [c] => Recipe::Pair(how, lambda_r, c),
            _ => Recipe::Span(how, lambda_r, lambda_s.into()),
        };
        Self(Repr::Deferred(Arc::new(Deferred {
            tree: OnceLock::new(),
            nodes: Arc::clone(nodes),
            recipe,
        })))
    }

    /// The lineage tree, built on the first call (thread-safe; every
    /// clone sees the same tree).
    #[must_use]
    pub fn get(&self) -> &Lineage {
        match &self.0 {
            Repr::Tree(tree) => tree,
            Repr::Deferred(d) => d.tree.get_or_init(|| d.build()),
        }
    }

    /// The base-tuple variable when the lineage is atomic, without building
    /// a deferred tree (a concatenation is never atomic).
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

    /// Writes the text of [`get`](Self::get)'s tree — what `Display`
    /// writes — straight into `out`; a deferred root is printed from its
    /// recipe and stays deferred.
    pub fn write_text<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match &self.0 {
            Repr::Tree(tree) => write_lineage(out, tree, None, prec::TOP),
            Repr::Deferred(d) => d.write_text(out),
        }
    }

    /// Interns the lineage into `interner` and returns its root: a tree as
    /// a tree, a recipe from its ids — the overlay's nodes are interned
    /// structurally unless they are the interner's own arena's — with the
    /// constructors [`intern`](LineageInterner::intern) of the built tree
    /// would call, so the root is the same node and no tree is built.
    pub(crate) fn intern_into(&self, interner: &mut LineageInterner) -> LineageRef {
        let d = match &self.0 {
            Repr::Tree(tree) => return interner.intern_seeded(tree),
            Repr::Deferred(d) => d,
        };
        let (how, r, span) = d.recipe.parts();
        let and = how != Concat::Or;
        // The root's conjuncts (disjuncts), as `build` flattens them: a
        // matching compound operand is imported child by child, so no node
        // of it is appended that the tree's interning would not append.
        let mut operands = Vec::new();
        let mut import_flat =
            |interner: &mut LineageInterner, c: LineageRef| match (d.nodes.node(c), and) {
                (InternedNode::And(cs), true) | (InternedNode::Or(cs), false) => {
                    operands.extend(cs.iter().map(|&k| interner.import(&d.nodes, k)));
                }
                _ => operands.push(interner.import(&d.nodes, c)),
            };
        import_flat(interner, r);
        match (how, span) {
            (Concat::Or, _) | (Concat::And, [_]) => {
                span.iter().for_each(|&c| import_flat(interner, c));
            }
            _ => {
                let disjuncts: Vec<LineageRef> =
                    span.iter().map(|&c| interner.import(&d.nodes, c)).collect();
                let lambda_s = interner.or(&disjuncts);
                operands.push(match how {
                    Concat::AndNot => interner.not(lambda_s),
                    _ => lambda_s,
                });
            }
        }
        interner.nary(and, &operands)
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
        self.write_text(f)
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
    use crate::ProbabilityEngine;

    fn var(v: u32) -> Lineage {
        Lineage::var(VarId(v))
    }

    /// An engine over `column`, interned, certified: the overlay the
    /// recipes resolve in, and the column's roots.
    fn overlay(column: &[Lineage]) -> (Arc<FrozenOverlay>, Vec<LineageRef>) {
        let mut engine = ProbabilityEngine::new();
        let column: Vec<LazyLineage> = column.iter().cloned().map(LazyLineage::from).collect();
        let roots = engine.interner_mut().intern_column(column.iter());
        (engine.interner().freeze(), roots)
    }

    #[test]
    fn recipes_build_the_constructors_trees() {
        let (x, y, z, w) = (var(0), var(1), var(2), var(3));
        let xy = Lineage::and2(x.clone(), y.clone());
        let zw = Lineage::or2(z.clone(), w.clone());
        let (nodes, ids) = overlay(&[x.clone(), xy.clone(), z.clone(), w.clone(), zw.clone()]);
        let [x_, xy_, z_, w_, zw_] = ids[..] else {
            panic!("five roots")
        };
        let cases = [
            (
                Concat::And,
                xy_,
                vec![zw_],
                Lineage::and2(xy.clone(), zw.clone()),
            ),
            (
                Concat::AndNot,
                xy_,
                vec![zw_],
                Lineage::and_not_concat(&xy, &zw),
            ),
            (
                Concat::AndNot,
                x_,
                vec![z_, w_],
                Lineage::and_not_concat(&x, &zw),
            ),
            (
                Concat::And,
                x_,
                vec![z_, w_],
                Lineage::and2(x.clone(), zw.clone()),
            ),
            (
                Concat::Or,
                xy_,
                vec![zw_],
                Lineage::or2(xy.clone(), zw.clone()),
            ),
            (
                Concat::Or,
                x_,
                vec![z_, w_],
                Lineage::or(vec![x.clone(), z.clone(), w]),
            ),
        ];
        for (how, r, span, want) in cases {
            let lazy = LazyLineage::concat(&nodes, how, r, &span);
            assert!(lazy.is_deferred());
            assert_eq!(lazy.as_var(), None);
            assert_eq!(lazy.get(), &want, "{how:?}");
            assert!(!lazy.is_deferred());
        }
        assert!(
            std::ptr::eq(nodes.tree(xy_).node(), xy.node()),
            "a seeded tree"
        );
        assert_eq!(LazyLineage::from(nodes.tree(x_)).as_var(), Some(VarId(0)));
    }

    #[test]
    fn recipes_print_their_trees_text_without_building_them() {
        let (x, y, z, w) = (var(0), var(1), var(2), var(3));
        let xy = Lineage::and2(x.clone(), y.clone());
        let zw = Lineage::or2(z.clone(), w.clone());
        let z_and_w = Lineage::and2(z.clone(), w.clone());
        let (nodes, ids) = overlay(&[x, xy, z, w, zw, z_and_w, var(4)]);
        let [x_, xy_, z_, w_, zw_, z_and_w_, v4] = ids[..] else {
            panic!("seven roots")
        };
        let cases = [
            (Concat::And, x_, vec![z_]),
            (Concat::And, xy_, vec![zw_]),
            (Concat::And, xy_, vec![z_and_w_]),
            (Concat::And, x_, vec![z_, w_]),
            (Concat::AndNot, x_, vec![z_]),
            (Concat::AndNot, xy_, vec![zw_]),
            (Concat::AndNot, x_, vec![z_and_w_]),
            (Concat::AndNot, xy_, vec![z_, z_and_w_]),
            (Concat::Or, x_, vec![zw_]),
            (Concat::Or, zw_, vec![xy_]),
            (Concat::Or, xy_, vec![z_, w_]),
        ];
        for (how, r, span) in cases {
            let lazy = LazyLineage::concat(&nodes, how, r, &span);
            let text = lazy.to_string();
            assert!(lazy.is_deferred(), "{text}");
            assert_eq!(text, lazy.get().to_string());
        }
        assert_eq!(
            LazyLineage::concat(&nodes, Concat::AndNot, x_, &[v4, w_]).to_string(),
            "x0 ∧ ¬(x4 ∨ x3)"
        );
    }

    #[test]
    fn a_recipe_interns_to_the_node_of_its_tree_without_building_it() {
        let (x, y, z, w) = (var(0), var(1), var(2), var(3));
        let xy = Lineage::and2(x.clone(), y.clone());
        let (nodes, ids) = overlay(&[x, xy, z, w]);
        let [x_, xy_, z_, w_] = ids[..] else {
            panic!("four roots")
        };
        for (how, r, span) in [
            (Concat::And, xy_, vec![z_]),
            (Concat::And, z_, vec![xy_]),
            (Concat::AndNot, xy_, vec![z_, w_]),
            (Concat::Or, x_, vec![z_, w_]),
        ] {
            let lazy = LazyLineage::concat(&nodes, how, r, &span);
            let (mut by_ids, mut by_tree) = (ProbabilityEngine::new(), ProbabilityEngine::new());
            let root = lazy.intern_into(by_ids.interner_mut());
            assert!(lazy.is_deferred());
            by_tree.intern(lazy.get());
            assert_eq!(
                by_ids.interner().len(),
                by_tree.interner().len(),
                "{how:?}: the nodes of the tree, no more"
            );
            assert_eq!(by_ids.intern(lazy.get()), root, "{how:?}");
            assert_eq!(by_ids.verify_arena(), Ok(()));
        }
    }

    /// An engine over a frozen arena of `column`'s trees.
    fn over_arena(column: &[Lineage]) -> ProbabilityEngine {
        let marginals = (0..8).map(|v| (VarId(v), 0.5)).collect();
        let mut builder = LineageArena::builder(Arc::new(marginals));
        let column: Vec<LazyLineage> = column.iter().cloned().map(LazyLineage::from).collect();
        builder.column(Arc::new(()), column.iter());
        ProbabilityEngine::over(Arc::new(builder.finish()))
    }

    #[test]
    fn a_recipe_over_another_arena_interns_by_structure() {
        let (x, y, z) = (var(0), var(1), var(2));
        let xy = Lineage::and2(x.clone(), y.clone());
        let mut formed = over_arena(&[xy.clone(), z.clone()]);
        let ids = formed
            .interner_mut()
            .intern_column([xy.into(), LazyLineage::from(z.clone())].iter());
        let nodes = formed.interner().freeze();
        let lazy = LazyLineage::concat(&nodes, Concat::AndNot, ids[0], &ids[1..]);
        // The same arena: the ids are taken as they are. Another arena
        // numbers its nodes otherwise: the recipe is interned by structure.
        let same = over_arena(&[Lineage::and2(x.clone(), y.clone()), z.clone()]);
        let other = over_arena(&[z, Lineage::or2(x, y)]);
        let mut engines = [formed, same, other];
        let roots = engines
            .each_mut()
            .map(|e| lazy.intern_into(e.interner_mut()));
        assert!(lazy.is_deferred());
        for (engine, root) in engines.iter_mut().zip(roots) {
            assert_eq!(engine.intern(lazy.get()), root);
            assert_eq!(engine.verify_arena(), Ok(()));
        }
    }

    #[test]
    fn sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LazyLineage>(), 16);
    }
}
