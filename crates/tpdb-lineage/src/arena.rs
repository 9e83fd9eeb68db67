//! The frozen lineage arena of a catalog epoch.
//!
//! Every statement over stored relations needs the same things of its
//! inputs: their lineage columns interned, the marginal of every `Var`
//! node, and the facts [`ProbabilityEngine::certify_columns`] decides the
//! statement's pricing from. None of it changes until the catalog does, so
//! a [`LineageArena`] computes it once per catalog epoch — the pattern of a
//! prefix sum computed once at construction and only indexed afterwards —
//! and every statement's [`ProbabilityEngine`] is an overlay on it
//! ([`ProbabilityEngine::over`]): ids below the arena's length resolve
//! here, and the statement's own nodes append after them (see
//! [`crate::LineageInterner`]).
//!
//! An arena holds, immutably:
//!
//! - the hash-consed nodes of every stored column, with their hashes,
//!   read-once flags, cons table and a tree per node — a root's tree is
//!   the stored tuple's own [`Lineage`];
//! - the dense marginal of every `Var` node and, per node, whether every
//!   variable under it has one;
//! - per stored relation, its root column (found by the relation's
//!   identity — the arena keeps the relation alive), whether the column
//!   alone meets the certification conditions, whether it shares a
//!   variable with another stored column, and its smallest variable with
//!   no marginal.
//!
//! [`LineageArena::empty`] holds the two constants only; the free-relation
//! API's engines ([`ProbabilityEngine::new`]) overlay it.

use crate::formula::Lineage;
use crate::intern::{
    structural_hash, InternedNode, LineageInterner, LineageRef, Segment, MIN_TABLE,
};
use crate::lazy::LazyLineage;
use crate::prob::MarginalMap;
use crate::symbols::VarId;
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

#[cfg(doc)]
use crate::ProbabilityEngine;

/// The frozen, shared lineage arena of a catalog epoch (see the module
/// docs). Built by an [`ArenaBuilder`]; immutable afterwards.
pub struct LineageArena {
    pub(crate) nodes: Segment,
    /// The marginals the arena prices from: the catalog's map.
    pub(crate) marginals: Arc<MarginalMap>,
    /// Per node: a `Var` node's marginal; `NaN` for every other node and
    /// for a variable with no marginal.
    pub(crate) dense: Vec<f64>,
    /// Per node: does every variable under it have a marginal?
    pub(crate) verified: Vec<bool>,
    /// Does the arena hold a negation or an `And`/`Or`? If not, a
    /// compound node is never looked up in it.
    pub(crate) compound: bool,
    pub(crate) columns: Vec<StoredColumn>,
}

/// A stored relation's column in a [`LineageArena`].
pub(crate) struct StoredColumn {
    /// The relation the column was interned from; held so that its address
    /// identifies it for as long as the arena lives.
    owner: Arc<dyn Any + Send + Sync>,
    pub(crate) roots: Arc<[LineageRef]>,
    /// Every root is a variable, or a read-once `And`/`Or`, and no two
    /// roots share a variable: the column alone meets the conditions of
    /// [`ProbabilityEngine::certify_columns`].
    pub(crate) alone: bool,
    /// Does a variable under this column occur under another stored
    /// column?
    pub(crate) shared: bool,
    /// The smallest variable under the column with no marginal.
    pub(crate) missing: Option<VarId>,
}

impl fmt::Debug for LineageArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineageArena")
            .field("nodes", &self.len())
            .field("marginals", &self.marginals.len())
            .field("columns", &self.columns.len())
            .finish()
    }
}

impl LineageArena {
    /// The arena of no relation: the two constants, no marginal. Shared by
    /// every engine that overlays it.
    #[must_use]
    pub fn empty() -> Arc<Self> {
        static EMPTY: OnceLock<Arc<LineageArena>> = OnceLock::new();
        Arc::clone(EMPTY.get_or_init(|| Arc::new(Self::constants())))
    }

    fn constants() -> Self {
        let mut nodes = Segment::default();
        for node in [InternedNode::True, InternedNode::False] {
            let hash = structural_hash(&node, |_| 0);
            nodes.push(node, hash, true);
        }
        nodes.legacy = vec![Some(Lineage::tru()), Some(Lineage::fls())];
        nodes.seat(0, MIN_TABLE);
        Self {
            nodes,
            marginals: Arc::default(),
            dense: vec![f64::NAN; 2],
            verified: vec![true; 2],
            compound: false,
            columns: Vec::new(),
        }
    }

    /// Starts an arena over the marginal map `marginals`.
    #[must_use]
    pub fn builder(marginals: Arc<MarginalMap>) -> ArenaBuilder {
        ArenaBuilder {
            interner: LineageInterner::new(),
            marginals,
            columns: Vec::new(),
        }
    }

    /// Number of frozen nodes (the first id an overlay hands out).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the arena empty? (Never true: the constants are pre-interned.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// The column interned from `relation`, found by its address.
    pub(crate) fn column_of<T>(&self, relation: &T) -> Option<usize> {
        let address: *const T = relation;
        self.columns
            .iter()
            .position(|c| std::ptr::addr_eq(Arc::as_ptr(&c.owner), address))
    }

    /// Checks the arena's pricing tables against a recomputation from the
    /// nodes and marginals: every `Var` node's dense marginal is its
    /// variable's (bit for bit), every other node's is `NaN`, and every
    /// `verified` flag is its bottom-up value. The node tables themselves
    /// are checked by [`LineageInterner::verify_arena`].
    // A diagnostic self-check like the interner's: the String payload is an
    // assertion message.
    pub(crate) fn verify(&self) -> Result<(), String> {
        let (dense, verified) = pricing_tables(self.nodes.nodes.iter(), &self.marginals);
        let bits = |table: &[f64]| table.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        if bits(&dense) != bits(&self.dense) {
            return Err("arena dense marginals differ from the marginal map".to_owned());
        }
        if verified != self.verified {
            return Err("arena verified flags differ from a recomputation".to_owned());
        }
        Ok(())
    }
}

/// The pricing tables of `nodes`, in arena order: a `Var` node's marginal
/// in `marginals` (`NaN` for every other node and for a variable with
/// none), and per node whether every variable under it has a marginal —
/// children precede their parents, so one pass computes both.
fn pricing_tables<'a>(
    nodes: impl Iterator<Item = &'a InternedNode>,
    marginals: &MarginalMap,
) -> (Vec<f64>, Vec<bool>) {
    let (mut dense, mut verified) = (Vec::new(), Vec::<bool>::new());
    for node in nodes {
        let (p, flag) = match node {
            InternedNode::True | InternedNode::False => (None, true),
            InternedNode::Var(v) => {
                let p = marginals.get(v).copied();
                (p, p.is_some())
            }
            InternedNode::Not(c) => (None, verified[c.index()]),
            InternedNode::And(cs) | InternedNode::Or(cs) => {
                (None, cs.iter().all(|c| verified[c.index()]))
            }
        };
        dense.push(p.unwrap_or(f64::NAN));
        verified.push(flag);
    }
    (dense, verified)
}

/// Builds a [`LineageArena`]: one [`column`](Self::column) per stored
/// relation, then [`finish`](Self::finish).
pub struct ArenaBuilder {
    interner: LineageInterner,
    marginals: Arc<MarginalMap>,
    columns: Vec<(Arc<dyn Any + Send + Sync>, Vec<LineageRef>)>,
}

impl ArenaBuilder {
    /// Interns the lineage column of the relation `owner`, one lineage per
    /// tuple, in tuple order. The arena keeps `owner` alive, and a
    /// statement finds the column by `owner`'s address
    /// ([`ProbabilityEngine::column`]).
    pub fn column<'a>(
        &mut self,
        owner: Arc<dyn Any + Send + Sync>,
        lineages: impl ExactSizeIterator<Item = &'a LazyLineage>,
    ) {
        let roots = self.interner.intern_column(lineages);
        self.columns.push((owner, roots));
    }

    /// Freezes the columns into an arena: prices every `Var` node, decides
    /// each column's certification facts and builds every node's tree.
    #[must_use]
    pub fn finish(self) -> LineageArena {
        let ArenaBuilder {
            mut interner,
            marginals,
            columns,
        } = self;
        let n = interner.len();
        let base = n - interner.local_nodes().len();
        let frozen = &interner.arena().nodes.nodes;
        let (dense, verified) =
            pricing_tables(frozen.iter().chain(interner.local_nodes()), &marginals);

        // Which column each `Var` node was first met under.
        const NONE: usize = usize::MAX;
        let mut owner = vec![NONE; n];
        let mut shared = vec![false; columns.len()];
        for (k, (_, roots)) in columns.iter().enumerate() {
            let mut stack = roots.clone();
            while let Some(cur) = stack.pop() {
                match interner.node(cur) {
                    InternedNode::True | InternedNode::False => {}
                    InternedNode::Var(_) => match owner[cur.index()] {
                        NONE => owner[cur.index()] = k,
                        first if first != k => {
                            shared[k] = true;
                            shared[first] = true;
                        }
                        _ => {}
                    },
                    InternedNode::Not(c) => stack.push(*c),
                    InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend_from_slice(cs),
                }
            }
        }
        let mut stored = Vec::with_capacity(columns.len());
        for ((relation, roots), shared) in columns.into_iter().zip(shared) {
            let alone = roots.iter().all(|&r| match interner.node(r) {
                InternedNode::Var(_) => true,
                InternedNode::And(_) | InternedNode::Or(_) => interner.is_read_once(r),
                _ => false,
            }) && interner.share_no_node(&roots, &[], true, false);
            let missing = roots
                .iter()
                .filter(|r| !verified[r.index()])
                .flat_map(|&r| interner.vars(r))
                .filter(|v| !marginals.contains_key(v))
                .min();
            stored.push(StoredColumn {
                owner: relation,
                roots: roots.into(),
                alone,
                shared,
                missing,
            });
        }

        for i in base..n {
            interner.to_lineage(LineageRef::from_index(i));
        }
        let mut nodes = LineageArena::empty().nodes.clone();
        let local = interner.into_local();
        nodes.nodes.extend(local.nodes);
        nodes.hashes.extend(local.hashes);
        nodes.legacy.extend(local.legacy);
        nodes.read_once.extend(local.read_once);
        nodes.seat(0, MIN_TABLE);
        let compound = nodes.nodes.iter().any(|node| {
            matches!(
                node,
                InternedNode::Not(_) | InternedNode::And(_) | InternedNode::Or(_)
            )
        });
        LineageArena {
            nodes,
            marginals,
            dense,
            verified,
            compound,
            columns: stored,
        }
    }
}

/// A relation's lineage column as a statement sees it: the roots, by tuple
/// index, and — for a stored relation — which column of the engine's arena
/// they are ([`ProbabilityEngine::column`]).
#[derive(Debug, Clone)]
pub struct LineageColumn {
    roots: Arc<[LineageRef]>,
    /// The arena column, for a stored relation.
    pub(crate) stored: Option<usize>,
}

impl LineageColumn {
    pub(crate) fn stored(arena: &LineageArena, k: usize) -> Self {
        Self {
            roots: Arc::clone(&arena.columns[k].roots),
            stored: Some(k),
        }
    }

    pub(crate) fn interned(roots: Vec<LineageRef>) -> Self {
        Self {
            roots: roots.into(),
            stored: None,
        }
    }
}

impl Deref for LineageColumn {
    type Target = [LineageRef];

    fn deref(&self) -> &[LineageRef] {
        &self.roots
    }
}
