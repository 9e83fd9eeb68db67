//! Hash-consed lineage arena.
//!
//! The window pipeline builds and prices the *same* sub-formulas over and
//! over: every window of an `r`-tuple group carries that tuple's `λr`,
//! every negating window re-disjoins the lineages of the active `s`
//! tuples, and the probability memo is consulted once per output tuple.
//! Representing those formulas as [`Lineage`] trees makes every equality
//! check, hash and memo lookup a full structural traversal.
//!
//! A [`LineageInterner`] stores each structurally distinct formula node
//! exactly once in a flat arena and hands out dense `u32` ids
//! ([`LineageRef`]). Hash-consing turns structural equality into id
//! equality (`O(1)`), makes cloning a formula a `Copy`, and lets the
//! probability engine key its memo by id instead of deep hashing. The
//! cons table is an open-addressed array of node ids probed by cached
//! per-node structural hashes (a vendored FxHash-style mix, the
//! dependency-free one used by rustc's `FxHashMap`), so interning a node
//! costs one multiply-rotate per child and a hit allocates nothing.
//!
//! An interner is a [`LineageStack`] of sealed segments — a catalog's
//! stored lineage columns, one segment per relation — plus one open
//! [`Segment`] its own nodes append to (see [`crate::segment`]). A node
//! is looked up in the segments that could hold it — a compound node in
//! those from its highest child's up that hold compound nodes — and then
//! in the open one, so structural equality stays id equality across them.
//! The interner's own tables index `id − first own id`, and the stamps of
//! sealed nodes are allocated, zeroed, only when a pass first touches one,
//! so a stack costs nothing per sealed node. [`LineageInterner::new`]
//! starts on the empty stack, its open segment holding the two constants.
//!
//! Ids stay valid for the interner's lifetime, which is the lifetime of
//! one join/set-operation execution (the [`crate::ProbabilityEngine`] owns
//! the interner and both are dropped together), and in the view
//! [`freeze`](LineageInterner::freeze) seals for the statement's rows. The
//! legacy [`Lineage`] tree remains the *conversion boundary*: output
//! tuples, serde and the equality-based tests convert back through
//! [`LineageInterner::to_lineage`], which wraps each node — already in the
//! tree constructors' normal form — directly and caches conversions per
//! node so shared sub-formulas become shared `Arc`s.
//!
//! Every node also carries a sticky **read-once** flag, decided when the
//! node is interned: no variable occurs twice in the node's tree expansion.
//! The probability of a read-once formula is a plain product over its
//! children, which is what lets [`crate::ProbabilityEngine`] price the
//! paper's output lineages without grouping children by shared variables.

use crate::formula::{Lineage, LineageNode};
use crate::lazy::LazyLineage;
use crate::segment::{self, LineageStack, Pages, Segment};
use crate::symbols::VarId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::iter;
use std::mem;
use std::sync::{Arc, OnceLock};

/// The multiplier of the FxHash mix (the 64-bit golden-ratio constant used
/// by rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// A vendored FxHash-style hasher (multiply-rotate mix, no allocation, no
/// external dependency). Not cryptographic — used only for the interner's
/// cons table and id-keyed side tables, whose keys are `u32` ids
/// (`VarId`, `LineageRef`): one mix per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = fx_mix(self.hash, u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }
}

/// A `HashMap` using the vendored [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using the vendored [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A dense id referring to a node in a [`LineageInterner`].
///
/// Refs are `Copy`, compare in `O(1)` (hash-consing makes structural
/// equality id equality *within one interner* and the stack it extends)
/// and index the engine's probability memo directly. A ref is only
/// meaningful together with the interner that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineageRef(pub(crate) u32);

impl LineageRef {
    /// The position of the node in the arena (usable as a dense table
    /// index).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of an interned lineage formula. Children are [`LineageRef`]s
/// into the same arena; the same normalization invariants as
/// [`LineageNode`] hold (`And`/`Or` have ≥ 2 deduplicated, constant-free,
/// non-nested children; `Not` never wraps a constant or another `Not`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternedNode {
    /// The formula that is true in every possible world.
    True,
    /// The formula that is false in every possible world.
    False,
    /// A base-tuple variable.
    Var(VarId),
    /// Negation of a sub-formula.
    Not(LineageRef),
    /// Conjunction of at least two sub-formulas.
    And(Box<[LineageRef]>),
    /// Disjunction of at least two sub-formulas.
    Or(Box<[LineageRef]>),
}

/// The cached structural hash of a node, given its children's (equal
/// structures hash equal across interners).
pub(crate) fn structural_hash(node: &InternedNode, child: impl Fn(LineageRef) -> u64) -> u64 {
    match node {
        InternedNode::True => fx_mix(0, 1),
        InternedNode::False => fx_mix(0, 2),
        InternedNode::Var(v) => fx_mix(fx_mix(0, 3), u64::from(v.0)),
        InternedNode::Not(c) => fx_mix(fx_mix(0, 4), child(*c)),
        InternedNode::And(cs) => nary_hash(true, cs, child),
        InternedNode::Or(cs) => nary_hash(false, cs, child),
    }
}

fn nary_hash(is_and: bool, children: &[LineageRef], child: impl Fn(LineageRef) -> u64) -> u64 {
    children
        .iter()
        .fold(fx_mix(0, if is_and { 5 } else { 6 }), |h, &c| {
            fx_mix(h, child(c))
        })
}

/// The child that bounds the segments a node can be found in from below
/// (its highest; `None` for a leaf, which any segment can hold).
fn lowest(node: &InternedNode) -> Option<LineageRef> {
    match node {
        InternedNode::True | InternedNode::False | InternedNode::Var(_) => None,
        InternedNode::Not(c) => Some(*c),
        InternedNode::And(cs) | InternedNode::Or(cs) => cs.iter().max().copied(),
    }
}

/// The smallest cons table an interner starts with.
pub(crate) const MIN_TABLE: usize = 16;

/// A hash-consed arena of lineage formula nodes: a stack of sealed
/// segments plus an open one (see the module docs).
///
/// Structurally equal formulas intern to the same [`LineageRef`]; the
/// constructors apply exactly the structural simplifications of the
/// [`Lineage`] tree constructors (flattening, unit elimination, ordered
/// deduplication, double-negation elimination), so a formula built in
/// interned space converts back ([`to_lineage`](Self::to_lineage)) to the
/// very tree the legacy constructors would have produced.
#[derive(Debug, Clone)]
pub struct LineageInterner {
    /// The sealed segments below the open one: a catalog's, then those
    /// [`freeze`](Self::freeze) sealed.
    stack: Arc<LineageStack>,
    /// The stack's page table, kept here so that a lookup of a sealed node
    /// starts from the interner's own fields.
    pages: Pages,
    /// The first id the interner handed out itself: its own nodes are the
    /// open segment's and those of the segments its freezes sealed.
    own: u32,
    /// The segment new nodes append to.
    pub(crate) open: Segment,
    /// Per open node: its tree, once converted (see [`Segment::trees`]).
    trees: Vec<Option<Lineage>>,
    /// Per-node epoch stamps, the allocation-free "seen" set of operand
    /// deduplication and of the read-once leaf walk: a node is marked in
    /// the current pass iff its stamp equals `epoch`. Stamps are by *node
    /// id*, never by `VarId` — variable ids are sparse (the generators'
    /// span 10⁸…6·10⁸), node ids are dense. `stamps` covers the own nodes
    /// (by `id − own`), `sealed_stamps` the stack's below them (by id): it
    /// is allocated zeroed when a pass first touches a sealed node, so a
    /// statement that never does — a certified join — has none, and the
    /// pages of the untouched sealed nodes are never written.
    stamps: Vec<u32>,
    sealed_stamps: Vec<u32>,
    epoch: u32,
    /// Reused operand buffer of the n-ary constructors.
    operands: Vec<LineageRef>,
    /// Reused stack of the read-once leaf walk.
    walk: Vec<LineageRef>,
    /// Reused stack of [`condition`](Self::condition)'s cofactor lists.
    cofactors: Vec<LineageRef>,
}

/// The cons-table marker of a free slot (never a node id: interning
/// panics before an id reaches `u32::MAX`).
pub(crate) const EMPTY: u32 = u32::MAX;

/// The pre-interned constant `true` (id 0 in every arena).
const TRUE: LineageRef = LineageRef(0);
/// The pre-interned constant `false` (id 1 in every arena).
const FALSE: LineageRef = LineageRef(1);

impl Default for LineageInterner {
    fn default() -> Self {
        Self::over(LineageStack::empty())
    }
}

impl LineageInterner {
    /// Creates an empty arena: the empty stack and an open segment holding
    /// the two pre-interned constants.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner whose ids below its open segment are `stack`'s nodes.
    pub(crate) fn over(stack: Arc<LineageStack>) -> Self {
        let open = Segment::open(stack.next_base());
        Self {
            own: open.base,
            pages: Arc::clone(&stack.pages),
            stack,
            stamps: vec![0; open.len()],
            trees: vec![None; open.len()],
            open,
            sealed_stamps: Vec::new(),
            epoch: 0,
            operands: Vec::new(),
            walk: Vec::new(),
            cofactors: Vec::new(),
        }
    }

    /// The sealed segments below the open one.
    #[must_use]
    pub fn stack(&self) -> &LineageStack {
        &self.stack
    }

    /// Takes the open segment, its trees moved into its cells, to be
    /// sealed; an empty one takes its place.
    pub(crate) fn take_open(&mut self) -> Segment {
        let mut open = mem::take(&mut self.open);
        let cell = |tree: Option<Lineage>| tree.map_or_else(OnceLock::new, OnceLock::from);
        open.trees = self.trees.drain(..).map(cell).collect();
        open
    }

    /// Number of distinct nodes, sealed ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stack.len() + self.open.len()
    }

    /// Is the arena empty? (Never true: the constants are pre-interned.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position of `r` among the interner's own ids, `None` for a node
    /// of the stack below them — the index of every per-interner side
    /// table.
    #[inline]
    pub(crate) fn own_index(&self, r: LineageRef) -> Option<usize> {
        r.0.checked_sub(self.own).map(|i| i as usize)
    }

    /// One past the largest own index: the own ids span the segments the
    /// interner sealed and the open one, page gaps included.
    pub(crate) fn own_span(&self) -> usize {
        (self.open.base - self.own) as usize + self.open.len()
    }

    /// The interner's own nodes, a run per segment: the own index of the
    /// run's first node, and its nodes in id (topological) order.
    pub(crate) fn own_runs(&self) -> impl Iterator<Item = (usize, &[InternedNode])> {
        let segments = &self.stack.segments;
        let first = segments.partition_point(|s| s.base < self.own);
        let own = self.own;
        segments[first..]
            .iter()
            .map(|s| &**s)
            .chain(iter::once(&self.open))
            .map(move |s| ((s.base - own) as usize, &s.nodes[..]))
    }

    /// The segment of `r` and `r`'s index in it.
    #[inline]
    pub(crate) fn locate(&self, r: LineageRef) -> (&Segment, usize) {
        match r.0.checked_sub(self.open.base) {
            Some(i) => (&self.open, i as usize),
            None => segment::locate(&self.pages, r),
        }
    }

    /// The node a ref points at.
    #[must_use]
    #[inline]
    pub fn node(&self, r: LineageRef) -> &InternedNode {
        let (segment, i) = self.locate(r);
        &segment.nodes[i]
    }

    /// The cached structural hash of a node.
    fn hash(&self, r: LineageRef) -> u64 {
        let (segment, i) = self.locate(r);
        segment.hashes[i]
    }

    /// Is the formula *read-once*: does no variable occur twice in its
    /// tree expansion? Under tuple independence the probability of such a
    /// formula is a product over its children, with no shared variable to
    /// condition on. The flag is decided when the node is interned.
    #[must_use]
    pub fn is_read_once(&self, r: LineageRef) -> bool {
        let (segment, i) = self.locate(r);
        segment.read_once[i]
    }

    /// The stamp of node `r` (see `stamps`).
    fn stamp(&mut self, r: LineageRef) -> &mut u32 {
        match self.own_index(r) {
            Some(i) => &mut self.stamps[i],
            None => {
                if self.sealed_stamps.is_empty() {
                    self.sealed_stamps = vec![0; self.own as usize];
                }
                &mut self.sealed_stamps[r.index()]
            }
        }
    }

    /// Marks `r` in the pass `epoch`; `true` when it was not marked yet.
    fn mark(&mut self, r: LineageRef, epoch: u32) -> bool {
        mem::replace(self.stamp(r), epoch) != epoch
    }

    // ----- constructors (mirror the `Lineage` tree constructors) ---------

    /// The constant-true lineage.
    #[must_use]
    pub fn tru(&self) -> LineageRef {
        TRUE
    }

    /// The constant-false lineage.
    #[must_use]
    pub fn fls(&self) -> LineageRef {
        FALSE
    }

    /// An atomic lineage: a single base-tuple variable.
    pub fn var(&mut self, v: VarId) -> LineageRef {
        self.intern_node(InternedNode::Var(v))
    }

    /// Negation with structural simplification:
    /// `¬true = false`, `¬false = true`, `¬¬φ = φ`.
    pub fn not(&mut self, operand: LineageRef) -> LineageRef {
        match self.node(operand) {
            InternedNode::True => FALSE,
            InternedNode::False => TRUE,
            InternedNode::Not(inner) => *inner,
            _ => self.intern_node(InternedNode::Not(operand)),
        }
    }

    /// N-ary conjunction with flattening, unit elimination and
    /// deduplication (deduplication is by ref — hash-consing makes that
    /// structural). `and(&[])` is `true`; a conjunction containing `false`
    /// collapses to `false`.
    pub fn and(&mut self, operands: &[LineageRef]) -> LineageRef {
        self.nary(true, operands)
    }

    /// N-ary disjunction with flattening, unit elimination and
    /// deduplication. `or(&[])` is `false`; a disjunction containing
    /// `true` collapses to `true`.
    pub fn or(&mut self, operands: &[LineageRef]) -> LineageRef {
        self.nary(false, operands)
    }

    /// The shared body of [`and`](Self::and) / [`or`](Self::or): normalizes
    /// the operand list — flattens one level, drops the unit, collapses on
    /// the absorbing constant and deduplicates in first-occurrence order,
    /// through the epoch stamps and the reused operand buffer — and interns
    /// what is left of it. A call that finds its node already interned
    /// allocates nothing (beyond a sealed operand's first stamp).
    pub(crate) fn nary(&mut self, is_and: bool, operands: &[LineageRef]) -> LineageRef {
        let (unit, absorbing) = if is_and { (TRUE, FALSE) } else { (FALSE, TRUE) };
        let epoch = self.next_epoch();
        let mut flat = mem::take(&mut self.operands);
        let mut absorbed = false;
        for &op in operands {
            if op == absorbing {
                absorbed = true;
                break;
            }
            if op == unit {
                continue;
            }
            let flatten = matches!(
                (self.node(op), is_and),
                (InternedNode::And(_), true) | (InternedNode::Or(_), false)
            );
            if flatten {
                for k in 0..self.children(op).len() {
                    let child = self.children(op)[k];
                    if self.mark(child, epoch) {
                        flat.push(child);
                    }
                }
            } else if self.mark(op, epoch) {
                flat.push(op);
            }
        }
        let result = match flat.len() {
            _ if absorbed => absorbing,
            0 => unit,
            1 => flat[0],
            _ => self.intern_nary(is_and, &flat),
        };
        flat.clear();
        self.operands = flat;
        result
    }

    /// Binary conjunction convenience wrapper.
    pub fn and2(&mut self, a: LineageRef, b: LineageRef) -> LineageRef {
        self.and(&[a, b])
    }

    /// Binary disjunction convenience wrapper.
    pub fn or2(&mut self, a: LineageRef, b: LineageRef) -> LineageRef {
        self.or(&[a, b])
    }

    /// The `andNot` concatenation function used for negating windows:
    /// `λr ∧ ¬λs`.
    pub fn and_not(&mut self, lambda_r: LineageRef, lambda_s: LineageRef) -> LineageRef {
        let neg = self.not(lambda_s);
        self.and(&[lambda_r, neg])
    }

    // ----- conversion boundary -------------------------------------------

    /// Interns a legacy tree, re-normalizing through the interned
    /// constructors (idempotent on already-normalized trees — which every
    /// [`Lineage`] built through its own constructors is).
    pub fn intern(&mut self, lineage: &Lineage) -> LineageRef {
        match lineage.node() {
            LineageNode::True => TRUE,
            LineageNode::False => FALSE,
            LineageNode::Var(v) => self.var(*v),
            LineageNode::Not(c) => {
                let inner = self.intern(c);
                self.not(inner)
            }
            LineageNode::And(cs) => {
                let refs: Vec<LineageRef> = cs.iter().map(|c| self.intern(c)).collect();
                self.and(&refs)
            }
            LineageNode::Or(cs) => {
                let refs: Vec<LineageRef> = cs.iter().map(|c| self.intern(c)).collect();
                self.or(&refs)
            }
        }
    }

    /// Interns a relation's lineage column — one lineage per tuple, in
    /// tuple order — and returns its roots. The open segment and its cons
    /// table are sized for the column up front. A tree is interned as a
    /// tree, and a new root's tree slot is seeded with it (normalized, as
    /// every constructor-built [`Lineage`] is), so converting the root back
    /// ([`to_lineage`](Self::to_lineage)) shares the input's `Arc` instead
    /// of allocating a fresh tree; a root found in a sealed segment keeps
    /// that segment's tree. A deferred lineage is interned from its
    /// recipe's node ids, building no tree ([`LazyLineage`]).
    pub fn intern_column<'a>(
        &mut self,
        column: impl ExactSizeIterator<Item = &'a LazyLineage>,
    ) -> Vec<LineageRef> {
        self.open.reserve(column.len());
        self.stamps.reserve(column.len());
        self.trees.reserve(column.len());
        column.map(|lineage| lineage.intern_into(self)).collect()
    }

    /// Interns `tree` and seeds its root's tree slot with it, unless the
    /// root has a tree already or is sealed.
    pub(crate) fn intern_seeded(&mut self, tree: &Lineage) -> LineageRef {
        let root = self.intern(tree);
        if let Some(i) = root.0.checked_sub(self.open.base) {
            self.trees[i as usize].get_or_insert_with(|| tree.clone());
        }
        root
    }

    /// The node `r` of the view `from`, interned here: `r` itself when it
    /// resolves to the same sealed segment in both, else its tree.
    pub(crate) fn import(&mut self, from: &LineageStack, r: LineageRef) -> LineageRef {
        match (self.stack.segment_at(r), from.segment_at(r)) {
            (Some(mine), Some(theirs)) if Arc::ptr_eq(mine, theirs) => r,
            _ => self.intern(&from.tree(r)),
        }
    }

    /// Seals the open segment on top of the stack — copying no node — and
    /// returns that view: what a certified statement's recipes resolve
    /// their ids in. Later nodes go to a new open segment above it.
    pub(crate) fn freeze(&mut self) -> Arc<LineageStack> {
        if !self.open.nodes.is_empty() {
            let open = self.take_open();
            self.stack = Arc::new(self.stack.with(open));
            self.pages = Arc::clone(&self.stack.pages);
            self.open = Segment::open(self.stack.next_base());
            self.stamps.resize(self.own_span(), 0);
        }
        Arc::clone(&self.stack)
    }

    /// Converts an interned formula back into a legacy [`Lineage`] tree.
    ///
    /// A node is already in the tree constructors' normal form, so it is
    /// wrapped as is — no re-flattening, no deep-hashing deduplication.
    /// Conversions are cached per node, so the trees of shared
    /// sub-formulas (every `λr` of a window group, every disjunction
    /// operand) are shared `Arc`s — converting `n` output tuples allocates
    /// `O(distinct nodes)`, not `O(total tree size)`. A sealed node's tree
    /// is kept in its segment.
    pub fn to_lineage(&mut self, r: LineageRef) -> Lineage {
        let Some(i) = r.0.checked_sub(self.open.base).map(|i| i as usize) else {
            return self.stack.tree(r);
        };
        if let Some(l) = &self.trees[i] {
            return l.clone();
        }
        let node = match self.node(r) {
            InternedNode::True => LineageNode::True,
            InternedNode::False => LineageNode::False,
            InternedNode::Var(v) => LineageNode::Var(*v),
            InternedNode::Not(c) => {
                let c = *c;
                LineageNode::Not(self.to_lineage(c))
            }
            InternedNode::And(_) => LineageNode::And(self.children_to_lineage(r)),
            InternedNode::Or(_) => LineageNode::Or(self.children_to_lineage(r)),
        };
        let lineage = Lineage::from_normalized(node);
        self.trees[i] = Some(lineage.clone());
        lineage
    }

    /// The converted children of the n-ary node `r`, in child order.
    fn children_to_lineage(&mut self, r: LineageRef) -> Vec<Lineage> {
        (0..self.children(r).len())
            .map(|k| {
                let child = self.children(r)[k];
                self.to_lineage(child)
            })
            .collect()
    }

    /// The child list of an `And`/`Or` node (empty for every other node).
    /// Re-borrowing it per child lets callers recurse with `&mut self`
    /// between children without copying the list out first.
    pub(crate) fn children(&self, r: LineageRef) -> &[LineageRef] {
        match self.node(r) {
            InternedNode::And(cs) | InternedNode::Or(cs) => cs,
            _ => &[],
        }
    }

    // ----- inspection -----------------------------------------------------

    /// The set of variables mentioned anywhere in the formula (ascending,
    /// matching [`Lineage::vars`]), found by a walk that enters each
    /// distinct node once.
    #[must_use]
    pub fn vars(&mut self, r: LineageRef) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.for_each_var(r, |v| {
            out.insert(v);
        });
        out
    }

    /// Calls `visit` with the variable of every distinct `Var` node under
    /// `r`, each once (a DAG walk: shared sub-formulas are entered once).
    /// Visited nodes are marked in the stamp tables.
    pub(crate) fn for_each_var(&mut self, r: LineageRef, mut visit: impl FnMut(VarId)) {
        let epoch = self.next_epoch();
        let mut stack = mem::take(&mut self.walk);
        stack.push(r);
        while let Some(cur) = stack.pop() {
            if !self.mark(cur, epoch) {
                continue;
            }
            match self.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(v) => visit(*v),
                InternedNode::Not(c) => stack.push(*c),
                InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend_from_slice(cs),
            }
        }
        self.walk = stack;
    }

    /// Conditions the formula on `var = value` (Shannon cofactor),
    /// applying the constructors' structural simplifications. A node none
    /// of whose children changes is returned as it is.
    pub fn condition(&mut self, r: LineageRef, var: VarId, value: bool) -> LineageRef {
        let is_and = match *self.node(r) {
            InternedNode::True | InternedNode::False => return r,
            InternedNode::Var(v) if v == var => return if value { TRUE } else { FALSE },
            InternedNode::Var(_) => return r,
            InternedNode::Not(c) => {
                let inner = self.condition(c, var, value);
                return self.not(inner);
            }
            InternedNode::And(_) => true,
            InternedNode::Or(_) => false,
        };
        let base = self.cofactors.len();
        for k in 0..self.children(r).len() {
            let child = self.children(r)[k];
            let cofactor = self.condition(child, var, value);
            self.cofactors.push(cofactor);
        }
        let cofactors = mem::take(&mut self.cofactors);
        let result = if cofactors[base..] == *self.children(r) {
            r
        } else {
            self.nary(is_and, &cofactors[base..])
        };
        self.cofactors = cofactors;
        self.cofactors.truncate(base);
        result
    }

    /// Exhaustively checks the arena invariants — of every sealed segment
    /// of the stack and of the open one — returning a description of the
    /// first violation found (`Ok(())` on a healthy arena).
    ///
    /// Checked invariants:
    ///
    /// * each segment's parallel tables (`nodes`, `hashes`, trees,
    ///   read-once flags, and pricing tables where it has them) have equal
    ///   lengths, and the stamps cover the own ids;
    /// * ids 0/1 are the pre-interned constants `true`/`false`, and no
    ///   other node is a constant (the constructors always return the
    ///   canonical ids);
    /// * the page table resolves every node's id to its own segment;
    /// * every child ref points strictly below its parent — the arena is
    ///   topologically ordered and can contain no dangling refs;
    /// * `And`/`Or` hold ≥ 2 deduplicated children, none a constant or a
    ///   nested node of the same kind; `Not` wraps neither a constant nor
    ///   another `Not` (the canonical normal form of the tree
    ///   constructors);
    /// * every cached hash equals the recomputed structural hash, and
    ///   probing the segments that could hold the node, lowest first, finds
    ///   its id (a mismatch would make hash-consing silently duplicate
    ///   nodes, breaking `O(1)` equality; a node equal to one in a lower
    ///   segment — a second `Var` node of one variable — is such a
    ///   duplicate); each cons table is a power of two long and ≤ 3/4
    ///   full, so a probe always terminates;
    /// * every read-once flag equals a from-scratch recomputation over the
    ///   node's tree expansion (a wrong `true` would price a correlated
    ///   formula as a product);
    /// * every cached tree has the same top-level shape as its node.
    ///
    /// The check is `O(arena size · depth)` and intended for debug builds
    /// and property tests; the engine's hot paths never call it.
    // A diagnostic self-check, not an operational API: the payload is a
    // free-form description of the first broken invariant, for assertion
    // messages.
    pub fn verify_arena(&self) -> Result<(), String> {
        let sealed = self.stack.segments.iter().map(|s| &**s);
        let segments: Vec<&Segment> = sealed.chain(iter::once(&self.open)).collect();
        for segment in &segments {
            segment.check_tables()?;
        }
        if self.stamps.len() != self.own_span() || self.trees.len() != self.open.len() {
            return Err("the stamps or the open trees are out of sync with the nodes".to_owned());
        }
        if self.node(TRUE) != &InternedNode::True || self.node(FALSE) != &InternedNode::False {
            return Err("ids 0/1 are not the pre-interned true/false constants".to_owned());
        }
        for segment in segments {
            for (k, node) in segment.nodes.iter().enumerate() {
                let r = LineageRef(segment.base + k as u32);
                let i = r.index();
                if !std::ptr::eq(self.locate(r).0, segment) {
                    return Err(format!("node {i} does not resolve to its segment"));
                }
                if let Some(problem) = self.check_node_shape(i, node) {
                    return Err(format!("node {i}: {problem}"));
                }
                let expected = structural_hash(node, |c| self.hash(c));
                if segment.hashes[k] != expected {
                    return Err(format!(
                        "node {i}: its cached hash is not its structural hash"
                    ));
                }
                // A node equal to one in a lower segment is found there: a
                // duplicate, which interning the structure again would return.
                if self.find(lowest(node), expected, |existing| existing == node) != Ok(r) {
                    return Err(format!(
                        "probing the segments for node {i} finds another id"
                    ));
                }
                if segment.read_once[k] != self.recompute_read_once(r) {
                    return Err(format!(
                        "node {i}: its read-once flag is not a recomputation's"
                    ));
                }
                let open = std::ptr::eq(segment, &self.open);
                let tree = if open {
                    self.trees[k].as_ref()
                } else {
                    segment.trees[k].get()
                };
                let shape_matches = |tree: &Lineage| {
                    matches!(
                        (node, tree.node()),
                        (InternedNode::True, LineageNode::True)
                            | (InternedNode::False, LineageNode::False)
                            | (InternedNode::Var(_), LineageNode::Var(_))
                            | (InternedNode::Not(_), LineageNode::Not(_))
                            | (InternedNode::And(_), LineageNode::And(_))
                            | (InternedNode::Or(_), LineageNode::Or(_))
                    )
                };
                if !tree.is_none_or(shape_matches) {
                    return Err(format!(
                        "node {i}: its cached tree has another top-level shape"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Structural invariants of a single node at position `i` (children
    /// interned below it, canonical normal form). `None` when healthy.
    fn check_node_shape(&self, i: usize, node: &InternedNode) -> Option<String> {
        let child_ok = |c: LineageRef| c.index() < i;
        match node {
            InternedNode::True | InternedNode::False => {
                (i >= 2).then(|| "constant interned outside the canonical ids 0/1".to_owned())
            }
            InternedNode::Var(_) => None,
            InternedNode::Not(c) => {
                if !child_ok(*c) {
                    return Some(format!("child {} does not precede its parent", c.index()));
                }
                matches!(
                    self.node(*c),
                    InternedNode::True | InternedNode::False | InternedNode::Not(_)
                )
                .then(|| "Not wraps a constant or another Not".to_owned())
            }
            InternedNode::And(cs) | InternedNode::Or(cs) => {
                if cs.len() < 2 {
                    return Some(format!("{}-ary connective", cs.len()));
                }
                let mut seen: FxHashSet<LineageRef> = HashSet::default();
                for &c in cs.iter() {
                    if !child_ok(c) {
                        return Some(format!("child {} does not precede its parent", c.index()));
                    }
                    if !seen.insert(c) {
                        return Some(format!("duplicated child {}", c.index()));
                    }
                    let child = self.node(c);
                    let nested_same_kind = match node {
                        InternedNode::And(_) => matches!(child, InternedNode::And(_)),
                        _ => matches!(child, InternedNode::Or(_)),
                    };
                    if matches!(child, InternedNode::True | InternedNode::False) {
                        return Some(format!("constant child {}", c.index()));
                    }
                    if nested_same_kind {
                        return Some(format!("un-flattened nested child {}", c.index()));
                    }
                }
                None
            }
        }
    }

    // ----- internals ------------------------------------------------------

    /// Interns a variable or negation node.
    fn intern_node(&mut self, node: InternedNode) -> LineageRef {
        let hash = structural_hash(&node, |c| self.hash(c));
        match self.find(lowest(&node), hash, |existing| *existing == node) {
            Ok(found) => found,
            Err(slot) => self.push_node(node, hash, slot),
        }
    }

    /// Interns an `And`/`Or` over normalized children. The lookup compares
    /// against the borrowed slice; only a miss boxes the children.
    fn intern_nary(&mut self, is_and: bool, children: &[LineageRef]) -> LineageRef {
        let hash = nary_hash(is_and, children, |c| self.hash(c));
        let found = self.find(children.iter().max().copied(), hash, |existing| {
            match (existing, is_and) {
                (InternedNode::And(cs), true) | (InternedNode::Or(cs), false) => **cs == *children,
                _ => false,
            }
        });
        match found {
            Ok(found) => found,
            Err(slot) => {
                let children = Box::from(children);
                let node = if is_and {
                    InternedNode::And(children)
                } else {
                    InternedNode::Or(children)
                };
                self.push_node(node, hash, slot)
            }
        }
    }

    /// Probes the segments that could hold a node with this hash that
    /// `matches`, lowest first, then the open one: `Ok` is the interned id,
    /// `Err` the free open slot a new node would take. A compound node's
    /// `highest` child bounds the search from below — a node is never
    /// interned under its children — and only segments holding compound
    /// nodes are probed for it; a variable (`highest` is `None`) is looked
    /// up in every segment.
    fn find(
        &self,
        highest: Option<LineageRef>,
        hash: u64,
        matches: impl Fn(&InternedNode) -> bool,
    ) -> Result<LineageRef, usize> {
        if highest.is_none_or(|c| c.0 < self.open.base) {
            let first = highest.map_or(0, |c| self.stack.position(c));
            for segment in &self.stack.segments[first..] {
                if highest.is_some() && !segment.compound {
                    continue;
                }
                if let Ok(found) = segment.probe(hash, &matches) {
                    return Ok(found);
                }
            }
        }
        self.open.probe(hash, matches)
    }

    /// Appends a node that [`find`](Self::find) reported missing, claiming
    /// the free open `slot` it returned.
    fn push_node(&mut self, node: InternedNode, hash: u64, slot: usize) -> LineageRef {
        #[expect(
            clippy::expect_used,
            reason = "node ids are u32 by design; an arena of 2³² ids exceeds memory first"
        )]
        let id = u32::try_from(self.open.base as usize + self.open.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("interner arena exceeds u32 ids");
        // In debug builds every freshly interned node is checked against
        // the canonical-form invariants (`verify_arena` documents them);
        // checking only the new node keeps interning O(node size).
        #[cfg(debug_assertions)]
        if let Some(problem) = self.check_node_shape(id as usize, &node) {
            debug_assert!(false, "interning a malformed node: {problem}");
        }
        let read_once = self.classify(&node);
        self.open.push(node, hash, read_once, slot);
        self.stamps.push(0);
        self.trees.push(None);
        LineageRef(id)
    }

    /// Starts a fresh marking pass over the stamp tables.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.sealed_stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// The read-once flag of a node about to be appended (its children are
    /// interned, so their flags are final).
    fn classify(&mut self, node: &InternedNode) -> bool {
        match node {
            InternedNode::True | InternedNode::False | InternedNode::Var(_) => true,
            InternedNode::Not(c) => self.is_read_once(*c),
            InternedNode::And(cs) | InternedNode::Or(cs) => {
                cs.iter().all(|&c| self.is_read_once(c)) && self.share_no_node(cs, &[], true, false)
            }
        }
    }

    /// Do the tree expansions of the two lists share no node — no variable,
    /// hash-consing giving each variable one node — and, where
    /// `a_distinct` / `b_distinct`, do no two roots of that list share one?
    /// One stamp pass: mark the leaves under `a`, then probe those under
    /// `b`, marking them too when they must be distinct. Read-once roots
    /// bound the walk by their number of distinct leaves: the first
    /// revisit ends it.
    pub(crate) fn share_no_node(
        &mut self,
        a: &[LineageRef],
        b: &[LineageRef],
        a_distinct: bool,
        b_distinct: bool,
    ) -> bool {
        let epoch = self.next_epoch();
        self.walk_leaves(a.iter().copied(), |_, stamp| {
            mem::replace(stamp, epoch) != epoch || !a_distinct
        }) && self.walk_leaves(b.iter().copied(), |_, stamp| {
            let fresh = *stamp != epoch;
            if b_distinct {
                *stamp = epoch;
            }
            fresh
        })
    }

    /// Hands every `Var` leaf of the tree expansions of `roots` — once per
    /// occurrence — and its stamp to `visit`, and stops at the first for
    /// which it returns `false`: returns whether none did. The stack is
    /// reused.
    pub(crate) fn walk_leaves(
        &mut self,
        roots: impl Iterator<Item = LineageRef>,
        mut visit: impl FnMut(LineageRef, &mut u32) -> bool,
    ) -> bool {
        let mut stack = mem::take(&mut self.walk);
        stack.extend(roots);
        let mut all = true;
        while let Some(cur) = stack.pop() {
            match self.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(_) => {
                    if !visit(cur, self.stamp(cur)) {
                        all = false;
                        break;
                    }
                }
                InternedNode::Not(c) => stack.push(*c),
                InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend_from_slice(cs),
            }
        }
        stack.clear();
        self.walk = stack;
        all
    }

    /// The read-once flag of node `r` recomputed from the structure alone
    /// (no cached flags, its own seen-set) — the oracle of
    /// [`verify_arena`](Self::verify_arena).
    fn recompute_read_once(&self, r: LineageRef) -> bool {
        let mut seen: FxHashSet<VarId> = HashSet::default();
        let mut stack = vec![r];
        while let Some(cur) = stack.pop() {
            match self.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(v) => {
                    if !seen.insert(*v) {
                        return false;
                    }
                }
                InternedNode::Not(c) => stack.push(*c),
                InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend_from_slice(cs),
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::tests::Cofactor;

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    #[test]
    fn constants_are_preinterned() {
        let mut i = LineageInterner::new();
        assert_eq!(i.tru(), i.intern(&Lineage::tru()));
        assert_eq!(i.fls(), i.intern(&Lineage::fls()));
        assert_eq!((i.tru().index(), i.fls().index()), (0, 1));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn structurally_equal_formulas_share_one_id() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(1), Lineage::not(Lineage::or2(v(2), v(3))));
        let g = Lineage::and2(v(1), Lineage::not(Lineage::or2(v(2), v(3))));
        assert_eq!(i.intern(&f), i.intern(&g));
        let nodes_after_first = i.len();
        let _ = i.intern(&g);
        assert_eq!(i.len(), nodes_after_first, "re-interning allocates nothing");
    }

    #[test]
    fn cons_table_survives_growth() {
        let mut i = LineageInterner::new();
        let vars: Vec<LineageRef> = (0..1000).map(|k| i.var(VarId(k * 7919))).collect();
        let wide = i.or(&vars);
        assert_eq!(i.verify_arena(), Ok(()));
        // Every node is still found under its hash after the re-seatings.
        let nodes = i.len();
        for (k, &r) in vars.iter().enumerate() {
            assert_eq!(i.var(VarId(k as u32 * 7919)), r);
        }
        assert_eq!(i.or(&vars), wide);
        assert_eq!(i.len(), nodes, "re-interning allocates nothing");
    }

    #[test]
    fn constructors_mirror_tree_normalization() {
        let mut i = LineageInterner::new();
        // and: flattening, unit elimination, dedup, absorbing false
        let a = i.intern(&v(1));
        let b = i.intern(&v(2));
        let t = i.tru();
        let f = i.fls();
        assert_eq!(i.and(&[]), t);
        assert_eq!(i.and(&[a]), a);
        assert_eq!(i.and(&[a, t]), a);
        assert_eq!(i.and(&[a, f]), f);
        assert_eq!(i.and(&[a, a]), a);
        let ab = i.and(&[a, b]);
        let c = i.intern(&v(3));
        let flat = i.and(&[ab, c]);
        assert_eq!(
            i.to_lineage(flat),
            Lineage::and(vec![v(1), v(2), v(3)]),
            "nested conjunction flattens one level"
        );
        // or duals
        assert_eq!(i.or(&[]), f);
        assert_eq!(i.or(&[a, f]), a);
        assert_eq!(i.or(&[a, t]), t);
        // not simplifications
        assert_eq!(i.not(t), f);
        assert_eq!(i.not(f), t);
        let na = i.not(a);
        assert_eq!(i.not(na), a);
    }

    #[test]
    fn round_trip_matches_legacy_trees() {
        let mut i = LineageInterner::new();
        let formulas = [
            Lineage::tru(),
            Lineage::fls(),
            v(7),
            Lineage::not(v(1)),
            Lineage::and2(v(0), Lineage::not(Lineage::or2(v(1), v(2)))),
            Lineage::or(vec![v(5), Lineage::and2(v(1), v(2)), Lineage::not(v(3))]),
        ];
        for f in formulas {
            let r = i.intern(&f);
            assert_eq!(i.to_lineage(r), f, "round trip of {f:?}");
        }
    }

    #[test]
    fn to_lineage_shares_arcs_through_the_cache() {
        let mut i = LineageInterner::new();
        let shared = Lineage::or2(v(1), v(2));
        let f = Lineage::and2(v(0), shared.clone());
        let g = Lineage::and2(v(3), shared.clone());
        let rf = i.intern(&f);
        let rg = i.intern(&g);
        let tf = i.to_lineage(rf);
        let tg = i.to_lineage(rg);
        assert_eq!(tf, f);
        assert_eq!(tg, g);
    }

    #[test]
    fn vars_match_legacy_vars() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(9), Lineage::not(Lineage::or2(v(2), v(5))));
        let r = i.intern(&f);
        assert_eq!(i.vars(r), f.vars());
    }

    #[test]
    fn condition_matches_legacy_condition() {
        let mut i = LineageInterner::new();
        let f = Lineage::and2(v(0), Lineage::or2(v(1), v(2)));
        let r = i.intern(&f);
        for (var, value) in [(0, false), (0, true), (1, true), (2, false)] {
            let cond = i.condition(r, VarId(var), value);
            assert_eq!(
                i.to_lineage(cond),
                f.condition(VarId(var), value),
                "condition on x{var}={value}"
            );
        }
    }

    #[test]
    fn intern_column_seeds_the_conversion_cache_with_the_input_trees() {
        let mut i = LineageInterner::new();
        let column = [v(1), Lineage::and2(v(2), Lineage::not(v(3))), v(1), v(4)];
        let lazy = |trees: &[Lineage]| -> Vec<LazyLineage> {
            trees.iter().cloned().map(LazyLineage::from).collect()
        };
        let roots = i.intern_column(lazy(&column).iter());
        assert_eq!(roots[0], roots[2], "hash-consed roots");
        assert_eq!(i.len(), 8, "⊤, ⊥, x1, x2, x3, ¬x3, x2 ∧ ¬x3, x4");
        for (tree, &root) in column.iter().zip(&roots) {
            let converted = i.to_lineage(root);
            assert_eq!(&converted, tree);
        }
        // A root converts to the input's own tree (the first one seen), not
        // to a fresh allocation.
        assert!(std::ptr::eq(
            i.to_lineage(roots[0]).node(),
            column[0].node()
        ));
        assert!(std::ptr::eq(
            i.to_lineage(roots[1]).node(),
            column[1].node()
        ));
        assert!(std::ptr::eq(
            i.to_lineage(roots[2]).node(),
            column[0].node()
        ));
        // The cons table was sized for the column at once and still finds
        // every node.
        let wide: Vec<Lineage> = (0..1000).map(|k| v(k * 7919)).collect();
        let roots = i.intern_column(lazy(&wide).iter());
        assert_eq!(i.verify_arena(), Ok(()));
        let nodes = i.len();
        assert_eq!(i.intern_column(lazy(&wide).iter()), roots);
        assert_eq!(i.len(), nodes, "re-interning allocates nothing");
    }

    #[test]
    fn share_no_node_compares_root_lists() {
        let mut i = LineageInterner::new();
        let (a, b, c) = (i.var(VarId(1)), i.var(VarId(2)), i.var(VarId(3)));
        assert!(i.share_no_node(&[a, b], &[c], true, true));
        assert!(!i.share_no_node(&[a, b], &[c, b], false, false));
        assert!(i.share_no_node(&[a, a], &[], false, true));
        assert!(!i.share_no_node(&[a, a], &[], true, false));
        assert!(i.share_no_node(&[c], &[a, a], false, false));
        assert!(!i.share_no_node(&[c], &[a, a], false, true));
        // Each call is a fresh pass: earlier marks do not leak.
        assert!(i.share_no_node(&[c], &[a, b], true, true));
        // Compound roots compare by the variables below them.
        let (ab, not_c) = (i.and2(a, b), i.not(c));
        let or = i.or2(not_c, a);
        assert!(i.share_no_node(&[ab, a], &[not_c], false, true));
        assert!(!i.share_no_node(&[ab, a], &[not_c], true, true));
        assert!(!i.share_no_node(&[ab], &[or], false, false));
        assert!(!i.share_no_node(&[not_c], &[b, or], false, false));
    }
}
