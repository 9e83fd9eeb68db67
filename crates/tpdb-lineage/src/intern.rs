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
//! An interner is an **overlay** on a frozen, shared
//! [`LineageArena`]: ids below the arena's length
//! resolve in the arena — a catalog's stored lineage columns, interned
//! once per catalog epoch — and the interner's own nodes append after
//! them. A node that could be frozen is looked up in the frozen cons table
//! before the local one (one with a local child cannot be, nor can a
//! compound node when the arena holds none), so structural equality stays
//! id equality across the two. The
//! interner's own tables index `id − frozen length`, and the stamps of
//! frozen nodes are allocated, zeroed, only when a pass first touches
//! one, so an overlay costs nothing per frozen node.
//! [`LineageInterner::new`] is the overlay on the empty arena, which holds
//! the two constants only.
//!
//! The local part only ever grows: ids stay valid for the interner's
//! lifetime, which is the lifetime of one join/set-operation execution (the
//! [`crate::ProbabilityEngine`] owns the interner and both are dropped
//! together). The legacy [`Lineage`] tree remains the *conversion
//! boundary*: output tuples, serde and the equality-based tests convert
//! back through [`LineageInterner::to_lineage`], which wraps each arena
//! node — already in the tree constructors' normal form — directly and
//! caches conversions per node so shared sub-formulas become shared `Arc`s.
//!
//! Every node also carries a sticky **read-once** flag, decided when the
//! node is interned: no variable occurs twice in the node's tree expansion.
//! The probability of a read-once formula is a plain product over its
//! children, which is what lets [`crate::ProbabilityEngine`] price the
//! paper's output lineages without grouping children by shared variables.

use crate::arena::LineageArena;
use crate::formula::{Lineage, LineageNode};
use crate::lazy::{FrozenOverlay, LazyLineage};
use crate::symbols::VarId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
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
/// cons table and id-keyed side tables, whose keys are small integers.
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
    fn write_u8(&mut self, i: u8) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = fx_mix(self.hash, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = fx_mix(self.hash, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.hash = fx_mix(self.hash, i as u64);
    }
}

/// A `HashMap` using the vendored [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using the vendored [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A dense id referring to a node in a [`LineageInterner`].
///
/// Refs are `Copy`, compare in `O(1)` (hash-consing makes structural
/// equality id equality *within one interner* and the arena it overlays)
/// and index the engine's probability memo directly. A ref is only
/// meaningful together with the interner that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineageRef(u32);

impl LineageRef {
    /// The position of the node in the arena (usable as a dense table
    /// index).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The ref of the node at position `i` (below the arena's length).
    pub(crate) fn from_index(i: usize) -> Self {
        Self(i as u32)
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

/// The node tables of one part of an arena — the frozen arena's, or an
/// interner's own — indexed by `id − first id`, plus the cons table that
/// finds its nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Segment {
    pub(crate) nodes: Vec<InternedNode>,
    /// Cached structural hash per node (mixes the tag with the *child
    /// hashes*, so it is stable across interners).
    pub(crate) hashes: Vec<u64>,
    /// Conversion cache: interned node → legacy tree (shared `Arc`s).
    pub(crate) legacy: Vec<Option<Lineage>>,
    /// Sticky per-node flag: no variable occurs twice in the node's tree
    /// expansion (its children are read-once and pairwise
    /// variable-disjoint). A function of the structure alone, so it is
    /// decided once, when the node is interned.
    pub(crate) read_once: Vec<bool>,
    /// Cons table: open-addressed, linearly probed slots holding a node id
    /// or [`EMPTY`]; a node's home slot is the top bits of its cached hash.
    /// Always a power of two long and at most three quarters full.
    table: Vec<u32>,
}

impl Segment {
    /// Number of nodes in the segment.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a node; the caller seats it in the cons table.
    pub(crate) fn push(&mut self, node: InternedNode, hash: u64, read_once: bool) {
        self.nodes.push(node);
        self.hashes.push(hash);
        self.legacy.push(None);
        self.read_once.push(read_once);
    }

    /// The home slot of a hash: its top bits (the well-mixed end of the
    /// multiplicative hash).
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.table.len().trailing_zeros())) as usize
    }

    /// Probes the cons table for a node with this hash that `matches`:
    /// `Ok` is its id, `Err` the free slot a new node would take. `first`
    /// is the id of the segment's first node.
    fn probe(
        &self,
        first: u32,
        hash: u64,
        matches: impl Fn(&InternedNode) -> bool,
    ) -> Result<LineageRef, usize> {
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return Err(slot);
            }
            let i = (id - first) as usize;
            if self.hashes[i] == hash && matches(&self.nodes[i]) {
                return Ok(LineageRef(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Re-seats every node in a cons table of `slots` slots (a power of
    /// two), or of as many more as the nodes need to fill at most three
    /// quarters of it.
    pub(crate) fn seat(&mut self, first: u32, slots: usize) {
        let slots = slots_for(self.nodes.len(), slots);
        self.table = vec![EMPTY; slots];
        let mask = slots - 1;
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home_slot(hash);
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = first + i as u32;
        }
    }

    /// Is the cons table a power of two long and at most three quarters
    /// full? (A probe then always terminates.)
    fn table_is_sound(&self) -> bool {
        self.table.len().is_power_of_two() && self.nodes.len() * 4 <= self.table.len() * 3
    }
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

/// The smallest power of two, at least `slots`, whose table holds `nodes`
/// nodes at ≤ 3/4 load.
fn slots_for(nodes: usize, mut slots: usize) -> usize {
    while nodes * 4 > slots * 3 {
        slots *= 2;
    }
    slots
}

/// The smallest cons table an interner starts with.
pub(crate) const MIN_TABLE: usize = 16;

/// A hash-consed arena of lineage formula nodes: an overlay on a frozen
/// [`LineageArena`] (see the module docs).
///
/// Structurally equal formulas intern to the same [`LineageRef`]; the
/// constructors apply exactly the structural simplifications of the
/// [`Lineage`] tree constructors (flattening, unit elimination, ordered
/// deduplication, double-negation elimination), so a formula built in
/// interned space converts back ([`to_lineage`](Self::to_lineage)) to the
/// very tree the legacy constructors would have produced.
#[derive(Debug, Clone)]
pub struct LineageInterner {
    /// The frozen nodes below `base`.
    arena: Arc<LineageArena>,
    /// The arena's length: the id of the first local node.
    base: u32,
    /// The interner's own nodes, ids `base..`.
    local: Segment,
    /// Per-node epoch stamps, the allocation-free "seen" set of operand
    /// deduplication and of the read-once leaf walk: a node is marked in
    /// the current pass iff its stamp equals `epoch`. Stamps are by *node
    /// id*, never by `VarId` — variable ids are sparse (the generators'
    /// span 10⁸…6·10⁸), node ids are dense. `stamps` covers the local
    /// nodes (by `id − base`), `frozen_stamps` the frozen ones (by id): it
    /// is allocated zeroed when a pass first touches a frozen node, so a
    /// statement that never does — a certified join — has none, and the
    /// pages of the untouched frozen nodes are never written.
    stamps: Vec<u32>,
    frozen_stamps: Vec<u32>,
    epoch: u32,
    /// Reused operand buffer of the n-ary constructors.
    operands: Vec<LineageRef>,
    /// Reused stack of the read-once leaf walk.
    walk: Vec<LineageRef>,
    /// Reused stack of [`condition`](Self::condition)'s cofactor lists.
    cofactors: Vec<LineageRef>,
}

/// The cons-table marker of a free slot (never a node id: interning
/// panics before the arena reaches `u32::MAX` nodes).
const EMPTY: u32 = u32::MAX;

/// The pre-interned constant `true` (id 0 in every arena).
const TRUE: LineageRef = LineageRef(0);
/// The pre-interned constant `false` (id 1 in every arena).
const FALSE: LineageRef = LineageRef(1);

impl Default for LineageInterner {
    fn default() -> Self {
        Self::over(LineageArena::empty())
    }
}

impl LineageInterner {
    /// Creates an empty arena: the overlay on the empty frozen arena, which
    /// holds the two pre-interned constants.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner whose ids below `arena`'s length are `arena`'s nodes.
    pub(crate) fn over(arena: Arc<LineageArena>) -> Self {
        let base = arena.len() as u32;
        let mut local = Segment::default();
        local.seat(base, MIN_TABLE);
        Self {
            arena,
            base,
            local,
            stamps: Vec::new(),
            frozen_stamps: Vec::new(),
            epoch: 0,
            operands: Vec::new(),
            walk: Vec::new(),
            cofactors: Vec::new(),
        }
    }

    /// The frozen arena this interner overlays.
    pub(crate) fn arena(&self) -> &LineageArena {
        &self.arena
    }

    /// Number of distinct nodes in the arena, frozen ones included (the
    /// exclusive upper bound of all ref indices).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base as usize + self.local.len()
    }

    /// Is the arena empty? (Never true: the constants are pre-interned.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position of `r` among the interner's own nodes, `None` for a
    /// frozen node — the index of every per-interner side table.
    #[inline]
    pub(crate) fn local_index(&self, r: LineageRef) -> Option<usize> {
        r.0.checked_sub(self.base).map(|i| i as usize)
    }

    /// The node a ref points at.
    #[must_use]
    #[inline]
    pub fn node(&self, r: LineageRef) -> &InternedNode {
        match self.local_index(r) {
            Some(i) => &self.local.nodes[i],
            None => &self.arena.nodes.nodes[r.index()],
        }
    }

    /// The cached structural hash of a node.
    fn hash(&self, r: LineageRef) -> u64 {
        match self.local_index(r) {
            Some(i) => self.local.hashes[i],
            None => self.arena.nodes.hashes[r.index()],
        }
    }

    /// Is the formula *read-once*: does no variable occur twice in its
    /// tree expansion? Under tuple independence the probability of such a
    /// formula is a product over its children, with no shared variable to
    /// condition on. The flag is decided when the node is interned.
    #[must_use]
    pub fn is_read_once(&self, r: LineageRef) -> bool {
        match self.local_index(r) {
            Some(i) => self.local.read_once[i],
            None => self.arena.nodes.read_once[r.index()],
        }
    }

    /// The cached tree of a node, if it has been converted.
    fn cached_tree(&self, r: LineageRef) -> Option<&Lineage> {
        match self.local_index(r) {
            Some(i) => self.local.legacy[i].as_ref(),
            None => self.arena.nodes.legacy[r.index()].as_ref(),
        }
    }

    /// The stamp of node `r` (see `stamps`).
    fn stamp(&mut self, r: LineageRef) -> &mut u32 {
        match self.local_index(r) {
            Some(i) => &mut self.stamps[i],
            None => {
                if self.frozen_stamps.is_empty() {
                    self.frozen_stamps = vec![0; self.base as usize];
                }
                &mut self.frozen_stamps[r.index()]
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
    /// allocates nothing (beyond a frozen operand's first stamp).
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
    /// tuple order — and returns its roots. The arena and the cons table
    /// are sized for the column up front. A tree is interned as a tree, and
    /// a new root's conversion-cache slot is seeded with it (normalized, as
    /// every constructor-built [`Lineage`] is), so converting the root back
    /// ([`to_lineage`](Self::to_lineage)) shares the input's `Arc` instead
    /// of allocating a fresh tree; a root found in the frozen arena keeps
    /// the arena's tree. A deferred lineage is interned from its recipe's
    /// node ids, building no tree ([`LazyLineage`]).
    pub fn intern_column<'a>(
        &mut self,
        column: impl ExactSizeIterator<Item = &'a LazyLineage>,
    ) -> Vec<LineageRef> {
        self.reserve(column.len());
        column.map(|lineage| lineage.intern_into(self)).collect()
    }

    /// Interns `tree` and seeds its root's conversion cache with it, unless
    /// the root has a tree already (a frozen root always has).
    pub(crate) fn intern_seeded(&mut self, tree: &Lineage) -> LineageRef {
        let root = self.intern(tree);
        if let Some(i) = self.local_index(root) {
            self.local.legacy[i].get_or_insert_with(|| tree.clone());
        }
        root
    }

    /// The node `r` of `from`, interned here: `r` itself when it is a node
    /// of this interner's frozen arena, else its tree.
    pub(crate) fn import(&mut self, from: &FrozenOverlay, r: LineageRef) -> LineageRef {
        if r.index() < from.arena.len() && Arc::ptr_eq(&from.arena, &self.arena) {
            return r;
        }
        self.intern(&from.tree(r))
    }

    /// The frozen arena and a copy of the interner's own nodes, with the
    /// trees converted of them so far: what a certified statement's
    /// recipes resolve their ids in.
    pub(crate) fn freeze(&self) -> Arc<FrozenOverlay> {
        let trees = self.local.legacy.iter().cloned();
        Arc::new(FrozenOverlay {
            arena: Arc::clone(&self.arena),
            own: self.local.nodes.as_slice().into(),
            trees: trees
                .map(|t| t.map_or_else(OnceLock::new, OnceLock::from))
                .collect(),
        })
    }

    /// Converts an interned formula back into a legacy [`Lineage`] tree.
    ///
    /// An arena node is already in the tree constructors' normal form, so
    /// it is wrapped as is — no re-flattening, no deep-hashing
    /// deduplication. Conversions are cached per node, so the trees of
    /// shared sub-formulas (every `λr` of a window group, every
    /// disjunction operand) are shared `Arc`s — converting `n` output
    /// tuples allocates `O(distinct nodes)`, not `O(total tree size)`.
    /// Every frozen node's tree is built when its arena is.
    pub fn to_lineage(&mut self, r: LineageRef) -> Lineage {
        if let Some(l) = self.cached_tree(r) {
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
        if let Some(i) = self.local_index(r) {
            self.local.legacy[i] = Some(lineage.clone());
        }
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

    /// The interner's own nodes, in arena (topological) order: position
    /// `i` is id `frozen length + i`.
    pub(crate) fn local_nodes(&self) -> &[InternedNode] {
        &self.local.nodes
    }

    /// The interner's own node tables, handed over when they become a
    /// frozen arena.
    pub(crate) fn into_local(self) -> Segment {
        self.local
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
    /// matching [`Lineage::vars`]). The walk visits each distinct node
    /// once.
    #[must_use]
    pub fn vars(&self, r: LineageRef) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        let mut visited: FxHashSet<LineageRef> = HashSet::default();
        let mut stack = vec![r];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            match self.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(v) => {
                    out.insert(*v);
                }
                InternedNode::Not(c) => stack.push(*c),
                InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend(cs.iter().copied()),
            }
        }
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

    /// Exhaustively checks the arena invariants — of the frozen arena and
    /// of the overlay — returning a description of the first violation
    /// found (`Ok(())` on a healthy arena).
    ///
    /// Checked invariants:
    ///
    /// * the parallel tables (`nodes`, `hashes`, conversion cache,
    ///   read-once flags, and the overlay's stamps) have equal lengths;
    /// * ids 0/1 are the pre-interned constants `true`/`false`, and no
    ///   other node is a constant (the constructors always return the
    ///   canonical ids);
    /// * every child ref points strictly below its parent — the arena is
    ///   topologically ordered and can contain no dangling refs;
    /// * `And`/`Or` hold ≥ 2 deduplicated children, none a constant or a
    ///   nested node of the same kind; `Not` wraps neither a constant nor
    ///   another `Not` (the canonical normal form of the tree
    ///   constructors);
    /// * every cached hash equals the recomputed structural hash and
    ///   probing the cons tables under it — the frozen one first — finds
    ///   the id (a mismatch would make hash-consing silently duplicate
    ///   nodes, breaking `O(1)` equality; an overlay node equal to a frozen
    ///   one is such a duplicate); each table is a power of two long and
    ///   ≤ 3/4 full, so a probe always terminates;
    /// * every read-once flag equals a from-scratch recomputation over the
    ///   node's tree expansion (a wrong `true` would price a correlated
    ///   formula as a product);
    /// * every cached legacy conversion has the same top-level shape as
    ///   the node it was converted from.
    ///
    /// The check is `O(arena size)` and intended for debug builds and
    /// property tests; the engine's hot paths never call it.
    // A diagnostic self-check, not an operational API: the payload is a
    // free-form description of the first broken invariant, for assertion
    // messages.
    pub fn verify_arena(&self) -> Result<(), String> {
        for (part, segment, extra) in [
            ("frozen", &self.arena.nodes, None),
            ("overlay", &self.local, Some(self.stamps.len())),
        ] {
            let side_tables = [
                segment.hashes.len(),
                segment.legacy.len(),
                segment.read_once.len(),
                extra.unwrap_or(segment.len()),
            ];
            if side_tables.iter().any(|&len| len != segment.len()) {
                return Err(format!(
                    "{part} tables out of sync: {} nodes, {side_tables:?} hashes / cached \
                     conversions / read-once flags / stamps",
                    segment.len(),
                ));
            }
            if !segment.table_is_sound() {
                return Err(format!(
                    "{part} cons table of {} slots cannot hold {} nodes at ≤ 3/4 load",
                    segment.table.len(),
                    segment.len()
                ));
            }
        }
        if self.arena.nodes.nodes.first() != Some(&InternedNode::True)
            || self.arena.nodes.nodes.get(1) != Some(&InternedNode::False)
        {
            return Err("ids 0/1 are not the pre-interned true/false constants".to_owned());
        }
        for i in 0..self.len() {
            let r = LineageRef(i as u32);
            let node = self.node(r);
            if let Some(problem) = self.check_node_shape(i, node) {
                return Err(format!("node {i}: {problem}"));
            }
            let expected = structural_hash(node, |c| self.hash(c));
            if self.hash(r) != expected {
                return Err(format!(
                    "node {i}: cached hash {:#x} != recomputed structural hash {expected:#x}",
                    self.hash(r)
                ));
            }
            if self.find(true, expected, |existing| existing == node) != Ok(r) {
                return Err(format!(
                    "probing the cons tables for node {i} does not find it — interning its \
                     structure again would allocate a duplicate id"
                ));
            }
            if self.is_read_once(r) != self.recompute_read_once(r) {
                return Err(format!(
                    "node {i}: read-once flag {} disagrees with a from-scratch recomputation",
                    self.is_read_once(r)
                ));
            }
            if let Some(cached) = self.cached_tree(r) {
                let shape_matches = matches!(
                    (node, cached.node()),
                    (InternedNode::True, LineageNode::True)
                        | (InternedNode::False, LineageNode::False)
                        | (InternedNode::Var(_), LineageNode::Var(_))
                        | (InternedNode::Not(_), LineageNode::Not(_))
                        | (InternedNode::And(_), LineageNode::And(_))
                        | (InternedNode::Or(_), LineageNode::Or(_))
                );
                if !shape_matches {
                    return Err(format!(
                        "node {i}: cached legacy conversion has a different top-level shape"
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

    /// Interns a constant, variable or negation node.
    fn intern_node(&mut self, node: InternedNode) -> LineageRef {
        let hash = structural_hash(&node, |c| self.hash(c));
        let frozen = match node {
            InternedNode::Not(c) => self.arena.compound && self.local_index(c).is_none(),
            _ => true,
        };
        match self.find(frozen, hash, |existing| *existing == node) {
            Ok(found) => found,
            Err(slot) => self.push_node(node, hash, slot),
        }
    }

    /// Interns an `And`/`Or` over normalized children. The lookup compares
    /// against the borrowed slice; only a miss boxes the children.
    fn intern_nary(&mut self, is_and: bool, children: &[LineageRef]) -> LineageRef {
        let hash = nary_hash(is_and, children, |c| self.hash(c));
        let frozen = self.arena.compound && children.iter().all(|&c| self.local_index(c).is_none());
        let found = self.find(frozen, hash, |existing| match (existing, is_and) {
            (InternedNode::And(cs), true) | (InternedNode::Or(cs), false) => **cs == *children,
            _ => false,
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

    /// Probes the frozen cons table, then the local one, for a node with
    /// this hash that `matches`: `Ok` is the interned id, `Err` the free
    /// local slot a new node would take. The frozen table is skipped when
    /// not `frozen`: when the node is a negation or an `And`/`Or` and the
    /// arena holds none (stored base relations: variables only), or when
    /// it has a local child (a frozen node's children are frozen).
    fn find(
        &self,
        frozen: bool,
        hash: u64,
        matches: impl Fn(&InternedNode) -> bool,
    ) -> Result<LineageRef, usize> {
        if frozen {
            if let Ok(found) = self.arena.nodes.probe(0, hash, &matches) {
                return Ok(found);
            }
        }
        self.local.probe(self.base, hash, matches)
    }

    /// Appends a node that [`find`](Self::find) reported missing, claiming
    /// the free local `slot` it returned.
    fn push_node(&mut self, node: InternedNode, hash: u64, slot: usize) -> LineageRef {
        // In debug builds every freshly interned node is checked against
        // the canonical-form invariants (`verify_arena` documents them);
        // checking only the new node keeps interning O(node size).
        #[cfg(debug_assertions)]
        if let Some(problem) = self.check_node_shape(self.len(), &node) {
            debug_assert!(false, "interning a malformed node: {problem}");
        }
        #[expect(
            clippy::expect_used,
            reason = "node ids are u32 by design; an arena of 2³² nodes exceeds memory first"
        )]
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("interner arena exceeds u32 ids");
        let read_once = self.classify(&node);
        self.local.push(node, hash, read_once);
        self.stamps.push(0);
        self.local.table[slot] = id;
        if self.local.len() * 4 > self.local.table.len() * 3 {
            self.local.seat(self.base, self.local.table.len() * 2);
        }
        LineageRef(id)
    }

    /// Makes room for `additional` more local nodes: the node tables
    /// reserve them, and the cons table grows once to the size that holds
    /// them at ≤ 3/4 load, instead of doubling (and re-seating every node)
    /// on the way.
    fn reserve(&mut self, additional: usize) {
        let local = &mut self.local;
        local.nodes.reserve(additional);
        local.hashes.reserve(additional);
        local.legacy.reserve(additional);
        local.read_once.reserve(additional);
        self.stamps.reserve(additional);
        let needed = local.len() + additional;
        if needed * 4 > local.table.len() * 3 {
            local.seat(self.base, slots_for(needed, local.table.len()));
        }
    }

    /// Starts a fresh marking pass over the stamp tables.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.frozen_stamps.fill(0);
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
        self.walk_leaves(a.iter().copied(), |stamp| {
            mem::replace(stamp, epoch) != epoch || !a_distinct
        }) && self.walk_leaves(b.iter().copied(), |stamp| {
            let fresh = *stamp != epoch;
            if b_distinct {
                *stamp = epoch;
            }
            fresh
        })
    }

    /// Hands the stamp of every `Var` leaf of the tree expansions of
    /// `roots` — once per occurrence — to `visit`, and stops at the first
    /// for which it returns `false`: returns whether none did. The stack is
    /// reused.
    fn walk_leaves(
        &mut self,
        roots: impl Iterator<Item = LineageRef>,
        mut visit: impl FnMut(&mut u32) -> bool,
    ) -> bool {
        let mut stack = mem::take(&mut self.walk);
        stack.extend(roots);
        let mut all = true;
        while let Some(cur) = stack.pop() {
            match self.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(_) => {
                    if !visit(self.stamp(cur)) {
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
