//! The one store of interned lineage nodes: segments, sealed and stacked.
//!
//! A [`Segment`] holds a run of hash-consed nodes with consecutive ids
//! `base..base + len`: the nodes, their cached hashes, read-once flags and
//! trees, and the cons table that finds them. One
//! [`LineageInterner`] appends to its *open* segment; behind an [`Arc`] a
//! segment is *sealed* — immutable but for each node's tree, built on
//! first read.
//!
//! A [`LineageStack`] is a view: sealed segments, each interned over the
//! ones below it. A catalog keeps one stack with one segment per stored
//! relation, in arrival order ([`push`](LineageStack::push)); such a
//! segment also holds its pricing tables — the dense marginal of each
//! `Var` node, and per node whether every variable under it has a
//! marginal — and its relation's column facts. A statement's interner is
//! a stack plus its open segment, and [`LineageInterner::freeze`] seals the
//! open segment on top of the stack, copying no node: that view is what a
//! certified statement's recipes resolve their ids in.
//!
//! Three invariants hold every view together:
//!
//! 1. **One `Var` node per variable.** A segment is interned over the
//!    segments below it, so a relation that reuses another's variables
//!    finds their nodes, and hash-consing stays id equality across
//!    segments: `share_no_node` compares variables by node.
//! 2. **Ids taken as they are only from the same segment.** An id from
//!    another view is taken unchanged only when it resolves to the same
//!    sealed segment in both (`Arc::ptr_eq`); otherwise its tree is
//!    interned ([`LazyLineage`]).
//! 3. **O(1) id → segment.** Every segment starts on a page boundary
//!    ([`PAGE_BITS`]) and the stack's page table names the segment of each
//!    page, so a lookup is a shift and two indexings, whatever the depth.

use crate::formula::{Lineage, LineageNode};
use crate::intern::{structural_hash, InternedNode, LineageInterner, LineageRef, EMPTY, MIN_TABLE};
use crate::lazy::LazyLineage;
use crate::prob::MarginalMap;
use std::any::Any;
use std::fmt;
use std::iter;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, Weak};

#[cfg(doc)]
use crate::ProbabilityEngine;

/// A stack's page table: per page of ids (`id >> PAGE_BITS`), its segment.
pub(crate) type Pages = Arc<[Arc<Segment>]>;

/// The segment of node `r` in the page table `pages`, and `r`'s index in it.
#[inline]
pub(crate) fn locate(pages: &[Arc<Segment>], r: LineageRef) -> (&Segment, usize) {
    let segment = &*pages[r.index() >> PAGE_BITS];
    (segment, (r.0 - segment.base) as usize)
}

/// A page holds `1 << PAGE_BITS` ids; a segment starts on a page boundary,
/// so the ids after a segment's last node up to the next boundary are
/// never handed out.
const PAGE_BITS: usize = 8;

/// A run of interned nodes with consecutive ids from `base` (see the
/// module docs), with its side tables and cons table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Segment {
    /// The id of the first node: a multiple of the page size.
    pub(crate) base: u32,
    /// The segment's position in every stack that holds it (the depth of
    /// the stack it was sealed on).
    pub(crate) position: u32,
    pub(crate) nodes: Vec<InternedNode>,
    /// Cached structural hash per node (mixes the tag with the *child
    /// hashes*, so it is stable across segments and views).
    pub(crate) hashes: Vec<u64>,
    /// Sticky per-node flag: no variable occurs twice in the node's tree
    /// expansion (its children are read-once and pairwise
    /// variable-disjoint). A function of the structure alone, so it is
    /// decided once, when the node is interned.
    pub(crate) read_once: Vec<bool>,
    /// Per node of a sealed segment: its tree, once converted — a stored
    /// root's is its tuple's own, shared. (An open segment's trees are its
    /// interner's, in plain slots: a cell's synchronized initialization
    /// would cost every interned row.)
    pub(crate) trees: Vec<OnceLock<Lineage>>,
    /// Cons table: open-addressed, linearly probed slots holding a node id
    /// or [`EMPTY`]; a node's home slot is the top bits of its cached hash.
    /// Always a power of two long and at most three quarters full.
    table: Vec<u32>,
    /// Does the segment hold a negation or an `And`/`Or`? If not, a
    /// compound node is never looked up in it.
    pub(crate) compound: bool,
    /// A catalog segment's pricing tables, from the catalog's marginals
    /// when it was sealed (empty for a statement's): per node, a `Var`
    /// node's marginal (`NaN` for every other node and for a variable with
    /// none), and whether every variable under it has a marginal. They are
    /// a cache: a `NaN` or a `false` sends the reader to the marginals, so a
    /// marginal registered later seals nothing again.
    pub(crate) dense: Vec<f64>,
    pub(crate) verified: Vec<bool>,
    /// The stored relation the segment was sealed for.
    pub(crate) column: Option<StoredColumn>,
}

/// A stored relation's lineage column and the facts
/// [`ProbabilityEngine::certify_columns`] decides a statement from.
#[derive(Debug, Clone)]
pub(crate) struct StoredColumn {
    /// The relation, by address only: the segment does not keep it alive,
    /// and the weak count keeps its address from being reused.
    owner: Weak<dyn Any + Send + Sync>,
    pub(crate) roots: Arc<[LineageRef]>,
    /// Every root is a variable, or a read-once `And`/`Or`, and no two
    /// roots share a variable: the column alone meets the conditions of
    /// [`ProbabilityEngine::certify_columns`].
    pub(crate) alone: bool,
    /// Did every variable under the column have a marginal when the
    /// segment was sealed?
    pub(crate) priced: bool,
    /// Per stack position up to the segment's own: does the column name a
    /// `Var` node of that segment? Two columns that name none of one
    /// segment share no variable.
    pub(crate) sources: Vec<bool>,
}

impl Segment {
    /// An empty segment whose first id is `base`; the one at id 0 starts
    /// with the two constants, `true` and `false`.
    pub(crate) fn open(base: u32) -> Self {
        let mut segment = Self {
            base,
            ..Self::default()
        };
        if base == 0 {
            for node in [InternedNode::True, InternedNode::False] {
                let hash = structural_hash(&node, |_| 0);
                segment.append(node, hash, true);
            }
        }
        segment.seat(MIN_TABLE);
        segment
    }

    /// Number of nodes in the segment.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a node; the caller seats it in the cons table.
    fn append(&mut self, node: InternedNode, hash: u64, read_once: bool) {
        self.compound |= !matches!(
            node,
            InternedNode::True | InternedNode::False | InternedNode::Var(_)
        );
        self.nodes.push(node);
        self.hashes.push(hash);
        self.read_once.push(read_once);
    }

    /// Appends a node and claims the free `slot` a [`probe`](Self::probe)
    /// returned for it, growing the table when it passes three quarters
    /// full.
    pub(crate) fn push(&mut self, node: InternedNode, hash: u64, read_once: bool, slot: usize) {
        self.table[slot] = self.base + self.len() as u32;
        self.append(node, hash, read_once);
        if self.len() * 4 > self.table.len() * 3 {
            self.seat(self.table.len() * 2);
        }
    }

    /// Makes room for `additional` more nodes: the node tables reserve
    /// them, and the cons table grows once to the size that holds them at
    /// ≤ 3/4 load, instead of doubling (and re-seating every node) on the
    /// way.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.hashes.reserve(additional);
        self.read_once.reserve(additional);
        let needed = self.len() + additional;
        if needed * 4 > self.table.len() * 3 {
            self.seat(slots_for(needed, self.table.len()));
        }
    }

    /// The home slot of a hash: its top bits (the well-mixed end of the
    /// multiplicative hash).
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.table.len().trailing_zeros())) as usize
    }

    /// Probes the cons table for a node with this hash that `matches`:
    /// `Ok` is its id, `Err` the free slot a new node would take.
    pub(crate) fn probe(
        &self,
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
            let i = (id - self.base) as usize;
            if self.hashes[i] == hash && matches(&self.nodes[i]) {
                return Ok(LineageRef(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Re-seats every node in a cons table of `slots` slots (a power of
    /// two), or of as many more as the nodes need to fill at most three
    /// quarters of it.
    fn seat(&mut self, slots: usize) {
        let slots = slots_for(self.nodes.len(), slots);
        self.table = vec![EMPTY; slots];
        let mask = slots - 1;
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home_slot(hash);
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = self.base + i as u32;
        }
    }

    /// Checks the side tables against the nodes and the cons table's
    /// shape (a power of two long, ≤ 3/4 full, so a probe terminates).
    pub(crate) fn check_tables(&self) -> Result<(), String> {
        let (n, slots) = (self.len(), self.table.len());
        let sides = [self.hashes.len(), self.read_once.len()];
        let optional = [self.trees.len(), self.dense.len(), self.verified.len()];
        let synced =
            sides.iter().all(|&len| len == n) && optional.iter().all(|&len| len == 0 || len == n);
        if !synced || !slots.is_power_of_two() || n * 4 > slots * 3 {
            let tables =
                format!("{sides:?} hashes / read-once flags, {optional:?} trees / pricing");
            return Err(format!(
                "segment at {}: {n} nodes, {tables}, {slots} slots",
                self.base
            ));
        }
        Ok(())
    }
}

/// The smallest power of two, at least `slots`, whose table holds `nodes`
/// nodes at ≤ 3/4 load.
fn slots_for(nodes: usize, mut slots: usize) -> usize {
    while nodes * 4 > slots * 3 {
        slots *= 2;
    }
    slots
}

/// Sealed segments, each interned over the ones below it, and the page
/// table that finds a node's segment (see the module docs). Cloning one
/// clones the segments' [`Arc`]s; a change makes a new stack that shares
/// every segment it keeps.
#[derive(Clone, Default)]
pub struct LineageStack {
    pub(crate) segments: Vec<Arc<Segment>>,
    /// Per page of ids (`id >> PAGE_BITS`): its segment, a table an
    /// interner keeps beside the stack so that a lookup starts from its own
    /// fields. Its length, in ids, is the next segment's base.
    pub(crate) pages: Pages,
}

impl fmt::Debug for LineageStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (segments, nodes) = (self.segments.len(), self.len());
        write!(f, "LineageStack({segments} segments, {nodes} nodes)")
    }
}

impl LineageStack {
    /// The stack of no segment, shared by every engine that starts on it.
    #[must_use]
    pub fn empty() -> Arc<Self> {
        static EMPTY_STACK: OnceLock<Arc<LineageStack>> = OnceLock::new();
        Arc::clone(EMPTY_STACK.get_or_init(Arc::default))
    }

    /// Number of nodes in the stack's segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Does the stack hold no node?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Are this stack's `depth` lowest segments the very segments (not
    /// equal copies) `other` holds at those positions?
    #[must_use]
    pub fn shares_segments(&self, other: &LineageStack, depth: usize) -> bool {
        let (mine, theirs) = (self.segments.get(..depth), other.segments.get(..depth));
        mine.zip(theirs)
            .is_some_and(|(a, b)| a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b)))
    }

    /// The position of the segment of node `r`.
    #[inline]
    pub(crate) fn position(&self, r: LineageRef) -> usize {
        self.pages[r.index() >> PAGE_BITS].position as usize
    }

    /// The segment of node `r` and `r`'s index in it.
    #[inline]
    pub(crate) fn locate(&self, r: LineageRef) -> (&Segment, usize) {
        locate(&self.pages, r)
    }

    /// The sealed segment id `r` would resolve to, if the stack covers it.
    pub(crate) fn segment_at(&self, r: LineageRef) -> Option<&Arc<Segment>> {
        self.pages.get(r.index() >> PAGE_BITS)
    }

    /// The `verified` flag of node `r` of a catalog segment.
    pub(crate) fn verified(&self, r: LineageRef) -> bool {
        let (segment, i) = self.locate(r);
        segment.verified[i]
    }

    /// The base of the next segment: the first id past the page table.
    pub(crate) fn next_base(&self) -> u32 {
        u32::try_from(self.pages.len() << PAGE_BITS).unwrap_or(EMPTY)
    }

    /// This stack with `segment`, whose base is [`next_base`](Self::next_base),
    /// sealed on top.
    pub(crate) fn with(&self, mut segment: Segment) -> Self {
        segment.position = self.segments.len() as u32;
        let (new, segment) = (segment.len().div_ceil(1 << PAGE_BITS), Arc::new(segment));
        let pages = self.pages.iter().chain(iter::repeat_n(&segment, new));
        let pages = pages.cloned().collect();
        let segments = self.segments.iter().cloned().chain([segment]).collect();
        Self { segments, pages }
    }

    /// The tree of node `r`, built from its children's trees the first
    /// time it is asked for and kept in its segment.
    pub(crate) fn tree(&self, r: LineageRef) -> Lineage {
        let (segment, i) = self.locate(r);
        let build = || {
            let children = |cs: &[LineageRef]| cs.iter().map(|&c| self.tree(c)).collect();
            Lineage::from_normalized(match &segment.nodes[i] {
                InternedNode::True => LineageNode::True,
                InternedNode::False => LineageNode::False,
                InternedNode::Var(v) => LineageNode::Var(*v),
                InternedNode::Not(c) => LineageNode::Not(self.tree(*c)),
                InternedNode::And(cs) => LineageNode::And(children(cs)),
                InternedNode::Or(cs) => LineageNode::Or(children(cs)),
            })
        };
        segment.trees[i].get_or_init(build).clone()
    }

    /// The position of the segment sealed for `relation`, found by its
    /// address.
    pub fn position_of<T>(&self, relation: &T) -> Option<usize> {
        let address: *const T = relation;
        self.segments.iter().position(|s| {
            s.column
                .as_ref()
                .is_some_and(|c| std::ptr::addr_eq(c.owner.as_ptr(), address))
        })
    }

    /// The stack of the `depth` lowest segments.
    #[must_use]
    pub fn truncate(&self, depth: usize) -> Self {
        let kept = &self.segments[..depth.min(self.segments.len())];
        let pages = self
            .segments
            .get(depth)
            .map_or(self.pages.len(), |s| s.base as usize >> PAGE_BITS);
        Self {
            segments: kept.to_vec(),
            pages: self.pages[..pages].into(),
        }
    }

    /// Seals the lineage column of the relation `owner` — one lineage per
    /// tuple, in tuple order — as a new segment on top of this stack,
    /// priced from `marginals`: the column's nodes this stack lacks, their
    /// pricing tables, and the column facts a statement is certified from.
    /// The segment finds `owner` by address ([`ProbabilityEngine::column`])
    /// and does not keep it alive.
    #[must_use]
    pub fn push<'a, T: Any + Send + Sync>(
        self: &Arc<Self>,
        owner: &Arc<T>,
        lineages: impl ExactSizeIterator<Item = &'a LazyLineage>,
        marginals: &MarginalMap,
    ) -> Arc<Self> {
        let mut interner = LineageInterner::over(Arc::clone(self));
        let roots = interner.intern_column(lineages);
        let position = self.segments.len();
        let alone = roots.iter().all(|&r| match interner.node(r) {
            InternedNode::Var(_) => true,
            InternedNode::And(_) | InternedNode::Or(_) => interner.is_read_once(r),
            _ => false,
        }) && interner.share_no_node(&roots, &[], true, false);
        let mut sources = vec![false; position + 1];
        interner.walk_leaves(roots.iter().copied(), |leaf, _| {
            sources[self
                .segment_at(leaf)
                .map_or(position, |s| s.position as usize)] = true;
            true
        });
        let base = self.next_base();
        let (dense, verified) = self.pricing_tables(&interner.open, marginals);
        let priced = roots.iter().all(|r| match r.0.checked_sub(base) {
            Some(i) => verified[i as usize],
            None => self.verified(*r),
        });
        let mut segment = interner.take_open();
        (segment.dense, segment.verified) = (dense, verified);
        segment.column = Some(StoredColumn {
            owner: Arc::downgrade(owner) as Weak<dyn Any + Send + Sync>,
            roots: roots.into(),
            alone,
            priced,
            sources,
        });
        Arc::new(self.with(segment))
    }

    /// The pricing tables of `segment`, to be sealed on this stack, in node
    /// order: a `Var` node's marginal in `marginals` (`NaN` for every other
    /// node and for a variable with none), and per node whether every
    /// variable under it has a marginal — children precede their parents,
    /// so one pass computes both.
    pub(crate) fn pricing_tables(
        &self,
        segment: &Segment,
        marginals: &MarginalMap,
    ) -> (Vec<f64>, Vec<bool>) {
        let mut dense = Vec::with_capacity(segment.len());
        let mut verified = Vec::<bool>::with_capacity(segment.len());
        for node in &segment.nodes {
            let flag = |c: &LineageRef| match c.0.checked_sub(segment.base) {
                Some(i) => verified[i as usize],
                None => self.verified(*c),
            };
            let (p, flag) = match node {
                InternedNode::True | InternedNode::False => (None, true),
                InternedNode::Var(v) => (marginals.get(v).copied(), marginals.contains_key(v)),
                InternedNode::Not(c) => (None, flag(c)),
                InternedNode::And(cs) | InternedNode::Or(cs) => (None, cs.iter().all(flag)),
            };
            dense.push(p.unwrap_or(f64::NAN));
            verified.push(flag);
        }
        (dense, verified)
    }
}

/// A relation's lineage column as a statement sees it: the roots, by tuple
/// index, and — for a stored relation — the position of its segment in the
/// engine's stack ([`ProbabilityEngine::column`]).
#[derive(Debug, Clone)]
pub struct LineageColumn {
    pub(crate) roots: Arc<[LineageRef]>,
    /// The segment, for a stored relation.
    pub(crate) stored: Option<usize>,
}

impl Deref for LineageColumn {
    type Target = [LineageRef];

    fn deref(&self) -> &[LineageRef] {
        &self.roots
    }
}
