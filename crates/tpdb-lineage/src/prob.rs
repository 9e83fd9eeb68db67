//! Exact probability computation for lineage formulas.
//!
//! A node is priced in one order ([`ProbabilityEngine`]'s `prob_rec`):
//! the memo; the product over the children of a read-once node; the
//! connected components of any other `And`/`Or`, independent of each
//! other; inside a component that shares variables, unit propagation on a
//! literal member; and Shannon expansion for a component with no literal.

use crate::formula::Lineage;
use crate::intern::{FxHashMap, InternedNode, LineageInterner, LineageRef};
use crate::lazy::LazyLineage;
use crate::segment::{LineageColumn, LineageStack};
use crate::symbols::VarId;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::fmt;
use std::mem;
use std::ops::Range;
use std::sync::Arc;

/// Marginal probabilities by base-tuple variable: the one map type the
/// catalog stores and its segments and engines price from, so handing a
/// catalog's marginals to an engine is an [`Arc`] clone. Keys are variable
/// ids the program assigns itself, so the fast non-keyed hasher is safe.
pub type MarginalMap = FxHashMap<VarId, f64>;

/// Errors produced by the probability engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbabilityError {
    /// A variable occurring in the formula has no registered probability.
    MissingVariable(VarId),
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbabilityError::MissingVariable(v) => {
                write!(f, "no probability registered for variable {v}")
            }
        }
    }
}

impl std::error::Error for ProbabilityError {}

/// The paper's lineage-concatenation functions: how an output tuple's
/// lineage is formed from a window's `λr` and `λs`
/// ([`ProbabilityEngine::concat_output`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Concat {
    /// `λr ∧ λs` — overlapping windows.
    And,
    /// `λr ∧ ¬λs` — negating windows.
    AndNot,
    /// `λr ∨ λs` — the union's negating windows.
    Or,
}

/// Proof, issued once per statement by
/// [`ProbabilityEngine::certify_columns`], that every output root formed
/// from its two lineage columns is read-once and that flattening its two
/// operands yields the child list its node would have. Holding it is what
/// lets output formation call
/// [`certified_output`](ProbabilityEngine::certified_output) and
/// [`certified_concat`](ProbabilityEngine::certified_concat), which price a
/// row through the memo with no normalization, leaf walk or new node. It
/// stays valid for the engine that issued it while that engine's marginals
/// are unchanged — for as long as a pass runner holds the engine.
///
/// It also holds the nodes the statement's rows refer to: the engine's
/// stack with its open segment sealed on top when the certificate was
/// granted — so the columns' every node, and no node copied — shared by
/// every deferred row's recipe.
#[derive(Debug)]
pub struct ReadOnceColumns {
    nodes: Arc<LineageStack>,
}

/// Exact probability computation under tuple independence.
///
/// Base tuples of a TP database are independent boolean random variables;
/// the probability of a derived tuple is `Pr(λ)` for its lineage `λ`. The
/// engine computes this exactly:
///
/// 1. structural cases (`true`, `false`, variables, negation),
/// 2. *read-once formulas* — no variable occurs twice, which the arena
///    records per node ([`LineageInterner::is_read_once`]): the children of
///    an `And`/`Or` are mutually independent, so their probabilities
///    combine by multiplication (`And`) or on the complement (`Or`), in
///    child order, with nothing to group, hash or allocate,
/// 3. *independent decomposition* for everything else: the children are
///    grouped into connected components over shared variables; distinct
///    components are mutually independent and combine as above (singleton
///    components in child order — the same multiplications, bit for bit, as
///    case 2),
/// 4. *unit propagation* inside a component whose children share
///    variables and one of which is a literal `ℓ` (`x` or `¬x`): the others
///    are conditioned on the value that decides the component (`ℓ` true
///    under `And`, false under `Or`), and the conditioned rest is priced
///    from case 1 again,
/// 5. a *Shannon expansion* fallback for a component with no literal,
///    expanding on the most frequent variable and memoizing intermediate
///    results.
///
/// The lineages produced by TP joins with negation are of the shapes
/// `λr ∧ λs`, `λr`, and `λr ∧ ¬(s₁ ∨ s₂ ∨ …)` over *distinct base tuples* —
/// read-once — so case 2 answers almost every query. The rows of
/// `(r ∪ s) − r` — `(x_r ∨ x_s) ∧ ¬x_r`, `x_r ∧ ¬x_r` — are case 4; the
/// fallback keeps the engine exact for arbitrarily correlated lineages
/// (e.g. after self-joins).
///
/// # Representation
///
/// The engine owns a [`LineageInterner`], a [`LineageStack`] of sealed
/// segments plus an open one: formulas are evaluated in hash-consed form
/// ([`LineageRef`]). A catalog's segment carries a dense marginal per
/// `Var` node and the engine a dense memo over its own nodes (`NaN`
/// marking absent entries; a `Var` node's entry is its marginal, so
/// pricing hashes each variable once, not once per occurrence) and a
/// sparse one over the sealed compound nodes it prices. The query layer
/// builds each operator's engine over its catalog's stack
/// ([`over`](Self::over)), so a statement over stored relations
/// registers, interns and checks nothing per input tuple; [`new`](Self::new)
/// starts on the empty stack, and the free-relation API registers its
/// inputs' marginals ([`set_all`](Self::set_all)). A registration that
/// changes a stored variable's marginal overrides it for this engine alone.
///
/// Callers on the hot path intern once ([`intern`](Self::intern), or
/// [`column`](Self::column) for a relation's lineage column) and
/// evaluate with [`probability_ref`](Self::probability_ref). Output
/// formation checks a statement's inputs and makes its one pricing
/// decision when the statement opens: it asks
/// [`certify_columns`](Self::certify_columns), which fails if any input
/// root names a variable with no marginal, and otherwise says whether every
/// output root is read-once. If so, each row is priced without interning it
/// by [`certified_concat`](Self::certified_concat), and its conjunction
/// comes back as a [`LazyLineage`] whose tree is built only when read.
/// Otherwise every row takes the node path,
/// [`concat_output`](Self::concat_output): its root is interned and priced
/// like any other node. Neither path checks a row's variables again.
/// [`probability`](Self::probability) accepts legacy trees and interns on
/// the fly.
#[derive(Debug, Clone, Default)]
pub struct ProbabilityEngine {
    /// Marginals registered on this engine: they override `marginals`.
    probs: MarginalMap,
    /// The marginals of the stack's catalog, which its segments were
    /// priced from.
    marginals: Arc<MarginalMap>,
    interner: LineageInterner,
    /// Dense memo over the engine's own nodes, indexed by their own index
    /// ([`LineageInterner::own_index`]); `NaN` marks an absent entry. Holds the probability of every
    /// priced `And`/`Or` node and — the dense marginal table — of every
    /// priced `Var` node. Cleared when a registered probability changes.
    memo: Vec<f64>,
    /// The memo of the sealed `And`/`Or` nodes this engine has priced (a
    /// sealed `Var` node's marginal is its segment's). Cleared with `memo`.
    sealed_memo: FxHashMap<LineageRef, f64>,
    /// Per-node flag over a prefix of the engine's own nodes: every
    /// variable under the node has a registered probability. Extended
    /// bottom-up in arena order by [`missing_var`](Self::missing_var);
    /// cleared with the memo, because a registration can turn a `false`
    /// stale. A sealed node's flag is its segment's.
    verified: Vec<bool>,
    /// Reused buffers of the decomposition and Shannon fallbacks.
    scratch: Scratch,
    /// Counts Shannon expansions performed.
    expansions: u64,
}

/// Buffers the fallback paths fill and drain within one call; they only
/// carry capacity from call to call.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Variable → first child mentioning it (`connected_components`).
    owner: FxHashMap<VarId, usize>,
    /// Union-find forest over child indices (`connected_components`).
    parent: Vec<usize>,
    /// Variable → occurrences (`most_frequent_var`).
    counts: FxHashMap<VarId, usize>,
    stack: Vec<LineageRef>,
    /// The component runs of every `prob_nary` on the recursion path, each
    /// call's above its caller's (`connected_components`).
    groups: Vec<(usize, usize)>,
    /// The members of the node `prob_group` interns.
    refs: Vec<LineageRef>,
}

impl ProbabilityEngine {
    /// Creates an engine with no registered variables, on the empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine over a catalog's `stack`, whose segments were
    /// priced from `marginals`: nodes, pricing tables and stored columns
    /// are shared, not copied, and the engine's own nodes and memo start
    /// empty. The marginals must lie in `[0, 1]`, as [`set`](Self::set)
    /// and [`set_all`](Self::set_all) enforce for later registrations.
    #[must_use]
    pub fn over(stack: Arc<LineageStack>, marginals: Arc<MarginalMap>) -> Self {
        debug_assert!(
            marginals.values().all(|p| (0.0..=1.0).contains(p)),
            "catalog marginals must be probabilities"
        );
        Self {
            probs: MarginalMap::default(),
            marginals,
            interner: LineageInterner::over(stack),
            memo: Vec::new(),
            sealed_memo: FxHashMap::default(),
            verified: Vec::new(),
            scratch: Scratch::default(),
            expansions: 0,
        }
    }

    /// Registers (or overwrites) the marginal probability of a variable.
    /// The memo is invalidated only if the value actually changes.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set(&mut self, var: VarId, p: f64) {
        self.set_all([(var, p)]);
    }

    /// Registers a batch of marginal probabilities, clearing the memo at
    /// most **once** (single-variable [`set`](Self::set) pays the memo
    /// invalidation per call, making bulk registration `O(n · memo)`).
    /// Registrations that change nothing — the common case when the query
    /// layer re-registers catalog-known probabilities per execution — leave
    /// both the memo and the shared probability map untouched.
    ///
    /// # Panics
    /// Panics if any probability is not within `[0, 1]`, before registering
    /// any of the batch.
    #[expect(
        clippy::panic,
        reason = "a marginal outside [0, 1] is a caller bug; storage validates every probability it accepts"
    )]
    pub fn set_all<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let mut changed: Vec<(VarId, f64)> = Vec::new();
        for (var, p) in items {
            if !(0.0..=1.0).contains(&p) {
                panic!("probability {p} of {var} is outside [0, 1]");
            }
            if self.get(var) != Some(p) {
                changed.push((var, p));
            }
        }
        if changed.is_empty() {
            return;
        }
        self.probs.extend(changed);
        self.memo.clear();
        self.sealed_memo.clear();
        self.verified.clear();
    }

    /// The registered probability of a variable: the engine's own
    /// registration, else the catalog's marginal.
    #[must_use]
    pub fn get(&self, var: VarId) -> Option<f64> {
        self.probs
            .get(&var)
            .or_else(|| self.marginals.get(&var))
            .copied()
    }

    /// Number of registered variables (the catalog's and the engine's own).
    #[must_use]
    pub fn len(&self) -> usize {
        let catalog = &self.marginals;
        catalog.len()
            + self
                .probs
                .keys()
                .filter(|v| !catalog.contains_key(v))
                .count()
    }

    /// Is the engine empty (no variables registered)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of Shannon expansions performed so far.
    #[must_use]
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// The formula arena backing this engine.
    #[must_use]
    pub fn interner(&self) -> &LineageInterner {
        &self.interner
    }

    /// Mutable access to the formula arena (the interned window streams
    /// build their lineages directly in the engine's arena so the refs they
    /// produce can be priced without conversion).
    pub fn interner_mut(&mut self) -> &mut LineageInterner {
        &mut self.interner
    }

    /// Interns a legacy lineage tree into the engine's arena.
    pub fn intern(&mut self, lineage: &Lineage) -> LineageRef {
        self.interner.intern(lineage)
    }

    /// Converts an interned formula back into a legacy tree (cached).
    pub fn to_lineage(&mut self, r: LineageRef) -> Lineage {
        self.interner.to_lineage(r)
    }

    /// Computes `Pr(λ)`.
    ///
    /// # Panics
    /// Panics if a variable of `λ` has no registered probability.
    #[must_use]
    pub fn probability(&mut self, lineage: &Lineage) -> f64 {
        let r = self.interner.intern(lineage);
        self.probability_ref(r)
    }

    /// Computes `Pr(λ)` for an interned formula.
    ///
    /// # Panics
    /// Panics if a variable of `λ` has no registered probability.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; output formation checks registration with certify_columns instead"
    )]
    pub fn probability_ref(&mut self, r: LineageRef) -> f64 {
        self.try_probability_ref(r)
            .expect("all lineage variables must have probabilities")
    }

    /// Computes `Pr(λ)` for an interned formula, reporting the *smallest*
    /// missing variable as an error (the tree-walk order of the legacy
    /// engine).
    fn try_probability_ref(&mut self, r: LineageRef) -> Result<f64, ProbabilityError> {
        match self.missing_var(r) {
            Some(var) => Err(ProbabilityError::MissingVariable(var)),
            None => Ok(self.prob_rec(r)),
        }
    }

    /// Prices the interned formula and converts it to a tree — what an
    /// output tuple stores of a lineage that is already a node. `r` must be
    /// a root of a column [`certify_columns`](Self::certify_columns)
    /// accepted, or a node formed from such roots: its variables are not
    /// checked again.
    ///
    /// # Panics
    /// Panics if a variable of `λ` has no registered probability.
    pub fn output(&mut self, r: LineageRef) -> (LazyLineage, f64) {
        let probability = self.prob_rec(r);
        (self.interner.to_lineage(r).into(), probability)
    }

    /// Forms an output tuple's lineage `how(λr, λs)` as an arena node —
    /// `λs` the disjunction of `lambda_s`: one node, or a negating window's
    /// span — and prices the node with [`output`](Self::output). This is the
    /// node path every row of an uncertified statement takes (self-joins,
    /// inputs that share a variable, correlated roots). The arena's
    /// read-once flags still price a read-once root as a product over its
    /// children, so such a row costs its root node (and `¬λs`, a span's
    /// `Or`) and nothing else; a root whose operands share variables is
    /// priced by decomposition. The operands come from columns
    /// [`certify_columns`](Self::certify_columns) accepted, so the root's
    /// variables are not checked again.
    ///
    /// # Panics
    /// Panics if a variable of either operand has no registered
    /// probability.
    pub fn concat_output(
        &mut self,
        how: Concat,
        lambda_r: LineageRef,
        lambda_s: &[LineageRef],
    ) -> (LazyLineage, f64) {
        let lambda_s = self.interner.or(lambda_s);
        let root = match how {
            Concat::And => self.interner.and2(lambda_r, lambda_s),
            Concat::AndNot => self.interner.and_not(lambda_r, lambda_s),
            Concat::Or => self.interner.or2(lambda_r, lambda_s),
        };
        self.output(root)
    }

    /// The lineage column of `relation`, whose tuples' lineages
    /// `lineages` lists in tuple order. A relation with a segment in the
    /// engine's stack — found by identity: `relation` must be the very value
    /// the segment was sealed for ([`LineageStack::push`]) — hands over the
    /// segment's column and interns nothing; any other relation (a derived
    /// input, a relation of the free-relation API) is interned into the
    /// engine's open segment ([`LineageInterner::intern_column`]), where
    /// its `Var` leaves find the stack's nodes; a deferred lineage is
    /// interned from its recipe's node ids, without building its tree.
    pub fn column<'a, T>(
        &mut self,
        relation: &T,
        lineages: impl ExactSizeIterator<Item = &'a LazyLineage>,
    ) -> LineageColumn {
        let stack = self.interner.stack();
        let stored = stack.position_of(relation);
        let roots = match stored.and_then(|k| stack.segments[k].column.as_ref()) {
            Some(column) => Arc::clone(&column.roots),
            None => self.interner.intern_column(lineages).into(),
        };
        LineageColumn { roots, stored }
    }

    /// Checks and certifies a statement whose two lineage columns are `r`
    /// and `s` ([`column`](Self::column)); `r_spanned` / `s_spanned` say
    /// whether a negating window's `λs` span may disjoin roots of that
    /// column (it is the negative side of a pass that emits negating
    /// windows).
    ///
    /// `Err` names the smallest variable with no registered probability
    /// under any root of either column: no row of the statement can be
    /// priced safely, so it fails before its first row. Otherwise `Some`
    /// when
    ///
    /// - every root of both columns is read-once and neither a constant
    ///   nor a negation;
    /// - the two columns share no variable;
    /// - no two roots of a spanned column share a variable.
    ///
    /// Then every output root of Table II — `λr`, `λr ∧ λs`,
    /// `λr ∧ ¬(c₁ ∨ … ∨ c_k)` and the union's `λr ∨ λs`, with `λr` a root of
    /// one column and `λs` a root of the other or a span's distinct operands
    /// — is read-once, and flattening its two operands gives the child list
    /// of its node: nothing to deduplicate, fold or absorb.
    ///
    /// Two stored columns are certified from what their segments recorded
    /// of them, when they are different relations, the engine overrides no
    /// marginal, every variable under them had a marginal when they were
    /// sealed, each column alone meets the conditions and no segment holds
    /// a `Var` node of both. Every
    /// other pair is decided over its roots: one pass checks registration —
    /// a root by its `verified` flag, a `Var` root without one by its
    /// marginal lookup — and one stamp pass over their leaves follows. Base
    /// relations are certified, and so are derived inputs that meet the
    /// conditions (`(r ∪ s) − t`, `(r ∩ s) ∪ t`); every other statement gets
    /// `Ok(None)` and takes the node path. Either way every root is
    /// registered, so neither path checks a row's variables again.
    pub fn certify_columns(
        &mut self,
        r: &LineageColumn,
        s: &LineageColumn,
        r_spanned: bool,
        s_spanned: bool,
    ) -> Result<Option<ReadOnceColumns>, ProbabilityError> {
        if let (Some(a), Some(b)) = (r.stored, s.stored) {
            let segments = &self.interner.stack().segments;
            let column = |k: usize| segments[k].column.as_ref();
            if let (true, Some(a), Some(b)) =
                (a != b && self.probs.is_empty(), column(a), column(b))
            {
                let disjoint = !a.sources.iter().zip(&b.sources).any(|(x, y)| *x && *y);
                if a.alone && b.alone && a.priced && b.priced && disjoint {
                    let nodes = self.interner.freeze();
                    return Ok(Some(ReadOnceColumns { nodes }));
                }
            }
        }
        self.certify_roots(r, s, r_spanned, s_spanned)
    }

    /// [`certify_columns`](Self::certify_columns) over two root lists.
    fn certify_roots(
        &mut self,
        r: &[LineageRef],
        s: &[LineageRef],
        r_spanned: bool,
        s_spanned: bool,
    ) -> Result<Option<ReadOnceColumns>, ProbabilityError> {
        let mut read_once = true;
        let mut missing: Option<VarId> = None;
        self.extend_verified();
        for &root in r.iter().chain(s) {
            let node = self.interner.node(root);
            let unregistered = if let InternedNode::Var(var) = *node {
                (!self.is_verified(root) && self.get(var).is_none()).then_some(var)
            } else {
                // `λr ∧ ¬¬x` would need normalizing to `λr ∧ x`.
                read_once &= matches!(node, InternedNode::And(_) | InternedNode::Or(_))
                    && self.interner.is_read_once(root);
                self.missing_var(root)
            };
            if let Some(var) = unregistered {
                missing = Some(missing.map_or(var, |m| m.min(var)));
            }
        }
        if let Some(var) = missing {
            return Err(ProbabilityError::MissingVariable(var));
        }
        let certified = read_once && self.interner.share_no_node(r, s, r_spanned, s_spanned);
        Ok(certified.then(|| ReadOnceColumns {
            nodes: self.interner.freeze(),
        }))
    }

    /// [`output`](Self::output) of a root of a certified column: its
    /// probability and its tree — as stored, or built once per node in its
    /// sealed segment.
    pub fn certified_output(
        &mut self,
        proof: &ReadOnceColumns,
        lambda_r: LineageRef,
    ) -> (LazyLineage, f64) {
        let p = self.prob_rec(lambda_r);
        (proof.nodes.tree(lambda_r).into(), p)
    }

    /// The output root `how(λr, c₁ ∨ … ∨ c_k)` of a certified statement:
    /// `λr` a root of one column, `lambda_s` the operands of `λs` — one
    /// root of the other column, or a negating window's span. The same
    /// lineage and probability bits as [`concat_output`](Self::concat_output),
    /// without its node: the root's child list is the two operands
    /// flattened, so its read-once product runs over them in that order,
    /// from `1.0` — `p` per conjunct of `λr ∧ λs'`, `1 − p` per disjunct of
    /// `λr ∨ λs` (then complemented) — where `λs'` of `andNot` is the one
    /// conjunct `¬λs`, priced `1 − p(λs)`, and a span's `p(λs)` is
    /// `1 − ∏(1 − p(cᵢ))` in span order from `1.0`. So `andNot` over a span
    /// is `p(λr) · (1 − (1 − ∏(1 − p(cᵢ))))`. No node is interned and no
    /// tree is touched: the lineage comes back as a recipe over the
    /// operands' ids.
    pub fn certified_concat(
        &mut self,
        proof: &ReadOnceColumns,
        how: Concat,
        lambda_r: LineageRef,
        lambda_s: &[LineageRef],
    ) -> (LazyLineage, f64) {
        debug_assert!(!lambda_s.is_empty(), "λs has an operand");
        let lineage = LazyLineage::concat(&proof.nodes, how, lambda_r, lambda_s);
        let operands = std::iter::once(&lambda_r).chain(lambda_s);
        if how == Concat::Or {
            let none = operands.fold(1.0, |none, &c| self.fold_operands(none, c, false));
            return (lineage, 1.0 - none);
        }
        // The product over λr's conjuncts from 1.0 is p(λr) itself.
        let p_r = self.prob_rec(lambda_r);
        let p = match (how, lambda_s) {
            (Concat::AndNot, &[c]) => p_r * (1.0 - self.prob_rec(c)),
            (_, &[c]) => self.fold_operands(p_r, c, true),
            // A span's operands are flattened: no `cᵢ` is an `Or`.
            (_, span) => {
                let none = span
                    .iter()
                    .fold(1.0, |none, &c| none * (1.0 - self.prob_rec(c)));
                let negated = how == Concat::AndNot;
                p_r * (1.0 - if negated { 1.0 - none } else { none })
            }
        };
        (lineage, p)
    }

    /// Continues a read-once product over the operands `r` contributes to a
    /// flattened conjunction (`is_and`) or disjunction — its children when
    /// it is that connective, else `r` itself — multiplying `acc` by `p`
    /// (`1 − p` for a disjunction) of each, in order. From `1.0` over a
    /// node's own children this is the product
    /// [`prob_read_once`](Self::prob_read_once) prices the node with.
    fn fold_operands(&mut self, mut acc: f64, r: LineageRef, is_and: bool) -> f64 {
        match (self.interner.node(r), is_and) {
            (InternedNode::And(_), true) | (InternedNode::Or(_), false) => {
                for k in 0..self.interner.children(r).len() {
                    let child = self.interner.children(r)[k];
                    acc = self.fold_operands(acc, child, is_and);
                }
                acc
            }
            _ => {
                let p = self.prob_rec(r);
                acc * if is_and { p } else { 1.0 - p }
            }
        }
    }

    /// Extends the `verified` flags over the own nodes appended since the
    /// last call, in one bottom-up pass — ids are topologically ordered, so
    /// a node's flag is the conjunction of its children's. A page gap
    /// between own segments holds flags no id reads.
    fn extend_verified(&mut self) {
        let mut verified = mem::take(&mut self.verified);
        for (start, nodes) in self.interner.own_runs() {
            if verified.len() >= start + nodes.len() {
                continue;
            }
            verified.resize(verified.len().max(start), true);
            for node in &nodes[verified.len() - start..] {
                let flag = self.vars_registered(node, &verified);
                verified.push(flag);
            }
        }
        self.verified = verified;
    }

    /// Is every variable under the own node `node` registered, given the
    /// flags `below` of the own nodes before it? A sealed child's flag is
    /// its segment's.
    fn vars_registered(&self, node: &InternedNode, below: &[bool]) -> bool {
        let flag = |c: &LineageRef| self.flag(*c, below);
        match node {
            InternedNode::True | InternedNode::False => true,
            InternedNode::Var(v) => self.get(*v).is_some(),
            InternedNode::Not(c) => flag(c),
            InternedNode::And(cs) | InternedNode::Or(cs) => cs.iter().all(flag),
        }
    }

    /// The `verified` flag of a node the flags cover: its segment's for a
    /// sealed node. (An override can register a variable the catalog has no
    /// marginal for, so a sealed `false` only sends the caller to the
    /// walk.)
    fn is_verified(&self, r: LineageRef) -> bool {
        self.flag(r, &self.verified)
    }

    /// The `verified` flag of `r`: `own[own index]`, or its segment's.
    fn flag(&self, r: LineageRef, own: &[bool]) -> bool {
        match self.interner.own_index(r) {
            Some(i) => own[i],
            None => self.interner.stack().verified(r),
        }
    }

    /// The smallest variable under `root` with no registered probability,
    /// if any: a table read once the flags cover the arena.
    fn missing_var(&mut self, root: LineageRef) -> Option<VarId> {
        self.extend_verified();
        if self.is_verified(root) {
            return None;
        }
        let vars = self.interner.vars(root);
        vars.into_iter().find(|v| self.get(*v).is_none())
    }

    /// Checks the engine's arena and memo invariants, returning a
    /// description of the first violation (`Ok(())` when healthy):
    /// the interner passes [`LineageInterner::verify_arena`], every catalog
    /// segment's dense marginals and flags agree with the catalog's
    /// marginals (a cache may lack one registered since, never contradict
    /// one), the engine's id-keyed side tables never outgrow
    /// its own ids, every present memo entry is a probability in `[0, 1]`,
    /// the sparse memo holds sealed `And`/`Or` nodes below the own ids
    /// only, every memoized `Var` node (the dense marginal table) holds
    /// exactly the registered value of its variable, and every `verified`
    /// flag equals a from-scratch bottom-up recomputation against the
    /// registered variables.
    ///
    /// `O(arena size · depth)`; intended for debug builds and property
    /// tests.
    // A diagnostic self-check like the interner's: the String payload is an
    // assertion message, not an error callers match on.
    pub fn verify_arena(&self) -> Result<(), String> {
        self.interner.verify_arena()?;
        let stack = self.interner.stack();
        for segment in stack.segments.iter().filter(|s| !s.dense.is_empty()) {
            // A cache may lack a marginal registered since, never differ.
            let (dense, verified) = stack.pricing_tables(segment, &self.marginals);
            let stale = |(p, q): (&f64, &f64)| !p.is_nan() && p.to_bits() != q.to_bits();
            let mut flags = segment.verified.iter().zip(&verified);
            if segment.dense.iter().zip(&dense).any(stale) || flags.any(|(a, b)| *a && !b) {
                return Err(format!("segment at {}: stale pricing tables", segment.base));
            }
        }
        let span = self.interner.own_span();
        if self.memo.len() > span || self.verified.len() > span {
            return Err(format!("memo / verified tables outgrow {span} own ids"));
        }
        for (&r, &p) in &self.sealed_memo {
            let compound = matches!(
                self.interner.node(r),
                InternedNode::And(_) | InternedNode::Or(_)
            );
            if self.interner.own_index(r).is_some() || !compound || !(0.0..=1.0).contains(&p) {
                return Err(format!("sparse memo[{}] = {p}", r.index()));
            }
        }
        let mut fresh: Vec<bool> = Vec::with_capacity(self.verified.len());
        for (start, nodes) in self.interner.own_runs() {
            for (i, node) in (start..).zip(nodes) {
                // NaN is the absent-entry sentinel.
                let p = self.memo.get(i).copied().unwrap_or(f64::NAN);
                let registered = match node {
                    InternedNode::Var(v) => self.get(*v).map(f64::to_bits) == Some(p.to_bits()),
                    _ => (0.0..=1.0).contains(&p),
                };
                if !p.is_nan() && !registered {
                    return Err(format!("memo[{i}] = {p} is no probability of its node"));
                }
                if i < self.verified.len() {
                    fresh.resize(i, true);
                    fresh.push(self.vars_registered(node, &fresh));
                    if fresh[i] != self.verified[i] {
                        return Err(format!("verified[{i}] = {} is stale", self.verified[i]));
                    }
                }
            }
        }
        Ok(())
    }

    fn memo_get(&self, r: LineageRef) -> Option<f64> {
        match self.interner.own_index(r) {
            Some(i) => self.memo.get(i).copied().filter(|p| !p.is_nan()),
            None => self.sealed_memo.get(&r).copied(),
        }
    }

    fn memo_insert(&mut self, r: LineageRef, p: f64) {
        let Some(i) = self.interner.own_index(r) else {
            self.sealed_memo.insert(r, p);
            return;
        };
        if self.memo.len() <= i {
            let own = self.interner.own_span();
            self.memo.resize(own.max(i + 1), f64::NAN);
        }
        self.memo[i] = p;
    }

    /// The registered probability of `var`, which must have one.
    fn marginal_of(&self, var: VarId) -> f64 {
        match self.probs.get(&var) {
            Some(&p) => p,
            None => self.marginals[&var],
        }
    }

    /// The marginal of the variable at `Var` node `r`: a sealed node's from
    /// its segment's dense table unless the engine overrides it, an own
    /// node's through the memo — the shared map is hashed once per variable
    /// node per memo lifetime.
    fn marginal(&mut self, r: LineageRef, var: VarId) -> f64 {
        if self.interner.own_index(r).is_none() {
            if !self.probs.is_empty() {
                if let Some(&p) = self.probs.get(&var) {
                    return p;
                }
            }
            let (segment, i) = self.interner.stack().locate(r);
            let p = segment.dense[i];
            return if p.is_nan() { self.marginal_of(var) } else { p };
        }
        if let Some(p) = self.memo_get(r) {
            return p;
        }
        let p = self.marginal_of(var);
        self.memo_insert(r, p);
        p
    }

    /// Probability of the node `r`: a constant, variable or negation
    /// directly; an `And`/`Or` from the memo, else as a read-once product
    /// ([`prob_read_once`](Self::prob_read_once)), else by components, unit
    /// propagation and Shannon expansion ([`prob_nary`](Self::prob_nary)),
    /// and memoized.
    fn prob_rec(&mut self, r: LineageRef) -> f64 {
        let (segment, i) = self.interner.locate(r);
        let is_and = match &segment.nodes[i] {
            InternedNode::True => return 1.0,
            InternedNode::False => return 0.0,
            InternedNode::Var(v) => {
                // A catalog segment's marginal, when the engine overrides
                // none.
                match segment.dense.get(i) {
                    Some(&p) if !p.is_nan() && self.probs.is_empty() => return p,
                    _ => {}
                }
                let v = *v;
                return self.marginal(r, v);
            }
            InternedNode::Not(c) => {
                let c = *c;
                return 1.0 - self.prob_rec(c);
            }
            InternedNode::And(_) => true,
            InternedNode::Or(_) => false,
        };
        if let Some(p) = self.memo_get(r) {
            return p;
        }
        let p = if self.interner.is_read_once(r) {
            self.prob_read_once(r, is_and)
        } else {
            self.prob_nary(r, is_and)
        };
        self.memo_insert(r, p);
        p
    }

    /// Probability of a read-once conjunction (`is_and`) or disjunction:
    /// the children share no variable, so it is the product over them — in
    /// child order, the order [`prob_nary`](Self::prob_nary)'s singleton
    /// groups multiply in, which keeps the result bit-identical to the
    /// decomposition path.
    fn prob_read_once(&mut self, r: LineageRef, is_and: bool) -> f64 {
        let acc = self.fold_operands(1.0, r, is_and);
        if is_and {
            acc
        } else {
            1.0 - acc
        }
    }

    /// Probability of the conjunction (`is_and`) or disjunction `r`, whose
    /// children may share variables: the children are grouped into
    /// connected components over shared variables, which are mutually
    /// independent and combine as in [`prob_read_once`](Self::prob_read_once),
    /// in order of first member. A one-member group is its child's
    /// probability, with no conditioning walk; a larger one is priced by
    /// unit propagation or Shannon expansion ([`prob_group`](Self::prob_group)).
    fn prob_nary(&mut self, r: LineageRef, is_and: bool) -> f64 {
        // The groups stay on the scratch stack while their members recurse.
        let base = self.scratch.groups.len();
        self.connected_components(r);
        let end = self.scratch.groups.len();
        let mut acc = 1.0;
        let mut start = base;
        while start < end {
            let first = self.scratch.groups[start].0;
            let stop = (start..end)
                .find(|&k| self.scratch.groups[k].0 != first)
                .unwrap_or(end);
            let p_group = if stop == start + 1 {
                let child = self.member(r, start);
                self.prob_rec(child)
            } else {
                self.prob_group(r, start..stop, is_and)
            };
            if is_and {
                acc *= p_group;
            } else {
                acc *= 1.0 - p_group;
            }
            start = stop;
        }
        self.scratch.groups.truncate(base);
        if is_and {
            acc
        } else {
            1.0 - acc
        }
    }

    /// The child of `r` that `scratch.groups[k]` names.
    fn member(&self, r: LineageRef, k: usize) -> LineageRef {
        self.interner.children(r)[self.scratch.groups[k].1]
    }

    /// The variable of a literal `x` or `¬x` and whether it is positive.
    fn literal(&self, r: LineageRef) -> Option<(VarId, bool)> {
        match *self.interner.node(r) {
            InternedNode::Var(v) => Some((v, true)),
            // The interner keeps no `¬¬`: `c` is not a negation.
            InternedNode::Not(c) => self.literal(c).map(|(v, _)| (v, false)),
            _ => None,
        }
    }

    /// Probability of one component `scratch.groups[members]` of `r`'s
    /// children: children that share variables, joined by `And`
    /// (`is_and`) or `Or`. *Unit propagation* comes first: if a member is
    /// a literal `ℓ`, an `And` fixes it true and an `Or` fixes it false,
    /// the other members are conditioned on that value, and the group is
    /// `P(ℓ) · P(rest | ℓ)`, or `1 − (1 − P(ℓ)) · (1 − P(rest | ¬ℓ))` under
    /// `Or` — Shannon's identity on `ℓ`'s variable with one cofactor known.
    /// The rest goes back through [`prob_rec`](Self::prob_rec), so
    /// propagation repeats while a literal is shared. A group with no
    /// literal member is expanded by [`shannon`](Self::shannon).
    fn prob_group(&mut self, r: LineageRef, members: Range<usize>, is_and: bool) -> f64 {
        let unit = members
            .clone()
            .find_map(|k| Some((k, self.literal(self.member(r, k))?)));
        let mut rest = mem::take(&mut self.scratch.refs);
        for k in members.filter(|&k| unit.is_none_or(|(u, _)| u != k)) {
            let mut child = self.member(r, k);
            if let Some((_, (var, positive))) = unit {
                child = self.interner.condition(child, var, positive == is_and);
            }
            rest.push(child);
        }
        let joint = self.interner.nary(is_and, &rest);
        rest.clear();
        self.scratch.refs = rest;
        let Some((u, _)) = unit else {
            return self.shannon(joint);
        };
        let p_unit = self.prob_rec(self.member(r, u));
        let p_rest = self.prob_rec(joint);
        if is_and {
            p_unit * p_rest
        } else {
            1.0 - (1.0 - p_unit) * (1.0 - p_rest)
        }
    }

    /// Appends the children of `r` to `scratch.groups`, grouped into
    /// connected components over shared variables, as `(first member,
    /// member)` pairs sorted so that each group is a run, groups come in
    /// order of their first member and members ascend within a group.
    fn connected_components(&mut self, r: LineageRef) {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let n = self.interner.children(r).len();
        let Scratch {
            owner,
            parent,
            groups,
            ..
        } = &mut self.scratch;
        owner.clear();
        parent.clear();
        parent.extend(0..n);
        // Union children that share at least one variable. We link via a map
        // from variable to the first child using it, so the cost is
        // O(total vars · α(n)) instead of O(n²) pairwise comparisons. The
        // smaller index becomes the root: a group's root is its first member.
        for i in 0..n {
            let child = self.interner.children(r)[i];
            self.interner.for_each_var(child, |v| match owner.entry(v) {
                Entry::Occupied(first) => {
                    let (a, b) = (find(parent, i), find(parent, *first.get()));
                    parent[a.max(b)] = a.min(b);
                }
                Entry::Vacant(free) => {
                    free.insert(i);
                }
            });
        }
        let base = groups.len();
        groups.extend((0..n).map(|i| (find(parent, i), i)));
        groups[base..].sort_unstable();
    }

    /// The variable occurring in the largest number of sub-formulas (a
    /// standard branching heuristic for Shannon expansion). Occurrences are
    /// counted with multiplicity — each appearance in the formula counts,
    /// exactly as the legacy tree walk did; ties go to the smallest id.
    fn most_frequent_var(&mut self, r: LineageRef) -> Option<VarId> {
        let Scratch { counts, stack, .. } = &mut self.scratch;
        counts.clear();
        stack.push(r);
        while let Some(cur) = stack.pop() {
            match self.interner.node(cur) {
                InternedNode::True | InternedNode::False => {}
                InternedNode::Var(v) => *counts.entry(*v).or_insert(0) += 1,
                InternedNode::Not(c) => stack.push(*c),
                InternedNode::And(cs) | InternedNode::Or(cs) => stack.extend_from_slice(cs),
            }
        }
        counts
            .iter()
            .max_by_key(|&(&v, &c)| (c, Reverse(v)))
            .map(|(&v, _)| v)
    }

    /// Shannon expansion on the most frequent variable.
    fn shannon(&mut self, r: LineageRef) -> f64 {
        match self.interner.node(r) {
            InternedNode::True => return 1.0,
            InternedNode::False => return 0.0,
            InternedNode::Var(v) => {
                let v = *v;
                return self.marginal(r, v);
            }
            InternedNode::Not(c) => {
                let c = *c;
                return 1.0 - self.shannon(c);
            }
            _ => {}
        }
        if let Some(p) = self.memo_get(r) {
            return p;
        }
        #[expect(
            clippy::expect_used,
            reason = "the interner folds constants away, so a compound node mentions a variable"
        )]
        let var = self
            .most_frequent_var(r)
            .expect("compound formula must mention a variable");
        self.expansions += 1;
        let p_var = self.marginal_of(var);
        // After conditioning, a cofactor frequently decomposes again.
        let pos = self.interner.condition(r, var, true);
        let neg = self.interner.condition(r, var, false);
        let p = p_var * self.prob_rec(pos) + (1.0 - p_var) * self.prob_rec(neg);
        self.memo_insert(r, p);
        p
    }

    /// Exact probability by enumerating all assignments of the formula's
    /// variables. Exponential; intended only for tests and documentation.
    pub fn probability_by_enumeration(&self, lineage: &Lineage) -> Result<f64, ProbabilityError> {
        let vars: Vec<VarId> = lineage.vars().into_iter().collect();
        for v in &vars {
            if self.get(*v).is_none() {
                return Err(ProbabilityError::MissingVariable(*v));
            }
        }
        assert!(
            vars.len() <= 24,
            "enumeration is only meant for small formulas"
        );
        let mut total = 0.0;
        for mask in 0u64..(1u64 << vars.len()) {
            let assignment = |v: VarId| {
                vars.iter()
                    .position(|x| *x == v)
                    .map(|i| mask & (1 << i) != 0)
                    .unwrap_or(false)
            };
            if lineage.evaluate(assignment) {
                let mut w = 1.0;
                for (i, v) in vars.iter().enumerate() {
                    let p = self.marginal_of(*v);
                    w *= if mask & (1 << i) != 0 { p } else { 1.0 - p };
                }
                total += w;
            }
        }
        Ok(total)
    }

    #[cfg(test)]
    fn memo_entries(&self) -> usize {
        self.memo.iter().filter(|p| !p.is_nan()).count()
    }
}

#[cfg(test)]
// Tests assert bit-exact values on purpose (reproducibility contract).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    fn engine(ps: &[f64]) -> ProbabilityEngine {
        let mut e = ProbabilityEngine::new();
        for (i, &p) in ps.iter().enumerate() {
            e.set(VarId(i as u32), p);
        }
        e
    }

    #[test]
    fn constants_and_vars() {
        let mut e = engine(&[0.3]);
        assert_eq!(e.probability(&Lineage::tru()), 1.0);
        assert_eq!(e.probability(&Lineage::fls()), 0.0);
        assert!((e.probability(&v(0)) - 0.3).abs() < 1e-12);
        assert!((e.probability(&Lineage::not(v(0))) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn independent_and_or() {
        let mut e = engine(&[0.5, 0.4]);
        let and = Lineage::and2(v(0), v(1));
        let or = Lineage::or2(v(0), v(1));
        assert!((e.probability(&and) - 0.2).abs() < 1e-12);
        assert!((e.probability(&or) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn paper_running_example_probabilities() {
        // a1 = 0.7, b2 = 0.6, b3 = 0.7 (Fig. 1a)
        let mut syms = crate::SymbolTable::new();
        let a1 = syms.intern("a1");
        let b2 = syms.intern("b2");
        let b3 = syms.intern("b3");
        let mut e = ProbabilityEngine::new();
        e.set(a1, 0.7);
        e.set(b2, 0.6);
        e.set(b3, 0.7);

        // ('Ann, ZAK, hotel1', a1 ∧ b3) = 0.49
        let t1 = Lineage::and_concat(&Lineage::var(a1), &Lineage::var(b3));
        assert!((e.probability(&t1) - 0.49).abs() < 1e-12);
        // ('Ann, ZAK, hotel2', a1 ∧ b2) = 0.42
        let t2 = Lineage::and_concat(&Lineage::var(a1), &Lineage::var(b2));
        assert!((e.probability(&t2) - 0.42).abs() < 1e-12);
        // (a1 ∧ ¬b3) = 0.7 * 0.3 = 0.21
        let t3 = Lineage::and_not_concat(&Lineage::var(a1), &Lineage::var(b3));
        assert!((e.probability(&t3) - 0.21).abs() < 1e-12);
        // (a1 ∧ ¬(b3 ∨ b2)) = 0.7 * 0.3 * 0.4 = 0.084
        let t4 = Lineage::and_not_concat(
            &Lineage::var(a1),
            &Lineage::or(vec![Lineage::var(b3), Lineage::var(b2)]),
        );
        assert!((e.probability(&t4) - 0.084).abs() < 1e-12);
        // (a1 ∧ ¬b2) = 0.7 * 0.4 = 0.28
        let t5 = Lineage::and_not_concat(&Lineage::var(a1), &Lineage::var(b2));
        assert!((e.probability(&t5) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn correlated_formula_requires_expansion() {
        // (x0 ∧ x1) ∨ (x0 ∧ x2): components share x0.
        let mut e = engine(&[0.5, 0.5, 0.5]);
        let f = Lineage::or2(Lineage::and2(v(0), v(1)), Lineage::and2(v(0), v(2)));
        let p = e.probability(&f);
        // exact: P(x0) * P(x1 ∨ x2) = 0.5 * 0.75 = 0.375
        assert!((p - 0.375).abs() < 1e-12);
        assert_eq!(
            e.expansions(),
            1,
            "one expansion on x0 leaves two read-once cofactors"
        );

        // (a ∨ b) ∧ (a ∨ c): both children are read-once, the node is not —
        // the flag must keep it off the product path. The counts and bits
        // are the ones the engine produced before read-once pricing.
        let mut e = engine(&[0.3, 0.6, 0.2]);
        let g = Lineage::and2(Lineage::or2(v(0), v(1)), Lineage::or2(v(0), v(2)));
        let r = e.intern(&g);
        assert!(!e.interner().is_read_once(r));
        let p = e.probability_ref(r);
        assert_eq!(p.to_bits(), 0x3fd8_9374_bc6a_7efa);
        assert!((p - e.probability_by_enumeration(&g).unwrap()).abs() < 1e-12);
        assert_eq!(e.expansions(), 1);
        // … and a read-once-looking wrapper over a correlated child is not
        // read-once either: x0 occurs under both conjuncts. The literal x0
        // is propagated: conditioned on x0, g is `true`, so no expansion.
        let wrapped = Lineage::and2(g, v(0));
        assert_eq!(e.probability(&wrapped).to_bits(), 0x3fd3_3333_3333_3333);
        assert_eq!(e.expansions(), 1);

        // Mixed: two children share x0, the third is independent of both.
        let mut e = engine(&[0.3, 0.6, 0.2, 0.8, 0.5]);
        let h = Lineage::or(vec![
            Lineage::and2(v(0), v(1)),
            Lineage::and2(v(2), Lineage::not(v(3))),
            Lineage::and2(v(0), v(4)),
        ]);
        assert_eq!(e.probability(&h).to_bits(), 0x3fd1_4e3b_cd35_a858);
        assert_eq!(e.expansions(), 1);
    }

    #[test]
    fn decomposition_avoids_expansion_for_disjoint_children() {
        let mut e = engine(&[0.5, 0.5, 0.5, 0.5]);
        let f = Lineage::or2(Lineage::and2(v(0), v(1)), Lineage::and2(v(2), v(3)));
        let r = e.intern(&f);
        assert!(e.interner().is_read_once(r));
        let p = e.probability_ref(r);
        assert!((p - (1.0 - 0.75 * 0.75)).abs() < 1e-12);
        assert_eq!(e.expansions(), 0);
        // The paper's negating-window shape, λr ∧ ¬(s₁ ∨ s₂ ∨ s₃).
        let neg = Lineage::and_not_concat(&v(0), &Lineage::or(vec![v(1), v(2), v(3)]));
        let r = e.intern(&neg);
        assert!(e.interner().is_read_once(r));
        assert_eq!(e.probability_ref(r), 0.5 * (0.5 * 0.5 * 0.5));
        assert_eq!(e.expansions(), 0);
    }

    #[test]
    fn sparse_variable_ids_keep_side_tables_arena_sized() {
        // Variable ids are sparse (the generators' start at 10⁸): every
        // table is indexed by node id, so two far-apart ids cost two slots.
        let (a, b) = (VarId(4_000_000_000), VarId(7));
        let mut e = ProbabilityEngine::new();
        e.set(a, 0.5);
        e.set(b, 0.25);
        let f = Lineage::and_not_concat(&Lineage::var(a), &Lineage::var(b));
        assert_eq!(e.probability(&f), 0.5 * 0.75);
        let arena = e.interner().len();
        assert_eq!(arena, 6, "⊤, ⊥, a, b, ¬b, a ∧ ¬b");
        assert!(e.memo.len() <= arena && e.verified.len() <= arena);
        assert_eq!(e.verify_arena(), Ok(()));
    }

    #[test]
    fn missing_variable_is_reported() {
        let mut e = engine(&[0.5]);
        let f = e.intern(&Lineage::and2(v(0), v(7)));
        let err = e.try_probability_ref(f).unwrap_err();
        assert_eq!(err, ProbabilityError::MissingVariable(VarId(7)));
        // Registering the variable afterwards must un-stick the verdict.
        e.set(VarId(7), 0.5);
        assert_eq!(e.try_probability_ref(f), Ok(0.25));
        assert_eq!(e.verify_arena(), Ok(()));
    }

    #[test]
    fn smallest_missing_variable_is_reported() {
        let mut e = engine(&[0.5]);
        let f = e.intern(&Lineage::and(vec![v(0), v(9), v(3), v(6)]));
        let err = e.try_probability_ref(f).unwrap_err();
        assert_eq!(err, ProbabilityError::MissingVariable(VarId(3)));
    }

    /// Does `f` panic?
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        let mut e = ProbabilityEngine::new();
        for p in [1.5, -0.1, f64::NAN] {
            assert!(panics(|| e.set(VarId(0), p)), "{p}");
        }
        assert_eq!(e.get(VarId(0)), None);
        e.set(VarId(0), 1.0);
        assert_eq!(e.get(VarId(0)), Some(1.0));
    }

    #[test]
    fn enumeration_reference_small_formula() {
        let f = Lineage::and_not_concat(&v(0), &Lineage::or2(v(1), v(2)));
        let e = engine(&[0.7, 0.6, 0.7]);
        let p = e.probability_by_enumeration(&f).unwrap();
        assert!((p - 0.7 * 0.4 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn memo_is_invalidated_when_probabilities_change() {
        let mut e = engine(&[0.5, 0.5]);
        let f = Lineage::and2(v(0), v(1));
        assert!((e.probability(&f) - 0.25).abs() < 1e-12);
        e.set(VarId(0), 1.0);
        assert!((e.probability(&f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unchanged_registration_preserves_the_memo() {
        let mut e = engine(&[0.5, 0.5]);
        let f = Lineage::and2(v(0), v(1));
        assert!((e.probability(&f) - 0.25).abs() < 1e-12);
        assert!(e.memo_entries() > 0);
        // re-registering identical values must keep memoized results
        e.set(VarId(0), 0.5);
        e.set_all([(VarId(0), 0.5), (VarId(1), 0.5)]);
        assert!(e.memo_entries() > 0);
        // a real change through either path invalidates
        e.set_all([(VarId(0), 1.0), (VarId(1), 0.5)]);
        assert_eq!(e.memo_entries(), 0);
        assert!((e.probability(&f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_all_validates_before_mutating() {
        let mut e = engine(&[0.5]);
        assert!(panics(|| e.set_all([(VarId(1), 0.4), (VarId(2), 1.5)])));
        assert_eq!(e.get(VarId(1)), None, "failed batch must not apply");
        assert_eq!(e.get(VarId(0)), Some(0.5));
    }

    #[test]
    fn probability_ref_matches_tree_probability() {
        let f = Lineage::or(vec![
            Lineage::and2(v(0), v(1)),
            Lineage::and2(v(0), Lineage::not(v(2))),
            v(3),
        ]);
        let mut by_tree = engine(&[0.3, 0.6, 0.2, 0.8]);
        let mut by_ref = engine(&[0.3, 0.6, 0.2, 0.8]);
        let r = by_ref.intern(&f);
        assert_eq!(by_tree.probability(&f), by_ref.probability_ref(r));
        assert_eq!(by_ref.to_lineage(r), f);
    }

    #[test]
    fn cloned_engines_share_probabilities_until_write() {
        let mut base = engine(&[0.5, 0.4]);
        let mut fork = base.clone();
        fork.set(VarId(0), 0.9);
        assert_eq!(base.get(VarId(0)), Some(0.5), "clone must copy on write");
        assert_eq!(fork.get(VarId(0)), Some(0.9));
        assert!((base.probability(&Lineage::and2(v(0), v(1))) - 0.2).abs() < 1e-12);
    }

    fn arb_lineage() -> impl Strategy<Value = Lineage> {
        let leaf = (0u32..5).prop_map(|i| Lineage::var(VarId(i)));
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(Lineage::not),
                proptest::collection::vec(inner.clone(), 2..4).prop_map(Lineage::and),
                proptest::collection::vec(inner, 2..4).prop_map(Lineage::or),
            ]
        })
    }

    /// Brute force: does no variable occur twice in the tree expansion?
    fn occurs_once(f: &Lineage, seen: &mut Vec<VarId>) -> bool {
        match f.node() {
            crate::LineageNode::True | crate::LineageNode::False => true,
            crate::LineageNode::Var(v) => {
                let fresh = !seen.contains(v);
                seen.push(*v);
                fresh
            }
            crate::LineageNode::Not(c) => occurs_once(c, seen),
            crate::LineageNode::And(cs) | crate::LineageNode::Or(cs) => {
                cs.iter().all(|c| occurs_once(c, seen))
            }
        }
    }

    const CONCATS: [Concat; 3] = [Concat::And, Concat::AndNot, Concat::Or];

    /// The arena path the boundary concatenation replaces: intern the
    /// concatenation as a node, then price and convert the node.
    fn concat_through_the_arena(
        e: &mut ProbabilityEngine,
        how: Concat,
        lr: LineageRef,
        ls: LineageRef,
    ) -> Result<(Lineage, f64), ProbabilityError> {
        let root = match how {
            Concat::And => e.interner_mut().and2(lr, ls),
            Concat::AndNot => e.interner_mut().and_not(lr, ls),
            Concat::Or => e.interner_mut().or2(lr, ls),
        };
        let p = e.try_probability_ref(root)?;
        Ok((e.to_lineage(root), p))
    }

    /// An output pair with its lineage built, for comparison with a tree.
    fn tree_bits(
        output: Result<(LazyLineage, f64), ProbabilityError>,
    ) -> Result<(Lineage, u64), ProbabilityError> {
        output.map(|(lineage, p)| (lineage.get().clone(), p.to_bits()))
    }

    /// Forms `how(λr, λs)` the way output formation does: an error when the
    /// columns `[λr]` and `s` (`s` spanned) name an unregistered variable,
    /// at the boundary when the engine certifies them, else on the node
    /// path. `lambda_s` holds `λs`'s operands: the one
    /// root of `s`, or a span's roots of `s`, each `Or` flattened.
    fn form(
        e: &mut ProbabilityEngine,
        how: Concat,
        lr: LineageRef,
        s: &[LineageRef],
        lambda_s: &[LineageRef],
    ) -> Result<(LazyLineage, f64), ProbabilityError> {
        Ok(match e.certify_roots(&[lr], s, false, true)? {
            Some(proof) if !lambda_s.is_empty() => e.certified_concat(&proof, how, lr, lambda_s),
            _ => e.concat_output(how, lr, lambda_s),
        })
    }

    /// Asserts [`form`] on `boundary` equals the arena path on `arena` —
    /// tree, probability bits (or error) and expansion count — twice, so
    /// the second round runs on a warm memo.
    fn assert_boundary_equals_arena(
        boundary: &mut ProbabilityEngine,
        arena: &mut ProbabilityEngine,
        how: Concat,
        lr: &Lineage,
        ls: &Lineage,
    ) {
        for round in ["cold", "warm"] {
            let (br, bs) = (boundary.intern(lr), boundary.intern(ls));
            let (ar, as_) = (arena.intern(lr), arena.intern(ls));
            let got = form(boundary, how, br, &[bs], &[bs]);
            let want = concat_through_the_arena(arena, how, ar, as_);
            assert_eq!(
                tree_bits(got),
                want.map(|(tree, p)| (tree, p.to_bits())),
                "{how:?}({lr:?}, {ls:?}), {round} memo"
            );
            assert_eq!(
                boundary.expansions(),
                arena.expansions(),
                "{how:?}, {round} memo"
            );
            assert_eq!(boundary.verify_arena(), Ok(()));
        }
    }

    #[test]
    fn boundary_concatenation_collapses_like_the_interned_constructors() {
        let ps = [0.3, 0.6, 0.2, 0.8, 0.5];
        let r = v(0);
        let cases = [
            // operands that are themselves And/Or: flattening to > 2 operands
            (Lineage::and2(v(0), v(1)), Lineage::and2(v(2), v(3))),
            (
                Lineage::or2(v(0), v(1)),
                Lineage::or(vec![v(2), v(3), v(4)]),
            ),
            (Lineage::and2(v(0), v(1)), Lineage::and2(v(1), v(2))),
            // constants on either side
            (r.clone(), Lineage::tru()),
            (r.clone(), Lineage::fls()),
            (Lineage::tru(), r.clone()),
            (Lineage::fls(), r.clone()),
            (Lineage::tru(), Lineage::fls()),
            // λs = ¬λr and λr = λs
            (r.clone(), Lineage::not(r.clone())),
            (
                Lineage::or2(v(1), v(2)),
                Lineage::not(Lineage::or2(v(1), v(2))),
            ),
            (r.clone(), r.clone()),
            (Lineage::and2(v(1), v(2)), Lineage::and2(v(1), v(2))),
        ];
        for (lr, ls) in &cases {
            for how in CONCATS {
                let (mut boundary, mut arena) = (engine(&ps), engine(&ps));
                assert_boundary_equals_arena(&mut boundary, &mut arena, how, lr, ls);
            }
        }
    }

    #[test]
    fn boundary_concatenation_interns_only_what_it_cannot_price_as_a_product() {
        let mut e = engine(&[0.5, 0.5, 0.5, 0.5]);
        let lr = e.intern(&v(0));
        let ls = e.intern(&Lineage::or(vec![v(1), v(2), v(3)]));
        let proof = e.certify_roots(&[lr], &[ls], false, true).unwrap();
        let proof = proof.unwrap();
        let before = e.interner().len();
        // Certified: λr ∧ λs, λr ∧ ¬λs and λr ∨ λs add nothing.
        let (lineage, p) = e.certified_concat(&proof, Concat::And, lr, &[ls]);
        assert!(lineage.is_deferred());
        assert_eq!(
            lineage.get(),
            &Lineage::and2(v(0), Lineage::or(vec![v(1), v(2), v(3)]))
        );
        assert_eq!(p, 0.5 * (1.0 - 0.5 * 0.5 * 0.5));
        let _ = e.certified_concat(&proof, Concat::Or, lr, &[ls]);
        let (lineage, p) = e.certified_concat(&proof, Concat::AndNot, lr, &[ls]);
        assert!(lineage.is_deferred());
        assert_eq!(
            lineage.get(),
            &Lineage::and_not_concat(&v(0), &Lineage::or(vec![v(1), v(2), v(3)]))
        );
        assert_eq!(p, 0.5 * (0.5 * 0.5 * 0.5));
        assert_eq!(e.interner().len(), before);
        // The node path interns the root and ¬λs, and still prices the
        // read-once root as a product: the same bits, no expansion.
        let (lineage, node_p) = e.concat_output(Concat::AndNot, lr, &[ls]);
        assert!(!lineage.is_deferred());
        assert_eq!(node_p.to_bits(), p.to_bits());
        assert_eq!(e.interner().len(), before + 2, "¬λs and the root");
        assert_eq!(e.expansions(), 0);
        // Shared variables: no certificate, and the root is priced by
        // expansion.
        let shared = e.intern(&Lineage::or2(v(0), v(1)));
        let certificate = e.certify_roots(&[ls], &[shared], false, false);
        assert!(certificate.unwrap().is_none());
        let _ = e.concat_output(Concat::And, ls, &[shared]);
        assert_eq!(e.expansions(), 1);
        assert_eq!(e.verify_arena(), Ok(()));
    }

    #[test]
    fn boundary_concatenation_reports_the_smallest_missing_variable() {
        // x7 and x9 are unregistered on both engines; x9 is registered
        // afterwards, which must un-stick the verdict for the other pairs.
        for how in CONCATS {
            let (mut boundary, mut arena) = (engine(&[0.5, 0.25]), engine(&[0.5, 0.25]));
            let (lr, ls) = (Lineage::and2(v(0), v(9)), Lineage::or2(v(7), v(1)));
            assert_boundary_equals_arena(&mut boundary, &mut arena, how, &lr, &ls);
            let (br, bs) = (boundary.intern(&lr), boundary.intern(&ls));
            let missing = |e: &mut ProbabilityEngine| {
                e.certify_roots(&[br], &[bs], false, false)
                    .map(|proof| proof.is_some())
            };
            assert_eq!(
                missing(&mut boundary),
                Err(ProbabilityError::MissingVariable(VarId(7)))
            );
            boundary.set(VarId(7), 0.5);
            arena.set(VarId(7), 0.5);
            assert_eq!(
                missing(&mut boundary),
                Err(ProbabilityError::MissingVariable(VarId(9)))
            );
            boundary.set(VarId(9), 0.5);
            arena.set(VarId(9), 0.5);
            assert_boundary_equals_arena(&mut boundary, &mut arena, how, &lr, &ls);
        }
    }

    /// The operands output formation reads for a span over the roots of
    /// `ls`, interned into `e`: each root flattened by one `Or` level, in
    /// span order.
    fn disjuncts(e: &mut ProbabilityEngine, ls: &[Lineage]) -> Vec<LineageRef> {
        let mut operands = Vec::new();
        for l in ls {
            let root = e.intern(l);
            match e.interner().node(root) {
                InternedNode::Or(disjuncts) => operands.extend_from_slice(disjuncts),
                _ => operands.push(root),
            }
        }
        operands
    }

    #[test]
    fn read_once_disjunction_concatenation_interns_nothing() {
        let mut e = engine(&[0.7, 0.6, 0.7, 0.5]);
        let lr = e.intern(&Lineage::and2(v(0), v(3)));
        let s = column(&mut e, &[2, 1]);
        let proof = e.certify_roots(&[lr], &s, false, true).unwrap();
        let proof = proof.unwrap();
        let ops = disjuncts(&mut e, &[v(2), v(1)]);
        let before = e.interner().len();
        let (lineage, p) = e.certified_concat(&proof, Concat::AndNot, lr, &ops);
        assert!(lineage.is_deferred());
        assert_eq!(
            lineage.get(),
            &Lineage::and_not_concat(&Lineage::and2(v(0), v(3)), &Lineage::or2(v(2), v(1)))
        );
        assert_eq!(p, 0.7 * 0.5 * (1.0 - (1.0 - (1.0 - 0.7) * (1.0 - 0.6))));
        let _ = e.certified_concat(&proof, Concat::Or, lr, &ops);
        assert_eq!(e.interner().len(), before, "no Or, no Not, no root");
        // A span that shares a variable with λr is not certified; the node
        // path interns its disjunction, negation and root.
        let shared = column(&mut e, &[3, 1]);
        let certificate = e.certify_roots(&[lr], &shared, false, true);
        assert!(certificate.unwrap().is_none());
        let _ = e.concat_output(Concat::AndNot, lr, &shared);
        assert!(e.interner().len() > before + 2);
        assert_eq!(e.verify_arena(), Ok(()));
    }

    /// Interns `vars` as a column of base lineages.
    fn column(e: &mut ProbabilityEngine, vars: &[u32]) -> Vec<LineageRef> {
        let column: Vec<LazyLineage> = vars.iter().map(|&i| v(i).into()).collect();
        e.interner_mut().intern_column(column.iter())
    }

    #[test]
    fn columns_are_certified_only_when_every_root_is_read_once() {
        let mut e = engine(&[0.5, 0.4, 0.3, 0.2, 0.1]);
        // The verdict on registered columns: certified or not.
        let certified = |e: &mut ProbabilityEngine, r: &[LineageRef], s: &[LineageRef], spans| {
            let (r_spanned, s_spanned) = spans;
            e.certify_roots(r, s, r_spanned, s_spanned)
                .unwrap()
                .is_some()
        };
        let (r, s) = (column(&mut e, &[0, 1]), column(&mut e, &[2, 3]));
        assert!(certified(&mut e, &r, &s, (true, true)));
        assert!(certified(&mut e, &r, &[], (true, true)), "an empty side");
        // Read-once compound roots are certified. Two of them may share a
        // variable unless a span draws from their column.
        let derived = [
            e.intern(&Lineage::and2(v(0), v(1))),
            e.intern(&Lineage::or2(v(0), Lineage::not(v(4)))),
        ];
        assert!(certified(&mut e, &derived, &s, (false, true)));
        assert!(!certified(&mut e, &derived, &s, (true, true)));
        assert!(!certified(&mut e, &s, &derived, (false, true)));
        let twice = [s[0], s[0]];
        assert!(certified(&mut e, &r, &twice, (false, false)));
        assert!(!certified(&mut e, &r, &twice, (false, true)));
        // A shared variable, a correlated root, a negation and a constant
        // are not.
        let shared = column(&mut e, &[3, 1]);
        assert!(!certified(&mut e, &r, &shared, (false, false)));
        let correlated = e.intern(&Lineage::and2(v(2), Lineage::or2(v(2), v(3))));
        assert!(!certified(&mut e, &r, &[correlated], (false, false)));
        let negation = e.intern(&Lineage::not(v(2)));
        assert!(!certified(&mut e, &r, &[negation], (false, false)));
        let tru = e.interner().tru();
        assert!(!certified(&mut e, &[tru], &s, (false, false)));
        // An unregistered variable fails the statement whatever else its
        // columns hold, naming the smallest one under any root.
        let verdict = |e: &mut ProbabilityEngine, r: &[LineageRef], s: &[LineageRef]| {
            e.certify_roots(r, s, false, false)
                .map(|proof| proof.is_some())
        };
        let missing = |v| Err(ProbabilityError::MissingVariable(VarId(v)));
        let unregistered = column(&mut e, &[9]);
        assert_eq!(verdict(&mut e, &r, &unregistered), missing(9));
        let compound = e.intern(&Lineage::and2(v(2), v(9)));
        assert_eq!(verdict(&mut e, &r, &[compound]), missing(9));
        let negated = e.intern(&Lineage::or2(Lineage::not(v(8)), v(1)));
        let mixed = [correlated, compound, negation, negated];
        assert_eq!(verdict(&mut e, &mixed, &unregistered), missing(8));
        assert_eq!(e.verify_arena(), Ok(()));
    }

    #[test]
    fn unit_propagation_prices_the_except_chain_rows_without_expansion() {
        // The rows of `(r ∪ s) − r`: x = x_r, y = x_s.
        let (px, py) = (0.3, 0.6);
        let mut e = engine(&[px, py]);
        let contradiction = Lineage::and_not_concat(&v(0), &v(0));
        assert_eq!(e.probability(&contradiction).to_bits(), 0.0f64.to_bits());
        let absorbed = Lineage::and_not_concat(&v(0), &Lineage::or2(v(0), v(1)));
        assert_eq!(e.probability(&absorbed).to_bits(), 0.0f64.to_bits());
        let survivor = Lineage::and_not_concat(&Lineage::or2(v(0), v(1)), &v(0));
        assert_eq!(
            e.probability(&survivor).to_bits(),
            (py * (1.0 - px)).to_bits(),
            "the bits Shannon expansion on x gave"
        );
        // The disjunctive shapes fix the literal false instead.
        let tautology = Lineage::or2(v(0), Lineage::not(v(0)));
        assert_eq!(e.probability(&tautology), 1.0);
        let or_shape = Lineage::or2(Lineage::and2(v(0), v(1)), Lineage::not(v(0)));
        assert!((e.probability(&or_shape) - (1.0 - px * (1.0 - py))).abs() < 1e-15);
        assert_eq!(e.expansions(), 0);
        // What propagation cannot resolve is still expanded.
        let g = Lineage::and2(Lineage::or2(v(0), v(1)), Lineage::or2(v(0), v(2)));
        let mut e = engine(&[0.3, 0.6, 0.2]);
        let _ = e.probability(&g);
        assert_eq!(e.expansions(), 1);
        assert_eq!(e.verify_arena(), Ok(()));
    }

    /// A formula over eight variables whose `And`/`Or` nodes carry literal
    /// siblings: `ℓ ∧ φ`, `ℓ ∨ φ`, literals under `Not` and a literal next
    /// to its own negation, `φ` drawn over the same variables.
    fn arb_literal_lineage() -> impl Strategy<Value = Lineage> {
        let literal =
            (0u32..8, any::<bool>()).prop_map(
                |(i, positive)| {
                    if positive {
                        v(i)
                    } else {
                        Lineage::not(v(i))
                    }
                },
            );
        literal.clone().prop_recursive(4, 32, 3, move |inner| {
            let lit = literal.clone();
            prop_oneof![
                inner.clone().prop_map(Lineage::not),
                (lit.clone(), inner.clone()).prop_map(|(l, f)| Lineage::and2(l, f)),
                (lit.clone(), inner.clone()).prop_map(|(l, f)| Lineage::or2(l, f)),
                (lit.clone(), inner.clone()).prop_map(|(l, f)| Lineage::not(Lineage::and2(l, f))),
                (0u32..8, inner.clone())
                    .prop_map(|(i, f)| { Lineage::and(vec![v(i), f, Lineage::not(v(i))]) }),
                (lit, proptest::collection::vec(inner, 1..3)).prop_map(|(l, mut fs)| {
                    fs.push(l);
                    Lineage::or(fs)
                }),
            ]
        })
    }

    proptest! {
        /// Unit propagation is exact: every shape it takes prices to the
        /// enumeration over all assignments.
        #[test]
        fn prop_unit_propagation_matches_enumeration(
            f in arb_literal_lineage(),
            ps in proptest::collection::vec(0.0f64..=1.0, 8),
        ) {
            let mut e = engine(&ps);
            let r = e.intern(&f);
            let exact = e.probability_by_enumeration(&f).unwrap();
            let computed = e.probability_ref(r);
            prop_assert!((exact - computed).abs() <= 1e-12, "exact {exact} vs computed {computed} for {f:?}");
            prop_assert_eq!(e.verify_arena(), Ok(()));
        }

        /// Certified pricing is the node path, bit for bit and tree for
        /// tree, for every concatenation of a root with one node or a span
        /// of distinct roots of the other column — and interns nothing.
        #[test]
        fn prop_certified_concat_equals_the_arena_path(
            ps in proptest::collection::vec(0.0f64..=1.0, 8),
            lr in 0u32..3,
            draws in proptest::collection::vec(3u32..8, 1..6),
        ) {
            // A span's roots: distinct s tuples, in activation order.
            let mut ls: Vec<u32> = Vec::new();
            for i in draws {
                if !ls.contains(&i) {
                    ls.push(i);
                }
            }
            let (mut certified, mut arena) = (engine(&ps), engine(&ps));
            let (r, s) = (column(&mut certified, &[0, 1, 2]), column(&mut certified, &[3, 4, 5, 6, 7]));
            let proof = certified.certify_roots(&r, &s, true, true).unwrap().expect("distinct registered vars");
            let nodes = certified.interner().len();
            let lambda_s: Vec<LineageRef> = ls.iter().map(|&i| s[i as usize - 3]).collect();
            let span = Lineage::or(ls.iter().map(|&i| v(i)).collect());
            for how in CONCATS {
                let got = certified.certified_concat(&proof, how, r[lr as usize], &lambda_s);
                let (ar, as_) = (arena.intern(&v(lr)), arena.intern(&span));
                let want = concat_through_the_arena(&mut arena, how, ar, as_);
                prop_assert_eq!(tree_bits(Ok(got)), want.map(|(t, p)| (t, p.to_bits())), "{:?}", how);
            }
            let (lineage, p) = certified.certified_output(&proof, r[lr as usize]);
            prop_assert_eq!((lineage.get(), p.to_bits()), (&v(lr), ps[lr as usize].to_bits()));
            prop_assert_eq!(certified.interner().len(), nodes);
            prop_assert_eq!(certified.expansions(), 0);
            prop_assert_eq!(certified.verify_arena(), Ok(()));
        }

        /// Output formation over an active set's operands equals interning
        /// the disjunction and taking the arena path — same tree,
        /// probability bits (or error) and expansion count, cold and warm
        /// memo — for every concatenation. Disjuncts over λr's five variables make correlated
        /// roots, fresh variables read-once ones that are certified (λr and
        /// the operands of compound roots included); zero and one operand
        /// are covered as well.
        #[test]
        fn prop_disjunction_concatenation_equals_the_arena_path(
            lr in arb_lineage(),
            ls in proptest::collection::vec(prop_oneof![arb_lineage(), (0u32..12).prop_map(v)], 0..5),
            ps in proptest::collection::vec(0.0f64..=1.0, 11),
        ) {
            // x11 is unregistered: some roots report it missing.
            let (mut boundary, mut arena) = (engine(&ps), engine(&ps));
            for how in CONCATS {
                for round in ["cold", "warm"] {
                    let (br, ops) = (boundary.intern(&lr), disjuncts(&mut boundary, &ls));
                    let s: Vec<LineageRef> = ls.iter().map(|l| boundary.intern(l)).collect();
                    let got = form(&mut boundary, how, br, &s, &ops);
                    let (ar, as_) = (arena.intern(&lr), arena.intern(&Lineage::or(ls.clone())));
                    let want = concat_through_the_arena(&mut arena, how, ar, as_);
                    let want = want.map(|(tree, p)| (tree, p.to_bits()));
                    prop_assert_eq!(tree_bits(got), want, "{:?}, {} memo", how, round);
                    prop_assert_eq!(boundary.expansions(), arena.expansions());
                    prop_assert_eq!(boundary.verify_arena(), Ok(()));
                }
            }
        }

        /// Output formation equals the arena path: same tree, same
        /// probability bits, same expansion count — cold and warm memo. Five
        /// variables make pairs that share variables (the node path) as
        /// common as certified read-once ones, whose compound roots and
        /// `¬¬x` the boundary must flatten as the node would.
        #[test]
        fn prop_boundary_concatenation_equals_the_arena_path(
            lr in arb_lineage(),
            ls in arb_lineage(),
            ps in proptest::collection::vec(0.0f64..=1.0, 5),
        ) {
            let (mut boundary, mut arena) = (engine(&ps), engine(&ps));
            // One engine pair across the three concatenations: later ones
            // meet a warm memo and the earlier ones' nodes.
            for how in CONCATS {
                assert_boundary_equals_arena(&mut boundary, &mut arena, how, &lr, &ls);
            }
        }

        #[test]
        fn prop_read_once_flag_matches_brute_force(f in arb_lineage()) {
            let mut e = ProbabilityEngine::new();
            let r = e.intern(&f);
            prop_assert_eq!(
                e.interner().is_read_once(r),
                occurs_once(&f, &mut Vec::new()),
                "read-once flag of {:?}", f
            );
            prop_assert_eq!(e.verify_arena(), Ok(()));
        }

        #[test]
        fn prop_pricing_is_exact_and_bit_stable(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            e.set_all(ps.iter().enumerate().map(|(i, &p)| (VarId(i as u32), p)));
            let r = e.intern(&f);
            // A clone taken before pricing carries the new tables cold.
            let mut fork = e.clone();
            let cold = e.probability_ref(r);
            let exact = e.probability_by_enumeration(&f).unwrap();
            prop_assert!((exact - cold).abs() < 1e-12, "exact {exact} vs computed {cold} for {f:?}");
            let warm = e.probability_ref(r);
            prop_assert_eq!(cold.to_bits(), warm.to_bits(), "cold vs warm memo");
            prop_assert_eq!(cold.to_bits(), fork.probability_ref(r).to_bits(), "cloned engine");
            // … and one taken after it carries them warm.
            prop_assert_eq!(cold.to_bits(), e.clone().probability_ref(r).to_bits(), "warm clone");
            prop_assert_eq!(e.verify_arena(), Ok(()));
            prop_assert_eq!(fork.verify_arena(), Ok(()));
        }

        #[test]
        fn prop_probability_matches_enumeration(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let exact = e.probability_by_enumeration(&f).unwrap();
            let computed = e.probability(&f);
            prop_assert!((exact - computed).abs() < 1e-9, "exact {exact} vs computed {computed} for {f:?}");
        }

        #[test]
        fn prop_probability_is_within_bounds(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let p = e.probability(&f);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p));
        }

        #[test]
        fn prop_complement_rule(f in arb_lineage(), ps in proptest::collection::vec(0.0f64..=1.0, 5)) {
            let mut e = ProbabilityEngine::new();
            for (i, &p) in ps.iter().enumerate() {
                e.set(VarId(i as u32), p);
            }
            let p = e.probability(&f);
            let not_p = e.probability(&Lineage::not(f));
            prop_assert!((p + not_p - 1.0).abs() < 1e-9);
        }
    }
}
