//! Incremental maintenance of a disjunction over a changing multiset.
//!
//! The LAWAN sweep emits one negating window per elementary interval, each
//! carrying `λs = ∨ {lineages of the currently active s tuples}`. Building
//! that disjunction from scratch at every boundary — flattening, constant
//! elimination and deduplication over the full active set — is what made
//! the sweep quadratic in the active-set size. An
//! [`IncrementalDisjunction`] maintains the flattened, deduplicated operand
//! list *across* boundaries instead, and emitting the current disjunction
//! only copies the live operands into an `Or` node (no re-flattening).
//!
//! # Representation
//!
//! Both this type and its id-keyed twin [`crate::InternedDisjunction`] (whose
//! caller copies the operands out instead of building an `Or`) are one
//! **ordered vector** of `(operand, reference count)` pairs in
//! first-activation order: a lineage contributed by several active tuples
//! is stored once and survives until its last contributor expires; an
//! expired operand is removed in place, keeping the order of the rest, so
//! the emitted operand order is the activation order of the live operands —
//! what the converted trees, and every downstream byte, depend on.
//!
//! Membership is a **linear search**, with no hash index beside the
//! vector. That is the right cost here, not a shortcut: the active set of a
//! sweep is the set of `s` tuples valid at one time point under one `r`
//! tuple — 6 operands on average on the meteo workload, 1 on webkit — so a
//! scan touches a cache line or two where a map would hash (whole trees, on
//! this side), probe, and keep a second structure in step on every
//! activation and expiry. Asymptotically it is no worse than what the sweep
//! already pays: every boundary that changes the set is followed by an
//! emission, which copies all `n` live operands, so an `O(n)` update never
//! dominates the `O(n)` emission next to it.

use crate::formula::{Lineage, LineageNode};
use crate::symbols::VarId;

/// Distinct operands in first-activation order with their reference
/// counts: the ordered vector behind [`IncrementalDisjunction`] and
/// [`crate::InternedDisjunction`] (see the module docs for why it is
/// searched linearly).
///
/// Each operand is stored beside a `Copy` key `K` that equal operands
/// share; the scan compares keys first and touches an operand only on a
/// key match. Ids are their own key (`K = ()`); a tree is keyed by the
/// [`VarId`] of a `Var` leaf — nearly every operand of a sweep — so the
/// scan reads the vector alone instead of dereferencing two `Arc`s per
/// comparison.
#[derive(Debug, Clone)]
pub(crate) struct Operands<T, K = ()>(Vec<(K, T, usize)>);

impl<T, K> Default for Operands<T, K> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T: Clone + PartialEq, K: Copy + PartialEq> Operands<T, K> {
    /// Counts one more contributor of `operand`, appending it if new.
    pub(crate) fn insert(&mut self, key: K, operand: &T) {
        match self.position(key, operand) {
            Some(pos) => self.0[pos].2 += 1,
            None => self.0.push((key, operand.clone(), 1)),
        }
    }

    /// Counts one contributor of `operand` less; its last contributor
    /// removes it, keeping the order of the rest.
    pub(crate) fn remove(&mut self, key: K, operand: &T) {
        let Some(pos) = self.position(key, operand) else {
            debug_assert!(false, "removing operand that was never inserted");
            return;
        };
        self.0[pos].2 -= 1;
        if self.0[pos].2 == 0 {
            self.0.remove(pos);
        }
    }

    fn position(&self, key: K, operand: &T) -> Option<usize> {
        self.0
            .iter()
            .position(|(k, o, _)| *k == key && o == operand)
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The live operands in first-activation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|(_, o, _)| o)
    }
}

/// A multiset of lineages with an incrementally maintained disjunction:
/// an ordered vector of reference-counted operands in first-activation
/// order, searched linearly — LAWAN's active sets average 6 operands on
/// the meteo workload and 1 on webkit, and every update is followed by an
/// emission that copies the whole set anyway, so there is no hash index to
/// build, probe or keep in step.
#[derive(Debug, Clone, Default)]
pub struct IncrementalDisjunction {
    /// Distinct non-constant operands, `Var` leaves keyed by their id.
    operands: Operands<Lineage, Option<VarId>>,
    /// How many inserted lineages were the constant `true` (each makes the
    /// whole disjunction `true`).
    true_count: usize,
}

impl IncrementalDisjunction {
    /// Creates an empty disjunction (`∨ ∅ = false`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `lineage` to the multiset. `Or` operands are flattened, constant
    /// `false` contributes nothing and constant `true` forces the
    /// disjunction to `true` until removed.
    pub fn insert(&mut self, lineage: &Lineage) {
        match lineage.node() {
            LineageNode::False => {}
            LineageNode::True => self.true_count += 1,
            LineageNode::Or(children) => {
                for c in children {
                    self.insert(c);
                }
            }
            LineageNode::Var(v) => self.operands.insert(Some(*v), lineage),
            _ => self.operands.insert(None, lineage),
        }
    }

    /// Removes one previously [`insert`](Self::insert)ed occurrence of
    /// `lineage`. Removing a lineage that was never inserted is a logic
    /// error (debug-asserted).
    pub fn remove(&mut self, lineage: &Lineage) {
        match lineage.node() {
            LineageNode::False => {}
            LineageNode::True => {
                debug_assert!(self.true_count > 0, "removing ⊤ that was never inserted");
                self.true_count = self.true_count.saturating_sub(1);
            }
            LineageNode::Or(children) => {
                for c in children {
                    self.remove(c);
                }
            }
            LineageNode::Var(v) => self.operands.remove(Some(*v), lineage),
            _ => self.operands.remove(None, lineage),
        }
    }

    /// Is the disjunction `false` (no live operand, no `true` contributor)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operands.is_empty() && self.true_count == 0
    }

    /// Number of distinct live operands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operands.len()
    }

    /// The current disjunction as a [`Lineage`].
    #[must_use]
    pub fn disjunction(&self) -> Lineage {
        if self.true_count > 0 {
            return Lineage::tru();
        }
        Lineage::or_flattened(self.operands.iter().cloned().collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn v(i: u32) -> Lineage {
        Lineage::var(VarId(i))
    }

    #[test]
    fn empty_is_false() {
        let d = IncrementalDisjunction::new();
        assert!(d.is_empty());
        assert!(d.disjunction().is_false());
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut d = IncrementalDisjunction::new();
        d.insert(&v(1));
        d.insert(&v(2));
        assert_eq!(d.disjunction(), Lineage::or(vec![v(1), v(2)]));
        d.remove(&v(1));
        assert_eq!(d.disjunction(), v(2));
        d.remove(&v(2));
        assert!(d.disjunction().is_false());
    }

    #[test]
    fn duplicates_are_reference_counted() {
        let mut d = IncrementalDisjunction::new();
        d.insert(&v(7));
        d.insert(&v(7));
        assert_eq!(d.len(), 1);
        assert_eq!(d.disjunction(), v(7));
        d.remove(&v(7));
        assert_eq!(d.disjunction(), v(7), "one contributor still active");
        d.remove(&v(7));
        assert!(d.disjunction().is_false());
    }

    #[test]
    fn or_operands_are_flattened() {
        let mut d = IncrementalDisjunction::new();
        let or = Lineage::or(vec![v(1), v(2)]);
        d.insert(&or);
        d.insert(&v(2));
        assert_eq!(d.len(), 2);
        assert_eq!(d.disjunction(), Lineage::or(vec![v(1), v(2)]));
        d.remove(&or);
        assert_eq!(d.disjunction(), v(2));
    }

    #[test]
    fn constants_behave_like_or() {
        let mut d = IncrementalDisjunction::new();
        d.insert(&Lineage::fls());
        assert!(d.is_empty());
        d.insert(&v(3));
        d.insert(&Lineage::tru());
        assert!(d.disjunction().is_true());
        d.remove(&Lineage::tru());
        assert_eq!(d.disjunction(), v(3));
    }

    #[test]
    fn heavy_churn_with_compaction_matches_rebuild() {
        // Every checkpoint compares against a from-scratch `Lineage::or` of
        // the survivors in activation order.
        let mut d = IncrementalDisjunction::new();
        for (activate, lineage, expected) in churn_script() {
            if activate {
                d.insert(&lineage);
            } else {
                d.remove(&lineage);
            }
            if let Some(survivors) = expected {
                assert_eq!(d.len(), survivors.len());
                assert_eq!(d.is_empty(), survivors.is_empty());
                assert_eq!(d.disjunction(), Lineage::or(survivors));
            }
        }
    }

    /// A churn of `(activate?, lineage, survivors after the step)` exercising
    /// what fixes the emitted operand order: mass expiry, re-activation after
    /// expiry (the operand re-enters at the end), duplicate contributors (the
    /// operand keeps its place until the last one expires) and `Or` operands
    /// (flattened, each child counted on its own). Shared with the interned
    /// twin's test, which must agree step by step.
    pub(crate) fn churn_script() -> Vec<(bool, Lineage, Option<Vec<Lineage>>)> {
        let v = |i: u32| Lineage::var(VarId(i));
        let vs = |ids: &[u32]| Some(ids.iter().map(|&i| v(i)).collect::<Vec<_>>());
        let mut script = Vec::new();
        // Activate 64 vars, expire the first 63, add newcomers.
        script.extend((0..64).map(|i| (true, v(i), None)));
        script.extend((0..63).map(|i| (false, v(i), None)));
        script.extend((100..104).map(|i| (true, v(i), None)));
        script.last_mut().expect("non-empty").2 = vs(&[63, 100, 101, 102, 103]);
        // Re-activation after expiry re-enters at the end.
        script.push((true, v(5), vs(&[63, 100, 101, 102, 103, 5])));
        // A second contributor changes nothing, nor does the first expiry.
        script.push((true, v(100), vs(&[63, 100, 101, 102, 103, 5])));
        script.push((false, v(100), vs(&[63, 100, 101, 102, 103, 5])));
        script.push((false, v(100), vs(&[63, 101, 102, 103, 5])));
        // An Or operand is flattened: 200 is new, 101 gains a contributor and
        // outlives its own expiry until the Or expires too.
        let or = Lineage::or(vec![v(200), v(101)]);
        script.push((true, or.clone(), vs(&[63, 101, 102, 103, 5, 200])));
        script.push((false, v(101), vs(&[63, 101, 102, 103, 5, 200])));
        script.push((false, or, vs(&[63, 102, 103, 5])));
        // Drain to ⊥, then start over.
        script.extend([63, 102, 103].map(|i| (false, v(i), None)));
        script.push((false, v(5), vs(&[])));
        script.push((true, v(102), vs(&[102])));
        script
    }
}
