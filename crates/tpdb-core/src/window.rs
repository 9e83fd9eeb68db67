//! Generalized lineage-aware temporal windows (Definition 1 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;
use tpdb_lineage::{Lineage, LineageRef};
use tpdb_storage::TpRelation;
use tpdb_temporal::Interval;

/// The three disjoint classes of generalized lineage-aware temporal windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowKind {
    /// `WO(r; s, θ)` — a maximal interval over which a tuple of `r` overlaps
    /// a tuple of `s` and θ is satisfied.
    Overlapping,
    /// `WU(r; s, θ)` — a maximal (sub-)interval of a tuple of `r` during
    /// which no tuple of `s` is valid or satisfies θ.
    Unmatched,
    /// `WN(r; s, θ)` — a maximal sub-interval of a tuple of `r` during which
    /// the set of valid, θ-matching tuples of `s` is non-empty and constant.
    Negating,
}

impl fmt::Display for WindowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WindowKind::Overlapping => "WO",
            WindowKind::Unmatched => "WU",
            WindowKind::Negating => "WN",
        };
        write!(f, "{s}")
    }
}

/// A generalized lineage-aware temporal window with schema
/// `(Fr, Fs, T, λr, λs)`.
///
/// The facts `Fr`/`Fs` are not copied into the window: `r_idx` (and, for
/// overlapping windows, `s_idx`) reference the originating tuples of the
/// input relations. Keeping facts by reference — and keeping `λr` and `λs`
/// decoupled until output formation — is exactly what lets the window
/// algorithms avoid the tuple replication of alignment-based approaches.
///
/// The window is generic over the lineage representation `L` (and `S` of
/// `λs`): the default [`Lineage`] tree is the serde/test conversion
/// boundary, while the executing pipelines pass hash-consed [`LineageRef`]
/// ids (`Copy`, `O(1)` equality) and [`SideRef`]s, so no formula tree is
/// cloned at window boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window<L = Lineage, S = L> {
    /// Which of the three window classes this window belongs to.
    pub kind: WindowKind,
    /// The window interval `T`.
    pub interval: Interval,
    /// Index of the originating tuple of the positive relation `r`
    /// (determines `Fr` and the tuple's full validity interval).
    pub r_idx: usize,
    /// Index of the matching tuple of the negative relation `s`
    /// (overlapping windows only; `None` means `Fs = null`).
    pub s_idx: Option<usize>,
    /// `λr` — the lineage of the valid tuple of `r` over `T`.
    pub lambda_r: L,
    /// `λs` — for overlapping windows the lineage of the matching `s` tuple;
    /// for negating windows the disjunction of the lineages of all valid,
    /// θ-matching `s` tuples over `T`; for unmatched windows `None` (null).
    pub lambda_s: Option<S>,
}

/// `λs` on the interned path: an arena node, or the span of the pass's
/// operand buffer holding a negating window's ≥ 2 live operands (valid
/// until the next `r` group), whose disjunction output formation forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideRef {
    /// An arena node.
    Node(LineageRef),
    /// `operands[start..start + len]`: distinct, in first-activation order.
    #[allow(missing_docs)]
    Span { start: u32, len: u32 },
}

impl From<LineageRef> for SideRef {
    fn from(node: LineageRef) -> Self {
        SideRef::Node(node)
    }
}

impl<L, S> Window<L, S> {
    /// Creates an overlapping window for the pair `(r[r_idx], s[s_idx])`.
    #[must_use]
    pub fn overlapping(
        interval: Interval,
        r_idx: usize,
        s_idx: usize,
        lambda_r: L,
        lambda_s: S,
    ) -> Self {
        Self {
            kind: WindowKind::Overlapping,
            interval,
            r_idx,
            s_idx: Some(s_idx),
            lambda_r,
            lambda_s: Some(lambda_s),
        }
    }

    /// Creates an unmatched window for `r[r_idx]`.
    #[must_use]
    pub fn unmatched(interval: Interval, r_idx: usize, lambda_r: L) -> Self {
        Self {
            kind: WindowKind::Unmatched,
            interval,
            r_idx,
            s_idx: None,
            lambda_r,
            lambda_s: None,
        }
    }

    /// Creates a negating window for `r[r_idx]` with the disjunction
    /// `lambda_s` of the matching negative lineages.
    #[must_use]
    pub fn negating(interval: Interval, r_idx: usize, lambda_r: L, lambda_s: S) -> Self {
        Self {
            kind: WindowKind::Negating,
            interval,
            r_idx,
            s_idx: None,
            lambda_r,
            lambda_s: Some(lambda_s),
        }
    }

    /// Is this an overlapping window?
    #[must_use]
    pub fn is_overlapping(&self) -> bool {
        self.kind == WindowKind::Overlapping
    }

    /// Is this an unmatched window?
    #[must_use]
    pub fn is_unmatched(&self) -> bool {
        self.kind == WindowKind::Unmatched
    }

    /// Is this a negating window?
    #[must_use]
    pub fn is_negating(&self) -> bool {
        self.kind == WindowKind::Negating
    }
}

impl Window<Lineage> {
    /// Renders the window against its input relations, using the lineage
    /// symbol names of `syms` (useful in examples and tests).
    #[must_use]
    pub fn display_with(
        &self,
        r: &TpRelation,
        s: &TpRelation,
        syms: &tpdb_lineage::SymbolTable,
    ) -> String {
        let fr: Vec<String> = r
            .tuple(self.r_idx)
            .facts()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let fs = match self.s_idx {
            Some(i) => s
                .tuple(i)
                .facts()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
            None => "null".to_owned(),
        };
        let ls = match &self.lambda_s {
            Some(l) => l.display_with(syms),
            None => "null".to_owned(),
        };
        format!(
            "{}({}; {}; {}; {}; {})",
            self.kind,
            fr.join(","),
            fs,
            self.interval,
            self.lambda_r.display_with(syms),
            ls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_lineage::{SymbolTable, VarId};

    #[test]
    fn constructors_set_kinds_and_nulls() {
        let lr = Lineage::var(VarId(0));
        let ls = Lineage::var(VarId(1));
        let o = Window::overlapping(Interval::new(4, 6), 0, 2, lr.clone(), ls.clone());
        assert!(o.is_overlapping());
        assert_eq!(o.s_idx, Some(2));
        assert_eq!(o.lambda_s, Some(ls.clone()));

        let u: Window = Window::unmatched(Interval::new(2, 4), 0, lr.clone());
        assert!(u.is_unmatched());
        assert!(u.s_idx.is_none());
        assert!(u.lambda_s.is_none());

        let n = Window::negating(
            Interval::new(5, 6),
            0,
            lr,
            Lineage::or2(ls, Lineage::var(VarId(2))),
        );
        assert!(n.is_negating());
        assert!(n.s_idx.is_none());
        assert!(n.lambda_s.is_some());
    }

    #[test]
    fn kind_display() {
        assert_eq!(WindowKind::Overlapping.to_string(), "WO");
        assert_eq!(WindowKind::Unmatched.to_string(), "WU");
        assert_eq!(WindowKind::Negating.to_string(), "WN");
    }

    #[test]
    fn display_with_uses_symbols() {
        use tpdb_storage::{DataType, Schema, TpTuple, Value};
        let mut syms = SymbolTable::new();
        let a1 = syms.intern("a1");
        let b3 = syms.intern("b3");
        let mut r = TpRelation::new("a", Schema::tp(&[("Name", DataType::Str)]));
        r.push(TpTuple::new(
            vec![Value::str("Ann")],
            Lineage::var(a1),
            Interval::new(2, 8),
            0.7,
        ))
        .unwrap();
        let mut s = TpRelation::new("b", Schema::tp(&[("Hotel", DataType::Str)]));
        s.push(TpTuple::new(
            vec![Value::str("hotel1")],
            Lineage::var(b3),
            Interval::new(4, 6),
            0.7,
        ))
        .unwrap();
        let w = Window::overlapping(
            Interval::new(4, 6),
            0,
            0,
            Lineage::var(a1),
            Lineage::var(b3),
        );
        let text = w.display_with(&r, &s, &syms);
        assert!(text.contains("WO"));
        assert!(text.contains("Ann"));
        assert!(text.contains("hotel1"));
        assert!(text.contains("a1"));
    }
}
