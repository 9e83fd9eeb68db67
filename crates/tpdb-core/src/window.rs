//! Generalized lineage-aware temporal windows (Definition 1 of the paper).

use std::fmt;
use std::ops::Deref;
use tpdb_lineage::{Lineage, SymbolTable};
use tpdb_storage::TpRelation;
use tpdb_temporal::Interval;

/// The three disjoint classes of generalized lineage-aware temporal windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A negating window's θ-matching `s` tuples: `len` indices of a span
/// buffer from `start`, in the order LAWAN activated them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// First position in the buffer.
    pub start: u32,
    /// Number of `s` indices.
    pub len: u32,
}

impl Span {
    /// The `s` indices this span lists in `buffer`.
    #[must_use]
    pub fn of(self, buffer: &[u32]) -> &[u32] {
        let start = self.start as usize;
        &buffer[start..start + self.len as usize]
    }
}

/// A generalized lineage-aware temporal window with schema
/// `(Fr, Fs, T, λr, λs)`, held by reference.
///
/// No fact and no lineage is copied into the window: `r_idx` names the
/// originating tuple of `r` (its facts `Fr` and its lineage `λr`), and
/// `λs` is the lineage of the tuple `s_idx` of an overlapping window or the
/// disjunction over the tuples a negating window's `span` lists. Keeping
/// facts and lineages by reference until output formation is what lets the
/// window algorithms avoid the tuple replication of alignment-based
/// approaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Which of the three window classes this window belongs to.
    pub kind: WindowKind,
    /// The window interval `T`.
    pub interval: Interval,
    /// Index of the originating tuple of the positive relation `r`
    /// (determines `Fr`, `λr` and the tuple's full validity interval).
    pub r_idx: usize,
    /// Index of the matching tuple of the negative relation `s`
    /// (overlapping windows only; `None` means `Fs = null`).
    pub s_idx: Option<usize>,
    /// The valid, θ-matching `s` tuples of a negating window, in the span
    /// buffer of the stream or [`WindowSet`] that produced it; empty for
    /// the other classes.
    pub span: Span,
}

const _: () = assert!(std::mem::size_of::<Window>() <= 56);

impl Window {
    /// Creates an overlapping window for the pair `(r[r_idx], s[s_idx])`.
    #[must_use]
    pub fn overlapping(interval: Interval, r_idx: usize, s_idx: usize) -> Self {
        Self {
            kind: WindowKind::Overlapping,
            interval,
            r_idx,
            s_idx: Some(s_idx),
            span: Span::default(),
        }
    }

    /// Creates an unmatched window for `r[r_idx]`.
    #[must_use]
    pub fn unmatched(interval: Interval, r_idx: usize) -> Self {
        Self {
            kind: WindowKind::Unmatched,
            interval,
            r_idx,
            s_idx: None,
            span: Span::default(),
        }
    }

    /// Creates a negating window for `r[r_idx]` whose `span` lists the
    /// matching `s` tuples.
    #[must_use]
    pub fn negating(interval: Interval, r_idx: usize, span: Span) -> Self {
        Self {
            kind: WindowKind::Negating,
            interval,
            r_idx,
            s_idx: None,
            span,
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

    /// Renders the window against its input relations and the span buffer
    /// it was produced with, using the lineage symbol names of `syms`
    /// (useful in examples and tests).
    #[must_use]
    pub fn display_with(
        &self,
        r: &TpRelation,
        s: &TpRelation,
        spans: &[u32],
        syms: &SymbolTable,
    ) -> String {
        let facts = |rel: &TpRelation, i: usize| {
            let facts: Vec<String> = rel.tuple(i).facts().iter().map(|v| v.to_string()).collect();
            facts.join(",")
        };
        let fs = self
            .s_idx
            .map_or_else(|| "null".to_owned(), |si| facts(s, si));
        let ls = match (self.kind, self.s_idx) {
            (WindowKind::Overlapping, Some(si)) => s.tuple(si).lineage().display_with(syms),
            (WindowKind::Negating, _) => {
                let span = self.span.of(spans).iter();
                let lineages = span.map(|&si| s.tuple(si as usize).lineage().clone());
                Lineage::or(lineages.collect()).display_with(syms)
            }
            _ => "null".to_owned(),
        };
        let lr = r.tuple(self.r_idx).lineage().display_with(syms);
        let (kind, interval) = (self.kind, self.interval);
        format!(
            "{kind}({}; {fs}; {interval}; {lr}; {ls})",
            facts(r, self.r_idx)
        )
    }
}

/// A materialized window set: the windows, and the span buffer their
/// negating windows index. Derefs to the windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSet {
    /// The windows.
    pub windows: Vec<Window>,
    /// The `s` indices the negating windows' spans list.
    pub spans: Vec<u32>,
}

impl From<Vec<Window>> for WindowSet {
    /// A set of windows without spans (no negating window).
    fn from(windows: Vec<Window>) -> Self {
        Self {
            windows,
            spans: Vec::new(),
        }
    }
}

impl Deref for WindowSet {
    type Target = [Window];

    fn deref(&self) -> &[Window] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds_and_nulls() {
        let o = Window::overlapping(Interval::new(4, 6), 0, 2);
        assert!(o.is_overlapping());
        assert_eq!(o.s_idx, Some(2));
        assert_eq!(o.span, Span::default());

        let u = Window::unmatched(Interval::new(2, 4), 0);
        assert!(u.is_unmatched());
        assert!(u.s_idx.is_none());
        assert_eq!(u.span.of(&[]), &[] as &[u32]);

        let n = Window::negating(Interval::new(5, 6), 0, Span { start: 1, len: 2 });
        assert!(n.is_negating());
        assert!(n.s_idx.is_none());
        assert_eq!(n.span.of(&[7, 2, 1, 9]), &[2, 1]);
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
        let b2 = syms.intern("b2");
        let mut r = TpRelation::new("a", Schema::tp(&[("Name", DataType::Str)]));
        r.push(TpTuple::new(
            vec![Value::str("Ann")],
            Lineage::var(a1),
            Interval::new(2, 8),
            0.7,
        ))
        .unwrap();
        let mut s = TpRelation::new("b", Schema::tp(&[("Hotel", DataType::Str)]));
        for (hotel, var) in [("hotel1", b3), ("hotel2", b2)] {
            let lineage = Lineage::var(var);
            s.push(TpTuple::new(
                vec![Value::str(hotel)],
                lineage,
                Interval::new(4, 6),
                0.7,
            ))
            .unwrap();
        }
        let w = Window::overlapping(Interval::new(4, 6), 0, 0);
        let text = w.display_with(&r, &s, &[], &syms);
        assert_eq!(text, "WO(Ann; hotel1; [4,6); a1; b3)");
        let w = Window::negating(Interval::new(5, 6), 0, Span { start: 0, len: 2 });
        let text = w.display_with(&r, &s, &[0, 1], &syms);
        assert_eq!(text, "WN(Ann; null; [5,6); a1; b3 ∨ b2)");
    }
}
