//! Pipelined (streaming) window operators.
//!
//! The paper's central systems claim is that the window computation can be
//! *pipelined*: unmatched and negating windows are derived incrementally
//! from the stream of overlapping windows, without materializing
//! intermediate relations or replicating tuples. [`LawauStream`] and
//! [`LawanStream`] are iterator adaptors implementing exactly that: they
//! consume an upstream window iterator grouped by `r` tuple and emit the
//! extended window stream, buffering at most one group (the windows of a
//! single `r` tuple) at a time. Stacked on top of
//! [`OverlapWindowStream`](crate::overlap::OverlapWindowStream) they form
//! the fully streaming NJ pipeline that
//! [`tp_join`](crate::join::tp_join) executes:
//!
//! ```text
//! OverlapWindowStream → LawauStream → LawanStream → output formation
//! ```
//!
//! Each adaptor owns two reusable buffers — the current input group and the
//! group's output windows — so the steady-state streaming path performs no
//! per-group allocations: buffers are cleared and refilled in place, and
//! windows move (rather than clone) from the output buffer to the consumer.
//!
//! The positive relation is held through any [`Borrow`]`<TpRelation>`, so
//! the adaptors work with plain references inside a join operator and with
//! `Arc<TpRelation>` in long-lived cursors alike.
//!
//! ```
//! use tpdb_core::{LawanStream, LawauStream, OverlapWindowStream, ThetaCondition};
//!
//! let (a, b) = tpdb_datagen::booking_example();
//! let theta = ThetaCondition::column_equals("Loc", "Loc");
//!
//! // The full streaming pipeline: overlap join → LAWAU → LAWAN. For the
//! // paper's running example it produces the seven windows behind the
//! // seven answer tuples of Fig. 1b.
//! let overlap = OverlapWindowStream::new(&a, &b, &theta).unwrap();
//! let windows: Vec<_> = LawanStream::new(LawauStream::new(overlap, &a)).collect();
//! assert_eq!(windows.len(), 7);
//! assert_eq!(windows.iter().filter(|w| w.is_negating()).count(), 3);
//! ```

use crate::lawan::{self, InternedActiveSet};
use crate::lawau;
use crate::window::Window;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;
use tpdb_lineage::{IncrementalDisjunction, Lineage, LineageInterner, LineageRef};
use tpdb_storage::TpRelation;

/// A stream of generalized lineage-aware temporal windows grouped by the
/// originating tuple of the positive relation.
pub trait WindowStream: Iterator<Item = Window> {}

impl<T: Iterator<Item = Window>> WindowStream for T {}

/// Pulls the next complete `r`-tuple group from `input` into `group`
/// (cleared first). Returns the group's `r_idx`, or `None` when the input
/// is exhausted (`Some` implies a non-empty group).
fn next_group<L, I: Iterator<Item = Window<L>>>(
    input: &mut std::iter::Peekable<I>,
    group: &mut Vec<Window<L>>,
) -> Option<usize> {
    group.clear();
    let r_idx = input.peek()?.r_idx;
    while let Some(w) = input.next_if(|w| w.r_idx == r_idx) {
        group.push(w);
    }
    Some(r_idx)
}

/// Streaming LAWAU: extends a stream of overlap-join windows with the
/// remaining unmatched windows, one `r`-tuple group at a time.
///
/// Generic over the lineage representation `L` of the windows: the default
/// [`Lineage`] stream reads each group's `λr` from the positive relation,
/// while the interned stream (built through the crate-internal
/// `with_lineages` constructor) reads it from the pre-interned lineage
/// column shared with the upstream overlap stream.
#[derive(Debug)]
pub struct LawauStream<I: Iterator<Item = Window<L>>, P: Borrow<TpRelation>, L = Lineage> {
    input: std::iter::Peekable<I>,
    positive: P,
    /// The positive side's lineage column for non-tree representations
    /// (`None` on the default [`Lineage`] path, which clones from the
    /// relation instead).
    lins: Option<Arc<Vec<L>>>,
    /// Scratch buffer holding the current input group (reused across
    /// groups).
    group: Vec<Window<L>>,
    /// Output buffer of the current group (reused across groups); windows
    /// are moved out of the front.
    ready: VecDeque<Window<L>>,
}

impl<I: Iterator<Item = Window<L>>, P: Borrow<TpRelation>, L> LawauStream<I, P, L> {
    /// Wraps `input` (grouped by `r_idx`, sorted by start within groups).
    pub fn new(input: I, positive: P) -> Self {
        Self {
            input: input.peekable(),
            positive,
            lins: None,
            group: Vec::new(),
            ready: VecDeque::new(),
        }
    }
}

impl<I, P> LawauStream<I, P, LineageRef>
where
    I: Iterator<Item = Window<LineageRef>>,
    P: Borrow<TpRelation>,
{
    /// Wraps an interned window stream, taking the positive side's interned
    /// lineage column (`Arc`-shared with the upstream
    /// [`OverlapWindowStream`](crate::overlap::OverlapWindowStream)) for the
    /// per-group `λr`.
    pub(crate) fn with_lineages(input: I, positive: P, lins: Arc<Vec<LineageRef>>) -> Self {
        Self {
            input: input.peekable(),
            positive,
            lins: Some(lins),
            group: Vec::new(),
            ready: VecDeque::new(),
        }
    }
}

impl<I: Iterator<Item = Window>, P: Borrow<TpRelation>> Iterator for LawauStream<I, P, Lineage> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.ready.is_empty() {
            if let Some(r_idx) = next_group(&mut self.input, &mut self.group) {
                let r_tuple = self.positive.borrow().tuple(r_idx);
                lawau::sweep_group(
                    &self.group,
                    r_tuple.interval(),
                    r_tuple.lineage(),
                    &mut self.ready,
                );
            }
        }
        self.ready.pop_front()
    }
}

impl<I, P> Iterator for LawauStream<I, P, LineageRef>
where
    I: Iterator<Item = Window<LineageRef>>,
    P: Borrow<TpRelation>,
{
    type Item = Window<LineageRef>;

    fn next(&mut self) -> Option<Window<LineageRef>> {
        if self.ready.is_empty() {
            if let Some(r_idx) = next_group(&mut self.input, &mut self.group) {
                let interval = self.positive.borrow().tuple(r_idx).interval();
                let lins = self
                    .lins
                    .as_ref()
                    // `with_lineages` is the only `LineageRef` constructor,
                    // so the column is always present.
                    // tpdb-lint: allow(no-panic-in-lib)
                    .expect("interned LAWAU streams carry the lineage column");
                lawau::sweep_group(&self.group, interval, &lins[r_idx], &mut self.ready);
            }
        }
        self.ready.pop_front()
    }
}

/// Streaming LAWAN: extends a `WUO` stream with the negating windows, one
/// `r`-tuple group at a time.
///
/// The default [`Lineage`] stream is a plain [`Iterator`]; the interned
/// stream is driven through the crate-internal `next_with`, which takes
/// the interner the negating windows' `λs` disjunctions are built in.
#[derive(Debug)]
pub struct LawanStream<I: Iterator<Item = Window<L>>, L = Lineage> {
    input: std::iter::Peekable<I>,
    /// Scratch buffer holding the current input group (reused across
    /// groups).
    group: Vec<Window<L>>,
    /// Output buffer of the current group (reused across groups).
    ready: VecDeque<Window<L>>,
}

impl<I: Iterator<Item = Window<L>>, L> LawanStream<I, L> {
    /// Wraps `input` (grouped by `r_idx`).
    pub fn new(input: I) -> Self {
        Self {
            input: input.peekable(),
            group: Vec::new(),
            ready: VecDeque::new(),
        }
    }
}

impl<I: Iterator<Item = Window>> Iterator for LawanStream<I, Lineage> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.ready.is_empty() && next_group(&mut self.input, &mut self.group).is_some() {
            lawan::sweep_group(&self.group, IncrementalDisjunction::new(), &mut self.ready);
        }
        self.ready.pop_front()
    }
}

impl<I: Iterator<Item = Window<LineageRef>>> LawanStream<I, LineageRef> {
    /// The next window of the interned stream; `interner` receives the
    /// `λs` disjunction nodes of emitted negating windows.
    pub(crate) fn next_with(
        &mut self,
        interner: &mut LineageInterner,
    ) -> Option<Window<LineageRef>> {
        if self.ready.is_empty() && next_group(&mut self.input, &mut self.group).is_some() {
            lawan::sweep_group(
                &self.group,
                InternedActiveSet::new(interner),
                &mut self.ready,
            );
        }
        self.ready.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::{overlapping_windows, OverlapWindowStream};
    use crate::testutil::booking_relations;
    use crate::theta::ThetaCondition;
    use std::sync::Arc;

    fn setup() -> (Vec<Window>, Arc<TpRelation>) {
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        (wo, Arc::new(a))
    }

    #[test]
    fn streaming_lawau_matches_materializing_lawau() {
        let (wo, a) = setup();
        let materialized = lawau::lawau(&wo, &a);
        let streamed: Vec<Window> = LawauStream::new(wo.into_iter(), Arc::clone(&a)).collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn streaming_lawan_matches_materializing_lawan() {
        let (wo, a) = setup();
        let wuo = lawau::lawau(&wo, &a);
        let materialized = lawan::lawan(&wuo);
        let streamed: Vec<Window> = LawanStream::new(wuo.into_iter()).collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn full_pipeline_is_composable() {
        let (wo, a) = setup();
        let expected = lawan::lawan(&lawau::lawau(&wo, &a));
        let piped: Vec<Window> =
            LawanStream::new(LawauStream::new(wo.into_iter(), Arc::clone(&a))).collect();
        assert_eq!(piped, expected);
    }

    #[test]
    fn streams_borrow_plain_references_too() {
        // The fully streaming pipeline: no window vector is ever built.
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        let expected = lawan::lawan(&lawau::lawau(&wo, &a));
        let overlap = OverlapWindowStream::new(&a, &b, &theta).unwrap();
        let piped: Vec<Window> = LawanStream::new(LawauStream::new(overlap, &a)).collect();
        assert_eq!(piped, expected);
    }

    #[test]
    fn empty_stream() {
        let (_, a) = setup();
        let piped: Vec<Window> =
            LawanStream::new(LawauStream::new(std::iter::empty::<Window>(), a)).collect();
        assert!(piped.is_empty());
    }
}
