//! Pipelined (streaming) window operators.
//!
//! The paper's central systems claim is that the window computation can be
//! *pipelined*: unmatched and negating windows are derived incrementally
//! from the stream of overlapping windows, without materializing
//! intermediate relations or replicating tuples. [`LawauStream`] and
//! [`LawanStream`] are iterator adaptors implementing exactly that: they
//! consume an upstream window iterator grouped by `r` tuple and emit the
//! extended window stream, holding at most one group (the windows of a
//! single `r` tuple) at a time. Stacked on top of
//! [`OverlapWindowStream`](crate::overlap::OverlapWindowStream) they form
//! the fully streaming NJ pipeline that
//! [`tp_join`](crate::join::tp_join) executes:
//!
//! ```text
//! OverlapWindowStream → LawauStream → LawanStream → output formation
//! ```
//!
//! **A window is written once and moved at most once per stage.** A stage
//! asks its upstream for a whole group ([`WindowGroups::next_group`]) and
//! names the buffer the group is written into: the overlap join probes
//! straight into LAWAU's `group` buffer; LAWAU's sweep drains it *by value*
//! into LAWAN's `ready` buffer, interleaving the gap windows; LAWAN sweeps
//! the group in place there, appending the negating windows; the consumer
//! pops `ready` off the front. Every buffer is cleared and refilled in
//! place, so the steady-state stream allocates nothing per group.
//!
//! A window carries indices, no lineage: a negating window's
//! [`Span`](crate::Span) lists its `s` tuples in [`LawanStream::spans`],
//! the buffer of the current group, valid until the next call of `next`.
//!
//! The window streams are group sources; any other window iterator becomes
//! one through [`Iterator::peekable`] (finding the end of a group needs one
//! window of lookahead), so `LawanStream::new(wuo.into_iter().peekable())`
//! runs the same sweep over a materialized vector. The positive relation is
//! held through any [`Borrow`]`<TpRelation>`: a plain reference inside a
//! join operator, an `Arc<TpRelation>` in a long-lived cursor.
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
//! let mut stream = LawanStream::new(LawauStream::new(overlap, &a));
//! let (mut windows, mut negating) = (0, Vec::new());
//! while let Some(w) = stream.next() {
//!     windows += 1;
//!     // A negating window's span lists its s tuples: read it before `next`.
//!     if w.is_negating() {
//!         negating.push(w.span.of(stream.spans()).len());
//!     }
//! }
//! assert_eq!(windows, 7);
//! assert_eq!(negating, [1, 2, 1]); // w5 = b3, w6 = b3 ∨ b2, w7 = b2
//! ```

use crate::lawan;
use crate::lawau;
use crate::window::Window;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::iter::Peekable;
use tpdb_storage::TpRelation;
use tpdb_temporal::TimePoint;

/// A source of windows handed over one whole `r`-tuple group at a time —
/// what a window stage consumes. Implemented by the overlap join and LAWAU
/// streams and, for everything else, by any [`Peekable`] window iterator.
#[diagnostic::on_unimplemented(
    note = "the window streams are group sources; make any other window iterator one with `.peekable()`"
)]
pub trait WindowGroups {
    /// Appends the next group (all windows of one `r` tuple, in start
    /// order) to the back of `out` and returns its `r_idx`; `None`, with
    /// `out` untouched, when the source is exhausted.
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize>;
}

impl<I: Iterator<Item = Window>> WindowGroups for Peekable<I> {
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let r_idx = self.peek()?.r_idx;
        out.extend(std::iter::from_fn(|| self.next_if(|w| w.r_idx == r_idx)));
        Some(r_idx)
    }
}

/// `Iterator::next` of a group source that keeps its current group in the
/// buffer `ready` projects out of it: pops the front window, refilling the
/// (cleared, hence never wrapping) buffer with the next group when empty.
pub(crate) fn next_window<G: WindowGroups>(
    source: &mut G,
    ready: impl Fn(&mut G) -> &mut VecDeque<Window>,
) -> Option<Window> {
    if ready(source).is_empty() {
        let mut group = std::mem::take(ready(source));
        group.clear();
        source.next_group(&mut group);
        *ready(source) = group;
    }
    ready(source).pop_front()
}

/// Streaming LAWAU: extends a stream of overlap-join windows with the
/// remaining unmatched windows, one `r`-tuple group at a time.
#[derive(Debug)]
pub struct LawauStream<I, P: Borrow<TpRelation>> {
    pub(crate) input: I,
    positive: P,
    /// The current input group (reused across groups), drained by value
    /// into the sweep.
    group: VecDeque<Window>,
    /// Output windows of the current group when the stream is consumed as
    /// an iterator (reused across groups); moved out of the front.
    ready: VecDeque<Window>,
}

impl<I: WindowGroups, P: Borrow<TpRelation>> LawauStream<I, P> {
    /// Wraps `input` (grouped by `r_idx`, sorted by start within groups): a
    /// window stream, or any other window iterator made `.peekable()`.
    pub fn new(input: I, positive: P) -> Self {
        Self {
            input,
            positive,
            group: VecDeque::new(),
            ready: VecDeque::new(),
        }
    }
}

impl<I: WindowGroups, P: Borrow<TpRelation>> WindowGroups for LawauStream<I, P> {
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let r_idx = self.input.next_group(&mut self.group)?;
        let interval = self.positive.borrow().tuple(r_idx).interval();
        lawau::sweep_group(self.group.drain(..), r_idx, interval, out);
        Some(r_idx)
    }
}

impl<I: WindowGroups, P: Borrow<TpRelation>> Iterator for LawauStream<I, P> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        next_window(self, |stream| &mut stream.ready)
    }
}

/// Streaming LAWAN: extends a `WUO` stream with the negating windows, one
/// `r`-tuple group at a time.
#[derive(Debug)]
pub struct LawanStream<I> {
    pub(crate) input: I,
    /// The current group, swept in place (reused across groups); windows are
    /// moved out of the front.
    ready: VecDeque<Window>,
    /// The sweep's active set: the `(end, s index)` of each active
    /// overlapping window in activation order (empty between groups, storage
    /// reused).
    active: Vec<(TimePoint, u32)>,
    /// The current group's span buffer (cleared per group).
    spans: Vec<u32>,
}

impl<I: WindowGroups> LawanStream<I> {
    /// Wraps `input` (grouped by `r_idx`): a window stream, or any other
    /// window iterator made `.peekable()`.
    pub fn new(input: I) -> Self {
        Self {
            input,
            ready: VecDeque::new(),
            active: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The span buffer the negating windows of the current group index
    /// ([`Span::of`](crate::Span::of)); valid until the next call of `next`.
    #[must_use]
    pub fn spans(&self) -> &[u32] {
        &self.spans
    }
}

impl<I: WindowGroups> Iterator for LawanStream<I> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.ready.is_empty() {
            self.ready.clear();
            self.spans.clear();
            if self.input.next_group(&mut self.ready).is_some() {
                let Self {
                    ready,
                    active,
                    spans,
                    ..
                } = self;
                lawan::sweep_group(ready, 0, active, spans);
            }
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
    use crate::tree_reference::{drain, resolved};
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
        let streamed: Vec<Window> =
            LawauStream::new(wo.into_iter().peekable(), Arc::clone(&a)).collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn streaming_lawan_matches_materializing_lawan() {
        let (wo, a) = setup();
        let wuo = lawau::lawau(&wo, &a);
        let materialized = resolved(&lawan::lawan(&wuo));
        let streamed = drain(LawanStream::new(wuo.into_iter().peekable()));
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn full_pipeline_is_composable() {
        let (wo, a) = setup();
        let expected = resolved(&lawan::lawan(&lawau::lawau(&wo, &a)));
        let lawau = LawauStream::new(wo.into_iter().peekable(), Arc::clone(&a));
        assert_eq!(drain(LawanStream::new(lawau)), expected);
    }

    #[test]
    fn streams_borrow_plain_references_too() {
        // The fully streaming pipeline: no window vector is ever built.
        let (a, b, _) = booking_relations();
        let theta = ThetaCondition::column_equals("Loc", "Loc");
        let wo = overlapping_windows(&a, &b, &theta).unwrap();
        let expected = resolved(&lawan::lawan(&lawau::lawau(&wo, &a)));
        let overlap = OverlapWindowStream::new(&a, &b, &theta).unwrap();
        let piped = drain(LawanStream::new(LawauStream::new(overlap, &a)));
        assert_eq!(piped, expected);
    }

    #[test]
    fn empty_stream() {
        let (_, a) = setup();
        let piped: Vec<Window> =
            LawanStream::new(LawauStream::new(std::iter::empty::<Window>().peekable(), a))
                .collect();
        assert!(piped.is_empty());
    }
}
