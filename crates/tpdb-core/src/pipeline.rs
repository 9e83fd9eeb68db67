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
//! does not pull its upstream window by window and regroup what it gets: it
//! asks for a whole group ([`WindowGroups::next_group`]) and names the
//! buffer the group is written into. The overlap join probes straight into
//! LAWAU's `group` buffer; LAWAU's sweep drains that buffer *by value* into
//! LAWAN's `ready` buffer, interleaving the gap windows while moving; LAWAN
//! sweeps the group in place there, appending the negating windows and
//! reading the overlapping ones back by index; the consumer pops `ready`
//! off the front. Nothing is cloned, and only the outermost stream of a
//! stack uses its `ready` buffer at all. Every buffer is cleared and
//! refilled in place, and besides them only LAWAN's sweep state (ending-point
//! queue and active set — empty between groups) outlives a group, so the
//! steady-state stream allocates nothing per group beyond the tree path's `λs`.
//!
//! The three streams are group sources; any other window iterator becomes
//! one through [`Iterator::peekable`] (finding the end of a group in a plain
//! iterator needs one window of lookahead), so
//! `LawanStream::new(wuo.into_iter().peekable())` runs the same sweep over a
//! materialized vector.
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

use crate::lawan::{self, WindowLineage};
use crate::lawau;
use crate::window::{SideRef, Window};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::iter::Peekable;
use std::sync::Arc;
use tpdb_lineage::{Lineage, LineageRef};
use tpdb_storage::TpRelation;
use tpdb_temporal::EventQueue;

/// A stream of generalized lineage-aware temporal windows grouped by the
/// originating tuple of the positive relation.
pub trait WindowStream: Iterator<Item = Window> {}

impl<T: Iterator<Item = Window>> WindowStream for T {}

/// A source of windows handed over one whole `r`-tuple group at a time —
/// what a window stage consumes. Implemented by the three window streams
/// and, for everything else, by any [`Peekable`] window iterator.
#[diagnostic::on_unimplemented(
    note = "the window streams are group sources; make any other window iterator one with `.peekable()`"
)]
pub trait WindowGroups<L: WindowLineage> {
    /// Appends the next group (all windows of one `r` tuple, in start
    /// order) to the back of `out` and returns its `r_idx`; `None`, with
    /// `out` untouched, when the source is exhausted.
    fn next_group(&mut self, out: &mut VecDeque<Window<L, L::Side>>) -> Option<usize>;
}

impl<L: WindowLineage, I: Iterator<Item = Window<L, L::Side>>> WindowGroups<L> for Peekable<I> {
    fn next_group(&mut self, out: &mut VecDeque<Window<L, L::Side>>) -> Option<usize> {
        let r_idx = self.peek()?.r_idx;
        out.extend(std::iter::from_fn(|| self.next_if(|w| w.r_idx == r_idx)));
        Some(r_idx)
    }
}

/// `Iterator::next` of a group source that keeps its current group in the
/// buffer `ready` projects out of it: pops the front window, refilling the
/// (cleared, hence never wrapping) buffer with the next group when empty.
pub(crate) fn next_window<L: WindowLineage, G: WindowGroups<L>>(
    source: &mut G,
    ready: impl Fn(&mut G) -> &mut VecDeque<Window<L, L::Side>>,
) -> Option<Window<L, L::Side>> {
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
///
/// Generic over the lineage representation `L` of the windows: the default
/// [`Lineage`] stream reads each group's `λr` from the positive relation,
/// while the interned stream (built through the crate-internal
/// `with_lineages` constructor) reads it from the pre-interned lineage
/// column shared with the upstream overlap stream.
#[derive(Debug)]
pub struct LawauStream<I, P: Borrow<TpRelation>, L: WindowLineage = Lineage> {
    input: I,
    positive: P,
    /// The positive side's lineage column for non-tree representations
    /// (`None` on the default [`Lineage`] path, which reads the relation
    /// instead).
    lins: Option<Arc<Vec<L>>>,
    /// The current input group (reused across groups), drained by value
    /// into the sweep.
    group: VecDeque<Window<L, L::Side>>,
    /// Output windows of the current group when the stream is consumed as
    /// an iterator (reused across groups); moved out of the front.
    ready: VecDeque<Window<L, L::Side>>,
}

impl<I: WindowGroups<L>, P: Borrow<TpRelation>, L: WindowLineage> LawauStream<I, P, L> {
    /// Wraps `input` (grouped by `r_idx`, sorted by start within groups): a
    /// window stream, or any other window iterator made `.peekable()`.
    pub fn new(input: I, positive: P) -> Self {
        Self {
            input,
            positive,
            lins: None,
            group: VecDeque::new(),
            ready: VecDeque::new(),
        }
    }
}

impl<I, P> LawauStream<I, P, LineageRef>
where
    I: WindowGroups<LineageRef>,
    P: Borrow<TpRelation>,
{
    /// Wraps an interned window stream, taking the positive side's interned
    /// lineage column (`Arc`-shared with the upstream
    /// [`OverlapWindowStream`](crate::overlap::OverlapWindowStream)) for the
    /// per-group `λr`.
    pub(crate) fn with_lineages(input: I, positive: P, lins: Arc<Vec<LineageRef>>) -> Self {
        Self {
            lins: Some(lins),
            ..Self::new(input, positive)
        }
    }
}

impl<I, P> WindowGroups<Lineage> for LawauStream<I, P, Lineage>
where
    I: WindowGroups<Lineage>,
    P: Borrow<TpRelation>,
{
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let r_idx = self.input.next_group(&mut self.group)?;
        let r_tuple = self.positive.borrow().tuple(r_idx);
        let (interval, lambda_r) = (r_tuple.interval(), r_tuple.lineage());
        lawau::sweep_group(self.group.drain(..), r_idx, interval, lambda_r, out);
        Some(r_idx)
    }
}

impl<I, P> WindowGroups<LineageRef> for LawauStream<I, P, LineageRef>
where
    I: WindowGroups<LineageRef>,
    P: Borrow<TpRelation>,
{
    fn next_group(&mut self, out: &mut VecDeque<Window<LineageRef, SideRef>>) -> Option<usize> {
        let r_idx = self.input.next_group(&mut self.group)?;
        let interval = self.positive.borrow().tuple(r_idx).interval();
        #[expect(
            clippy::expect_used,
            reason = "`with_lineages` is the only `LineageRef` constructor, so the column is always present"
        )]
        let lins = self
            .lins
            .as_ref()
            .expect("interned LAWAU streams carry the lineage column");
        lawau::sweep_group(self.group.drain(..), r_idx, interval, &lins[r_idx], out);
        Some(r_idx)
    }
}

impl<I, P: Borrow<TpRelation>, L: WindowLineage> Iterator for LawauStream<I, P, L>
where
    Self: WindowGroups<L>,
{
    type Item = Window<L, L::Side>;

    fn next(&mut self) -> Option<Window<L, L::Side>> {
        next_window(self, |stream| &mut stream.ready)
    }
}

/// Streaming LAWAN: extends a `WUO` stream with the negating windows, one
/// `r`-tuple group at a time.
///
/// The default [`Lineage`] stream is a plain [`Iterator`]; the interned
/// stream is driven through the crate-internal `next_with`, which takes
/// the interner the active lineages live in.
#[derive(Debug)]
pub struct LawanStream<I, L: WindowLineage = Lineage> {
    input: I,
    /// The current group, swept in place (reused across groups); windows are
    /// moved out of the front.
    ready: VecDeque<Window<L, L::Side>>,
    /// The sweep's ending-point queue and active set (empty between groups,
    /// storage reused).
    queue: EventQueue,
    active: L::Active,
}

impl<I: WindowGroups<L>, L: WindowLineage> LawanStream<I, L> {
    /// Wraps `input` (grouped by `r_idx`): a window stream, or any other
    /// window iterator made `.peekable()`.
    pub fn new(input: I) -> Self {
        Self {
            input,
            ready: VecDeque::new(),
            queue: EventQueue::new(),
            active: L::Active::default(),
        }
    }

    /// The next window of the stream; `arena` is where the active lineages
    /// live. A new group clears `operands`, which [`SideRef::Span`]s index.
    pub(crate) fn next_with(
        &mut self,
        arena: &L::Arena,
        operands: &mut Vec<LineageRef>,
    ) -> Option<Window<L, L::Side>> {
        if self.ready.is_empty() {
            self.ready.clear();
            operands.clear();
            if self.input.next_group(&mut self.ready).is_some() {
                let (queue, active) = (&mut self.queue, &mut self.active);
                lawan::sweep_group(&mut self.ready, 0, queue, active, arena, operands);
            }
        }
        self.ready.pop_front()
    }
}

impl<I: WindowGroups<Lineage>> WindowGroups<Lineage> for LawanStream<I, Lineage> {
    fn next_group(&mut self, out: &mut VecDeque<Window>) -> Option<usize> {
        let from = out.len();
        let r_idx = self.input.next_group(out)?;
        let Self { queue, active, .. } = self;
        lawan::sweep_group(out, from, queue, active, &(), &mut vec![]);
        Some(r_idx)
    }
}

impl<I: WindowGroups<Lineage>> Iterator for LawanStream<I, Lineage> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        self.next_with(&(), &mut vec![])
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
        let streamed: Vec<Window> =
            LawauStream::new(wo.into_iter().peekable(), Arc::clone(&a)).collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn streaming_lawan_matches_materializing_lawan() {
        let (wo, a) = setup();
        let wuo = lawau::lawau(&wo, &a);
        let materialized = lawan::lawan(&wuo);
        let streamed: Vec<Window> = LawanStream::new(wuo.into_iter().peekable()).collect();
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn full_pipeline_is_composable() {
        let (wo, a) = setup();
        let expected = lawan::lawan(&lawau::lawau(&wo, &a));
        let piped: Vec<Window> =
            LawanStream::new(LawauStream::new(wo.into_iter().peekable(), Arc::clone(&a))).collect();
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
            LawanStream::new(LawauStream::new(std::iter::empty::<Window>().peekable(), a))
                .collect();
        assert!(piped.is_empty());
    }
}
