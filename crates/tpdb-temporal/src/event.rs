//! Boundary events used by sweep-line algorithms.

use crate::{Interval, TimePoint};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// The kind of boundary an event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A tuple/window starts being valid at the event's time point.
    Start,
    /// A tuple/window stops being valid at the event's time point
    /// (exclusive end of its interval).
    End,
}

/// A time-point boundary of some interval, tagged with the index of the item
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Time point at which the boundary occurs.
    pub time: TimePoint,
    /// Whether the item starts or ends here.
    pub kind: EventKind,
    /// Index of the originating item in the caller's collection.
    pub item: usize,
}

/// A single boundary (start or end point) without item attribution; used by
/// the LAWAN sweep to reason about "the next point at which the set of valid
/// negative tuples changes".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Boundary(pub TimePoint);

/// Generates the start/end events of a sequence of intervals, sorted by time
/// with `End` events ordered before `Start` events at equal time points.
///
/// Ordering ends before starts at the same point matters: with half-open
/// intervals an item ending at `t` and another starting at `t` do not
/// co-exist at `t`.
#[must_use]
pub fn events_of<'a, I>(intervals: I) -> Vec<Event>
where
    I: IntoIterator<Item = &'a Interval>,
{
    let mut events = Vec::new();
    for (item, iv) in intervals.into_iter().enumerate() {
        events.push(Event {
            time: iv.start(),
            kind: EventKind::Start,
            item,
        });
        events.push(Event {
            time: iv.end(),
            kind: EventKind::End,
            item,
        });
    }
    sort_events(&mut events);
    events
}

/// Sorts events by `(time, End-before-Start, item)`.
pub fn sort_events(events: &mut [Event]) {
    events.sort_by_key(|e| (e.time, matches!(e.kind, EventKind::Start), e.item));
}

/// A min-heap of upcoming ending points.
///
/// LAWAN keeps "the ending points ... of the tuples of relation s in the
/// overlapping windows ... in a priority queue" (Section III-C); this is that
/// queue. It stores `(end_point, item_index)` pairs and pops the smallest end
/// point first.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<(TimePoint, usize)>>,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an ending point for `item`.
    pub fn push(&mut self, end: TimePoint, item: usize) {
        self.heap.push(std::cmp::Reverse((end, item)));
    }

    /// The smallest ending point currently queued.
    #[must_use]
    pub fn peek(&self) -> Option<(TimePoint, usize)> {
        self.heap.peek().map(|r| r.0)
    }

    /// Removes and returns the smallest ending point.
    pub fn pop(&mut self) -> Option<(TimePoint, usize)> {
        self.heap.pop().map(|r| r.0)
    }

    /// Removes the smallest queued ending point if it is `<= t` and returns
    /// the item whose interval has expired; `None` leaves the queue
    /// untouched. Called in a `while let`, it drains everything expired at
    /// `t` — smallest end first, ties by item index — without allocating.
    pub fn pop_if_expired(&mut self, t: TimePoint) -> Option<usize> {
        let (end, item) = self.peek()?;
        if end > t {
            return None;
        }
        self.heap.pop();
        Some(item)
    }

    /// Number of queued ending points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all queued entries.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sorted_ends_before_starts() {
        let ivs = vec![Interval::new(1, 4), Interval::new(4, 6)];
        let ev = events_of(&ivs);
        assert_eq!(ev.len(), 4);
        // at t=4 the End of item 0 must come before the Start of item 1
        assert_eq!(
            ev[1],
            Event {
                time: 4,
                kind: EventKind::End,
                item: 0
            }
        );
        assert_eq!(
            ev[2],
            Event {
                time: 4,
                kind: EventKind::Start,
                item: 1
            }
        );
    }

    #[test]
    fn event_queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(8, 0);
        q.push(6, 1);
        q.push(10, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some((6, 1)));
        assert_eq!(q.pop(), Some((6, 1)));
        assert_eq!(q.pop(), Some((8, 0)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_expired_drains_all_past_entries_in_order() {
        let mut q = EventQueue::new();
        q.push(5, 2);
        q.push(3, 0);
        q.push(9, 3);
        q.push(5, 1);
        let drain = |q: &mut EventQueue, t| std::iter::from_fn(|| q.pop_if_expired(t)).collect();
        // smallest end first, ties by item index
        let expired: Vec<usize> = drain(&mut q, 5);
        assert_eq!(expired, vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_expired(4), None);
        assert_eq!(q.peek(), Some((9, 3)), "an unexpired head stays queued");
        let expired: Vec<usize> = drain(&mut q, 100);
        assert_eq!(expired, vec![3]);
        assert!(q.is_empty());
        assert_eq!(q.pop_if_expired(100), None);
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.push(1, 0);
        q.clear();
        assert!(q.is_empty());
    }
}
