//! The priority queue of ending points LAWAN sweeps with.

use crate::TimePoint;
use std::collections::BinaryHeap;

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
