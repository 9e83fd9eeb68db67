//! Half-open time intervals `[start, end)`.

use crate::point::{TimePoint, MAX_TIME, MIN_TIME};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error raised when constructing an invalid interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntervalError {
    /// The start point was not strictly smaller than the end point.
    Empty {
        /// Offending start point.
        start: TimePoint,
        /// Offending end point.
        end: TimePoint,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Empty { start, end } => {
                write!(f, "empty interval: start {start} must be < end {end}")
            }
        }
    }
}

impl std::error::Error for IntervalError {}

/// A half-open, non-empty time interval `[start, end)`.
///
/// Invariant: `start < end`. An interval is valid at every time point `t`
/// with `start <= t < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    start: TimePoint,
    end: TimePoint,
}

impl Interval {
    /// Creates a new interval `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start >= end`. Use [`Interval::try_new`] for a fallible
    /// constructor.
    #[must_use]
    pub fn new(start: TimePoint, end: TimePoint) -> Self {
        Self::try_new(start, end).expect("interval start must be < end")
    }

    /// Creates a new interval `[start, end)`, returning an error when it
    /// would be empty.
    pub fn try_new(start: TimePoint, end: TimePoint) -> Result<Self, IntervalError> {
        if start < end {
            Ok(Self { start, end })
        } else {
            Err(IntervalError::Empty { start, end })
        }
    }

    /// The interval spanning the whole representable timeline.
    #[must_use]
    pub fn always() -> Self {
        Self {
            start: MIN_TIME,
            end: MAX_TIME,
        }
    }

    /// Inclusive start point.
    #[must_use]
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// Exclusive end point.
    #[must_use]
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// Number of chronons covered by the interval.
    #[must_use]
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }

    /// Does the interval contain time point `t`?
    #[must_use]
    pub fn contains_point(&self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// Does `self` fully contain `other` (not necessarily strictly)?
    #[must_use]
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Do the two intervals share at least one time point?
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection of the two intervals, or `None` when they are
    /// disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// Iterates over every time point covered by the interval. Intended for
    /// tests and semantic (point-wise) checks, not for production paths.
    pub fn points(&self) -> impl Iterator<Item = TimePoint> {
        self.start..self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(2, 8);
        assert_eq!(i.start(), 2);
        assert_eq!(i.end(), 8);
        assert_eq!(i.duration(), 6);
        assert_eq!(i.to_string(), "[2,8)");
    }

    #[test]
    fn empty_interval_is_rejected() {
        assert!(Interval::try_new(5, 5).is_err());
        assert!(Interval::try_new(6, 5).is_err());
        let err = Interval::try_new(6, 5).unwrap_err();
        assert!(err.to_string().contains("empty interval"));
    }

    #[test]
    #[should_panic(expected = "interval start must be < end")]
    fn new_panics_on_empty() {
        let _ = Interval::new(3, 3);
    }

    #[test]
    fn point_containment_is_half_open() {
        let i = Interval::new(2, 8);
        assert!(i.contains_point(2));
        assert!(i.contains_point(7));
        assert!(!i.contains_point(8));
        assert!(!i.contains_point(1));
    }

    #[test]
    fn overlap_and_adjacency() {
        let a = Interval::new(2, 8);
        let b = Interval::new(5, 10);
        let c = Interval::new(8, 12);
        assert!(a.overlaps(&b));
        // [2,8) and [8,12) meet at 8 but share no time point.
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn intersection_matches_paper_example() {
        // a1 [2,8) with b3 [4,6)  ->  [4,6)   (Fig. 1 of the paper)
        let a1 = Interval::new(2, 8);
        let b3 = Interval::new(4, 6);
        assert_eq!(a1.intersect(&b3), Some(Interval::new(4, 6)));
        // a1 [2,8) with b2 [5,8)  ->  [5,8)
        let b2 = Interval::new(5, 8);
        assert_eq!(a1.intersect(&b2), Some(Interval::new(5, 8)));
        // disjoint
        let b1 = Interval::new(1, 4);
        let a2 = Interval::new(7, 10);
        assert_eq!(a2.intersect(&b1), None);
    }

    #[test]
    fn contains_interval() {
        let a = Interval::new(2, 10);
        assert!(a.contains(&Interval::new(2, 10)));
        assert!(a.contains(&Interval::new(3, 9)));
        assert!(!a.contains(&Interval::new(1, 9)));
        assert!(!a.contains(&Interval::new(3, 11)));
    }

    #[test]
    fn always_spans_everything() {
        let a = Interval::always();
        assert!(a.contains(&Interval::new(-1_000_000, 1_000_000)));
    }

    #[test]
    fn points_iterator_enumerates_chronons() {
        let pts: Vec<_> = Interval::new(3, 7).points().collect();
        assert_eq!(pts, vec![3, 4, 5, 6]);
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-1000i64..1000, 1i64..100).prop_map(|(s, d)| Interval::new(s, s + d))
    }

    proptest! {
        #[test]
        fn prop_intersection_is_commutative(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        #[test]
        fn prop_intersection_contained_in_both(a in arb_interval(), b in arb_interval()) {
            if let Some(i) = a.intersect(&b) {
                prop_assert!(a.contains(&i));
                prop_assert!(b.contains(&i));
            }
        }

        #[test]
        fn prop_overlap_iff_nonempty_intersection(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_some());
        }

    }
}
