//! Endpoint-sorted interval partitions for sweep-based overlap joins.
//!
//! [`sort_partition`] and [`overlapping_in`] are the two kernels of the
//! overlap join's build side: the intervals of one join-key partition
//! sorted by starting point, together with the largest interval duration
//! of the partition. The join's probe index (`tpdb_storage::ProbeIndex`)
//! keeps one such partition per key and calls them;
//! [`SortedIntervalIndex`] wraps them for a single partition (tpbench's
//! `temporal.index_build_ms` times its build). An overlap probe then needs
//! a single binary search plus a bounded forward scan:
//!
//! * every interval with `start <= query.start - max_duration` has
//!   `end <= query.start` and can be skipped wholesale (the binary search),
//! * every interval with `start >= query.end` lies entirely after the query
//!   (the scan stops there),
//! * the survivors are checked with one comparison (`end > query.start`).
//!
//! Crucially, candidates come out in ascending `start` order, so the
//! intersections with the probe interval are produced with non-decreasing
//! starting points — the order the lineage-aware window algorithms (LAWAU /
//! LAWAN) expect — without any re-sorting of the join output.

use crate::{Interval, TimePoint};

/// The intervals of one build-side partition, sorted by
/// `(start, end, payload)`, with the partition's maximum duration.
///
/// `payload` is an opaque index into the caller's collection (e.g. the tuple
/// index of the negative relation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedIntervalIndex {
    items: Vec<(Interval, usize)>,
    /// Widened to `i128`: an interval spanning (almost) the whole `i64`
    /// domain has a duration that overflows `i64`, and a wrapped or clamped
    /// value would make [`Self::overlapping`] skip genuine matches.
    max_duration: i128,
}

impl SortedIntervalIndex {
    /// Builds the index from an unsorted `(interval, payload)` list.
    #[must_use]
    pub fn new(mut items: Vec<(Interval, usize)>) -> Self {
        let max_duration = sort_partition(&mut items);
        Self {
            items,
            max_duration,
        }
    }

    /// Starts an incremental build of an index: the overlap join streams
    /// each build-side tuple into the builder of its join-key partition and
    /// sorts every partition once, in [`finish`](SortedIntervalIndexBuilder::finish).
    ///
    /// ```
    /// use tpdb_temporal::{Interval, SortedIntervalIndex};
    ///
    /// let mut builder = SortedIntervalIndex::builder();
    /// builder.push(Interval::new(5, 8), 0);
    /// builder.push(Interval::new(1, 4), 1);
    /// let index = builder.finish();
    /// assert_eq!(index.items()[0], (Interval::new(1, 4), 1));
    /// assert_eq!(index.max_duration(), 3);
    /// ```
    #[must_use]
    pub fn builder() -> SortedIntervalIndexBuilder {
        SortedIntervalIndexBuilder { items: Vec::new() }
    }

    /// Number of indexed intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the index empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The indexed `(interval, payload)` pairs in `(start, end, payload)`
    /// order.
    #[must_use]
    pub fn items(&self) -> &[(Interval, usize)] {
        &self.items
    }

    /// The largest duration of any indexed interval (0 when empty). `i128`
    /// because an interval may span (almost) the whole `i64` time domain.
    #[must_use]
    pub fn max_duration(&self) -> i128 {
        self.max_duration
    }

    /// All `(interval, payload)` pairs overlapping `query`, in ascending
    /// `(start, end, payload)` order.
    pub fn overlapping(&self, query: Interval) -> impl Iterator<Item = (Interval, usize)> + '_ {
        overlapping_in(&self.items, self.max_duration, query)
    }
}

/// Sorts one partition's `(interval, payload)` pairs by
/// `(start, end, payload)` in place and returns its largest duration (0
/// when empty), the two facts [`overlapping_in`] probes it with. A caller
/// that keeps many partitions in one array sorts each range with it.
pub fn sort_partition(items: &mut [(Interval, usize)]) -> i128 {
    items.sort_unstable_by_key(|(iv, payload)| (iv.start(), iv.end(), *payload));
    items
        .iter()
        .map(|(iv, _)| i128::from(iv.end()) - i128::from(iv.start()))
        .max()
        .unwrap_or(0)
}

/// All `(interval, payload)` pairs of a partition sorted by
/// [`sort_partition`] that overlap `query`, in ascending
/// `(start, end, payload)` order; `max_duration` is what the sort returned.
pub fn overlapping_in(
    items: &[(Interval, usize)],
    max_duration: i128,
    query: Interval,
) -> impl Iterator<Item = (Interval, usize)> + '_ {
    let qs: TimePoint = query.start();
    let qe: TimePoint = query.end();
    // Intervals starting at or before this cutoff ended at or before
    // `query.start` (their duration is bounded by `max_duration`), so the
    // scan may begin past them. Computed in i128 — see
    // `SortedIntervalIndex::max_duration`.
    let cutoff = i128::from(qs) - max_duration;
    let lo = items.partition_point(|(iv, _)| i128::from(iv.start()) <= cutoff);
    items[lo..]
        .iter()
        .take_while(move |(iv, _)| iv.start() < qe)
        .filter(move |(iv, _)| iv.end() > qs)
        .copied()
}

/// Incremental construction of a [`SortedIntervalIndex`] (see
/// [`SortedIntervalIndex::builder`]). Intervals are pushed in any order; the
/// sort and the maximum-duration computation happen once in
/// [`finish`](Self::finish).
#[derive(Debug, Clone, Default)]
pub struct SortedIntervalIndexBuilder {
    items: Vec<(Interval, usize)>,
}

impl SortedIntervalIndexBuilder {
    /// Adds one `(interval, payload)` pair to the index under construction.
    pub fn push(&mut self, interval: Interval, payload: usize) {
        self.items.push((interval, payload));
    }

    /// Number of pairs pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Has nothing been pushed yet?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorts the accumulated pairs and produces the finished index.
    #[must_use]
    pub fn finish(self) -> SortedIntervalIndex {
        SortedIntervalIndex::new(self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn idx(ivs: &[(i64, i64)]) -> SortedIntervalIndex {
        SortedIntervalIndex::new(
            ivs.iter()
                .enumerate()
                .map(|(i, (s, e))| (Interval::new(*s, *e), i))
                .collect(),
        )
    }

    #[test]
    fn builder_matches_batch_construction() {
        let ivs = [(5i64, 8i64), (1, 4), (3, 9), (7, 12)];
        let batch = idx(&ivs);
        let mut builder = SortedIntervalIndex::builder();
        assert!(builder.is_empty());
        for (i, (s, e)) in ivs.iter().enumerate() {
            builder.push(Interval::new(*s, *e), i);
        }
        assert_eq!(builder.len(), 4);
        assert_eq!(builder.finish(), batch);
        assert!(SortedIntervalIndex::builder().finish().is_empty());
    }

    #[test]
    fn empty_index_yields_nothing() {
        let index = SortedIntervalIndex::new(Vec::new());
        assert!(index.is_empty());
        assert_eq!(index.max_duration(), 0);
        assert_eq!(index.overlapping(Interval::new(0, 10)).count(), 0);
    }

    #[test]
    fn candidates_come_out_in_start_order() {
        let index = idx(&[(5, 8), (1, 4), (3, 9), (7, 12)]);
        let hits: Vec<i64> = index
            .overlapping(Interval::new(0, 100))
            .map(|(iv, _)| iv.start())
            .collect();
        assert_eq!(hits, vec![1, 3, 5, 7]);
    }

    #[test]
    fn long_interval_before_the_probe_is_found() {
        // The binary search must not skip an early-starting interval whose
        // end reaches into the probe.
        let index = idx(&[(0, 100), (40, 42), (90, 95)]);
        let hits: Vec<usize> = index
            .overlapping(Interval::new(50, 60))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn meeting_intervals_do_not_overlap() {
        // Half-open semantics: [1,5) and [5,9) share no time point.
        let index = idx(&[(1, 5), (5, 9)]);
        let hits: Vec<usize> = index
            .overlapping(Interval::new(5, 9))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn single_point_intervals() {
        let index = idx(&[(3, 4), (4, 5), (5, 6)]);
        let hits: Vec<usize> = index
            .overlapping(Interval::new(4, 5))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn extreme_endpoint_interval_does_not_overflow() {
        // An interval spanning (almost) the whole i64 domain must clamp its
        // duration instead of wrapping negative and skipping matches.
        let index = idx(&[(i64::MIN + 1, i64::MAX - 1), (10, 20)]);
        assert!(index.max_duration() > 0);
        let hits: Vec<usize> = index
            .overlapping(Interval::new(12, 15))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits, vec![0, 1]);
    }

    fn arb_intervals() -> impl Strategy<Value = Vec<(i64, i64)>> {
        proptest::collection::vec((-20i64..40, 1i64..15).prop_map(|(s, d)| (s, s + d)), 0..24)
    }

    proptest! {
        #[test]
        fn prop_overlap_query_matches_naive_scan(
            ivs in arb_intervals(),
            qs in -25i64..45,
            qd in 1i64..12,
        ) {
            let query = Interval::new(qs, qs + qd);
            let index = idx(&ivs);
            let mut expected: Vec<usize> = ivs
                .iter()
                .enumerate()
                .filter(|(_, (s, e))| Interval::new(*s, *e).overlaps(&query))
                .map(|(i, _)| i)
                .collect();
            let mut actual: Vec<usize> = index.overlapping(query).map(|(_, p)| p).collect();
            expected.sort_unstable();
            actual.sort_unstable();
            prop_assert_eq!(actual, expected);
        }

        #[test]
        fn prop_candidates_are_start_ordered(ivs in arb_intervals(), qs in -25i64..45) {
            let query = Interval::new(qs, qs + 8);
            let index = idx(&ivs);
            let starts: Vec<i64> = index.overlapping(query).map(|(iv, _)| iv.start()).collect();
            for pair in starts.windows(2) {
                prop_assert!(pair[0] <= pair[1]);
            }
        }
    }
}
