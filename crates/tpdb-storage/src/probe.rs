//! The build side of the overlap join, and the memo that keeps it with a
//! stored relation.
//!
//! The overlap join (Section III-A) probes the negative relation `s` once
//! per positive tuple. [`ProbeIndex`] partitions `s` on a list of its
//! columns — θ's equality columns on `s`'s side, or every column for a set
//! operation — and sorts each partition by interval start, so that a probe
//! is one hash lookup, one binary search and a forward scan
//! ([`overlapping_in`]).
//!
//! A relation stored in a [`Catalog`](crate::Catalog) never changes, so it
//! keeps the index of each column list it was probed on ([`ProbeMemo`]):
//! the first probe builds it, every later statement, pass and catalog
//! clone shares it, and it is freed with the relation. Any other relation
//! has no memo and builds one index per pass.
//!
//! The query layer's `WHERE column = literal` over a stored relation reads
//! the same memo: [`ProbeIndex::positions`] is a key's tuples, so an
//! equality selection visits its matches instead of every tuple.

use crate::relation::TpRelation;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tpdb_temporal::{overlapping_in, sort_partition, Interval};

/// The overlap join's probe index over one relation: its tuples
/// partitioned on a column list, each partition sorted by
/// `(start, end, tuple index)`. A tuple whose key holds a NULL matches
/// nothing (θ's `=` is false on NULL) and is left out.
///
/// Stored exactly sized, since a stored relation keeps it for its
/// lifetime: one item array grouped by key and sorted within each group,
/// and per key its range of that array and its largest duration.
#[derive(Debug)]
pub struct ProbeIndex {
    partitions: HashMap<Box<[Value]>, Partition>,
    /// `(interval, tuple index)` of every indexed tuple.
    items: Box<[(Interval, usize)]>,
}

/// One key's range of [`ProbeIndex::items`] and its largest duration.
#[derive(Debug, Clone, Copy)]
struct Partition {
    start: usize,
    end: usize,
    max_duration: i128,
}

impl ProbeIndex {
    /// Partitions `s` on the values of `columns` (in that order; the empty
    /// list makes one partition of every tuple).
    #[must_use]
    pub fn build(s: &TpRelation, columns: &[usize]) -> Self {
        const LEFT_OUT: usize = usize::MAX;
        // Each key's number, in order of first appearance, and each
        // tuple's key number.
        let mut numbers: HashMap<Box<[Value]>, usize> = HashMap::new();
        let mut number_of = Vec::with_capacity(s.len());
        let mut sizes: Vec<usize> = Vec::new();
        let mut key = Vec::with_capacity(columns.len());
        for tuple in s.iter() {
            key_into(tuple.facts(), columns, &mut key);
            if has_null(&key) {
                number_of.push(LEFT_OUT);
                continue;
            }
            let number = match numbers.get(key.as_slice()) {
                Some(&number) => number,
                None => {
                    numbers.insert(key.as_slice().into(), sizes.len());
                    sizes.push(0);
                    sizes.len() - 1
                }
            };
            sizes[number] += 1;
            number_of.push(number);
        }
        // Counting sort by key number, then one sort per range.
        let mut next = Vec::with_capacity(sizes.len());
        let mut total = 0;
        for size in &sizes {
            next.push(total);
            total += size;
        }
        let mut items = vec![(Interval::always(), 0); total].into_boxed_slice();
        for (si, (tuple, &number)) in s.iter().zip(&number_of).enumerate() {
            if number != LEFT_OUT {
                items[next[number]] = (tuple.interval(), si);
                next[number] += 1;
            }
        }
        let mut ranges = Vec::with_capacity(sizes.len());
        for (&end, size) in next.iter().zip(&sizes) {
            let start = end - size;
            let max_duration = sort_partition(&mut items[start..end]);
            ranges.push(Partition {
                start,
                end,
                max_duration,
            });
        }
        let partitions = numbers
            .into_iter()
            .map(|(key, number)| (key, ranges[number]))
            .collect();
        ProbeIndex { partitions, items }
    }

    /// The `(interval, tuple index)` pairs of `key`'s partition that
    /// overlap `query`, in ascending `(start, end, tuple index)` order;
    /// `None` when `key` holds a NULL or no tuple has it.
    pub fn overlapping(
        &self,
        key: &[Value],
        query: Interval,
    ) -> Option<impl Iterator<Item = (Interval, usize)> + '_> {
        if has_null(key) {
            return None;
        }
        let p = self.partitions.get(key)?;
        Some(overlapping_in(
            &self.items[p.start..p.end],
            p.max_duration,
            query,
        ))
    }

    /// The tuple indices of `key`'s partition, in `(start, end, tuple
    /// index)` order; empty when `key` holds a NULL or no tuple has it.
    /// A key matches by [`Value`]'s equality, which is θ's and `WHERE`'s `=`.
    pub fn positions(&self, key: &[Value]) -> impl Iterator<Item = usize> + '_ {
        let range = if has_null(key) {
            None
        } else {
            self.partitions.get(key).map(|p| p.start..p.end)
        };
        self.items[range.unwrap_or_default()]
            .iter()
            .map(|&(_, si)| si)
    }
}

/// Overwrites `key` with `facts`' values at `columns`.
fn key_into(facts: &[Value], columns: &[usize], key: &mut Vec<Value>) {
    key.clear();
    key.extend(columns.iter().map(|&c| facts[c].clone()));
}

/// Does a key hold a NULL? Such a key matches nothing.
fn has_null(key: &[Value]) -> bool {
    key.iter().any(Value::is_null)
}

/// The probe indexes a stored relation was probed with, one per column
/// list. The lookup runs under a short lock and the build outside it; when
/// two threads build the same index, the first insert wins (both are
/// equal).
#[derive(Default)]
pub(crate) struct ProbeMemo(Mutex<Vec<Memoized>>);

/// A probed column list and its index.
type Memoized = (Box<[usize]>, Arc<ProbeIndex>);

impl ProbeMemo {
    /// The index of `s` on `columns`, built on the first call.
    pub(crate) fn get_or_build(&self, s: &TpRelation, columns: &[usize]) -> Arc<ProbeIndex> {
        if let Some(index) = self.get(columns) {
            return index;
        }
        let built = Arc::new(ProbeIndex::build(s, columns));
        let mut memo = self.lock();
        if let Some(index) = find(&memo, columns) {
            return index;
        }
        memo.push((columns.into(), Arc::clone(&built)));
        built
    }

    /// The index on `columns`, when it was built.
    pub(crate) fn get(&self, columns: &[usize]) -> Option<Arc<ProbeIndex>> {
        find(&self.lock(), columns)
    }

    /// A poisoned lock is recovered: an entry is pushed whole, after its
    /// build, so no panic leaves one half-written.
    fn lock(&self) -> MutexGuard<'_, Vec<Memoized>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The memoized index on `columns`.
fn find(memo: &[Memoized], columns: &[usize]) -> Option<Arc<ProbeIndex>> {
    memo.iter()
        .find(|(c, _)| **c == *columns)
        .map(|(_, index)| Arc::clone(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::{DataType, Schema};
    use crate::tuple::TpTuple;
    use tpdb_lineage::{Lineage, VarId};

    /// `(key, start, end)` rows over one INT column; key `None` is NULL.
    fn relation(name: &str, rows: &[(Option<i64>, i64, i64)]) -> TpRelation {
        let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
        for (i, &(k, start, end)) in rows.iter().enumerate() {
            let key = k.map_or(Value::Null, Value::Int);
            rel.push(TpTuple::new(
                vec![key],
                Lineage::var(VarId(i as u32)),
                Interval::new(start, end),
                0.5,
            ))
            .unwrap();
        }
        rel
    }

    fn rows() -> Vec<(Option<i64>, i64, i64)> {
        vec![
            (Some(1), 5, 9),
            (Some(2), 0, 3),
            (None, 0, 100),
            (Some(1), 0, 2),
            (Some(1), 3, 40),
            (Some(2), 4, 6),
        ]
    }

    fn hits(index: &ProbeIndex, key: &[Value], query: Interval) -> Option<Vec<usize>> {
        Some(index.overlapping(key, query)?.map(|(_, si)| si).collect())
    }

    #[test]
    fn partitions_hold_their_keys_tuples_in_start_order_and_no_null() {
        let s = relation("s", &rows());
        let index = ProbeIndex::build(&s, &[0]);
        let all = Interval::new(-10, 100);
        assert_eq!(hits(&index, &[Value::Int(1)], all), Some(vec![3, 4, 0]));
        assert_eq!(hits(&index, &[Value::Int(2)], all), Some(vec![1, 5]));
        // The long key-1 tuple [3, 40) is found past the short ones.
        let late = Interval::new(20, 21);
        assert_eq!(hits(&index, &[Value::Int(1)], late), Some(vec![4]));
        assert_eq!(hits(&index, &[Value::Int(3)], all), None);
        assert_eq!(hits(&index, &[Value::Null], all), None);
        // The empty column list is one partition of every tuple.
        let one = ProbeIndex::build(&s, &[]);
        assert_eq!(hits(&one, &[], all), Some(vec![3, 1, 2, 4, 5, 0]));
        let empty = ProbeIndex::build(&relation("e", &[]), &[0]);
        assert_eq!(hits(&empty, &[Value::Int(1)], all), None);
    }

    #[test]
    fn positions_are_a_keys_tuples_whatever_their_intervals() {
        let s = relation("s", &rows());
        let index = ProbeIndex::build(&s, &[0]);
        let positions = |key: Value| index.positions(&[key]).collect::<Vec<_>>();
        assert_eq!(positions(Value::Int(1)), [3, 4, 0]);
        // An exactly representable float is the integer's key.
        assert_eq!(positions(Value::Float(2.0)), [1, 5]);
        assert_eq!(positions(Value::Float(2.5)), []);
        assert_eq!(positions(Value::Int(3)), []);
        // The NULL-keyed tuple 2 is in no partition and NULL finds nothing.
        assert_eq!(positions(Value::Null), []);
    }

    #[test]
    fn the_documented_layout_sizes_hold() {
        // docs/ARCHITECTURE.md's memory formula: 24 bytes per item, 48 per
        // map entry, 24 per key value.
        assert_eq!(size_of::<(Interval, usize)>(), 24);
        assert_eq!(size_of::<(Box<[Value]>, Partition)>(), 48);
        assert_eq!(size_of::<Value>(), 24);
    }

    #[test]
    fn a_stored_relation_builds_each_index_once_and_shares_it() {
        let mut catalog = Catalog::new();
        catalog.register(relation("s", &rows())).unwrap();
        let stored = catalog.relation("s").unwrap();
        assert!(stored.probes.is_some());
        assert!(stored.memoized_probe_index(&[0]).is_none());
        let first = stored.probe_index(&[0]);
        assert!(Arc::ptr_eq(&first, &stored.probe_index(&[0])));
        let memoized = stored.memoized_probe_index(&[0]).unwrap();
        assert!(Arc::ptr_eq(&first, &memoized));
        // A catalog clone shares the relation, so the index too.
        let clone = catalog.clone().relation("s").unwrap();
        assert!(Arc::ptr_eq(&first, &clone.probe_index(&[0])));
        // Another column list is an index of its own.
        assert!(!Arc::ptr_eq(&first, &stored.probe_index(&[])));
        let memo = stored.probes.as_ref().unwrap();
        assert_eq!(memo.lock().len(), 2);
    }

    #[test]
    fn values_made_from_a_stored_relation_carry_no_memo() {
        let mut catalog = Catalog::new();
        catalog.register(relation("s", &rows())).unwrap();
        let stored = catalog.relation("s").unwrap();
        let _ = stored.probe_index(&[0]);
        let cloned = TpRelation::clone(&stored);
        let renamed = stored.renamed("s2");
        let filtered = stored.filter(|_| true);
        for made in [&cloned, &renamed, &filtered] {
            assert!(made.probes.is_none(), "{}", made.name());
            assert!(!made.memoizes_probes());
            assert!(made.memoized_probe_index(&[0]).is_none());
            assert!(!Arc::ptr_eq(
                &made.probe_index(&[0]),
                &made.probe_index(&[0])
            ));
        }
        // Equality and `Debug` ignore the memo.
        assert_eq!(cloned, *stored);
        assert_eq!(format!("{cloned:?}"), format!("{stored:?}"));
        // A write drops it.
        let mut written = TpRelation::clone(&stored);
        written.memoize_probes();
        written.reserve(1);
        assert!(written.probes.is_none());
        written.memoize_probes();
        written.push_unchecked(cloned.tuple(0).clone());
        assert!(written.probes.is_none());
    }

    #[test]
    fn a_snapshot_load_and_a_builder_install_the_memo() {
        let mut catalog = Catalog::new();
        let mut builder = catalog
            .create_relation("b", Schema::tp(&[("k", DataType::Int)]))
            .unwrap();
        builder.push(vec![Value::Int(1)], Interval::new(0, 4), 0.5);
        assert!(builder.finish().probes.is_some());
        let mut loaded = Catalog::new();
        loaded
            .load_snapshot_bytes(&catalog.to_snapshot_bytes().unwrap())
            .unwrap();
        assert!(loaded.relation("b").unwrap().probes.is_some());
    }
}
