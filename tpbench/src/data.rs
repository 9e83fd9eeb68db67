//! Bench-side inputs: seeded relations rendered as CSV text (what set-up
//! imports), the cold set-up path shared by all workloads, and the folds the
//! correctness checks compare.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tpdb_storage::{Catalog, Schema, TpRelation, TpTuple, Value};

/// One relation as the benchmark hands it to the engine: a name, a schema
/// and CSV text in `Catalog::import_delimited`'s record format.
pub struct Input {
    pub name: String,
    pub schema: Schema,
    pub csv: String,
}

impl Input {
    pub fn new(name: &str, relation: &TpRelation) -> Self {
        Self {
            name: name.to_owned(),
            schema: relation.schema().clone(),
            csv: to_csv(relation),
        }
    }
}

/// Fact columns, interval start, interval end, probability — one record per
/// tuple. Strings are quoted with `""` escapes, NULL is the empty field.
fn to_csv(relation: &TpRelation) -> String {
    let mut out = String::new();
    for tuple in relation.tuples() {
        for value in tuple.facts() {
            match value {
                Value::Null => {}
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&s.replace('"', "\"\""));
                    out.push('"');
                }
                other => {
                    let _ = write!(out, "{other}");
                }
            }
            out.push(',');
        }
        let _ = writeln!(
            out,
            "{},{},{}",
            tuple.interval().start(),
            tuple.interval().end(),
            tuple.probability()
        );
    }
    out
}

/// Wall times of the storage steps of one cold set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageTimes {
    pub csv_import_s: f64,
    pub snapshot_save_s: f64,
    pub snapshot_load_s: f64,
    pub snapshot_bytes: u64,
}

/// The storage half of a cold set-up: CSV import into an empty catalog →
/// `save_snapshot` → `load_snapshot` into a fresh catalog, which is returned.
pub fn cold_catalog(inputs: &[Input], snapshot: &Path) -> Result<(Catalog, StorageTimes), String> {
    let mut times = StorageTimes::default();
    let started = Instant::now();
    let mut imported = Catalog::new();
    for input in inputs {
        imported
            .import_delimited(&input.name, input.schema.clone(), ',', &input.csv)
            .map_err(|e| format!("import {}: {e}", input.name))?;
    }
    times.csv_import_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    imported
        .save_snapshot(snapshot)
        .map_err(|e| format!("save snapshot: {e}"))?;
    times.snapshot_save_s = started.elapsed().as_secs_f64();
    times.snapshot_bytes = std::fs::metadata(snapshot).map(|m| m.len()).unwrap_or(0);

    let started = Instant::now();
    let mut catalog = Catalog::new();
    catalog
        .load_snapshot(snapshot)
        .map_err(|e| format!("load snapshot: {e}"))?;
    times.snapshot_load_s = started.elapsed().as_secs_f64();
    Ok((catalog, times))
}

/// The benchmark's scratch directory inside the checkout it runs from
/// (the current directory): snapshots while a run lasts, trace files after.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where this process keeps a workload's snapshot while it runs.
pub fn snapshot_path(workload: &str) -> Result<PathBuf, String> {
    Ok(work_dir()?.join(format!("{workload}-{}.snap", std::process::id())))
}

/// What a statement's rows are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    /// Order-sensitive fold of the interval endpoints (checked on every
    /// timed statement).
    pub interval_fold: u64,
    /// Order-sensitive fold of facts, interval endpoints and probability
    /// bits (checked on the warm-up and the last round).
    pub checksum: u64,
}

pub fn interval_fold<'a>(tuples: impl IntoIterator<Item = &'a TpTuple>) -> u64 {
    tuples.into_iter().fold(0u64, |acc, t| {
        let i = t.interval();
        acc.wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(i.start() as u64 ^ (i.end() as u64).rotate_left(32))
    })
}

pub fn checksum<'a>(tuples: impl IntoIterator<Item = &'a TpTuple>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for t in tuples {
        t.facts().hash(&mut hasher);
        t.interval().start().hash(&mut hasher);
        t.interval().end().hash(&mut hasher);
        t.probability().to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

pub fn expected_of(relation: &TpRelation) -> Expected {
    Expected {
        rows: relation.len() as u64,
        interval_fold: interval_fold(relation.iter()),
        checksum: checksum(relation.iter()),
    }
}

/// Compares a result with one computed along an independent path: the same
/// multiset of (facts, interval), probabilities equal to 1e-9. Order is not
/// compared — the two paths may emit in different orders.
pub fn same_answer(ours: &TpRelation, oracle: &TpRelation) -> Result<(), String> {
    if ours.len() != oracle.len() {
        return Err(format!("{} rows, oracle has {}", ours.len(), oracle.len()));
    }
    let key = |t: &TpTuple| (t.facts().to_vec(), t.interval().start(), t.interval().end());
    let mut a: Vec<&TpTuple> = ours.iter().collect();
    let mut b: Vec<&TpTuple> = oracle.iter().collect();
    a.sort_by_key(|t| key(t));
    b.sort_by_key(|t| key(t));
    for (x, y) in a.iter().zip(&b) {
        if key(x) != key(y) {
            return Err(format!("tuple mismatch: {x:?} vs oracle {y:?}"));
        }
        if (x.probability() - y.probability()).abs() > 1e-9 {
            return Err(format!(
                "probability mismatch on {:?}: {} vs oracle {}",
                key(x),
                x.probability(),
                y.probability()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdb_lineage::Lineage;
    use tpdb_storage::DataType;
    use tpdb_temporal::Interval;

    fn relation(rows: &[(i64, i64, i64, f64)]) -> TpRelation {
        let mut rel = TpRelation::new("t", Schema::tp(&[("K", DataType::Int)]));
        for &(k, start, end, p) in rows {
            let tuple = TpTuple::new(
                vec![Value::Int(k)],
                Lineage::tru(),
                Interval::new(start, end),
                p,
            );
            rel.push(tuple).expect("schema-valid");
        }
        rel
    }

    #[test]
    fn same_answer_ignores_order_and_tolerates_1e9_only() {
        let ours = relation(&[(1, 0, 5, 0.25), (2, 3, 9, 0.5)]);
        let reordered = relation(&[(2, 3, 9, 0.5 + 1e-12), (1, 0, 5, 0.25)]);
        assert!(same_answer(&ours, &reordered).is_ok());
        assert!(same_answer(&ours, &relation(&[(1, 0, 5, 0.25), (2, 3, 9, 0.5001)])).is_err());
        assert!(same_answer(&ours, &relation(&[(1, 0, 5, 0.25), (2, 3, 8, 0.5)])).is_err());
        assert!(same_answer(&ours, &relation(&[(1, 0, 5, 0.25)])).is_err());
    }

    #[test]
    fn folds_are_order_sensitive_and_see_every_field() {
        let a = relation(&[(1, 0, 5, 0.25), (2, 3, 9, 0.5)]);
        let swapped = relation(&[(2, 3, 9, 0.5), (1, 0, 5, 0.25)]);
        assert_ne!(
            expected_of(&a).interval_fold,
            expected_of(&swapped).interval_fold
        );
        assert_ne!(expected_of(&a).checksum, expected_of(&swapped).checksum);
        let other_p = relation(&[(1, 0, 5, 0.25), (2, 3, 9, 0.75)]);
        assert_eq!(
            expected_of(&a).interval_fold,
            expected_of(&other_p).interval_fold
        );
        assert_ne!(expected_of(&a).checksum, expected_of(&other_p).checksum);
    }

    #[test]
    fn csv_round_trips_through_the_importer() {
        let (r, _) = tpdb_datagen::meteo_like(200, 5);
        let input = Input::new("copy", &r);
        let mut catalog = Catalog::new();
        let imported = catalog
            .import_delimited(&input.name, input.schema.clone(), ',', &input.csv)
            .expect("imports");
        assert_eq!(imported.len(), r.len());
        assert_eq!(interval_fold(imported.iter()), interval_fold(r.iter()));
    }
}
