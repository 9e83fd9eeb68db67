//! Delimited text as the benchmark renders it for `Catalog::import_delimited`:
//! fact columns, interval start, interval end, probability, one record per
//! tuple; strings quoted with `""` escapes, NULL the empty field.

use std::fmt::Write as _;
use tpdb::storage::{TpTuple, Value};

/// The records of `tuples`, each ended by `\n`.
pub fn to_csv(tuples: &[TpTuple]) -> String {
    let mut out = String::new();
    for tuple in tuples {
        for value in tuple.facts() {
            match value {
                Value::Null => {}
                Value::Str(s) => {
                    let _ = write!(out, "\"{}\"", s.replace('"', "\"\""));
                }
                other => {
                    let _ = write!(out, "{other}");
                }
            }
            out.push(',');
        }
        let interval = tuple.interval();
        let (start, end, p) = (interval.start(), interval.end(), tuple.probability());
        let _ = writeln!(out, "{start},{end},{p}");
    }
    out
}
