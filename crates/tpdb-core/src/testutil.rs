//! Shared test fixtures for the core crate (test builds only).

use tpdb_lineage::{Lineage, SymbolTable, VarId};
use tpdb_storage::{DataType, Schema, TpRelation, TpTuple, Value};
use tpdb_temporal::Interval;

/// Builds the running example of the paper (Fig. 1): the booking-website
/// relations `a` (wantsToVisit) and `b` (hotelAvailability), with the base
/// lineage symbols `a1, a2, b1, b2, b3`.
pub(crate) fn booking_relations() -> (TpRelation, TpRelation, SymbolTable) {
    let mut syms = SymbolTable::new();
    let a1 = syms.intern("a1");
    let a2 = syms.intern("a2");
    let b1 = syms.intern("b1");
    let b2 = syms.intern("b2");
    let b3 = syms.intern("b3");

    let mut a = TpRelation::new(
        "a",
        Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]),
    );
    a.push(TpTuple::new(
        vec![Value::str("Ann"), Value::str("ZAK")],
        Lineage::var(a1),
        Interval::new(2, 8),
        0.7,
    ))
    .unwrap();
    a.push(TpTuple::new(
        vec![Value::str("Jim"), Value::str("WEN")],
        Lineage::var(a2),
        Interval::new(7, 10),
        0.8,
    ))
    .unwrap();

    let mut b = TpRelation::new(
        "b",
        Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)]),
    );
    b.push(TpTuple::new(
        vec![Value::str("hotel3"), Value::str("SOR")],
        Lineage::var(b1),
        Interval::new(1, 4),
        0.9,
    ))
    .unwrap();
    b.push(TpTuple::new(
        vec![Value::str("hotel2"), Value::str("ZAK")],
        Lineage::var(b2),
        Interval::new(5, 8),
        0.6,
    ))
    .unwrap();
    b.push(TpTuple::new(
        vec![Value::str("hotel1"), Value::str("ZAK")],
        Lineage::var(b3),
        Interval::new(4, 6),
        0.7,
    ))
    .unwrap();
    (a, b, syms)
}

/// A single-column relation with one tuple per `(key, start, duration)` row
/// and variables numbered from `var_offset`. Same-key tuples may overlap, so
/// as a negative side it gives LAWAN active sets of several operands,
/// identical intervals included.
pub(crate) fn keyed_relation(name: &str, var_offset: u32, rows: &[(i64, i64, i64)]) -> TpRelation {
    let mut rel = TpRelation::new(name, Schema::tp(&[("k", DataType::Int)]));
    for (i, (key, start, duration)) in rows.iter().enumerate() {
        rel.push(TpTuple::new(
            vec![Value::Int(*key)],
            Lineage::var(VarId(var_offset + i as u32)),
            Interval::new(*start, *start + *duration),
            0.5,
        ))
        .unwrap();
    }
    rel
}
