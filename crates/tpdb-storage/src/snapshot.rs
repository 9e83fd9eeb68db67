//! Durable binary snapshots of a [`Catalog`] and delimited bulk import.
//!
//! # On-disk layout (version 1)
//!
//! ```text
//! +----------------------+ 8 bytes   magic  b"TPDBSNAP"
//! | header               | 4 bytes   format version (u32, little-endian)
//! |                      | 4 bytes   section count (u32)
//! +----------------------+
//! | section header       | 4 bytes   section tag (u32)
//! |                      | 8 bytes   payload length (u64)
//! |                      | 8 bytes   payload CRC-64 (u64)
//! | section payload      | ...       length bytes, checksummed
//! +----------------------+
//! | ... more sections    |
//! +----------------------+
//! ```
//!
//! All integers are little-endian; floats are stored as raw IEEE-754 bits so
//! snapshots round-trip bit-exactly. Three sections are written, in tag
//! order:
//!
//! 1. **symbols** — the lineage symbol dictionary (count + length-prefixed
//!    names, id = position) followed by the catalog's *variable-space bound*:
//!    one past the highest variable id referenced anywhere (dictionary,
//!    marginals or lineage formulas). Generator-built relations carry
//!    anonymous variables above the dictionary, so the bound — not the
//!    dictionary length — is what lineage decoding validates ids against.
//! 2. **marginals** — the base-tuple marginal probabilities as
//!    `(var id: u32, probability bits: u64)` pairs, sorted by id.
//! 3. **relations** — the relations sorted by name. Each relation stores its
//!    schema, then its tuples *columnar*: all values column by column, the
//!    packed interval arrays (all starts, then all ends), the probability
//!    array, and finally one postfix-encoded lineage formula per tuple.
//!
//! Saving is deterministic: the same catalog contents always produce the
//! same bytes, and `save → load → save` is byte-identical (the round-trip
//! property suite asserts this).
//!
//! # Failure modes
//!
//! Loading never panics and is **all-or-nothing**: the entire file is
//! decoded and validated into fresh structures before the catalog is
//! touched, so a corrupt snapshot leaves the catalog exactly as it was.
//! Every failure mode maps to a typed [`StorageError`] variant:
//! [`SnapshotBadMagic`](StorageError::SnapshotBadMagic),
//! [`SnapshotUnsupportedVersion`](StorageError::SnapshotUnsupportedVersion),
//! [`SnapshotChecksumMismatch`](StorageError::SnapshotChecksumMismatch),
//! [`SnapshotTruncated`](StorageError::SnapshotTruncated),
//! [`SnapshotCorrupt`](StorageError::SnapshotCorrupt),
//! [`SnapshotBadSymbol`](StorageError::SnapshotBadSymbol),
//! [`SnapshotInvalidProbability`](StorageError::SnapshotInvalidProbability)
//! and [`SnapshotIo`](StorageError::SnapshotIo). A snapshot whose atomic
//! tuple carries a probability other than its variable's marginal (the
//! table's, or — for a variable the table lacks — another atomic tuple's)
//! fails with [`ConflictingMarginal`](StorageError::ConflictingMarginal), as
//! registering such a relation does: a variable has one marginal. A
//! variable the table lacks takes its atomic tuples' probability as its
//! marginal in the loaded catalog.

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::integrity::overlapping_neighbours;
use crate::relation::TpRelation;
use crate::schema::{DataType, Field, Schema};
use crate::tuple::TpTuple;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use tpdb_lineage::{Lineage, LineageNode, MarginalMap, SymbolTable, VarId};
use tpdb_temporal::Interval;

/// The magic bytes every snapshot file starts with.
pub const MAGIC: [u8; 8] = *b"TPDBSNAP";

/// The snapshot format version this build writes and reads.
pub const VERSION: u32 = 1;

const TAG_SYMBOLS: u32 = 1;
const TAG_MARGINALS: u32 = 2;
const TAG_RELATIONS: u32 = 3;

const SECTION_SYMBOLS: &str = "symbols";
const SECTION_MARGINALS: &str = "marginals";
const SECTION_RELATIONS: &str = "relations";
const SECTION_HEADER: &str = "header";

// ---------------------------------------------------------------------------
// CRC-64 (ECMA-182 polynomial, reflected — the CRC-64/XZ parametrization)
// ---------------------------------------------------------------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC64_TABLE: [u64; 256] = crc64_table();

/// Derived tables for the slice-by-16 CRC: `CRC64_AHEAD[k][b]` is the CRC
/// contribution of byte `b` seen `k + 1` positions before the end of a
/// 16-byte block. Processing snapshots a block at a time instead of a byte
/// at a time makes checksum verification a small fraction of load time
/// rather than the dominant cost.
const fn crc64_ahead_tables() -> [[u64; 256]; 16] {
    let mut tables = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = CRC64_TABLE[i];
        let mut k = 0;
        while k < 16 {
            tables[k][i] = crc;
            crc = CRC64_TABLE[(crc & 0xFF) as usize] ^ (crc >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC64_AHEAD: [[u64; 256]; 16] = crc64_ahead_tables();

/// The CRC-64 used to checksum snapshot sections (exposed so fault-injection
/// tests can craft payload mutations with *valid* checksums and reach the
/// validation layers behind the checksum).
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = u64::MAX;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let lo = crc ^ u64::from_le_bytes(chunk[..8].try_into().unwrap_or_default());
        let hi = u64::from_le_bytes(chunk[8..].try_into().unwrap_or_default());
        let mut next = 0u64;
        let mut k = 0;
        while k < 8 {
            next ^= CRC64_AHEAD[15 - k][((lo >> (8 * k)) & 0xFF) as usize];
            next ^= CRC64_AHEAD[7 - k][((hi >> (8 * k)) & 0xFF) as usize];
            k += 1;
        }
        crc = next;
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ u64::from(b)) & 0xFF) as usize;
        crc = CRC64_TABLE[idx] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian write helpers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str, section: &str) -> Result<(), StorageError> {
    let len = u32::try_from(s.len()).map_err(|_| StorageError::SnapshotCorrupt {
        section: section.to_owned(),
        detail: format!("string of {} bytes exceeds the format limit", s.len()),
    })?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Checked little-endian reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StorageError> {
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(StorageError::SnapshotTruncated {
                context: format!("{} {what}", self.section),
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or_default())
    }

    fn u32(&mut self, what: &str) -> Result<u32, StorageError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap_or_default()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StorageError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap_or_default()))
    }

    fn i64(&mut self, what: &str) -> Result<i64, StorageError> {
        let bytes = self.take(8, what)?;
        Ok(i64::from_le_bytes(bytes.try_into().unwrap_or_default()))
    }

    fn f64_bits(&mut self, what: &str) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Bulk-reads `n` little-endian `i64`s in one bounds check (the packed
    /// interval arrays are the largest flat runs in a snapshot).
    fn i64_array(&mut self, n: usize, what: &str) -> Result<Vec<i64>, StorageError> {
        let bytes = self.take(n.saturating_mul(8), what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap_or_default()))
            .collect())
    }

    /// Bulk-reads `n` raw-bit `f64`s in one bounds check.
    fn f64_bits_array(&mut self, n: usize, what: &str) -> Result<Vec<f64>, StorageError> {
        let bytes = self.take(n.saturating_mul(8), what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap_or_default())))
            .collect())
    }

    /// A length-prefixed UTF-8 string, borrowed from the payload.
    fn str(&mut self, what: &str) -> Result<&'a str, StorageError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| StorageError::SnapshotCorrupt {
            section: self.section.to_owned(),
            detail: format!("{what} is not valid UTF-8"),
        })
    }

    /// Converts a stored element count into a `usize`, rejecting counts that
    /// could not possibly fit in the remaining payload (each element takes at
    /// least `min_element_size` bytes). This keeps a corrupted count from
    /// driving a huge allocation before the decode loop hits end-of-buffer.
    fn checked_count(
        &self,
        count: u64,
        min_element_size: usize,
        what: &str,
    ) -> Result<usize, StorageError> {
        let count = usize::try_from(count).unwrap_or(usize::MAX);
        let fits = self
            .remaining()
            .checked_div(min_element_size.max(1))
            .unwrap_or(0);
        if count > fits {
            return Err(StorageError::SnapshotCorrupt {
                section: self.section.to_owned(),
                detail: format!(
                    "{what} of {count} cannot fit in the {} remaining payload byte(s)",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    fn expect_end(&self) -> Result<(), StorageError> {
        if self.remaining() != 0 {
            return Err(StorageError::SnapshotCorrupt {
                section: self.section.to_owned(),
                detail: format!(
                    "{} trailing byte(s) after the section body",
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

fn corrupt(section: &str, detail: impl Into<String>) -> StorageError {
    StorageError::SnapshotCorrupt {
        section: section.to_owned(),
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Lineage formula codec (postfix op stream)
// ---------------------------------------------------------------------------

const OP_TRUE: u8 = 0;
const OP_FALSE: u8 = 1;
const OP_VAR: u8 = 2;
const OP_NOT: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;

fn encode_formula(lineage: &Lineage, ops: &mut Vec<u8>, count: &mut usize) {
    match lineage.node() {
        LineageNode::True => put_u8(ops, OP_TRUE),
        LineageNode::False => put_u8(ops, OP_FALSE),
        LineageNode::Var(v) => {
            put_u8(ops, OP_VAR);
            put_u32(ops, v.index());
        }
        LineageNode::Not(inner) => {
            encode_formula(inner, ops, count);
            put_u8(ops, OP_NOT);
        }
        LineageNode::And(children) => {
            for c in children {
                encode_formula(c, ops, count);
            }
            put_u8(ops, OP_AND);
            put_u32(ops, u32::try_from(children.len()).unwrap_or(u32::MAX));
        }
        LineageNode::Or(children) => {
            for c in children {
                encode_formula(c, ops, count);
            }
            put_u8(ops, OP_OR);
            put_u32(ops, u32::try_from(children.len()).unwrap_or(u32::MAX));
        }
    }
    *count += 1;
}

fn encode_lineage(out: &mut Vec<u8>, lineage: &Lineage) -> Result<(), StorageError> {
    // Base relations carry one atomic variable per tuple; write that shape
    // straight into the output without staging a temporary op buffer.
    if let LineageNode::Var(v) = lineage.node() {
        put_u32(out, 1);
        put_u8(out, OP_VAR);
        put_u32(out, v.index());
        return Ok(());
    }
    let mut ops = Vec::new();
    let mut count = 0usize;
    encode_formula(lineage, &mut ops, &mut count);
    let count = u32::try_from(count).map_err(|_| {
        corrupt(
            SECTION_RELATIONS,
            "lineage formula exceeds the format's op limit",
        )
    })?;
    put_u32(out, count);
    out.extend_from_slice(&ops);
    Ok(())
}

fn decode_lineage(
    r: &mut Reader<'_>,
    var_bound: u32,
    stack: &mut Vec<Lineage>,
) -> Result<Lineage, StorageError> {
    let raw_count = r.u32("lineage op count")?;
    let n_ops = r.checked_count(u64::from(raw_count), 1, "lineage op count")?;
    // Base relations store one atomic variable per tuple; decode that
    // single-op stream without touching the operand stack.
    if n_ops == 1 && matches!(r.buf.get(r.pos), Some(&OP_VAR)) {
        r.pos += 1;
        let id = r.u32("lineage var id")?;
        if id >= var_bound {
            return Err(StorageError::SnapshotBadSymbol {
                id,
                bound: var_bound,
            });
        }
        return Ok(Lineage::var(VarId(id)));
    }
    stack.clear();
    for _ in 0..n_ops {
        match r.u8("lineage op")? {
            OP_TRUE => stack.push(Lineage::tru()),
            OP_FALSE => stack.push(Lineage::fls()),
            OP_VAR => {
                let id = r.u32("lineage var id")?;
                if id >= var_bound {
                    return Err(StorageError::SnapshotBadSymbol {
                        id,
                        bound: var_bound,
                    });
                }
                stack.push(Lineage::var(VarId(id)));
            }
            OP_NOT => {
                let inner = stack
                    .pop()
                    .ok_or_else(|| corrupt(SECTION_RELATIONS, "NOT op on an empty stack"))?;
                stack.push(Lineage::not(inner));
            }
            op @ (OP_AND | OP_OR) => {
                let k = r.u32("lineage operand count")? as usize;
                if k > stack.len() {
                    return Err(corrupt(
                        SECTION_RELATIONS,
                        format!(
                            "connective needs {k} operand(s) but only {} are on the stack",
                            stack.len()
                        ),
                    ));
                }
                let children = stack.split_off(stack.len() - k);
                stack.push(if op == OP_AND {
                    Lineage::and(children)
                } else {
                    Lineage::or(children)
                });
            }
            other => {
                return Err(corrupt(
                    SECTION_RELATIONS,
                    format!("unknown lineage op tag {other}"),
                ))
            }
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(lineage), true) => Ok(lineage),
        (Some(_), false) => Err(corrupt(
            SECTION_RELATIONS,
            "lineage op stream left extra operands on the stack",
        )),
        (None, _) => Err(corrupt(SECTION_RELATIONS, "empty lineage op stream")),
    }
}

fn max_var_in(lineage: &Lineage, max: &mut u32) {
    match lineage.node() {
        LineageNode::True | LineageNode::False => {}
        LineageNode::Var(v) => *max = (*max).max(v.index().saturating_add(1)),
        LineageNode::Not(inner) => max_var_in(inner, max),
        LineageNode::And(children) | LineageNode::Or(children) => {
            for c in children {
                max_var_in(c, max);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

fn encode_value(out: &mut Vec<u8>, value: &Value) -> Result<(), StorageError> {
    match value {
        Value::Null => put_u8(out, VAL_NULL),
        Value::Bool(b) => {
            put_u8(out, VAL_BOOL);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, VAL_INT);
            put_i64(out, *i);
        }
        Value::Float(x) => {
            put_u8(out, VAL_FLOAT);
            put_f64_bits(out, *x);
        }
        Value::Str(s) => {
            put_u8(out, VAL_STR);
            put_str(out, s, SECTION_RELATIONS)?;
        }
    }
    Ok(())
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, StorageError> {
    Ok(match r.u8("value tag")? {
        VAL_NULL => Value::Null,
        VAL_BOOL => match r.u8("bool value")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => {
                return Err(corrupt(
                    SECTION_RELATIONS,
                    format!("bool value byte {other} is neither 0 nor 1"),
                ))
            }
        },
        VAL_INT => Value::Int(r.i64("int value")?),
        VAL_FLOAT => Value::Float(r.f64_bits("float value")?),
        VAL_STR => Value::str(r.str("string value")?),
        other => {
            return Err(corrupt(
                SECTION_RELATIONS,
                format!("unknown value tag {other}"),
            ))
        }
    })
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Bool),
        1 => Some(DataType::Int),
        2 => Some(DataType::Float),
        3 => Some(DataType::Str),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Section encoders
// ---------------------------------------------------------------------------

fn encode_symbols(symbols: &SymbolTable, var_bound: u32) -> Result<Vec<u8>, StorageError> {
    let mut out = Vec::new();
    let count = u32::try_from(symbols.len()).map_err(|_| {
        corrupt(
            SECTION_SYMBOLS,
            "symbol dictionary exceeds the format limit",
        )
    })?;
    put_u32(&mut out, count);
    for (_, name) in symbols.iter() {
        put_str(&mut out, name, SECTION_SYMBOLS)?;
    }
    put_u32(&mut out, var_bound);
    Ok(out)
}

fn encode_marginals(marginals: &MarginalMap) -> Result<Vec<u8>, StorageError> {
    let mut pairs: Vec<(u32, f64)> = marginals.iter().map(|(v, &p)| (v.index(), p)).collect();
    pairs.sort_by_key(|&(v, _)| v);
    let mut out = Vec::new();
    let count = u32::try_from(pairs.len())
        .map_err(|_| corrupt(SECTION_MARGINALS, "marginal table exceeds the format limit"))?;
    put_u32(&mut out, count);
    for (var, prob) in pairs {
        put_u32(&mut out, var);
        put_f64_bits(&mut out, prob);
    }
    Ok(out)
}

fn encode_relations(relations: &[Arc<TpRelation>]) -> Result<Vec<u8>, StorageError> {
    let mut out = Vec::new();
    let count = u32::try_from(relations.len())
        .map_err(|_| corrupt(SECTION_RELATIONS, "relation count exceeds the format limit"))?;
    put_u32(&mut out, count);
    for relation in relations {
        put_str(&mut out, relation.name(), SECTION_RELATIONS)?;
        let schema = relation.schema();
        let arity = u32::try_from(schema.arity())
            .map_err(|_| corrupt(SECTION_RELATIONS, "schema arity exceeds the format limit"))?;
        put_u32(&mut out, arity);
        for field in schema.fields() {
            put_str(&mut out, &field.name, SECTION_RELATIONS)?;
            put_u8(&mut out, dtype_tag(field.dtype));
        }
        put_u64(&mut out, relation.len() as u64);
        // Rough per-tuple floor (value tags + interval + probability + a
        // single-var lineage) so the big column loops rarely reallocate.
        out.reserve(relation.len().saturating_mul(schema.arity() + 33));
        // values, column-major
        for col in 0..schema.arity() {
            for tuple in relation.iter() {
                encode_value(&mut out, tuple.fact(col))?;
            }
        }
        // packed interval arrays: all starts, then all ends
        for tuple in relation.iter() {
            put_i64(&mut out, tuple.interval().start());
        }
        for tuple in relation.iter() {
            put_i64(&mut out, tuple.interval().end());
        }
        // probabilities
        for tuple in relation.iter() {
            put_f64_bits(&mut out, tuple.probability());
        }
        // lineages
        for tuple in relation.iter() {
            encode_lineage(&mut out, tuple.lineage())?;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Section decoders
// ---------------------------------------------------------------------------

fn decode_symbols(payload: &[u8]) -> Result<(SymbolTable, u32), StorageError> {
    let mut r = Reader::new(payload, SECTION_SYMBOLS);
    let raw = r.u32("symbol count")?;
    let count = r.checked_count(u64::from(raw), 4, "symbol count")?;
    let mut names: Vec<&str> = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(r.str("symbol name")?);
    }
    let dictionary_len = names.len();
    let var_bound = r.u32("variable-space bound")?;
    r.expect_end()?;
    if (var_bound as usize) < dictionary_len {
        return Err(corrupt(
            SECTION_SYMBOLS,
            format!(
                "variable-space bound {var_bound} is smaller than the dictionary \
                 ({dictionary_len} entries)"
            ),
        ));
    }
    let symbols =
        SymbolTable::from_names(names).map_err(|e| corrupt(SECTION_SYMBOLS, e.to_string()))?;
    Ok((symbols, var_bound))
}

fn decode_marginals(payload: &[u8], var_bound: u32) -> Result<MarginalMap, StorageError> {
    let mut r = Reader::new(payload, SECTION_MARGINALS);
    let raw = r.u32("marginal count")?;
    let count = r.checked_count(u64::from(raw), 12, "marginal count")?;
    let mut marginals = MarginalMap::with_capacity_and_hasher(count, Default::default());
    let mut previous: Option<u32> = None;
    for _ in 0..count {
        let var = r.u32("marginal var id")?;
        let prob = r.f64_bits("marginal probability")?;
        if var >= var_bound {
            return Err(StorageError::SnapshotBadSymbol {
                id: var,
                bound: var_bound,
            });
        }
        if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
            return Err(StorageError::SnapshotInvalidProbability(prob));
        }
        if previous.is_some_and(|p| p >= var) {
            return Err(corrupt(
                SECTION_MARGINALS,
                format!("marginal var ids are not strictly increasing at id {var}"),
            ));
        }
        previous = Some(var);
        marginals.insert(VarId(var), prob);
    }
    r.expect_end()?;
    Ok(marginals)
}

fn decode_relations(payload: &[u8], var_bound: u32) -> Result<Vec<TpRelation>, StorageError> {
    let mut r = Reader::new(payload, SECTION_RELATIONS);
    let raw = r.u32("relation count")?;
    let count = r.checked_count(u64::from(raw), 4, "relation count")?;
    let mut relations = Vec::with_capacity(count);
    let mut seen_names: Vec<&str> = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str("relation name")?;
        if seen_names.contains(&name) {
            return Err(corrupt(
                SECTION_RELATIONS,
                format!("duplicate relation name `{name}`"),
            ));
        }
        seen_names.push(name);
        let raw_arity = r.u32("schema arity")?;
        let arity = r.checked_count(u64::from(raw_arity), 5, "schema arity")?;
        let mut fields = Vec::with_capacity(arity);
        for _ in 0..arity {
            let field_name = r.str("field name")?;
            let tag = r.u8("field type tag")?;
            let dtype = dtype_from_tag(tag).ok_or_else(|| {
                corrupt(SECTION_RELATIONS, format!("unknown field type tag {tag}"))
            })?;
            fields.push(Field::new(field_name, dtype));
        }
        let schema = Schema::new(fields);
        // Every tuple needs at least one value tag per column plus the
        // interval (16), probability (8) and lineage count prefix (4+1).
        let min_tuple = arity.saturating_add(29);
        let raw_tuples = r.u64("tuple count")?;
        let n_tuples = r.checked_count(raw_tuples, min_tuple, "tuple count")?;
        let mut rows: Vec<Vec<Value>> = (0..n_tuples).map(|_| Vec::with_capacity(arity)).collect();
        for field in schema.fields() {
            for row in &mut rows {
                let value = decode_value(&mut r)?;
                if !field.dtype.admits(&value) {
                    return Err(corrupt(
                        SECTION_RELATIONS,
                        format!(
                            "value {value:?} does not fit column `{}` of `{name}`",
                            field.name
                        ),
                    ));
                }
                row.push(value);
            }
        }
        let starts = r.i64_array(n_tuples, "interval start")?;
        let ends = r.i64_array(n_tuples, "interval end")?;
        let mut intervals = Vec::with_capacity(n_tuples);
        for (start, end) in starts.into_iter().zip(ends) {
            let interval = Interval::try_new(start, end)
                .map_err(|e| corrupt(SECTION_RELATIONS, e.to_string()))?;
            intervals.push(interval);
        }
        let probabilities = r.f64_bits_array(n_tuples, "tuple probability")?;
        for &prob in &probabilities {
            if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
                return Err(StorageError::SnapshotInvalidProbability(prob));
            }
        }
        let mut relation = TpRelation::new(name, schema);
        relation.reserve(n_tuples);
        let mut stack: Vec<Lineage> = Vec::new();
        let tuples = rows.into_iter().zip(intervals).zip(probabilities);
        for ((facts, interval), probability) in tuples {
            let lineage = decode_lineage(&mut r, var_bound, &mut stack)?;
            // Facts, interval and probability were all validated above, so the
            // tuple can bypass `push`'s re-validation.
            relation.push_unchecked(TpTuple::new(facts, lineage, interval, probability));
        }
        relations.push(relation);
    }
    r.expect_end()?;
    Ok(relations)
}

// ---------------------------------------------------------------------------
// Whole-snapshot encode/decode
// ---------------------------------------------------------------------------

fn append_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    put_u64(out, crc64(payload));
    out.extend_from_slice(payload);
}

struct DecodedSnapshot {
    symbols: SymbolTable,
    marginals: MarginalMap,
    relations: Vec<TpRelation>,
}

fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, StorageError> {
    let mut r = Reader::new(bytes, SECTION_HEADER);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(StorageError::SnapshotBadMagic);
    }
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(StorageError::SnapshotUnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let raw_sections = r.u32("section count")?;
    let n_sections = r.checked_count(u64::from(raw_sections), 20, "section count")?;
    let mut sections: HashMap<u32, &[u8]> = HashMap::with_capacity(n_sections);
    for _ in 0..n_sections {
        let tag = r.u32("section tag")?;
        let section_name = match tag {
            TAG_SYMBOLS => SECTION_SYMBOLS,
            TAG_MARGINALS => SECTION_MARGINALS,
            TAG_RELATIONS => SECTION_RELATIONS,
            other => {
                return Err(corrupt(
                    SECTION_HEADER,
                    format!("unknown section tag {other}"),
                ))
            }
        };
        let len = r.u64("section length")?;
        let len = usize::try_from(len).map_err(|_| {
            corrupt(
                SECTION_HEADER,
                format!("section `{section_name}` declares an impossible length {len}"),
            )
        })?;
        let expected = r.u64("section checksum")?;
        let payload = r.take(len, "section payload")?;
        let got = crc64(payload);
        if got != expected {
            return Err(StorageError::SnapshotChecksumMismatch {
                section: section_name.to_owned(),
                expected,
                got,
            });
        }
        if sections.insert(tag, payload).is_some() {
            return Err(corrupt(
                SECTION_HEADER,
                format!("duplicate section `{section_name}`"),
            ));
        }
    }
    if r.remaining() != 0 {
        return Err(corrupt(
            SECTION_HEADER,
            format!("{} trailing byte(s) after the last section", r.remaining()),
        ));
    }
    let missing = |name: &str| corrupt(SECTION_HEADER, format!("missing section `{name}`"));
    let symbols_payload = sections
        .get(&TAG_SYMBOLS)
        .ok_or_else(|| missing(SECTION_SYMBOLS))?;
    let marginals_payload = sections
        .get(&TAG_MARGINALS)
        .ok_or_else(|| missing(SECTION_MARGINALS))?;
    let relations_payload = sections
        .get(&TAG_RELATIONS)
        .ok_or_else(|| missing(SECTION_RELATIONS))?;
    let (symbols, var_bound) = decode_symbols(symbols_payload)?;
    let mut marginals = decode_marginals(marginals_payload, var_bound)?;
    let relations = decode_relations(relations_payload, var_bound)?;
    // An atomic tuple whose variable the table lacks gives it its marginal.
    let untabled = crate::catalog::atomic_marginals(&marginals, &relations)?;
    marginals.extend(untabled);
    Ok(DecodedSnapshot {
        symbols,
        marginals,
        relations,
    })
}

impl Catalog {
    /// Serializes the whole catalog — symbol dictionary, marginal
    /// probabilities and every relation — into the versioned, checksummed
    /// snapshot byte format. Deterministic: identical catalog contents
    /// produce identical bytes.
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, StorageError> {
        let mut relations = Vec::new();
        for name in self.relation_names() {
            relations.push(self.relation(&name)?);
        }
        let mut var_bound = u32::try_from(self.symbols().len()).map_err(|_| {
            corrupt(
                SECTION_SYMBOLS,
                "symbol dictionary exceeds the format limit",
            )
        })?;
        for var in self.marginals().keys() {
            var_bound = var_bound.max(var.index().saturating_add(1));
        }
        for relation in &relations {
            for tuple in relation.iter() {
                max_var_in(tuple.lineage(), &mut var_bound);
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, 3);
        append_section(
            &mut out,
            TAG_SYMBOLS,
            &encode_symbols(self.symbols(), var_bound)?,
        );
        append_section(
            &mut out,
            TAG_MARGINALS,
            &encode_marginals(self.marginals())?,
        );
        append_section(&mut out, TAG_RELATIONS, &encode_relations(&relations)?);
        Ok(out)
    }

    /// Replaces the catalog's contents with a decoded snapshot. The bytes
    /// are fully decoded and validated first, so on error the catalog is
    /// untouched (all-or-nothing), and the schema epoch is bumped exactly
    /// once on success.
    pub fn load_snapshot_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let decoded = decode_snapshot(bytes)?;
        self.replace_contents(decoded.symbols, decoded.marginals, decoded.relations);
        Ok(())
    }

    /// Saves the catalog to a snapshot file at `path`.
    #[expect(
        clippy::disallowed_methods,
        reason = "snapshot.rs owns the catalog's filesystem access and its typed SnapshotIo errors"
    )]
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StorageError> {
        let path = path.as_ref();
        let bytes = self.to_snapshot_bytes()?;
        std::fs::write(path, bytes).map_err(|e| StorageError::SnapshotIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Loads a snapshot file at `path`, replacing the catalog's contents.
    /// All-or-nothing: a corrupt or unreadable snapshot leaves the catalog
    /// unchanged.
    pub fn load_snapshot(&mut self, path: impl AsRef<Path>) -> Result<(), StorageError> {
        let path = path.as_ref();
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot.rs owns the catalog's filesystem access and its typed SnapshotIo errors"
        )]
        let bytes = std::fs::read(path).map_err(|e| StorageError::SnapshotIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        self.load_snapshot_bytes(&bytes)
    }

    /// Bulk-imports a delimited text table (CSV with `delimiter: ','`, TSV
    /// with `'\t'`) as a new base relation named `name`.
    ///
    /// Each record carries the fact attributes of `schema` followed by the
    /// interval start, interval end and probability. Fields may be quoted
    /// with `"` (doubled quotes escape, delimiters and newlines are literal
    /// inside quotes); CRLF line endings are accepted; an empty unquoted
    /// field is `NULL`. Every malformed record — wrong field count, bad
    /// value, malformed interval or probability, unterminated quote — is
    /// reported with its 1-based line number via
    /// [`StorageError::ParseError`]; records are read and typed in one pass,
    /// so the first faulty record in file order is the one reported. Once
    /// every record is typed, the duplicate-key check (same fact valid over
    /// overlapping intervals) reports an offending pair against its later
    /// line.
    pub fn import_delimited(
        &mut self,
        name: &str,
        schema: Schema,
        delimiter: char,
        text: &str,
    ) -> Result<Arc<TpRelation>, StorageError> {
        let mut records = Records::new(text, delimiter);
        let mut fields = Vec::with_capacity(schema.arity() + 3);
        let mut rows = Vec::new();
        while let Some(line) = records.next_into(&mut fields)? {
            rows.push(typed_row(&fields, &schema, line)?);
        }
        check_duplicate_keys(&rows)?;
        let mut builder = self.create_relation(name, schema)?;
        builder.reserve(rows.len());
        for row in rows {
            builder.push(row.facts, row.interval, row.probability);
        }
        builder.try_finish()
    }

    /// [`Catalog::import_delimited`] reading the table from a file.
    pub fn import_delimited_path(
        &mut self,
        name: &str,
        schema: Schema,
        delimiter: char,
        path: impl AsRef<Path>,
    ) -> Result<Arc<TpRelation>, StorageError> {
        let path = path.as_ref();
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot.rs owns the catalog's filesystem access and its typed SnapshotIo errors"
        )]
        let text = std::fs::read_to_string(path).map_err(|e| StorageError::SnapshotIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        self.import_delimited(name, schema, delimiter, &text)
    }
}

// ---------------------------------------------------------------------------
// Delimited-text record parsing
// ---------------------------------------------------------------------------

/// One field of a record: its unquoted text and whether it was quoted (an
/// empty unquoted field is `NULL`; an empty quoted field is the empty
/// string). The text borrows the input unless the field is quoted and
/// holds a doubled `""` or text after its closing quote.
struct CsvField<'a> {
    text: Cow<'a, str>,
    quoted: bool,
}

/// One typed record: its facts, interval and probability, with the line
/// it starts on.
struct Row {
    line: usize,
    facts: Vec<Value>,
    interval: Interval,
    probability: f64,
}

/// Types a record's fields against `schema`: the facts, then interval
/// start, interval end and probability.
fn typed_row(fields: &[CsvField<'_>], schema: &Schema, line: usize) -> Result<Row, StorageError> {
    let arity = schema.arity();
    let Some((facts_f, [start_f, end_f, prob_f])) = fields.split_at_checked(arity) else {
        return Err(StorageError::ParseError {
            line,
            message: format!("expected {} field(s), got {}", arity + 3, fields.len()),
        });
    };
    let mut facts = Vec::with_capacity(arity);
    for (field, spec) in facts_f.iter().zip(schema.fields()) {
        facts.push(delimited_value(field, spec, line)?);
    }
    let time = |field: &CsvField<'_>, what: &str| -> Result<i64, StorageError> {
        field
            .text
            .parse::<i64>()
            .map_err(|_| StorageError::ParseError {
                line,
                message: format!("invalid interval {what}: `{}`", field.text),
            })
    };
    let start = time(start_f, "start")?;
    let end = time(end_f, "end")?;
    let interval = Interval::try_new(start, end).map_err(|e| StorageError::ParseError {
        line,
        message: e.to_string(),
    })?;
    let probability: f64 = prob_f.text.parse().map_err(|_| StorageError::ParseError {
        line,
        message: format!("invalid probability: `{}`", prob_f.text),
    })?;
    if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
        return Err(StorageError::ParseError {
            line,
            message: format!("invalid probability {probability}: must be finite and within [0, 1]"),
        });
    }
    Ok(Row {
        line,
        facts,
        interval,
        probability,
    })
}

fn delimited_value(field: &CsvField<'_>, spec: &Field, line: usize) -> Result<Value, StorageError> {
    let text: &str = &field.text;
    if text.is_empty() && !field.quoted {
        return Ok(Value::Null);
    }
    let err = || StorageError::ParseError {
        line,
        message: format!("invalid {} in column {}: `{text}`", spec.dtype, spec.name),
    };
    Ok(match spec.dtype {
        DataType::Bool => Value::Bool(text.parse::<bool>().map_err(|_| err())?),
        DataType::Int => Value::Int(text.parse::<i64>().map_err(|_| err())?),
        DataType::Float => Value::Float(text.parse::<f64>().map_err(|_| err())?),
        DataType::Str => Value::str(text),
    })
}

/// The TP duplicate-free constraint: for every fact, validity intervals
/// must not overlap. The first overlapping pair in sorted order
/// ([`overlapping_neighbours`]) is reported against its later line.
fn check_duplicate_keys(rows: &[Row]) -> Result<(), StorageError> {
    let Some((a, b)) =
        overlapping_neighbours(rows.len(), |i| (&rows[i].facts, rows[i].interval)).next()
    else {
        return Ok(());
    };
    // `rows` are in file order: the larger index is the later line.
    let (first, second) = (&rows[a.min(b)], &rows[a.max(b)]);
    Err(StorageError::ParseError {
        line: second.line,
        message: format!(
            "duplicate key: fact already valid over {}, which overlaps {}",
            first.interval, second.interval
        ),
    })
}

/// A streaming reader of delimited records: quoting with `"` (doubled to
/// escape), delimiters and newlines literal inside quotes, CRLF endings,
/// blank lines skipped but counted. It scans bytes, and every byte it cuts
/// at is ASCII or the first byte of the delimiter's encoding, so each slice
/// lies on character boundaries.
struct Records<'a> {
    text: &'a str,
    /// The delimiter's UTF-8 encoding: its first `width` bytes.
    delimiter: [u8; 4],
    width: usize,
    pos: usize,
    /// The 1-based line at `pos`.
    line: usize,
}

impl<'a> Records<'a> {
    fn new(text: &'a str, delimiter: char) -> Self {
        let mut encoded = [0u8; 4];
        let width = delimiter.encode_utf8(&mut encoded).len();
        Self {
            text,
            delimiter: encoded,
            width,
            pos: 0,
            line: 1,
        }
    }

    /// The length of the record terminator at `at` (`\n` or `\r\n`), or 0.
    fn terminator_at(&self, at: usize) -> usize {
        match self.text.as_bytes().get(at..) {
            Some([b'\n', ..]) => 1,
            Some([b'\r', b'\n', ..]) => 2,
            _ => 0,
        }
    }

    fn delimiter_at(&self, at: usize) -> bool {
        let delimiter = &self.delimiter[..self.width];
        self.text
            .as_bytes()
            .get(at..)
            .is_some_and(|rest| rest.starts_with(delimiter))
    }

    /// Reads the next non-blank record into `fields` (cleared first) and
    /// returns the line it starts on, or `None` at the end of the input.
    fn next_into(&mut self, fields: &mut Vec<CsvField<'a>>) -> Result<Option<usize>, StorageError> {
        fields.clear();
        loop {
            if self.pos >= self.text.len() {
                return Ok(None);
            }
            let blank = self.terminator_at(self.pos);
            if blank == 0 {
                break;
            }
            self.pos += blank;
            self.line += 1;
        }
        let record_line = self.line;
        loop {
            let field = self.field(record_line)?;
            fields.push(field);
            let end = self.terminator_at(self.pos);
            if end > 0 {
                self.pos += end;
                self.line += 1;
                return Ok(Some(record_line));
            }
            if self.pos >= self.text.len() {
                return Ok(Some(record_line));
            }
            self.pos += self.width;
        }
    }

    /// Reads the field at `pos`, leaving `pos` at the delimiter,
    /// terminator or end of input that ends it.
    fn field(&mut self, record_line: usize) -> Result<CsvField<'a>, StorageError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        if bytes.get(self.pos) != Some(&b'"') {
            let start = self.pos;
            self.skip_unquoted();
            let text = Cow::Borrowed(&text[start..self.pos]);
            return Ok(CsvField {
                text,
                quoted: false,
            });
        }
        let mut start = self.pos + 1;
        let mut unescaped: Option<String> = None;
        loop {
            let quote = bytes
                .get(start..)
                .and_then(|rest| rest.iter().position(|&b| b == b'"'))
                .map(|i| start + i);
            let Some(quote) = quote else {
                return Err(StorageError::ParseError {
                    line: record_line,
                    message: "unterminated quoted field".to_owned(),
                });
            };
            self.line += bytes[start..quote].iter().filter(|&&b| b == b'\n').count();
            if bytes.get(quote + 1) == Some(&b'"') {
                // A doubled quote: keep the text up to and including one.
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&text[start..=quote]);
                start = quote + 2;
                continue;
            }
            // The closing quote; any text after it, up to the delimiter or
            // the end of the record, is literal.
            self.pos = quote + 1;
            self.skip_unquoted();
            let (inside, after) = (&text[start..quote], &text[quote + 1..self.pos]);
            let text = match unescaped {
                None if after.is_empty() => Cow::Borrowed(inside),
                unescaped => {
                    let mut owned = unescaped.unwrap_or_default();
                    owned.push_str(inside);
                    owned.push_str(after);
                    Cow::Owned(owned)
                }
            };
            return Ok(CsvField { text, quoted: true });
        }
    }

    /// Advances `pos` to the next delimiter, record terminator or the end of
    /// the input.
    fn skip_unquoted(&mut self) {
        let bytes = self.text.as_bytes();
        let first = self.delimiter[0];
        while let Some(&b) = bytes.get(self.pos) {
            if (b == b'\n' || b == b'\r' || b == first)
                && (self.terminator_at(self.pos) > 0 || self.delimiter_at(self.pos))
            {
                return;
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
// Tests assert bit-exact values on purpose (reproducibility contract).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]);
        let mut b = c.create_relation("a", schema).unwrap();
        b.push(
            vec![Value::str("Ann"), Value::str("ZAK")],
            Interval::new(2, 8),
            0.7,
        )
        .push(
            vec![Value::str("Jim"), Value::str("WEN")],
            Interval::new(7, 10),
            0.8,
        );
        let _ = b.finish();
        let schema = Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)]);
        let mut b = c.create_relation("b", schema).unwrap();
        b.push(
            vec![Value::str("H1"), Value::str("ZAK")],
            Interval::new(4, 6),
            0.9,
        );
        let _ = b.finish();
        c
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample_catalog();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = Catalog::new();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(loaded.relation_names(), c.relation_names());
        for name in c.relation_names() {
            assert_eq!(
                *loaded.relation(&name).unwrap(),
                *c.relation(&name).unwrap()
            );
        }
        assert_eq!(loaded.symbols().len(), c.symbols().len());
        let a1 = loaded.symbols().lookup("a1").unwrap();
        assert_eq!(loaded.probability_of(a1), Some(0.7));
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let c = sample_catalog();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = Catalog::new();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_snapshot_bytes().unwrap(), bytes);
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let c = Catalog::new();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = sample_catalog();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        assert!(loaded.relation_names().is_empty());
        assert!(loaded.symbols().is_empty());
    }

    #[test]
    fn load_bumps_the_schema_epoch_once() {
        let c = sample_catalog();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut target = Catalog::new();
        let before = target.schema_epoch();
        target.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(target.schema_epoch(), before + 1);
    }

    #[test]
    fn compound_lineages_roundtrip() {
        let mut c = Catalog::new();
        let v0 = c.symbols_mut().intern("a1");
        let v1 = c.symbols_mut().intern("b1");
        let lineage = Lineage::and2(Lineage::var(v0), Lineage::not(Lineage::var(v1)));
        let mut r = TpRelation::new("joined", Schema::tp(&[("K", DataType::Int)]));
        r.push(TpTuple::new(
            vec![Value::Int(1)],
            lineage.clone(),
            Interval::new(0, 5),
            0.63,
        ))
        .unwrap();
        c.register(r).unwrap();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = Catalog::new();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        let joined = loaded.relation("joined").unwrap();
        assert_eq!(joined.tuple(0).lineage(), &lineage);
    }

    #[test]
    fn an_atomic_tuple_that_disagrees_with_its_marginal_is_refused() {
        // Hand-built: the marginal table says x1 = 0.25, the tuple of x1
        // carries 0.5. `register` refuses such a relation, so the catalog
        // is assembled through the snapshot commit point itself.
        let tuple = |var, p| {
            let lineage = Lineage::var(VarId(var));
            TpTuple::new(vec![Value::Int(1)], lineage, Interval::new(0, 5), p)
        };
        let schema = Schema::tp(&[("K", DataType::Int)]);
        let mut r = TpRelation::new("r", schema.clone());
        r.push_unchecked(tuple(1, 0.5));
        let marginals: MarginalMap = [(VarId(1), 0.25)].into_iter().collect();
        let mut inconsistent = Catalog::new();
        inconsistent.replace_contents(SymbolTable::new(), marginals, vec![r]);
        let bytes = inconsistent.to_snapshot_bytes().unwrap();
        let mut target = sample_catalog();
        let (names, epoch) = (target.relation_names(), target.schema_epoch());
        let conflict = StorageError::ConflictingMarginal {
            var: VarId(1),
            marginal: 0.25,
            found: 0.5,
        };
        assert_eq!(target.load_snapshot_bytes(&bytes), Err(conflict));
        assert_eq!(target.relation_names(), names, "load is all-or-nothing");
        assert_eq!(target.schema_epoch(), epoch);

        // Two atomic tuples of a variable the table lacks must agree too.
        let mut s = TpRelation::new("s", schema);
        s.push_unchecked(tuple(2, 0.5));
        s.push_unchecked(tuple(2, 0.75));
        let mut inconsistent = Catalog::new();
        inconsistent.replace_contents(SymbolTable::new(), MarginalMap::default(), vec![s]);
        let bytes = inconsistent.to_snapshot_bytes().unwrap();
        assert!(matches!(
            target.load_snapshot_bytes(&bytes),
            Err(StorageError::ConflictingMarginal { var: VarId(2), .. })
        ));
        assert_eq!(target.schema_epoch(), epoch);
    }

    #[test]
    fn anonymous_generator_variables_roundtrip() {
        // Generator relations reference var ids far above the symbol
        // dictionary; the stamped variable-space bound must cover them.
        let mut c = Catalog::new();
        let v = VarId(100_000_000);
        let mut r = TpRelation::new("g", Schema::tp(&[("K", DataType::Int)]));
        r.push(TpTuple::new(
            vec![Value::Int(7)],
            Lineage::var(v),
            Interval::new(1, 3),
            0.5,
        ))
        .unwrap();
        c.register(r).unwrap();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = Catalog::new();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(loaded.probability_of(v), Some(0.5));
        assert_eq!(
            loaded.relation("g").unwrap().tuple(0).lineage(),
            &Lineage::var(v)
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_catalog().to_snapshot_bytes().unwrap();
        bytes[0] = b'X';
        let mut c = Catalog::new();
        assert_eq!(
            c.load_snapshot_bytes(&bytes),
            Err(StorageError::SnapshotBadMagic)
        );
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = sample_catalog().to_snapshot_bytes().unwrap();
        bytes[8] = 99;
        let mut c = Catalog::new();
        assert_eq!(
            c.load_snapshot_bytes(&bytes),
            Err(StorageError::SnapshotUnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        );
    }

    #[test]
    fn flipped_payload_byte_fails_its_checksum() {
        let mut bytes = sample_catalog().to_snapshot_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut c = Catalog::new();
        assert!(matches!(
            c.load_snapshot_bytes(&bytes),
            Err(StorageError::SnapshotChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_and_leaves_catalog_unchanged() {
        let bytes = sample_catalog().to_snapshot_bytes().unwrap();
        let mut c = sample_catalog();
        let epoch = c.schema_epoch();
        for cut in [3, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = c.load_snapshot_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::SnapshotTruncated { .. }
                        | StorageError::SnapshotChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        assert_eq!(c.schema_epoch(), epoch);
        assert_eq!(c.relation_names(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let mut c = Catalog::new();
        let err = c
            .load_snapshot("/nonexistent/tpdb-snapshot-test.snap")
            .unwrap_err();
        assert!(matches!(err, StorageError::SnapshotIo { .. }), "{err:?}");
    }

    #[test]
    fn crc64_matches_the_xz_check_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn import_csv_with_quoting_crlf_and_nulls() {
        let mut c = Catalog::new();
        let schema = Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]);
        let text =
            "\"Ann, Mary\",ZAK,2,8,0.7\r\nJim,,7,10,0.8\n\"He said \"\"hi\"\"\",WEN,1,2,0.5\n";
        let rel = c.import_delimited("a", schema, ',', text).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.tuple(0).fact(0), &Value::str("Ann, Mary"));
        assert!(rel.tuple(1).fact(1).is_null());
        assert_eq!(rel.tuple(2).fact(0), &Value::str("He said \"hi\""));
        assert_eq!(rel.tuple(0).interval(), Interval::new(2, 8));
        // lineage vars a1..a3 were interned with their probabilities
        let a2 = c.symbols().lookup("a2").unwrap();
        assert_eq!(c.probability_of(a2), Some(0.8));
    }

    #[test]
    fn import_tsv() {
        let mut c = Catalog::new();
        let schema = Schema::tp(&[("K", DataType::Int)]);
        let rel = c
            .import_delimited("t", schema, '\t', "1\t0\t5\t0.5\n2\t1\t4\t0.25\n")
            .unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.tuple(1).fact(0), &Value::Int(2));
    }

    #[test]
    fn import_errors_carry_line_numbers() {
        let schema = || Schema::tp(&[("K", DataType::Int)]);
        let cases: &[(&str, usize, &str)] = &[
            ("1,0,5,0.5\nx,0,5,0.5\n", 2, "invalid INT"),
            ("1,0,5,0.5\n2,0,5\n", 2, "expected 4 field(s)"),
            ("1,9,5,0.5\n", 1, "interval"),
            ("1,0,5,1.5\n", 1, "probability"),
            ("1,0,5,nan\n", 1, "probability"),
            ("1,0,notanint,0.5\n", 1, "invalid interval end"),
            ("1,0,5,0.5\n\"unterminated,0,5,0.5\n", 2, "unterminated"),
            ("1,0,5,0.5\n1,4,9,0.5\n", 2, "duplicate key"),
        ];
        for (text, line, needle) in cases {
            let mut c = Catalog::new();
            match c.import_delimited("t", schema(), ',', text) {
                Err(StorageError::ParseError { line: l, message }) => {
                    assert_eq!(l, *line, "{text:?}: {message}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?}: expected ParseError, got {other:?}"),
            }
        }
    }

    #[test]
    fn import_skips_blank_lines_and_counts_them() {
        let mut c = Catalog::new();
        let schema = Schema::tp(&[("K", DataType::Int)]);
        let text = "1,0,5,0.5\n\n\nbad,0,5,0.5\n";
        match c.import_delimited("t", schema, ',', text) {
            Err(StorageError::ParseError { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected ParseError, got {other:?}"),
        }
    }

    #[test]
    fn imported_relation_roundtrips_through_a_snapshot() {
        let mut c = Catalog::new();
        let schema = Schema::tp(&[("Name", DataType::Str)]);
        let _ = c
            .import_delimited("a", schema, ',', "Ann,2,8,0.7\nJim,9,12,0.8\n")
            .unwrap();
        let bytes = c.to_snapshot_bytes().unwrap();
        let mut loaded = Catalog::new();
        loaded.load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(*loaded.relation("a").unwrap(), *c.relation("a").unwrap());
        assert_eq!(loaded.to_snapshot_bytes().unwrap(), bytes);
    }
}
