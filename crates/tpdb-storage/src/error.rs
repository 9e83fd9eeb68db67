//! Error types of the storage layer.

use crate::schema::DataType;
use std::fmt;
use tpdb_lineage::VarId;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// A tuple had the wrong number of fact attributes.
    ArityMismatch {
        /// Arity required by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A fact value did not match the column type.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Type required by the schema.
        expected: DataType,
        /// Rendering of the offending value.
        got: String,
    },
    /// A probability outside `[0, 1]` was supplied.
    InvalidProbability(f64),
    /// An input lineage of a statement names a base-tuple variable that has
    /// no marginal probability, so the statement's rows cannot be priced.
    /// Raised when the statement opens, before its first row; the variable
    /// is the smallest such one under any input lineage.
    MissingMarginal(VarId),
    /// An atomic tuple's probability differs from its variable's marginal:
    /// the catalog's (or a snapshot's marginal table's), or another atomic
    /// tuple's of the same variable. A variable has one marginal, so the
    /// relation or snapshot carrying the tuple is refused and the catalog
    /// is left unchanged.
    ConflictingMarginal {
        /// The variable.
        var: VarId,
        /// Its marginal.
        marginal: f64,
        /// The probability the tuple carries.
        found: f64,
    },
    /// A relation with this name already exists in the catalog.
    RelationExists(String),
    /// No relation with this name exists in the catalog.
    UnknownRelation(String),
    /// A textual import line could not be parsed.
    ParseError {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A statement was sent down a path that cannot execute it (e.g. a
    /// snapshot statement asked for a result stream, or `LOAD SNAPSHOT`
    /// through a shared session).
    PlanNotApplicable {
        /// Human-readable plan name (e.g. `snapshot`).
        plan: String,
        /// Why the plan cannot run.
        reason: String,
    },
    /// The two inputs of a TP set operation are not union-compatible: the
    /// named column differs between the sides (its value type, or — in the
    /// query layer — its name). Arity mismatches are reported as
    /// [`StorageError::ArityMismatch`].
    UnionIncompatible {
        /// The offending column (named after the left input's schema).
        column: String,
        /// How the sides differ (e.g. `left is INT, right is STR`).
        detail: String,
    },
    /// A `WHERE` predicate or a θ comparison compares values of types that
    /// cannot compare ([`DataType::compares_with`]): a string column with a
    /// number, say. Raised when the statement binds, before any row.
    Incomparable {
        /// The column (`r.col` / `s.col` for θ).
        column: String,
        /// The two types (e.g. `Name is STR, the literal 1 is INT`).
        detail: String,
    },
    /// A snapshot file did not start with the `TPDBSNAP` magic bytes.
    SnapshotBadMagic,
    /// A snapshot file uses a format version this build cannot read.
    SnapshotUnsupportedVersion {
        /// Version stamped in the file header.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// A snapshot section's payload does not match its stored checksum.
    SnapshotChecksumMismatch {
        /// Name of the damaged section (e.g. `relations`).
        section: String,
        /// Checksum stored in the section header.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// A snapshot file ended before a declared structure was complete.
    SnapshotTruncated {
        /// What was being decoded when the bytes ran out.
        context: String,
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A snapshot decoded into structurally invalid data (impossible tags,
    /// mis-sized sections, duplicate names, malformed formulas, ...).
    SnapshotCorrupt {
        /// Section in which the corruption was detected.
        section: String,
        /// Description of the problem.
        detail: String,
    },
    /// A lineage formula or marginal entry in a snapshot referenced a
    /// variable id at or above the snapshot's declared variable-space bound
    /// (the symbol dictionary plus any anonymous generator variables).
    SnapshotBadSymbol {
        /// The out-of-range variable id.
        id: u32,
        /// The variable-space bound stamped in the snapshot.
        bound: u32,
    },
    /// A snapshot carried a probability that is non-finite or outside
    /// `[0, 1]`.
    SnapshotInvalidProbability(f64),
    /// The underlying file could not be read or written. The `std::io`
    /// error is rendered to a string so the variant stays `Clone + PartialEq`
    /// like the rest of the taxonomy.
    SnapshotIo {
        /// Path of the offending file.
        path: String,
        /// Rendering of the I/O error.
        message: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} fact attributes, got {got}"
                )
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column {column}: expected {expected}, got {got}"
            ),
            StorageError::InvalidProbability(p) => {
                write!(f, "invalid probability {p}: must be within [0, 1]")
            }
            StorageError::MissingMarginal(v) => write!(
                f,
                "lineage variable {v} has no marginal probability: the statement cannot price \
                 its rows"
            ),
            StorageError::ConflictingMarginal {
                var,
                marginal,
                found,
            } => write!(
                f,
                "lineage variable {var} has marginal probability {marginal}, but an atomic tuple \
                 of it carries {found}"
            ),
            StorageError::RelationExists(n) => write!(f, "relation already exists: {n}"),
            StorageError::UnknownRelation(n) => write!(f, "unknown relation: {n}"),
            StorageError::ParseError { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            StorageError::PlanNotApplicable { plan, reason } => {
                write!(f, "plan {plan} is not applicable: {reason}")
            }
            StorageError::UnionIncompatible { column, detail } => {
                write!(
                    f,
                    "set operation inputs are not union-compatible at column {column}: {detail}"
                )
            }
            StorageError::Incomparable { column, detail } => {
                write!(f, "cannot compare column {column}: {detail}")
            }
            StorageError::SnapshotBadMagic => {
                write!(f, "snapshot has bad magic bytes: not a TPDB snapshot file")
            }
            StorageError::SnapshotUnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported (this build reads up to \
                     version {supported})"
                )
            }
            StorageError::SnapshotChecksumMismatch {
                section,
                expected,
                got,
            } => write!(
                f,
                "snapshot section `{section}` failed its checksum: stored {expected:#018x}, \
                 recomputed {got:#018x}"
            ),
            StorageError::SnapshotTruncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "snapshot truncated while reading {context}: needed {needed} byte(s), \
                 {available} available"
            ),
            StorageError::SnapshotCorrupt { section, detail } => {
                write!(f, "snapshot section `{section}` is corrupt: {detail}")
            }
            StorageError::SnapshotBadSymbol { id, bound } => write!(
                f,
                "snapshot references symbol id {id}, outside the snapshot's declared variable \
                 space of {bound} ids"
            ),
            StorageError::SnapshotInvalidProbability(p) => {
                write!(
                    f,
                    "snapshot carries invalid probability {p}: must be finite and within [0, 1]"
                )
            }
            StorageError::SnapshotIo { path, message } => {
                write!(f, "snapshot I/O error on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(StorageError::UnknownColumn("Loc".into())
            .to_string()
            .contains("Loc"));
        assert!(StorageError::ArityMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2"));
        assert!(StorageError::InvalidProbability(1.2)
            .to_string()
            .contains("1.2"));
        assert!(StorageError::MissingMarginal(VarId(7))
            .to_string()
            .contains("variable x7 "));
        let e = StorageError::ConflictingMarginal {
            var: VarId(3),
            marginal: 0.25,
            found: 0.5,
        }
        .to_string();
        assert!(
            e.contains("x3") && e.contains("0.25") && e.contains("0.5"),
            "{e}"
        );
        assert!(StorageError::ParseError {
            line: 4,
            message: "bad interval".into()
        }
        .to_string()
        .contains("line 4"));
        let e = StorageError::UnionIncompatible {
            column: "Loc".into(),
            detail: "left is INT, right is STR".into(),
        }
        .to_string();
        assert!(e.contains("union-compatible"), "{e}");
        assert!(e.contains("column Loc"), "{e}");
        let e = StorageError::Incomparable {
            column: "Name".into(),
            detail: "Name is STR, the literal 1 is INT".into(),
        }
        .to_string();
        assert!(e.contains("cannot compare column Name"), "{e}");
    }

    #[test]
    fn snapshot_display_messages_carry_their_evidence() {
        assert!(StorageError::SnapshotBadMagic.to_string().contains("magic"));
        let e = StorageError::SnapshotUnsupportedVersion {
            found: 9,
            supported: 1,
        }
        .to_string();
        assert!(e.contains('9') && e.contains('1'), "{e}");
        let e = StorageError::SnapshotChecksumMismatch {
            section: "relations".into(),
            expected: 0xdead,
            got: 0xbeef,
        }
        .to_string();
        assert!(e.contains("relations") && e.contains("dead"), "{e}");
        let e = StorageError::SnapshotTruncated {
            context: "symbol name".into(),
            needed: 8,
            available: 3,
        }
        .to_string();
        assert!(e.contains("symbol name") && e.contains('8'), "{e}");
        let e = StorageError::SnapshotBadSymbol { id: 42, bound: 10 }.to_string();
        assert!(e.contains("42") && e.contains("10"), "{e}");
        assert!(StorageError::SnapshotInvalidProbability(f64::NAN)
            .to_string()
            .contains("NaN"));
        let e = StorageError::SnapshotIo {
            path: "/tmp/x.snap".into(),
            message: "permission denied".into(),
        }
        .to_string();
        assert!(e.contains("/tmp/x.snap") && e.contains("permission"), "{e}");
    }
}
