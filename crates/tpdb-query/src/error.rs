//! The unified error type of the query API.
//!
//! Every entry point of the query layer — [`crate::Session`],
//! [`crate::PreparedQuery`], [`crate::ResultCursor`], the plan builders and
//! the executor — returns a single error enum, [`TpdbError`]. The ad-hoc
//! per-layer errors of earlier versions (a bare-string parse error, the
//! storage error leaking through the planner) are folded into it with
//! `From` conversions, so `?` works across the whole stack, and parse
//! errors now carry the **byte span** and the **offending token** of the
//! failure.

use std::fmt;
use tpdb_storage::StorageError;

/// A half-open byte range `[start, end)` into the original query text.
///
/// Spans point at the offending token of a parse error; an empty span at
/// the end of the input marks an unexpected end of query.
///
/// ```
/// use tpdb_query::parse_query;
///
/// let err = parse_query("SELECT * FROM a WHERE Loc = ").unwrap_err();
/// // The span points at the end of the truncated input.
/// assert_eq!(err.span.start, 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte of the span.
    pub start: usize,
    /// Byte offset one past the last byte of the span.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// An empty span at `at` (used for end-of-input errors).
    #[must_use]
    pub fn empty(at: usize) -> Self {
        Self { start: at, end: at }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "byte {}", self.start)
        } else {
            write!(f, "bytes {}..{}", self.start, self.end)
        }
    }
}

/// A parse error with a human-readable message, the byte span of the
/// failure in the query text and, when the failure is attributable to a
/// token, the offending token's lexeme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong (e.g. `expected FROM, found 'WHERE'`).
    pub message: String,
    /// Where in the query text the error occurred.
    pub span: Span,
    /// The lexeme of the offending token, when one exists (`None` for
    /// unexpected end of input).
    pub token: Option<String>,
}

impl ParseError {
    /// Creates a parse error with an empty span at offset 0; use
    /// [`ParseError::at`] / [`ParseError::with_token`] to attach position
    /// information.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            span: Span::default(),
            token: None,
        }
    }

    /// Attaches the byte span of the failure.
    #[must_use]
    pub fn at(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Attaches the offending token's lexeme.
    #[must_use]
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {})", self.message, self.span)
    }
}

impl std::error::Error for ParseError {}

/// The unified error type of the query API.
///
/// ```
/// use tpdb_query::{Session, TpdbError};
/// use tpdb_storage::Catalog;
///
/// let session = Session::new(Catalog::new());
///
/// // Parse errors carry a byte span and the offending token.
/// match session.execute("SELECT * FORM a") {
///     Err(TpdbError::Parse(e)) => {
///         assert!(e.message.contains("expected FROM"));
///         assert_eq!(e.token.as_deref(), Some("FORM"));
///         assert_eq!((e.span.start, e.span.end), (9, 13));
///     }
///     other => panic!("expected a parse error, got {other:?}"),
/// }
///
/// // Catalog errors arrive through the same enum.
/// match session.execute("SELECT * FROM missing") {
///     Err(TpdbError::Storage(e)) => assert!(e.to_string().contains("unknown relation")),
///     other => panic!("expected a storage error, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TpdbError {
    /// The query text could not be parsed; carries the byte span and the
    /// offending token.
    Parse(ParseError),
    /// A catalog or schema error occurred while planning or executing.
    Storage(StorageError),
    /// A statement with `n` parameter placeholders was executed with a
    /// different number of bound values.
    ParameterCount {
        /// Placeholder slots in the statement (`$1..$expected`).
        expected: usize,
        /// Values actually supplied.
        got: usize,
    },
    /// A `$n` placeholder reached execution without a bound value (e.g. a
    /// parameterized query run through the one-shot legacy path, which has
    /// no way to bind values).
    UnboundParameter {
        /// The 1-based placeholder index.
        index: usize,
    },
}

impl fmt::Display for TpdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpdbError::Parse(e) => write!(f, "parse error: {e}"),
            TpdbError::Storage(e) => write!(f, "storage error: {e}"),
            TpdbError::ParameterCount { expected, got } => write!(
                f,
                "statement has {expected} parameter slot(s) but {got} value(s) were bound"
            ),
            TpdbError::UnboundParameter { index } => write!(
                f,
                "parameter ${index} is unbound; prepare the statement and bind values to execute it"
            ),
        }
    }
}

impl std::error::Error for TpdbError {
    #[expect(
        clippy::disallowed_types,
        reason = "`Error::source` names `dyn Error` by its trait signature"
    )]
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TpdbError::Parse(e) => Some(e),
            TpdbError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for TpdbError {
    fn from(e: ParseError) -> Self {
        TpdbError::Parse(e)
    }
}

impl From<StorageError> for TpdbError {
    fn from(e: StorageError) -> Self {
        TpdbError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_span_and_token_information() {
        let e = ParseError::new("expected FROM, found 'WHERE'")
            .at(Span::new(9, 14))
            .with_token("WHERE");
        assert_eq!(
            e.to_string(),
            "expected FROM, found 'WHERE' (at bytes 9..14)"
        );
        assert_eq!(e.token.as_deref(), Some("WHERE"));
        let eof = ParseError::new("unexpected end of input").at(Span::empty(20));
        assert!(eof.to_string().contains("at byte 20"));
    }

    #[test]
    fn conversions_and_sources() {
        let parse: TpdbError = ParseError::new("boom").into();
        assert!(matches!(parse, TpdbError::Parse(_)));
        assert!(std::error::Error::source(&parse).is_some());
        let storage: TpdbError = StorageError::UnknownRelation("a".into()).into();
        assert!(storage.to_string().contains("unknown relation"));
    }

    #[test]
    fn parameter_errors_are_descriptive() {
        let count = TpdbError::ParameterCount {
            expected: 2,
            got: 0,
        };
        assert!(count.to_string().contains("2 parameter slot(s)"));
        let unbound = TpdbError::UnboundParameter { index: 1 };
        assert!(unbound.to_string().contains("$1"));
        assert!(std::error::Error::source(&unbound).is_none());
    }
}
