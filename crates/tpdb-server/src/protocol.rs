//! The wire protocol: newline-delimited requests, count-delimited
//! response frames.
//!
//! **Requests** are single UTF-8 lines, terminated by `\n`:
//!
//! * any query-language statement (`SELECT ...`, `SAVE SNAPSHOT '...'`,
//!   `LOAD SNAPSHOT '...'`, set operations, ...) is sent verbatim;
//! * `PREPARE <name> AS <text>` validates `<text>` and binds it to
//!   `<name>` for this connection;
//! * `EXECUTE <name>` / `EXECUTE <name> (<literal>, ...)` runs a prepared
//!   statement, binding one literal per `$n` slot;
//! * `EXPLAIN <text>` returns the plan without executing;
//! * `PING`, `STATS`, `SLEEP <millis>` (diagnostics) and `CLOSE`.
//!
//! **Responses** are framed by a count-carrying header line and an `OK`
//! terminator line, so a reader always knows how many lines follow:
//!
//! ```text
//! ROWS <n>                     TEXT <n>                ERR <Code> <message>
//! SCHEMA <col:TYPE\t...>       <line 1>
//! <row 1>                      ...
//! ...                          <line n>
//! OK                           OK
//! ```
//!
//! Row lines are tab-separated `fact₁ .. fact_k  [s,e)  p  λ` — the fact
//! values, the validity interval, the probability and the lineage of one
//! tuple. A string fact is escaped ([`escape_field`]) so embedded tabs or
//! newlines cannot break the framing; no other field can hold one of the
//! escaped characters, so no other field is scanned for them.
//!
//! One row writer, [`write_tuple`], appends a row to a caller's buffer with
//! plain byte writes: integer facts and interval endpoints digit by digit
//! ([`write_decimal`]), the other non-string facts and the probability by
//! their `Display` (shortest round-trip for a float), and the lineage by its
//! own text writer — no per-field `String`, and a deferred lineage is
//! printed from its recipe without building its tree.
//!
//! The server writes a `ROWS` frame with [`write_rows_frame`], which
//! encodes it through the connection's one reused buffer and hands the
//! buffer to a flush callback (the socket's `write_all`) each time it holds
//! [`CHUNK_BYTES`] (64 KiB), and once after the terminator. A chunk is at
//! most 64 KiB plus one line, so the client parses chunk *k* while chunk
//! *k + 1* is encoded, and a reply in flight takes one chunk of memory
//! beside its result relation. The chunks concatenate to the same frame
//! whatever the chunk size. [`render_tuple`], [`render_relation_rows`] and
//! [`rows_response`] are one-shot wrappers over the same row writer for the
//! tests and the benchmark, which is what makes "byte-identical to a serial
//! [`Session`](tpdb_query::Session) run" a checkable property.

use std::fmt::{self, Write as _};
use tpdb_query::TpdbError;
use tpdb_storage::{write_decimal, Schema, TpRelation, TpTuple, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A query-language statement, sent verbatim.
    Query(String),
    /// `PREPARE <name> AS <text>`: validate and name a statement.
    Prepare {
        /// The connection-local statement name.
        name: String,
        /// The statement text.
        text: String,
    },
    /// `EXECUTE <name> (<literals>)`: run a named statement with bound
    /// parameter values.
    Execute {
        /// The connection-local statement name.
        name: String,
        /// One value per `$n` slot, in order.
        params: Vec<Value>,
    },
    /// `EXPLAIN <text>`: plan without executing.
    Explain(String),
    /// `SLEEP <millis>`: occupy an execution slot for the given time, at
    /// most [`MAX_SLEEP_MS`] (diagnostics; the concurrency tests use it to
    /// create deterministic backlog).
    Sleep(u64),
    /// `PING`: liveness probe.
    Ping,
    /// `STATS`: server counters as `key=value` lines.
    Stats,
    /// `CLOSE`: end this connection.
    Close,
}

/// The typed error classes of the wire protocol. The first word after
/// `ERR` on the wire; clients match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The statement text failed to parse.
    Parse,
    /// A catalog/schema/IO error from the storage layer.
    Storage,
    /// Wrong number of bound parameter values.
    ParameterCount,
    /// A `$n` placeholder reached execution unbound.
    UnboundParameter,
    /// The admission queue is full — retry later (backpressure, not
    /// failure).
    ServerBusy,
    /// The server is draining; the request was not executed.
    ServerShuttingDown,
    /// The request line itself was malformed.
    Protocol,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Parse => "Parse",
            Self::Storage => "Storage",
            Self::ParameterCount => "ParameterCount",
            Self::UnboundParameter => "UnboundParameter",
            Self::ServerBusy => "ServerBusy",
            Self::ServerShuttingDown => "ServerShuttingDown",
            Self::Protocol => "Protocol",
        })
    }
}

impl std::str::FromStr for ErrorCode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Parse" => Ok(Self::Parse),
            "Storage" => Ok(Self::Storage),
            "ParameterCount" => Ok(Self::ParameterCount),
            "UnboundParameter" => Ok(Self::UnboundParameter),
            "ServerBusy" => Ok(Self::ServerBusy),
            "ServerShuttingDown" => Ok(Self::ServerShuttingDown),
            "Protocol" => Ok(Self::Protocol),
            other => Err(format!("unknown error code: {other}")),
        }
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A relation: rendered schema line plus one rendered line per tuple.
    Rows {
        /// The rendered schema (`SCHEMA` line payload).
        schema: String,
        /// One rendered, escaped line per tuple.
        rows: Vec<String>,
    },
    /// Free-form text lines (EXPLAIN output, STATS, PONG, ...).
    Text(Vec<String>),
    /// A typed error.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail (single logical line; escaped on the
        /// wire).
        message: String,
    },
}

impl Response {
    /// Encodes the frame for the wire, including the trailing newline.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame, trailing newline included, to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        match self {
            Self::Rows { schema, rows } => {
                let body: usize = rows.iter().map(|row| row.len() + 1).sum();
                out.reserve(FRAME_OVERHEAD + schema.len() + body);
                write_rows_header(out, rows.len(), |out| out.push_str(schema));
                for row in rows {
                    out.push_str(row);
                    out.push('\n');
                }
                out.push_str(FRAME_END);
            }
            Self::Text(lines) => {
                push_fmt(out, format_args!("TEXT {}\n", lines.len()));
                for line in lines {
                    push_escaped(out, line);
                    out.push('\n');
                }
                out.push_str(FRAME_END);
            }
            Self::Error { code, message } => {
                push_fmt(out, format_args!("ERR {code} "));
                push_escaped(out, message);
                out.push('\n');
            }
        }
    }

    /// Maps an engine error onto its wire error class.
    #[must_use]
    pub fn from_error(err: &TpdbError) -> Self {
        let code = match err {
            TpdbError::Parse(_) => ErrorCode::Parse,
            TpdbError::Storage(_) => ErrorCode::Storage,
            TpdbError::ParameterCount { .. } => ErrorCode::ParameterCount,
            TpdbError::UnboundParameter { .. } => ErrorCode::UnboundParameter,
        };
        Self::Error {
            code,
            message: err.to_string(),
        }
    }
}

/// The longest `SLEEP` accepted. A sleeping statement holds an execution
/// slot, and shutdown waits for every slot to drain, so an unbounded sleep
/// would hold shutdown (and the handle's `Drop`) for as long as it lasts.
pub const MAX_SLEEP_MS: u64 = 10_000;

/// The terminator line of `ROWS` and `TEXT` frames.
const FRAME_END: &str = "OK\n";

/// The bytes of a `ROWS` frame besides its schema and rows: the header
/// words, a row count and the terminator.
const FRAME_OVERHEAD: usize = 40;

/// Writes the `ROWS <n>` and `SCHEMA …` lines; `schema` writes the
/// payload of the latter.
fn write_rows_header(out: &mut String, rows: usize, schema: impl FnOnce(&mut String)) {
    push_fmt(out, format_args!("ROWS {rows}\nSCHEMA "));
    schema(out);
    out.push('\n');
}

/// Appends formatted text to a `String`, which cannot fail.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("writing to a String cannot fail");
}

/// Appends `s` to `out` escaped as [`escape_field`] escapes it. The four
/// escaped characters are ASCII, so every split falls on a character
/// boundary; runs between them are copied whole.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Escapes a field or text line for the wire: backslash, tab, newline and
/// carriage return become two-character escapes, so one field can never
/// split a row and one row can never split a frame.
#[must_use]
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Reverses [`escape_field`]. Unknown escapes keep the escaped character;
/// a trailing lone backslash is kept verbatim.
#[must_use]
pub fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Renders a schema as the `SCHEMA` line payload: tab-separated
/// `name:TYPE` pairs.
#[must_use]
pub fn render_schema(schema: &Schema) -> String {
    let mut out = String::new();
    write_schema(&mut out, schema);
    out
}

/// Appends the `SCHEMA` line payload of `schema` to `out`.
fn write_schema(out: &mut String, schema: &Schema) {
    for (i, field) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        push_escaped(out, &field.name);
        push_fmt(out, format_args!(":{}", field.dtype));
    }
}

/// Appends one tuple as a wire row, without its line terminator, to `out`:
/// tab-separated fact values, then the interval, the probability and the
/// lineage. Only a `Str` fact can hold a character the framing escapes; an
/// `Int` and the interval's endpoints are written digit by digit, the other
/// facts and the probability by their `Display`, and the lineage — `x<id>`,
/// constants, connectives, parentheses and spaces — by its text writer. A
/// deferred lineage is printed from its recipe and stays deferred; nothing
/// is allocated beyond the growth of `out`.
pub fn write_tuple(out: &mut String, tuple: &TpTuple) {
    for value in tuple.facts() {
        match value {
            Value::Str(s) => push_escaped(out, s),
            Value::Int(i) => push_decimal(out, *i),
            other => push_fmt(out, format_args!("{other}")),
        }
        out.push('\t');
    }
    out.push('[');
    push_decimal(out, tuple.interval().start());
    out.push(',');
    push_decimal(out, tuple.interval().end());
    out.push_str(")\t");
    push_fmt(out, format_args!("{}\t", tuple.probability()));
    tuple
        .lazy_lineage()
        .write_text(out)
        .expect("writing to a String cannot fail");
}

/// Appends `n` in decimal ([`write_decimal`]).
fn push_decimal(out: &mut String, n: i64) {
    write_decimal(out, n).expect("writing to a String cannot fail");
}

/// The size at which [`write_rows_frame`] hands its buffer to `flush`.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Writes the whole `ROWS` frame of `relation` — the header, the schema,
/// one row line per tuple ([`write_tuple`]) and the terminator — through
/// `out` (expected empty) in chunks: whenever `out` holds [`CHUNK_BYTES`]
/// or more after a line, and once after the terminator, `out` is passed to
/// `flush` and cleared. A chunk is therefore at most `CHUNK_BYTES` plus one
/// line, and the chunks concatenate to the frame. The first error `flush`
/// returns ends the frame and is returned; `out` then holds the unsent
/// chunk.
///
/// `out` is given `CHUNK_BYTES` of room, and before each row room for the
/// frame's longest line so far, so the line that crosses the chunk size
/// grows it to what that line needs rather than doubling it: its capacity
/// ends at most one chunk plus the longest line (unless a line longer than
/// every line before it in its frame is the one that crosses), and a
/// buffer that has written a frame writes it again without allocating.
pub fn write_rows_frame<E>(
    out: &mut String,
    relation: &TpRelation,
    mut flush: impl FnMut(&str) -> Result<(), E>,
) -> Result<(), E> {
    let mut send = |out: &mut String| {
        flush(out)?;
        out.clear();
        Ok(())
    };
    out.reserve(CHUNK_BYTES);
    write_rows_header(out, relation.len(), |out| {
        write_schema(out, relation.schema());
    });
    let mut longest = out.len();
    for tuple in relation.iter() {
        out.reserve_exact(longest);
        let start = out.len();
        write_tuple(out, tuple);
        out.push('\n');
        longest = longest.max(out.len() - start);
        if out.len() >= CHUNK_BYTES {
            send(out)?;
        }
    }
    out.push_str(FRAME_END);
    send(out)
}

/// Renders one tuple as a wire row ([`write_tuple`] into a fresh `String`).
#[must_use]
pub fn render_tuple(tuple: &TpTuple) -> String {
    let mut out = String::new();
    write_tuple(&mut out, tuple);
    out
}

/// Renders a whole relation as wire rows — the rows of
/// [`write_rows_frame`] as the client reads them back. Every row is written
/// ([`write_tuple`]) into one reused buffer and copied out at its exact
/// size: one allocation per row.
#[must_use]
pub fn render_relation_rows(relation: &TpRelation) -> Vec<String> {
    let mut row = String::new();
    relation
        .iter()
        .map(|tuple| {
            row.clear();
            write_tuple(&mut row, tuple);
            row.as_str().to_owned()
        })
        .collect()
}

/// Builds the `ROWS` response for a result relation; its
/// [`encode`](Response::encode) is the frame [`write_rows_frame`] writes.
#[must_use]
pub fn rows_response(relation: &TpRelation) -> Response {
    Response::Rows {
        schema: render_schema(relation.schema()),
        rows: render_relation_rows(relation),
    }
}

/// A malformed request line. Request-line syntax has exactly one failure
/// class on the wire — `ERR Protocol` — so the type is a message-bearing
/// newtype rather than an enum: it exists to keep the failure typed on the
/// Rust side while carrying the human-readable description verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    message: String,
}

impl RequestError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The description the server sends back in the `ERR Protocol` frame.
    #[must_use]
    pub fn into_message(self) -> String {
        self.message
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RequestError {}

/// Parses one request line (already stripped of its line terminator).
/// Command words are matched case-insensitively; anything that is not a
/// protocol command is passed through as query text.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err(RequestError::new("empty request"));
    }
    let mut words = trimmed.split_whitespace();
    let head = words.next().unwrap_or_default();
    match head.to_ascii_uppercase().as_str() {
        "PING" => expect_bare(trimmed, head, Request::Ping),
        "STATS" => expect_bare(trimmed, head, Request::Stats),
        "CLOSE" => expect_bare(trimmed, head, Request::Close),
        "SLEEP" => {
            let rest = trimmed[head.len()..].trim();
            match rest.parse() {
                Ok(millis) if millis <= MAX_SLEEP_MS => Ok(Request::Sleep(millis)),
                _ => Err(RequestError::new(format!(
                    "SLEEP expects at most {MAX_SLEEP_MS} milliseconds, got `{rest}`"
                ))),
            }
        }
        "EXPLAIN" => {
            let rest = trimmed[head.len()..].trim();
            if rest.is_empty() {
                return Err(RequestError::new("EXPLAIN expects a statement"));
            }
            Ok(Request::Explain(rest.to_owned()))
        }
        "PREPARE" => parse_prepare(trimmed, head),
        "EXECUTE" => parse_execute(trimmed, head),
        _ => Ok(Request::Query(trimmed.to_owned())),
    }
}

/// Rejects trailing garbage after an argument-less command.
fn expect_bare(line: &str, head: &str, req: Request) -> Result<Request, RequestError> {
    if line.len() == head.len() {
        Ok(req)
    } else {
        Err(RequestError::new(format!(
            "`{}` takes no arguments",
            head.to_ascii_uppercase()
        )))
    }
}

/// `PREPARE <name> AS <text>`.
fn parse_prepare(line: &str, head: &str) -> Result<Request, RequestError> {
    let rest = line[head.len()..].trim_start();
    let (name, after_name) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| RequestError::new("PREPARE expects `<name> AS <statement>`"))?;
    if !is_identifier(name) {
        return Err(RequestError::new(format!(
            "invalid statement name `{name}`"
        )));
    }
    let after_name = after_name.trim_start();
    let (kw, text) = after_name
        .split_once(char::is_whitespace)
        .ok_or_else(|| RequestError::new("PREPARE expects `AS <statement>`"))?;
    if !kw.eq_ignore_ascii_case("AS") {
        return Err(RequestError::new(format!(
            "PREPARE expects `AS`, got `{kw}`"
        )));
    }
    let text = text.trim();
    if text.is_empty() {
        return Err(RequestError::new("PREPARE expects a statement after AS"));
    }
    Ok(Request::Prepare {
        name: name.to_owned(),
        text: text.to_owned(),
    })
}

/// `EXECUTE <name>` or `EXECUTE <name> (<literal>, ...)`.
fn parse_execute(line: &str, head: &str) -> Result<Request, RequestError> {
    let rest = line[head.len()..].trim();
    if rest.is_empty() {
        return Err(RequestError::new("EXECUTE expects a statement name"));
    }
    let (name, args) = match rest.split_once('(') {
        None => (rest, None),
        Some((name, args)) => {
            let args = args
                .strip_suffix(')')
                .ok_or_else(|| RequestError::new("unterminated parameter list"))?;
            (name.trim(), Some(args))
        }
    };
    if !is_identifier(name) {
        return Err(RequestError::new(format!(
            "invalid statement name `{name}`"
        )));
    }
    let params = match args {
        None => Vec::new(),
        Some(a) => parse_literals(a)?,
    };
    Ok(Request::Execute {
        name: name.to_owned(),
        params,
    })
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses a comma-separated literal list: `NULL`, `TRUE`/`FALSE`,
/// integers, floats, and `'...'` strings with `''` escaping the quote.
pub fn parse_literals(s: &str) -> Result<Vec<Value>, RequestError> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    if rest.is_empty() {
        return Ok(out);
    }
    loop {
        let (value, tail) = parse_literal(rest)?;
        out.push(value);
        rest = tail.trim_start();
        if rest.is_empty() {
            return Ok(out);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| {
                RequestError::new(format!("expected `,` between literals, got `{rest}`"))
            })?
            .trim_start();
        if rest.is_empty() {
            return Err(RequestError::new("trailing `,` in parameter list"));
        }
    }
}

/// Parses one literal off the front of `s`, returning the remainder.
fn parse_literal(s: &str) -> Result<(Value, &str), RequestError> {
    if let Some(body) = s.strip_prefix('\'') {
        // Scan for the closing quote, treating '' as an escaped quote.
        let mut text = String::new();
        let mut chars = body.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c != '\'' {
                text.push(c);
                continue;
            }
            if let Some(&(_, '\'')) = chars.peek() {
                chars.next();
                text.push('\'');
                continue;
            }
            let rest = &body[i + 1..];
            return Ok((Value::str(&text), rest));
        }
        return Err(RequestError::new(format!(
            "unterminated string literal: '{body}"
        )));
    }
    let end = s.find([',', ' ', '\t']).unwrap_or(s.len());
    let (word, rest) = s.split_at(end);
    if word.eq_ignore_ascii_case("NULL") {
        return Ok((Value::Null, rest));
    }
    if word.eq_ignore_ascii_case("TRUE") {
        return Ok((Value::Bool(true), rest));
    }
    if word.eq_ignore_ascii_case("FALSE") {
        return Ok((Value::Bool(false), rest));
    }
    if let Ok(i) = word.parse::<i64>() {
        return Ok((Value::Int(i), rest));
    }
    if let Ok(f) = word.parse::<f64>() {
        return Ok((Value::Float(f), rest));
    }
    Err(RequestError::new(format!("invalid literal: `{word}`")))
}

/// Formats a [`Value`] as a literal [`parse_literals`] reads back as the
/// same value — used by [`crate::Client::execute`] to send bound
/// parameters. A `Float` is written so that it reads back as a `Float`
/// (`1.0`, `-0.0`, `1e16`, `NaN`).
#[must_use]
pub fn format_literal(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_owned(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_into_typed_requests() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("CLOSE").unwrap(), Request::Close);
        assert_eq!(parse_request("SLEEP 25").unwrap(), Request::Sleep(25));
        assert_eq!(
            parse_request("SELECT * FROM a").unwrap(),
            Request::Query("SELECT * FROM a".to_owned())
        );
        assert_eq!(
            parse_request("EXPLAIN SELECT * FROM a").unwrap(),
            Request::Explain("SELECT * FROM a".to_owned())
        );
        assert_eq!(
            parse_request("PREPARE q1 AS SELECT * FROM a WHERE Loc = $1").unwrap(),
            Request::Prepare {
                name: "q1".to_owned(),
                text: "SELECT * FROM a WHERE Loc = $1".to_owned(),
            }
        );
        assert_eq!(
            parse_request("EXECUTE q1 ('ZAK', 3, 1.5, TRUE, NULL)").unwrap(),
            Request::Execute {
                name: "q1".to_owned(),
                params: vec![
                    Value::str("ZAK"),
                    Value::Int(3),
                    Value::Float(1.5),
                    Value::Bool(true),
                    Value::Null,
                ],
            }
        );
        assert_eq!(
            parse_request("EXECUTE q1").unwrap(),
            Request::Execute {
                name: "q1".to_owned(),
                params: vec![],
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("").is_err());
        assert!(parse_request("PING now").is_err());
        assert!(parse_request("SLEEP soon").is_err());
        assert!(parse_request("SLEEP 10001").is_err());
        assert!(parse_request(&format!("SLEEP {}", u64::MAX)).is_err());
        assert!(parse_request("PREPARE q1").is_err());
        assert!(parse_request("PREPARE q1 SELECT 1").is_err());
        assert!(parse_request("PREPARE 1q AS SELECT 1").is_err());
        assert!(parse_request("EXECUTE q1 ('unterminated)").is_err());
        assert!(parse_request("EXECUTE q1 (1,)").is_err());
        assert!(parse_request("EXECUTE q1 (1 2)").is_err());
    }

    #[test]
    fn string_literals_roundtrip_through_quote_escaping() {
        let v = Value::str("it''s; a 'test'".replace("''", "'").as_str());
        let formatted = format_literal(&v);
        let parsed = parse_literals(&formatted).unwrap();
        assert_eq!(parsed, vec![v]);
    }

    #[test]
    fn formatted_literals_read_back_as_the_same_value() {
        use tpdb_storage::{Catalog, DataType, Schema};
        // A literal in EXPLAIN text reads back too: bound to a parameter
        // (in the logical and the physical plan), and written inline where
        // query text has a form for the value.
        let mut catalog = Catalog::new();
        let schema = Schema::tp(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
        ]);
        let mut t = catalog.create_relation("t", schema).unwrap();
        t.push(
            vec![
                Value::Int(1),
                Value::Float(1.0),
                Value::str("x"),
                Value::Bool(true),
            ],
            tpdb_temporal::Interval::new(0, 1),
            0.5,
        );
        let _ = t.finish();
        let session = tpdb_query::Session::new(catalog);
        // The literal of each `Filter (column = literal)` in `text`.
        let explained = |text: &str, column: &str| -> Vec<String> {
            let prefix = format!("Filter ({column} = ");
            text.lines()
                .filter_map(|line| {
                    let rest = &line[line.find(&prefix)? + prefix.len()..];
                    Some(rest[..rest.find(')')?].to_owned())
                })
                .collect()
        };
        for v in [
            Value::Int(i64::MIN),
            Value::Int((1 << 53) + 1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(1e16),
            Value::Float(1.5e-7),
            Value::Float(0.1),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
            Value::str("O'Brien"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Null,
        ] {
            let formatted = format_literal(&v);
            let mut literals = vec![formatted.clone()];
            let column = match v {
                Value::Int(_) | Value::Null => "i",
                Value::Float(_) => "f",
                Value::Str(_) => "s",
                Value::Bool(_) => "b",
            };
            let statement = session
                .prepare(&format!("SELECT * FROM t WHERE {column} = $1"))
                .unwrap();
            let text = statement.explain_bound(std::slice::from_ref(&v)).unwrap();
            literals.extend(explained(&text, column));
            assert_eq!(literals.len(), 3, "{text}");
            let inline = matches!(&v, Value::Int(_) | Value::Str(_) | Value::Bool(_))
                || matches!(v, Value::Float(x) if x.is_finite());
            if inline {
                let query = format!("SELECT * FROM t WHERE {column} = {formatted}");
                let text = session.explain(&query).unwrap();
                literals.extend(explained(&text, column));
                assert_eq!(literals.len(), 5, "{text}");
            }
            for literal in literals {
                let parsed = parse_literals(&literal).unwrap();
                // Debug tells `Int(1)` from `Float(1.0)` and `0.0` from `-0.0`.
                assert_eq!(format!("{parsed:?}"), format!("{:?}", [&v]), "{literal}");
            }
        }
    }

    #[test]
    fn field_escaping_roundtrips() {
        for s in [
            "plain",
            "tab\there",
            "line\nbreak",
            "back\\slash",
            "\r\n\t\\",
        ] {
            assert_eq!(unescape_field(&escape_field(s)), s);
            assert!(!escape_field(s).contains('\n'));
            assert!(!escape_field(s).contains('\t'));
        }
    }

    #[test]
    fn response_frames_encode_with_count_and_terminator() {
        let rows = Response::Rows {
            schema: "Name:STR".to_owned(),
            rows: vec!["Ann\t[2,8)\t0.7\tx1".to_owned()],
        };
        assert_eq!(
            rows.encode(),
            "ROWS 1\nSCHEMA Name:STR\nAnn\t[2,8)\t0.7\tx1\nOK\n"
        );
        let text = Response::Text(vec!["PONG".to_owned()]);
        assert_eq!(text.encode(), "TEXT 1\nPONG\nOK\n");
        let err = Response::Error {
            code: ErrorCode::ServerBusy,
            message: "queue full\nretry".to_owned(),
        };
        assert_eq!(err.encode(), "ERR ServerBusy queue full\\nretry\n");
    }
}
