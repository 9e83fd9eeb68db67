//! A blocking line-protocol client, used by the tests, the examples and
//! the throughput benchmark.
//!
//! A client reads every response line through one reused line buffer, so a
//! `ROWS` frame costs one allocation per row — the row's `String`, of its
//! exact size — plus its schema and its row list. The row list is reserved
//! from the header's count only up to a bound: a header claiming more rows
//! than the stream holds ends in [`ClientError::Protocol`], not in an
//! allocation of its size.

use crate::protocol::{format_literal, unescape_field, ErrorCode, Response};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use tpdb_storage::Value;

/// A client-side failure: transport, server-reported, or a malformed
/// frame.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP transport failed.
    Io(io::Error),
    /// The server answered `ERR <code> <message>`.
    Server {
        /// The typed error class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The response stream violated the frame grammar.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl ClientError {
    /// The server-reported error class, if this is a server error.
    #[must_use]
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            Self::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A query result as it came off the wire: the rendered schema line and
/// one rendered (still escaped) line per tuple — directly comparable,
/// byte for byte, to [`crate::protocol::render_relation_rows`] over a
/// serial in-process run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    /// The `SCHEMA` line payload (`name:TYPE`, tab-separated).
    pub schema: String,
    /// One rendered line per tuple.
    pub rows: Vec<String>,
}

/// A blocking connection to a running [`crate::Server`].
///
/// One request is in flight at a time (the protocol is strictly
/// request/response per connection); concurrency comes from opening more
/// clients.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The line buffer of every request and response line, reused.
    line: String,
}

impl Client {
    /// Connects to a server address (typically
    /// [`crate::ServerHandle::local_addr`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // The protocol is strict request/response: Nagle would hold every
        // request until the previous response's delayed ACK (~40ms per
        // round trip on loopback).
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Sends one raw request line and reads one response frame. The line
    /// must not contain a newline.
    pub fn request(&mut self, line: &str) -> Result<Response, ClientError> {
        if line.contains('\n') || line.contains('\r') {
            return Err(ClientError::Protocol(
                "request must be a single line".to_owned(),
            ));
        }
        // One write per request: a trailing-newline write of its own would
        // sit in the Nagle queue behind the unacked request bytes.
        self.line.clear();
        self.line.push_str(line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        read_frame(&mut self.reader, &mut self.line)
    }

    /// Runs a statement and returns its rows. Any non-`ROWS` response is
    /// an error.
    pub fn query(&mut self, text: &str) -> Result<Rows, ClientError> {
        match self.request(text)? {
            Response::Rows { schema, rows } => Ok(Rows { schema, rows }),
            other => Err(unexpected("ROWS", &other)),
        }
    }

    /// `PREPARE name AS text`; returns the statement's `$n` slot count.
    pub fn prepare(&mut self, name: &str, text: &str) -> Result<usize, ClientError> {
        let lines = match self.request(&format!("PREPARE {name} AS {text}"))? {
            Response::Text(lines) => lines,
            other => return Err(unexpected("TEXT", &other)),
        };
        let reply = lines.first().map(String::as_str).unwrap_or_default();
        reply
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("unparseable PREPARE reply: {reply}")))
    }

    /// `EXECUTE name (params...)`; returns the rows.
    pub fn execute(&mut self, name: &str, params: &[Value]) -> Result<Rows, ClientError> {
        let line = if params.is_empty() {
            format!("EXECUTE {name}")
        } else {
            let literals: Vec<String> = params.iter().map(format_literal).collect();
            format!("EXECUTE {name} ({})", literals.join(", "))
        };
        match self.request(&line)? {
            Response::Rows { schema, rows } => Ok(Rows { schema, rows }),
            other => Err(unexpected("ROWS", &other)),
        }
    }

    /// `EXPLAIN text`; returns the plan description lines.
    pub fn explain(&mut self, text: &str) -> Result<Vec<String>, ClientError> {
        match self.request(&format!("EXPLAIN {text}"))? {
            Response::Text(lines) => Ok(lines),
            other => Err(unexpected("TEXT", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request("PING")? {
            Response::Text(lines) if lines.first().is_some_and(|l| l == "PONG") => Ok(()),
            other => Err(unexpected("PONG", &other)),
        }
    }

    /// Server counters as `key=value` lines.
    pub fn stats(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request("STATS")? {
            Response::Text(lines) => Ok(lines),
            other => Err(unexpected("TEXT", &other)),
        }
    }

    /// Occupies an execution slot of the server for `millis` (diagnostics;
    /// see [`crate::protocol::Request::Sleep`]).
    pub fn sleep_ms(&mut self, millis: u64) -> Result<(), ClientError> {
        match self.request(&format!("SLEEP {millis}"))? {
            Response::Text(_) => Ok(()),
            other => Err(unexpected("TEXT", &other)),
        }
    }

    /// Ends the connection politely.
    pub fn close(mut self) -> Result<(), ClientError> {
        match self.request("CLOSE")? {
            Response::Text(_) => Ok(()),
            other => Err(unexpected("BYE", &other)),
        }
    }
}

/// The most rows (`TEXT` lines) a frame header reserves room for: a larger
/// count grows the list as its rows arrive, so a count the stream does not
/// hold costs no memory.
const MAX_RESERVED: usize = 4096;

/// Reads one response frame from `reader`, each line through the reused
/// buffer `line`: a row is one `String` of its exact size, a `TEXT` line
/// one unescaped `String`. Any byte sequence reads as a frame or a typed
/// error — a stream that ends before its count of rows or its `OK` is
/// [`ClientError::Protocol`].
fn read_frame(reader: &mut impl BufRead, line: &mut String) -> Result<Response, ClientError> {
    let header = read_line(reader, line)?;
    if let Some(rest) = header.strip_prefix("ERR ") {
        let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
        let code = code.parse::<ErrorCode>().map_err(ClientError::Protocol)?;
        return Err(ClientError::Server {
            code,
            message: unescape_field(message),
        });
    }
    if let Some(n) = header.strip_prefix("ROWS ") {
        let n = parse_count(n)?;
        let schema_line = read_line(reader, line)?;
        let schema = schema_line
            .strip_prefix("SCHEMA ")
            .or_else(|| (schema_line == "SCHEMA").then_some(""))
            .ok_or_else(|| {
                ClientError::Protocol(format!("expected SCHEMA line, got `{schema_line}`"))
            })?
            .to_owned();
        let mut rows = Vec::with_capacity(n.min(MAX_RESERVED));
        for _ in 0..n {
            rows.push(read_line(reader, line)?.to_owned());
        }
        expect_ok(reader, line)?;
        return Ok(Response::Rows { schema, rows });
    }
    if let Some(n) = header.strip_prefix("TEXT ") {
        let n = parse_count(n)?;
        let mut lines = Vec::with_capacity(n.min(MAX_RESERVED));
        for _ in 0..n {
            lines.push(unescape_field(read_line(reader, line)?));
        }
        expect_ok(reader, line)?;
        return Ok(Response::Text(lines));
    }
    Err(ClientError::Protocol(format!(
        "unexpected frame header: `{header}`"
    )))
}

/// Reads the next line into `line` and returns it without its terminator.
fn read_line<'a>(reader: &mut impl BufRead, line: &'a mut String) -> Result<&'a str, ClientError> {
    line.clear();
    let read = reader.read_line(line).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => ClientError::Protocol("frame line is not UTF-8".to_owned()),
        _ => ClientError::Io(e),
    })?;
    if read == 0 {
        return Err(ClientError::Protocol(
            "connection closed mid-frame".to_owned(),
        ));
    }
    Ok(line.trim_end_matches(['\n', '\r']))
}

fn expect_ok(reader: &mut impl BufRead, line: &mut String) -> Result<(), ClientError> {
    match read_line(reader, line)? {
        "OK" => Ok(()),
        other => Err(ClientError::Protocol(format!(
            "expected OK terminator, got `{other}`"
        ))),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

fn parse_count(s: &str) -> Result<usize, ClientError> {
    s.trim()
        .parse()
        .map_err(|_| ClientError::Protocol(format!("invalid frame count: `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::escape_field;

    /// SplitMix64: a fixed seed gives the same mutants on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    fn read(bytes: &[u8]) -> Result<Response, ClientError> {
        read_frame(&mut &bytes[..], &mut String::new())
    }

    /// Valid frames of every kind: rows holding escapes and multi-byte
    /// text, no rows, text lines and an error.
    fn frames() -> Vec<Response> {
        let row = |facts: &str, lineage: &str| format!("{facts}\t[2,8)\t0.7\t{lineage}");
        vec![
            Response::Rows {
                schema: format!("{}:STR\tk:INT", escape_field("Na\tme")),
                rows: vec![
                    row(&escape_field("Ann\\\n"), "x0 ∧ ¬(x4 ∨ x3)"),
                    row("中🦀\t-9223372036854775808", "x4294967295"),
                    row("-\ttrue\tNaN", "⊤"),
                ],
            },
            Response::Rows {
                schema: String::new(),
                rows: vec![],
            },
            Response::Text(vec![
                "PONG".to_owned(),
                "tab\there".to_owned(),
                "ä".to_owned(),
            ]),
            Response::Error {
                code: ErrorCode::ServerBusy,
                message: "queue\nfull".to_owned(),
            },
        ]
    }

    /// What a read may give: a frame, a frame-grammar error or the server's
    /// error — never a panic, an abort or a transport error.
    fn check(mutant: &[u8]) {
        match read(mutant) {
            Ok(Response::Rows { rows, .. }) => {
                let lines = mutant.iter().filter(|&&b| b == b'\n').count() + 1;
                assert!(
                    rows.len() + 3 <= lines,
                    "{:?}",
                    String::from_utf8_lossy(mutant)
                );
            }
            Ok(_) | Err(ClientError::Protocol(_) | ClientError::Server { .. }) => {}
            Err(e) => panic!("{e} reading {:?}", String::from_utf8_lossy(mutant)),
        }
    }

    #[test]
    fn a_count_the_stream_does_not_hold_is_a_protocol_error() {
        for count in ["1000000000000000", "18446744073709551615", "4097", "2"] {
            let frame = format!("ROWS {count}\nSCHEMA k:INT\n1\t[0,1)\t1\tx0\n");
            match read(frame.as_bytes()) {
                Err(ClientError::Protocol(m)) => assert_eq!(m, "connection closed mid-frame"),
                other => panic!("{other:?} reading {frame:?}"),
            }
        }
        for count in ["-1", "18446744073709551616", "", "1e3", "٣"] {
            let frame = format!("TEXT {count}\nOK\n");
            assert!(matches!(
                read(frame.as_bytes()),
                Err(ClientError::Protocol(_))
            ));
        }
        let no_ok = "TEXT 1\nPONG\n";
        assert!(matches!(
            read(no_ok.as_bytes()),
            Err(ClientError::Protocol(_))
        ));
        let not_utf8 = b"ROWS 1\nSCHEMA k:INT\n\xFF\t[0,1)\t1\tx0\nOK\n";
        assert!(matches!(read(not_utf8), Err(ClientError::Protocol(_))));
    }

    /// Valid frames read back as they were encoded. Then every prefix of
    /// them, and seeded mutants: flipped bits, inserted and deleted bytes
    /// (line breaks, escapes, bytes that are never UTF-8), cut tails,
    /// replaced counts and a dropped `OK`.
    #[test]
    fn mutated_frames_read_as_a_frame_or_a_typed_error() {
        let valid: Vec<Vec<u8>> = frames().iter().map(|f| f.encode().into_bytes()).collect();
        for (frame, want) in valid.iter().zip(frames()) {
            match (read(frame), want) {
                (Ok(got), want) => assert_eq!(got, want),
                (
                    Err(ClientError::Server { code, message }),
                    Response::Error {
                        code: c,
                        message: m,
                    },
                ) => {
                    assert_eq!((code, message), (c, m));
                }
                (got, want) => panic!("{got:?} reading {want:?}"),
            }
        }
        for frame in &valid {
            for end in 0..frame.len() {
                check(&frame[..end]);
            }
        }
        const INSERTED: [u8; 9] = [b'\n', b'\r', b'\t', b'\\', b' ', b'7', b'-', 0xFF, 0x80];
        const COUNTS: [&str; 6] = ["1000000000000000", "-1", "0", "99", "", "+2"];
        let mut rng = Rng(0x0F4A_3E5D);
        for _ in 0..3000 {
            let mut bytes = valid[rng.below(valid.len())].clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                match rng.below(6) {
                    0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.insert(at, rng.pick(&INSERTED)),
                    2 if !bytes.is_empty() => {
                        bytes.remove(at);
                    }
                    3 => bytes.truncate(at),
                    4 => {
                        let text = String::from_utf8_lossy(&bytes).into_owned();
                        if let Some((head, rest)) = text.split_once('\n') {
                            let word = head.split(' ').next().unwrap_or_default();
                            bytes = format!("{word} {}\n{rest}", rng.pick(&COUNTS)).into_bytes();
                        }
                    }
                    _ => {
                        let text = String::from_utf8_lossy(&bytes).into_owned();
                        bytes = text.replacen("OK\n", "", 1).into_bytes();
                    }
                }
            }
            check(&bytes);
        }
    }
}
