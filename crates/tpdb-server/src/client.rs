//! A blocking line-protocol client, used by the tests, the examples and
//! the throughput benchmark.

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
        Ok(Self { reader, writer })
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
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.read_response()
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

    /// Reads one response frame off the connection.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let header = self.read_line()?;
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
            let schema_line = self.read_line()?;
            let schema = schema_line
                .strip_prefix("SCHEMA ")
                .or_else(|| (schema_line == "SCHEMA").then_some(""))
                .ok_or_else(|| {
                    ClientError::Protocol(format!("expected SCHEMA line, got `{schema_line}`"))
                })?
                .to_owned();
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(self.read_line()?);
            }
            self.expect_ok()?;
            return Ok(Response::Rows { schema, rows });
        }
        if let Some(n) = header.strip_prefix("TEXT ") {
            let n = parse_count(n)?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                lines.push(unescape_field(&self.read_line()?));
            }
            self.expect_ok()?;
            return Ok(Response::Text(lines));
        }
        Err(ClientError::Protocol(format!(
            "unexpected frame header: `{header}`"
        )))
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-frame".to_owned(),
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    fn expect_ok(&mut self) -> Result<(), ClientError> {
        let line = self.read_line()?;
        if line == "OK" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "expected OK terminator, got `{line}`"
            )))
        }
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
