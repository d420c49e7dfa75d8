//! The text wire protocol: newline-delimited ASCII, symmetric enough that the
//! same module serves both the server (decode requests, encode replies) and
//! the client (encode requests, read replies). It also owns the two
//! protocol-neutral types: [`Request`], which the text codec here and the
//! length-prefixed binary codec in [`crate::binary`] both decode into and
//! encode from, and [`Reply`].
//!
//! All of the text framing lives in this module: [`encode_request`] writes a
//! request line (and a `BATCH`'s body lines), `TextDecoder` assembles a
//! connection's lines back into requests, and [`read_reply`] reads one reply
//! with its `OK n` answer lines or `METRICS <len>` payload.
//!
//! ## Requests
//!
//! ```text
//! QUERY <s> <t> <w>            one point lookup
//! BATCH <n>                    followed by n lines "<s> <t> <w>"
//! WITHIN <s> <t> <w> <d>       bounded reachability predicate
//! STATS                        server + cache counters
//! METRICS [recent]             Prometheus scrape / recent trace events
//! RELOAD <path>                swap in a new index snapshot (admin)
//! SHUTDOWN                     stop accepting and drain
//! ```
//!
//! Command verbs are case-insensitive; arguments are unsigned decimal
//! integers separated by whitespace (`RELOAD` takes one whitespace-free
//! path — the binary protocol carries arbitrary paths).
//!
//! ## Replies
//!
//! ```text
//! DIST <d>                     finite answer to QUERY (or one BATCH line)
//! INF                          unreachable under the constraint
//! OK <n>                       BATCH header, followed by n DIST/INF lines
//! TRUE | FALSE                 answer to WITHIN
//! STATS k=v k=v ...            answer to STATS (single line)
//! METRICS <len>                answer to METRICS, followed by exactly
//!                              <len> payload bytes (multi-line Prometheus
//!                              text, or a JSON event dump for `recent`)
//! RELOADED generation=<g> vertices=<n> entries=<m>
//!                              answer to RELOAD after the swap
//! BYE                          answer to SHUTDOWN
//! ERR <reason>                 any malformed or out-of-range request
//! ```
//!
//! `METRICS` is the one sized reply in the text protocol: its payload is
//! inherently multi-line, so it is length-prefixed instead of
//! newline-framed. `METRICS recent` (also accepted spelled `METRICS?recent`)
//! returns the server's recent trace events — the slow-query log — as JSON.
//!
//! An overloaded server **sheds** work it cannot queue: the reply is
//! `ERR `[`BUSY_REASON`] in the text protocol (a dedicated busy code in the
//! binary one), distinct from every validation error so clients can retry
//! with backoff instead of treating the request as malformed.

use crate::binary::MAX_FRAME;
use std::fmt::Write as _;
use std::io::BufRead;
use wcsd_graph::{Distance, Quality, VertexId};

/// Largest `BATCH` size the server accepts in one request; protects the
/// server from a single client queuing an unbounded amount of work.
pub const MAX_BATCH: usize = 1_000_000;

/// Reason string carried by [`Reply::Busy`]. The text protocol renders it as
/// `ERR <reason>`; the binary protocol has a dedicated reply code but clients
/// surface the same string, so shed requests read identically on both wires.
pub const BUSY_REASON: &str = "busy: pending job queue is full; retry later";

/// One client request, independent of the wire encoding: the text codec in
/// this module and the binary one in [`crate::binary`] both decode into it,
/// and the server dispatches it the same way from either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `QUERY s t w` — one `w`-constrained distance lookup.
    Query {
        /// Source vertex.
        s: VertexId,
        /// Target vertex.
        t: VertexId,
        /// Quality constraint.
        w: Quality,
    },
    /// `BATCH n` plus its `n` queries (text: `n` body lines; binary: inline
    /// in the frame).
    Batch {
        /// The `(s, t, w)` queries.
        queries: Vec<(VertexId, VertexId, Quality)>,
    },
    /// `WITHIN s t w d` — is there a `w`-path of length at most `d`?
    Within {
        /// Source vertex.
        s: VertexId,
        /// Target vertex.
        t: VertexId,
        /// Quality constraint.
        w: Quality,
        /// Distance bound.
        d: Distance,
    },
    /// `STATS` — report server counters.
    Stats,
    /// `METRICS [recent]` — Prometheus text scrape, or the recent trace
    /// events (slow-query log) as JSON.
    Metrics {
        /// `true` for the `recent` trace-event dump.
        recent: bool,
    },
    /// `RELOAD path` — swap the served snapshot for the one at `path` (a
    /// path on the *server's* filesystem).
    Reload {
        /// Path to a `WCIF` snapshot, resolved server-side.
        path: String,
    },
    /// `SHUTDOWN` — stop the server gracefully.
    Shutdown,
}

impl Request {
    /// Renders the request in the text protocol, without the final newline:
    /// one line, or for `BATCH` the header and its body lines.
    pub fn encode(&self) -> String {
        match self {
            Self::Query { s, t, w } => format!("QUERY {s} {t} {w}"),
            Self::Batch { queries } => {
                let mut text = format!("BATCH {}", queries.len());
                for (s, t, w) in queries {
                    let _ = write!(text, "\n{s} {t} {w}");
                }
                text
            }
            Self::Within { s, t, w, d } => format!("WITHIN {s} {t} {w} {d}"),
            Self::Stats => "STATS".to_string(),
            Self::Metrics { recent: false } => "METRICS".to_string(),
            Self::Metrics { recent: true } => "METRICS recent".to_string(),
            Self::Reload { path } => format!("RELOAD {path}"),
            Self::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

/// Appends the newline-terminated text encoding of a request to `out` (the
/// text mirror of [`crate::binary::encode_request`]).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(req.encode().as_bytes());
    out.push(b'\n');
}

/// Parses one request line. Returns a human-readable reason on failure, which
/// the server relays verbatim as `ERR <reason>`. A `BATCH n` header parses to
/// an empty `Batch`: the line alone carries no queries, and `TextDecoder`
/// collects the `n` body lines that follow it.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut it = line.split_whitespace();
    let verb = it.next().ok_or_else(|| "empty command".to_string())?;
    let req = match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            let (s, t, w) = (num(&mut it, "s")?, num(&mut it, "t")?, num(&mut it, "w")?);
            Request::Query { s, t, w }
        }
        "BATCH" => {
            let n = num::<usize>(&mut it, "n")?;
            if n > MAX_BATCH {
                return Err(format!("batch size {n} exceeds maximum {MAX_BATCH}"));
            }
            Request::Batch { queries: Vec::new() }
        }
        "WITHIN" => {
            let s = num(&mut it, "s")?;
            let t = num(&mut it, "t")?;
            let w = num(&mut it, "w")?;
            let d = num(&mut it, "d")?;
            Request::Within { s, t, w, d }
        }
        "STATS" => Request::Stats,
        "METRICS" => {
            let recent = match it.next() {
                None => false,
                Some(arg) if arg.eq_ignore_ascii_case("recent") => true,
                Some(arg) => return Err(format!("invalid argument <mode>: {arg:?}")),
            };
            Request::Metrics { recent }
        }
        // Scrape-config-friendly spelling: the whole thing as one token.
        "METRICS?RECENT" => Request::Metrics { recent: true },
        "RELOAD" => {
            let path = it.next().ok_or_else(|| "missing argument <path>".to_string())?;
            Request::Reload { path: path.to_string() }
        }
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown command {other:?}")),
    };
    if let Some(extra) = it.next() {
        return Err(format!("trailing argument {extra:?}"));
    }
    Ok(req)
}

/// Parses one `s t w` body line of a `BATCH` request.
pub fn parse_batch_line(line: &str) -> Result<(VertexId, VertexId, Quality), String> {
    let mut it = line.split_whitespace();
    let s = num(&mut it, "s")?;
    let t = num(&mut it, "t")?;
    let w = num(&mut it, "w")?;
    if let Some(extra) = it.next() {
        return Err(format!("trailing argument {extra:?}"));
    }
    Ok((s, t, w))
}

fn num<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<T, String> {
    let tok = it.next().ok_or_else(|| format!("missing argument <{what}>"))?;
    tok.parse().map_err(|_| format!("invalid argument <{what}>: {tok:?}"))
}

/// Assembles one connection's text lines into requests. A one-line request
/// comes out of the line that carries it; a `BATCH n` header opens a body,
/// and the batch comes out of its `n`-th body line.
#[derive(Debug, Default)]
pub(crate) struct TextDecoder {
    body: Option<BatchBody>,
}

/// An open `BATCH` body.
#[derive(Debug)]
struct BatchBody {
    /// Announced body-line count.
    expect: usize,
    /// Body lines consumed so far (valid or not).
    seen: usize,
    /// Parsed body queries (stops growing after the first bad line).
    queries: Vec<(VertexId, VertexId, Quality)>,
    /// First parse failure; later lines are drained but ignored.
    invalid: Option<String>,
}

impl TextDecoder {
    /// Whether the next line is a `BATCH` body line rather than a request.
    pub(crate) fn in_body(&self) -> bool {
        self.body.is_some()
    }

    /// Feeds one line, without its newline. Returns `None` for a blank line
    /// between requests and for every line of a `BATCH` but its last, else
    /// the request or the reason to answer `ERR`.
    pub(crate) fn feed(&mut self, line: &str) -> Option<Result<Request, String>> {
        if let Some(body) = &mut self.body {
            // All body lines are consumed even after a failure, so one bad
            // query poisons only this batch, never the connection framing.
            body.seen += 1;
            if body.invalid.is_none() {
                match parse_batch_line(line) {
                    Ok(q) => body.queries.push(q),
                    Err(reason) => {
                        body.invalid = Some(format!("batch line {}: {reason}", body.seen))
                    }
                }
            }
            if body.seen < body.expect {
                return None;
            }
            let BatchBody { queries, invalid, .. } = self.body.take()?;
            return Some(invalid.map_or(Ok(Request::Batch { queries }), Err));
        }
        if line.trim().is_empty() {
            return None; // blank keep-alive lines are not an error
        }
        let req = parse_request(line);
        if let Ok(Request::Batch { .. }) = req {
            // `parse_request` accepted the header, so its count is the second
            // token and at most MAX_BATCH.
            let expect = line.split_whitespace().nth(1).and_then(|n| n.parse().ok()).unwrap_or(0);
            if expect > 0 {
                let queries = Vec::with_capacity(expect.min(4096));
                self.body = Some(BatchBody { expect, seen: 0, queries, invalid: None });
                return None;
            }
        }
        Some(req)
    }
}

/// Outcome of a `RELOAD`: the swap already happened when this is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadInfo {
    /// Snapshot generation now being served (bumped by every reload).
    pub generation: u64,
    /// Vertices covered by the new snapshot.
    pub vertices: u64,
    /// Label entries in the new snapshot.
    pub entries: u64,
}

impl ReloadInfo {
    /// Renders the `RELOADED ...` reply line (without the newline).
    pub fn encode(&self) -> String {
        format!(
            "RELOADED generation={} vertices={} entries={}",
            self.generation, self.vertices, self.entries
        )
    }

    /// Parses a `RELOADED ...` reply line (client side).
    pub fn decode(line: &str) -> Result<Self, String> {
        let body = line.trim().strip_prefix("RELOADED ").ok_or_else(|| server_error(line))?;
        let mut info = Self { generation: 0, vertices: 0, entries: 0 };
        for pair in body.split_whitespace() {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("malformed reload field {pair:?}"))?;
            let value: u64 =
                value.parse().map_err(|_| format!("malformed reload value {pair:?}"))?;
            match key {
                "generation" => info.generation = value,
                "vertices" => info.vertices = value,
                "entries" => info.entries = value,
                other => return Err(format!("unknown reload field {other:?}")),
            }
        }
        Ok(info)
    }
}

/// One server reply, independent of the wire encoding. The server builds
/// values of this type and hands them to the text encoder below or to the
/// binary encoder in [`crate::binary`]; the client decodes back into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Answer to `QUERY` (`DIST <d>` / `INF`).
    Dist(Option<Distance>),
    /// Answer to `BATCH` (`OK <n>` + n distance lines).
    Batch(Vec<Option<Distance>>),
    /// Answer to `WITHIN` (`TRUE` / `FALSE`).
    Bool(bool),
    /// Answer to `STATS`: the already-rendered `STATS k=v ...` line, so this
    /// module needs no knowledge of the counter set.
    Stats(String),
    /// Answer to `METRICS`: the already-rendered payload (Prometheus text
    /// exposition, or the JSON trace dump for `METRICS recent`).
    Metrics(String),
    /// Answer to `RELOAD` after the snapshot swap.
    Reloaded(ReloadInfo),
    /// Answer to `SHUTDOWN`.
    Bye,
    /// Overload shed: the pending-job queue is full and the request was
    /// refused without being executed. Text encodes it as
    /// `ERR `[`BUSY_REASON`]; binary uses the dedicated busy reply code.
    Busy,
    /// Any malformed or failed request.
    Err(String),
}

impl Reply {
    /// Appends the newline-terminated text encoding to `out`.
    pub fn encode_text(&self, out: &mut Vec<u8>) {
        match self {
            Self::Dist(d) => {
                out.extend_from_slice(encode_distance(*d).as_bytes());
                out.push(b'\n');
            }
            Self::Batch(answers) => {
                out.extend_from_slice(format!("OK {}\n", answers.len()).as_bytes());
                for answer in answers {
                    out.extend_from_slice(encode_distance(*answer).as_bytes());
                    out.push(b'\n');
                }
            }
            Self::Bool(b) => out.extend_from_slice(if *b { b"TRUE\n" } else { b"FALSE\n" }),
            Self::Stats(line) => {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            Self::Metrics(payload) => {
                // Length-prefixed: the payload is multi-line, so the client
                // reads the header line, then exactly `len` payload bytes.
                out.extend_from_slice(format!("METRICS {}\n", payload.len()).as_bytes());
                out.extend_from_slice(payload.as_bytes());
            }
            Self::Reloaded(info) => {
                out.extend_from_slice(info.encode().as_bytes());
                out.push(b'\n');
            }
            Self::Bye => out.extend_from_slice(b"BYE\n"),
            Self::Busy => {
                out.extend_from_slice(format!("ERR {BUSY_REASON}\n").as_bytes());
            }
            Self::Err(reason) => {
                out.extend_from_slice(format!("ERR {reason}\n").as_bytes());
            }
        }
    }
}

/// Renders a distance answer as its wire line: `DIST <d>` or `INF`.
pub fn encode_distance(d: Option<Distance>) -> String {
    match d {
        Some(d) => format!("DIST {d}"),
        None => "INF".to_string(),
    }
}

/// Parses a `DIST <d>` / `INF` reply line (client side). An `ERR` line
/// surfaces as `Err` with the server's reason.
pub fn parse_distance_reply(line: &str) -> Result<Option<Distance>, String> {
    let line = line.trim();
    if line == "INF" {
        return Ok(None);
    }
    if let Some(rest) = line.strip_prefix("DIST ") {
        return rest.trim().parse().map(Some).map_err(|_| format!("malformed DIST reply {line:?}"));
    }
    Err(server_error(line))
}

/// Parses a `TRUE`/`FALSE` reply line (client side).
pub fn parse_bool_reply(line: &str) -> Result<bool, String> {
    match line.trim() {
        "TRUE" => Ok(true),
        "FALSE" => Ok(false),
        other => Err(server_error(other)),
    }
}

/// Extracts the reason from an `ERR <reason>` line, or describes the
/// unexpected line.
pub fn server_error(line: &str) -> String {
    match line.trim().strip_prefix("ERR ") {
        Some(reason) => format!("server error: {reason}"),
        None => format!("unexpected reply {:?}", line.trim()),
    }
}

/// Reads one text reply (client side): its line, plus the answer lines after
/// `OK n` or the payload bytes after `METRICS <len>`. `ERR `[`BUSY_REASON`]
/// reads as [`Reply::Busy`] and any other `ERR` line as [`Reply::Err`], so a
/// reply decodes to the value the server encoded on either wire.
pub fn read_reply(reader: &mut impl BufRead) -> Result<Reply, String> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    let (verb, rest) = line.split_once(' ').unwrap_or((&line, ""));
    Ok(match verb {
        "DIST" | "INF" => Reply::Dist(parse_distance_reply(&line)?),
        "TRUE" | "FALSE" => Reply::Bool(parse_bool_reply(&line)?),
        "OK" => {
            let n = reply_size(&line, rest, MAX_BATCH)?;
            let (mut answers, mut answer) = (Vec::with_capacity(n.min(4096)), String::new());
            for _ in 0..n {
                read_line(reader, &mut answer)?;
                answers.push(parse_distance_reply(&answer)?);
            }
            Reply::Batch(answers)
        }
        "STATS" => Reply::Stats(line),
        "METRICS" => {
            let mut payload = vec![0; reply_size(&line, rest, MAX_FRAME)?];
            reader.read_exact(&mut payload).map_err(receive_error)?;
            Reply::Metrics(
                String::from_utf8(payload)
                    .map_err(|_| "metrics payload is not UTF-8".to_string())?,
            )
        }
        "RELOADED" => Reply::Reloaded(ReloadInfo::decode(&line)?),
        "BYE" if rest.is_empty() => Reply::Bye,
        "ERR" if rest == BUSY_REASON => Reply::Busy,
        "ERR" => Reply::Err(rest.to_string()),
        _ => return Err(format!("unexpected reply {line:?}")),
    })
}

/// The count after `OK` or `METRICS`, refused above `max` before anything
/// is read or allocated for it.
fn reply_size(line: &str, size: &str, max: usize) -> Result<usize, String> {
    let n: usize = size.trim().parse().map_err(|_| format!("unexpected reply {line:?}"))?;
    if n > max {
        return Err(format!("reply {line:?} exceeds the maximum {max}"));
    }
    Ok(n)
}

/// Reads one reply line into `line`, without its line ending.
fn read_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => {
            line.truncate(line.trim_end_matches(['\r', '\n']).len());
            Ok(())
        }
        Err(e) => Err(receive_error(e)),
    }
}

/// Words a failed reply read, identically for both wire protocols.
pub(crate) fn receive_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        "server closed the connection".to_string()
    } else {
        format!("receive failed: {e}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    /// One value of every request variant, batches of 0, 1 and 1 031
    /// queries among them; shared with the binary codec's tests.
    pub(crate) fn every_request() -> Vec<Request> {
        let long = (0..1031).map(|i| (i, 1030 - i, 1 + i % 7)).collect();
        vec![
            Request::Query { s: 1, t: 2, w: 3 },
            Request::Batch { queries: vec![] },
            Request::Batch { queries: vec![(4, 5, 6)] },
            Request::Batch { queries: long },
            Request::Within { s: 9, t: 8, w: 7, d: 6 },
            Request::Stats,
            Request::Metrics { recent: false },
            Request::Metrics { recent: true },
            Request::Reload { path: "/srv/wcsd/road-v2.fidx".into() },
            Request::Shutdown,
        ]
    }

    /// One value of every reply variant; shared with the binary tests.
    pub(crate) fn every_reply() -> Vec<Reply> {
        vec![
            Reply::Dist(Some(4)),
            Reply::Dist(None),
            Reply::Batch(vec![]),
            Reply::Batch(vec![Some(0), None, Some(u32::MAX)]),
            Reply::Bool(true),
            Reply::Bool(false),
            Reply::Stats("STATS vertices=3 entries=9".into()),
            Reply::Metrics("# TYPE wcsd_queries_total counter\nwcsd_queries_total 4\n".into()),
            Reply::Reloaded(ReloadInfo { generation: 2, vertices: 90, entries: 512 }),
            Reply::Bye,
            Reply::Busy,
            Reply::Err("no such vertex".into()),
        ]
    }

    /// Feeds every complete line of `bytes` to one decoder, as the server
    /// does; an unterminated tail stays unread.
    fn decode_text(bytes: &[u8]) -> Vec<Result<Request, String>> {
        let (mut decoder, mut out, mut rest) = (TextDecoder::default(), Vec::new(), bytes);
        while let Some(at) = rest.iter().position(|&b| b == b'\n') {
            out.extend(decoder.feed(&String::from_utf8_lossy(&rest[..at])));
            rest = &rest[at + 1..];
        }
        out
    }

    /// Reads replies off `bytes` until the first error.
    fn read_text_replies(bytes: &[u8]) -> (Vec<Reply>, String) {
        let (mut cursor, mut replies) = (Cursor::new(bytes), Vec::new());
        loop {
            match read_reply(&mut cursor) {
                Ok(reply) => replies.push(reply),
                Err(e) => return (replies, e),
            }
        }
    }

    /// The golden values: one per variant, a two-query batch standing in
    /// for every batch size.
    fn golden() -> (Vec<Request>, Vec<Reply>) {
        let mut requests = every_request();
        requests[3] = Request::Batch { queries: vec![(1, 2, 3), (4, 5, 6)] };
        (requests, every_reply())
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request("QUERY 1 2 3"), Ok(Request::Query { s: 1, t: 2, w: 3 }));
        assert_eq!(parse_request("query 1 2 3"), Ok(Request::Query { s: 1, t: 2, w: 3 }));
        assert_eq!(parse_request("BATCH 10"), Ok(Request::Batch { queries: vec![] }));
        assert_eq!(parse_request("BATCH 0"), Ok(Request::Batch { queries: vec![] }));
        assert_eq!(parse_request("WITHIN 1 2 3 4"), Ok(Request::Within { s: 1, t: 2, w: 3, d: 4 }));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics { recent: false }));
        assert_eq!(parse_request("METRICS recent"), Ok(Request::Metrics { recent: true }));
        assert_eq!(parse_request("metrics RECENT"), Ok(Request::Metrics { recent: true }));
        assert_eq!(parse_request("METRICS?recent"), Ok(Request::Metrics { recent: true }));
        assert_eq!(parse_request("  shutdown  "), Ok(Request::Shutdown));
    }

    #[test]
    fn encode_parse_roundtrip() {
        for req in [
            Request::Query { s: 7, t: 9, w: 2 },
            Request::Batch { queries: vec![] },
            Request::Within { s: 0, t: 1, w: 1, d: 5 },
            Request::Stats,
            Request::Metrics { recent: false },
            Request::Metrics { recent: true },
            Request::Shutdown,
        ] {
            assert_eq!(parse_request(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("NOPE 1 2").is_err());
        assert!(parse_request("QUERY 1 2").is_err());
        assert!(parse_request("QUERY 1 2 x").is_err());
        assert!(parse_request("QUERY 1 2 3 4").is_err());
        assert!(parse_request("QUERY -1 2 3").is_err());
        assert!(parse_request("BATCH").is_err());
        assert!(parse_request(&format!("BATCH {}", MAX_BATCH + 1)).is_err());
        assert!(parse_request("STATS now").is_err());
        assert!(parse_request("METRICS soon").is_err());
        assert!(parse_request("METRICS recent extra").is_err());
    }

    #[test]
    fn batch_lines() {
        assert_eq!(parse_batch_line("3 4 5"), Ok((3, 4, 5)));
        assert!(parse_batch_line("3 4").is_err());
        assert!(parse_batch_line("3 4 5 6").is_err());
        assert!(parse_batch_line("a b c").is_err());
    }

    #[test]
    fn distance_replies() {
        assert_eq!(encode_distance(Some(4)), "DIST 4");
        assert_eq!(encode_distance(None), "INF");
        assert_eq!(parse_distance_reply("DIST 4\n"), Ok(Some(4)));
        assert_eq!(parse_distance_reply("INF"), Ok(None));
        assert!(parse_distance_reply("ERR nope").unwrap_err().contains("nope"));
        assert!(parse_distance_reply("GARBAGE").is_err());
    }

    #[test]
    fn bool_replies() {
        assert_eq!(parse_bool_reply("TRUE\n"), Ok(true));
        assert_eq!(parse_bool_reply("FALSE"), Ok(false));
        assert!(parse_bool_reply("ERR out of range").is_err());
    }

    #[test]
    fn reload_requests_and_replies() {
        assert_eq!(
            parse_request("RELOAD /tmp/x.fidx"),
            Ok(Request::Reload { path: "/tmp/x.fidx".to_string() })
        );
        assert!(parse_request("RELOAD").is_err());
        assert!(parse_request("RELOAD /a /b").is_err()); // text paths are whitespace-free
        let info = ReloadInfo { generation: 3, vertices: 90, entries: 512 };
        assert_eq!(ReloadInfo::decode(&info.encode()), Ok(info));
        assert!(ReloadInfo::decode("ERR no such file").is_err());
        assert!(ReloadInfo::decode("RELOADED generation=x").is_err());
    }

    #[test]
    fn reply_text_encoding() {
        let mut out = Vec::new();
        Reply::Dist(Some(4)).encode_text(&mut out);
        Reply::Dist(None).encode_text(&mut out);
        Reply::Batch(vec![Some(1), None]).encode_text(&mut out);
        Reply::Bool(true).encode_text(&mut out);
        Reply::Bye.encode_text(&mut out);
        Reply::Err("nope".into()).encode_text(&mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "DIST 4\nINF\nOK 2\nDIST 1\nINF\nTRUE\nBYE\nERR nope\n"
        );
    }

    #[test]
    fn busy_reply_is_an_err_line_with_the_pinned_reason() {
        let mut out = Vec::new();
        Reply::Busy.encode_text(&mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "ERR busy: pending job queue is full; retry later\n"
        );
    }

    #[test]
    fn metrics_reply_is_length_prefixed() {
        let mut out = Vec::new();
        Reply::Metrics("a 1\nb 2\n".into()).encode_text(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), "METRICS 8\na 1\nb 2\n");
    }

    #[test]
    fn text_codec_roundtrips_every_request() {
        let requests = every_request();
        let mut wire = Vec::new();
        for req in &requests {
            encode_request(req, &mut wire);
        }
        let decoded: Vec<_> = decode_text(&wire).into_iter().map(Result::unwrap).collect();
        assert_eq!(decoded, requests);
    }

    #[test]
    fn text_codec_roundtrips_every_reply() {
        let replies = every_reply();
        let mut wire = Vec::new();
        for reply in &replies {
            reply.encode_text(&mut wire);
        }
        let (decoded, end) = read_text_replies(&wire);
        assert_eq!(decoded, replies);
        assert_eq!(end, "server closed the connection");
    }

    #[test]
    fn text_golden_bytes() {
        let (requests, replies) = golden();
        let mut wire = Vec::new();
        for req in &requests {
            encode_request(req, &mut wire);
        }
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "QUERY 1 2 3\nBATCH 0\nBATCH 1\n4 5 6\nBATCH 2\n1 2 3\n4 5 6\nWITHIN 9 8 7 6\n\
             STATS\nMETRICS\nMETRICS recent\nRELOAD /srv/wcsd/road-v2.fidx\nSHUTDOWN\n"
        );
        let mut wire = Vec::new();
        for reply in &replies {
            reply.encode_text(&mut wire);
        }
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "DIST 4\nINF\nOK 0\nOK 3\nDIST 0\nINF\nDIST 4294967295\nTRUE\nFALSE\n\
             STATS vertices=3 entries=9\n\
             METRICS 55\n# TYPE wcsd_queries_total counter\nwcsd_queries_total 4\n\
             RELOADED generation=2 vertices=90 entries=512\nBYE\n\
             ERR busy: pending job queue is full; retry later\nERR no such vertex\n"
        );
    }

    #[test]
    fn text_decoders_survive_cut_and_flipped_input() {
        let (requests, replies) = golden();
        for req in &requests {
            let mut wire = Vec::new();
            encode_request(req, &mut wire);
            for cut in 0..wire.len() {
                let decoded = decode_text(&wire[..cut]);
                if matches!(req, Request::Batch { .. }) {
                    assert!(decoded.is_empty(), "cut-off {:?} yielded {decoded:?}", &wire[..cut]);
                }
            }
            for at in 0..wire.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut bad = wire.clone();
                    bad[at] ^= mask;
                    decode_text(&bad);
                }
            }
        }
        for reply in &replies {
            let mut wire = Vec::new();
            reply.encode_text(&mut wire);
            for cut in 0..wire.len() {
                read_text_replies(&wire[..cut]);
            }
            for at in 0..wire.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut bad = wire.clone();
                    bad[at] ^= mask;
                    read_text_replies(&bad);
                }
            }
        }
    }

    #[test]
    fn oversized_reply_sizes_are_refused_before_reading() {
        for header in [
            format!("OK {}\n", MAX_BATCH + 1),
            format!("METRICS {}\n", MAX_FRAME + 1),
            format!("METRICS {}\n", usize::MAX),
        ] {
            let err = read_reply(&mut Cursor::new(header.as_bytes())).unwrap_err();
            assert!(err.contains("exceeds the maximum"), "{header:?}: {err}");
        }
    }

    #[test]
    fn batch_body_errors_name_the_first_bad_line_and_drain_the_rest() {
        let decoded = decode_text(b"BATCH 3\n1 2 3\n1 x 3\n1 2\nQUERY 1 2 3\n");
        assert_eq!(
            decoded,
            [
                Err("batch line 2: invalid argument <t>: \"x\"".to_string()),
                Ok(Request::Query { s: 1, t: 2, w: 3 }),
            ]
        );
        assert_eq!(decode_text(b"\n  \nSTATS\n"), [Ok(Request::Stats)]);
    }
}
