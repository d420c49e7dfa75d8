//! The text wire protocol: newline-delimited ASCII, symmetric enough that the
//! same module serves both the server (parse requests, encode replies) and the
//! client (encode requests, parse replies). The length-prefixed binary
//! protocol negotiated by magic byte lives in [`crate::binary`]; both share
//! the protocol-neutral [`Reply`] type defined here.
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

use wcsd_graph::{Distance, Quality, VertexId};

/// Largest `BATCH` size the server accepts in one request; protects the
/// server from a single client queuing an unbounded amount of work.
pub const MAX_BATCH: usize = 1_000_000;

/// Reason string carried by [`Reply::Busy`]. The text protocol renders it as
/// `ERR <reason>`; the binary protocol has a dedicated reply code but clients
/// surface the same string, so shed requests read identically on both wires.
pub const BUSY_REASON: &str = "busy: pending job queue is full; retry later";

/// A parsed client request.
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
    /// `BATCH n` — header announcing `n` follow-up `s t w` lines.
    Batch {
        /// Number of queries that follow.
        n: usize,
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
    /// Renders the request as its wire line (without the trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Self::Query { s, t, w } => format!("QUERY {s} {t} {w}"),
            Self::Batch { n } => format!("BATCH {n}"),
            Self::Within { s, t, w, d } => format!("WITHIN {s} {t} {w} {d}"),
            Self::Stats => "STATS".to_string(),
            Self::Metrics { recent: false } => "METRICS".to_string(),
            Self::Metrics { recent: true } => "METRICS recent".to_string(),
            Self::Reload { path } => format!("RELOAD {path}"),
            Self::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

/// Parses one request line. Returns a human-readable reason on failure, which
/// the server relays verbatim as `ERR <reason>`.
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
            Request::Batch { n }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request("QUERY 1 2 3"), Ok(Request::Query { s: 1, t: 2, w: 3 }));
        assert_eq!(parse_request("query 1 2 3"), Ok(Request::Query { s: 1, t: 2, w: 3 }));
        assert_eq!(parse_request("BATCH 10"), Ok(Request::Batch { n: 10 }));
        assert_eq!(parse_request("BATCH 0"), Ok(Request::Batch { n: 0 }));
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
            Request::Batch { n: 128 },
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
}
