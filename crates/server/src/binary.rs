//! The length-prefixed binary wire protocol, negotiated by magic byte.
//!
//! Small text queries spend a measurable share of their serving cost on line
//! parsing and decimal formatting; the binary protocol replaces both with
//! fixed-width little-endian fields behind a single length prefix, so the
//! server's read loop does one bounds check and a handful of `u32` loads per
//! request.
//!
//! ## Negotiation
//!
//! A connection starts in text mode. A client that wants binary framing
//! sends two bytes before anything else: [`MAGIC`] (`0xBF`, not a valid
//! first byte of any text verb) followed by [`VERSION`]. The server switches
//! the connection to binary mode permanently; there is no downgrade.
//!
//! ## Frame layout
//!
//! Every frame in both directions is `u32 len` (little-endian, length of the
//! body, at most [`MAX_FRAME`]) followed by `len` body bytes. The first body
//! byte is the opcode; all integers are little-endian `u32` unless noted.
//!
//! Request bodies:
//!
//! ```text
//! 0x01 QUERY     s t w                   (13 bytes)
//! 0x02 BATCH     n, then n × (s t w)     (5 + 12n bytes)
//! 0x03 WITHIN    s t w d                 (17 bytes)
//! 0x04 STATS                             (1 byte)
//! 0x05 SHUTDOWN                          (1 byte)
//! 0x06 RELOAD    utf-8 path             (1 + len bytes)
//! 0x07 METRICS   mode u8 (0=full, 1=recent)   (2 bytes)
//! ```
//!
//! Reply bodies:
//!
//! ```text
//! 0x81 DIST      tag u8 (0=INF, 1=finite), d
//! 0x82 BATCH     n, then n × (tag u8, d)
//! 0x83 BOOL      u8
//! 0x84 STATS     utf-8 "STATS k=v ..." line (same as the text reply)
//! 0x86 RELOADED  utf-8 "RELOADED generation=.. vertices=.. entries=.." line
//! 0x87 METRICS   utf-8 payload (Prometheus text, or JSON for recent)
//! 0x85 BYE
//! 0x88 BUSY      (overload shed: pending-job queue full, retry later)
//! 0xFF ERR       utf-8 reason
//! ```
//!
//! The `STATS`/`RELOADED` payloads reuse the text rendering: the counter set
//! can evolve without a frame-format bump, and the client decodes both wire
//! protocols through one parser.
//!
//! This module is the binary half of one codec pair: requests decode into
//! the same [`Request`] the text decoder (`protocol::TextDecoder`)
//! yields, and replies into the same [`Reply`]. A `BATCH` needs no
//! assembly here, because its frame carries the queries inline.

use crate::protocol::{receive_error, ReloadInfo, Reply, Request, MAX_BATCH};
use std::io::Read;
use wcsd_graph::Distance;

/// First byte of a binary-mode connection. Deliberately outside ASCII so it
/// can never be confused with a text verb.
pub const MAGIC: u8 = 0xBF;

/// Protocol version sent right after [`MAGIC`]; bump on layout changes.
pub const VERSION: u8 = 1;

/// Largest frame body either side accepts. Sized to fit a maximum-size
/// `BATCH` request (`5 + 12 ×` [`MAX_BATCH`] bytes) with headroom.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

const OP_QUERY: u8 = 0x01;
const OP_BATCH: u8 = 0x02;
const OP_WITHIN: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_RELOAD: u8 = 0x06;
const OP_METRICS: u8 = 0x07;

const RE_DIST: u8 = 0x81;
const RE_BATCH: u8 = 0x82;
const RE_BOOL: u8 = 0x83;
const RE_STATS: u8 = 0x84;
const RE_BYE: u8 = 0x85;
const RE_RELOADED: u8 = 0x86;
const RE_METRICS: u8 = 0x87;
const RE_BUSY: u8 = 0x88;
const RE_ERR: u8 = 0xFF;

// The frame cap must fit a maximum-size BATCH request (checked at compile
// time so the two limits cannot drift apart).
const _: () = assert!(5 + 12 * MAX_BATCH <= MAX_FRAME);

/// The binary codec's former name for [`Request`], kept as an alias so code
/// written against it still compiles; it is the same type.
pub use crate::protocol::Request as BinRequest;

/// Appends the framed encoding of a request to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let body_at = begin_frame(out);
    match req {
        Request::Query { s, t, w } => {
            out.push(OP_QUERY);
            put_u32(out, *s);
            put_u32(out, *t);
            put_u32(out, *w);
        }
        Request::Batch { queries } => {
            out.push(OP_BATCH);
            put_u32(out, queries.len() as u32);
            for &(s, t, w) in queries {
                put_u32(out, s);
                put_u32(out, t);
                put_u32(out, w);
            }
        }
        Request::Within { s, t, w, d } => {
            out.push(OP_WITHIN);
            put_u32(out, *s);
            put_u32(out, *t);
            put_u32(out, *w);
            put_u32(out, *d);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Metrics { recent } => {
            out.push(OP_METRICS);
            out.push(u8::from(*recent));
        }
        Request::Reload { path } => {
            out.push(OP_RELOAD);
            out.extend_from_slice(path.as_bytes());
        }
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
    end_frame(out, body_at);
}

/// Parses one request frame body (the bytes after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, String> {
    let (&op, rest) = body.split_first().ok_or("empty frame")?;
    match op {
        OP_QUERY => {
            let f = fixed::<3>(rest, "QUERY")?;
            Ok(Request::Query { s: f[0], t: f[1], w: f[2] })
        }
        OP_BATCH => {
            let n = get_u32(rest, 0, "BATCH")? as usize;
            if n > MAX_BATCH {
                return Err(format!("batch size {n} exceeds maximum {MAX_BATCH}"));
            }
            if rest.len() != 4 + 12 * n {
                return Err(format!(
                    "BATCH frame of {} body bytes does not match {n} queries",
                    rest.len()
                ));
            }
            let queries = (0..n)
                .map(|i| {
                    let at = 4 + 12 * i;
                    Ok((
                        get_u32(rest, at, "BATCH")?,
                        get_u32(rest, at + 4, "BATCH")?,
                        get_u32(rest, at + 8, "BATCH")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Request::Batch { queries })
        }
        OP_WITHIN => {
            let f = fixed::<4>(rest, "WITHIN")?;
            Ok(Request::Within { s: f[0], t: f[1], w: f[2], d: f[3] })
        }
        OP_STATS => expect_empty(rest, "STATS").map(|()| Request::Stats),
        OP_METRICS => match rest {
            [0] => Ok(Request::Metrics { recent: false }),
            [1] => Ok(Request::Metrics { recent: true }),
            _ => Err("malformed METRICS frame".to_string()),
        },
        OP_SHUTDOWN => expect_empty(rest, "SHUTDOWN").map(|()| Request::Shutdown),
        OP_RELOAD => {
            let path = std::str::from_utf8(rest)
                .map_err(|_| "RELOAD path is not valid UTF-8".to_string())?;
            if path.is_empty() {
                return Err("RELOAD path is empty".to_string());
            }
            Ok(Request::Reload { path: path.to_string() })
        }
        other => Err(format!("unknown opcode 0x{other:02X}")),
    }
}

/// Appends the framed encoding of a reply to `out`.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    let body_at = begin_frame(out);
    match reply {
        Reply::Dist(d) => {
            out.push(RE_DIST);
            put_answer(out, *d);
        }
        Reply::Batch(answers) => {
            out.push(RE_BATCH);
            put_u32(out, answers.len() as u32);
            for &answer in answers {
                put_answer(out, answer);
            }
        }
        Reply::Bool(b) => {
            out.push(RE_BOOL);
            out.push(u8::from(*b));
        }
        Reply::Stats(line) => {
            out.push(RE_STATS);
            out.extend_from_slice(line.as_bytes());
        }
        Reply::Metrics(payload) => {
            out.push(RE_METRICS);
            out.extend_from_slice(payload.as_bytes());
        }
        Reply::Reloaded(info) => {
            out.push(RE_RELOADED);
            out.extend_from_slice(info.encode().as_bytes());
        }
        Reply::Bye => out.push(RE_BYE),
        Reply::Busy => out.push(RE_BUSY),
        Reply::Err(reason) => {
            out.push(RE_ERR);
            out.extend_from_slice(reason.as_bytes());
        }
    }
    end_frame(out, body_at);
}

/// Parses one reply frame body (client side).
pub fn decode_reply(body: &[u8]) -> Result<Reply, String> {
    let (&op, rest) = body.split_first().ok_or("empty reply frame")?;
    match op {
        RE_DIST if rest.len() == 5 => get_answer(rest, 0).map(Reply::Dist),
        RE_DIST => Err(format!("DIST reply has {} body bytes, expected 5", rest.len())),
        RE_BATCH => {
            let n = get_u32(rest, 0, "BATCH reply")? as usize;
            if rest.len() != 4 + 5 * n {
                return Err(format!(
                    "BATCH reply of {} body bytes does not match {n} answers",
                    rest.len()
                ));
            }
            let answers =
                (0..n).map(|i| get_answer(rest, 4 + 5 * i)).collect::<Result<Vec<_>, String>>()?;
            Ok(Reply::Batch(answers))
        }
        RE_BOOL => match rest {
            [0] => Ok(Reply::Bool(false)),
            [1] => Ok(Reply::Bool(true)),
            _ => Err("malformed BOOL reply".to_string()),
        },
        RE_STATS => utf8(rest, "STATS reply").map(Reply::Stats),
        RE_METRICS => utf8(rest, "METRICS reply").map(Reply::Metrics),
        RE_RELOADED => ReloadInfo::decode(&utf8(rest, "RELOADED reply")?).map(Reply::Reloaded),
        RE_BYE => expect_empty(rest, "BYE reply").map(|()| Reply::Bye),
        RE_BUSY => expect_empty(rest, "BUSY reply").map(|()| Reply::Busy),
        RE_ERR => utf8(rest, "ERR reply").map(Reply::Err),
        other => Err(format!("unknown reply opcode 0x{other:02X}")),
    }
}

/// Reads one reply frame (client side), refusing a length above
/// [`MAX_FRAME`] before anything is allocated for it.
pub fn read_reply(reader: &mut impl Read) -> Result<Reply, String> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len).map_err(receive_error)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(format!("reply frame of {len} bytes exceeds maximum {MAX_FRAME}"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(receive_error)?;
    decode_reply(&body)
}

/// Reserves the 4-byte length prefix; returns the body start offset.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0; 4]);
    out.len()
}

/// Patches the length prefix once the body is written.
fn end_frame(out: &mut [u8], body_at: usize) {
    let len = (out.len() - body_at) as u32;
    out[body_at - 4..body_at].copy_from_slice(&len.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the 5-byte (tag, distance) answer record.
fn put_answer(out: &mut Vec<u8>, answer: Option<Distance>) {
    match answer {
        Some(d) => {
            out.push(1);
            put_u32(out, d);
        }
        None => {
            out.push(0);
            put_u32(out, 0);
        }
    }
}

fn get_u32(body: &[u8], at: usize, what: &str) -> Result<u32, String> {
    let bytes: [u8; 4] = body
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("truncated {what} frame"))?;
    Ok(u32::from_le_bytes(bytes))
}

/// Reads one 5-byte (tag, distance) answer record.
fn get_answer(body: &[u8], at: usize) -> Result<Option<Distance>, String> {
    let d = get_u32(body, at + 1, "answer")?;
    match body[at] {
        0 => Ok(None),
        1 => Ok(Some(d)),
        tag => Err(format!("malformed answer tag {tag}")),
    }
}

/// Parses exactly `N` `u32` fields and nothing else.
fn fixed<const N: usize>(body: &[u8], what: &str) -> Result<[u32; N], String> {
    if body.len() != 4 * N {
        return Err(format!("{what} frame has {} body bytes, expected {}", body.len(), 4 * N));
    }
    let mut out = [0u32; N];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = get_u32(body, 4 * i, what)?;
    }
    Ok(out)
}

fn expect_empty(body: &[u8], what: &str) -> Result<(), String> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(format!("{what} frame carries unexpected payload"))
    }
}

fn utf8(body: &[u8], what: &str) -> Result<String, String> {
    std::str::from_utf8(body)
        .map(str::to_string)
        .map_err(|_| format!("{what} payload is not valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::{every_reply, every_request};
    use std::io::Cursor;

    /// Splits a framed buffer back into frame bodies.
    fn frames(buf: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < buf.len() {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
            out.push(&buf[at + 4..at + 4 + len]);
            at += 4 + len;
        }
        out
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            BinRequest::Query { s: 1, t: 2, w: 3 },
            BinRequest::Batch { queries: vec![(1, 2, 3), (4, 5, 6)] },
            BinRequest::Batch { queries: vec![] },
            BinRequest::Within { s: 9, t: 8, w: 7, d: 6 },
            BinRequest::Stats,
            BinRequest::Metrics { recent: false },
            BinRequest::Metrics { recent: true },
            BinRequest::Reload { path: "/tmp/with space.fidx".into() },
            BinRequest::Shutdown,
        ];
        let mut buf = Vec::new();
        for req in &reqs {
            encode_request(req, &mut buf);
        }
        let bodies = frames(&buf);
        assert_eq!(bodies.len(), reqs.len());
        for (body, req) in bodies.iter().zip(&reqs) {
            assert_eq!(decode_request(body).as_ref(), Ok(req));
        }
    }

    #[test]
    fn reply_roundtrip() {
        let replies = [
            Reply::Dist(Some(4)),
            Reply::Dist(None),
            Reply::Batch(vec![Some(0), None, Some(u32::MAX)]),
            Reply::Bool(true),
            Reply::Bool(false),
            Reply::Stats("STATS vertices=3 entries=9".into()),
            Reply::Metrics("# TYPE wcsd_queries_total counter\nwcsd_queries_total 4\n".into()),
            Reply::Reloaded(ReloadInfo { generation: 2, vertices: 90, entries: 512 }),
            Reply::Bye,
            Reply::Busy,
            Reply::Err("no such vertex".into()),
        ];
        let mut buf = Vec::new();
        for reply in &replies {
            encode_reply(reply, &mut buf);
        }
        let bodies = frames(&buf);
        assert_eq!(bodies.len(), replies.len());
        for (body, reply) in bodies.iter().zip(&replies) {
            assert_eq!(decode_reply(body).as_ref(), Ok(reply));
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7E]).is_err()); // unknown opcode
        assert!(decode_request(&[OP_QUERY, 1, 2]).is_err()); // truncated
        assert!(decode_request(&[OP_QUERY, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9]).is_err());
        assert!(decode_request(&[OP_BATCH, 2, 0, 0, 0, 1, 2, 3]).is_err()); // body mismatch
        assert!(decode_request(&[OP_STATS, 1]).is_err()); // trailing payload
        assert!(decode_request(&[OP_METRICS]).is_err()); // missing mode byte
        assert!(decode_request(&[OP_METRICS, 2]).is_err()); // unknown mode
        assert!(decode_request(&[OP_RELOAD]).is_err()); // empty path
        assert!(decode_reply(&[RE_BOOL, 7]).is_err());
        assert!(decode_reply(&[RE_BUSY, 1]).is_err()); // busy carries no payload
        assert!(decode_reply(&[RE_DIST, 1, 4, 0, 0, 0, 9]).is_err()); // padded
        assert!(decode_reply(&[RE_DIST, 2, 0, 0, 0, 0]).is_err()); // bad tag
                                                                   // An oversized batch header is rejected even if the frame lied about
                                                                   // its body.
        let mut big = vec![OP_BATCH];
        big.extend_from_slice(&(MAX_BATCH as u32 + 1).to_le_bytes());
        assert!(decode_request(&big).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn max_frame_covers_max_batch() {
        // The compile-time assertion next to MAX_FRAME is the real guard;
        // this pins the concrete sizes so a change is visible in a diff.
        assert_eq!(5 + 12 * MAX_BATCH, 12_000_005);
        assert_eq!(MAX_FRAME, 16 * 1024 * 1024);
    }

    #[test]
    fn codec_roundtrips_every_request_and_reply() {
        for req in every_request() {
            let mut frame = Vec::new();
            encode_request(&req, &mut frame);
            assert_eq!(frames(&frame).len(), 1);
            assert_eq!(decode_request(&frame[4..]), Ok(req));
        }
        for reply in every_reply() {
            let mut frame = Vec::new();
            encode_reply(&reply, &mut frame);
            assert_eq!(read_reply(&mut Cursor::new(&frame)), Ok(reply));
        }
    }

    /// One golden request per variant (a two-query batch for every batch
    /// size) with its frame in hex.
    fn golden_requests() -> Vec<(Request, &'static str)> {
        let mut requests = every_request();
        requests[3] = Request::Batch { queries: vec![(1, 2, 3), (4, 5, 6)] };
        let hex = [
            "0d000000 01 01000000 02000000 03000000",
            "05000000 02 00000000",
            "11000000 02 01000000 04000000 05000000 06000000",
            "1d000000 02 02000000 01000000 02000000 03000000 04000000 05000000 06000000",
            "11000000 03 09000000 08000000 07000000 06000000",
            "01000000 04",
            "02000000 07 00",
            "02000000 07 01",
            "17000000 06 2f7372762f776373642f726f61642d76322e66696478",
            "01000000 05",
        ];
        requests.into_iter().zip(hex).collect()
    }

    /// One golden reply per variant with its frame in hex.
    fn golden_replies() -> Vec<(Reply, &'static str)> {
        let hex = [
            "06000000 81 01 04000000",
            "06000000 81 00 00000000",
            "05000000 82 00000000",
            "14000000 82 03000000 01 00000000 00 00000000 01 ffffffff",
            "02000000 83 01",
            "02000000 83 00",
            "1b000000 84 5354415453 2076657274696365733d33 20656e74726965733d39",
            "38000000 87 23205459504520776373645f717565726965735f746f74616c20636f756e7465720a\
             776373645f717565726965735f746f74616c20340a",
            "2e000000 86 52454c4f41444544 2067656e65726174696f6e3d32 2076657274696365733d3930\
             20656e74726965733d353132",
            "01000000 85",
            "01000000 88",
            "0f000000 ff 6e6f207375636820766572746578",
        ];
        every_reply().into_iter().zip(hex).collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn binary_golden_bytes() {
        for (req, want) in golden_requests() {
            let mut frame = Vec::new();
            encode_request(&req, &mut frame);
            assert_eq!(hex(&frame), want.replace(' ', ""), "{req:?}");
        }
        for (reply, want) in golden_replies() {
            let mut frame = Vec::new();
            encode_reply(&reply, &mut frame);
            assert_eq!(hex(&frame), want.replace(' ', ""), "{reply:?}");
        }
    }

    #[test]
    fn decoders_survive_cut_and_flipped_frames() {
        let mut wires: Vec<(bool, Vec<u8>)> = Vec::new();
        for (req, _) in golden_requests() {
            wires.push((true, Vec::new()));
            encode_request(&req, &mut wires.last_mut().unwrap().1);
        }
        for (reply, _) in golden_replies() {
            wires.push((false, Vec::new()));
            encode_reply(&reply, &mut wires.last_mut().unwrap().1);
        }
        let decode = |is_request: bool, wire: &[u8]| {
            if is_request {
                let _ = decode_request(wire.get(4..).unwrap_or_default());
            } else {
                let _ = read_reply(&mut Cursor::new(wire));
                let _ = decode_reply(wire.get(4..).unwrap_or_default());
            }
        };
        for (is_request, wire) in &wires {
            for cut in 0..wire.len() {
                decode(*is_request, &wire[..cut]);
            }
            for at in 0..wire.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut bad = wire.clone();
                    bad[at] ^= mask;
                    decode(*is_request, &bad);
                }
            }
        }
    }

    #[test]
    fn oversized_reply_frames_are_refused_before_reading() {
        let header = (MAX_FRAME as u32 + 1).to_le_bytes();
        let err = read_reply(&mut Cursor::new(&header)).unwrap_err();
        assert!(err.contains("exceeds maximum"), "{err}");
        let err = read_reply(&mut Cursor::new(&[0u8; 2])).unwrap_err();
        assert_eq!(err, "server closed the connection");
    }
}
