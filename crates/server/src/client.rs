//! A small blocking client for the wcsd wire protocols, used by the
//! `wcsd-cli client`/`reload` subcommands, the bench load-generator, and the
//! integration tests.
//!
//! One `Client` speaks either the newline text protocol or the
//! length-prefixed binary protocol, chosen at connect time
//! ([`Client::connect_with`]); the request/reply API is identical across
//! both. Every verb is one [`Client::exchange`] of a [`Request`] for a
//! [`Reply`]: the negotiated protocol picks the codec
//! ([`protocol::encode_request`] / [`protocol::read_reply`] or their
//! [`binary`] twins), so the client holds no framing of its own.
//!
//! Reads carry a configurable timeout ([`Client::set_read_timeout`], default
//! [`DEFAULT_READ_TIMEOUT`]) so a stalled server surfaces as an error
//! instead of hanging the client forever — the client-side mirror of the
//! server's write-stall deadline.

use crate::binary;
use crate::protocol::{self, ReloadInfo, Reply, Request};
use crate::server::ServerSnapshot;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use wcsd_graph::{Distance, Quality, VertexId};

/// Default cap on one reply read. Generous enough for a maximum-size batch
/// computed under load; a genuinely wedged server trips it instead of
/// hanging the caller.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Which wire protocol a [`Client`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Newline-delimited text ([`crate::protocol`]).
    Text,
    /// Length-prefixed binary frames ([`crate::binary`]).
    Binary,
}

impl Protocol {
    /// Lower-case label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Text => "text",
            Self::Binary => "binary",
        }
    }
}

/// A connected protocol client. One request/reply exchange at a time; open
/// several clients for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Each request is encoded whole and written with one `write_all`.
    writer: TcpStream,
    protocol: Protocol,
}

impl Client {
    /// Connects to a running server, speaking the text protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, Protocol::Text)
    }

    /// Connects to a running server with an explicit wire protocol. A
    /// binary client sends the two negotiation bytes immediately.
    pub fn connect_with(addr: impl ToSocketAddrs, protocol: Protocol) -> std::io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, protocol)
    }

    /// [`Client::connect_with`] with a hard cap on the connect syscall
    /// itself: each resolved address is tried with
    /// `TcpStream::connect_timeout`, so a blackholed backend (SYN dropped,
    /// no RST) costs at most `timeout` instead of the OS default of minutes.
    /// The router's health prober and the retry loop below both rely on
    /// this to keep their own deadlines honest.
    pub fn connect_timeout_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        protocol: Protocol,
    ) -> std::io::Result<Self> {
        let timeout = timeout.max(Duration::from_millis(1)); // connect_timeout rejects zero
        let mut last_err = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => return Self::from_stream(stream, protocol),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream, protocol: Protocol) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok(); // request/reply traffic hates Nagle
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        let mut client = Self { reader: BufReader::new(stream), writer, protocol };
        if protocol == Protocol::Binary {
            client.writer.write_all(&[binary::MAGIC, binary::VERSION])?;
        }
        Ok(client)
    }

    /// Connects, retrying until `timeout` elapses. Useful when the server is
    /// starting up in another process (CI smoke tests, the load generator).
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        Self::connect_retry_with(addr, timeout, Protocol::Text)
    }

    /// [`Client::connect_retry`] with an explicit wire protocol.
    ///
    /// `timeout` is an **overall deadline**: every connect attempt is capped
    /// by the remaining budget (via [`Client::connect_timeout_with`]) and so
    /// is every backoff sleep, so the call returns — success or failure —
    /// within roughly `timeout` even against a blackholed address whose raw
    /// connect would block for minutes. A unit test pins this bound.
    ///
    /// Retries follow [`retry_delay`]'s jittered exponential backoff rather
    /// than a fixed schedule: when a backend restarts under a sharded
    /// router, its N clients would otherwise all reconnect in lockstep and
    /// hammer the listener in synchronized waves.
    pub fn connect_retry_with(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
        protocol: Protocol,
    ) -> std::io::Result<Self> {
        let deadline = Instant::now() + timeout;
        let salt = process_salt();
        let mut attempt = 0u32;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match Self::connect_timeout_with(addr, remaining, protocol) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep(retry_delay(attempt, salt).min(remaining));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// The wire protocol this client negotiated.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Caps how long one reply read may block (`None` = wait forever).
    /// Connections start at [`DEFAULT_READ_TIMEOUT`]. After a timeout
    /// error the connection may be mid-reply: reconnect rather than reuse.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// One request/reply exchange in the negotiated protocol, which picks
    /// the codec. A server-sent `ERR` or busy shed surfaces as this
    /// function's `Err("server error: <reason>")`, worded the same on both
    /// wires.
    pub fn exchange(&mut self, req: &Request) -> Result<Reply, String> {
        let mut out = Vec::new();
        match self.protocol {
            Protocol::Text => {
                if let Request::Reload { path } = req {
                    if path.split_whitespace().count() != 1 {
                        return Err(format!(
                            "path {path:?} contains whitespace; the text protocol cannot frame \
                             it (use a binary client)"
                        ));
                    }
                }
                protocol::encode_request(req, &mut out);
            }
            Protocol::Binary => binary::encode_request(req, &mut out),
        }
        self.writer.write_all(&out).map_err(|e| format!("send failed: {e}"))?;
        let reply = match self.protocol {
            Protocol::Text => protocol::read_reply(&mut self.reader)?,
            Protocol::Binary => binary::read_reply(&mut self.reader)?,
        };
        match reply {
            Reply::Err(reason) => Err(format!("server error: {reason}")),
            // The text protocol sheds with `ERR <BUSY_REASON>`; surfacing the
            // busy code through the same formatting keeps the client-visible
            // wording byte-identical across both wires (test-enforced).
            Reply::Busy => Err(format!("server error: {}", protocol::BUSY_REASON)),
            reply => Ok(reply),
        }
    }

    /// Answers `Q(s, t, w)` over the wire.
    pub fn query(
        &mut self,
        s: VertexId,
        t: VertexId,
        w: Quality,
    ) -> Result<Option<Distance>, String> {
        match self.exchange(&Request::Query { s, t, w })? {
            Reply::Dist(answer) => Ok(answer),
            other => Err(unexpected(&other)),
        }
    }

    /// Answers a whole batch over the wire with one `BATCH` request.
    pub fn batch(
        &mut self,
        queries: &[(VertexId, VertexId, Quality)],
    ) -> Result<Vec<Option<Distance>>, String> {
        // Reject oversized batches before sending anything: the server would
        // refuse the request without consuming the body, permanently
        // desynchronising a text connection.
        if queries.len() > protocol::MAX_BATCH {
            return Err(format!(
                "batch of {} queries exceeds the protocol maximum {}; split it",
                queries.len(),
                protocol::MAX_BATCH
            ));
        }
        let answers = match self.exchange(&Request::Batch { queries: queries.to_vec() })? {
            Reply::Batch(answers) => answers,
            other => return Err(unexpected(&other)),
        };
        if answers.len() != queries.len() {
            return Err(format!(
                "batch reply carried {} answers, expected {}",
                answers.len(),
                queries.len()
            ));
        }
        Ok(answers)
    }

    /// Evaluates the `WITHIN` predicate over the wire.
    pub fn within(
        &mut self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        d: Distance,
    ) -> Result<bool, String> {
        match self.exchange(&Request::Within { s, t, w, d })? {
            Reply::Bool(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> Result<ServerSnapshot, String> {
        match self.exchange(&Request::Stats)? {
            Reply::Stats(line) => ServerSnapshot::decode(&line),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's metrics: the Prometheus text exposition, or
    /// (with `recent`) the trace ring — slow-query log plus reload events —
    /// as a JSON document.
    pub fn metrics(&mut self, recent: bool) -> Result<String, String> {
        match self.exchange(&Request::Metrics { recent })? {
            Reply::Metrics(payload) => Ok(payload),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to swap in the snapshot at `path` (a path on the
    /// *server's* filesystem); returns once the new snapshot is live.
    pub fn reload(&mut self, path: &str) -> Result<ReloadInfo, String> {
        match self.exchange(&Request::Reload { path: path.to_string() })? {
            Reply::Reloaded(info) => Ok(info),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down; returns once the server acknowledged.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.exchange(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// Describes a structurally valid reply of the wrong kind.
fn unexpected(reply: &Reply) -> String {
    format!("unexpected reply {reply:?}")
}

/// Floor of the first retry delay: half the 25 ms starting base.
pub const RETRY_DELAY_MIN: Duration = Duration::from_millis(12);
/// Ceiling of every retry delay.
pub const RETRY_DELAY_MAX: Duration = Duration::from_millis(400);

/// The connect-retry backoff schedule: an exponential base doubling from
/// 25 ms and capped at [`RETRY_DELAY_MAX`], jittered uniformly down to half
/// the base by a deterministic hash of `(attempt, salt)`. For every input
/// the result lies in `[base/2, base] ⊆ [RETRY_DELAY_MIN, RETRY_DELAY_MAX]`
/// — pinned by a unit test — while distinct salts (distinct
/// processes/threads) spread their retries across that window instead of
/// reconnecting in lockstep.
pub fn retry_delay(attempt: u32, salt: u64) -> Duration {
    const BASE_MS: u64 = 25;
    let base = (BASE_MS << attempt.min(8)).min(RETRY_DELAY_MAX.as_millis() as u64);
    // splitmix64 of (attempt, salt): cheap, deterministic, well mixed — no
    // RNG dependency for a sleep duration.
    let mut z = salt ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Duration::from_millis(base / 2 + z % (base / 2 + 1))
}

/// A per-thread, per-process jitter salt: two clients retrying against the
/// same restarted backend should not share a schedule.
fn process_salt() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut hasher);
    std::thread::current().id().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_stays_within_the_pinned_bounds() {
        for salt in [0u64, 1, 7, u64::MAX, 0xDEAD_BEEF] {
            let mut base = 25u64;
            for attempt in 0..64 {
                let d = retry_delay(attempt, salt);
                assert!(d >= RETRY_DELAY_MIN, "attempt {attempt} salt {salt}: {d:?} too short");
                assert!(d <= RETRY_DELAY_MAX, "attempt {attempt} salt {salt}: {d:?} too long");
                // Never below half of (or above) the attempt's exponential base.
                assert!(d.as_millis() as u64 >= base / 2);
                assert!(d.as_millis() as u64 <= base);
                base = (base * 2).min(RETRY_DELAY_MAX.as_millis() as u64);
            }
        }
    }

    #[test]
    fn connect_retry_respects_the_overall_deadline() {
        // Nothing listens on this localhost port, so every attempt fails
        // fast and the retry loop must keep going until — and only until —
        // the overall deadline.
        let timeout = Duration::from_millis(200);
        let start = Instant::now();
        let result = Client::connect_retry_with("127.0.0.1:1", timeout, Protocol::Text);
        let elapsed = start.elapsed();
        assert!(result.is_err());
        assert!(elapsed >= timeout, "gave up before the deadline: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(5), "deadline not enforced: {elapsed:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connect_timeout_caps_a_single_attempt() {
        // A loopback listener with a full accept queue: at backlog 1 Linux
        // queues two connections, and once two that are never accepted fill
        // it the kernel drops the next SYN, so an uncapped connect would
        // block for the SYN-retry minutes. With the cap it fails promptly.
        #[allow(unsafe_code)]
        fn set_backlog(listener: &std::net::TcpListener, backlog: i32) {
            use std::os::fd::AsRawFd;
            extern "C" {
                fn listen(fd: i32, backlog: i32) -> i32;
            }
            // SAFETY: `listen(2)` on a socket descriptor the listener owns
            // for the whole call; it touches no memory of this process.
            assert_eq!(unsafe { listen(listener.as_raw_fd(), backlog) }, 0);
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        set_backlog(&listener, 1);
        let addr = listener.local_addr().unwrap();
        let _queued: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap())
            .collect();
        let start = Instant::now();
        let attempt =
            Client::connect_timeout_with(addr, Duration::from_millis(250), Protocol::Text);
        let elapsed = start.elapsed();
        assert!(attempt.is_err(), "the full accept queue admitted a connection");
        assert!(elapsed < Duration::from_secs(5), "connect not capped: {elapsed:?}");
    }

    #[test]
    fn retry_delay_is_deterministic_and_salt_spread() {
        assert_eq!(retry_delay(3, 42), retry_delay(3, 42));
        // Distinct salts must not share one schedule: across a few attempts
        // at least one delay differs.
        let differs = (0..8).any(|a| retry_delay(a, 1) != retry_delay(a, 2));
        assert!(differs, "salts 1 and 2 produced identical schedules");
    }
}
