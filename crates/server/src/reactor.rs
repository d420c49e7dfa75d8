//! The event-loop reactor: readiness-driven connection multiplexing on one
//! thread, so concurrent connections scale past thread count and an idle
//! server sleeps in `poll(2)` instead of busy-polling `accept`.
//!
//! ## Structure
//!
//! One reactor thread owns every connection. Each loop iteration polls the
//! listener, the worker wake pipe, and every live connection for readiness,
//! then services whatever is ready:
//!
//! * **read** — drain the socket into the connection's input buffer;
//! * **parse** — split the buffer into requests (newline-framed text or
//!   length-prefixed binary, negotiated by the first byte — see
//!   [`crate::binary`]);
//! * **execute** — point lookups, `WITHIN`, and `STATS` run inline (they are
//!   microsecond index probes); `BATCH` answering and `RELOAD` snapshot
//!   decoding are shipped to the bounded worker pool so a large job never
//!   stalls the loop. The pool is the server's only level of query
//!   parallelism: a batch runs on the worker that dequeues it, and only a
//!   large batch arriving while workers sit idle is split across them;
//! * **write** — replies accumulate in an output buffer flushed as the
//!   socket accepts them, with a stall deadline replacing the old blocking
//!   `WRITE_TIMEOUT`.
//!
//! A connection with a job in flight pauses parsing (replies stay in request
//! order); its completion comes back over a channel and the worker wakes the
//! reactor out of `poll` by writing one byte to a loopback socket pair (the
//! self-pipe trick, kept std-only).
//!
//! ## The `poll(2)` wrapper
//!
//! [`sys`] is the one place the workspace touches FFI: a `#[repr(C)]`
//! `pollfd` with a direct `extern "C"` declaration of `poll(2)`, plus the
//! socket calls behind [`listen_reuseaddr`] (`SO_REUSEADDR` must be set
//! before `bind`, which std's `TcpListener` cannot express — and without it
//! a restarted backend cannot re-acquire its port for a TIME_WAIT minute).
//! No new dependencies. Everything above it is safe Rust; non-Unix builds
//! fall back to a short-sleep readiness stub that keeps the same
//! level-triggered semantics against nonblocking sockets, and non-Linux
//! builds to a plain bind.

use crate::binary::{self, BinRequest};
use crate::metrics::{
    PHASE_EXECUTE, PHASE_PARSE, PHASE_QUEUE, PHASE_WRITE, PROTO_BINARY, PROTO_TEXT, VERB_BATCH,
    VERB_METRICS, VERB_QUERY, VERB_RELOAD, VERB_SHUTDOWN, VERB_STATS, VERB_WITHIN,
};
use crate::protocol::{self, ReloadInfo, Reply, Request};
use crate::server::{load_flat_snapshot, Shared, MAX_LINE, WRITE_TIMEOUT};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use wcsd_core::FlatIndex;
use wcsd_graph::{Quality, VertexId, INF_DIST};

/// One `(s, t, w)` point query.
pub(crate) type Query = (VertexId, VertexId, Quality);

/// Fewest queries a `BATCH` must hold before the reactor splits it across
/// idle workers. Below it, handing half the batch to a parked worker (a
/// channel send plus a wake) costs as much as the merges it takes over.
/// Measured with one idle lane per batch length, inline against a two-part
/// split: on one shard of a 40×40 road grid (0.6 µs merges) the split tied
/// at 8–16 queries and won from 32; on a 96×96 grid (3.5 µs) it won from 8.
const SPLIT_MIN: usize = 32;

/// Upper bound on one poll sleep. Nothing correctness-critical hangs off
/// this tick — completions arrive via the wake pipe — it only bounds how
/// late a write-stall deadline is noticed.
const POLL_TICK: Duration = Duration::from_millis(500);

/// Pending-output level above which a connection stops being read: a client
/// that pipelines requests without draining replies gets backpressure
/// instead of an unbounded server-side buffer.
const MAX_OUTBUF: usize = 256 * 1024;

/// Most bytes read from one connection per loop iteration, so one
/// fire-hosing client cannot starve the rest of the event loop.
const READ_BUDGET: usize = 1024 * 1024;

/// How long shutdown waits for in-flight worker jobs to complete so their
/// connections get the replies they were promised.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Minimal readiness interface over `poll(2)`.
mod sys {
    #[cfg(unix)]
    pub use real::*;
    #[cfg(not(unix))]
    pub use stub::*;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(unix)]
    mod real {
        // The workspace is otherwise `forbid(unsafe_code)`; this module is
        // the single, audited exception (see crate docs): one `#[repr(C)]`
        // struct matching `struct pollfd` and one foreign call.
        #![allow(unsafe_code)]

        use std::io;
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_ulong};
        use std::time::Duration;

        /// `struct pollfd` from `poll.h`.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            fd: c_int,
            events: i16,
            /// Readiness reported by the kernel for this entry.
            pub revents: i16,
        }

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }

        /// Builds one poll entry for a socket.
        pub fn entry<S: AsRawFd>(socket: &S, events: i16) -> PollFd {
            PollFd { fd: socket.as_raw_fd(), events, revents: 0 }
        }

        /// Blocks until some entry is ready or `timeout` elapses, retrying
        /// on `EINTR`. Readiness lands in each entry's `revents`.
        pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
            let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
            loop {
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    mod reuse {
        // The second audited FFI exception, next to `real` (see crate docs):
        // the socket calls needed to set `SO_REUSEADDR` before `bind`, which
        // std's `TcpListener` cannot do. Without it a restarted server loses
        // its port to TIME_WAIT remnants of its previous life for a minute.
        #![allow(unsafe_code)]

        use std::io;
        use std::net::TcpListener;
        use std::os::fd::FromRawFd;
        use std::os::raw::{c_int, c_uint};

        /// `struct sockaddr_in` from `netinet/in.h` (Linux layout).
        #[repr(C)]
        struct SockAddrIn {
            sin_family: u16,
            /// Network byte order.
            sin_port: u16,
            /// Network byte order.
            sin_addr: u32,
            sin_zero: [u8; 8],
        }

        extern "C" {
            fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_int,
                len: c_uint,
            ) -> c_int;
            fn bind(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
            fn listen(fd: c_int, backlog: c_int) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        const AF_INET: c_int = 2;
        const SOCK_STREAM: c_int = 1;
        /// `SOCK_CLOEXEC`: the listener must not leak into spawned children.
        const SOCK_CLOEXEC: c_int = 0o2000000;
        const SOL_SOCKET: c_int = 1;
        const SO_REUSEADDR: c_int = 2;

        /// Binds `127.0.0.1:port` for listening with `SO_REUSEADDR` set.
        pub fn listen_reuseaddr(port: u16) -> io::Result<TcpListener> {
            // SAFETY: plain foreign calls on an fd this function owns; the
            // fd is closed on every error path and otherwise handed to
            // `TcpListener`, which owns it from then on.
            unsafe {
                let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
                if fd < 0 {
                    return Err(io::Error::last_os_error());
                }
                let one: c_int = 1;
                let addr = SockAddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: port.to_be(),
                    sin_addr: u32::from(std::net::Ipv4Addr::LOCALHOST).to_be(),
                    sin_zero: [0; 8],
                };
                if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0
                    || bind(fd, &addr, std::mem::size_of::<SockAddrIn>() as c_uint) < 0
                    || listen(fd, 128) < 0
                {
                    let err = io::Error::last_os_error();
                    close(fd);
                    return Err(err);
                }
                Ok(TcpListener::from_raw_fd(fd))
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod reuse {
        /// Non-Linux fallback: a plain bind (socket-option constants and
        /// `sockaddr` layouts differ across the BSDs; restart-in-place is a
        /// Linux/CI concern here).
        pub fn listen_reuseaddr(port: u16) -> std::io::Result<std::net::TcpListener> {
            std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, port))
        }
    }

    pub use reuse::listen_reuseaddr;

    #[cfg(not(unix))]
    mod stub {
        use std::io;
        use std::time::Duration;

        /// Degraded stand-in: every entry reports its requested interest
        /// after a short sleep. Correct (level-triggered attempts against
        /// nonblocking sockets just return `WouldBlock`) but not idle-cheap.
        #[derive(Clone, Copy)]
        pub struct PollFd {
            events: i16,
            /// Readiness reported for this entry.
            pub revents: i16,
        }

        /// Builds one poll entry for a socket.
        pub fn entry<S>(_socket: &S, events: i16) -> PollFd {
            PollFd { events, revents: 0 }
        }

        /// Sleeps briefly and marks every entry ready for its interest set.
        pub fn poll_fds(fds: &mut [PollFd], _timeout: Duration) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(2));
            for fd in fds.iter_mut() {
                fd.revents = fd.events;
            }
            Ok(fds.len())
        }
    }
}

/// Binds `127.0.0.1:port` for listening with `SO_REUSEADDR` set (on Linux; a
/// plain bind elsewhere), so a restarted server can re-acquire its port while
/// connections from its previous life are still in TIME_WAIT — the
/// self-healing story depends on a killed backend coming back on the same
/// address. `port` 0 picks an ephemeral port, exactly like
/// `TcpListener::bind`.
pub(crate) fn listen_reuseaddr(port: u16) -> std::io::Result<TcpListener> {
    sys::listen_reuseaddr(port)
}

/// Work shipped from the reactor to the bounded worker pool. Every job
/// carries the connection slot and generation that requested it, so a
/// completion for a connection that died (and whose slot was reused) is
/// recognised and dropped.
pub(crate) enum Job {
    /// One part of a `BATCH`. A batch is a single part unless the reactor
    /// split it across idle workers.
    Batch {
        /// The batch, shared by all of its parts.
        batch: Arc<BatchJob>,
        /// Which part this job answers, in `0..batch.parts`.
        part: usize,
    },
    /// A `RELOAD`: read + decode + validate a snapshot off the reactor
    /// thread. The reactor performs the actual swap on completion, so
    /// installs are serialized.
    Reload {
        /// Connection slot awaiting the reply.
        conn: usize,
        /// Generation of that slot at submission time.
        gen: u64,
        /// Snapshot path on the server's filesystem.
        path: String,
        /// Protocol index of the submitting connection (metric attribution).
        proto: usize,
        /// Submission time when timing is enabled.
        submitted: Option<Instant>,
    },
}

/// A `BATCH` in the worker pool, shared by its parts. Pinning
/// `(epoch, index)` here is what makes every batch reply consistent with
/// exactly one snapshot across a concurrent `RELOAD`, however many parts
/// answer it. Every line was range-checked against `index` before the
/// batch reached the pool.
pub(crate) struct BatchJob {
    /// Connection slot awaiting the reply.
    conn: usize,
    /// Generation of that slot at submission time.
    gen: u64,
    /// Protocol index of the submitting connection (metric attribution).
    proto: usize,
    /// Cache epoch paired with `index`.
    epoch: u64,
    /// The snapshot every part answers from.
    index: Arc<FlatIndex>,
    /// The batch body.
    queries: Vec<Query>,
    /// Parts the batch runs as; 1 means inline on one worker.
    parts: usize,
    /// Submission time when timing is enabled; the queue/execute split is
    /// derived from it and shipped back in `Done`.
    submitted: Option<Instant>,
    /// When the first part was picked up (set only when timing is enabled).
    started: OnceLock<Instant>,
    /// The one output buffer, by input position. Each part stores only into
    /// its own range; [`INF_DIST`] marks an unreachable pair.
    answers: Vec<AtomicU32>,
    /// Set by part 0 when the `worker.batch` failpoint fails the batch.
    injected_failure: AtomicBool,
    /// Parts still running; the part that takes it to zero replies.
    remaining: AtomicUsize,
}

impl BatchJob {
    /// The input positions part `part` answers. The ranges of all parts tile
    /// `0..queries.len()` and differ in length by at most one.
    fn part_range(&self, part: usize) -> Range<usize> {
        let n = self.queries.len();
        part * n / self.parts..(part + 1) * n / self.parts
    }

    /// How the batch ran, for the slow-query log.
    fn describe(&self) -> String {
        match self.parts {
            1 => format!("BATCH {} inline", self.queries.len()),
            parts => format!("BATCH {} split into {parts} parts", self.queries.len()),
        }
    }
}

/// A completion flowing back from a worker.
pub(crate) enum Done {
    /// Answers (or the injected failure) for a submitted batch, sent once by
    /// whichever of its parts finished last.
    Batch {
        /// The batch that completed.
        batch: Arc<BatchJob>,
        /// In-order answers, or why the batch was rejected.
        result: Result<Vec<Option<u32>>, String>,
        /// `(queue_us, execute_us)` measured on the workers, from the first
        /// part's pickup to the last part's end, present when timing is
        /// enabled. The reactor records these into the phase histograms at
        /// completion, keeping every histogram mutation on the reactor
        /// thread (see [`crate::metrics`]).
        timing: Option<(u64, u64)>,
    },
    /// A decoded snapshot (or the load error) for a submitted reload.
    Reload {
        /// Connection slot the job belonged to.
        conn: usize,
        /// Slot generation at submission time.
        gen: u64,
        /// Protocol index of the submitting connection.
        proto: usize,
        /// The decoded snapshot, ready to install.
        result: Result<FlatIndex, String>,
        /// `(queue_us, decode_us)` measured on the worker; the reactor adds
        /// the swap time it measures itself.
        timing: Option<(u64, u64)>,
    },
}

/// Write end of the reactor wake pipe, cloned into every worker.
#[derive(Clone)]
pub(crate) struct WakeSender(Arc<TcpStream>);

impl WakeSender {
    /// Nudges the reactor out of `poll`. A full pipe means a wake is already
    /// pending, so every error is ignorable.
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// Builds the self-pipe the workers use to wake the reactor: a loopback
/// socket pair (std has no `pipe(2)`), both ends nonblocking.
pub(crate) fn wake_pair() -> std::io::Result<(TcpStream, WakeSender)> {
    let gate = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(gate.local_addr()?)?;
    // The ephemeral gate port is globally connectable for an instant; only
    // accept our own connect socket, not a stranger racing us to it.
    let ours = tx.local_addr()?;
    let rx = loop {
        let (candidate, peer) = gate.accept()?;
        if peer == ours {
            break candidate;
        }
    };
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true).ok();
    Ok((rx, WakeSender(Arc::new(tx))))
}

/// Body of one pool worker: pull jobs until the reactor hangs up, answer
/// each, wake the reactor. Workers share the receiver behind a mutex (the
/// idle ones queue on the lock), so the pool is bounded by construction.
pub(crate) fn worker(
    shared: &Shared,
    jobs: &Mutex<Receiver<Job>>,
    done: Sender<Done>,
    wake: WakeSender,
) {
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return, // a worker panicked while holding the lock
        };
        let Ok(job) = job else { return };
        shared.metrics.workers_busy.inc();
        let completion = match job {
            Job::Batch { batch, part } => run_part(shared, &batch, part),
            Job::Reload { conn, gen, path, proto, submitted } => {
                let started = submitted.map(|_| Instant::now());
                let result = load_flat_snapshot(&path);
                let timing = job_timing(submitted, started);
                Some(Done::Reload { conn, gen, proto, result, timing })
            }
        };
        shared.metrics.workers_busy.dec();
        // Only the last part of a split batch has a completion to send.
        let Some(completion) = completion else { continue };
        if done.send(completion).is_err() {
            return; // reactor gone: shutdown finished without us
        }
        wake.wake();
    }
}

/// `(queue_us, run_us)` for a worker job, when timing was enabled at
/// submission. `started` is sampled once at pickup so the queue wait and the
/// run share one boundary instant.
fn job_timing(submitted: Option<Instant>, started: Option<Instant>) -> Option<(u64, u64)> {
    submitted
        .zip(started)
        .map(|(sub, start)| (dur_us(start.saturating_duration_since(sub)), dur_us(start.elapsed())))
}

/// Saturating microseconds of a duration.
fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Maps a connection's wire mode to a metrics protocol index. `Detect`
/// counts as text: the only replies a connection can emit before the mode is
/// known are text-encoded errors.
fn proto_idx(mode: Mode) -> usize {
    match mode {
        Mode::Binary => PROTO_BINARY,
        Mode::Text | Mode::Detect => PROTO_TEXT,
    }
}

/// Runs one part of a batch on the calling worker, serially. The part that
/// finishes last returns the batch's one completion; the others return
/// `None`.
fn run_part(shared: &Shared, batch: &Arc<BatchJob>, part: usize) -> Option<Done> {
    if batch.submitted.is_some() {
        batch.started.get_or_init(Instant::now);
    }
    // Chaos site, once per batch: `fail` poisons the batch (the client sees
    // an ERR, never a wrong answer); `delay:<ms>` stalls the worker so tests
    // can fill the pending queue deterministically.
    let injected = part == 0
        && matches!(
            crate::failpoint::fire("worker.batch"),
            Some(crate::failpoint::Action::Fail | crate::failpoint::Action::Refuse)
        );
    if injected {
        batch.injected_failure.store(true, Ordering::Relaxed);
    } else {
        let range = batch.part_range(part);
        for (slot, &(s, t, w)) in batch.answers[range.clone()].iter().zip(&batch.queries[range]) {
            let answer = shared.cached_distance(batch.epoch, &batch.index, s, t, w);
            slot.store(answer.unwrap_or(INF_DIST), Ordering::Relaxed);
        }
    }
    // AcqRel: the last part acquires every other part's stores.
    if batch.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
        return None;
    }
    let result = if batch.injected_failure.load(Ordering::Relaxed) {
        Err("injected batch failure".to_string())
    } else {
        Ok(batch
            .answers
            .iter()
            .map(|slot| Some(slot.load(Ordering::Relaxed)).filter(|&d| d != INF_DIST))
            .collect())
    };
    let timing = job_timing(batch.submitted, batch.started.get().copied());
    Some(Done::Batch { batch: Arc::clone(batch), result, timing })
}

/// Wire framing of one connection, negotiated from its first byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No byte seen yet.
    Detect,
    /// Newline-delimited text ([`crate::protocol`]).
    Text,
    /// Length-prefixed frames ([`crate::binary`]).
    Binary,
}

/// Parse-progress of one connection.
enum ConnState {
    /// Between requests.
    Ready,
    /// A text `BATCH <n>` header arrived; collecting its body lines.
    TextBatch {
        /// Announced body-line count.
        expect: usize,
        /// Body lines consumed so far (valid or not).
        seen: usize,
        /// Parsed body queries (stops growing after the first bad line).
        queries: Vec<Query>,
        /// First parse failure; later lines are drained but ignored.
        invalid: Option<String>,
    },
    /// A job is in flight for this connection; parsing is paused so replies
    /// stay in request order.
    AwaitJob,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this tenancy of the slot from earlier ones.
    gen: u64,
    mode: Mode,
    inbuf: Vec<u8>,
    /// Consumed prefix of `inbuf`. A cursor instead of per-request
    /// `drain(..)` keeps parsing linear in the buffered bytes; the buffer is
    /// compacted once per `process` pass.
    in_start: usize,
    /// Bytes past `in_start` already scanned for a newline (text mode).
    scanned: usize,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the socket.
    out_start: usize,
    state: ConnState,
    /// Close once `outbuf` drains (set by `SHUTDOWN` and fatal errors).
    close_after_flush: bool,
    /// The peer sent EOF; serve what is owed, then close.
    peer_closed: bool,
    /// When the last write attempt made no progress (stall deadline).
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            mode: Mode::Detect,
            inbuf: Vec::new(),
            in_start: 0,
            scanned: 0,
            outbuf: Vec::new(),
            out_start: 0,
            state: ConnState::Ready,
            close_after_flush: false,
            peer_closed: false,
            stalled_since: None,
        }
    }

    fn has_output(&self) -> bool {
        self.out_start < self.outbuf.len()
    }

    /// Whether the reactor should read this connection at all: not after a
    /// fatal reply, not while a job holds the pipeline, and not past the
    /// output backpressure limit.
    fn wants_read(&self) -> bool {
        !self.close_after_flush
            && !self.peer_closed
            && !matches!(self.state, ConnState::AwaitJob)
            && self.outbuf.len() - self.out_start < MAX_OUTBUF
    }

    /// The not-yet-consumed input.
    fn input(&self) -> &[u8] {
        &self.inbuf[self.in_start..]
    }

    /// Marks the next `n` input bytes consumed (cursor only; see `compact`).
    fn consume(&mut self, n: usize) {
        self.in_start += n;
        self.scanned = 0;
    }

    /// Drops the consumed prefix for real — called once per `process` pass,
    /// so the cost is linear in bytes received rather than per request.
    fn compact(&mut self) {
        if self.in_start > 0 {
            self.inbuf.drain(..self.in_start);
            self.in_start = 0;
        }
    }

    /// Appends one reply in this connection's wire encoding.
    fn push_reply(&mut self, reply: &Reply) {
        match self.mode {
            Mode::Binary => binary::encode_reply(reply, &mut self.outbuf),
            Mode::Text | Mode::Detect => reply.encode_text(&mut self.outbuf),
        }
    }

    /// Writes as much pending output as the socket accepts. Returns `false`
    /// when the connection should be closed (fatal error, or an intentional
    /// close whose output has fully drained).
    fn flush(&mut self) -> bool {
        while self.has_output() {
            match (&self.stream).write(&self.outbuf[self.out_start..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_start += n;
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.stalled_since.get_or_insert_with(Instant::now);
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.outbuf.clear();
        self.out_start = 0;
        !self.close_after_flush
    }
}

/// The reactor itself; see the module docs. `run` consumes it and returns
/// when a `SHUTDOWN` has been processed.
pub(crate) struct Reactor<'a> {
    shared: &'a Shared,
    listener: TcpListener,
    wake_rx: TcpStream,
    jobs: Sender<Job>,
    done: Receiver<Done>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Jobs submitted to the pool whose completions have not come back yet
    /// (queued + executing). Incremented at submission and decremented in
    /// `apply_completion` — both on the reactor thread, so the admission
    /// check in `submit_*` reads an exact count with no atomics. At
    /// `Shared::max_pending_jobs`, new offloaded work is shed with
    /// [`Reply::Busy`]. A split batch counts once.
    pending_jobs: usize,
    /// Pool jobs submitted and not yet completed, counting every part of a
    /// split batch: the workers they occupy. Kept on this thread like
    /// `pending_jobs`, so the idle-worker check in `submit_batch` is exact.
    pending_parts: usize,
}

impl<'a> Reactor<'a> {
    pub(crate) fn new(
        shared: &'a Shared,
        listener: TcpListener,
        wake_rx: TcpStream,
        jobs: Sender<Job>,
        done: Receiver<Done>,
    ) -> Self {
        let _ = listener.set_nonblocking(true);
        Self {
            shared,
            listener,
            wake_rx,
            jobs,
            done,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            pending_jobs: 0,
            pending_parts: 0,
        }
    }

    /// The event loop. Exits once the shutdown flag is observed, after a
    /// bounded wait for in-flight worker jobs and a best-effort final flush
    /// of every connection's pending output.
    pub(crate) fn run(mut self) {
        let mut fds = Vec::new();
        let mut slots = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_and_close_all();
                return;
            }
            fds.clear();
            slots.clear();
            fds.push(sys::entry(&self.listener, sys::POLLIN));
            fds.push(sys::entry(&self.wake_rx, sys::POLLIN));
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0;
                if conn.wants_read() {
                    events |= sys::POLLIN;
                }
                if conn.has_output() {
                    events |= sys::POLLOUT;
                }
                // A zero-interest connection (job in flight, nothing to
                // write) is not registered at all: `poll` reports
                // POLLERR/POLLHUP regardless of the interest set, so a peer
                // that dies mid-job would otherwise spin the loop at full
                // speed until its completion arrives. The death is detected
                // instead when the completion's reply fails to write.
                if events != 0 {
                    fds.push(sys::entry(&conn.stream, events));
                    slots.push(slot);
                }
            }
            // A poll error (resource pressure) degrades to a paced retry; the
            // loop itself must never die while the server is up.
            if sys::poll_fds(&mut fds, POLL_TICK).is_err() {
                std::thread::sleep(Duration::from_millis(10));
            }
            if fds[0].revents != 0 {
                self.accept_ready();
            }
            if fds[1].revents != 0 {
                drain_wake(&self.wake_rx);
            }
            self.drain_completions();
            for (i, &slot) in slots.iter().enumerate() {
                let revents = fds[2 + i].revents;
                if revents != 0 {
                    self.service(slot, revents);
                }
            }
            self.reap_stalled();
        }
    }

    /// Accepts every connection currently queued on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Chaos site: `refuse` drops the fresh connection before
                    // it is counted or registered, simulating a listener
                    // that accepts then dies; `delay:<ms>` stalls the accept
                    // path.
                    if matches!(
                        crate::failpoint::fire("reactor.accept"),
                        Some(crate::failpoint::Action::Refuse | crate::failpoint::Action::Fail)
                    ) {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    stream.set_nodelay(true).ok();
                    self.shared.metrics.connections.inc();
                    self.shared.metrics.live_connections.inc();
                    self.next_gen += 1;
                    let conn = Conn::new(stream, self.next_gen);
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Transient accept errors (e.g. a connection reset while
                // queued, or fd exhaustion) must not kill the server — but a
                // persistent one keeps the listener readable, so pace the
                // retry or the loop would spin hot until the error clears.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Applies every queued worker completion to its connection.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done.try_recv() {
            self.apply_completion(done);
        }
    }

    /// Applies one worker completion: reloads install their snapshot here,
    /// so swaps are serialized on the reactor thread. Verb counters and
    /// phase samples for offloaded requests land here too — on the reactor
    /// thread, with the durations the worker measured — which is what keeps
    /// every `METRICS` payload self-consistent (see [`crate::metrics`]).
    fn apply_completion(&mut self, done: Done) {
        // Copy the `&Shared` out so the metrics borrow does not pin `self`
        // (delivery below needs `&mut self`).
        let shared = self.shared;
        let m = &shared.metrics;
        match done {
            Done::Batch { batch, result, timing } => {
                self.retire_job(batch.parts);
                let proto = batch.proto;
                m.finish_offloaded(proto, VERB_BATCH, timing, || batch.describe());
                let reply = match result {
                    Ok(answers) => {
                        // Counted here, not at submission, so STATS counts
                        // only batches that validated and were answered —
                        // matching the parse-failure path, which never
                        // reaches the pool at all.
                        m.batches.inc();
                        m.batch_queries.add(answers.len() as u64);
                        if batch.parts > 1 {
                            m.batch_splits.inc();
                        }
                        Reply::Batch(answers)
                    }
                    Err(reason) => {
                        m.errors[proto].inc();
                        Reply::Err(reason)
                    }
                };
                self.deliver(batch.conn, batch.gen, reply);
            }
            Done::Reload { conn, gen, proto, result, timing } => {
                self.retire_job(1);
                let reply = match result {
                    Ok(flat) => {
                        let stats = flat.stats();
                        let swap_t0 = m.timer();
                        let generation = self.shared.install(Arc::new(flat));
                        let swap_us = swap_t0.map(|t| dur_us(t.elapsed())).unwrap_or(0);
                        if let Some((queue_us, decode_us)) = timing {
                            m.phase_us(proto, PHASE_QUEUE, queue_us);
                            m.phase_us(proto, PHASE_EXECUTE, decode_us + swap_us);
                            if m.enabled {
                                m.reload_decode_us.record(decode_us);
                                m.reload_swap_us.record(swap_us);
                                m.registry.tracer().record(
                                    "reload",
                                    &format!(
                                        "generation={generation} vertices={} entries={}",
                                        stats.num_vertices, stats.total_entries
                                    ),
                                    decode_us + swap_us,
                                );
                            }
                        }
                        Reply::Reloaded(ReloadInfo {
                            generation,
                            vertices: stats.num_vertices as u64,
                            entries: stats.total_entries as u64,
                        })
                    }
                    Err(reason) => {
                        m.errors[proto].inc();
                        if let Some((queue_us, decode_us)) = timing {
                            m.phase_us(proto, PHASE_QUEUE, queue_us);
                            m.phase_us(proto, PHASE_EXECUTE, decode_us);
                        }
                        Reply::Err(reason)
                    }
                };
                m.verbs[proto][VERB_RELOAD].inc();
                self.deliver(conn, gen, reply);
            }
        }
    }

    /// Hands a completion reply to its connection — unless the connection
    /// died (or its slot was reused) while the job ran.
    fn deliver(&mut self, slot: usize, gen: u64, reply: Reply) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
            if conn.gen != gen {
                return;
            }
            conn.state = ConnState::Ready;
            conn.push_reply(&reply);
        }
        // Resume the pipeline: parse whatever queued up behind the job.
        self.service(slot, 0);
    }

    /// Runs one connection through read → parse/execute → write.
    fn service(&mut self, slot: usize, revents: i16) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        let mut alive = true;
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && conn.wants_read() {
            alive = self.read_into(&mut conn);
        }
        if alive {
            self.process(&mut conn, slot);
            if conn.has_output() {
                // The write phase is sampled per flush *with pending bytes*,
                // not per request — pipelined replies share one flush.
                let t0 = self.shared.metrics.timer();
                alive = conn.flush();
                self.shared.metrics.phase(proto_idx(conn.mode), PHASE_WRITE, t0);
            } else {
                alive = conn.flush();
            }
        }
        // A half-closed peer is served to completion: buffered complete
        // requests were just processed above, a pending job still owes a
        // reply, and queued output still drains. Only when none of that
        // remains is the connection finished (a trailing partial line or
        // frame can never complete and is discarded).
        if alive
            && conn.peer_closed
            && !conn.has_output()
            && !matches!(conn.state, ConnState::AwaitJob)
        {
            alive = false;
        }
        if alive {
            self.conns[slot] = Some(conn);
        } else {
            // The conn was taken out of its slot above, so dropping it here
            // closes the socket; only the bookkeeping is left to do.
            drop(conn);
            self.shared.metrics.live_connections.dec();
            self.free.push(slot);
        }
    }

    /// Drains the socket into the input buffer (up to the fairness budget).
    /// Returns `false` when the connection is finished.
    fn read_into(&mut self, conn: &mut Conn) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut total = 0;
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // EOF — but bytes read before it may hold complete
                    // requests (a client may write + half-close + await its
                    // replies), so parsing and flushing still happen; the
                    // caller closes once everything owed has been delivered.
                    conn.peer_closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if total >= READ_BUDGET {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parses and executes as many complete requests as the input buffer
    /// holds, stopping when a job takes the pipeline or a fatal reply is
    /// queued. Consumption moves a cursor; the buffer is compacted once on
    /// the way out, so a burst of pipelined requests costs linear time.
    fn process(&mut self, conn: &mut Conn, slot: usize) {
        self.process_inner(conn, slot);
        conn.compact();
    }

    fn process_inner(&mut self, conn: &mut Conn, slot: usize) {
        loop {
            if conn.close_after_flush || matches!(conn.state, ConnState::AwaitJob) {
                return;
            }
            match conn.mode {
                Mode::Detect => {
                    let Some(&first) = conn.input().first() else { return };
                    if first == binary::MAGIC {
                        if conn.input().len() < 2 {
                            return;
                        }
                        let version = conn.input()[1];
                        conn.consume(2);
                        conn.mode = Mode::Binary;
                        self.shared.metrics.proto_connections[PROTO_BINARY].inc();
                        if version != binary::VERSION {
                            self.shared.metrics.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(format!(
                                "unsupported binary protocol version {version} (expected {})",
                                binary::VERSION
                            )));
                            conn.close_after_flush = true;
                        }
                    } else {
                        conn.mode = Mode::Text;
                        self.shared.metrics.proto_connections[PROTO_TEXT].inc();
                    }
                }
                Mode::Text => {
                    let newline = conn.input()[conn.scanned..].iter().position(|&b| b == b'\n');
                    let line_len = match newline {
                        None => {
                            conn.scanned = conn.input().len();
                            if conn.scanned > MAX_LINE {
                                self.overlong_line(conn);
                            }
                            return;
                        }
                        Some(at) => conn.scanned + at,
                    };
                    // The cap applies whether or not the newline has arrived
                    // yet: an over-long-but-terminated line must not smuggle
                    // an unbounded token into parsing or the ERR echo.
                    if line_len > MAX_LINE {
                        self.overlong_line(conn);
                        return;
                    }
                    let line = String::from_utf8_lossy(&conn.input()[..line_len]).into_owned();
                    conn.consume(line_len + 1);
                    self.handle_text_line(conn, slot, &line);
                }
                Mode::Binary => {
                    let input = conn.input();
                    if input.len() < 4 {
                        return;
                    }
                    let len = u32::from_le_bytes(input[..4].try_into().expect("4 bytes")) as usize;
                    if len > binary::MAX_FRAME {
                        conn.push_reply(&Reply::Err(format!(
                            "frame of {len} bytes exceeds maximum {}",
                            binary::MAX_FRAME
                        )));
                        conn.close_after_flush = true;
                        return;
                    }
                    if input.len() < 4 + len {
                        return;
                    }
                    // Decode straight from the buffer (a max-size batch body
                    // is ~12 MB — no copy); the parsed request owns its data.
                    let t_parse = self.shared.metrics.timer();
                    let req = binary::decode_request(&input[4..4 + len]);
                    self.shared.metrics.phase(PROTO_BINARY, PHASE_PARSE, t_parse);
                    conn.consume(4 + len);
                    match req {
                        // Framing is still intact after a bad body, so a
                        // malformed frame poisons one request, not the
                        // connection.
                        Err(reason) => {
                            self.shared.metrics.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(reason));
                        }
                        Ok(req) => self.dispatch_binary(conn, slot, req),
                    }
                }
            }
        }
    }

    /// Rejects a text line longer than [`MAX_LINE`] and drops the
    /// connection: the rest of the line is unread (or deliberately
    /// unparsed), so framing is lost either way.
    fn overlong_line(&mut self, conn: &mut Conn) {
        self.shared.metrics.errors[PROTO_TEXT].inc();
        conn.push_reply(&Reply::Err(format!("request line exceeds {MAX_LINE} bytes")));
        conn.close_after_flush = true;
    }

    /// One complete text line: either a request or a `BATCH` body line.
    fn handle_text_line(&mut self, conn: &mut Conn, slot: usize, line: &str) {
        if let ConnState::TextBatch { expect, mut seen, mut queries, mut invalid } =
            std::mem::replace(&mut conn.state, ConnState::Ready)
        {
            // All body lines are consumed even after a failure, so one bad
            // query poisons only this batch, never the connection framing.
            seen += 1;
            if invalid.is_none() {
                match protocol::parse_batch_line(line) {
                    Ok(q) => queries.push(q),
                    Err(reason) => invalid = Some(format!("batch line {seen}: {reason}")),
                }
            }
            if seen == expect {
                match invalid {
                    Some(reason) => {
                        // Never executed, so no verb count or phase sample —
                        // only the error counter (matching binary decode
                        // failures, where the verb is unknowable).
                        self.shared.metrics.errors[PROTO_TEXT].inc();
                        conn.push_reply(&Reply::Err(reason));
                    }
                    None => self.submit_batch(conn, slot, queries),
                }
            } else {
                conn.state = ConnState::TextBatch { expect, seen, queries, invalid };
            }
            return;
        }
        if line.trim().is_empty() {
            return; // blank keep-alive lines are not an error
        }
        let shared = self.shared;
        let m = &shared.metrics;
        let t_parse = m.timer();
        let parsed = protocol::parse_request(line);
        m.phase(PROTO_TEXT, PHASE_PARSE, t_parse);
        match parsed {
            Err(reason) => {
                m.errors[PROTO_TEXT].inc();
                conn.push_reply(&Reply::Err(reason));
            }
            Ok(Request::Query { s, t, w }) => {
                let t0 = m.timer();
                let reply = self.exec_query(s, t, w);
                if matches!(reply, Reply::Err(_)) {
                    m.errors[PROTO_TEXT].inc();
                }
                m.finish_request(PROTO_TEXT, VERB_QUERY, t0, || format!("QUERY {s} {t} {w}"));
                conn.push_reply(&reply);
            }
            Ok(Request::Within { s, t, w, d }) => {
                let t0 = m.timer();
                let reply = self.exec_within(s, t, w, d);
                if matches!(reply, Reply::Err(_)) {
                    m.errors[PROTO_TEXT].inc();
                }
                m.finish_request(PROTO_TEXT, VERB_WITHIN, t0, || format!("WITHIN {s} {t} {w} {d}"));
                conn.push_reply(&reply);
            }
            Ok(Request::Batch { n: 0 }) => {
                let t0 = m.timer();
                m.batches.inc();
                m.finish_request(PROTO_TEXT, VERB_BATCH, t0, || "BATCH 0".to_string());
                conn.push_reply(&Reply::Batch(Vec::new()));
            }
            Ok(Request::Batch { n }) => {
                // Verb counted when the body completes (see `apply_completion`
                // and the invalid-body arm above).
                conn.state = ConnState::TextBatch {
                    expect: n,
                    seen: 0,
                    queries: Vec::with_capacity(n.min(4096)),
                    invalid: None,
                };
            }
            Ok(Request::Stats) => {
                let t0 = m.timer();
                let reply = Reply::Stats(shared.snapshot().encode());
                m.finish_request(PROTO_TEXT, VERB_STATS, t0, || "STATS".to_string());
                conn.push_reply(&reply);
            }
            Ok(Request::Metrics { recent }) => {
                let t0 = m.timer();
                let payload = metrics_payload(shared, recent);
                // Counted *after* rendering: the in-flight METRICS request is
                // absent from both its own counter and its own histogram, so
                // the payload stays internally consistent.
                m.finish_request(PROTO_TEXT, VERB_METRICS, t0, || "METRICS".to_string());
                conn.push_reply(&Reply::Metrics(payload));
            }
            Ok(Request::Reload { path }) => self.submit_reload(conn, slot, path),
            Ok(Request::Shutdown) => {
                let t0 = m.timer();
                self.begin_shutdown(conn);
                m.finish_request(PROTO_TEXT, VERB_SHUTDOWN, t0, || "SHUTDOWN".to_string());
            }
        }
    }

    /// One parsed binary request.
    fn dispatch_binary(&mut self, conn: &mut Conn, slot: usize, req: BinRequest) {
        let shared = self.shared;
        let m = &shared.metrics;
        match req {
            BinRequest::Query { s, t, w } => {
                let t0 = m.timer();
                let reply = self.exec_query(s, t, w);
                if matches!(reply, Reply::Err(_)) {
                    m.errors[PROTO_BINARY].inc();
                }
                m.finish_request(PROTO_BINARY, VERB_QUERY, t0, || format!("QUERY {s} {t} {w}"));
                conn.push_reply(&reply);
            }
            BinRequest::Within { s, t, w, d } => {
                let t0 = m.timer();
                let reply = self.exec_within(s, t, w, d);
                if matches!(reply, Reply::Err(_)) {
                    m.errors[PROTO_BINARY].inc();
                }
                m.finish_request(PROTO_BINARY, VERB_WITHIN, t0, || {
                    format!("WITHIN {s} {t} {w} {d}")
                });
                conn.push_reply(&reply);
            }
            BinRequest::Batch { queries } if queries.is_empty() => {
                let t0 = m.timer();
                m.batches.inc();
                m.finish_request(PROTO_BINARY, VERB_BATCH, t0, || "BATCH 0".to_string());
                conn.push_reply(&Reply::Batch(Vec::new()));
            }
            BinRequest::Batch { queries } => self.submit_batch(conn, slot, queries),
            BinRequest::Stats => {
                let t0 = m.timer();
                let reply = Reply::Stats(shared.snapshot().encode());
                m.finish_request(PROTO_BINARY, VERB_STATS, t0, || "STATS".to_string());
                conn.push_reply(&reply);
            }
            BinRequest::Metrics { recent } => {
                let t0 = m.timer();
                let payload = metrics_payload(shared, recent);
                // Counted after rendering — see the text-protocol arm.
                m.finish_request(PROTO_BINARY, VERB_METRICS, t0, || "METRICS".to_string());
                conn.push_reply(&Reply::Metrics(payload));
            }
            BinRequest::Reload { path } => self.submit_reload(conn, slot, path),
            BinRequest::Shutdown => {
                let t0 = m.timer();
                self.begin_shutdown(conn);
                m.finish_request(PROTO_BINARY, VERB_SHUTDOWN, t0, || "SHUTDOWN".to_string());
            }
        }
    }

    /// Inline `QUERY` execution through the epoch-tagged cache.
    fn exec_query(&self, s: VertexId, t: VertexId, w: Quality) -> Reply {
        let (epoch, index) = self.shared.current();
        if let Err(reason) = check_range(&index, s, t) {
            return Reply::Err(reason);
        }
        self.shared.metrics.queries.inc();
        Reply::Dist(self.shared.cached_distance(epoch, &index, s, t, w))
    }

    /// Inline `WITHIN` execution (uncached, like the thread-per-connection
    /// server), through the configured query implementation.
    fn exec_within(&self, s: VertexId, t: VertexId, w: Quality, d: u32) -> Reply {
        let (_epoch, index) = self.shared.current();
        if let Err(reason) = check_range(&index, s, t) {
            return Reply::Err(reason);
        }
        self.shared.metrics.queries.inc();
        let answer = index.distance_with(s, t, w, self.shared.query_impl);
        Reply::Bool(answer.is_some_and(|x| x <= d))
    }

    /// Admission control for offloaded work: either reserves a pending-job
    /// slot for a request running as `parts` pool jobs (returns `true`) or
    /// sheds the request with [`Reply::Busy`]. The count is exact — mutated
    /// only on this thread — so the pending queue is bounded by
    /// construction, not by sampling.
    fn admit_job(&mut self, conn: &mut Conn, proto: usize, parts: usize) -> bool {
        if self.pending_jobs >= self.shared.max_pending_jobs {
            // Shed without executing: the error counter moves (like a parse
            // failure, the verb never ran) plus the dedicated shed counter,
            // so overload is distinguishable from malformed traffic.
            self.shared.metrics.shed[proto].inc();
            self.shared.metrics.errors[proto].inc();
            conn.push_reply(&Reply::Busy);
            return false;
        }
        self.pending_jobs += 1;
        self.pending_parts += parts;
        self.shared.metrics.pending_jobs.set(self.pending_jobs as i64);
        true
    }

    /// Ships a batch to the worker pool, pinning the current snapshot. The
    /// whole batch is range-checked here first, so a bad line is answered
    /// with its `batch line N` error and never reaches the pool. A batch runs
    /// inline on the worker that dequeues it, unless it holds at least
    /// [`SPLIT_MIN`] queries while workers sit idle: then it is split into
    /// one part per idle worker, at most `batch_threads` parts.
    fn submit_batch(&mut self, conn: &mut Conn, slot: usize, queries: Vec<Query>) {
        let shared = self.shared;
        let proto = proto_idx(conn.mode);
        let submitted = shared.metrics.timer();
        let (epoch, index) = shared.current();
        for (i, &(s, t, _)) in queries.iter().enumerate() {
            if let Err(reason) = check_range(&index, s, t) {
                shared.metrics.errors[proto].inc();
                shared.metrics.finish_request(proto, VERB_BATCH, submitted, || {
                    format!("BATCH {}", queries.len())
                });
                conn.push_reply(&Reply::Err(format!("batch line {}: {reason}", i + 1)));
                return;
            }
        }
        let idle = shared.batch_workers.saturating_sub(self.pending_parts);
        let parts =
            if queries.len() >= SPLIT_MIN { idle.min(shared.batch_threads).max(1) } else { 1 };
        if !self.admit_job(conn, proto, parts) {
            return;
        }
        conn.state = ConnState::AwaitJob;
        let batch = Arc::new(BatchJob {
            conn: slot,
            gen: conn.gen,
            proto,
            epoch,
            index,
            answers: queries.iter().map(|_| AtomicU32::new(INF_DIST)).collect(),
            queries,
            parts,
            submitted,
            started: OnceLock::new(),
            injected_failure: AtomicBool::new(false),
            remaining: AtomicUsize::new(parts),
        });
        let sent = (0..parts)
            .all(|part| self.jobs.send(Job::Batch { batch: batch.clone(), part }).is_ok());
        if !sent {
            self.retire_job(parts);
            conn.state = ConnState::Ready;
            // Rejected inline, so account it inline: the completion path
            // that would normally count the verb will never run.
            shared.metrics.errors[proto].inc();
            shared.metrics.finish_request(proto, VERB_BATCH, submitted, || "BATCH".to_string());
            conn.push_reply(&Reply::Err("server is shutting down".to_string()));
        }
    }

    /// Ships a reload to the worker pool (file read + decode off-loop).
    fn submit_reload(&mut self, conn: &mut Conn, slot: usize, path: String) {
        let shared = self.shared;
        let proto = proto_idx(conn.mode);
        if !self.admit_job(conn, proto, 1) {
            return;
        }
        let submitted = shared.metrics.timer();
        conn.state = ConnState::AwaitJob;
        let job = Job::Reload { conn: slot, gen: conn.gen, path, proto, submitted };
        if self.jobs.send(job).is_err() {
            self.retire_job(1);
            conn.state = ConnState::Ready;
            shared.metrics.errors[proto].inc();
            shared.metrics.finish_request(proto, VERB_RELOAD, submitted, || "RELOAD".to_string());
            conn.push_reply(&Reply::Err("server is shutting down".to_string()));
        }
    }

    /// Releases one pending-job slot and its `parts` pool jobs (completion
    /// arrived, or submission failed after the reservation).
    fn retire_job(&mut self, parts: usize) {
        self.pending_jobs = self.pending_jobs.saturating_sub(1);
        self.pending_parts = self.pending_parts.saturating_sub(parts);
        self.shared.metrics.pending_jobs.set(self.pending_jobs as i64);
    }

    /// `SHUTDOWN`: acknowledge, close this connection once the ack flushes,
    /// and stop the loop on the next iteration.
    fn begin_shutdown(&mut self, conn: &mut Conn) {
        conn.push_reply(&Reply::Bye);
        conn.close_after_flush = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Closes connections whose pending output made no progress for
    /// [`WRITE_TIMEOUT`] — the nonblocking analogue of the old blocking
    /// write timeout.
    fn reap_stalled(&mut self) {
        for slot in 0..self.conns.len() {
            let stalled = match &self.conns[slot] {
                Some(conn) => {
                    conn.has_output()
                        && conn.stalled_since.is_some_and(|since| since.elapsed() > WRITE_TIMEOUT)
                }
                None => false,
            };
            if stalled {
                self.release(slot);
            }
        }
    }

    /// Final pass once shutdown is flagged: one best-effort flush per
    /// connection, then everything is dropped.
    fn drain_and_close_all(&mut self) {
        // In-flight jobs are answered first: their workers already hold
        // them, and their clients deserve the replies they were promised
        // before the server hangs up (the deadline bounds a pathological
        // job, e.g. a reload of an enormous snapshot).
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        loop {
            let pending =
                self.conns.iter().flatten().any(|conn| matches!(conn.state, ConnState::AwaitJob));
            if !pending {
                break;
            }
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else { break };
            match self.done.recv_timeout(wait) {
                Ok(done) => self.apply_completion(done), // delivers + flushes
                Err(_) => break,
            }
        }
        // Final replies get the same delivery guarantee the old blocking
        // writers gave them: switch each socket back to blocking with the
        // write-stall budget and push the remaining bytes synchronously,
        // instead of dropping whatever one nonblocking pass left behind.
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if conn.has_output()
                    && conn.stream.set_nonblocking(false).is_ok()
                    && conn.stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok()
                {
                    let _ = (&conn.stream).write_all(&conn.outbuf[conn.out_start..]);
                }
            }
            if self.conns[slot].is_some() {
                self.release(slot);
            }
        }
    }

    /// Frees a slot and its live-connection count.
    fn release(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.shared.metrics.live_connections.dec();
            self.free.push(slot);
        }
    }
}

/// Renders one `METRICS` reply body: the Prometheus exposition, or (with
/// `recent`) the trace ring — the slow-query log plus reload events — as one
/// JSON document. Both end in a newline so the sized text reply stays
/// line-friendly.
fn metrics_payload(shared: &Shared, recent: bool) -> String {
    if recent {
        let mut json = shared.metrics.registry.tracer().dump_json();
        json.push('\n');
        json
    } else {
        shared.render_metrics()
    }
}

/// Validates a query's endpoints against one pinned snapshot.
fn check_range(index: &FlatIndex, s: VertexId, t: VertexId) -> Result<(), String> {
    let n = index.num_vertices();
    for v in [s, t] {
        if v as usize >= n {
            return Err(format!("vertex {v} out of range (index covers 0..{n})"));
        }
    }
    Ok(())
}

/// Empties the wake pipe so the next worker wake is observable.
fn drain_wake(wake_rx: &TcpStream) {
    let mut sink = [0u8; 64];
    while let Ok(n) = (&*wake_rx).read(&mut sink) {
        if n == 0 || n < sink.len() {
            return;
        }
    }
}
