//! The event-loop reactor: readiness-driven connection multiplexing on one
//! thread, so concurrent connections scale past thread count and an idle
//! server sleeps in `poll(2)` instead of busy-polling `accept`.
//!
//! ## One core, two services
//!
//! The reactor is generic over a [`Service`] — what a request *means* — and
//! owns everything about how requests arrive and leave. It is monomorphized
//! for its two services:
//!
//! * the **backend** ([`crate::server::Server`]): the swappable snapshot
//!   slot, the epoch-tagged result cache, `BATCH` splitting across idle
//!   workers, and `RELOAD`;
//! * the **router** ([`crate::router::Router`]): the boundary overlay, the
//!   result and potential caches, and the replica circuit breakers.
//!
//! Accept and poll, the first-byte protocol sniff, text and binary framing
//! with their [`MAX_LINE`] / [`binary::MAX_FRAME`] limits, `BATCH` body
//! assembly, output backpressure, the write-stall deadline, admission
//! control and shedding, the per-verb counters and phase histograms,
//! `STATS`/`METRICS`, and the `SHUTDOWN` drain therefore exist once, and the
//! two servers cannot drift apart on any of them.
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
//! * **execute** — the service answers each request either inline as a
//!   [`Reply`] (index probes, cache hits, `STATS`) or as a job for the
//!   bounded worker pool ([`Answer::Offload`]), so a large or blocking job
//!   never stalls the loop. Each pool worker owns the service's per-worker
//!   state ([`Service::Worker`]) for its lifetime. The pool is the server's
//!   only level of parallelism: nothing is spawned per request. It grows
//!   from [`Core::workers`] toward [`Core::max_workers`] while a job finds
//!   every worker taken: the backend's is fixed (CPU-bound jobs), the
//!   router's grows to one per request in flight (jobs blocked on backends);
//! * **write** — replies accumulate in an output buffer flushed as the
//!   socket accepts them, with a stall deadline replacing a blocking write
//!   timeout.
//!
//! A connection with a job in flight pauses parsing (replies stay in request
//! order). Idle workers sleep on one condvar queue, so a job wakes exactly
//! one of them; completions come back on a shared list, and the worker that
//! makes it non-empty wakes the reactor out of `poll` by writing one byte to
//! a socket pair (the self-pipe trick, kept std-only).
//!
//! ## The `poll(2)` wrapper
//!
//! [`sys`] is the one place the workspace touches FFI: a `#[repr(C)]`
//! `pollfd` with a direct `extern "C"` declaration of `poll(2)`, plus the
//! socket calls behind [`Endpoint::bind`] (`SO_REUSEADDR` must be set
//! before `bind`, which std's `TcpListener` cannot express — and without it
//! a restarted backend cannot re-acquire its port for a TIME_WAIT minute).
//! No new dependencies. Everything above it is safe Rust; non-Unix builds
//! fall back to a short-sleep readiness stub that keeps the same
//! level-triggered semantics against nonblocking sockets, and non-Linux
//! builds to a plain bind.

use crate::binary::{self, BinRequest};
use crate::cache::ResultCache;
use crate::metrics::{
    ServerMetrics, PHASE_PARSE, PHASE_WRITE, PROTO_BINARY, PROTO_TEXT, VERB_BATCH, VERB_LABELS,
    VERB_METRICS, VERB_QUERY, VERB_RELOAD, VERB_SHUTDOWN, VERB_STATS, VERB_WITHIN,
};
use crate::protocol::{self, Reply, Request};
use crate::server::ServerSnapshot;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wcsd_graph::{Distance, Quality, VertexId};
use wcsd_obs::Gauge;

/// One `(s, t, w)` point query.
pub(crate) type Query = (VertexId, VertexId, Quality);

/// Upper bound on how long one connection's pending output may sit without
/// the socket accepting a single byte. A client that stops reading its
/// replies (so the kernel send buffer fills) gets its connection dropped
/// after this long instead of pinning server memory forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest text request line accepted. Every legal request fits in a few
/// dozen bytes; this bounds the memory a client streaming newline-free bytes
/// can pin (the line-size analogue of [`protocol::MAX_BATCH`]).
pub(crate) const MAX_LINE: usize = 64 * 1024;

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

/// What every service shares with the reactor and the pool: the metric
/// surface, the result cache behind `STATS`, the shutdown flag, and the
/// pool's bounds.
pub(crate) struct Core {
    /// All counters/gauges/histograms. `STATS` reads the same atomics
    /// `METRICS` renders, so the two views cannot disagree on totals.
    pub(crate) metrics: ServerMetrics,
    /// The service's `(epoch, s, t, w)` result cache.
    pub(crate) cache: ResultCache,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Pool workers started with the reactor.
    pub(crate) workers: usize,
    /// Most pool workers: the pool grows toward it whenever a job arrives
    /// with every worker taken, and never shrinks.
    pub(crate) max_workers: usize,
    /// Pool workers started so far.
    pool_size: Arc<Gauge>,
    /// Admission cap on jobs queued or executing; past it offloaded work is
    /// shed with [`Reply::Busy`].
    pub(crate) max_pending_jobs: usize,
}

impl Core {
    /// Assembles the shared state and publishes its configured bounds; the
    /// registry renders the cache's own live counters, one set of atomics
    /// behind both `STATS` and `METRICS`.
    pub(crate) fn new(
        metrics: ServerMetrics,
        cache: ResultCache,
        cache_capacity: usize,
        workers: usize,
        max_workers: usize,
        max_pending_jobs: usize,
    ) -> Self {
        let registry = &metrics.registry;
        registry
            .gauge("wcsd_pending_jobs_limit", "Configured pending-job admission cap")
            .set(max_pending_jobs as i64);
        let pool_size = registry.gauge("wcsd_worker_pool_size", "Worker pool threads started");
        registry
            .gauge("wcsd_cache_capacity", "Configured result cache capacity in entries")
            .set(cache_capacity as i64);
        registry.register_counter(
            "wcsd_cache_hits_total",
            &[],
            "Result-cache hits",
            cache.hit_counter(),
        );
        registry.register_counter(
            "wcsd_cache_misses_total",
            &[],
            "Result-cache misses",
            cache.miss_counter(),
        );
        Self {
            metrics,
            cache,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            workers,
            max_workers: max_workers.max(workers),
            pool_size,
            max_pending_jobs,
        }
    }

    /// Publishes what is served: the generation and index-size gauges.
    pub(crate) fn publish(&self, generation: u64, vertices: usize, entries: usize) {
        self.metrics.generation.set(generation as i64);
        self.metrics.index_vertices.set(vertices as i64);
        self.metrics.index_entries.set(entries as i64);
    }

    /// Point-in-time counter snapshot behind `STATS`, one read per atomic:
    /// what is served comes from the gauges [`Self::publish`] sets (on the
    /// reactor thread, like every `STATS`), and the hit rate from this
    /// snapshot's own hit/miss values.
    pub(crate) fn snapshot(&self) -> ServerSnapshot {
        let m = &self.metrics;
        let gauge = |g: &Gauge| g.get().max(0) as u64;
        ServerSnapshot {
            vertices: gauge(&m.index_vertices) as usize,
            entries: gauge(&m.index_entries) as usize,
            generation: gauge(&m.generation),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections: m.connections.get(),
            live_connections: gauge(&m.live_connections),
            text_connections: m.proto_connections[PROTO_TEXT].get(),
            binary_connections: m.proto_connections[PROTO_BINARY].get(),
            reloads: m.reloads.get(),
            queries: m.queries.get(),
            batches: m.batches.get(),
            batch_queries: m.batch_queries.get(),
            shed: m.shed[PROTO_TEXT].get() + m.shed[PROTO_BINARY].get(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }

    /// Renders the full Prometheus exposition, refreshing the uptime gauge
    /// first. Called on the reactor thread only, which is what makes the
    /// counter/histogram reconciliation exact (see [`crate::metrics`]).
    pub(crate) fn render_metrics(&self) -> String {
        self.metrics.uptime_ms.set(self.started.elapsed().as_millis() as i64);
        self.metrics.registry.render()
    }
}

/// What a service makes of one request.
pub(crate) enum Answer<J> {
    /// Answered on the reactor thread.
    Reply(Reply),
    /// Runs on the pool as one job.
    Offload(J),
    /// Runs on the pool as several jobs at once; the connection waits for
    /// the one whose [`Service::run`] returns the outcome.
    Split(Vec<J>),
}

/// What requests mean: the part of a server the reactor does not own. The
/// reactor is monomorphized per implementation (no `dyn`); `STATS`,
/// `METRICS`, `SHUTDOWN` and the empty `BATCH` are answered by the reactor
/// itself.
pub(crate) trait Service: Sync {
    /// One unit of pool work.
    type Job: Send;
    /// What a finished job hands back to the reactor thread.
    type Outcome: Send;
    /// State each pool worker owns for its whole life.
    type Worker;

    /// The shared counters, cache, and pool bounds.
    fn core(&self) -> &Core;
    /// `QUERY s t w`.
    fn query(&self, s: VertexId, t: VertexId, w: Quality) -> Answer<Self::Job>;
    /// `WITHIN s t w d`.
    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> Answer<Self::Job>;
    /// A non-empty `BATCH`; `idle` pool workers have nothing to do.
    fn batch(&self, queries: Vec<Query>, idle: usize) -> Answer<Self::Job>;
    /// `RELOAD <path>`.
    fn reload(&self, path: String) -> Answer<Self::Job>;
    /// Builds one pool worker's state, on that worker's thread.
    fn worker(&self) -> Self::Worker;
    /// Runs a job on a pool worker that picked it up at `picked` (set when
    /// timing is on). Returns the outcome and when the request started
    /// running — or `None` from every part of an [`Answer::Split`] but the
    /// last to finish.
    fn run(
        &self,
        worker: &mut Self::Worker,
        job: Self::Job,
        picked: Option<Instant>,
    ) -> Option<(Self::Outcome, Option<Instant>)>;
    /// Turns a finished job into its reply, on the reactor thread.
    fn complete(&self, outcome: Self::Outcome) -> Reply;

    /// The `METRICS` exposition.
    fn render_metrics(&self) -> String {
        self.core().render_metrics()
    }
}

/// Where an offloaded request's reply goes and how it is accounted. Every
/// job carries the connection slot and generation that requested it, so a
/// completion for a connection that died (and whose slot was reused) is
/// recognised and dropped.
#[derive(Clone, Copy)]
struct Head {
    conn: usize,
    gen: u64,
    proto: usize,
    verb: usize,
    /// Queries the request carries (1 for a point verb).
    size: usize,
    /// Pool jobs the request runs as.
    parts: usize,
    /// Submission time when timing is enabled.
    submitted: Option<Instant>,
}

impl Head {
    /// How the request ran, for the slow-query log.
    fn describe(&self) -> String {
        let verb = VERB_LABELS[self.verb].to_uppercase();
        match self.parts {
            1 => format!("{verb} {} inline", self.size),
            parts => format!("{verb} {} split into {parts} parts", self.size),
        }
    }
}

/// One job of an offloaded request on its way to a worker.
struct Ticket<J> {
    head: Head,
    job: J,
}

/// A finished request on its way back to the reactor.
struct Done<O> {
    head: Head,
    /// `(queue_us, run_us)` measured on the workers, present when timing is
    /// enabled. The reactor records them into the phase histograms at
    /// completion, keeping every histogram mutation on the reactor thread.
    timing: Option<(u64, u64)>,
    outcome: O,
}

/// Finished jobs on their way back to the reactor, plus the write end of
/// the self-pipe that wakes it out of `poll`: one byte whenever the list
/// goes from empty to non-empty, so a burst of completions costs one wake.
struct Completions<O> {
    list: Mutex<Vec<Done<O>>>,
    wake: WakeStream,
}

impl<O> Completions<O> {
    fn push(&self, done: Done<O>) {
        let mut list = self.list.lock().expect("completion list poisoned");
        list.push(done);
        if list.len() == 1 {
            // A full pipe means a wake is already pending: ignorable.
            let _ = (&self.wake).write(&[1]);
        }
    }

    /// Swaps every pending completion into `into`, which must be empty.
    fn take(&self, into: &mut Vec<Done<O>>) {
        std::mem::swap(&mut *self.list.lock().expect("completion list poisoned"), into);
    }
}

/// The pool's job queue. Idle workers sleep on the condvar, so a submitted
/// job wakes exactly one of them.
struct JobQueue<T> {
    /// Queued jobs, and whether the reactor is gone.
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> JobQueue<T> {
    fn push(&self, job: T) {
        self.state.lock().expect("job queue poisoned").0.push_back(job);
        self.ready.notify_one();
    }

    /// Drops every queued job and lets the workers finish once their
    /// running jobs have: nobody reads a completion after the reactor is
    /// gone.
    fn close(&self) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.0.clear();
        state.1 = true;
        drop(state);
        self.ready.notify_all();
    }

    /// The next job, or `None` once the queue is closed.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("job queue poisoned");
        }
    }
}

/// The wake pipe's stream: a Unix socket pair where there is one (std has
/// no `pipe(2)`), a loopback TCP pair elsewhere.
#[cfg(unix)]
type WakeStream = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakeStream = TcpStream;

/// Builds the self-pipe the workers use to wake the reactor, both ends
/// nonblocking.
fn wake_pair() -> std::io::Result<(WakeStream, WakeStream)> {
    #[cfg(unix)]
    let (rx, tx) = WakeStream::pair()?;
    #[cfg(not(unix))]
    let (rx, tx) = {
        let gate = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let tx = TcpStream::connect(gate.local_addr()?)?;
        // The ephemeral gate port is globally connectable for an instant;
        // only accept our own connect socket, not a stranger racing us.
        let ours = tx.local_addr()?;
        let rx = loop {
            let (candidate, peer) = gate.accept()?;
            if peer == ours {
                break candidate;
            }
        };
        tx.set_nodelay(true).ok();
        (rx, tx)
    };
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// A bound listener plus the wake pipe its reactor will poll: everything
/// [`serve`] needs besides the service.
pub(crate) struct Endpoint {
    listener: TcpListener,
    local_addr: SocketAddr,
    wake_rx: WakeStream,
    wake_tx: WakeStream,
}

impl Endpoint {
    /// Binds `127.0.0.1:port` for listening with `SO_REUSEADDR` set (on
    /// Linux; a plain bind elsewhere), so a restarted server can re-acquire
    /// its port while connections from its previous life are still in
    /// TIME_WAIT — the self-healing story depends on a killed backend coming
    /// back on the same address. `port` 0 picks an ephemeral port.
    pub(crate) fn bind(port: u16) -> std::io::Result<Self> {
        let listener = sys::listen_reuseaddr(port)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = wake_pair()?;
        Ok(Self { listener, local_addr, wake_rx, wake_tx })
    }

    /// The address the listener is bound to.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

/// Serves `endpoint` until a `SHUTDOWN`: runs the reactor on the calling
/// thread, which starts the worker pool, and returns once the pool's running
/// jobs have finished.
pub(crate) fn serve<S: Service>(service: &S, endpoint: Endpoint) {
    let Endpoint { listener, wake_rx, wake_tx, .. } = endpoint;
    let jobs = JobQueue { state: Mutex::new((VecDeque::new(), false)), ready: Condvar::new() };
    let done = Completions { list: Mutex::new(Vec::new()), wake: wake_tx };
    std::thread::scope(|scope| {
        let spawn = || {
            scope.spawn(|| worker(service, &jobs, &done));
        };
        // Dropping the reactor, however `run` ends, closes the queue; the
        // workers finish their running jobs and the scope joins them.
        Reactor::new(service, listener, wake_rx, &jobs, &done, spawn).run();
    });
}

/// Body of one pool worker: pull jobs until the reactor is gone, run each,
/// hand the outcome back.
fn worker<S: Service>(
    service: &S,
    jobs: &JobQueue<Ticket<S::Job>>,
    done: &Completions<S::Outcome>,
) {
    let mut state = service.worker();
    let busy = &service.core().metrics.workers_busy;
    while let Some(Ticket { head, job }) = jobs.pop() {
        busy.inc();
        let picked = head.submitted.map(|_| Instant::now());
        let finished = service.run(&mut state, job, picked);
        busy.dec();
        // Only the last part of a split job has a completion to send.
        let Some((outcome, started)) = finished else { continue };
        let timing = head.submitted.zip(started).map(|(sub, start)| {
            (dur_us(start.saturating_duration_since(sub)), dur_us(start.elapsed()))
        });
        done.push(Done { head, timing, outcome });
    }
}

/// Saturating microseconds of a duration.
pub(crate) fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Validates a query's endpoints against a vertex count — one wording for
/// every service, so the router and a direct backend reject identically.
pub(crate) fn check_range(n: usize, s: VertexId, t: VertexId) -> Result<(), String> {
    for v in [s, t] {
        if v as usize >= n {
            return Err(format!("vertex {v} out of range (index covers 0..{n})"));
        }
    }
    Ok(())
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
/// when a `SHUTDOWN` has been processed. `spawn` starts one pool worker.
struct Reactor<'a, S: Service, F: Fn()> {
    service: &'a S,
    core: &'a Core,
    listener: TcpListener,
    wake_rx: WakeStream,
    jobs: &'a JobQueue<Ticket<S::Job>>,
    done: &'a Completions<S::Outcome>,
    spawn: F,
    /// Pool workers started so far.
    workers: usize,
    /// Reused buffer the completions are swapped into.
    finished: Vec<Done<S::Outcome>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Requests submitted to the pool whose completions have not come back
    /// yet (queued + executing). Incremented at submission and decremented
    /// in `apply_completion` — both on the reactor thread, so the admission
    /// check in `admit_job` reads an exact count with no atomics. At
    /// [`Core::max_pending_jobs`], new offloaded work is shed with
    /// [`Reply::Busy`]. A split job counts once.
    pending_jobs: usize,
    /// Pool jobs submitted and not yet completed, counting every part of a
    /// split job: the workers they occupy. Kept on this thread like
    /// `pending_jobs`, so the idle-worker count a service splits by, and the
    /// pool's growth, are exact.
    pending_parts: usize,
}

impl<'a, S: Service, F: Fn()> Reactor<'a, S, F> {
    fn new(
        service: &'a S,
        listener: TcpListener,
        wake_rx: WakeStream,
        jobs: &'a JobQueue<Ticket<S::Job>>,
        done: &'a Completions<S::Outcome>,
        spawn: F,
    ) -> Self {
        let _ = listener.set_nonblocking(true);
        let mut reactor = Self {
            service,
            core: service.core(),
            listener,
            wake_rx,
            jobs,
            done,
            spawn,
            workers: 0,
            finished: Vec::new(),
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            pending_jobs: 0,
            pending_parts: 0,
        };
        reactor.grow_pool(reactor.core.workers);
        reactor
    }

    /// Starts pool workers until `want` run (or [`Core::max_workers`] do).
    fn grow_pool(&mut self, want: usize) {
        while self.workers < want.min(self.core.max_workers) {
            (self.spawn)();
            self.workers += 1;
            self.core.pool_size.set(self.workers as i64);
        }
    }

    /// The event loop. Exits once the shutdown flag is observed, after a
    /// bounded wait for in-flight worker jobs and a best-effort final flush
    /// of every connection's pending output.
    fn run(mut self) {
        let mut fds = Vec::new();
        let mut slots = Vec::new();
        loop {
            if self.core.shutdown.load(Ordering::SeqCst) {
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
                    self.service_conn(slot, revents);
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
                    self.core.metrics.connections.inc();
                    self.core.metrics.live_connections.inc();
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
        let mut finished = std::mem::take(&mut self.finished);
        self.done.take(&mut finished);
        for done in finished.drain(..) {
            self.apply_completion(done);
        }
        self.finished = finished;
    }

    /// Applies one worker completion. The service turns the outcome into a
    /// reply here, on the reactor thread (a backend installs a reloaded
    /// snapshot here, so swaps are serialized). Verb counters and phase
    /// samples for offloaded requests land here too — with the durations the
    /// worker measured plus this completion step — which is what keeps every
    /// `METRICS` payload self-consistent (see [`crate::metrics`]).
    fn apply_completion(&mut self, done: Done<S::Outcome>) {
        let Done { head, timing, outcome } = done;
        self.retire_job(head.parts);
        let core = self.core;
        let t0 = core.metrics.timer();
        let reply = self.service.complete(outcome);
        let completed_us = t0.map_or(0, |t0| dur_us(t0.elapsed()));
        self.account(head.proto, &reply);
        if head.parts > 1 && matches!(reply, Reply::Batch(_)) {
            core.metrics.batch_splits.inc();
        }
        let (queue_us, execute_us) = (timing.map(|t| t.0), timing.map(|t| t.1 + completed_us));
        core.metrics.finish(head.proto, head.verb, queue_us, execute_us, || head.describe());
        self.deliver(head.conn, head.gen, reply);
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
        self.service_conn(slot, 0);
    }

    /// Runs one connection through read → parse/execute → write.
    fn service_conn(&mut self, slot: usize, revents: i16) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        let mut alive = true;
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && conn.wants_read() {
            alive = read_into(&mut conn);
        }
        if alive {
            self.process(&mut conn, slot);
            // The write phase is sampled per flush *with pending bytes*, not
            // per request — pipelined replies share one flush.
            let t0 = conn.has_output().then(|| self.core.metrics.timer()).flatten();
            alive = conn.flush();
            self.core.metrics.phase(proto_idx(conn.mode), PHASE_WRITE, t0);
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
            self.core.metrics.live_connections.dec();
            self.free.push(slot);
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
        let core = self.core;
        let m = &core.metrics;
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
                        m.proto_connections[PROTO_BINARY].inc();
                        if version != binary::VERSION {
                            m.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(format!(
                                "unsupported binary protocol version {version} (expected {})",
                                binary::VERSION
                            )));
                            conn.close_after_flush = true;
                        }
                    } else {
                        conn.mode = Mode::Text;
                        m.proto_connections[PROTO_TEXT].inc();
                    }
                }
                Mode::Text => {
                    let newline = conn.input()[conn.scanned..].iter().position(|&b| b == b'\n');
                    let line_len = match newline {
                        None => {
                            conn.scanned = conn.input().len();
                            if conn.scanned > MAX_LINE {
                                overlong_line(m, conn);
                            }
                            return;
                        }
                        Some(at) => conn.scanned + at,
                    };
                    // The cap applies whether or not the newline has arrived
                    // yet: an over-long-but-terminated line must not smuggle
                    // an unbounded token into parsing or the ERR echo.
                    if line_len > MAX_LINE {
                        overlong_line(m, conn);
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
                    let t_parse = m.timer();
                    let req = binary::decode_request(&input[4..4 + len]);
                    m.phase(PROTO_BINARY, PHASE_PARSE, t_parse);
                    conn.consume(4 + len);
                    match req {
                        // Framing is still intact after a bad body, so a
                        // malformed frame poisons one request, not the
                        // connection.
                        Err(reason) => {
                            m.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(reason));
                        }
                        Ok(req) => self.dispatch(conn, slot, req),
                    }
                }
            }
        }
    }

    /// One complete text line: either a request or a `BATCH` body line.
    /// Requests are translated into the protocol-neutral [`BinRequest`]
    /// shape, so both wire modes share one dispatch.
    fn handle_text_line(&mut self, conn: &mut Conn, slot: usize, line: &str) {
        let core = self.core;
        let m = &core.metrics;
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
                        m.errors[PROTO_TEXT].inc();
                        conn.push_reply(&Reply::Err(reason));
                    }
                    None => self.dispatch(conn, slot, BinRequest::Batch { queries }),
                }
            } else {
                conn.state = ConnState::TextBatch { expect, seen, queries, invalid };
            }
            return;
        }
        if line.trim().is_empty() {
            return; // blank keep-alive lines are not an error
        }
        let t_parse = m.timer();
        let parsed = protocol::parse_request(line);
        m.phase(PROTO_TEXT, PHASE_PARSE, t_parse);
        let req = match parsed {
            Err(reason) => {
                m.errors[PROTO_TEXT].inc();
                conn.push_reply(&Reply::Err(reason));
                return;
            }
            Ok(Request::Batch { n }) if n > 0 => {
                // Verb counted when the body completes.
                conn.state = ConnState::TextBatch {
                    expect: n,
                    seen: 0,
                    queries: Vec::with_capacity(n.min(4096)),
                    invalid: None,
                };
                return;
            }
            Ok(Request::Batch { .. }) => BinRequest::Batch { queries: Vec::new() },
            Ok(Request::Query { s, t, w }) => BinRequest::Query { s, t, w },
            Ok(Request::Within { s, t, w, d }) => BinRequest::Within { s, t, w, d },
            Ok(Request::Stats) => BinRequest::Stats,
            Ok(Request::Metrics { recent }) => BinRequest::Metrics { recent },
            Ok(Request::Reload { path }) => BinRequest::Reload { path },
            Ok(Request::Shutdown) => BinRequest::Shutdown,
        };
        self.dispatch(conn, slot, req);
    }

    /// One parsed request, from either wire mode.
    fn dispatch(&mut self, conn: &mut Conn, slot: usize, req: BinRequest) {
        let (service, core) = (self.service, self.core);
        let proto = proto_idx(conn.mode);
        let t0 = core.metrics.timer();
        match req {
            BinRequest::Query { s, t, w } => {
                let answer = service.query(s, t, w);
                let req = (proto, VERB_QUERY, 1, t0);
                self.answer(conn, slot, req, answer, || format!("QUERY {s} {t} {w}"));
            }
            BinRequest::Within { s, t, w, d } => {
                let answer = service.within(s, t, w, d);
                let req = (proto, VERB_WITHIN, 1, t0);
                self.answer(conn, slot, req, answer, || format!("WITHIN {s} {t} {w} {d}"));
            }
            BinRequest::Batch { queries } => {
                let n = queries.len();
                let answer = if n == 0 {
                    Answer::Reply(Reply::Batch(Vec::new()))
                } else {
                    service.batch(queries, self.workers.saturating_sub(self.pending_parts))
                };
                self.answer(conn, slot, (proto, VERB_BATCH, n, t0), answer, || {
                    format!("BATCH {n}")
                });
            }
            BinRequest::Reload { path } => {
                let answer = service.reload(path);
                self.answer(conn, slot, (proto, VERB_RELOAD, 1, t0), answer, || "RELOAD".into());
            }
            BinRequest::Stats => {
                let answer = Answer::Reply(Reply::Stats(core.snapshot().encode()));
                self.answer(conn, slot, (proto, VERB_STATS, 1, t0), answer, || "STATS".into());
            }
            BinRequest::Metrics { recent } => {
                // Rendered *before* the request is counted: the in-flight
                // METRICS request is absent from both its own counter and its
                // own histogram, so the payload stays internally consistent.
                let payload = if recent {
                    let mut json = core.metrics.registry.tracer().dump_json();
                    json.push('\n');
                    json
                } else {
                    service.render_metrics()
                };
                let answer = Answer::Reply(Reply::Metrics(payload));
                self.answer(conn, slot, (proto, VERB_METRICS, 1, t0), answer, || "METRICS".into());
            }
            BinRequest::Shutdown => {
                // Acknowledge, close this connection once the ack flushes,
                // and stop the loop on the next iteration.
                let answer = Answer::Reply(Reply::Bye);
                self.answer(conn, slot, (proto, VERB_SHUTDOWN, 1, t0), answer, || {
                    "SHUTDOWN".into()
                });
                conn.close_after_flush = true;
                core.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Delivers an inline answer (counted at once) or submits an offloaded
    /// one. `req` is `(proto, verb, size, started)`; `detail` is rendered
    /// only for a slow-query event.
    fn answer(
        &mut self,
        conn: &mut Conn,
        slot: usize,
        req: (usize, usize, usize, Option<Instant>),
        answer: Answer<S::Job>,
        detail: impl FnOnce() -> String,
    ) {
        let (proto, verb, size, started) = req;
        let gen = conn.gen;
        let head = |parts| Head { conn: slot, gen, proto, verb, size, parts, submitted: started };
        match answer {
            Answer::Reply(reply) => {
                self.account(proto, &reply);
                let execute_us = started.map(|t0| dur_us(t0.elapsed()));
                self.core.metrics.finish(proto, verb, None, execute_us, detail);
                conn.push_reply(&reply);
            }
            Answer::Offload(job) => self.submit(conn, head(1), [job]),
            Answer::Split(jobs) => self.submit(conn, head(jobs.len()), jobs),
        }
    }

    /// Counts what one reply answered: an error, a point request, or a batch.
    fn account(&self, proto: usize, reply: &Reply) {
        let m = &self.core.metrics;
        match reply {
            Reply::Err(_) => m.errors[proto].inc(),
            Reply::Dist(_) | Reply::Bool(_) => m.queries.inc(),
            Reply::Batch(answers) => {
                m.batches.inc();
                m.batch_queries.add(answers.len() as u64);
            }
            _ => {}
        }
    }

    /// Ships an offloaded request to the pool as its `head.parts` jobs,
    /// after admission control, first growing the pool so that every
    /// pending job has a worker.
    fn submit(&mut self, conn: &mut Conn, head: Head, jobs: impl IntoIterator<Item = S::Job>) {
        if !self.admit_job(conn, head.proto, head.parts) {
            return;
        }
        self.grow_pool(self.pending_parts);
        conn.state = ConnState::AwaitJob;
        for job in jobs {
            self.jobs.push(Ticket { head, job });
        }
    }

    /// Admission control for offloaded work: either reserves a pending-job
    /// slot for a request running as `parts` pool jobs (returns `true`) or
    /// sheds the request with [`Reply::Busy`]. The count is exact — mutated
    /// only on this thread — so the pending queue is bounded by
    /// construction, not by sampling.
    fn admit_job(&mut self, conn: &mut Conn, proto: usize, parts: usize) -> bool {
        let core = self.core;
        let m = &core.metrics;
        if self.pending_jobs >= self.core.max_pending_jobs {
            // Shed without executing: the error counter moves (like a parse
            // failure, the verb never ran) plus the dedicated shed counter,
            // so overload is distinguishable from malformed traffic.
            m.shed[proto].inc();
            m.errors[proto].inc();
            conn.push_reply(&Reply::Busy);
            return false;
        }
        self.pending_jobs += 1;
        self.pending_parts += parts;
        m.pending_jobs.set(self.pending_jobs as i64);
        true
    }

    /// Releases one pending-job slot and its `parts` pool jobs (completion
    /// arrived, or submission failed after the reservation).
    fn retire_job(&mut self, parts: usize) {
        self.pending_jobs = self.pending_jobs.saturating_sub(1);
        self.pending_parts = self.pending_parts.saturating_sub(parts);
        self.core.metrics.pending_jobs.set(self.pending_jobs as i64);
    }

    /// Closes connections whose pending output made no progress for
    /// [`WRITE_TIMEOUT`] — the nonblocking analogue of a blocking write
    /// timeout.
    fn reap_stalled(&mut self) {
        for slot in 0..self.conns.len() {
            let stalled = |conn: &Conn| {
                conn.has_output() && conn.stalled_since.is_some_and(|t| t.elapsed() > WRITE_TIMEOUT)
            };
            if self.conns[slot].as_ref().is_some_and(stalled) {
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
            let _ = sys::poll_fds(&mut [sys::entry(&self.wake_rx, sys::POLLIN)], wait);
            drain_wake(&self.wake_rx);
            self.drain_completions(); // delivers + flushes
        }
        // Final replies get the delivery guarantee a blocking writer would
        // give them: switch each socket back to blocking with the
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
            self.core.metrics.live_connections.dec();
            self.free.push(slot);
        }
    }
}

impl<S: Service, F: Fn()> Drop for Reactor<'_, S, F> {
    fn drop(&mut self) {
        self.jobs.close();
    }
}

/// Drains the socket into the input buffer (up to the fairness budget).
/// Returns `false` when the connection is finished.
fn read_into(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut total = 0;
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF — but bytes read before it may hold complete requests
                // (a client may write + half-close + await its replies), so
                // parsing and flushing still happen; the caller closes once
                // everything owed has been delivered.
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

/// Rejects a text line longer than [`MAX_LINE`] and drops the connection:
/// the rest of the line is unread (or deliberately unparsed), so framing is
/// lost either way.
fn overlong_line(m: &ServerMetrics, conn: &mut Conn) {
    m.errors[PROTO_TEXT].inc();
    conn.push_reply(&Reply::Err(format!("request line exceeds {MAX_LINE} bytes")));
    conn.close_after_flush = true;
}

/// Empties the wake pipe so the next worker wake is observable.
fn drain_wake(wake_rx: &WakeStream) {
    let mut sink = [0u8; 64];
    while let Ok(n) = (&*wake_rx).read(&mut sink) {
        if n == 0 || n < sink.len() {
            return;
        }
    }
}
