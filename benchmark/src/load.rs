//! The load generators: closed-loop read lanes and the open-loop update feed.
//!
//! Read traffic is a closed loop with a fixed number of requests in flight.
//! Batch lanes block in the product's own binary `Client::batch`; the point
//! lane keeps a fixed number of text `QUERY` lines in flight on each of its
//! raw connections from one thread. (A one-request-at-a-time point client
//! was bimodal between process launches while this benchmark was sized; see
//! the README.) The update feed is an open loop on a fixed period whose
//! cycles are timed from when they were due.
//!
//! Lanes only record during the run; answers are checked after it
//! ([`crate::check`]).

use crate::gen::{Query, UniformQueries, ZipfKeys};
use crate::trace::Recorder;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::FlatIndex;
use wcsd_graph::{Graph, Quality};
use wcsd_server::{write_snapshot_atomic, Client, Protocol};

/// Slices the measured phase is cut into; `query_qps` is their median.
pub const SLICES: usize = 20;

/// Answer slot of a request that failed (error or refusal).
pub const FAILED: u32 = u32::MAX - 1;
/// Answer slot of an unreachable pair (`INF`).
pub const UNREACHABLE: u32 = u32::MAX;

/// The timeline all threads of a run share. Times are nanoseconds since
/// `epoch`, which is the start of the warm-up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub epoch: Instant,
    pub measure_start_ns: u64,
    pub end_ns: u64,
    /// Traced run: odd slices record spans, even slices do not, so the two
    /// halves see the same drift and their ratio is the tracing overhead.
    pub traced: bool,
}

impl Plan {
    pub fn new(warmup: Duration, measure: Duration, traced: bool) -> Self {
        let measure_start_ns = warmup.as_nanos() as u64;
        Self {
            epoch: Instant::now(),
            measure_start_ns,
            end_ns: measure_start_ns + measure.as_nanos() as u64,
            traced,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn slice_ns(&self) -> u64 {
        (self.end_ns - self.measure_start_ns) / SLICES as u64
    }

    /// The slice a moment of the measured phase falls in.
    pub fn slice_of(&self, t_ns: u64) -> Option<usize> {
        if t_ns < self.measure_start_ns || t_ns >= self.end_ns {
            return None;
        }
        Some((((t_ns - self.measure_start_ns) / self.slice_ns()) as usize).min(SLICES - 1))
    }

    fn spans_on(&self, t_ns: u64) -> bool {
        self.traced && self.slice_of(t_ns).is_some_and(|s| s % 2 == 1)
    }

    pub fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// One request of the measured phase: `len` queries starting at `first` in
/// the lane's query log.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub first: u32,
    pub len: u32,
    pub sent_ns: u64,
    pub recv_ns: u64,
}

/// Everything one read lane recorded.
pub struct LaneLog {
    pub queries: Vec<Query>,
    /// Parallel to `queries`: the served distance, [`UNREACHABLE`] or [`FAILED`].
    pub answers: Vec<u32>,
    pub requests: Vec<Request>,
    /// Queries answered (not failed) per slice, by reply time.
    pub slice_answered: [u64; SLICES],
    pub errors: u64,
    pub refused: u64,
    pub first_error: Option<String>,
}

impl LaneLog {
    fn new() -> Self {
        Self {
            queries: Vec::new(),
            answers: Vec::new(),
            requests: Vec::new(),
            slice_answered: [0; SLICES],
            errors: 0,
            refused: 0,
            first_error: None,
        }
    }

    fn note_failure(&mut self, reason: &str) {
        if reason.contains("busy") {
            self.refused += 1;
        } else {
            self.errors += 1;
        }
        self.first_error.get_or_insert_with(|| reason.to_string());
    }
}

/// A lane gives up after this many failures in a row: the connection is
/// gone, and spinning on it would only fill the log.
const MAX_CONSECUTIVE_FAILURES: u32 = 8;

/// A batch lane: one blocking binary client sending `BATCH` requests of
/// `size` uniform queries back to back.
pub fn batch_lane(
    addr: SocketAddr,
    mut queries: UniformQueries,
    size: usize,
    plan: Plan,
    thread: &str,
) -> Result<(LaneLog, Recorder), String> {
    let mut client = Client::connect_with(addr, Protocol::Binary)
        .map_err(|e| format!("{thread}: cannot connect to {addr}: {e}"))?;
    let mut log = LaneLog::new();
    let mut recorder = Recorder::new(thread, plan.epoch, false);
    let mut batch: Vec<Query> = Vec::with_capacity(size);
    let mut consecutive_failures = 0;
    let mut turn = 0u64;
    loop {
        let now = plan.now_ns();
        if now >= plan.end_ns {
            break;
        }
        recorder.set_enabled(plan.spans_on(now));
        recorder.enter("loadgen.turn", turn);
        recorder.span("loadgen.generate", turn, || {
            batch.clear();
            batch.extend((0..size).map(|_| queries.next_query()));
        });
        let sent_ns = plan.now_ns();
        let reply = recorder.span("client.exchange", turn, || client.batch(&batch));
        let recv_ns = plan.now_ns();
        recorder.exit();
        turn += 1;
        if sent_ns < plan.measure_start_ns {
            if let Err(reason) = reply {
                return Err(format!("{thread}: request failed during warm-up: {reason}"));
            }
            continue;
        }
        let first = log.queries.len() as u32;
        log.queries.extend_from_slice(&batch);
        match reply {
            Ok(answers) => {
                consecutive_failures = 0;
                log.answers.extend(answers.iter().map(|a| a.unwrap_or(UNREACHABLE)));
                if let Some(slice) = plan.slice_of(recv_ns) {
                    log.slice_answered[slice] += size as u64;
                }
            }
            Err(reason) => {
                log.answers.extend(std::iter::repeat(FAILED).take(size));
                log.note_failure(&reason);
                consecutive_failures += 1;
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                    break;
                }
            }
        }
        log.requests.push(Request { first, len: size as u32, sent_ns, recv_ns });
    }
    recorder.set_enabled(false);
    Ok((log, recorder))
}

/// One raw text connection of the point lane.
struct Pipe {
    stream: TcpStream,
    /// Bytes received and not yet parsed into whole lines.
    pending: Vec<u8>,
    /// Requests in flight, oldest first: the request's index in the lane log
    /// when it belongs to the measured phase.
    in_flight: VecDeque<Option<u32>>,
}

/// Appends `QUERY s t w\n`.
pub fn format_query(out: &mut Vec<u8>, (s, t, w): Query) {
    writeln!(out, "QUERY {s} {t} {w}").expect("write to a Vec");
}

/// Parses one reply line (without its newline) of the text protocol.
pub fn parse_reply(line: &[u8]) -> Result<u32, String> {
    if line == b"INF" {
        return Ok(UNREACHABLE);
    }
    if let Some(digits) = line.strip_prefix(b"DIST ") {
        if !digits.is_empty() && digits.len() <= 9 && digits.iter().all(u8::is_ascii_digit) {
            return Ok(digits.iter().fold(0u32, |d, &b| d * 10 + u32::from(b - b'0')));
        }
    }
    Err(String::from_utf8_lossy(line).into_owned())
}

/// How long the point lane spins without a single reply before it gives up.
const POINT_STALL: Duration = Duration::from_secs(30);

/// The point lane: one thread keeping `depth` text `QUERY` lines in flight
/// on each of `connections` raw sockets. A turn polls the sockets without
/// blocking until one has replies, records them, and tops that socket back
/// up to `depth`.
///
/// The lane spins instead of sleeping in `read` on purpose. A generator that
/// sleeps is woken by the reactor's write, and the scheduler then tends to
/// place it on the reactor's core: the two take turns on one core while the
/// other idles, and the same build measured 200k or 590k queries/s depending
/// on where the threads happened to land. A generator that never sleeps
/// keeps its core, and the reactor keeps the other.
pub fn point_lane(
    addr: SocketAddr,
    mut keys: ZipfKeys,
    connections: usize,
    depth: usize,
    plan: Plan,
    thread: &str,
) -> Result<(LaneLog, Recorder), String> {
    let mut pipes = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = TcpStream::connect(addr)
            .map_err(|e| format!("{thread}: cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("{thread}: set_nodelay: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("{thread}: set_nonblocking: {e}"))?;
        pipes.push(Pipe { stream, pending: Vec::new(), in_flight: VecDeque::with_capacity(depth) });
    }
    let mut log = LaneLog::new();
    let mut recorder = Recorder::new(thread, plan.epoch, false);
    let mut out: Vec<u8> = Vec::with_capacity(depth * 32);
    let mut buf = vec![0u8; 64 * 1024];
    let mut turn = 0u64;
    // The first turn of each socket only sends.
    let mut ready: VecDeque<usize> = (0..connections).collect();
    loop {
        let now = plan.now_ns();
        let sending = now < plan.end_ns;
        if !sending && pipes.iter().all(|p| p.in_flight.is_empty()) {
            break;
        }
        recorder.set_enabled(plan.spans_on(now));
        recorder.enter("loadgen.turn", turn);
        let (at, received) = match ready.pop_front() {
            Some(at) => (at, 0),
            None => {
                recorder.span("client.wait", turn, || poll_pipes(&mut pipes, &mut buf, thread))?
            }
        };
        let pipe = &mut pipes[at];
        let recv_ns = plan.now_ns();
        pipe.pending.extend_from_slice(&buf[..received]);
        let mut start = 0;
        while let Some(nl) = pipe.pending[start..].iter().position(|&b| b == b'\n') {
            let line = &pipe.pending[start..start + nl];
            start += nl + 1;
            let slot = pipe
                .in_flight
                .pop_front()
                .ok_or_else(|| format!("{thread}: a reply nobody asked for"))?;
            let parsed = parse_reply(line);
            let Some(idx) = slot else {
                if let Err(reason) = parsed {
                    return Err(format!("{thread}: request failed in warm-up: {reason}"));
                }
                continue;
            };
            log.requests[idx as usize].recv_ns = recv_ns;
            match parsed {
                Ok(answer) => {
                    log.answers[idx as usize] = answer;
                    if let Some(slice) = plan.slice_of(recv_ns) {
                        log.slice_answered[slice] += 1;
                    }
                }
                Err(reason) => log.note_failure(&reason),
            }
        }
        pipe.pending.drain(..start);
        if sending && pipe.in_flight.len() < depth {
            let measured = now >= plan.measure_start_ns;
            let want = depth - pipe.in_flight.len();
            let first = log.queries.len();
            recorder.span("loadgen.generate", turn, || {
                out.clear();
                for _ in 0..want {
                    let q = keys.next_query();
                    format_query(&mut out, q);
                    if measured {
                        log.queries.push(q);
                    }
                }
            });
            let sent_ns = plan.now_ns();
            for k in 0..want {
                pipe.in_flight.push_back(measured.then(|| {
                    log.answers.push(FAILED);
                    log.requests.push(Request {
                        first: (first + k) as u32,
                        len: 1,
                        sent_ns,
                        recv_ns: sent_ns,
                    });
                    (first + k) as u32
                }));
            }
            recorder.span("client.send", turn, || send_all(&mut pipe.stream, &out, thread))?;
        }
        recorder.exit();
        turn += 1;
    }
    recorder.set_enabled(false);
    Ok((log, recorder))
}

/// Spins over the sockets that have requests in flight until one yields
/// bytes; returns which, and how many bytes are in `buf`.
fn poll_pipes(pipes: &mut [Pipe], buf: &mut [u8], thread: &str) -> Result<(usize, usize), String> {
    let started = Instant::now();
    loop {
        for (at, pipe) in pipes.iter_mut().enumerate() {
            if pipe.in_flight.is_empty() {
                continue;
            }
            match pipe.stream.read(buf) {
                Ok(0) => return Err(format!("{thread}: server closed the connection")),
                Ok(n) => return Ok((at, n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("{thread}: receive failed: {e}")),
            }
        }
        if started.elapsed() > POINT_STALL {
            return Err(format!("{thread}: no reply for {} s", POINT_STALL.as_secs()));
        }
        std::hint::spin_loop();
    }
}

/// `write_all` on a nonblocking socket: spins while the send buffer is full.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8], thread: &str) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(format!("{thread}: server closed the connection")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(format!("{thread}: send failed: {e}")),
        }
    }
    Ok(())
}

/// Snapshot files of one run, in a directory of its own that is removed when
/// the value drops. Only the last two generations stay on disk.
pub struct SnapshotDir {
    dir: PathBuf,
    written: VecDeque<PathBuf>,
}

impl SnapshotDir {
    pub fn create(dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self { dir, written: VecDeque::new() })
    }

    /// The path generation `number` of server `server` is written to.
    fn next_path(&mut self, server: usize, number: u64) -> PathBuf {
        let path = self.dir.join(format!("server{server}-gen-{number:06}.wcif"));
        self.written.push_back(path.clone());
        path
    }

    pub fn prune(&mut self, keep: usize) {
        while self.written.len() > keep {
            if let Some(old) = self.written.pop_front() {
                let _ = std::fs::remove_file(old);
            }
        }
    }
}

impl Drop for SnapshotDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How long each step of one publication took.
#[derive(Debug, Clone, Copy, Default)]
pub struct PublishTimes {
    pub encode_ns: u64,
    pub write_ns: u64,
    pub reload_ns: u64,
    pub bytes: usize,
    /// When `RELOAD` was sent and acknowledged, on the plan's clock.
    pub reload_sent_ns: u64,
    pub reload_acked_ns: u64,
}

/// Encodes `flat` and writes it crash-safely as generation `number` of
/// `server`, each step inside its span. Returns where it went.
pub fn write_generation(
    flat: &FlatIndex,
    snapshots: &mut SnapshotDir,
    server: usize,
    number: u64,
    recorder: &mut Recorder,
    request: u64,
) -> Result<(PathBuf, PublishTimes), String> {
    let (bytes, encode_ns) = recorder.timed("flat.encode", request, || flat.encode());
    let path = snapshots.next_path(server, number);
    let (written, write_ns) =
        recorder.timed("snapshot.write", request, || write_snapshot_atomic(&path, &bytes));
    written?;
    Ok((path, PublishTimes { encode_ns, write_ns, bytes: bytes.len(), ..PublishTimes::default() }))
}

/// Sends `RELOAD <path>` and waits for the acknowledgement, filling in the
/// reload part of `times`.
pub fn reload(
    admin: &mut Client,
    path: &Path,
    recorder: &mut Recorder,
    request: u64,
    clock: &Plan,
    times: &mut PublishTimes,
) -> Result<(), String> {
    let path = path.to_str().ok_or("snapshot path is not UTF-8")?;
    times.reload_sent_ns = clock.now_ns();
    recorder.span("client.reload", request, || admin.reload(path))?;
    times.reload_acked_ns = clock.now_ns();
    times.reload_ns = times.reload_acked_ns - times.reload_sent_ns;
    Ok(())
}

/// One generation the churn server may have answered from.
pub struct Generation {
    pub flat: Arc<FlatIndex>,
    pub graph: Graph,
    /// The generation was not live before its `RELOAD` was sent ...
    pub live_from_ns: u64,
    /// ... and the one before it was not live after it was acknowledged.
    pub acked_ns: u64,
    pub bytes: usize,
}

/// One cycle of the update feed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    pub due_ns: u64,
    pub started_ns: u64,
    pub insert_ns: u64,
    pub remove_ns: u64,
    pub freeze_ns: u64,
    pub publish: PublishTimes,
    pub affected_hubs: Option<usize>,
}

impl Cycle {
    /// Due time to `RELOAD` acknowledged.
    pub fn update_to_servable_ns(&self) -> u64 {
        self.publish.reload_acked_ns - self.due_ns
    }
}

pub struct FeederLog {
    pub generations: Vec<Generation>,
    pub cycles: Vec<Cycle>,
    pub rebuild_fallbacks: usize,
}

/// Period of the update feed.
pub const FEED_PERIOD: Duration = Duration::from_millis(400);

/// The update feed: every [`FEED_PERIOD`] apply two insertions and one
/// removal to the dynamic index, freeze it, and publish the snapshot. Cycle
/// `k` is due at `(k + 1) · period` whether or not the previous one is done.
/// Runs from the start of the warm-up so the measured phase sees a feed that
/// is already going; cycles due in the warm-up are not reported.
pub fn feeder(
    mut dynamic: DynamicWcIndex,
    levels: Quality,
    mut rng: crate::gen::SplitMix64,
    addr: SocketAddr,
    mut snapshots: SnapshotDir,
    plan: Plan,
) -> Result<(FeederLog, Recorder), String> {
    let mut admin = Client::connect_with(addr, Protocol::Binary)
        .map_err(|e| format!("feeder: cannot connect to {addr}: {e}"))?;
    // Spans of the feed are few (a handful per 400 ms), so they are always on.
    let mut recorder = Recorder::new("feeder", plan.epoch, true);
    let first = dynamic.freeze();
    let mut log = FeederLog {
        generations: vec![Generation {
            bytes: first.encode().len(),
            flat: first,
            graph: dynamic.graph().clone(),
            live_from_ns: 0,
            acked_ns: 0,
        }],
        cycles: Vec::new(),
        rebuild_fallbacks: 0,
    };
    let period_ns = FEED_PERIOD.as_nanos() as u64;
    let rebuilds_before = dynamic.rebuild_count();
    for k in 0u64.. {
        let due_ns = (k + 1) * period_ns;
        if due_ns >= plan.end_ns {
            break;
        }
        plan.sleep_until(due_ns);
        let mut cycle = Cycle { due_ns, started_ns: plan.now_ns(), ..Cycle::default() };
        recorder.enter("feeder.cycle", k);
        let n = dynamic.graph().num_vertices() as u64;
        for _ in 0..2 {
            // A pair that is not an edge yet, so the insertion does real work.
            let (a, b) = loop {
                let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
                if a != b && !dynamic.graph().has_edge(a, b) {
                    break (a, b);
                }
            };
            let q = 1 + rng.below(u64::from(levels)) as Quality;
            cycle.insert_ns +=
                recorder.timed("dynamic.insert", k, || dynamic.insert_edge(a, b, q)).1 / 2;
        }
        let victim = rng.below(dynamic.graph().num_edges() as u64) as usize;
        let edge = dynamic.graph().edges().nth(victim).expect("victim index below edge count");
        cycle.remove_ns =
            recorder.timed("dynamic.remove", k, || dynamic.remove_edge(edge.u, edge.v)).1;
        cycle.affected_hubs = dynamic.last_repair().map(|r| r.affected_hubs);
        let (flat, freeze_ns) = recorder.timed("dynamic.freeze", k, || dynamic.freeze());
        cycle.freeze_ns = freeze_ns;
        let (path, mut published) =
            write_generation(&flat, &mut snapshots, 0, k + 2, &mut recorder, k)?;
        reload(&mut admin, &path, &mut recorder, k, &plan, &mut published)?;
        cycle.publish = published;
        snapshots.prune(2);
        recorder.exit();
        log.generations.push(Generation {
            flat,
            graph: dynamic.graph().clone(),
            live_from_ns: cycle.publish.reload_sent_ns,
            acked_ns: cycle.publish.reload_acked_ns,
            bytes: cycle.publish.bytes,
        });
        if due_ns >= plan.measure_start_ns {
            log.cycles.push(cycle);
        }
    }
    log.rebuild_fallbacks = dynamic.rebuild_count() - rebuilds_before;
    Ok((log, recorder))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lines_parse() {
        assert_eq!(parse_reply(b"DIST 17"), Ok(17));
        assert_eq!(parse_reply(b"DIST 0"), Ok(0));
        assert_eq!(parse_reply(b"INF"), Ok(UNREACHABLE));
        assert!(parse_reply(b"ERR busy: pending job queue is full; retry later").is_err());
        assert!(parse_reply(b"DIST ").is_err());
        assert!(parse_reply(b"DIST 1x").is_err());
        assert!(parse_reply(b"DIST 99999999999").is_err());
    }

    #[test]
    fn query_lines_are_what_the_server_parses() {
        let mut out = Vec::new();
        format_query(&mut out, (3, 1999, 5));
        assert_eq!(out, b"QUERY 3 1999 5\n");
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        assert_eq!(
            wcsd_server::protocol::parse_request(line),
            Ok(wcsd_server::Request::Query { s: 3, t: 1999, w: 5 })
        );
    }

    #[test]
    fn plan_slices_cover_the_measured_phase() {
        let plan = Plan::new(Duration::from_secs(1), Duration::from_secs(10), true);
        assert_eq!(plan.slice_of(0), None);
        assert_eq!(plan.slice_of(999_999_999), None);
        assert_eq!(plan.slice_of(1_000_000_000), Some(0));
        assert_eq!(plan.slice_of(1_500_000_000), Some(1));
        assert_eq!(plan.slice_of(10_999_999_999), Some(SLICES - 1));
        assert_eq!(plan.slice_of(11_000_000_000), None);
        assert!(!plan.spans_on(1_000_000_000) && plan.spans_on(1_500_000_000));
        assert!(!plan.spans_on(500_000_000));
    }
}
