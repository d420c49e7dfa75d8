//! The query server: a long-lived service answering WCSD queries over TCP
//! from a loaded, immutable — but hot-swappable — [`FlatIndex`] snapshot.
//!
//! The served representation is the *flat* one: [`Server::bind`] freezes a
//! freshly built [`WcIndex`] into an `Arc<FlatIndex>` (and
//! [`Server::bind_flat`] accepts an already-frozen handle, e.g. one decoded
//! straight from a `WCIF` snapshot or produced by
//! `DynamicWcIndex::freeze`), so every query runs over the contiguous
//! struct-of-arrays arena instead of per-vertex heap allocations.
//!
//! Connection handling is the event-loop reactor (the private `reactor`
//! module), monomorphized for this module's backend service. Point verbs
//! are answered inline; `BATCH` answering and `RELOAD` snapshot decoding go
//! to its fixed worker pool, the only level of query parallelism: a batch
//! runs on the worker that dequeues it, and a large batch is split across
//! the same pool only while workers are idle.
//!
//! The served index lives in a swappable slot guarded by one mutex: a
//! `RELOAD <path>` request decodes a new snapshot off-loop, installs it with
//! a generation bump, and replies once the swap is visible. In-flight
//! queries and batches keep the `Arc` they captured — every reply is
//! consistent with exactly one snapshot — and the result cache stays
//! coherent because its keys carry the generation (see [`crate::cache`]).
//!
//! Shutdown is cooperative: `SHUTDOWN` flips an atomic flag; the reactor
//! observes it on its next iteration, best-effort flushes pending replies,
//! and `run` returns once the worker pool drains.

use crate::cache::ResultCache;
use crate::metrics::ServerMetrics;
use crate::protocol::{self, ReloadInfo, Reply};
use crate::reactor::{self, check_range, dur_us, Answer, Core, Endpoint, Query, Service};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use wcsd_core::{FlatIndex, QueryImpl, WcIndex};
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_obs::Registry;

/// Fewest queries a `BATCH` must hold before the backend splits it across
/// idle workers. Below it, handing half the batch to a parked worker (a
/// queue push plus a wake) costs as much as the merges it takes over.
/// Measured with one idle lane per batch length, inline against a two-part
/// split: on one shard of a 40×40 road grid (0.6 µs merges) the split tied
/// at 8–16 queries and won from 32; on a 96×96 grid (3.5 µs) it won from 8.
const SPLIT_MIN: usize = 32;

/// Server tuning knobs. `Default` picks a kernel-assigned port, two batch
/// workers, `BATCH` splits of at most one part per core, and a 64Ki-entry
/// cache over 16 shards.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port to listen on (0 = kernel-assigned; see
    /// [`Server::local_addr`]). The server always binds loopback.
    pub port: u16,
    /// Most parts one `BATCH` may be split into. A batch runs serially on
    /// the pool worker that dequeues it; only a large batch arriving while
    /// workers are idle is split, one part per idle worker, so the split is
    /// also bounded by `batch_workers`. 1 never splits. No thread is spawned
    /// per batch either way.
    pub batch_threads: usize,
    /// Concurrently executing jobs (batches/reloads and the parts of split
    /// batches). Bounds the pool the reactor offloads to, which is the
    /// server's only level of query parallelism.
    pub batch_workers: usize,
    /// Admission cap on jobs queued or executing in the worker pool. Once
    /// this many offloaded jobs are pending, new `BATCH`/`RELOAD` work is
    /// **shed** with a busy reply ([`protocol::BUSY_REASON`]) instead of
    /// growing the queue — bounding both memory and tail latency under
    /// overload.
    pub max_pending_jobs: usize,
    /// Total result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independent cache shards.
    pub cache_shards: usize,
    /// Inline requests at least this slow (milliseconds) emit a structured
    /// `slow_query` trace event, retrievable via `METRICS recent`. `None`
    /// disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Whether phase histograms and trace spans are recorded. Counters stay
    /// on regardless (they back `STATS`); turning this off is the no-op
    /// baseline the instrumentation-overhead bench compares against.
    pub metrics_enabled: bool,
    /// Registry to expose through `METRICS`. `None` gives the server a
    /// private registry (isolated tests, exact per-server reconciliation);
    /// `wcsd-cli serve` passes [`wcsd_obs::global()`] so core build/repair
    /// instrumentation from the same process shows up in one scrape.
    pub registry: Option<Arc<Registry>>,
    /// Query implementation used for every `QUERY`, `BATCH` and `WITHIN`
    /// answer ([`QueryImpl::default()`], the branch-free kernels of
    /// [`wcsd_core::kernel`]; [`QueryImpl::Merge`] selects the scalar
    /// reference merge). All implementations are bit-identical, so this is a
    /// pure performance knob.
    pub query_impl: QueryImpl,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            batch_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            batch_workers: 2,
            max_pending_jobs: 256,
            cache_capacity: 64 * 1024,
            cache_shards: 16,
            slow_query_ms: None,
            metrics_enabled: true,
            registry: None,
            query_impl: QueryImpl::default(),
        }
    }
}

/// A point-in-time snapshot of the server counters, backing the `STATS`
/// command and the summary returned by [`Server::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerSnapshot {
    /// Vertices covered by the currently served snapshot.
    pub vertices: usize,
    /// Label entries in the currently served snapshot.
    pub entries: usize,
    /// Generation of the served snapshot (1 at startup, +1 per reload).
    pub generation: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections currently open.
    pub live_connections: u64,
    /// Connections that negotiated the text protocol (counted at the first
    /// byte, so `connections` can exceed the protocol sum).
    pub text_connections: u64,
    /// Connections that negotiated the binary protocol.
    pub binary_connections: u64,
    /// Snapshot reloads served so far.
    pub reloads: u64,
    /// Point requests answered (`QUERY` and `WITHIN`; `WITHIN` bypasses the
    /// result cache, so this can exceed `cache_hits + cache_misses`).
    pub queries: u64,
    /// `BATCH` requests answered.
    pub batches: u64,
    /// Individual queries answered inside batches.
    pub batch_queries: u64,
    /// Requests shed with a busy reply because the pending-job queue was
    /// full (both protocols).
    pub shed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
}

impl ServerSnapshot {
    /// Fraction of cache lookups that hit (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the single-line `STATS` reply.
    pub fn encode(&self) -> String {
        format!(
            "STATS vertices={} entries={} generation={} uptime_ms={} connections={} \
             live_connections={} text_connections={} binary_connections={} reloads={} \
             queries={} batches={} batch_queries={} shed={} cache_hits={} cache_misses={} \
             hit_rate={:.4}",
            self.vertices,
            self.entries,
            self.generation,
            self.uptime_ms,
            self.connections,
            self.live_connections,
            self.text_connections,
            self.binary_connections,
            self.reloads,
            self.queries,
            self.batches,
            self.batch_queries,
            self.shed,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate()
        )
    }

    /// Parses a `STATS ...` reply line (client side).
    pub fn decode(line: &str) -> Result<Self, String> {
        let body =
            line.trim().strip_prefix("STATS ").ok_or_else(|| protocol::server_error(line))?;
        let mut snap = Self::default();
        for pair in body.split_whitespace() {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("malformed stats field {pair:?}"))?;
            let parse =
                |v: &str| v.parse::<u64>().map_err(|_| format!("malformed stats value {pair:?}"));
            match key {
                "vertices" => snap.vertices = parse(value)? as usize,
                "entries" => snap.entries = parse(value)? as usize,
                "generation" => snap.generation = parse(value)?,
                "uptime_ms" => snap.uptime_ms = parse(value)?,
                "connections" => snap.connections = parse(value)?,
                "live_connections" => snap.live_connections = parse(value)?,
                "text_connections" => snap.text_connections = parse(value)?,
                "binary_connections" => snap.binary_connections = parse(value)?,
                "reloads" => snap.reloads = parse(value)?,
                "queries" => snap.queries = parse(value)?,
                "batches" => snap.batches = parse(value)?,
                "batch_queries" => snap.batch_queries = parse(value)?,
                "shed" => snap.shed = parse(value)?,
                "cache_hits" => snap.cache_hits = parse(value)?,
                "cache_misses" => snap.cache_misses = parse(value)?,
                "hit_rate" => {} // derived; recomputed from hits/misses
                other => return Err(format!("unknown stats field {other:?}")),
            }
        }
        Ok(snap)
    }
}

/// The swappable serving slot: the epoch tags cache keys and is reported as
/// the `STATS` generation; both change together under one lock, so a worker
/// can never pair a snapshot with another generation's cache entries.
struct SnapshotSlot {
    epoch: u64,
    index: Arc<FlatIndex>,
}

/// The backend service the reactor runs: point verbs answered inline from
/// the served snapshot, batches and reloads on the pool.
struct Backend {
    core: Core,
    slot: Mutex<SnapshotSlot>,
    /// Most parts one `BATCH` is split into ([`ServerConfig::batch_threads`]).
    batch_threads: usize,
    /// Query implementation for every answer (bit-identical across
    /// variants; see [`ServerConfig::query_impl`]).
    query_impl: QueryImpl,
}

/// A backend pool job.
enum BackendJob {
    /// One part of a `BATCH`, which all of its parts share.
    Batch(Arc<BatchJob>, usize),
    /// A `RELOAD`: read + decode + validate a snapshot off the reactor
    /// thread. The swap itself happens at completion, so installs are
    /// serialized.
    Reload(String),
}

/// What a finished backend job hands back to the reactor thread.
enum BackendOutcome {
    /// In-order answers, or why the batch was rejected.
    Batch(Result<Vec<Option<Distance>>, String>),
    /// The decoded snapshot (or the load error), with the decode time when
    /// timing is enabled.
    Reload(Result<FlatIndex, String>, Option<u64>),
}

/// A `BATCH` in the worker pool, shared by its parts. Pinning
/// `(epoch, index)` here is what makes every batch reply consistent with
/// exactly one snapshot across a concurrent `RELOAD`, however many parts
/// answer it. Every line was range-checked against `index` before the
/// batch reached the pool.
struct BatchJob {
    /// Cache epoch paired with `index`.
    epoch: u64,
    /// The snapshot every part answers from.
    index: Arc<FlatIndex>,
    /// The batch body.
    queries: Vec<Query>,
    /// Parts the batch runs as; 1 means inline on one worker.
    parts: usize,
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
}

impl Backend {
    /// The snapshot being served right now, with its cache epoch.
    fn current(&self) -> (u64, Arc<FlatIndex>) {
        let slot = self.slot.lock().expect("snapshot slot poisoned");
        (slot.epoch, Arc::clone(&slot.index))
    }

    /// Installs a new snapshot, bumping the generation. In-flight holders of
    /// the previous `Arc` are unaffected. Returns the new generation.
    fn install(&self, index: Arc<FlatIndex>) -> u64 {
        let stats = index.stats();
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        slot.epoch += 1;
        slot.index = index;
        let epoch = slot.epoch;
        drop(slot);
        self.core.metrics.reloads.inc();
        self.core.publish(epoch, stats.num_vertices, stats.total_entries);
        epoch
    }

    /// Answers one query through the epoch-tagged cache against a pinned
    /// snapshot.
    fn cached_distance(
        &self,
        epoch: u64,
        index: &FlatIndex,
        s: VertexId,
        t: VertexId,
        w: Quality,
    ) -> Option<u32> {
        let key = (epoch, s, t, w);
        if let Some(answer) = self.core.cache.get(&key) {
            return answer;
        }
        let answer = index.distance_with(s, t, w, self.query_impl);
        self.core.cache.insert(key, answer);
        answer
    }

    /// Runs one part of a batch on the calling worker, serially. The part
    /// that finishes last returns the batch's one outcome and when its first
    /// part was picked up; the others return `None`.
    fn run_part(
        &self,
        batch: &BatchJob,
        part: usize,
        picked: Option<Instant>,
    ) -> Option<(BackendOutcome, Option<Instant>)> {
        if let Some(picked) = picked {
            batch.started.get_or_init(|| picked);
        }
        // Chaos site, once per batch: `fail` poisons the batch (the client
        // sees an ERR, never a wrong answer); `delay:<ms>` stalls the worker
        // so tests can fill the pending queue deterministically.
        let injected = part == 0
            && matches!(
                crate::failpoint::fire("worker.batch"),
                Some(crate::failpoint::Action::Fail | crate::failpoint::Action::Refuse)
            );
        if injected {
            batch.injected_failure.store(true, Ordering::Relaxed);
        } else {
            let range = batch.part_range(part);
            for (slot, &(s, t, w)) in batch.answers[range.clone()].iter().zip(&batch.queries[range])
            {
                let answer = self.cached_distance(batch.epoch, &batch.index, s, t, w);
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
        Some((BackendOutcome::Batch(result), batch.started.get().copied()))
    }
}

impl Service for Backend {
    type Job = BackendJob;
    type Outcome = BackendOutcome;
    type Worker = ();

    fn core(&self) -> &Core {
        &self.core
    }

    fn query(&self, s: VertexId, t: VertexId, w: Quality) -> Answer<BackendJob> {
        let (epoch, index) = self.current();
        Answer::Reply(match check_range(index.num_vertices(), s, t) {
            Ok(()) => Reply::Dist(self.cached_distance(epoch, &index, s, t, w)),
            Err(reason) => Reply::Err(reason),
        })
    }

    /// Uncached, through the configured query implementation.
    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> Answer<BackendJob> {
        let (_epoch, index) = self.current();
        Answer::Reply(match check_range(index.num_vertices(), s, t) {
            Ok(()) => {
                Reply::Bool(index.distance_with(s, t, w, self.query_impl).is_some_and(|x| x <= d))
            }
            Err(reason) => Reply::Err(reason),
        })
    }

    /// Pins the current snapshot and range-checks the whole batch first, so
    /// a bad line is answered with its `batch line N` error and never
    /// reaches the pool. A batch runs inline on the worker that dequeues it,
    /// unless it holds at least [`SPLIT_MIN`] queries while workers sit idle:
    /// then it is split into one part per idle worker, at most
    /// `batch_threads` parts.
    fn batch(&self, queries: Vec<Query>, idle: usize) -> Answer<BackendJob> {
        let (epoch, index) = self.current();
        for (i, &(s, t, _)) in queries.iter().enumerate() {
            if let Err(reason) = check_range(index.num_vertices(), s, t) {
                return Answer::Reply(Reply::Err(format!("batch line {}: {reason}", i + 1)));
            }
        }
        let parts =
            if queries.len() >= SPLIT_MIN { idle.min(self.batch_threads).max(1) } else { 1 };
        let batch = Arc::new(BatchJob {
            epoch,
            index,
            answers: queries.iter().map(|_| AtomicU32::new(INF_DIST)).collect(),
            queries,
            parts,
            started: OnceLock::new(),
            injected_failure: AtomicBool::new(false),
            remaining: AtomicUsize::new(parts),
        });
        match parts {
            1 => Answer::Offload(BackendJob::Batch(batch, 0)),
            _ => Answer::Split(
                (0..parts).map(|part| BackendJob::Batch(Arc::clone(&batch), part)).collect(),
            ),
        }
    }

    fn reload(&self, path: String) -> Answer<BackendJob> {
        Answer::Offload(BackendJob::Reload(path))
    }

    fn worker(&self) {}

    fn run(
        &self,
        _worker: &mut (),
        job: BackendJob,
        picked: Option<Instant>,
    ) -> Option<(BackendOutcome, Option<Instant>)> {
        match job {
            BackendJob::Batch(batch, part) => self.run_part(&batch, part, picked),
            BackendJob::Reload(path) => {
                let result = load_flat_snapshot(&path);
                let decode_us = picked.map(|t| dur_us(t.elapsed()));
                Some((BackendOutcome::Reload(result, decode_us), picked))
            }
        }
    }

    /// A reloaded snapshot is installed here, on the reactor thread.
    fn complete(&self, outcome: BackendOutcome) -> Reply {
        let m = &self.core.metrics;
        match outcome {
            BackendOutcome::Batch(Ok(answers)) => Reply::Batch(answers),
            BackendOutcome::Reload(Ok(flat), decode_us) => {
                let stats = flat.stats();
                let swap_t0 = m.timer();
                let generation = self.install(Arc::new(flat));
                if let Some(decode_us) = decode_us.filter(|_| m.enabled) {
                    let swap_us = swap_t0.map_or(0, |t| dur_us(t.elapsed()));
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
                Reply::Reloaded(ReloadInfo {
                    generation,
                    vertices: stats.num_vertices as u64,
                    entries: stats.total_entries as u64,
                })
            }
            BackendOutcome::Batch(Err(reason)) | BackendOutcome::Reload(Err(reason), _) => {
                Reply::Err(reason)
            }
        }
    }
}

/// Loads a snapshot for `RELOAD`: the `WCIF` file is read straight into the
/// word buffer that then serves it, validated in place (one allocation, no
/// second copy). Any other file is refused. No graph cross-check happens
/// here — `RELOAD` is an admin verb and the operator owns the pairing.
///
/// A **directory** path is the crash-recovery spelling: the newest *valid*
/// `*.wcif` generation inside it is served (see
/// [`load_newest_valid_snapshot`]), so reloading from a feed's snapshot
/// directory survives a torn or truncated latest generation.
pub(crate) fn load_flat_snapshot(path: &str) -> Result<FlatIndex, String> {
    if std::path::Path::new(path).is_dir() {
        return load_newest_valid_snapshot(std::path::Path::new(path)).map(|(index, _)| index);
    }
    let (words, len) = read_words(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let loaded = if len.is_multiple_of(4) {
        FlatIndex::from_words(words)
    } else {
        Err(format!("{len} bytes is not a whole number of words"))
    };
    loaded.map_err(|e| format!("corrupt snapshot {path}: {e}"))
}

/// Reads a whole file into little-endian words, zero-padding the last one.
/// Returns the words and the file's length in bytes.
fn read_words(path: &str) -> std::io::Result<(Vec<[u8; 4]>, usize)> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(std::io::Error::other)?;
    let mut words = vec![[0u8; 4]; len.div_ceil(4)];
    file.read_exact(&mut words.as_flattened_mut()[..len])?;
    Ok((words, len))
}

/// Scans `dir` for snapshot generations (`*.wcif`, newest first
/// by file name — the feed's zero-padded `gen-NNNNNN.wcif` naming makes the
/// lexicographic order the generation order) and returns the first one that
/// decodes, with its path. Torn or truncated files — a crashed feed's
/// debris — are skipped, so the newest *valid* generation wins.
pub fn load_newest_valid_snapshot(dir: &std::path::Path) -> Result<(FlatIndex, PathBuf), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            !name.starts_with('.') && name.ends_with(".wcif")
        })
        .collect();
    candidates.sort();
    let mut skipped = Vec::new();
    for path in candidates.iter().rev() {
        let display = path.display().to_string();
        match load_flat_snapshot(&display) {
            Ok(index) => {
                for bad in &skipped {
                    eprintln!("wcsd: skipped invalid snapshot {bad}, serving {display}");
                }
                return Ok((index, path.clone()));
            }
            Err(_) => skipped.push(display),
        }
    }
    Err(format!(
        "no valid snapshot in {} ({} candidate{} rejected)",
        dir.display(),
        skipped.len(),
        if skipped.len() == 1 { "" } else { "s" }
    ))
}

/// Writes a snapshot crash-safely: the bytes go to a hidden temp file in the
/// same directory, are flushed to disk (`fsync`), and are atomically renamed
/// over `path` — so a reader (a concurrent `RELOAD`, or a restart after a
/// crash) can observe either the old file or the complete new one, never a
/// torn prefix. The containing directory is fsynced best-effort afterwards
/// so the rename itself survives power loss.
///
/// Honors the `snapshot.write` [`crate::failpoint`] site: `partial:<n>`
/// writes only the first `n` bytes of the temp file and fails (leaving the
/// torn temp behind, exactly like a crash mid-write), `fail` fails before
/// writing, `delay:<ms>` stalls the write.
pub fn write_snapshot_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write as _;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => std::path::Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("snapshot path {} has no file name", path.display()))?;
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let write_tmp = || -> Result<(), String> {
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        match crate::failpoint::fire("snapshot.write") {
            Some(crate::failpoint::Action::Fail) => {
                return Err("injected snapshot write failure".to_string())
            }
            Some(crate::failpoint::Action::PartialWrite(n)) => {
                let n = n.min(bytes.len());
                file.write_all(&bytes[..n])
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                file.sync_all().ok();
                return Err(format!("injected crash after {n} bytes of {}", tmp.display()));
            }
            _ => {}
        }
        file.write_all(bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        file.sync_all().map_err(|e| format!("cannot sync {}: {e}", tmp.display()))
    };
    // An injected partial write deliberately leaves the torn temp file
    // behind — that is the crash debris the recovery scan must ignore.
    write_tmp()?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))?;
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// A bound but not yet running query server. Created with [`Server::bind`],
/// driven to completion with [`Server::run`].
pub struct Server {
    endpoint: Endpoint,
    backend: Backend,
}

impl Server {
    /// Binds a loopback listener, freezing the build-representation index
    /// into the flat serve representation first. To serve an already-frozen
    /// index (e.g. decoded from a `WCIF` snapshot) without the conversion
    /// pass, use [`Server::bind_flat`].
    pub fn bind(index: WcIndex, config: ServerConfig) -> std::io::Result<Self> {
        Self::bind_flat(Arc::new(FlatIndex::from_index(&index)), config)
    }

    /// Binds a loopback listener (with `SO_REUSEADDR`, so a restarted server
    /// can re-acquire the port of a killed predecessor) and serves the given
    /// frozen index.
    pub fn bind_flat(index: Arc<FlatIndex>, config: ServerConfig) -> std::io::Result<Self> {
        let endpoint = Endpoint::bind(config.port)?;
        let registry = config.registry.clone().unwrap_or_else(|| Arc::new(Registry::new()));
        let batch_workers = config.batch_workers.max(1);
        let max_pending_jobs = config.max_pending_jobs.max(1);
        let metrics = ServerMetrics::new(registry, config.metrics_enabled, config.slow_query_ms);
        let stats = index.stats();
        let cache = ResultCache::new(config.cache_capacity, config.cache_shards);
        let core = Core::new(
            metrics,
            cache,
            config.cache_capacity,
            batch_workers,
            batch_workers,
            max_pending_jobs,
        );
        core.publish(1, stats.num_vertices, stats.total_entries);
        let backend = Backend {
            core,
            slot: Mutex::new(SnapshotSlot { epoch: 1, index }),
            batch_threads: config.batch_threads.max(1),
            query_impl: config.query_impl,
        };
        Ok(Self { endpoint, backend })
    }

    /// The address the server listens on (useful with `port = 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Serves connections until a client sends `SHUTDOWN`: spawns the
    /// bounded worker pool, then runs the reactor on the calling thread.
    /// Returns the final counter snapshot once the pool has drained.
    pub fn run(self) -> ServerSnapshot {
        reactor::serve(&self.backend, self.endpoint);
        self.backend.core.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_encode_decode_roundtrip() {
        let snap = ServerSnapshot {
            vertices: 144,
            entries: 2048,
            generation: 3,
            uptime_ms: 1234,
            connections: 5,
            live_connections: 2,
            text_connections: 3,
            binary_connections: 2,
            reloads: 2,
            queries: 17,
            batches: 2,
            batch_queries: 40,
            shed: 6,
            cache_hits: 30,
            cache_misses: 27,
        };
        let decoded = ServerSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert!((decoded.hit_rate() - 30.0 / 57.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        assert!(ServerSnapshot::decode("ERR nope").is_err());
        assert!(ServerSnapshot::decode("STATS vertices=abc").is_err());
        assert!(ServerSnapshot::decode("STATS what=1").is_err());
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert_eq!(c.port, 0);
        assert!(c.batch_threads >= 1);
        assert!(c.batch_workers >= 1);
        assert!(c.cache_capacity > 0);
        assert!(c.cache_shards > 0);
        assert!(c.max_pending_jobs >= 1);
        assert!(c.metrics_enabled);
        assert_eq!(c.slow_query_ms, None);
        assert!(c.registry.is_none());
    }

    #[test]
    fn load_flat_snapshot_reports_errors() {
        assert!(load_flat_snapshot("/nonexistent/path.fidx").unwrap_err().contains("cannot read"));
    }

    #[test]
    fn atomic_write_then_newest_valid_recovery() {
        use wcsd_core::IndexBuilder;
        use wcsd_graph::generators::paper_figure3;

        let dir = std::env::temp_dir().join(format!("wcsd-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let index = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&paper_figure3()));
        let encoded = index.encode();

        write_snapshot_atomic(&dir.join("gen-000001.wcif"), &encoded).unwrap();
        // A torn newer generation — the first half of a valid snapshot — and
        // assorted debris a crashed writer could leave behind.
        std::fs::write(dir.join("gen-000002.wcif"), &encoded[..encoded.len() / 2]).unwrap();
        std::fs::write(dir.join(".gen-000003.wcif.tmp.123"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a snapshot").unwrap();

        let (recovered, path) = load_newest_valid_snapshot(&dir).unwrap();
        assert!(path.ends_with("gen-000001.wcif"), "picked {}", path.display());
        assert_eq!(recovered.distance(2, 5, 2), index.distance(2, 5, 2));
        // The directory spelling of load_flat_snapshot goes through the
        // same scan.
        assert!(load_flat_snapshot(&dir.display().to_string()).is_ok());

        // With every generation torn, recovery reports rather than serves.
        std::fs::remove_file(dir.join("gen-000001.wcif")).unwrap();
        let err = load_newest_valid_snapshot(&dir).unwrap_err();
        assert!(err.contains("no valid snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_partial_write_leaves_target_untouched() {
        let dir = std::env::temp_dir().join(format!("wcsd-partial-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("gen-000001.wcif");
        write_snapshot_atomic(&target, b"first full generation").unwrap();

        crate::failpoint::set("snapshot.write", crate::failpoint::Action::PartialWrite(4), Some(1));
        let err = write_snapshot_atomic(&target, b"second generation that crashes").unwrap_err();
        assert!(err.contains("injected crash"), "{err}");
        crate::failpoint::clear("snapshot.write");

        // The rename never happened: the target still holds the previous
        // generation in full; only hidden temp debris was left behind.
        assert_eq!(std::fs::read(&target).unwrap(), b"first full generation");
        std::fs::remove_dir_all(&dir).ok();
    }
}
