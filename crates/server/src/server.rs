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
//! Connection handling is a single-threaded event-loop reactor (the
//! private `reactor` module): nonblocking sockets multiplexed through a small
//! `poll(2)` wrapper, per-connection read/parse/execute/write state
//! machines, and a bounded worker pool for `BATCH` answering and `RELOAD`
//! snapshot decoding. The pool is the only level of query parallelism: a
//! batch runs on the worker that dequeues it, and a large batch is split
//! across the same pool only while workers are idle. Concurrent connections
//! therefore scale with file descriptors, not threads, and an idle server
//! sleeps in `poll` instead of busy-polling `accept`.
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
use crate::protocol;
use crate::reactor::{self, Reactor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wcsd_core::{FlatIndex, QueryImpl, WcIndex};
use wcsd_graph::{Quality, VertexId};
use wcsd_obs::Registry;

/// Upper bound on how long one connection's pending output may sit without
/// the socket accepting a single byte. A client that stops reading its
/// replies (so the kernel send buffer fills) gets its connection dropped
/// after this long instead of pinning server memory forever.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest text request line the server accepts. Every legal request fits in
/// a few dozen bytes; this bounds the memory a client streaming
/// newline-free bytes can pin (the line-size analogue of
/// [`protocol::MAX_BATCH`]).
pub(crate) const MAX_LINE: usize = 64 * 1024;

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
#[derive(Debug, Clone, PartialEq)]
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
        let mut snap = Self {
            vertices: 0,
            entries: 0,
            generation: 0,
            uptime_ms: 0,
            connections: 0,
            live_connections: 0,
            text_connections: 0,
            binary_connections: 0,
            reloads: 0,
            queries: 0,
            batches: 0,
            batch_queries: 0,
            shed: 0,
            cache_hits: 0,
            cache_misses: 0,
        };
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
pub(crate) struct SnapshotSlot {
    pub(crate) epoch: u64,
    pub(crate) index: Arc<FlatIndex>,
}

/// Shared state the reactor and the worker pool both borrow.
pub(crate) struct Shared {
    pub(crate) slot: Mutex<SnapshotSlot>,
    pub(crate) cache: ResultCache,
    /// Most parts one `BATCH` is split into ([`ServerConfig::batch_threads`]).
    pub(crate) batch_threads: usize,
    pub(crate) batch_workers: usize,
    pub(crate) max_pending_jobs: usize,
    /// Query implementation for every answer (bit-identical across
    /// variants; see [`ServerConfig::query_impl`]).
    pub(crate) query_impl: QueryImpl,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    /// All server counters/gauges/histograms. `STATS` reads the same atomics
    /// `METRICS` renders, so the two views cannot disagree on totals.
    pub(crate) metrics: ServerMetrics,
}

impl Shared {
    /// The snapshot being served right now, with its cache epoch.
    pub(crate) fn current(&self) -> (u64, Arc<FlatIndex>) {
        let slot = self.slot.lock().expect("snapshot slot poisoned");
        (slot.epoch, Arc::clone(&slot.index))
    }

    /// Installs a new snapshot, bumping the generation. In-flight holders of
    /// the previous `Arc` are unaffected. Returns the new generation.
    pub(crate) fn install(&self, index: Arc<FlatIndex>) -> u64 {
        let stats = index.stats();
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        slot.epoch += 1;
        slot.index = index;
        let epoch = slot.epoch;
        drop(slot);
        self.metrics.reloads.inc();
        self.metrics.generation.set(epoch as i64);
        self.metrics.index_vertices.set(stats.num_vertices as i64);
        self.metrics.index_entries.set(stats.total_entries as i64);
        epoch
    }

    /// Point-in-time counter snapshot. One read per atomic; the derived
    /// hit rate is computed from this snapshot's own hit/miss values, never
    /// from a second load.
    pub(crate) fn snapshot(&self) -> ServerSnapshot {
        let (epoch, index) = self.current();
        let stats = index.stats();
        let m = &self.metrics;
        ServerSnapshot {
            vertices: stats.num_vertices,
            entries: stats.total_entries,
            generation: epoch,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections: m.connections.get(),
            live_connections: m.live_connections.get().max(0) as u64,
            text_connections: m.proto_connections[crate::metrics::PROTO_TEXT].get(),
            binary_connections: m.proto_connections[crate::metrics::PROTO_BINARY].get(),
            reloads: m.reloads.get(),
            queries: m.queries.get(),
            batches: m.batches.get(),
            batch_queries: m.batch_queries.get(),
            shed: m.shed[crate::metrics::PROTO_TEXT].get()
                + m.shed[crate::metrics::PROTO_BINARY].get(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }

    /// Renders the full Prometheus exposition, refreshing the point-in-time
    /// gauges first. Called on the reactor thread only, which is what makes
    /// the counter/histogram reconciliation exact (see [`crate::metrics`]).
    pub(crate) fn render_metrics(&self) -> String {
        self.metrics.uptime_ms.set(self.started.elapsed().as_millis() as i64);
        self.metrics.registry.render()
    }

    /// Answers one query through the epoch-tagged cache against a pinned
    /// snapshot.
    pub(crate) fn cached_distance(
        &self,
        epoch: u64,
        index: &FlatIndex,
        s: VertexId,
        t: VertexId,
        w: Quality,
    ) -> Option<u32> {
        let key = (epoch, s, t, w);
        if let Some(answer) = self.cache.get(&key) {
            return answer;
        }
        let answer = index.distance_with(s, t, w, self.query_impl);
        self.cache.insert(key, answer);
        answer
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
    listener: TcpListener,
    local_addr: SocketAddr,
    wake_rx: TcpStream,
    wake_tx: reactor::WakeSender,
    shared: Shared,
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
        let listener = reactor::listen_reuseaddr(config.port)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = reactor::wake_pair()?;
        let registry = config.registry.clone().unwrap_or_else(|| Arc::new(Registry::new()));
        let batch_workers = config.batch_workers.max(1);
        let max_pending_jobs = config.max_pending_jobs.max(1);
        let cache = ResultCache::new(config.cache_capacity, config.cache_shards);
        let metrics = ServerMetrics::new(
            registry,
            config.metrics_enabled,
            config.slow_query_ms,
            batch_workers,
            config.cache_capacity,
            max_pending_jobs,
        );
        // The registry renders the cache's own live counters — one set of
        // atomics behind both STATS and METRICS.
        metrics.registry.register_counter(
            "wcsd_cache_hits_total",
            &[],
            "Result-cache hits",
            cache.hit_counter(),
        );
        metrics.registry.register_counter(
            "wcsd_cache_misses_total",
            &[],
            "Result-cache misses",
            cache.miss_counter(),
        );
        let stats = index.stats();
        metrics.generation.set(1);
        metrics.index_vertices.set(stats.num_vertices as i64);
        metrics.index_entries.set(stats.total_entries as i64);
        Ok(Self {
            listener,
            local_addr,
            wake_rx,
            wake_tx,
            shared: Shared {
                slot: Mutex::new(SnapshotSlot { epoch: 1, index }),
                cache,
                batch_threads: config.batch_threads.max(1),
                batch_workers,
                max_pending_jobs,
                query_impl: config.query_impl,
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
                metrics,
            },
        })
    }

    /// The address the server listens on (useful with `port = 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves connections until a client sends `SHUTDOWN`: spawns the
    /// bounded worker pool, then runs the reactor on the calling thread.
    /// Returns the final counter snapshot once the pool has drained.
    pub fn run(self) -> ServerSnapshot {
        let Server { listener, wake_rx, wake_tx, shared, .. } = self;
        let shared = &shared;
        let (job_tx, job_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let job_rx = Mutex::new(job_rx);
        std::thread::scope(|scope| {
            for _ in 0..shared.batch_workers {
                let done_tx = done_tx.clone();
                let wake = wake_tx.clone();
                let job_rx = &job_rx;
                scope.spawn(move || reactor::worker(shared, job_rx, done_tx, wake));
            }
            drop(done_tx);
            // The reactor owns the job sender: when `run` returns it drops,
            // the workers' `recv` disconnects, and the scope joins.
            Reactor::new(shared, listener, wake_rx, job_tx, done_rx).run();
        });
        shared.snapshot()
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
