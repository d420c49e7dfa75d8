//! The scatter-gather router: one front-end address serving the whole graph
//! out of `N` single-shard backend reactors, each optionally backed by
//! replicas for failover.
//!
//! The router owns no labels. It loads the boundary overlay
//! ([`wcsd_core::overlay::OverlayIndex`], the `WCSO` snapshot written by
//! `wcsd-cli partition`) and answers `Q(s, t, w)` in the overlay's separable
//! form: `min(direct, min_b P(s,w)[b] + P(t,w)[b])`, where `P(v, w)` is one
//! endpoint's *boundary potentials* — its shard row `d_shard(v, b | w)`,
//! fetched as one equal-source `BATCH` run over a persistent binary
//! [`Client`] connection, pushed through the overlay's quality-filtered
//! Dijkstra ([`OverlayIndex::potentials`]) — and `direct` is the one
//! `(s, t, w)` sub-query of a same-shard pair ([`OverlayIndex::compose`]).
//! [`wcsd_core::overlay::ShardedIndex`] evaluates the same composition per
//! query with nothing cached (plan/merge); the parity suite pins the two to
//! each other and to the unsharded index.
//!
//! ## The potential cache
//!
//! `P(v, w)` depends on one endpoint only, so the router keeps the rows it
//! has computed in a second [`ShardedLru`] keyed on `(v, w)`. A query whose
//! two endpoints are resident costs no Dijkstra and at most one backend
//! sub-query (the direct term); a cold endpoint costs one row fetch and one
//! Dijkstra, once. The cache is budgeted in distance cells —
//! [`ENTRY_OVERHEAD_CELLS`] per entry of [`RouterConfig::cache_capacity`], a
//! row costing one cell per boundary vertex plus that overhead, so it never
//! holds more rows than the answer cache holds answers — and is sound for
//! the reason the answer cache is: the overlay is static. Rows are inserted only after every exchange of the client batch
//! came back whole, so a failed or torn exchange can never poison it.
//! `wcsd_router_potential_{hits,misses}_total` and
//! `wcsd_router_potential_cells` report it; the warm regime needs the
//! endpoint working set (at most `n · |w|` rows) to fit the budget.
//!
//! ## Replica groups and the circuit breaker
//!
//! Each shard is served by a *replica group* — one or more backends holding
//! the **same** shard snapshot, so any replica's answers are bit-identical.
//! Every replica carries a three-state circuit breaker:
//!
//! * **closed** — healthy, preferred for traffic;
//! * **open** — the last exchange or probe failed; counted in the
//!   `wcsd_router_degraded_backends` gauge and only tried as a last resort;
//! * **half-open** — a probe succeeded after the breaker opened; eligible
//!   for traffic again, and the next success (probe or exchange) closes it.
//!
//! Transitions: a double exchange failure or a failed probe opens the
//! breaker; a successful probe moves open → half-open → closed; a successful
//! exchange closes it from any state.
//!
//! While a group has more than one **closed** replica, successive exchanges
//! rotate round-robin through the closed prefix (per-shard atomic cursor),
//! spreading load across healthy replicas; half-open and open replicas keep
//! their failover positions. Per-replica traffic is observable as
//! `wcsd_router_replica_requests_total{shard, replica}`.
//!
//! ## The router-side result cache
//!
//! A sharded LRU ([`crate::cache::ResultCache`], the same structure the
//! single-shard server uses) sits in front of scatter-gather: a repeated
//! `(s, t, w)` — standalone or inside a `BATCH` — is answered from router
//! memory with **zero** backend exchanges, and identical misses inside one
//! `BATCH` are scattered once. The overlay is static and
//! `RELOAD` through the router is refused, so entries never go stale and no
//! epoch tagging is needed. Hits/misses surface in `STATS` and as
//! `wcsd_cache_{hits,misses}_total` in `METRICS`, the same names the
//! backends use.
//!
//! ## The background prober
//!
//! `Router::run` spawns a prober thread that, every
//! [`RouterConfig::probe_interval`], dials each replica on a fresh binary
//! connection and exchanges one `STATS`. A failed probe opens the breaker, a
//! successful one walks it back toward closed — so a backend that dies and
//! comes back is un-degraded within two probe intervals **without any client
//! traffic**, and a dead replica is skipped by clients before they ever pay
//! its connect timeout. Probes are counted in `wcsd_router_probes_total` /
//! `wcsd_router_probe_failures_total`; the deterministic failpoint site
//! `router.probe` (`fail`/`refuse` actions) forces probe failures in tests.
//!
//! ## Serving
//!
//! The router runs on the reactor the backends run on (`crate::reactor`),
//! as its second service: clients speak the same wire protocols (the first
//! byte selects binary, magic `0xBF`, or text), and framing, the line and
//! frame limits, backpressure, shedding, `STATS`/`METRICS` and `SHUTDOWN`
//! are the same code, so malformed input gets byte-identical replies from a
//! router and a direct backend (`tests/router.rs` pins this). A request whose
//! every answer is already in the result cache is answered inline on the
//! reactor thread. Otherwise its distinct misses become one job for the
//! reactor's worker pool, which grows to one worker per request in flight
//! (`MAX_PENDING_JOBS` at most), so a stalled shard holds up only the
//! requests that need it. Each worker owns one `BackendPool` — its own
//! lazily-connected backend clients — so exchanges never interleave on a
//! backend socket, and a torn backend reply can only tear the one request
//! its worker was running. Per shard exchange the worker walks the replica
//! group in breaker order (closed first, open last) and, per replica:
//!
//! 1. connects on demand (binary protocol, read timeout
//!    [`RouterConfig::backend_timeout`]),
//! 2. sends one `BATCH` and waits for the sized reply,
//! 3. on any failure drops the connection and retries **once** on a fresh
//!    one, and
//! 4. on a second failure opens the replica's breaker and fails over to the
//!    next replica; only when every replica of the shard has failed does the
//!    client see an `ERR` reply.
//!
//! The read timeout bounds every step, so a dead or wedged backend degrades
//! to replica failover (or `ERR` replies when the whole group is down) — the
//! router never hangs, and a `BATCH` is answered either completely or with
//! one `ERR` line (no partial replies).
//!
//! Admin verbs stay with the backends: `RELOAD` through the router is
//! refused (reload each backend's shard snapshot directly); `SHUTDOWN` stops
//! the router itself, never the backends.

use crate::cache::{QueryKey, ResultCache, ShardedLru, ENTRY_OVERHEAD_CELLS};
use crate::client::{Client, Protocol};
use crate::failpoint;
use crate::metrics::ServerMetrics;
use crate::protocol::{self, Reply};
use crate::reactor::{self, check_range, Answer, Core, Endpoint, Query, Service};
use crate::server::ServerSnapshot;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcsd_core::overlay::OverlayIndex;
use wcsd_core::FlatIndex;
use wcsd_graph::{Distance, Quality, VertexId};
use wcsd_obs::{Counter, Gauge, Histogram, Registry};

/// Admission cap on router jobs queued or executing (a backend's default
/// `max_pending_jobs`); past it a cache-missing request is shed. It is also
/// the most pool workers the router runs: the pool starts empty and gains a
/// worker whenever a cache-missing request arrives with every worker taken,
/// so each request in flight has its own worker, and a request never queues
/// behind workers that are waiting out a stalled shard's timeouts.
const MAX_PENDING_JOBS: usize = 256;

/// Circuit breaker: replica healthy (or not yet observed unhealthy).
const BREAKER_CLOSED: u8 = 0;
/// Circuit breaker: last exchange or probe failed; last-resort traffic only.
const BREAKER_OPEN: u8 = 1;
/// Circuit breaker: one probe succeeded since the breaker opened; the next
/// success closes it.
const BREAKER_HALF_OPEN: u8 = 2;

/// Configuration for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Port to listen on (loopback only); 0 picks an ephemeral port.
    pub port: u16,
    /// Read timeout for one backend exchange. A backend that does not
    /// produce its reply within this window counts as failed (then retried
    /// once on a fresh connection).
    pub backend_timeout: Duration,
    /// How often the background prober exchanges a `STATS` with every
    /// replica. Zero disables probing (breakers then move only on client
    /// traffic).
    pub probe_interval: Duration,
    /// Whether histogram/tracer recording is on (counters always are).
    pub metrics_enabled: bool,
    /// Registry to record into; `None` creates a private one.
    pub registry: Option<Arc<Registry>>,
    /// Total capacity of the router-side result cache (0 disables it). The
    /// cache sits *in front of* scatter-gather: a hit answers a `(s, t, w)`
    /// from the router's memory without touching any backend. Because the
    /// overlay is static and `RELOAD` through the router is refused, entries
    /// never go stale — no epoch tagging is needed (the backends' own caches
    /// stay epoch-tagged). The potential cache is sized from the same knob
    /// ([`ENTRY_OVERHEAD_CELLS`] cells per entry), so 0 disables both.
    pub cache_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            port: 0,
            backend_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_secs(1),
            metrics_enabled: true,
            registry: None,
            cache_capacity: 64 * 1024,
        }
    }
}

/// Cache-key epoch for the router's result cache. The overlay is static for
/// the router's lifetime (`RELOAD` is refused), so one constant epoch is
/// correct; see [`RouterConfig::cache_capacity`].
const ROUTER_EPOCH: u64 = 1;

/// Number of independent shards in the router's result cache (same default
/// the single-shard server uses).
const ROUTER_CACHE_SHARDS: usize = 16;

/// Potential-cache key of endpoint `(v, w)`: the answer cache's key shape
/// with the endpoint in both vertex slots.
fn potential_key(v: VertexId, w: Quality) -> QueryKey {
    (ROUTER_EPOCH, v, v, w)
}

/// Router-only metric handles, resolved once at bind time; the request,
/// connection and phase families are the reactor's ([`ServerMetrics`]).
struct RouterMetrics {
    /// Backend `BATCH` exchanges sent (including the retry of a failed one).
    fanout: Arc<Counter>,
    /// Individual per-shard queries fanned out inside those exchanges.
    fanout_queries: Arc<Counter>,
    /// Retries after a first backend failure.
    retries: Arc<Counter>,
    /// Exchanges that failed over to another replica of the same shard.
    failovers: Arc<Counter>,
    /// Health probes sent by the background prober.
    probes: Arc<Counter>,
    /// Health probes that failed (connect, exchange, or injected).
    probe_failures: Arc<Counter>,
    /// Per-replica exchange attempts, labeled `shard` and `replica=<addr>` —
    /// the observable behind the round-robin balance test.
    replica_requests: Vec<Vec<Arc<Counter>>>,
    /// Per-shard exchange latency, labeled `backend="<shard>"`.
    backend_us: Vec<Arc<Histogram>>,
    /// Per-shard failed exchanges (after which a retry, failover, or ERR
    /// follows).
    backend_errors: Vec<Arc<Counter>>,
    /// Replicas whose circuit breaker is currently open.
    degraded: Arc<Gauge>,
    /// Distance cells resident in the potential cache (set at scrape time).
    potential_cells: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &Registry, backends: &[Vec<String>]) -> Self {
        let replica_requests = backends
            .iter()
            .enumerate()
            .map(|(shard, group)| {
                let shard = shard.to_string();
                let replica = |addr: &String| {
                    registry.counter_with(
                        "wcsd_router_replica_requests_total",
                        &[("shard", shard.as_str()), ("replica", addr.as_str())],
                        "Backend BATCH exchange attempts, by replica",
                    )
                };
                group.iter().map(replica).collect()
            })
            .collect();
        let shards: Vec<String> = (0..backends.len()).map(|b| b.to_string()).collect();
        let backend_us = shards
            .iter()
            .map(|b| {
                registry.histogram_with(
                    "wcsd_router_backend_us",
                    &[("backend", b.as_str())],
                    "Backend BATCH exchange latency in microseconds",
                )
            })
            .collect();
        let backend_errors = shards
            .iter()
            .map(|b| {
                let help = "Failed backend exchanges";
                registry.counter_with("wcsd_router_backend_errors_total", &[("backend", b)], help)
            })
            .collect();
        Self {
            fanout: registry.counter("wcsd_router_fanout_total", "Backend BATCH exchanges sent"),
            fanout_queries: registry.counter(
                "wcsd_router_fanout_queries_total",
                "Per-shard queries fanned out to backends",
            ),
            retries: registry
                .counter("wcsd_router_retries_total", "Backend exchanges retried after a failure"),
            failovers: registry.counter(
                "wcsd_router_failovers_total",
                "Shard exchanges answered by a later replica after an earlier one failed",
            ),
            probes: registry.counter("wcsd_router_probes_total", "Health probes sent to replicas"),
            probe_failures: registry
                .counter("wcsd_router_probe_failures_total", "Health probes that failed"),
            replica_requests,
            backend_us,
            backend_errors,
            degraded: registry.gauge(
                "wcsd_router_degraded_backends",
                "Replicas whose circuit breaker is open (last exchange or probe failed)",
            ),
            potential_cells: registry.gauge(
                "wcsd_router_potential_cells",
                "Distance cells resident in the potential cache",
            ),
        }
    }
}

/// One backend replica: its address and its circuit-breaker state
/// (`BREAKER_*`), shared by every pool worker and the prober.
struct Replica {
    addr: String,
    breaker: AtomicU8,
}

/// Everything the reactor, the pool workers and the prober share.
struct Shared {
    /// Metrics, the result cache (keyed `(ROUTER_EPOCH, s, t, w)`,
    /// [`ResultCache::disabled`] when [`RouterConfig::cache_capacity`] is 0),
    /// the shutdown flag, and the pool bounds.
    core: Core,
    overlay: OverlayIndex,
    /// `shards[i]` is shard `i`'s replica group; every replica serves the
    /// same shard snapshot, so answers are interchangeable bit-for-bit.
    shards: Vec<Vec<Replica>>,
    /// Per-shard round-robin cursor: successive exchanges rotate through the
    /// shard's *closed-breaker* replicas so load spreads across a healthy
    /// group instead of pinning replica 0.
    rr: Vec<AtomicU64>,
    /// Boundary potentials `P(v, w)` by [`potential_key`], budgeted in
    /// distance cells (see the module docs).
    potentials: ShardedLru<Arc<[Distance]>>,
    backend_timeout: Duration,
    probe_interval: Duration,
    metrics: RouterMetrics,
}

impl Shared {
    /// Moves one replica's breaker, keeping the degraded gauge equal to the
    /// number of open breakers. `swap` makes each transition account exactly
    /// its own old state, so concurrent movers never double-count.
    fn set_breaker(&self, shard: usize, replica: usize, state: u8) {
        let old = self.shards[shard][replica].breaker.swap(state, Ordering::SeqCst);
        if (old == BREAKER_OPEN) != (state == BREAKER_OPEN) {
            if state == BREAKER_OPEN {
                self.metrics.degraded.inc();
            } else {
                self.metrics.degraded.dec();
            }
        }
    }

    /// Applies one probe result: failure opens the breaker; success walks it
    /// open → half-open → closed (closed stays closed).
    fn probe_outcome(&self, shard: usize, replica: usize, ok: bool) {
        if !ok {
            self.set_breaker(shard, replica, BREAKER_OPEN);
            return;
        }
        match self.shards[shard][replica].breaker.load(Ordering::SeqCst) {
            BREAKER_OPEN => self.set_breaker(shard, replica, BREAKER_HALF_OPEN),
            BREAKER_HALF_OPEN => self.set_breaker(shard, replica, BREAKER_CLOSED),
            _ => {}
        }
    }

    /// Replica indices of `shard` in preference order: closed breakers
    /// first, then half-open, then open as a last resort (stable within each
    /// class). When more than one breaker is closed, successive calls rotate
    /// the closed prefix round-robin, so a healthy replica group shares the
    /// load instead of funnelling everything to replica 0 — failover
    /// semantics are unchanged because rotation never promotes a replica
    /// across class boundaries.
    fn replica_order(&self, shard: usize) -> Vec<usize> {
        let group = &self.shards[shard];
        let class = |r: usize| match group[r].breaker.load(Ordering::SeqCst) {
            BREAKER_CLOSED => 0u8,
            BREAKER_HALF_OPEN => 1,
            _ => 2,
        };
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&r| class(r));
        let closed = order.iter().take_while(|&&r| class(r) == BREAKER_CLOSED).count();
        if closed > 1 {
            let turn = self.rr[shard].fetch_add(1, Ordering::Relaxed) as usize;
            order[..closed].rotate_left(turn % closed);
        }
        order
    }
}

/// The scatter-gather front end. [`Router::bind`] validates the
/// overlay/backend pairing and claims the port; [`Router::run`] serves until
/// a client sends `SHUTDOWN`.
pub struct Router {
    endpoint: Endpoint,
    shared: Shared,
}

impl Router {
    /// Binds the router on loopback. `backends[i]` is shard `i`'s replica
    /// group — one or more addresses of reactors all serving shard `i`'s
    /// snapshot; the group count has to match the overlay's shard count and
    /// no group may be empty. The backends are dialed lazily by each pool
    /// worker, so they may come up after the router does.
    pub fn bind(
        overlay: OverlayIndex,
        backends: Vec<Vec<String>>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        if backends.len() != overlay.num_shards() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} backend replica groups for an overlay of {} shards",
                    backends.len(),
                    overlay.num_shards()
                ),
            ));
        }
        if let Some(shard) = backends.iter().position(Vec::is_empty) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shard {shard} has an empty replica group"),
            ));
        }
        let endpoint = Endpoint::bind(config.port)?;
        let registry = config.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = RouterMetrics::new(&registry, &backends);
        let core_metrics = ServerMetrics::new(registry, config.metrics_enabled, None);
        let cache = if config.cache_capacity == 0 {
            ResultCache::disabled()
        } else {
            ResultCache::new(config.cache_capacity, ROUTER_CACHE_SHARDS)
        };
        let core = Core::new(
            core_metrics,
            cache,
            config.cache_capacity,
            0,
            MAX_PENDING_JOBS,
            MAX_PENDING_JOBS,
        );
        core.publish(1, overlay.num_vertices(), overlay.num_edges());
        // The cells the answer cache's entries cost in bookkeeping, over as
        // many locks as still leave every shard room for one row.
        let budget = config.cache_capacity.saturating_mul(ENTRY_OVERHEAD_CELLS);
        let row_cells = ENTRY_OVERHEAD_CELLS + overlay.num_boundary();
        let potentials =
            ShardedLru::new(budget, (budget / row_cells).clamp(1, ROUTER_CACHE_SHARDS));
        core.metrics.registry.register_counter(
            "wcsd_router_potential_hits_total",
            &[],
            "Endpoint potential rows served from the potential cache",
            potentials.hit_counter(),
        );
        core.metrics.registry.register_counter(
            "wcsd_router_potential_misses_total",
            &[],
            "Endpoint potential rows fetched from a backend and recomputed",
            potentials.miss_counter(),
        );
        let rr = backends.iter().map(|_| AtomicU64::new(0)).collect();
        let shards: Vec<Vec<Replica>> = backends
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|addr| Replica { addr, breaker: AtomicU8::new(BREAKER_CLOSED) })
                    .collect()
            })
            .collect();
        Ok(Self {
            endpoint,
            shared: Shared {
                core,
                overlay,
                shards,
                rr,
                potentials,
                backend_timeout: config.backend_timeout,
                probe_interval: config.probe_interval,
                metrics,
            },
        })
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Serves until a client sends `SHUTDOWN`: starts the prober, runs the
    /// reactor (and with it the worker pool) on the calling thread, then
    /// joins them (bounded by the in-flight backend timeouts) and returns
    /// the final counters.
    pub fn run(self) -> ServerSnapshot {
        let Router { endpoint, shared } = self;
        std::thread::scope(|scope| {
            scope.spawn(|| run_prober(&shared));
            reactor::serve(&shared, endpoint);
        });
        shared.core.snapshot()
    }
}

/// The background prober loop: every probe interval, one `STATS` exchange
/// per replica on a fresh connection, driving the breakers (see module
/// docs). Exits promptly on shutdown — the interval sleep is sliced.
fn run_prober(shared: &Shared) {
    if shared.probe_interval.is_zero() {
        return;
    }
    while !shared.core.shutdown.load(Ordering::SeqCst) {
        for (shard, group) in shared.shards.iter().enumerate() {
            for (replica, r) in group.iter().enumerate() {
                if shared.core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.metrics.probes.inc();
                let ok = probe_replica(shared, &r.addr);
                if !ok {
                    shared.metrics.probe_failures.inc();
                }
                shared.probe_outcome(shard, replica, ok);
            }
        }
        let deadline = Instant::now() + shared.probe_interval;
        loop {
            if shared.core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
        }
    }
}

/// One health probe: bounded connect, then one `STATS` exchange. The
/// `router.probe` failpoint (fail/refuse) forces a failure for tests.
fn probe_replica(shared: &Shared, addr: &str) -> bool {
    if matches!(
        failpoint::fire("router.probe"),
        Some(failpoint::Action::Fail | failpoint::Action::Refuse)
    ) {
        return false;
    }
    let Ok(mut client) =
        Client::connect_timeout_with(addr, shared.backend_timeout, Protocol::Binary)
    else {
        return false;
    };
    if client.set_read_timeout(Some(shared.backend_timeout)).is_err() {
        return false;
    }
    client.stats().is_ok()
}

/// One lazily-dialed backend connection pool, owned by one pool worker
/// (exchanges on a backend socket never interleave). Indexed
/// `[shard][replica]`.
struct BackendPool {
    conns: Vec<Vec<Option<Client>>>,
}

impl BackendPool {
    fn new(shards: &[Vec<Replica>]) -> Self {
        Self { conns: shards.iter().map(|group| group.iter().map(|_| None).collect()).collect() }
    }

    fn connect(
        &mut self,
        shared: &Shared,
        shard: usize,
        replica: usize,
    ) -> Result<&mut Client, String> {
        let addr = shared.shards[shard][replica].addr.as_str();
        if self.conns[shard][replica].is_none() {
            let mut client = Client::connect_with(addr, Protocol::Binary)
                .map_err(|e| format!("connect to {addr}: {e}"))?;
            client
                .set_read_timeout(Some(shared.backend_timeout))
                .map_err(|e| format!("configure {addr}: {e}"))?;
            self.conns[shard][replica] = Some(client);
        }
        Ok(self.conns[shard][replica].as_mut().expect("just connected"))
    }

    /// One `BATCH` exchange with `shard`, walking the replica group in
    /// breaker order: each replica gets one retry on a fresh connection, a
    /// double failure opens its breaker and fails over to the next replica.
    /// Only when every replica has failed does the client see an error.
    fn batch(
        &mut self,
        shared: &Shared,
        shard: usize,
        queries: &[(VertexId, VertexId, Quality)],
    ) -> Result<Vec<Option<Distance>>, String> {
        let order = shared.replica_order(shard);
        let mut last_err = String::new();
        for (nth, &replica) in order.iter().enumerate() {
            match self.batch_replica(shared, shard, replica, queries) {
                Ok(answers) => {
                    if nth > 0 {
                        shared.metrics.failovers.inc();
                    }
                    return Ok(answers);
                }
                Err(e) => last_err = e,
            }
        }
        let addrs: Vec<&str> = shared.shards[shard].iter().map(|r| r.addr.as_str()).collect();
        Err(format!("backend {shard} ({}) unavailable: {last_err}", addrs.join(", ")))
    }

    /// All chunks of one shard exchange against a single replica, with the
    /// retry-once-on-a-fresh-connection policy. Success closes the replica's
    /// breaker; a double failure opens it.
    fn batch_replica(
        &mut self,
        shared: &Shared,
        shard: usize,
        replica: usize,
        queries: &[(VertexId, VertexId, Quality)],
    ) -> Result<Vec<Option<Distance>>, String> {
        let mut answers = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(protocol::MAX_BATCH) {
            match self.try_batch(shared, shard, replica, chunk) {
                Ok(chunk_answers) => answers.extend(chunk_answers),
                Err(first) => {
                    shared.metrics.backend_errors[shard].inc();
                    shared.metrics.retries.inc();
                    match self.try_batch(shared, shard, replica, chunk) {
                        Ok(chunk_answers) => answers.extend(chunk_answers),
                        Err(second) => {
                            shared.metrics.backend_errors[shard].inc();
                            shared.set_breaker(shard, replica, BREAKER_OPEN);
                            return Err(format!("{second} (first attempt: {first})"));
                        }
                    }
                }
            }
        }
        shared.set_breaker(shard, replica, BREAKER_CLOSED);
        Ok(answers)
    }

    /// One attempt: connect if needed, exchange, and on failure drop the
    /// (possibly mid-reply) connection so the retry starts clean.
    fn try_batch(
        &mut self,
        shared: &Shared,
        shard: usize,
        replica: usize,
        chunk: &[(VertexId, VertexId, Quality)],
    ) -> Result<Vec<Option<Distance>>, String> {
        let t0 = Instant::now();
        shared.metrics.fanout.inc();
        shared.metrics.fanout_queries.add(chunk.len() as u64);
        shared.metrics.replica_requests[shard][replica].inc();
        let result = self.connect(shared, shard, replica).and_then(|client| client.batch(chunk));
        match result {
            Ok(answers) => {
                if shared.core.metrics.enabled {
                    shared.metrics.backend_us[shard].record_duration(t0.elapsed());
                }
                Ok(answers)
            }
            Err(e) => {
                self.conns[shard][replica] = None;
                Err(e)
            }
        }
    }
}

/// A router request that missed the result cache: the distinct misses a
/// pool worker scatters, and where their answers go.
struct Scatter {
    /// What the reply is made of.
    shape: Shape,
    /// Every query's answer, a miss's slot still empty.
    answers: Vec<Option<Distance>>,
    /// `(position in answers, index into misses)` of every cache miss.
    holes: Vec<(usize, usize)>,
    /// The distinct misses, in first-seen order.
    misses: Vec<Query>,
}

/// Which verb a [`Scatter`] answers.
#[derive(Clone, Copy)]
enum Shape {
    Query,
    Within(Distance),
    Batch,
}

impl Shape {
    fn reply(self, answers: Vec<Option<Distance>>) -> Reply {
        match self {
            Shape::Query => Reply::Dist(answers[0]),
            Shape::Within(d) => Reply::Bool(answers[0].is_some_and(|x| x <= d)),
            Shape::Batch => Reply::Batch(answers),
        }
    }
}

impl Shared {
    /// A point verb: inline from the result cache, else one scatter job.
    fn point(&self, s: VertexId, t: VertexId, w: Quality, shape: Shape) -> Answer<Scatter> {
        if let Err(reason) = check_range(self.overlay.num_vertices(), s, t) {
            return Answer::Reply(Reply::Err(reason));
        }
        match self.core.cache.get(&(ROUTER_EPOCH, s, t, w)) {
            Some(d) => Answer::Reply(match shape {
                Shape::Within(bound) => Reply::Bool(d.is_some_and(|x| x <= bound)),
                _ => Reply::Dist(d),
            }),
            None => Answer::Offload(Scatter {
                shape,
                answers: vec![None],
                holes: vec![(0, 0)],
                misses: vec![(s, t, w)],
            }),
        }
    }

    /// Scatter-gathers distinct misses and inserts their answers into the
    /// result cache.
    fn scatter_cached(
        &self,
        pool: &mut BackendPool,
        misses: &[Query],
    ) -> Result<Vec<Option<Distance>>, String> {
        let computed = scatter_batch(self, pool, misses)?;
        for (&(s, t, w), &answer) in misses.iter().zip(&computed) {
            self.core.cache.insert((ROUTER_EPOCH, s, t, w), answer);
        }
        Ok(computed)
    }
}

impl Service for Shared {
    type Job = Scatter;
    type Outcome = Reply;
    type Worker = BackendPool;

    fn core(&self) -> &Core {
        &self.core
    }

    fn query(&self, s: VertexId, t: VertexId, w: Quality) -> Answer<Scatter> {
        self.point(s, t, w, Shape::Query)
    }

    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> Answer<Scatter> {
        self.point(s, t, w, Shape::Within(d))
    }

    /// Range-checks the whole batch, then serves its cache hits; identical
    /// misses inside one batch are scattered once. Any backend failure later
    /// fails the whole batch — one `ERR` line, never a torn reply.
    fn batch(&self, queries: Vec<Query>, _idle: usize) -> Answer<Scatter> {
        for (i, &(s, t, _)) in queries.iter().enumerate() {
            if let Err(reason) = check_range(self.overlay.num_vertices(), s, t) {
                return Answer::Reply(Reply::Err(format!("batch line {}: {reason}", i + 1)));
            }
        }
        let (mut holes, mut misses, mut miss_of) = (Vec::new(), Vec::new(), HashMap::new());
        let answers = queries
            .iter()
            .enumerate()
            .map(|(at, &(s, t, w))| {
                self.core.cache.get(&(ROUTER_EPOCH, s, t, w)).unwrap_or_else(|| {
                    let miss = *miss_of.entry((s, t, w)).or_insert_with(|| {
                        misses.push((s, t, w));
                        misses.len() - 1
                    });
                    holes.push((at, miss));
                    None
                })
            })
            .collect();
        if holes.is_empty() {
            return Answer::Reply(Reply::Batch(answers));
        }
        Answer::Offload(Scatter { shape: Shape::Batch, answers, holes, misses })
    }

    fn reload(&self, _path: String) -> Answer<Scatter> {
        Answer::Reply(Reply::Err(
            "router serves a static overlay; RELOAD each backend directly".to_string(),
        ))
    }

    fn worker(&self) -> BackendPool {
        BackendPool::new(&self.shards)
    }

    fn run(
        &self,
        pool: &mut BackendPool,
        job: Scatter,
        picked: Option<Instant>,
    ) -> Option<(Reply, Option<Instant>)> {
        let Scatter { shape, mut answers, holes, misses } = job;
        let reply = match self.scatter_cached(pool, &misses) {
            Ok(computed) => {
                for (at, miss) in holes {
                    answers[at] = computed[miss];
                }
                shape.reply(answers)
            }
            Err(reason) => Reply::Err(reason),
        };
        Some((reply, picked))
    }

    fn complete(&self, reply: Reply) -> Reply {
        reply
    }

    fn render_metrics(&self) -> String {
        self.metrics.potential_cells.set(self.potentials.cells() as i64);
        self.core.render_metrics()
    }
}

/// Scatter-gathers distinct (range-checked) queries in the separable form:
/// one potential row per distinct `(v, w)` endpoint — from the potential
/// cache, else fetched as the equal-source run `(v, b, w)` over `v`'s shard
/// boundary (the `t` side too, since the graph is undirected) — plus the one
/// direct `(s, t, w)` of each same-shard query, all in one `BATCH` per shard.
/// Rows are cached only once every exchange has come back whole.
fn scatter_batch(
    shared: &Shared,
    pool: &mut BackendPool,
    queries: &[(VertexId, VertexId, Quality)],
) -> Result<Vec<Option<Distance>>, String> {
    let overlay = &shared.overlay;
    let mut endpoints: Vec<(VertexId, Quality)> =
        queries.iter().flat_map(|&(s, t, w)| [(s, w), (t, w)]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    let mut rows: Vec<Option<Arc<[Distance]>>> =
        endpoints.iter().map(|&(v, w)| shared.potentials.get(&potential_key(v, w))).collect();

    // What to ask each shard, and where in its reply each missing row
    // `(endpoint, shard, offset)` and each direct answer `(shard, offset)` sits.
    let mut per_shard = vec![Vec::new(); overlay.num_shards()];
    let mut missing = Vec::new();
    for (i, &(v, w)) in endpoints.iter().enumerate() {
        if rows[i].is_none() {
            let shard = overlay.shard_of(v);
            let qs = &mut per_shard[shard as usize];
            missing.push((i, shard, qs.len()));
            qs.extend(overlay.shard_boundary(shard).iter().map(|&b| (v, b, w)));
        }
    }
    let direct_at: Vec<Option<(usize, usize)>> = queries
        .iter()
        .map(|&(s, t, w)| {
            let shard = overlay.shard_of(s) as usize;
            (shard == overlay.shard_of(t) as usize).then(|| {
                per_shard[shard].push((s, t, w));
                (shard, per_shard[shard].len() - 1)
            })
        })
        .collect();

    let mut fetched = Vec::with_capacity(per_shard.len());
    for (shard, qs) in per_shard.iter().enumerate() {
        let answers = if qs.is_empty() { Vec::new() } else { pool.batch(shared, shard, qs)? };
        if answers.len() != qs.len() {
            return Err(format!(
                "shard {shard} answered {} of {} queries",
                answers.len(),
                qs.len()
            ));
        }
        fetched.push(answers);
    }
    for (i, shard, at) in missing {
        let (v, w) = endpoints[i];
        let row = &fetched[shard as usize][at..at + overlay.shard_boundary(shard).len()];
        let row: Arc<[Distance]> = overlay.potentials(shard, w, row)?.into();
        shared.potentials.insert(potential_key(v, w), Arc::clone(&row));
        rows[i] = Some(row);
    }
    let row = |v, w| {
        let i = endpoints.binary_search(&(v, w)).expect("every endpoint was collected");
        rows[i].as_deref().expect("every row was found or fetched")
    };
    Ok(queries
        .iter()
        .zip(direct_at)
        .map(|(&(s, t, w), at)| {
            let direct = at.and_then(|(shard, at)| fetched[shard][at]);
            OverlayIndex::compose(direct, row(s, w), row(t, w))
        })
        .collect())
}

/// Convenience for tests and the CLI: loads per-shard `WCIF` snapshots and
/// validates them against the overlay (shard count and the global-id vertex
/// range), returning what `wcsd-cli route` prints on mismatch.
pub fn validate_backend_snapshot(
    overlay: &OverlayIndex,
    shard: usize,
    index: &FlatIndex,
) -> Result<(), String> {
    if shard >= overlay.num_shards() {
        return Err(format!("shard {shard} out of range for {} shards", overlay.num_shards()));
    }
    if index.num_vertices() != overlay.num_vertices() {
        return Err(format!(
            "shard {shard} snapshot covers {} vertices, overlay covers {} \
             (shard snapshots keep global ids)",
            index.num_vertices(),
            overlay.num_vertices()
        ));
    }
    Ok(())
}
