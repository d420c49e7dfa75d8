//! The server's metric surface: every counter, gauge, and histogram the
//! reactor records, resolved once at bind time into `Arc` handles so the hot
//! path never touches the registry lock.
//!
//! ## Reconciliation by construction
//!
//! The acceptance bar for `METRICS` is that its histograms reconcile
//! *exactly* with the verb counters inside any single scrape, even under
//! concurrent load. That property is not enforced by locking but by thread
//! placement: every per-verb counter and every `execute` histogram sample is
//! mutated **only on the reactor thread** — inline verbs at execution, batch
//! and reload completions in `apply_completion` (workers measure durations
//! and ship them back in `Done`) — and `METRICS` renders on that same
//! thread. Within one rendered payload, `sum(wcsd_requests_total{proto=p})`
//! therefore equals `wcsd_request_phase_us_count{proto=p,phase="execute"}`
//! whenever timing is enabled: the two are incremented together with no
//! concurrent mutator.
//!
//! Counters are always recorded (they back `STATS`, which must work with
//! metrics off); `Instant` reads, histogram samples, and trace events are
//! gated on [`ServerMetrics::enabled`] so a `--no-metrics` server is the
//! no-op baseline the instrumentation-overhead bench compares against.

use std::sync::Arc;
use std::time::Instant;
use wcsd_obs::{Counter, Gauge, Histogram, Registry};

/// Verb indices into [`ServerMetrics::verbs`].
pub(crate) const VERB_QUERY: usize = 0;
pub(crate) const VERB_WITHIN: usize = 1;
pub(crate) const VERB_BATCH: usize = 2;
pub(crate) const VERB_STATS: usize = 3;
pub(crate) const VERB_METRICS: usize = 4;
pub(crate) const VERB_RELOAD: usize = 5;
pub(crate) const VERB_SHUTDOWN: usize = 6;
pub(crate) const VERB_LABELS: [&str; 7] =
    ["query", "within", "batch", "stats", "metrics", "reload", "shutdown"];

/// Protocol indices into the per-protocol metric arrays.
pub(crate) const PROTO_TEXT: usize = 0;
pub(crate) const PROTO_BINARY: usize = 1;
pub(crate) const PROTO_LABELS: [&str; 2] = ["text", "binary"];

/// Phase indices into [`ServerMetrics::phases`].
pub(crate) const PHASE_PARSE: usize = 0;
pub(crate) const PHASE_QUEUE: usize = 1;
pub(crate) const PHASE_EXECUTE: usize = 2;
pub(crate) const PHASE_WRITE: usize = 3;
const PHASE_LABELS: [&str; 4] = ["parse", "queue", "execute", "write"];

/// All metric handles the server records through, plus the gating flags.
pub(crate) struct ServerMetrics {
    /// The registry `METRICS` renders. Shared with the process-global one
    /// when the operator wires it that way (`wcsd-cli serve`).
    pub(crate) registry: Arc<Registry>,
    /// Histogram + tracer recording on/off (`--no-metrics` turns it off).
    pub(crate) enabled: bool,
    /// Inline requests at least this slow emit a `slow_query` trace event.
    pub(crate) slow_query_us: Option<u64>,
    /// Whether request paths take `Instant` readings at all.
    timed: bool,

    pub(crate) connections: Arc<Counter>,
    pub(crate) live_connections: Arc<Gauge>,
    pub(crate) proto_connections: [Arc<Counter>; 2],
    pub(crate) reloads: Arc<Counter>,
    pub(crate) queries: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) batch_queries: Arc<Counter>,
    /// `BATCH` requests answered in more than one part across idle workers.
    pub(crate) batch_splits: Arc<Counter>,
    pub(crate) errors: [Arc<Counter>; 2],
    /// Requests shed with a busy reply because the pending-job queue was
    /// full, by protocol.
    pub(crate) shed: [Arc<Counter>; 2],
    /// Jobs currently queued or executing in the worker pool (admission
    /// control sheds new offloaded work once this hits the configured cap).
    pub(crate) pending_jobs: Arc<Gauge>,
    pub(crate) slow_queries: Arc<Counter>,
    /// `[proto][verb]` request counters.
    pub(crate) verbs: [[Arc<Counter>; 7]; 2],
    /// `[proto][phase]` latency histograms (microseconds).
    pub(crate) phases: [[Arc<Histogram>; 4]; 2],
    pub(crate) reload_decode_us: Arc<Histogram>,
    pub(crate) reload_swap_us: Arc<Histogram>,
    pub(crate) workers_busy: Arc<Gauge>,
    pub(crate) generation: Arc<Gauge>,
    pub(crate) index_vertices: Arc<Gauge>,
    pub(crate) index_entries: Arc<Gauge>,
    pub(crate) uptime_ms: Arc<Gauge>,
}

impl ServerMetrics {
    pub(crate) fn new(
        registry: Arc<Registry>,
        enabled: bool,
        slow_query_ms: Option<u64>,
        worker_pool_size: usize,
        cache_capacity: usize,
        max_pending_jobs: usize,
    ) -> Self {
        let slow_query_us = slow_query_ms.map(|ms| ms.saturating_mul(1000));
        let verbs = std::array::from_fn(|p| {
            std::array::from_fn(|v| {
                registry.counter_with(
                    "wcsd_requests_total",
                    &[("proto", PROTO_LABELS[p]), ("verb", VERB_LABELS[v])],
                    "Requests executed, by protocol and verb",
                )
            })
        });
        let phases = std::array::from_fn(|p| {
            std::array::from_fn(|ph| {
                registry.histogram_with(
                    "wcsd_request_phase_us",
                    &[("proto", PROTO_LABELS[p]), ("phase", PHASE_LABELS[ph])],
                    "Request phase latency in microseconds (write samples count \
                     socket flushes, not requests)",
                )
            })
        });
        let proto_connections = std::array::from_fn(|p| {
            registry.counter_with(
                "wcsd_proto_connections_total",
                &[("proto", PROTO_LABELS[p])],
                "Connections by negotiated protocol",
            )
        });
        let errors = std::array::from_fn(|p| {
            registry.counter_with(
                "wcsd_request_errors_total",
                &[("proto", PROTO_LABELS[p])],
                "Requests rejected with an ERR reply",
            )
        });
        let shed = std::array::from_fn(|p| {
            registry.counter_with(
                "wcsd_shed_total",
                &[("proto", PROTO_LABELS[p])],
                "Requests shed with a busy reply because the pending-job queue was full",
            )
        });
        registry
            .gauge("wcsd_pending_jobs_limit", "Configured pending-job admission cap")
            .set(max_pending_jobs as i64);
        registry
            .gauge("wcsd_worker_pool_size", "Configured batch worker threads")
            .set(worker_pool_size as i64);
        registry
            .gauge("wcsd_cache_capacity", "Configured result cache capacity in entries")
            .set(cache_capacity as i64);
        Self {
            enabled,
            slow_query_us,
            timed: enabled || slow_query_us.is_some(),
            connections: registry.counter("wcsd_connections_total", "Connections accepted"),
            live_connections: registry.gauge("wcsd_live_connections", "Connections currently open"),
            proto_connections,
            reloads: registry.counter("wcsd_reloads_total", "Snapshot reloads served"),
            queries: registry
                .counter("wcsd_queries_total", "Point requests answered (QUERY and WITHIN)"),
            batches: registry.counter("wcsd_batches_total", "BATCH requests answered"),
            batch_queries: registry
                .counter("wcsd_batch_queries_total", "Individual queries answered inside batches"),
            batch_splits: registry.counter(
                "wcsd_batch_splits_total",
                "BATCH requests split into parts across idle workers",
            ),
            errors,
            shed,
            pending_jobs: registry
                .gauge("wcsd_pending_jobs", "Jobs queued or executing in the worker pool"),
            slow_queries: registry.counter(
                "wcsd_slow_queries_total",
                "Requests at or above the slow-query threshold",
            ),
            verbs,
            phases,
            reload_decode_us: registry.histogram_with(
                "wcsd_reload_phase_us",
                &[("phase", "decode")],
                "RELOAD phase latency in microseconds",
            ),
            reload_swap_us: registry.histogram_with(
                "wcsd_reload_phase_us",
                &[("phase", "swap")],
                "RELOAD phase latency in microseconds",
            ),
            workers_busy: registry
                .gauge("wcsd_workers_busy", "Batch workers currently executing a job"),
            generation: registry
                .gauge("wcsd_generation", "Generation of the snapshot being served"),
            index_vertices: registry
                .gauge("wcsd_index_vertices", "Vertices covered by the served snapshot"),
            index_entries: registry
                .gauge("wcsd_index_entries", "Label entries in the served snapshot"),
            uptime_ms: registry.gauge("wcsd_uptime_ms", "Milliseconds since the server started"),
            registry,
        }
    }

    /// Starts a phase/request timer — `None` when nothing downstream would
    /// consume it, so a `--no-metrics` server skips the clock reads too.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// Records one phase sample from a [`Self::timer`] reading.
    #[inline]
    pub(crate) fn phase(&self, proto: usize, phase: usize, started: Option<Instant>) {
        if self.enabled {
            if let Some(t0) = started {
                self.phases[proto][phase].record_duration(t0.elapsed());
            }
        }
    }

    /// Records one phase sample from a duration already measured elsewhere
    /// (worker-side batch/reload timings shipped back in `Done`).
    #[inline]
    pub(crate) fn phase_us(&self, proto: usize, phase: usize, us: u64) {
        if self.enabled {
            self.phases[proto][phase].record(us);
        }
    }

    /// Finishes one executed request: bumps its verb counter and, when
    /// timing is on, records the `execute` phase and checks the slow-query
    /// threshold. `detail` is only rendered for a slow-query event.
    pub(crate) fn finish_request(
        &self,
        proto: usize,
        verb: usize,
        started: Option<Instant>,
        detail: impl FnOnce() -> String,
    ) {
        self.verbs[proto][verb].inc();
        let Some(t0) = started else { return };
        let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        if self.enabled {
            self.phases[proto][PHASE_EXECUTE].record(us);
        }
        if let Some(limit) = self.slow_query_us {
            if us >= limit && matches!(verb, VERB_QUERY | VERB_WITHIN | VERB_BATCH) {
                self.slow_queries.inc();
                self.registry.tracer().record("slow_query", &detail(), us);
            }
        }
    }

    /// Finishes a worker-executed request whose durations were measured on
    /// the worker: verb counter plus queue/execute samples, all recorded on
    /// the reactor thread (see module docs). `detail` is only rendered for a
    /// slow-query event.
    pub(crate) fn finish_offloaded(
        &self,
        proto: usize,
        verb: usize,
        timing: Option<(u64, u64)>,
        detail: impl FnOnce() -> String,
    ) {
        self.verbs[proto][verb].inc();
        if let Some((queue_us, exec_us)) = timing {
            self.phase_us(proto, PHASE_QUEUE, queue_us);
            self.phase_us(proto, PHASE_EXECUTE, exec_us);
            if let Some(limit) = self.slow_query_us {
                if exec_us >= limit && verb == VERB_BATCH {
                    self.slow_queries.inc();
                    self.registry.tracer().record("slow_query", &detail(), exec_us);
                }
            }
        }
    }
}
