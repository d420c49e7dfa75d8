//! # wcsd-server — a long-lived concurrent query service over a WC-INDEX
//!
//! The paper's value proposition is microsecond `Query⁺` answers from an
//! immutable in-memory index; this crate puts that index behind a daemon so
//! the graph and index are loaded **once** and then serve arbitrarily many
//! queries, instead of the one-shot `wcsd-cli query` flow that reloads both
//! from disk per invocation.
//!
//! * [`server::Server`] — binds the listener and owns the shared state:
//!   the swappable `Arc<`[`wcsd_core::FlatIndex`]`>` snapshot slot (hot
//!   reloadable via the `RELOAD` verb, generation-tagged), the result
//!   cache, and the counters behind `STATS`.
//! * `reactor` *(private module)* — the event-loop core: nonblocking sockets
//!   multiplexed through a minimal `poll(2)` wrapper, per-connection
//!   read/parse/execute/write state machines, and a bounded worker pool
//!   for `BATCH` answering and `RELOAD` snapshot decoding. The pool is the
//!   only level of query parallelism (a large batch is split across idle
//!   workers, never across spawned threads). Connections scale with file
//!   descriptors, not threads.
//! * [`protocol`] — the newline-delimited text protocol (`QUERY`, `BATCH`,
//!   `WITHIN`, `STATS`, `RELOAD`, `SHUTDOWN`) and the protocol-neutral
//!   [`protocol::Reply`] type.
//! * [`binary`] — the length-prefixed binary protocol, negotiated by magic
//!   byte on the first bytes of a connection; same verbs, fixed-width
//!   little-endian fields.
//! * [`cache::ResultCache`] — a sharded LRU result cache keyed on
//!   `(generation, s, t, w)` with lock-free hit/miss accounting; the
//!   generation tag keeps it coherent across hot reloads.
//! * [`failpoint`] — deterministic fault injection at named sites
//!   (env-configured via `WCSD_FAILPOINTS`, or armed programmatically by the
//!   chaos tests): delays, injected failures, refused accepts, and torn
//!   partial writes, all reproducible and std-only.
//! * `metrics` *(private module)* — the observability surface behind the
//!   `METRICS` verb: per-verb request counters, per-phase latency
//!   histograms, reload phase timings, and the slow-query trace log, all
//!   recorded into a [`wcsd_obs::Registry`] and rendered as Prometheus text
//!   exposition. Counter/histogram reconciliation is by construction (every
//!   request-level sample lands on the reactor thread).
//! * [`client::Client`] — a small blocking client speaking either wire
//!   protocol, used by the CLI, the bench load generator, and the
//!   integration tests.
//!
//! ## Quickstart
//!
//! ```
//! use wcsd_core::IndexBuilder;
//! use wcsd_graph::generators::paper_figure3;
//! use wcsd_server::{Client, Server, ServerConfig};
//!
//! let index = IndexBuilder::wc_index_plus().build(&paper_figure3());
//! let server = Server::bind(index, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! assert_eq!(client.query(2, 5, 2), Ok(Some(2)));   // Example 3 of the paper
//! assert_eq!(client.query(2, 5, 99), Ok(None));     // unsatisfiable constraint
//! client.shutdown().unwrap();
//! let summary = handle.join().unwrap();
//! assert_eq!(summary.queries, 2);
//! ```

#![warn(missing_docs)]
// Everything is safe Rust except the audited FFI wrappers in `reactor::sys`
// (`poll(2)` and the `SO_REUSEADDR` listener setup), which carry their own
// narrow `allow`s.
#![deny(unsafe_code)]

pub mod binary;
pub mod cache;
pub mod client;
pub mod failpoint;
mod metrics;
pub mod protocol;
mod reactor;
pub mod router;
pub mod server;

pub use cache::ResultCache;
pub use client::{Client, Protocol};
pub use protocol::{ReloadInfo, Reply, Request};
pub use router::{Router, RouterConfig};
pub use server::{
    load_newest_valid_snapshot, write_snapshot_atomic, Server, ServerConfig, ServerSnapshot,
};
