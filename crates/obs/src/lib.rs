//! # wcsd-obs — the workspace's measurement substrate
//!
//! Every layer of the serving stack needs to answer "where does the time
//! go?" — per-verb request latency in the reactor, decode-vs-swap time in a
//! `RELOAD`, sweep vs. finalize time in an index build.
//! This crate is the one place that machinery lives, with zero dependencies
//! (std only, like the rest of the workspace):
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics for monotonic counts and
//!   instantaneous levels.
//! * [`Histogram`] — a fixed-bucket log-scale latency histogram (16 exact
//!   buckets for 0..16, then four sub-buckets per power-of-two octave,
//!   ≤ 25 % relative error). Recording is three relaxed atomic ops; the
//!   bucket *counts* are the source of truth, so a snapshot's `count()`
//!   always reconciles exactly with its buckets. Quantile readout uses the
//!   same ceil-based nearest rank as `wcsd_bench`'s `percentile`, so a
//!   histogram of values recorded at bucket upper bounds reproduces the
//!   exact percentiles.
//! * [`Registry`] — a named, label-aware metric registry rendering
//!   Prometheus text exposition (`# HELP`/`# TYPE`, cumulative
//!   `_bucket{le=...}`, `_sum`, `_count`), behind the server's `METRICS`
//!   verb. Handles are `Arc`s resolved once and recorded through directly,
//!   so the hot path never touches the registry lock.
//! * [`Tracer`] — a bounded ring buffer of structured events ([`Span`]
//!   scoped timers record phase durations on drop), dumpable as JSON; the
//!   slow-query log behind `METRICS?recent` rides on it.
//! * [`scrape`] — a minimal parser for the Prometheus text format, so the
//!   load generator can diff two `METRICS` scrapes and report server-side
//!   latency next to the client-observed numbers.
//!
//! A process-global registry ([`global()`]) collects instrumentation from
//! layers that have no natural owner (index builds, update settles);
//! components with a clear scope (one server) own a private [`Registry`] so
//! tests and multi-server processes stay isolated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
pub mod scrape;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::Registry;
pub use trace::{Span, TraceEvent, Tracer};

use std::sync::{Arc, OnceLock};

/// The process-global registry: instrumentation from layers without a
/// natural scope (core index builds, parallel sweeps, update settles,
/// the freshness feed) lands here. Servers own private registries; the CLI
/// `serve` front end passes this one in so a served process exposes the
/// whole stack through one `METRICS` scrape.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Escapes a string for embedding in a JSON string literal (the workspace is
/// registry-free, so JSON is hand-rolled here exactly like in `wcsd-bench`).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        let c1 = a.counter("wcsd_obs_selftest_total", "self test");
        let c2 = b.counter("wcsd_obs_selftest_total", "self test");
        c1.inc();
        assert_eq!(c2.get(), 1);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
