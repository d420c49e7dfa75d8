//! Exp 10 (ours): observability — per-phase latency attribution and the
//! measured cost of the instrumentation itself.
//!
//! Two measurements against live in-process servers on a synthetic road
//! subset:
//!
//! 1. **Phase attribution.** One server runs with metrics on and a
//!    `--slow-query-ms 0` log; a loadgen workload, one decremental repair and
//!    one `RELOAD` are driven through it, then a single `METRICS` scrape is
//!    decomposed into the parse/queue/execute/write request phases, the
//!    decode/swap reload phases, the scan/resweep repair phases and the
//!    order/sweep/finalize build phases — the full lifecycle of a query, a
//!    hot reload and a repair, attributed from one Prometheus payload.
//! 2. **Instrumentation overhead.** The same loadgen workload is replayed
//!    against a metrics-on and a metrics-off (`--no-metrics` equivalent)
//!    server — interleaved, best-of-`reps` each — at batch 0 (per-request
//!    instrumentation worst case) and at batch 16 (the `loadgen --small`
//!    preset shape); the overhead is `1 - qps_on / qps_off`. With
//!    `--max-overhead R` the binary exits non-zero when the batch-16
//!    overhead exceeds `R`, so CI can guard the hot path against
//!    instrumentation regressions.
//!
//! Usage: `exp10_observability [--small] [--reps N] [--json <path>]
//! [--max-overhead R]`

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use wcsd_bench::loadgen::{self, LoadgenConfig};
use wcsd_bench::report::{json_string, to_json, JsonRecord};
use wcsd_bench::{Dataset, QueryWorkload, Scale};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::flat::FlatIndex;
use wcsd_core::IndexBuilder;
use wcsd_graph::Graph;
use wcsd_obs::scrape::Scrape;
use wcsd_server::{Client, Protocol, Server, ServerConfig};

/// One dataset's attribution + overhead record.
struct Exp10Result {
    dataset: String,
    queries: usize,
    /// Request-phase p50s from the attribution scrape, microseconds.
    parse_p50_us: f64,
    queue_p50_us: f64,
    execute_p50_us: f64,
    execute_p99_us: f64,
    write_p50_us: f64,
    /// Single-shot reload phases, microseconds.
    reload_decode_us: f64,
    reload_swap_us: f64,
    /// Single-shot decremental repair phases, microseconds.
    repair_scan_us: f64,
    repair_resweep_us: f64,
    /// Build phases of the in-process index construction, microseconds.
    build_order_us: f64,
    build_sweep_us: f64,
    build_finalize_us: f64,
    /// Slow-query events captured by the `slow_query_ms = 0` trace ring.
    slow_query_events: usize,
    /// Best-of-`reps` throughput with metrics recording on / off, for
    /// individual queries (batch 0: per-request instrumentation worst case)
    /// and for the `loadgen --small` batch size (16: the acceptance bar).
    qps_on_batch0: f64,
    qps_off_batch0: f64,
    qps_on_batch16: f64,
    qps_off_batch16: f64,
    /// `1 - qps_on / qps_off`, clamped at 0 (negative = noise).
    overhead_batch0: f64,
    overhead_batch16: f64,
}

impl JsonRecord for Exp10Result {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        fn f(v: f64) -> String {
            format!("{v:.3}")
        }
        vec![
            ("dataset", json_string(&self.dataset)),
            ("queries", self.queries.to_string()),
            ("parse_p50_us", f(self.parse_p50_us)),
            ("queue_p50_us", f(self.queue_p50_us)),
            ("execute_p50_us", f(self.execute_p50_us)),
            ("execute_p99_us", f(self.execute_p99_us)),
            ("write_p50_us", f(self.write_p50_us)),
            ("reload_decode_us", f(self.reload_decode_us)),
            ("reload_swap_us", f(self.reload_swap_us)),
            ("repair_scan_us", f(self.repair_scan_us)),
            ("repair_resweep_us", f(self.repair_resweep_us)),
            ("build_order_us", f(self.build_order_us)),
            ("build_sweep_us", f(self.build_sweep_us)),
            ("build_finalize_us", f(self.build_finalize_us)),
            ("slow_query_events", self.slow_query_events.to_string()),
            ("qps_on_batch0", f(self.qps_on_batch0)),
            ("qps_off_batch0", f(self.qps_off_batch0)),
            ("qps_on_batch16", f(self.qps_on_batch16)),
            ("qps_off_batch16", f(self.qps_off_batch16)),
            ("overhead_batch0", format!("{:.4}", self.overhead_batch0)),
            ("overhead_batch16", format!("{:.4}", self.overhead_batch16)),
        ]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!(
                "usage: exp10_observability [--small] [--reps N] [--json <path>] \
                 [--max-overhead R]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let small = args.iter().any(|a| a == "--small");
    let reps: usize = wcsd_cliutil::flag_value(args, "--reps")?.unwrap_or(3);
    let json_path: Option<String> = wcsd_cliutil::flag_value(args, "--json")?;
    let max_overhead: Option<f64> = wcsd_cliutil::flag_value(args, "--max-overhead")?;
    let scale = if small { Scale::Tiny } else { Scale::Small };
    let queries = if small { 600 } else { 4_000 };

    let dataset = Dataset::road_suite(scale).into_iter().next().expect("road suite non-empty");
    let g = dataset.generate();
    eprintln!("[exp10] {} : |V|={} |E|={}", dataset.name, g.num_vertices(), g.num_edges());
    let workload = QueryWorkload::uniform(&g, queries, 0xA11CE);

    let result = measure(&dataset.name, &g, &workload, reps)?;
    println!(
        "{}: query phases p50 parse/queue/execute/write = {:.1}/{:.1}/{:.1}/{:.1} µs \
         (execute p99 {:.1} µs)",
        result.dataset,
        result.parse_p50_us,
        result.queue_p50_us,
        result.execute_p50_us,
        result.write_p50_us,
        result.execute_p99_us
    );
    println!(
        "{}: reload decode/swap = {:.1}/{:.1} µs, repair scan/resweep = {:.1}/{:.1} µs, \
         build order/sweep/finalize = {:.1}/{:.1}/{:.1} µs",
        result.dataset,
        result.reload_decode_us,
        result.reload_swap_us,
        result.repair_scan_us,
        result.repair_resweep_us,
        result.build_order_us,
        result.build_sweep_us,
        result.build_finalize_us
    );
    println!(
        "{}: {} slow-query events; overhead batch 0: {:.0} on vs {:.0} off qps ({:.1}%), \
         batch 16: {:.0} on vs {:.0} off qps ({:.1}%)",
        result.dataset,
        result.slow_query_events,
        result.qps_on_batch0,
        result.qps_off_batch0,
        100.0 * result.overhead_batch0,
        result.qps_on_batch16,
        result.qps_off_batch16,
        100.0 * result.overhead_batch16
    );
    // The guard applies to the `--small`-preset shape (batch 16); the batch-0
    // number is reported as the per-request worst case.
    let over_budget = max_overhead.is_some_and(|limit| result.overhead_batch16 > limit);
    if over_budget {
        eprintln!(
            "exp10: batch-16 overhead {:.1}% exceeds --max-overhead {:.1}%",
            100.0 * result.overhead_batch16,
            100.0 * max_overhead.unwrap_or(0.0)
        );
    }
    let json = to_json(&[result]);
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(if over_budget { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Runs both measurements on one graph and assembles the record.
fn measure(
    name: &str,
    g: &Graph,
    workload: &QueryWorkload,
    reps: usize,
) -> Result<Exp10Result, String> {
    let (scrape, traces) = attribution_run(name, g, workload)?;
    // Interleave the on/off reps so slow drift on a shared container biases
    // both sides equally; best-of-reps on each side.
    let index = Arc::new(FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(g)));
    let mut best = [[0.0f64; 2]; 2]; // [batch_idx][on/off]
    for _ in 0..reps.max(1) {
        for (bi, batch) in [0usize, 16].into_iter().enumerate() {
            for (ei, enabled) in [true, false].into_iter().enumerate() {
                let qps = throughput_rep(name, &index, workload, batch, enabled)?;
                best[bi][ei] = best[bi][ei].max(qps);
            }
        }
    }
    let overhead = |on: f64, off: f64| if off > 0.0 { (1.0 - on / off).max(0.0) } else { 0.0 };

    let phase_p50 = |phase: &str| {
        let phase_label = format!("phase=\"{phase}\"");
        let filter: [&str; 2] = [r#"proto="text""#, &phase_label];
        scrape.histogram("wcsd_request_phase_us", &filter).quantile(0.50)
    };
    // Single-shot phases (one reload, one repair, one build per run): the
    // histogram mean over one sample is the sample itself.
    let single = |metric: &str, phase: &str| {
        scrape.histogram(metric, &[&format!("phase=\"{phase}\"")]).mean()
    };
    Ok(Exp10Result {
        dataset: name.to_string(),
        queries: workload.queries().len(),
        parse_p50_us: phase_p50("parse"),
        queue_p50_us: phase_p50("queue"),
        execute_p50_us: phase_p50("execute"),
        execute_p99_us: {
            let filter = [r#"proto="text""#, r#"phase="execute""#];
            scrape.histogram("wcsd_request_phase_us", &filter).quantile(0.99)
        },
        write_p50_us: phase_p50("write"),
        reload_decode_us: single("wcsd_reload_phase_us", "decode"),
        reload_swap_us: single("wcsd_reload_phase_us", "swap"),
        repair_scan_us: single("wcsd_repair_phase_us", "scan"),
        repair_resweep_us: single("wcsd_repair_phase_us", "resweep"),
        build_order_us: single("wcsd_build_phase_us", "order"),
        build_sweep_us: single("wcsd_build_phase_us", "sweep"),
        build_finalize_us: single("wcsd_build_phase_us", "finalize"),
        slow_query_events: traces.matches("\"slow_query\"").count(),
        qps_on_batch0: best[0][0],
        qps_off_batch0: best[0][1],
        qps_on_batch16: best[1][0],
        qps_off_batch16: best[1][1],
        overhead_batch0: overhead(best[0][0], best[0][1]),
        overhead_batch16: overhead(best[1][0], best[1][1]),
    })
}

/// Drives the attribution server: loadgen traffic, one decremental repair,
/// one `RELOAD` of the repaired snapshot, then one `METRICS` scrape plus the
/// trace ring. Uses the process-global registry so the in-process build and
/// repair phase samples land in the same scrape as the serving metrics.
fn attribution_run(
    name: &str,
    g: &Graph,
    workload: &QueryWorkload,
) -> Result<(Scrape, String), String> {
    let mut dyn_idx = DynamicWcIndex::new(g, IndexBuilder::wc_index_plus());
    dyn_idx.set_repair_threshold(1.0);
    let config = ServerConfig {
        slow_query_ms: Some(0),
        registry: Some(wcsd_obs::global().clone()),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_flat(dyn_idx.freeze(), config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // Two passes: individual queries exercise the inline execute path,
    // batches exercise the worker offload (queue-phase samples).
    for batch_size in [0usize, 16] {
        let lg = LoadgenConfig {
            connections: 2,
            batch_size,
            connect_timeout: Duration::from_secs(10),
            protocol: Protocol::Text,
            rate_qps: 0.0,
        };
        loadgen::run_against(&addr, name, workload, &lg)?;
    }

    // One decremental repair (scan + resweep samples) ...
    let edge = g.edges().next().ok_or("graph has no edges")?;
    if !dyn_idx.remove_edge(edge.u, edge.v) {
        return Err("sampled edge vanished".to_string());
    }
    // ... and one RELOAD of the repaired snapshot (decode + swap samples).
    let flat: Arc<FlatIndex> = dyn_idx.freeze();
    let path = std::env::temp_dir().join(format!("wcsd-exp10-{}-{name}.fidx", std::process::id()));
    std::fs::write(&path, flat.encode()).map_err(|e| format!("cannot write snapshot: {e}"))?;
    let path_str = path.to_str().ok_or("non-UTF-8 temp path")?;

    let mut admin = Client::connect_retry_with(&*addr, Duration::from_secs(10), Protocol::Binary)
        .map_err(|e| format!("cannot connect: {e}"))?;
    admin.reload(path_str)?;
    let scrape = Scrape::parse(&admin.metrics(false)?);
    let traces = admin.metrics(true)?;
    admin.shutdown()?;
    handle.join().map_err(|_| "server thread panicked".to_string())?;
    std::fs::remove_file(&path).ok();
    Ok((scrape, traces))
}

/// One loadgen throughput measurement against a fresh server with metrics
/// recording on or off (counters stay on either way — `off` is the
/// `--no-metrics` no-op baseline). Private registries keep these runs out of
/// the attribution scrape.
fn throughput_rep(
    name: &str,
    index: &Arc<FlatIndex>,
    workload: &QueryWorkload,
    batch_size: usize,
    metrics_enabled: bool,
) -> Result<f64, String> {
    let config = ServerConfig { metrics_enabled, ..ServerConfig::default() };
    let server =
        Server::bind_flat(Arc::clone(index), config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let lg = LoadgenConfig {
        connections: 2,
        batch_size,
        connect_timeout: Duration::from_secs(10),
        protocol: Protocol::Text,
        rate_qps: 0.0,
    };
    let (result, _) = loadgen::run_against(&addr, name, workload, &lg)?;
    let mut admin =
        Client::connect(&*addr).map_err(|e| format!("cannot connect for shutdown: {e}"))?;
    admin.shutdown()?;
    handle.join().map_err(|_| "server thread panicked".to_string())?;
    if result.errors > 0 {
        return Err(format!("{} loadgen errors during overhead run", result.errors));
    }
    Ok(result.throughput_qps)
}
