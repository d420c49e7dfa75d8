//! Exp 11 (ours): sharded serving — scatter-gather router over partitioned
//! indexes, 1-vs-N shards.
//!
//! The same loadgen workload is driven through four serving topologies on
//! one road and one social dataset:
//!
//! * **direct** — one reactor over the full unsharded index (the Exp 8
//!   baseline shape);
//! * **router ×1** — the router fronting a single shard holding the whole
//!   graph, isolating the pure cost of the extra network hop and the
//!   scatter-gather machinery;
//! * **router ×2 / ×4** — genuine partitions, where queries compose through
//!   the boundary overlay. Each runs twice: **warm** (the default
//!   `--cache-size`, so endpoint potential rows are cached as the workload
//!   touches them) and **cold** (`--cache-size 0`: every batch refetches
//!   every row, the cost a query pays for an endpoint the router has not
//!   seen or could not keep).
//!
//! Every sharded run's answer vector is asserted **bit-identical** to the
//! direct run's before any number is reported, so the table cannot contain
//! fast-but-wrong configurations. Reported per topology: throughput, client
//! p50/p99, the partition's boundary/overlay footprint, and the average
//! per-client-query backend fan-out and the potential-cache hit rate, both
//! from the router's own counters.
//!
//! Usage: `exp11_sharding [--small] [--reps N] [--json <path>]`

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use wcsd_bench::loadgen::{self, LoadgenConfig};
use wcsd_bench::report::{json_string, to_json, JsonRecord};
use wcsd_bench::{Dataset, QueryWorkload, Scale};
use wcsd_core::overlay::ShardedIndex;
use wcsd_core::{FlatIndex, IndexBuilder};
use wcsd_graph::Partition;
use wcsd_obs::scrape::Scrape;
use wcsd_server::{Client, Protocol, Router, RouterConfig, Server, ServerConfig, ServerSnapshot};

/// One (dataset, topology) measurement.
struct Exp11Result {
    dataset: String,
    /// `"direct"`, `"router x<k>"` or `"router x<k> cold"`.
    topology: String,
    shards: usize,
    /// Boundary vertices and overlay edges (0 for the direct topology).
    boundary: usize,
    overlay_edges: usize,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Average backend queries fanned out per client query (router runs).
    fanout_per_query: f64,
    /// Share of endpoint potential rows served from the router's cache.
    potential_hit_rate: f64,
    /// Throughput relative to the direct baseline on the same dataset.
    relative_qps: f64,
}

impl JsonRecord for Exp11Result {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", json_string(&self.dataset)),
            ("topology", json_string(&self.topology)),
            ("shards", self.shards.to_string()),
            ("boundary", self.boundary.to_string()),
            ("overlay_edges", self.overlay_edges.to_string()),
            ("queries", self.queries.to_string()),
            ("qps", format!("{:.0}", self.qps)),
            ("p50_us", format!("{:.1}", self.p50_us)),
            ("p99_us", format!("{:.1}", self.p99_us)),
            ("fanout_per_query", format!("{:.2}", self.fanout_per_query)),
            ("potential_hit_rate", format!("{:.3}", self.potential_hit_rate)),
            ("relative_qps", format!("{:.3}", self.relative_qps)),
        ]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage: exp11_sharding [--small] [--reps N] [--json <path>]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let small = args.iter().any(|a| a == "--small");
    let reps: usize = wcsd_cliutil::flag_value(args, "--reps")?.unwrap_or(3);
    let json_path: Option<String> = wcsd_cliutil::flag_value(args, "--json")?;
    let scale = if small { Scale::Tiny } else { Scale::Small };
    let queries = if small { 800 } else { 6_000 };

    let mut datasets = Vec::new();
    datasets.extend(Dataset::road_suite(scale).into_iter().take(1));
    datasets.extend(Dataset::social_suite(scale).into_iter().take(1));

    let mut results = Vec::new();
    for dataset in &datasets {
        let g = dataset.generate();
        eprintln!("[exp11] {} : |V|={} |E|={}", dataset.name, g.num_vertices(), g.num_edges());
        let workload = QueryWorkload::uniform(&g, queries, 0x5AD_CAFE);

        let full = Arc::new(FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g)));
        let (baseline, reference) = best_of(reps, || direct_run(&dataset.name, &full, &workload))?;
        results.push(Exp11Result {
            dataset: dataset.name.clone(),
            topology: "direct".into(),
            shards: 1,
            boundary: 0,
            overlay_edges: 0,
            queries,
            qps: baseline.0,
            p50_us: baseline.1,
            p99_us: baseline.2,
            fanout_per_query: 0.0,
            potential_hit_rate: 0.0,
            relative_qps: 1.0,
        });

        for shards in [1usize, 2, 4] {
            let partition = Partition::build(&g, shards, 0);
            let sharded = ShardedIndex::build(&g, &partition);
            let boundary = sharded.overlay().num_boundary();
            let overlay_edges = sharded.overlay().num_edges();
            // One shard has no boundary and so nothing to cache: one row.
            let mut caches = vec![("", RouterConfig::default().cache_capacity)];
            if shards > 1 {
                caches.push((" cold", 0));
            }
            for (suffix, cache_capacity) in caches {
                let ((qps, p50, p99, fanout, hit_rate), answers) = best_of(reps, || {
                    router_run(&dataset.name, &sharded, &workload, cache_capacity)
                })?;
                if answers != reference {
                    return Err(format!(
                        "{} x{shards}{suffix}: router answers diverge from the direct run",
                        dataset.name
                    ));
                }
                let row = Exp11Result {
                    dataset: dataset.name.clone(),
                    topology: format!("router x{shards}{suffix}"),
                    shards,
                    boundary,
                    overlay_edges,
                    queries,
                    qps,
                    p50_us: p50,
                    p99_us: p99,
                    fanout_per_query: fanout,
                    potential_hit_rate: hit_rate,
                    relative_qps: if baseline.0 > 0.0 { qps / baseline.0 } else { 0.0 },
                };
                eprintln!(
                    "[exp11] {} {}: {:.0} qps ({:.2}x direct), p50 {:.0} µs, p99 {:.0} µs, \
                     boundary {}, fanout {:.2}/query, potential hit rate {:.2}",
                    dataset.name,
                    row.topology,
                    row.qps,
                    row.relative_qps,
                    row.p50_us,
                    row.p99_us,
                    row.boundary,
                    row.fanout_per_query,
                    row.potential_hit_rate
                );
                results.push(row);
            }
        }
    }

    for r in &results {
        println!(
            "{:<22} {:<14} qps {:>8.0} ({:>5.2}x) p50 {:>7.1} µs p99 {:>8.1} µs \
             boundary {:>5} overlay {:>6} fanout {:>6.2} hit {:>4.2}",
            r.dataset,
            r.topology,
            r.qps,
            r.relative_qps,
            r.p50_us,
            r.p99_us,
            r.boundary,
            r.overlay_edges,
            r.fanout_per_query,
            r.potential_hit_rate
        );
    }
    let json = to_json(&results);
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// One rep's measurement — `(qps, p50_us, p99_us, fanout_per_query,
/// potential_hit_rate)` — plus the answer vector for the cross-topology
/// parity assertion.
type Rep = ((f64, f64, f64, f64, f64), Vec<Option<wcsd_graph::Distance>>);

/// Runs `f` `reps` times and keeps the rep with the best throughput (the
/// answer vector is identical across reps by construction).
fn best_of<F>(reps: usize, mut f: F) -> Result<Rep, String>
where
    F: FnMut() -> Result<Rep, String>,
{
    let mut best: Option<Rep> = None;
    for _ in 0..reps.max(1) {
        let rep = f()?;
        if best.as_ref().is_none_or(|b| rep.0 .0 > b.0 .0) {
            best = Some(rep);
        }
    }
    Ok(best.expect("reps >= 1"))
}

fn loadgen_config() -> LoadgenConfig {
    LoadgenConfig {
        connections: 4,
        batch_size: 16,
        connect_timeout: Duration::from_secs(10),
        protocol: Protocol::Binary,
        rate_qps: 0.0,
    }
}

/// One loadgen rep against a single reactor serving the full index.
fn direct_run(name: &str, full: &Arc<FlatIndex>, workload: &QueryWorkload) -> Result<Rep, String> {
    let server = Server::bind_flat(Arc::clone(full), ServerConfig::default())
        .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let (result, answers) = loadgen::run_against(&addr, name, workload, &loadgen_config())?;
    shutdown(&addr, handle)?;
    Ok(((result.throughput_qps, result.p50_us, result.p99_us, 0.0, 0.0), answers))
}

/// One loadgen rep through the router: per-shard reactors, router in front
/// (`cache_capacity` 0 = the cold path), fan-out and potential hit rate read
/// back from the router's own metrics registry.
fn router_run(
    name: &str,
    sharded: &ShardedIndex,
    workload: &QueryWorkload,
    cache_capacity: usize,
) -> Result<Rep, String> {
    let mut backend_addrs = Vec::new();
    let mut backend_handles = Vec::new();
    for shard in sharded.shards() {
        let server = Server::bind_flat(Arc::clone(shard), ServerConfig::default())
            .map_err(|e| format!("cannot bind backend: {e}"))?;
        backend_addrs.push(server.local_addr().to_string());
        backend_handles.push(std::thread::spawn(move || server.run()));
    }
    let groups: Vec<Vec<String>> = backend_addrs.iter().map(|a| vec![a.clone()]).collect();
    let config = RouterConfig { cache_capacity, ..RouterConfig::default() };
    let router = Router::bind(sharded.overlay().clone(), groups, config)
        .map_err(|e| format!("cannot bind router: {e}"))?;
    let addr = router.local_addr().to_string();
    let handle = std::thread::spawn(move || router.run());

    let (result, answers) = loadgen::run_against(&addr, name, workload, &loadgen_config())?;

    // Average backend fan-out per client query, from the router's counters.
    let mut probe = Client::connect(&*addr).map_err(|e| format!("cannot connect: {e}"))?;
    let scrape = Scrape::parse(&probe.metrics(false)?);
    let fanned = scrape.value("wcsd_router_fanout_queries_total").unwrap_or(0.0);
    let answered = scrape.value("wcsd_batch_queries_total").unwrap_or(0.0)
        + scrape.value("wcsd_queries_total").unwrap_or(0.0);
    let fanout = if answered > 0.0 { fanned / answered } else { 0.0 };
    let hits = scrape.value("wcsd_router_potential_hits_total").unwrap_or(0.0);
    let lookups = hits + scrape.value("wcsd_router_potential_misses_total").unwrap_or(0.0);
    let hit_rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
    drop(probe);

    shutdown(&addr, handle)?;
    for (backend, handle) in backend_addrs.iter().zip(backend_handles) {
        shutdown(backend, handle)?;
    }
    Ok(((result.throughput_qps, result.p50_us, result.p99_us, fanout, hit_rate), answers))
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<ServerSnapshot>) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    c.shutdown()?;
    handle.join().map(|_| ()).map_err(|_| format!("server thread for {addr} panicked"))
}
