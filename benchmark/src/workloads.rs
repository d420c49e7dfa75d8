//! The four workloads and how each is set up: graph, index, servers.
//!
//! Every workload drives the product's default path — the `wc_index_plus`
//! builder, `FlatIndex::from_index`, `ServerConfig::default()`,
//! `RouterConfig::default()` — so a PR that changes a default is what moves
//! the numbers.
//!
//! The graphs are the benchmark's datasets and do not change with `--seed`,
//! as the paper's road and social networks do not change between its query
//! runs: across ten graph seeds the label count of the 96×96 road grid
//! spread 8% between its quartiles, which would have hidden any regression
//! smaller than that in every metric. `--seed` drives what the served index
//! is asked: query streams, key pools and the update feed.

use crate::gen::{stream_seed, UniformQueries, ZipfKeys};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::overlay::OverlayIndex;
use wcsd_core::{FlatIndex, IndexBuilder, WcIndex};
use wcsd_graph::generators::{barabasi_albert, road_grid, QualityAssigner, RoadGridConfig};
use wcsd_graph::{Graph, Partition, Quality};
use wcsd_obs::scrape::Scrape;
use wcsd_server::{Client, Router, RouterConfig, Server, ServerConfig, ServerSnapshot};

/// Seed of the benchmark's datasets.
pub const GRAPH_SEED: u64 = 1;
/// Quality levels `|w|` of every dataset.
pub const LEVELS: Quality = 5;
/// Distinct queries in the Zipf key pool of the point workloads.
pub const KEY_POOL: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// `road_grid(square(side))`.
    Road { side: usize },
    /// `barabasi_albert(n, m)`.
    Social { n: usize, m: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// `lanes` threads, each a blocking binary client sending `BATCH size`.
    Batch { lanes: usize, size: usize },
    /// One thread, `connections` raw text sockets × `depth` `QUERY` lines in
    /// flight, keys Zipf(1) over [`KEY_POOL`] queries.
    Point { connections: usize, depth: usize },
}

impl Traffic {
    /// Requests in flight at any moment.
    pub fn in_flight(&self) -> usize {
        match *self {
            Self::Batch { lanes, .. } => lanes,
            Self::Point { connections, depth } => connections * depth,
        }
    }

    /// Queries per request.
    pub fn request_size(&self) -> usize {
        match *self {
            Self::Batch { size, .. } => size,
            Self::Point { .. } => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub graph: GraphKind,
    pub traffic: Traffic,
    /// 1 = one server; more = that many backend servers behind a router.
    pub shards: usize,
    /// Whether the update feed runs beside the reads.
    pub churn: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "road-batch",
        graph: GraphKind::Road { side: 96 },
        traffic: Traffic::Batch { lanes: 4, size: 64 },
        shards: 1,
        churn: false,
        setup_repeats: 3,
    },
    Spec {
        name: "social-point",
        graph: GraphKind::Social { n: 2000, m: 5 },
        traffic: Traffic::Point { connections: 2, depth: 16 },
        shards: 1,
        churn: false,
        setup_repeats: 7,
    },
    Spec {
        name: "social-churn",
        graph: GraphKind::Social { n: 2000, m: 5 },
        traffic: Traffic::Point { connections: 2, depth: 16 },
        shards: 1,
        churn: true,
        setup_repeats: 7,
    },
    Spec {
        name: "road-routed",
        graph: GraphKind::Road { side: 40 },
        traffic: Traffic::Batch { lanes: 4, size: 16 },
        shards: 2,
        churn: false,
        setup_repeats: 5,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn num_vertices(&self) -> usize {
        match self.graph {
            GraphKind::Road { side } => side * side,
            GraphKind::Social { n, .. } => n,
        }
    }

    pub fn generate(&self) -> Graph {
        let qualities = QualityAssigner::uniform(LEVELS);
        match self.graph {
            GraphKind::Road { side } => {
                road_grid(&RoadGridConfig::square(side), &qualities, GRAPH_SEED)
            }
            GraphKind::Social { n, m } => barabasi_albert(n, m, &qualities, GRAPH_SEED),
        }
    }

    /// The uniform query stream of batch lane `lane`.
    pub fn uniform_stream(&self, seed: u64, lane: u64) -> UniformQueries {
        UniformQueries::new(stream_seed(seed, self.name, lane), self.num_vertices(), LEVELS)
    }

    /// The Zipf key stream of the point lane. The churn workload reads with
    /// the same keys as `social-point` so the two differ by the feed alone.
    pub fn zipf_stream(&self, seed: u64) -> ZipfKeys {
        ZipfKeys::new(
            stream_seed(seed, "social-point", 0),
            stream_seed(seed, "social-point-pool", 0),
            KEY_POOL,
            self.num_vertices(),
            LEVELS,
        )
    }

    /// The first `count` queries the workload's first lane generates.
    pub fn first_queries(&self, seed: u64, count: usize) -> Vec<crate::gen::Query> {
        match self.traffic {
            Traffic::Batch { .. } => {
                let mut stream = self.uniform_stream(seed, 0);
                (0..count).map(|_| stream.next_query()).collect()
            }
            Traffic::Point { .. } => {
                let mut stream = self.zipf_stream(seed);
                (0..count).map(|_| stream.next_query()).collect()
            }
        }
    }
}

/// Seconds each layer of one set-up took, measured around the public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub generate_s: f64,
    pub partition_s: f64,
    pub order_s: f64,
    pub sweep_s: f64,
    pub freeze_s: f64,
    pub overlay_s: f64,
    pub entries: usize,
}

/// A running server or router.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<ServerSnapshot>,
}

impl Running {
    fn spawn(addr: SocketAddr, run: impl FnOnce() -> ServerSnapshot + Send + 'static) -> Self {
        Self { addr, handle: std::thread::spawn(run) }
    }

    /// Stops the server with `SHUTDOWN` and joins its thread; a server that
    /// panicked fails the run.
    pub fn stop(self) -> Result<ServerSnapshot, String> {
        Client::connect(self.addr)
            .map_err(|e| format!("cannot connect to {} to stop it: {e}", self.addr))?
            .shutdown()?;
        self.handle.join().map_err(|_| format!("the server thread of {} panicked", self.addr))
    }
}

/// One complete set-up: what is served, and the servers serving it.
pub struct Deployment {
    pub graph: Graph,
    /// The served snapshots: one, or one per shard (global vertex ids).
    pub shards: Vec<Arc<FlatIndex>>,
    pub overlay: Option<OverlayIndex>,
    /// The nested index, where one index is served (the reference beside the
    /// flat replay).
    pub nested: Option<WcIndex>,
    /// The dynamic index behind the served snapshot (churn only).
    pub dynamic: Option<DynamicWcIndex>,
    /// Backend servers, one per entry of `shards`.
    pub backends: Vec<Running>,
    pub router: Option<Running>,
    pub setup_s: f64,
    pub layers: SetupLayers,
}

impl Deployment {
    /// Where clients send their traffic.
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.backends[0].addr, |r| r.addr)
    }

    /// Stops every server, front first. All are stopped even if one fails.
    pub fn stop(&mut self) -> Result<(), String> {
        let mut outcome = Ok(());
        for server in self.router.take().into_iter().chain(self.backends.drain(..)) {
            if let Err(e) = server.stop() {
                outcome = outcome.and(Err(e));
            }
        }
        outcome
    }
}

/// Seconds the `order` and `sweep` build phases have taken so far in this
/// process, from the product's own `wcsd_build_phase_us` histograms.
fn build_phase_seconds() -> (f64, f64) {
    let scrape = Scrape::parse(&wcsd_obs::global().render());
    let sum = |phase: &str| {
        scrape.histogram("wcsd_build_phase_us", &[&format!("phase=\"{phase}\"")]).sum / 1e6
    };
    (sum("order"), sum("sweep"))
}

fn bind_server(flat: &Arc<FlatIndex>) -> Result<Running, String> {
    let server = Server::bind_flat(Arc::clone(flat), ServerConfig::default())
        .map_err(|e| format!("cannot bind a server: {e}"))?;
    Ok(Running::spawn(server.local_addr(), move || server.run()))
}

/// Sets the workload up once, from nothing to the first answered request.
pub fn set_up(spec: &Spec) -> Result<Deployment, String> {
    let started = Instant::now();
    let mut layers = SetupLayers::default();
    let builder = IndexBuilder::wc_index_plus();
    let (order_before, sweep_before) = build_phase_seconds();

    let t = Instant::now();
    let graph = spec.generate();
    layers.generate_s = t.elapsed().as_secs_f64();

    let (mut shards, mut nested, mut dynamic, mut overlay) = (Vec::new(), None, None, None);
    if spec.shards > 1 {
        let t = Instant::now();
        let partition = Partition::build(&graph, spec.shards, 0);
        layers.partition_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        overlay = Some(OverlayIndex::build(&graph, &partition));
        layers.overlay_s = t.elapsed().as_secs_f64();
        for shard in 0..spec.shards as u32 {
            let index = builder.build(&partition.shard_subgraph(&graph, shard));
            let t = Instant::now();
            shards.push(Arc::new(FlatIndex::from_index(&index)));
            layers.freeze_s += t.elapsed().as_secs_f64();
        }
    } else if spec.churn {
        let mut dynamic_index = DynamicWcIndex::new(&graph, builder);
        let t = Instant::now();
        shards.push(dynamic_index.freeze());
        layers.freeze_s = t.elapsed().as_secs_f64();
        dynamic = Some(dynamic_index);
    } else {
        let index = builder.build(&graph);
        let t = Instant::now();
        shards.push(Arc::new(FlatIndex::from_index(&index)));
        layers.freeze_s = t.elapsed().as_secs_f64();
        nested = Some(index);
    }
    let (order_after, sweep_after) = build_phase_seconds();
    layers.order_s = order_after - order_before;
    layers.sweep_s = sweep_after - sweep_before;
    layers.entries = shards.iter().map(|s| s.total_entries()).sum();

    let backends = shards.iter().map(bind_server).collect::<Result<Vec<_>, _>>()?;
    let router = match &overlay {
        Some(overlay) => {
            let groups = backends.iter().map(|b| vec![b.addr.to_string()]).collect();
            let router = Router::bind(overlay.clone(), groups, RouterConfig::default())
                .map_err(|e| format!("cannot bind the router: {e}"))?;
            Some(Running::spawn(router.local_addr(), move || router.run()))
        }
        None => None,
    };
    let mut deployment = Deployment {
        graph,
        shards,
        overlay,
        nested,
        dynamic,
        backends,
        router,
        setup_s: 0.0,
        layers,
    };
    let first = Client::connect(deployment.front())
        .map_err(|e| format!("cannot connect to the new server: {e}"))
        .and_then(|mut c| c.query(0, 1, 1));
    deployment.setup_s = started.elapsed().as_secs_f64();
    if let Err(e) = first {
        let _ = deployment.stop();
        return Err(format!("the first request failed: {e}"));
    }
    Ok(deployment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_the_catalogue() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        let documented: Vec<&str> = crate::catalog::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, documented);
        assert!(spec("road-batch").is_some() && spec("nope").is_none());
    }

    #[test]
    fn load_is_sized_for_a_two_core_host() {
        // Batch lanes sleep in `Client::batch`, so four of them cost little;
        // the point lane spins, so there is exactly one.
        for s in &SPECS {
            match s.traffic {
                Traffic::Batch { lanes, .. } => assert_eq!(lanes, 4, "{}", s.name),
                Traffic::Point { connections, depth } => {
                    assert_eq!((connections, depth), (2, 16), "{}", s.name);
                }
            }
        }
    }

    #[test]
    fn churn_reads_the_same_keys_as_social_point() {
        let (point, churn) = (spec("social-point").unwrap(), spec("social-churn").unwrap());
        assert_eq!(point.first_queries(5, 100), churn.first_queries(5, 100));
        assert_ne!(point.first_queries(5, 100), point.first_queries(6, 100));
    }
}
