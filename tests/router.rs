//! Cross-shard parity suite for the sharded serving tier: the partitioned
//! index composed through the boundary overlay must be **bit-identical** to
//! the unsharded index, in process and over the wire.
//!
//! * a seeded fuzz sweep (48 seeds × {road, social} shapes × both query
//!   implementations) comparing [`ShardedIndex`] against a full
//!   [`FlatIndex`] for `QUERY`, `BATCH`, and `WITHIN` — including
//!   unreachable pairs, `s == t`, and out-of-range quality constraints;
//! * an exhaustive small-graph sweep pinning both against the online
//!   constrained-BFS oracle (ground truth, not just mutual agreement);
//! * the separable form the router answers in — `compose` over each
//!   endpoint's `potentials` row — pinned to `merge(plan…)` and to the BFS
//!   oracle on road and social graphs × 1–4 shards × 48 seeds, and the rows
//!   themselves pinned to whole-graph distances on a disconnected graph;
//! * an end-to-end TCP test: two real backend reactors plus the
//!   scatter-gather router, checked for wire parity on both protocols and
//!   for identical `ERR` wording against a direct (unsharded) server;
//! * a fault-injection test: one backend is killed mid-workload and the
//!   router must degrade to `ERR` within the backend timeout, keep serving
//!   queries that avoid the dead shard, report the degradation through
//!   `METRICS`, and never emit a torn (partial) batch reply;
//! * a result-cache test: repeated workloads are served from router memory
//!   with zero additional backend fan-out, bit-identically, with hits
//!   reported consistently through `STATS` and `METRICS`;
//! * potential-cache tests: a different batch over known endpoints costs
//!   only its direct sub-queries, `cache_capacity: 0` refetches every row,
//!   and a budget smaller than the working set evicts and stays exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcsd::prelude::*;
use wcsd_baselines::online::constrained_bfs;
use wcsd_graph::generators::{barabasi_albert, road_grid, QualityAssigner, RoadGridConfig};
use wcsd_graph::{Distance, Graph};
use wcsd_server::cache::ENTRY_OVERHEAD_CELLS;

/// Number of seeds per graph shape in the fuzz sweep (matches the
/// property-test convention in `tests/properties.rs`).
const CASES: u64 = 48;

const IMPLS: [QueryImpl; 2] = [QueryImpl::Merge, QueryImpl::Chunked];

/// A road-network-like shard workload: grids partition along geography, so
/// the cut is small and most pairs cross it.
fn road(seed: u64) -> Graph {
    road_grid(&RoadGridConfig::square(6), &QualityAssigner::uniform(4), seed)
}

/// A scale-free shard workload: hubs end up on the boundary, so the overlay
/// profile carries many alternative (distance, quality) steps.
fn social(seed: u64) -> Graph {
    barabasi_albert(36, 2, &QualityAssigner::uniform(5), seed)
}

/// Full unsharded reference index over `g`.
fn full_flat(g: &Graph) -> FlatIndex {
    FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(g))
}

/// The fuzz sweep: for every seed and shape, a sharded index over a 2–4-way
/// partition answers exactly like the unsharded index under both query
/// implementations.
#[test]
fn sharded_matches_unsharded_fuzz() {
    for seed in 0..CASES {
        for (shape, g) in [("road", road(seed)), ("social", social(seed))] {
            let shards = 2 + (seed % 3) as usize;
            let partition = Partition::build(&g, shards, seed);
            let sharded = ShardedIndex::build(&g, &partition);
            let flat = full_flat(&g);
            let n = g.num_vertices() as u32;
            let max_q = g.distinct_qualities().last().copied().unwrap_or(1);

            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x5bad_c0de_u64);
            let mut triples: Vec<(u32, u32, u32)> = (0..40)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=max_q + 1)))
                .collect();
            // Targeted edge cases: the reflexive pair under an unsatisfiable
            // constraint (must stay Some(0)), a constraint above every edge
            // quality, and the extreme-corner pair (unreachable on grids
            // with removed edges).
            triples.push((0, 0, max_q + 5));
            triples.push((n - 1, n - 1, max_q + 5));
            triples.push((0, n - 1, max_q + 3));
            triples.push((0, n - 1, 1));

            for &(s, t, w) in &triples {
                let expect = flat.distance_with(s, t, w, QueryImpl::Merge);
                for imp in IMPLS {
                    assert_eq!(
                        sharded.distance_with(s, t, w, imp),
                        expect,
                        "{shape} seed {seed} shards {shards}: Q({s},{t},{w}) via {imp:?}"
                    );
                }
                // WITHIN must agree with the composed distance on both
                // sides of the threshold.
                for d in [0, 1, expect.unwrap_or(2).saturating_sub(1), expect.unwrap_or(7)] {
                    assert_eq!(
                        sharded.within(s, t, w, d),
                        expect.is_some_and(|found| found <= d),
                        "{shape} seed {seed}: WITHIN({s},{t},{w},{d})"
                    );
                }
            }
        }
    }
}

/// Exhaustive sweep on small random graphs (the builder-cleanup fuzzer shape
/// from `tests/properties.rs`): every pair, every level, pinned against the
/// online BFS oracle so sharded and unsharded cannot agree on a shared bug.
#[test]
fn sharded_matches_oracle_exhaustive() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x00C0_FFEE);
        let n = rng.gen_range(2..=16usize);
        let m = rng.gen_range(0..=40usize);
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            b.add_edge(u, v, rng.gen_range(1..=4u32));
        }
        let g = b.build();
        let partition = Partition::build(&g, 2, seed);
        let sharded = ShardedIndex::build(&g, &partition);
        let levels = g.distinct_qualities();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                for &w in levels.iter().chain([5].iter()) {
                    assert_eq!(
                        sharded.distance(s, t, w),
                        constrained_bfs(&g, s, t, w),
                        "seed {seed}: Q({s},{t},{w})"
                    );
                }
            }
        }
    }
}

/// One endpoint's boundary potentials, in process: its shard row through
/// [`OverlayIndex::potentials`].
fn potentials(sharded: &ShardedIndex, v: u32, w: u32) -> Vec<Distance> {
    let overlay = sharded.overlay();
    let shard = overlay.shard_of(v);
    let index = &sharded.shards()[shard as usize];
    let row: Vec<Option<Distance>> =
        overlay.shard_boundary(shard).iter().map(|&b| index.distance(v, b, w)).collect();
    overlay.potentials(shard, w, &row).expect("a complete row")
}

/// The router's composition evaluated in process: both endpoints'
/// [`potentials`], the same-shard direct term, then [`OverlayIndex::compose`].
fn separable(sharded: &ShardedIndex, s: u32, t: u32, w: u32) -> Option<Distance> {
    let overlay = sharded.overlay();
    let shard = overlay.shard_of(s);
    let direct = (shard == overlay.shard_of(t))
        .then(|| sharded.shards()[shard as usize].distance(s, t, w))
        .flatten();
    OverlayIndex::compose(direct, &potentials(sharded, s, w), &potentials(sharded, t, w))
}

/// `compose(potentials…)` = `merge(plan…)` = the constrained-BFS oracle, on
/// both shapes, 1–4 shards (one shard = an empty boundary) and 48 seeds, with
/// the edge cases spelled out: `s == t`, a boundary vertex as an endpoint and
/// as both, `w` above every edge quality, and whatever the removed grid edges
/// and the strict levels leave unreachable.
#[test]
fn separable_form_matches_merge_and_oracle() {
    for seed in 0..CASES {
        for (shape, g) in [("road", road(seed)), ("social", social(seed))] {
            let n = g.num_vertices() as u32;
            let max_q = g.distinct_qualities().last().copied().unwrap_or(1);
            for shards in 1..=4usize {
                let partition = Partition::build(&g, shards, seed);
                let sharded = ShardedIndex::build(&g, &partition);
                let mut rng = StdRng::seed_from_u64(seed ^ ((shards as u64) << 32) ^ 0x5e9a_7ab1e);
                let mut triples: Vec<(u32, u32, u32)> = (0..24)
                    .map(|_| {
                        (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=max_q + 1))
                    })
                    .collect();
                triples.extend([(0, 0, max_q + 5), (0, n - 1, max_q + 3), (n - 1, 0, 1)]);
                if let [b1, .., b2] = *partition.boundary_vertices() {
                    let w = rng.gen_range(1..=max_q);
                    triples.extend([(b1, rng.gen_range(0..n), w), (b1, b2, w), (b2, b2, w)]);
                } else {
                    assert_eq!(shards, 1, "{shape} seed {seed}: only one shard has no cut");
                }
                let mut unreachable = 0;
                for &(s, t, w) in &triples {
                    let want = constrained_bfs(&g, s, t, w);
                    unreachable += usize::from(want.is_none());
                    let ctx = format!("{shape} seed {seed} shards {shards}: Q({s},{t},{w})");
                    assert_eq!(separable(&sharded, s, t, w), want, "compose, {ctx}");
                    assert_eq!(sharded.distance(s, t, w), want, "merge, {ctx}");
                }
                assert!(unreachable > 0, "{shape} seed {seed}: no unreachable pair exercised");
            }
        }
    }
}

/// A disconnected graph (two grids, no edge between them) cut into 2–4
/// shards: every potential row equals the whole-graph oracle distances to
/// every boundary vertex — `INF` across components — and every pair at every
/// level composes to the oracle answer.
#[test]
fn potentials_are_whole_graph_distances_on_a_disconnected_graph() {
    let (a, b) = (road(3), road(4));
    let half = a.num_vertices() as u32;
    let mut builder = GraphBuilder::new(2 * half as usize);
    for (g, base) in [(&a, 0), (&b, half)] {
        for u in g.vertices() {
            for (v, q) in g.neighbors(u).filter(|&(v, _)| u < v) {
                builder.add_edge(base + u, base + v, q);
            }
        }
    }
    let g = builder.build();
    for shards in 2..=4usize {
        let partition = Partition::build(&g, shards, 7);
        let sharded = ShardedIndex::build(&g, &partition);
        let boundary = partition.boundary_vertices();
        for w in 1..=5u32 {
            for v in g.vertices() {
                let got = potentials(&sharded, v, w);
                let want: Vec<Distance> = boundary
                    .iter()
                    .map(|&b| constrained_bfs(&g, v, b, w).unwrap_or(Distance::MAX))
                    .collect();
                assert_eq!(got, want, "shards {shards}: P({v},{w})");
            }
            for s in (0..2 * half).step_by(5) {
                for t in g.vertices() {
                    let want = constrained_bfs(&g, s, t, w);
                    assert_eq!(
                        separable(&sharded, s, t, w),
                        want,
                        "shards {shards}: Q({s},{t},{w})"
                    );
                    assert_eq!(sharded.distance(s, t, w), want, "shards {shards}: Q({s},{t},{w})");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end TCP: real backends, real router, both wire protocols.
// ---------------------------------------------------------------------------

struct Cluster {
    router_addr: String,
    backend_addrs: Vec<String>,
    router_handle: std::thread::JoinHandle<wcsd_server::ServerSnapshot>,
    backend_handles: Vec<std::thread::JoinHandle<wcsd_server::ServerSnapshot>>,
}

/// Partitions `g`, serves each shard on its own reactor, and fronts them
/// with a router on an ephemeral port. `cache_capacity` sizes the router's
/// result cache (0 = off, so every query provably fans out).
fn start_cluster(
    g: &Graph,
    shards: usize,
    seed: u64,
    backend_timeout: Duration,
    cache_capacity: usize,
) -> Cluster {
    let partition = Partition::build(g, shards, seed);
    let sharded = ShardedIndex::build(g, &partition);
    let mut backend_addrs = Vec::new();
    let mut backend_handles = Vec::new();
    for shard in sharded.shards() {
        let server =
            Server::bind_flat(Arc::clone(shard), ServerConfig::default()).expect("bind backend");
        backend_addrs.push(server.local_addr().to_string());
        backend_handles.push(std::thread::spawn(move || server.run()));
    }
    let config = RouterConfig { backend_timeout, cache_capacity, ..RouterConfig::default() };
    // One single-replica group per shard (the replica-failover tests build
    // their own multi-replica clusters).
    let groups: Vec<Vec<String>> = backend_addrs.iter().map(|a| vec![a.clone()]).collect();
    let router = Router::bind(sharded.overlay().clone(), groups, config).expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());
    Cluster { router_addr, backend_addrs, router_handle, backend_handles }
}

impl Cluster {
    /// Shuts the whole cluster down and returns the router's final counters.
    fn shutdown(self) -> wcsd_server::ServerSnapshot {
        let mut c = Client::connect(&self.router_addr).expect("connect router");
        c.shutdown().expect("router shutdown");
        let snapshot = self.router_handle.join().expect("router thread");
        for (addr, handle) in self.backend_addrs.iter().zip(self.backend_handles) {
            if let Ok(mut c) = Client::connect(addr) {
                let _ = c.shutdown();
            }
            let _ = handle.join();
        }
        snapshot
    }
}

/// Wire parity: queries, batches, and predicates through the router agree
/// bit-for-bit with a direct unsharded server, on both protocols, and error
/// replies carry identical wording.
#[test]
fn router_wire_parity_end_to_end() {
    let g = barabasi_albert(90, 3, &QualityAssigner::uniform(4), 23);
    let flat = full_flat(&g);
    // Default cache capacity: parity must hold whether an answer came from
    // scatter-gather or the router's result cache.
    let cluster = start_cluster(&g, 2, 3, Duration::from_secs(2), 64 * 1024);

    // A direct, unsharded server over the same graph: the oracle for both
    // answers and error wording.
    let direct = Server::bind(IndexBuilder::wc_index_plus().build(&g), ServerConfig::default())
        .expect("bind direct server");
    let direct_addr = direct.local_addr().to_string();
    let direct_handle = std::thread::spawn(move || direct.run());

    let n = g.num_vertices() as u32;
    for protocol in [Protocol::Text, Protocol::Binary] {
        let mut via_router =
            Client::connect_with(&cluster.router_addr, protocol).expect("connect router");
        let mut via_direct = Client::connect_with(&direct_addr, protocol).expect("connect direct");

        // Individual queries, including s == t and an unsatisfiable w.
        let mut rng = StdRng::seed_from_u64(0xd15_7a9c ^ protocol as u64);
        for _ in 0..25 {
            let (s, t, w) = (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=5));
            let got = via_router.query(s, t, w).expect("router query");
            assert_eq!(got, flat.distance_with(s, t, w, QueryImpl::Merge), "Q({s},{t},{w})");
            assert_eq!(got, via_direct.query(s, t, w).expect("direct query"));
        }
        assert_eq!(via_router.query(7, 7, 99).expect("reflexive"), Some(0));
        assert_eq!(via_router.query(0, 1, 99).expect("unsatisfiable"), None);

        // One BATCH round trip covering the same workload shape.
        let batch: Vec<(u32, u32, u32)> = (0..30)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=5)))
            .collect();
        assert_eq!(
            via_router.batch(&batch).expect("router batch"),
            via_direct.batch(&batch).expect("direct batch"),
            "{protocol:?} batch parity"
        );

        // WITHIN parity on both sides of the threshold.
        for &(s, t, w) in batch.iter().take(8) {
            let d_ref: Option<Distance> = flat.distance_with(s, t, w, QueryImpl::Merge);
            for d in [0, d_ref.unwrap_or(3)] {
                assert_eq!(
                    via_router.within(s, t, w, d).expect("router within"),
                    via_direct.within(s, t, w, d).expect("direct within"),
                    "{protocol:?} WITHIN({s},{t},{w},{d})"
                );
            }
        }

        // Error wording parity: out-of-range vertices produce the exact
        // same ERR text through the router as from the unsharded server.
        assert_eq!(
            via_router.query(9_999, 0, 1).expect_err("out of range"),
            via_direct.query(9_999, 0, 1).expect_err("out of range"),
            "{protocol:?} out-of-range wording"
        );
        let poisoned = [(0u32, 1u32, 1u32), (n, 0, 1), (1, 2, 1)];
        assert_eq!(
            via_router.batch(&poisoned).expect_err("poisoned batch"),
            via_direct.batch(&poisoned).expect_err("poisoned batch"),
            "{protocol:?} batch-line wording"
        );
        // The failed batch must not desynchronise the connection: the next
        // request on the same socket still gets a correct answer.
        assert_eq!(
            via_router.query(0, 1, 1).expect("post-error query"),
            flat.distance_with(0, 1, 1, QueryImpl::Merge)
        );

        // STATS is well-formed and advertises the overlay generation.
        let stats = via_router.stats().expect("router stats");
        assert_eq!(stats.vertices, g.num_vertices());
        assert_eq!(stats.generation, 1);
    }

    let snapshot = cluster.shutdown();
    assert!(snapshot.queries >= 50, "router counted its queries: {}", snapshot.queries);
    assert!(snapshot.batches >= 2, "router counted its batches: {}", snapshot.batches);

    let mut c = Client::connect(&direct_addr).expect("connect direct");
    c.shutdown().expect("direct shutdown");
    direct_handle.join().expect("direct thread");
}

/// Fault injection: killing one backend mid-workload degrades affected
/// queries to `ERR` within the backend timeout (never a hang, never a torn
/// batch), leaves the router serving unaffected shards, and shows up in the
/// `METRICS` exposition as a degraded backend.
#[test]
fn router_fault_injection_degrades_without_hanging() {
    let g = barabasi_albert(60, 2, &QualityAssigner::uniform(4), 5);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 7);
    // Cache off: the drill re-issues the healthy batch after the kill and
    // must observe the dead backend, not a cached answer.
    let cluster = start_cluster(&g, 2, 7, Duration::from_millis(500), 0);

    // Pick one pair entirely inside shard 0 and one pair crossing into
    // shard 1, so we can tell "partial service" from "dead router".
    let in_shard = |shard: u32| -> Vec<u32> {
        (0..g.num_vertices() as u32).filter(|&v| partition.shard_of(v) == shard).collect()
    };
    let shard0 = in_shard(0);
    let shard1 = in_shard(1);
    let (s0, t0) = (shard0[0], *shard0.last().unwrap());
    let cross = (shard0[0], shard1[0]);

    let mut client =
        Client::connect_with(&cluster.router_addr, Protocol::Binary).expect("connect router");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Healthy baseline: a batch spanning both shards round-trips correctly.
    let batch: Vec<(u32, u32, u32)> =
        vec![(s0, t0, 1), (cross.0, cross.1, 1), (shard1[0], *shard1.last().unwrap(), 2)];
    let healthy = client.batch(&batch).expect("healthy batch");
    for (i, &(s, t, w)) in batch.iter().enumerate() {
        assert_eq!(healthy[i], flat.distance_with(s, t, w, QueryImpl::Merge));
    }

    // Kill backend 1 (clean SHUTDOWN, so its port closes immediately).
    let mut b1 = Client::connect(&cluster.backend_addrs[1]).expect("connect backend 1");
    b1.shutdown().expect("backend shutdown");

    // Affected traffic: ERR naming the dead backend, well under the
    // timeout-plus-retry budget, and the whole batch fails — the client
    // never sees a partial answer vector.
    let started = Instant::now();
    let err = client.batch(&batch).expect_err("batch through a dead shard");
    let elapsed = started.elapsed();
    assert!(err.contains("backend 1") && err.contains("unavailable"), "diagnostic: {err}");
    assert!(elapsed < Duration::from_secs(3), "degradation must not hang: took {elapsed:?}");
    let err = client.query(cross.0, cross.1, 1).expect_err("query through a dead shard");
    assert!(err.contains("unavailable"), "diagnostic: {err}");

    // Unaffected traffic on the same connection keeps working: a pair
    // wholly inside the surviving shard fans out to backend 0 only.
    assert_eq!(
        client.query(s0, t0, 1).expect("same-shard query survives"),
        flat.distance_with(s0, t0, 1, QueryImpl::Merge)
    );

    // The degradation is observable: the gauge reports one degraded
    // backend and at least one retry was attempted before giving up.
    let metrics = client.metrics(false).expect("router metrics");
    assert!(
        metrics.lines().any(|l| l.trim() == "wcsd_router_degraded_backends 1"),
        "degraded gauge missing:\n{metrics}"
    );
    let retries: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("wcsd_router_retries_total ")?.trim().parse().ok())
        .expect("retry counter present");
    assert!(retries >= 1, "expected at least one retry, saw {retries}");

    // A *fresh* connection is also served: the accept loop is alive.
    let mut fresh = Client::connect(&cluster.router_addr).expect("fresh connection");
    assert_eq!(
        fresh.query(s0, t0, 2).expect("fresh same-shard query"),
        flat.distance_with(s0, t0, 2, QueryImpl::Merge)
    );

    // Clean shutdown still works with a dead backend in the pool. The
    // counters only tally *answered* requests: the two same-shard queries
    // and the healthy batch, not the degraded ERR replies.
    let snapshot = cluster.shutdown();
    assert!(snapshot.queries >= 2, "answered queries: {}", snapshot.queries);
    assert!(snapshot.batches >= 1, "answered batches: {}", snapshot.batches);
}

/// The router-side result cache: a repeated workload is answered from router
/// memory with zero additional backend fan-out, hits surface in both `STATS`
/// and `METRICS` (same metric names the backends use), and the answers stay
/// bit-identical to the first, scattered, pass.
#[test]
fn router_result_cache_short_circuits_fanout() {
    let g = barabasi_albert(80, 2, &QualityAssigner::uniform(4), 41);
    let flat = full_flat(&g);
    let cluster = start_cluster(&g, 2, 11, Duration::from_secs(2), 4096);

    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0xcac_4e11);
    let workload: Vec<(u32, u32, u32)> =
        (0..30).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=5))).collect();

    let mut client =
        Client::connect_with(&cluster.router_addr, Protocol::Binary).expect("connect router");
    let first = client.batch(&workload).expect("first pass");
    for (i, &(s, t, w)) in workload.iter().enumerate() {
        assert_eq!(first[i], flat.distance_with(s, t, w, QueryImpl::Merge), "Q({s},{t},{w})");
    }

    let scrape_router = |c: &mut Client| {
        wcsd_obs::scrape::Scrape::parse(&c.metrics(false).expect("router metrics"))
    };
    let before = scrape_router(&mut client);
    let fanout_before = before.value("wcsd_router_fanout_total").expect("fanout counter");

    // Second pass: every (s, t, w) repeats, so the whole batch — and a few
    // standalone repeats — must be served without one more backend exchange.
    assert_eq!(client.batch(&workload).expect("cached pass"), first);
    for &(s, t, w) in workload.iter().take(5) {
        assert_eq!(
            client.query(s, t, w).expect("cached point query"),
            flat.distance_with(s, t, w, QueryImpl::Merge)
        );
    }

    let after = scrape_router(&mut client);
    assert_eq!(
        after.value("wcsd_router_fanout_total"),
        Some(fanout_before),
        "repeats must not fan out"
    );
    let hits = after.value("wcsd_cache_hits_total").expect("hit counter exported");
    assert!(hits >= workload.len() as f64, "expected >= {} hits, saw {hits}", workload.len());
    assert!(after.value("wcsd_cache_misses_total").unwrap_or(0.0) >= workload.len() as f64);

    // STATS reads the same atomics METRICS renders.
    let stats = client.stats().expect("router stats");
    assert_eq!(stats.cache_hits as f64, hits, "STATS and METRICS disagree on hits");
    assert!(stats.cache_misses >= workload.len() as u64);

    let snapshot = cluster.shutdown();
    assert!(snapshot.cache_hits >= workload.len() as u64);
}

/// `(fan-out queries, potential hits, potential misses)` off the router's
/// `METRICS`, plus the resident-cells gauge.
fn potential_counters(c: &mut Client) -> ([f64; 3], f64) {
    let m = wcsd_obs::scrape::Scrape::parse(&c.metrics(false).expect("router metrics"));
    let value = |name: &str| m.value(name).unwrap_or_else(|| panic!("{name} exported"));
    (
        [
            value("wcsd_router_fanout_queries_total"),
            value("wcsd_router_potential_hits_total"),
            value("wcsd_router_potential_misses_total"),
        ],
        value("wcsd_router_potential_cells"),
    )
}

/// The potential cache: a *different* batch over endpoints the router has
/// already seen costs one backend sub-query per same-shard pair (the direct
/// term) and nothing else; with `cache_capacity: 0` the same batch refetches
/// every row. Answers are the unsharded index's either way.
#[test]
fn router_potential_cache_leaves_only_direct_subqueries() {
    let g = road_grid(&RoadGridConfig::square(9), &QualityAssigner::uniform(4), 17);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 5);
    let n = g.num_vertices() as u32;
    // 20 pairs over 40 distinct vertices, then the same endpoints paired the
    // other way round: no (s, t, w) repeats, every (v, w) does.
    let first: Vec<(u32, u32, u32)> = (0..20).map(|i| (i, n - 1 - i, 1 + i % 3)).collect();
    let second: Vec<(u32, u32, u32)> = first.iter().map(|&(s, t, w)| (t, s, w)).collect();
    let same_shard =
        second.iter().filter(|&&(s, t, _)| partition.shard_of(s) == partition.shard_of(t)).count();
    assert!(0 < same_shard && same_shard < second.len(), "both kinds of pair: {same_shard}");
    let expect = |qs: &[(u32, u32, u32)]| -> Vec<_> {
        qs.iter().map(|&(s, t, w)| flat.distance(s, t, w)).collect()
    };

    let warm = start_cluster(&g, 2, 5, Duration::from_secs(2), 4096);
    let mut client = Client::connect_with(&warm.router_addr, Protocol::Binary).expect("connect");
    assert_eq!(client.batch(&first).expect("first batch"), expect(&first));
    let (before, cells) = potential_counters(&mut client);
    assert_eq!(before[1..], [0.0, 40.0], "40 cold endpoints");
    let row_cells = ENTRY_OVERHEAD_CELLS + partition.boundary_vertices().len();
    assert_eq!(cells, (40 * row_cells) as f64);
    assert_eq!(client.batch(&second).expect("second batch"), expect(&second));
    let (after, _) = potential_counters(&mut client);
    assert_eq!(after[0] - before[0], same_shard as f64, "only the direct terms fan out");
    assert_eq!(after[1..], [40.0, 40.0], "every endpoint of the second batch hit");
    warm.shutdown();

    let cold = start_cluster(&g, 2, 5, Duration::from_secs(2), 0);
    let mut client = Client::connect_with(&cold.router_addr, Protocol::Binary).expect("connect");
    assert_eq!(client.batch(&first).expect("first pass"), expect(&first));
    let (once, _) = potential_counters(&mut client);
    assert_eq!(client.batch(&first).expect("second pass"), expect(&first));
    let (twice, cells) = potential_counters(&mut client);
    assert_eq!(twice[0], 2.0 * once[0], "every row refetched");
    assert_eq!((twice[1], twice[2], cells), (0.0, 80.0, 0.0), "nothing is ever resident");
    cold.shutdown();
}

/// A cell budget far below the endpoint working set: rows are evicted, the
/// resident-cells gauge never exceeds the budget, and every answer — from a
/// resident row, a refetched one, or one too big to keep — is the oracle's.
#[test]
fn router_potential_cache_evicts_within_its_cell_budget() {
    let g = road_grid(&RoadGridConfig::square(8), &QualityAssigner::uniform(4), 29);
    let partition = Partition::build(&g, 2, 1);
    let row = ENTRY_OVERHEAD_CELLS + partition.boundary_vertices().len();
    let capacity = 16;
    let budget = capacity * ENTRY_OVERHEAD_CELLS;
    assert!((2 * row..20 * row).contains(&budget), "a few rows fit, not the working set: {row}");
    let cluster = start_cluster(&g, 2, 1, Duration::from_secs(2), capacity);
    let mut client = Client::connect_with(&cluster.router_addr, Protocol::Binary).expect("connect");
    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0xe71c7);
    for round in 0..12 {
        let batch: Vec<(u32, u32, u32)> = (0..16)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=4)))
            .collect();
        let got = client.batch(&batch).expect("batch");
        for (&(s, t, w), got) in batch.iter().zip(got) {
            assert_eq!(got, constrained_bfs(&g, s, t, w), "round {round}: Q({s},{t},{w})");
        }
        let ([_, _, misses], cells) = potential_counters(&mut client);
        assert!(0.0 < cells && cells <= budget as f64, "round {round}: {cells} of {budget} cells");
        assert!(misses * row as f64 > cells, "round {round}: rows were evicted");
    }
    cluster.shutdown();
}
