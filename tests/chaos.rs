//! Chaos suite for the self-healing serving tier: deterministic fault
//! injection through `wcsd_server::failpoint` plus real kill/restart drills,
//! proving the robustness invariants end to end:
//!
//! * killing a shard's primary fails traffic over to its replica with
//!   **bit-identical** answers (replicas serve the same frozen snapshot);
//! * a killed backend degrades and then **un-degrades automatically** once
//!   restarted on the same port — driven purely by the router's background
//!   prober, with no client query traffic;
//! * a backend that dies in the middle of a client batch costs that batch one
//!   `ERR` and leaves nothing behind in the router's potential cache: after
//!   the restart the same batch is bit-identical to the direct index;
//! * a feed crash mid-snapshot-write (torn temp file) never corrupts the
//!   snapshot directory: recovery picks the previous generation, and the
//!   next feed continues the numbering instead of overwriting history;
//! * an overloaded reactor **sheds** `BATCH` work with a busy reply whose
//!   wording is byte-identical on both wire protocols, keeps the pending
//!   queue bounded, and answers everything it did not shed correctly.
//!
//! The failpoint registry is process-global, and the router tests watch
//! prober-driven gauges that an armed `router.probe` site in a parallel test
//! would corrupt — so every test in this file serializes on [`serial`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wcsd::prelude::*;
use wcsd_bench::freshness::{run_feed, EdgeUpdate, FeedConfig};
use wcsd_bench::loadgen::{self, LoadgenConfig};
use wcsd_bench::QueryWorkload;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_graph::generators::{barabasi_albert, QualityAssigner};
use wcsd_obs::scrape::Scrape;
use wcsd_server::failpoint::{self, Action};
use wcsd_server::protocol::BUSY_REASON;

/// Serializes the whole suite: failpoints are process-global, so two tests
/// arming (or depending on the absence of) the same site must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A panicked test poisons the lock but leaves nothing shared behind
    // (its `Armed` guards disarm on unwind), so poisoning is ignorable.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms a failpoint and guarantees it is disarmed again, even on panic.
struct Armed(&'static str);

impl Armed {
    fn new(site: &'static str, action: Action, count: Option<u64>) -> Self {
        failpoint::set(site, action, count);
        Armed(site)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::clear(self.0);
    }
}

/// Full unsharded reference index over `g`.
fn full_flat(g: &Graph) -> FlatIndex {
    FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(g))
}

/// Binds a reactor over `index` on an ephemeral port and runs it.
fn spawn_server(
    index: &Arc<FlatIndex>,
    config: ServerConfig,
) -> (String, std::thread::JoinHandle<wcsd_server::ServerSnapshot>) {
    let server = Server::bind_flat(Arc::clone(index), config).expect("bind server");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Sends `SHUTDOWN` to `addr` and joins `handle`.
fn kill(addr: &str, handle: std::thread::JoinHandle<wcsd_server::ServerSnapshot>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Polls `cond` every 25 ms until it holds, panicking after `deadline`.
/// Returns how long it took.
fn wait_for(mut cond: impl FnMut() -> bool, deadline: Duration, what: &str) -> Duration {
    let start = Instant::now();
    loop {
        if cond() {
            return start.elapsed();
        }
        if start.elapsed() > deadline {
            panic!("timed out after {deadline:?} waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One `METRICS` scrape over a fresh text connection.
fn scrape(addr: &str) -> Scrape {
    let mut c = Client::connect(addr).expect("connect for metrics");
    Scrape::parse(&c.metrics(false).expect("metrics"))
}

// ---------------------------------------------------------------------------
// Replica failover.
// ---------------------------------------------------------------------------

/// Killing a shard's primary must be invisible to clients: the router fails
/// over to the replica serving the same frozen shard snapshot, so every
/// answer stays bit-identical to the unsharded reference — not one `ERR`.
#[test]
fn replica_failover_serves_bit_identical_answers() {
    let _serial = serial();
    let g = barabasi_albert(70, 2, &QualityAssigner::uniform(4), 31);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 9);
    let sharded = ShardedIndex::build(&g, &partition);
    let shards = sharded.shards();

    // Shard 0: single replica. Shard 1: primary + replica over the SAME
    // frozen snapshot — identical answers by construction.
    let (a0, h0) = spawn_server(&shards[0], ServerConfig::default());
    let (a1_primary, h1_primary) = spawn_server(&shards[1], ServerConfig::default());
    let (a1_replica, h1_replica) = spawn_server(&shards[1], ServerConfig::default());

    let config = RouterConfig {
        backend_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_millis(150),
        // The repeated workload must re-fan-out (not hit the router's result
        // cache) for the mid-request failover to be exercised at all.
        cache_capacity: 0,
        ..RouterConfig::default()
    };
    let groups = vec![vec![a0.clone()], vec![a1_primary.clone(), a1_replica.clone()]];
    let router = Router::bind(sharded.overlay().clone(), groups, config).expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0xFA11_07E5);
    let workload: Vec<(u32, u32, u32)> =
        (0..40).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=5))).collect();

    let mut client = Client::connect_with(&router_addr, Protocol::Binary).expect("connect router");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let healthy = client.batch(&workload).expect("healthy batch");
    for (i, &(s, t, w)) in workload.iter().enumerate() {
        assert_eq!(healthy[i], flat.distance_with(s, t, w, QueryImpl::Merge), "Q({s},{t},{w})");
    }

    // Kill shard 1's primary. Its port closes immediately.
    kill(&a1_primary, h1_primary);

    // Every request still succeeds — the exchange retries the primary once,
    // opens its breaker, and fails over to the replica mid-request.
    let after = client.batch(&workload).expect("failover batch must succeed, not ERR");
    assert_eq!(after, healthy, "replica answers diverge from the primary's");
    for &(s, t, w) in workload.iter().take(10) {
        assert_eq!(
            client.query(s, t, w).expect("failover query"),
            flat.distance_with(s, t, w, QueryImpl::Merge),
            "failover Q({s},{t},{w})"
        );
    }

    // The failover is observable: at least one failover counted, and the
    // dead primary's breaker shows as the one degraded replica.
    let m = scrape(&router_addr);
    assert!(
        m.value("wcsd_router_failovers_total").unwrap_or(0.0) >= 1.0,
        "failover counter did not move"
    );
    assert_eq!(m.value("wcsd_router_degraded_backends"), Some(1.0), "degraded gauge");

    kill(&router_addr, router_handle);
    kill(&a0, h0);
    kill(&a1_replica, h1_replica);
}

/// With both of a shard's replicas healthy, the router's round-robin rotation
/// must spread exchanges across them instead of pinning replica 0 — and every
/// answer stays bit-identical regardless of which replica served it. The
/// spread is read off `wcsd_router_replica_requests_total{shard, replica}`.
#[test]
fn round_robin_spreads_load_across_healthy_replicas() {
    let _serial = serial();
    let g = barabasi_albert(70, 2, &QualityAssigner::uniform(4), 31);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 9);
    let sharded = ShardedIndex::build(&g, &partition);
    let shards = sharded.shards();

    let (a0, h0) = spawn_server(&shards[0], ServerConfig::default());
    let (a1_primary, h1_primary) = spawn_server(&shards[1], ServerConfig::default());
    let (a1_replica, h1_replica) = spawn_server(&shards[1], ServerConfig::default());

    // Cache off so every query fans out; probing off so breakers (and hence
    // the preference order's classes) never move during the drill.
    let config = RouterConfig {
        probe_interval: Duration::ZERO,
        cache_capacity: 0,
        ..RouterConfig::default()
    };
    let groups = vec![vec![a0.clone()], vec![a1_primary.clone(), a1_replica.clone()]];
    let router = Router::bind(sharded.overlay().clone(), groups, config).expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0x0b0b_5eed);
    let mut client = Client::connect_with(&router_addr, Protocol::Binary).expect("connect router");
    for _ in 0..40 {
        let (s, t, w) = (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=5));
        assert_eq!(
            client.query(s, t, w).expect("balanced query"),
            flat.distance_with(s, t, w, QueryImpl::Merge),
            "Q({s},{t},{w})"
        );
    }

    let m = scrape(&router_addr);
    let served = |addr: &str| {
        let label = format!("replica=\"{addr}\"");
        m.sum_matching("wcsd_router_replica_requests_total", &[label.as_str()])
    };
    let (primary, replica) = (served(&a1_primary), served(&a1_replica));
    assert!(
        primary >= 1.0 && replica >= 1.0,
        "round-robin must hit both replicas: primary={primary}, replica={replica}"
    );
    // Healthy-group rotation alternates, so the split cannot be lopsided.
    let spread = primary.min(replica) / primary.max(replica);
    assert!(spread >= 0.5, "replica load too skewed: primary={primary}, replica={replica}");

    kill(&router_addr, router_handle);
    kill(&a0, h0);
    kill(&a1_primary, h1_primary);
    kill(&a1_replica, h1_replica);
}

// ---------------------------------------------------------------------------
// Probe-driven degrade / un-degrade.
// ---------------------------------------------------------------------------

/// A killed single-replica backend degrades via the background prober and
/// un-degrades automatically once restarted **on the same port** — with no
/// client query traffic at all (only router-local `METRICS` scrapes, which
/// never touch a backend). This also exercises the `SO_REUSEADDR` listener:
/// the restart re-acquires the port while the predecessor's connections are
/// still in TIME_WAIT.
#[test]
fn killed_backend_undegrades_after_restart_without_client_traffic() {
    let _serial = serial();
    let g = barabasi_albert(60, 2, &QualityAssigner::uniform(4), 12);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 4);
    let sharded = ShardedIndex::build(&g, &partition);
    let shards = sharded.shards();

    let (a0, h0) = spawn_server(&shards[0], ServerConfig::default());
    let (a1, h1) = spawn_server(&shards[1], ServerConfig::default());

    let probe_interval = Duration::from_millis(150);
    let config = RouterConfig {
        backend_timeout: Duration::from_millis(500),
        probe_interval,
        // The recovery proof re-issues the pre-kill query; it must reach the
        // restarted backend, not the router's result cache.
        cache_capacity: 0,
        ..RouterConfig::default()
    };
    let groups = vec![vec![a0.clone()], vec![a1.clone()]];
    let router = Router::bind(sharded.overlay().clone(), groups, config).expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    // A pair crossing into shard 1, so recovery can be proven with traffic
    // that must touch the restarted backend.
    let in_shard = |shard: u32| -> u32 {
        (0..g.num_vertices() as u32).find(|&v| partition.shard_of(v) == shard).unwrap()
    };
    let cross = (in_shard(0), in_shard(1));
    let mut client = Client::connect(&router_addr).expect("connect router");
    assert_eq!(
        client.query(cross.0, cross.1, 1).expect("healthy cross-shard query"),
        flat.distance_with(cross.0, cross.1, 1, QueryImpl::Merge)
    );

    // Kill backend 1. From here on, NO query traffic: the degrade and the
    // recovery below are driven entirely by the router's prober.
    kill(&a1, h1);
    wait_for(
        || scrape(&router_addr).value("wcsd_router_degraded_backends") == Some(1.0),
        Duration::from_secs(5),
        "prober to degrade the killed backend",
    );

    // Restart the same shard snapshot on the same port.
    let port: u16 = a1.rsplit(':').next().unwrap().parse().unwrap();
    let restarted =
        Server::bind_flat(Arc::clone(&shards[1]), ServerConfig { port, ..ServerConfig::default() })
            .expect("rebind the killed backend's port (SO_REUSEADDR)");
    assert_eq!(restarted.local_addr().to_string(), a1);
    let h1 = std::thread::spawn(move || restarted.run());

    // Un-degraded within two probe intervals of the restart (plus CI
    // scheduling slack) — the acceptance bound for self-healing.
    let took = wait_for(
        || scrape(&router_addr).value("wcsd_router_degraded_backends") == Some(0.0),
        2 * probe_interval + Duration::from_secs(1),
        "prober to un-degrade the restarted backend",
    );
    assert!(
        took <= 2 * probe_interval + Duration::from_secs(1),
        "un-degrade took {took:?}, want <= 2 probe intervals"
    );
    let m = scrape(&router_addr);
    assert!(m.value("wcsd_router_probes_total").unwrap_or(0.0) >= 2.0, "probes counted");
    assert!(m.value("wcsd_router_probe_failures_total").unwrap_or(0.0) >= 1.0, "failures counted");

    // And the recovery is real: cross-shard traffic is correct again.
    assert_eq!(
        client.query(cross.0, cross.1, 1).expect("query after recovery"),
        flat.distance_with(cross.0, cross.1, 1, QueryImpl::Merge)
    );

    kill(&router_addr, router_handle);
    kill(&a0, h0);
    kill(&a1, h1);
}

/// A backend that is gone by the time a client batch reaches it: shard 0's
/// exchange has already succeeded when shard 1's fails, so the router holds
/// half of the batch's rows — and must cache none of them. The client sees
/// exactly one `ERR`; after the restart the same batch, and a re-pairing of
/// its endpoints answered from the potential cache, are bit-identical to the
/// direct index.
#[test]
fn backend_killed_mid_batch_poisons_no_potentials() {
    let _serial = serial();
    let g = barabasi_albert(70, 2, &QualityAssigner::uniform(4), 19);
    let flat = full_flat(&g);
    let partition = Partition::build(&g, 2, 6);
    let sharded = ShardedIndex::build(&g, &partition);
    let shards = sharded.shards();
    let (a0, h0) = spawn_server(&shards[0], ServerConfig::default());
    let (a1, h1) = spawn_server(&shards[1], ServerConfig::default());
    // Default caches on; no prober, so only client traffic moves breakers.
    let config = RouterConfig {
        backend_timeout: Duration::from_millis(500),
        probe_interval: Duration::ZERO,
        ..RouterConfig::default()
    };
    let groups = vec![vec![a0.clone()], vec![a1.clone()]];
    let router = Router::bind(sharded.overlay().clone(), groups, config).expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    let in_shard = |shard: u32| -> Vec<u32> {
        (0..g.num_vertices() as u32).filter(|&v| partition.shard_of(v) == shard).collect()
    };
    let (v0, v1) = (in_shard(0), in_shard(1));
    // Cross-shard and same-shard pairs over both shards, every endpoint new.
    let batch: Vec<(u32, u32, u32)> = (0..8)
        .flat_map(|i| [(v0[i], v1[i], 1 + i as u32 % 3), (v1[i + 8], v1[i + 16], 2)])
        .chain([(v0[9], v0[10], 1)])
        .collect();
    let repaired: Vec<(u32, u32, u32)> = batch.iter().map(|&(s, t, w)| (t, s, w)).collect();
    let expect = |qs: &[(u32, u32, u32)]| -> Vec<_> {
        qs.iter().map(|&(s, t, w)| flat.distance_with(s, t, w, QueryImpl::Merge)).collect()
    };

    let mut client = Client::connect_with(&router_addr, Protocol::Binary).expect("connect router");
    // Live connections to both backends before the kill.
    assert_eq!(client.query(v0[20], v1[20], 1).expect("warm-up"), flat.distance(v0[20], v1[20], 1));
    let resident = scrape(&router_addr).value("wcsd_router_potential_cells").expect("cells gauge");

    kill(&a1, h1);
    let err = client.batch(&batch).expect_err("one ERR for the whole batch");
    assert!(err.contains("backend 1") && err.contains("unavailable"), "diagnostic: {err}");
    let m = scrape(&router_addr);
    assert_eq!(m.value("wcsd_router_potential_cells"), Some(resident), "nothing was inserted");
    assert_eq!(m.value("wcsd_cache_hits_total"), Some(0.0));

    let port: u16 = a1.rsplit(':').next().unwrap().parse().unwrap();
    let restarted =
        Server::bind_flat(Arc::clone(&shards[1]), ServerConfig { port, ..ServerConfig::default() })
            .expect("rebind the killed backend's port");
    let h1 = std::thread::spawn(move || restarted.run());

    assert_eq!(client.batch(&batch).expect("same batch after the restart"), expect(&batch));
    let misses = scrape(&router_addr).value("wcsd_router_potential_misses_total");
    assert_eq!(client.batch(&repaired).expect("re-paired endpoints"), expect(&repaired));
    let m = scrape(&router_addr);
    assert_eq!(m.value("wcsd_router_potential_misses_total"), misses, "served from cached rows");
    assert_eq!(m.value("wcsd_router_degraded_backends"), Some(0.0), "traffic closed the breaker");

    kill(&router_addr, router_handle);
    kill(&a0, h0);
    kill(&a1, h1);
}

/// The `router.probe` failpoint forces probe failures without killing
/// anything: every replica's breaker opens, and clearing the failpoint lets
/// the next probe round close them again. The deterministic core of the CI
/// chaos smoke.
#[test]
fn probe_failpoint_degrades_and_recovery_closes_breakers() {
    let _serial = serial();
    let g = barabasi_albert(40, 2, &QualityAssigner::uniform(4), 8);
    let partition = Partition::build(&g, 2, 2);
    let sharded = ShardedIndex::build(&g, &partition);
    let shards = sharded.shards();

    let (a0, h0) = spawn_server(&shards[0], ServerConfig::default());
    let (a1, h1) = spawn_server(&shards[1], ServerConfig::default());
    let config =
        RouterConfig { probe_interval: Duration::from_millis(100), ..RouterConfig::default() };
    let router =
        Router::bind(sharded.overlay().clone(), vec![vec![a0.clone()], vec![a1.clone()]], config)
            .expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    {
        let _armed = Armed::new("router.probe", Action::Fail, None);
        wait_for(
            || scrape(&router_addr).value("wcsd_router_degraded_backends") == Some(2.0),
            Duration::from_secs(5),
            "failing probes to open every breaker",
        );
    } // disarmed here: probes succeed again

    wait_for(
        || scrape(&router_addr).value("wcsd_router_degraded_backends") == Some(0.0),
        Duration::from_secs(5),
        "healthy probes to close the breakers",
    );

    // Traffic was never lost — breakers order replicas, they do not refuse.
    let flat = full_flat(&g);
    let mut client = Client::connect(&router_addr).expect("connect router");
    assert_eq!(
        client.query(0, 1, 1).expect("query after breaker recovery"),
        flat.distance_with(0, 1, 1, QueryImpl::Merge)
    );

    kill(&router_addr, router_handle);
    kill(&a0, h0);
    kill(&a1, h1);
}

// ---------------------------------------------------------------------------
// Crash-safe snapshots.
// ---------------------------------------------------------------------------

/// A feed process crashing mid-snapshot-write (simulated by the
/// `snapshot.write` failpoint tearing the write after 8 bytes) must never
/// corrupt the snapshot directory: the torn temp file is skipped, recovery
/// picks the previous generation byte-for-byte, and the next feed continues
/// the generation numbering instead of overwriting history.
#[test]
fn torn_snapshot_write_keeps_previous_generation_servable() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("wcsd-chaos-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let g = barabasi_albert(50, 3, &QualityAssigner::uniform(4), 21);
    let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
    let config = FeedConfig { batch_size: 4, addr: None, connect_timeout: Duration::from_secs(1) };

    let (_r1, snaps) =
        run_feed("chaos", &mut dyn_idx, &[EdgeUpdate::Add { u: 0, v: 49, q: 4 }], &dir, &config)
            .expect("first feed");
    assert_eq!(snaps.len(), 1);
    let gen1 = snaps[0].clone();
    assert!(gen1.ends_with("gen-000001.wcif"), "unexpected snapshot name {}", gen1.display());
    let (reference, _) =
        wcsd_server::load_newest_valid_snapshot(&dir).expect("gen-1 is valid before the crash");

    // The crash: the next snapshot write stops after 8 bytes.
    {
        let _armed = Armed::new("snapshot.write", Action::PartialWrite(8), Some(1));
        let err = run_feed(
            "chaos",
            &mut dyn_idx,
            &[EdgeUpdate::Add { u: 1, v: 48, q: 3 }],
            &dir,
            &config,
        )
        .expect_err("torn write must fail the feed");
        assert!(err.contains("injected crash"), "unexpected error: {err}");
    }

    // The torn write never became a generation, and recovery — the exact
    // code path behind `wcsd-cli serve <dir>` and `RELOAD <dir>` — still
    // picks gen-1, byte-identical to the pre-crash snapshot.
    assert!(!dir.join("gen-000002.wcif").exists(), "torn temp was promoted");
    let (recovered, path) = wcsd_server::load_newest_valid_snapshot(&dir).expect("recovery");
    assert_eq!(path, gen1, "recovery must pick the surviving generation");
    assert_eq!(recovered.encode(), reference.encode(), "recovered snapshot differs");

    // The healed pipeline continues the numbering: gen-2, never a rewrite
    // of gen-1.
    let (_r3, snaps) =
        run_feed("chaos", &mut dyn_idx, &[EdgeUpdate::Add { u: 2, v: 47, q: 2 }], &dir, &config)
            .expect("feed after recovery");
    assert!(snaps[0].ends_with("gen-000002.wcif"), "numbering restarted: {}", snaps[0].display());
    let (_, newest) = wcsd_server::load_newest_valid_snapshot(&dir).expect("post-recovery load");
    assert_eq!(newest, snaps[0]);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Overload shedding.
// ---------------------------------------------------------------------------

/// With the single batch worker pinned by a delayed job and a pending queue
/// of one, concurrent `BATCH`es shed — and the busy reply reads
/// byte-identically on both wire protocols. The pinned batch itself, and
/// any batch after the queue drains, completes with correct answers.
#[test]
fn overload_shed_wording_is_identical_on_both_protocols() {
    let _serial = serial();
    let g = barabasi_albert(40, 2, &QualityAssigner::uniform(4), 3);
    let reference = full_flat(&g);
    let config = ServerConfig { batch_workers: 1, max_pending_jobs: 1, ..ServerConfig::default() };
    let (addr, handle) = spawn_server(&Arc::new(reference.clone()), config);

    let batch: Vec<(u32, u32, u32)> =
        (0..30u32).map(|i| (i % 40, (i * 7) % 40, 1 + i % 4)).collect();

    // One slow batch occupies the worker for 800 ms; with the queue bounded
    // at one pending job, everything submitted behind it sheds.
    let _armed = Armed::new("worker.batch", Action::Delay(800), Some(1));
    let slow = {
        let (addr, batch) = (addr.clone(), batch.clone());
        std::thread::spawn(move || Client::connect(&addr).expect("connect").batch(&batch))
    };
    std::thread::sleep(Duration::from_millis(250)); // the slow batch owns the worker by now

    let mut text = Client::connect_with(&addr, Protocol::Text).expect("text client");
    let mut binary = Client::connect_with(&addr, Protocol::Binary).expect("binary client");
    let text_err = text.batch(&batch).expect_err("text batch must shed");
    let binary_err = binary.batch(&batch).expect_err("binary batch must shed");
    assert_eq!(text_err, binary_err, "busy wording differs across protocols");
    assert_eq!(text_err, format!("server error: {BUSY_REASON}"));

    // The pinned batch was merely slow, never wrong.
    let slow_answers = slow.join().expect("slow thread").expect("pinned batch succeeds");
    for (i, &(s, t, w)) in batch.iter().enumerate() {
        assert_eq!(slow_answers[i], reference.distance_with(s, t, w, QueryImpl::Merge));
    }

    // Both sheds are on the books — STATS and METRICS read the same atomics
    // — and the drained server accepts work again on the same connections.
    let stats = text.stats().expect("stats");
    assert_eq!(stats.shed, 2, "exactly the two shed batches");
    let m = Scrape::parse(&text.metrics(false).expect("metrics"));
    assert_eq!(m.sum_matching("wcsd_shed_total", &[]), 2.0);
    assert_eq!(m.value("wcsd_pending_jobs_limit"), Some(1.0));
    assert_eq!(text.batch(&batch).expect("post-shed text batch"), slow_answers);
    assert_eq!(binary.batch(&batch).expect("post-shed binary batch"), slow_answers);

    drop(text);
    drop(binary);
    kill(&addr, handle);
}

/// Open-loop load far above capacity: the reactor sheds instead of queueing
/// without bound, some work still completes, and **every** answer that does
/// come back is bit-identical to the direct index — shedding degrades
/// throughput, never correctness.
#[test]
fn open_loop_overload_sheds_bounded_and_nonshed_answers_are_correct() {
    let _serial = serial();
    let g = barabasi_albert(60, 3, &QualityAssigner::uniform(4), 17);
    let reference = full_flat(&g);
    let config = ServerConfig { batch_workers: 1, max_pending_jobs: 2, ..ServerConfig::default() };
    let (addr, handle) = spawn_server(&Arc::new(reference.clone()), config);

    // 25 ms per batch on one worker caps capacity at ~40 batches/s; the
    // open-loop schedule below offers ~500 batches/s.
    let _armed = Armed::new("worker.batch", Action::Delay(25), None);
    let workload = QueryWorkload::uniform(&g, 400, 77);
    let lg = LoadgenConfig {
        connections: 4,
        batch_size: 8,
        connect_timeout: Duration::from_secs(5),
        protocol: Protocol::Binary,
        rate_qps: 4000.0,
    };
    let (result, answers) =
        loadgen::run_against(&addr, "chaos-overload", &workload, &lg).expect("loadgen run");

    assert!(result.errors > 0, "no shedding at >10x capacity");
    assert!(result.errors < result.queries, "nothing completed under overload");
    for (&(s, t, w), answer) in workload.queries().iter().zip(&answers) {
        if answer.is_some() {
            assert_eq!(
                *answer,
                reference.distance_with(s, t, w, QueryImpl::Merge),
                "non-shed answer wrong for Q({s},{t},{w})"
            );
        }
    }

    // The pending queue stayed bounded by admission control, the sheds are
    // counted, and STATS agrees with METRICS.
    let mut probe = Client::connect(&addr).expect("probe connection");
    let m = Scrape::parse(&probe.metrics(false).expect("metrics"));
    let shed = m.sum_matching("wcsd_shed_total", &[]);
    assert!(shed >= 1.0, "shed counter did not move");
    assert_eq!(m.value("wcsd_pending_jobs_limit"), Some(2.0));
    assert!(m.value("wcsd_pending_jobs").unwrap_or(0.0) <= 2.0, "pending gauge above limit");
    assert_eq!(probe.stats().expect("stats").shed as f64, shed);

    drop(probe);
    kill(&addr, handle);
}

// ---------------------------------------------------------------------------
// Accept-path fault injection.
// ---------------------------------------------------------------------------

/// `reactor.accept=2*refuse` drops exactly two fresh connections before
/// registration — their first request fails, nothing else is harmed, and the
/// third connection works end to end.
#[test]
fn refused_accepts_spend_their_budget_then_recover() {
    let _serial = serial();
    let g = barabasi_albert(30, 2, &QualityAssigner::uniform(4), 6);
    let reference = full_flat(&g);
    let (addr, handle) = spawn_server(&Arc::new(reference.clone()), ServerConfig::default());

    let _armed = Armed::new("reactor.accept", Action::Refuse, Some(2));
    for doomed in 0..2 {
        // TCP connect still completes (the kernel backlog accepts it); the
        // reactor then drops the socket, so the first request errors.
        let mut c = Client::connect(&addr).expect("tcp connect");
        assert!(c.query(0, 1, 1).is_err(), "connection {doomed} should have been dropped");
    }
    let mut ok = Client::connect(&addr).expect("post-budget connect");
    assert_eq!(
        ok.query(0, 1, 1).expect("post-budget query"),
        reference.distance_with(0, 1, 1, QueryImpl::Merge)
    );

    drop(ok);
    kill(&addr, handle);
}
