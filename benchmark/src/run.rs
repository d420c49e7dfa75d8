//! One run of one workload: set up, load, publish, stop, check, replay.

use crate::check::{check_churn, check_static, Verdict};
use crate::gen::{stream_seed, SplitMix64};
use crate::layers;
use crate::load::{
    batch_lane, feeder, point_lane, reload, write_generation, FeederLog, LaneLog, Plan,
    PublishTimes, SnapshotDir, SLICES,
};
use crate::report::{out_dir, quote, timing_json, Provenance, Readings};
use crate::stats::{median, nearest_rank, timing, Timing};
use crate::trace::{merge_totals, Recorder};
use crate::workloads::{set_up, Deployment, SetupLayers, Spec, Traffic, LEVELS};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wcsd_core::{FlatIndex, IndexBuilder};
use wcsd_obs::scrape::Scrape;
use wcsd_server::{Client, Protocol, ServerSnapshot};

/// Warm-up before the measured phase: caches fill, connections settle.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Publications timed after the read phase on the workloads without a feed:
/// at least the first number, then more while they fit the time box, so a
/// 3 ms publication is sampled as steadily as a 90 ms one.
const REPUBLISH_CYCLES: std::ops::RangeInclusive<u64> = 5..=25;
const REPUBLISH_BOX: Duration = Duration::from_millis(1500);
/// The generator alone must run this many times faster than the system did,
/// or the run may have measured the generator.
const MIN_GENERATOR_HEADROOM: f64 = 5.0;

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Outcome {
    pub verdict: Verdict,
    pub end_to_end: Readings,
    /// Filled by a traced run only.
    pub per_layer: Readings,
    pub flags: Vec<String>,
}

/// STATS and METRICS of one server at one moment.
struct Scraped {
    stats: ServerSnapshot,
    metrics: Scrape,
}

fn scrape(admin: &mut Client) -> Result<Scraped, String> {
    Ok(Scraped { stats: admin.stats()?, metrics: Scrape::parse(&admin.metrics(false)?) })
}

fn connect(addr: SocketAddr, protocol: Protocol) -> Result<Client, String> {
    Client::connect_with(addr, protocol).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// What the load phase and the publications after it produced.
struct Measured {
    plan: Plan,
    lanes: Vec<LaneLog>,
    recorders: Vec<Recorder>,
    feed: Option<FeederLog>,
    /// Static workloads: counted time and per-server step times of each
    /// publication after the read phase.
    republished: Vec<(u64, Vec<PublishTimes>)>,
    /// Traced runs: every server (backends, then the router) at the start
    /// and the end of the measured phase, and the backends after the last
    /// publication.
    before: Vec<Scraped>,
    after: Vec<Scraped>,
    at_end: Vec<Scraped>,
}

fn join<T>(handle: std::thread::JoinHandle<Result<T, String>>, what: &str) -> Result<T, String> {
    handle.join().map_err(|_| format!("the {what} thread panicked"))?
}

fn measure(spec: &Spec, opts: &Options, deployment: &mut Deployment) -> Result<Measured, String> {
    let front = deployment.front();
    let servers: Vec<SocketAddr> = deployment
        .backends
        .iter()
        .map(|b| b.addr)
        .chain(deployment.router.as_ref().map(|r| r.addr))
        .collect();
    let mut admins = Vec::new();
    if opts.trace {
        for &addr in &servers {
            admins.push(connect(addr, Protocol::Text)?);
        }
    }
    let mut snapshots = Some(SnapshotDir::create(out_dir().join(format!(
        "snapshots-{}-{}",
        spec.name,
        std::process::id()
    )))?);

    let plan = Plan::new(WARMUP, Duration::from_secs(opts.seconds), opts.trace);
    let mut lane_threads = Vec::new();
    match spec.traffic {
        Traffic::Batch { lanes, size } => {
            for lane in 0..lanes {
                let stream = spec.uniform_stream(opts.seed, lane as u64);
                lane_threads.push(std::thread::spawn(move || {
                    batch_lane(front, stream, size, plan, &format!("lane{lane}"))
                }));
            }
        }
        Traffic::Point { connections, depth } => {
            let stream = spec.zipf_stream(opts.seed);
            lane_threads.push(std::thread::spawn(move || {
                point_lane(front, stream, connections, depth, plan, "lane0")
            }));
        }
    }
    let feed_thread = match deployment.dynamic.take() {
        Some(dynamic) => {
            let rng = SplitMix64::new(stream_seed(opts.seed, spec.name, 1000));
            let dir = snapshots.take().expect("snapshot directory not handed out yet");
            Some(std::thread::spawn(move || feeder(dynamic, LEVELS, rng, front, dir, plan)))
        }
        None => None,
    };

    let mut scrape_all = || admins.iter_mut().map(scrape).collect::<Result<Vec<_>, _>>();
    let mut scrapes = None;
    if opts.trace {
        plan.sleep_until(plan.measure_start_ns);
        let before = scrape_all();
        plan.sleep_until(plan.end_ns);
        scrapes = Some((before, scrape_all()));
    }
    // Join everything before looking at any error, so no thread outlives the run.
    let lane_results: Vec<_> = lane_threads.into_iter().map(|h| join(h, "lane")).collect();
    let feed_result = feed_thread.map(|h| join(h, "feeder")).transpose();
    let (before, after) = match scrapes {
        Some((before, after)) => (before?, after?),
        None => (Vec::new(), Vec::new()),
    };
    let (mut lanes, mut recorders) = (Vec::new(), Vec::new());
    for result in lane_results {
        let (log, recorder) = result?;
        lanes.push(log);
        recorders.push(recorder);
    }
    let feed = match feed_result? {
        Some((log, recorder)) => {
            recorders.push(recorder);
            Some(log)
        }
        None => None,
    };

    // Without a feed, time the publication alone, on the idle servers: the
    // served snapshots are written once, and then go back into service
    // several times through `encode` and `RELOAD`. The write is not part of
    // a counted cycle: while its pages were still on their way to the disk,
    // the next RELOAD of the 40 MB road snapshot took anything from 55 to
    // 330 ms, which measured the disk and not the index.
    let mut republished = Vec::new();
    if let Some(mut snapshots) = snapshots {
        let mut recorder = Recorder::new("publisher", plan.epoch, true);
        let mut targets = Vec::new();
        for (server, (backend, flat)) in
            deployment.backends.iter().zip(&deployment.shards).enumerate()
        {
            let mut admin = connect(backend.addr, Protocol::Binary)?;
            let (path, mut written) =
                write_generation(flat, &mut snapshots, server, 2, &mut recorder, 0)?;
            reload(&mut admin, &path, &mut recorder, 0, &plan, &mut written)?;
            targets.push((admin, path, written));
        }
        let started = Instant::now();
        for cycle in 1..=*REPUBLISH_CYCLES.end() {
            if cycle > *REPUBLISH_CYCLES.start() && started.elapsed() >= REPUBLISH_BOX {
                break;
            }
            recorder.enter("publish.cycle", cycle);
            let mut steps = Vec::new();
            for ((admin, path, written), flat) in targets.iter_mut().zip(&deployment.shards) {
                let mut step = PublishTimes { write_ns: written.write_ns, ..*written };
                step.encode_ns = recorder.timed("flat.encode", cycle, || flat.encode().len()).1;
                reload(admin, path, &mut recorder, cycle, &plan, &mut step)?;
                steps.push(step);
            }
            recorder.exit();
            let counted = steps.iter().map(|p| p.encode_ns + p.reload_ns).sum();
            republished.push((counted, steps));
        }
        recorders.push(recorder);
    }
    let mut at_end = Vec::new();
    for admin in admins.iter_mut().take(deployment.backends.len()) {
        at_end.push(scrape(admin)?);
    }
    Ok(Measured { plan, lanes, recorders, feed, republished, before, after, at_end })
}

/// Sums one series over the scrapes of several servers.
fn total(scrapes: &[Scrape], name: &str, filter: &[&str]) -> f64 {
    scrapes.iter().map(|s| s.sum_matching(name, filter)).sum()
}

/// Mean of a histogram family member over several servers, in its own unit.
fn histogram_mean<'a>(
    scrapes: impl IntoIterator<Item = &'a Scrape>,
    name: &str,
    filter: &[&str],
) -> f64 {
    let (sum, count) = scrapes.into_iter().fold((0.0, 0u64), |(sum, count), s| {
        let h = s.histogram(name, filter);
        (sum + h.sum, count + h.count)
    });
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ms(values: impl Iterator<Item = u64>) -> f64 {
    median(&values.map(ns_to_ms).collect::<Vec<_>>())
}

/// What the measured phase adds up to, before it is split into metrics.
struct Summary {
    /// Answered queries per second in each slice of the measured phase.
    slice_qps: Vec<f64>,
    /// Median over the even and over the odd slices; a traced run records
    /// spans in the odd ones only, so the two give the tracing overhead.
    untraced_qps: f64,
    traced_qps: f64,
    query_qps: f64,
    answered: u64,
    /// Ascending.
    latencies_us: Vec<f64>,
    latency: Timing,
    index_bytes: usize,
    update: Timing,
    setup_s: f64,
}

fn summarise(
    opts: &Options,
    deployment: &Deployment,
    setups: &[(f64, SetupLayers)],
    m: &Measured,
    verdict: &Verdict,
) -> Result<Summary, String> {
    let slice_s = m.plan.slice_ns() as f64 / 1e9;
    let slice_answered: Vec<u64> =
        (0..SLICES).map(|s| m.lanes.iter().map(|l| l.slice_answered[s]).sum()).collect();
    let slice_qps: Vec<f64> = slice_answered.iter().map(|&n| n as f64 / slice_s).collect();
    let every =
        |parity: usize| -> Vec<f64> { slice_qps.iter().copied().skip(parity).step_by(2).collect() };
    let (untraced_qps, traced_qps) = (median(&every(0)), median(&every(1)));
    let answered: u64 = slice_answered.iter().sum();
    // Only correct answers count; a run with a wrong one fails anyway.
    let right_share = 1.0 - verdict.wrong as f64 / answered.max(1) as f64;
    let query_qps = right_share * if opts.trace { untraced_qps } else { median(&slice_qps) };

    let mut latencies_us: Vec<f64> = m
        .lanes
        .iter()
        .flat_map(|l| l.requests.iter().map(|r| (r.recv_ns - r.sent_ns) as f64 / 1e3))
        .collect();
    let latency = timing(&mut latencies_us).ok_or("no request completed")?;

    let (index_bytes, mut update_ms): (usize, Vec<f64>) = match &m.feed {
        Some(feed) => {
            let last = feed.generations.last().expect("generation 1 always exists");
            let cycles = feed.cycles.iter().map(|c| ns_to_ms(c.update_to_servable_ns()));
            (last.bytes, cycles.collect())
        }
        None => {
            let overlay = deployment.overlay.as_ref().map_or(0, |o| o.encode().len());
            let served: usize =
                m.republished.first().map_or(0, |c| c.1.iter().map(|p| p.bytes).sum());
            (served + overlay, m.republished.iter().map(|c| ns_to_ms(c.0)).collect())
        }
    };
    let update = timing(&mut update_ms).ok_or("no update cycle fell into the measured phase")?;
    Ok(Summary {
        slice_qps,
        untraced_qps,
        traced_qps,
        query_qps,
        answered,
        latencies_us,
        latency,
        index_bytes,
        update,
        setup_s: median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
    })
}

/// The per-layer metrics of a traced run, in catalogue order.
#[allow(clippy::too_many_arguments)]
fn layer_readings(
    spec: &Spec,
    opts: &Options,
    deployment: &Deployment,
    setups: &[(f64, SetupLayers)],
    m: &Measured,
    verdict: &Verdict,
    sum: &Summary,
    generator_qps: f64,
    flags: &mut Vec<String>,
) -> Result<Readings, String> {
    let mut found = Readings::new();
    let layer_median =
        |f: fn(&SetupLayers) -> f64| median(&setups.iter().map(|s| f(&s.1)).collect::<Vec<_>>());
    found.extend([
        ("graph.generate_s", layer_median(|l| l.generate_s)),
        ("graph.partition_s", layer_median(|l| l.partition_s)),
        ("order.order_s", layer_median(|l| l.order_s)),
        ("core.build.sweep_s", layer_median(|l| l.sweep_s)),
        ("core.build.entries", deployment.layers.entries as f64),
        ("core.flat.freeze_s", layer_median(|l| l.freeze_s)),
        ("core.overlay.build_s", layer_median(|l| l.overlay_s)),
    ]);

    // In-process replay of the workload's first queries.
    let queries = spec.first_queries(opts.seed, layers::REPLAY_QUERIES);
    let flat = &deployment.shards[0];
    let mut sharded_us = 0.0;
    let kernel_queries = match &deployment.overlay {
        Some(overlay) => {
            let (readings, shard0) = layers::overlay_path(&deployment.shards, overlay, &queries)?;
            sharded_us = readings
                .iter()
                .find(|r| r.0 == "core.overlay.sharded_distance_us")
                .map_or(0.0, |r| r.1);
            found.extend(readings);
            shard0
        }
        None => queries,
    };
    found.extend(layers::query_path(flat, deployment.nested.as_ref(), &kernel_queries));
    match spec.traffic {
        Traffic::Point { .. } => found.extend(layers::text_path(flat, &kernel_queries)),
        Traffic::Batch { size, .. } => {
            found.extend(layers::binary_path(flat, &kernel_queries, size));
        }
    }
    found.extend(layers::snapshot_path(flat));
    let mut set = |name: &'static str, value: f64| found.push((name, value));

    // Server-side counters over the measured phase.
    let deltas: Vec<Scrape> =
        m.after.iter().zip(&m.before).map(|(a, b)| a.metrics.delta(&b.metrics)).collect();
    let (backends, router) = deltas.split_at(deployment.shards.len());
    let measured_s = (m.plan.end_ns - m.plan.measure_start_ns) as f64 / 1e9;
    // The workload's own protocol only: the feed's RELOAD arrives on a
    // binary connection and must not colour the text phases.
    let proto = match spec.traffic {
        Traffic::Point { .. } => "proto=\"text\"",
        Traffic::Batch { .. } => "proto=\"binary\"",
    };
    let phase = |name: &str| {
        let phase = format!("phase=\"{name}\"");
        histogram_mean(backends, "wcsd_request_phase_us", &[proto, &phase])
    };
    set("server.reactor.parse_us_mean", phase("parse"));
    set("server.reactor.queue_us_mean", phase("queue"));
    set("server.reactor.execute_us_mean", phase("execute"));
    set("server.reactor.write_us_mean", phase("write"));
    let requests = total(backends, "wcsd_requests_total", &[proto, "verb=\"query\""])
        + total(backends, "wcsd_requests_total", &[proto, "verb=\"batch\""]);
    set("server.reactor.requests", requests);
    set("server.reactor.shed", total(backends, "wcsd_shed_total", &[]));
    if matches!(spec.traffic, Traffic::Point { .. }) && requests > 0.0 {
        // Point requests run inline on the one reactor thread, so wall time
        // per request minus the timed phases is what the reactor spends
        // outside them: syscalls, wake-ups, idling. (Phase samples are not
        // one per request — `write` counts flushes — so this works from
        // their sums.)
        let timed_us: f64 =
            backends.iter().map(|s| s.histogram("wcsd_request_phase_us", &[proto]).sum).sum();
        set("server.reactor.residual_us", (measured_s * 1e6 - timed_us) / requests);
    }
    let stats_delta = |i: usize, f: fn(&ServerSnapshot) -> u64| {
        f(&m.after[i].stats).saturating_sub(f(&m.before[i].stats)) as f64
    };
    let hit_rate = |i: usize| {
        let (hits, misses) = (stats_delta(i, |s| s.cache_hits), stats_delta(i, |s| s.cache_misses));
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    };
    set("server.cache.hit_rate", hit_rate(0));
    if let Some(router) = router.first() {
        let router_at = deployment.shards.len();
        let client_queries = stats_delta(router_at, |s| s.queries + s.batch_queries);
        let fanned = router.sum_matching("wcsd_router_fanout_queries_total", &[]);
        set("server.router.fanout_queries_per_query", fanned / client_queries.max(1.0));
        set("server.router.cache_hit_rate", hit_rate(router_at));
        set("server.router.failovers", router.sum_matching("wcsd_router_failovers_total", &[]));
        set(
            "server.router.overhead_us",
            sum.latency.median - sharded_us * spec.traffic.request_size() as f64,
        );
    }

    // Update path: the feed's cycles, or the publications after the reads.
    let publishes: Vec<PublishTimes> = match &m.feed {
        Some(feed) => feed.cycles.iter().map(|c| c.publish).collect(),
        None => m.republished.iter().flat_map(|c| c.1.iter().copied()).collect(),
    };
    if let Some(feed) = &m.feed {
        set("core.dynamic.insert_ms", median_ms(feed.cycles.iter().map(|c| c.insert_ns)));
        set("core.dynamic.remove_ms", median_ms(feed.cycles.iter().map(|c| c.remove_ns)));
        let repaired: Vec<f64> =
            feed.cycles.iter().filter_map(|c| c.affected_hubs).map(|h| h as f64).collect();
        if !repaired.is_empty() {
            set(
                "core.decremental.affected_hubs_mean",
                repaired.iter().sum::<f64>() / repaired.len() as f64,
            );
        }
        set("core.dynamic.rebuild_fallbacks", feed.rebuild_fallbacks as f64);
        set("core.dynamic.freeze_ms", median_ms(feed.cycles.iter().map(|c| c.freeze_ns)));
        set(
            "loadgen.feeder_lag_p50_ms",
            median_ms(feed.cycles.iter().map(|c| c.started_ns - c.due_ns)),
        );
    }
    set("loadgen.update_cycles", sum.update.samples as f64);
    set("core.flat.encode_ms", median_ms(publishes.iter().map(|p| p.encode_ns)));
    set("core.flat.snapshot_bytes", sum.index_bytes as f64);
    set("server.snapshot.write_ms", median_ms(publishes.iter().map(|p| p.write_ns)));
    set("server.reload.roundtrip_ms", median_ms(publishes.iter().map(|p| p.reload_ns)));
    let reload = |name: &str| {
        let phase = format!("phase=\"{name}\"");
        let ends = m.at_end.iter().map(|s| &s.metrics);
        histogram_mean(ends, "wcsd_reload_phase_us", &[&phase]) / 1e3
    };
    set("server.reload.decode_ms", reload("decode"));
    set("server.reload.swap_ms", reload("swap"));

    // The instrument itself.
    set("loadgen.latency_p99_us", nearest_rank(&sum.latencies_us, 0.99));
    set("loadgen.latency_max_us", sum.latencies_us.last().copied().unwrap_or(0.0));
    set("loadgen.requests", verdict.requests as f64);
    set("loadgen.query_qps_mean", sum.answered as f64 / measured_s);
    set("loadgen.failed_share", verdict.failed as f64 / verdict.attempted.max(1) as f64);
    set("loadgen.errors", verdict.errors as f64);
    set("loadgen.refused", verdict.refused as f64);
    set("loadgen.wrong_answers", verdict.wrong as f64);
    set("loadgen.oracle_checked", verdict.oracle_checked as f64);
    set("loadgen.timer_ns", layers::timer_ns());
    let headroom = generator_qps / sum.query_qps.max(1.0);
    set("loadgen.generator_headroom", headroom);
    if headroom < MIN_GENERATOR_HEADROOM {
        flags.push(format!(
            "the generator alone runs only {headroom:.1}x the measured rate; the run may have \
             measured the generator"
        ));
    }
    set("loadgen.in_flight", spec.traffic.in_flight() as f64);
    set("loadgen.measured_s", measured_s);
    set("trace.overhead_share", 1.0 - sum.traced_qps / sum.untraced_qps.max(1.0));
    let totals = merge_totals(m.recorders.iter());
    set("trace.spans", totals.iter().map(|t| t.count).sum::<u64>() as f64);
    let self_us = |name: &str| {
        totals
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    set("trace.turn_self_us", self_us("loadgen.turn"));
    set("trace.generate_self_us", self_us("loadgen.generate"));
    set("trace.send_self_us", self_us("client.send"));
    set("trace.wait_self_us", self_us("client.wait") + self_us("client.exchange"));

    // Catalogue order; a metric the workload does not exercise reads 0.
    Ok(crate::catalog::PER_LAYER
        .iter()
        .map(|m| (m.name, found.iter().find(|r| r.0 == m.name).map_or(0.0, |r| r.1)))
        .collect())
}

pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark only measures --release".to_string());
    }
    let provenance = Provenance::collect();
    let mut flags = Vec::new();

    // Set up several times; the last set-up is the one that serves.
    let mut setups: Vec<(f64, SetupLayers)> = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for _ in 0..spec.setup_repeats {
        if let Some(mut previous) = deployment.take() {
            previous.stop()?;
        }
        let next = set_up(spec)?;
        setups.push((next.setup_s, next.layers));
        deployment = Some(next);
    }
    let mut deployment = deployment.expect("every workload sets up at least once");
    let generator_qps = if opts.trace { layers::generator_rate(spec, opts.seed) } else { 0.0 };

    let measured = measure(spec, opts, &mut deployment);
    let stopped = deployment.stop();
    let m = measured?;
    stopped?;

    // Correctness, on what the lanes recorded.
    let verdict = match &m.feed {
        Some(feed) => check_churn(&m.lanes, &feed.generations),
        None if spec.shards > 1 => {
            // Routed answers must be bit-identical to one index over the
            // whole graph; built here, outside every timed section.
            let whole = IndexBuilder::wc_index_plus().build(&deployment.graph);
            check_static(&m.lanes, &FlatIndex::from_index(&whole), &deployment.graph)
        }
        None => check_static(&m.lanes, &deployment.shards[0], &deployment.graph),
    };

    let sum = summarise(opts, &deployment, &setups, &m, &verdict)?;
    let end_to_end: Readings = vec![
        ("setup_s", sum.setup_s),
        ("query_qps", sum.query_qps),
        ("latency_p50_us", sum.latency.median),
        ("latency_p90_us", nearest_rank(&sum.latencies_us, 0.9)),
        ("answered_share", 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64),
        ("index_mib", sum.index_bytes as f64 / (1024.0 * 1024.0)),
        ("update_to_servable_p50_ms", sum.update.median),
    ];
    let per_layer = if opts.trace {
        layer_readings(
            spec,
            opts,
            &deployment,
            &setups,
            &m,
            &verdict,
            &sum,
            generator_qps,
            &mut flags,
        )?
    } else {
        Readings::new()
    };

    // The record and, for a traced run, the span file.
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"warmup_s\": {}, \"measured_s\": {}, \"traced\": {}, \
         \"in_flight\": {}, \"request_size\": {}, \"setup_repeats\": {}, \"provenance\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"first_problem\": {}, \"flags\": [{}], \
         \"slice_qps\": [{}], \"latency_us\": {}, \"update_to_servable_ms\": {}, \"end_to_end\": {}, \
         \"per_layer\": {}}}\n",
        quote(spec.name),
        opts.seed,
        WARMUP.as_secs_f64(),
        opts.seconds,
        opts.trace,
        spec.traffic.in_flight(),
        spec.traffic.request_size(),
        spec.setup_repeats,
        provenance.json(),
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        verdict.first_problem.as_deref().map_or("null".to_string(), quote),
        flags.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", "),
        sum.slice_qps.iter().map(|q| format!("{q}")).collect::<Vec<_>>().join(", "),
        timing_json(&sum.latency),
        timing_json(&sum.update),
        crate::report::metrics_object(&end_to_end),
        crate::report::metrics_object(&per_layer),
    );
    let suffix = if opts.trace { "-traced" } else { "" };
    let path = out.join(format!("{}{suffix}.json", spec.name));
    std::fs::write(&path, record).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if opts.trace {
        let mut spans = String::from("[");
        for (i, recorder) in m.recorders.iter().enumerate() {
            if i > 0 {
                spans.push_str(",\n");
            }
            recorder.write_json(&mut spans);
        }
        spans.push_str("]\n");
        let path = out.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome { verdict, end_to_end, per_layer, flags })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    /// `cargo test` builds this with debug assertions, where the harness must
    /// refuse to measure; `cargo test --release` runs one short workload for
    /// real, through servers, router, check and replay.
    #[test]
    fn debug_builds_are_refused_and_release_builds_measure() {
        let routed = spec("road-routed").expect("road-routed is a workload");
        let outcome = run(routed, &Options { seed: 3, seconds: 1, trace: true });
        if cfg!(debug_assertions) {
            let refusal = outcome.err().expect("a debug build must not be measured");
            assert!(refusal.contains("debug build"), "{refusal}");
            return;
        }
        let outcome = outcome.expect("the run completes");
        assert!(outcome.verdict.correct(), "{:?}", outcome.verdict);
        assert!(outcome.verdict.oracle_checked > 0);
        let names: Vec<&str> = outcome.end_to_end.iter().map(|r| r.0).collect();
        let catalogue: Vec<&str> = crate::catalog::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, catalogue);
        assert!(outcome.end_to_end.iter().all(|r| r.1.is_finite() && r.1 > 0.0));
        let layer_names: Vec<&str> = outcome.per_layer.iter().map(|r| r.0).collect();
        let layer_catalogue: Vec<&str> = crate::catalog::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(layer_names, layer_catalogue);
        let layer = |name: &str| outcome.per_layer.iter().find(|r| r.0 == name).map(|r| r.1);
        assert!(layer("core.overlay.fanout_per_query") > Some(1.0));
        assert_eq!(layer("loadgen.failed_share"), Some(0.0));
    }
}
