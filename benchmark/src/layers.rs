//! Per-layer measurements taken from outside the layers: harness timers
//! around public calls, on one thread, replaying the workload's own first
//! queries in process. None of this runs while the end-to-end numbers are
//! measured.

use crate::gen::Query;
use crate::report::Readings;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wcsd_core::overlay::{OverlayIndex, ShardedIndex};
use wcsd_core::{kernel, parallel, FlatIndex, FlatView, WcIndex};
use wcsd_graph::VertexId;
use wcsd_server::binary::{self, BinRequest};
use wcsd_server::{protocol, Reply, ResultCache, ServerConfig};

/// Queries of the workload's first lane that are replayed.
pub const REPLAY_QUERIES: usize = 200_000;
/// Queries whose matched groups are gathered for the `group_min` timing, and
/// whose plans are replayed through the overlay.
const SAMPLE_QUERIES: usize = 20_000;
const OVERLAY_QUERIES: usize = 2_000;

fn per_item_ns(started: Instant, items: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Cost of one clock reading, the floor under every latency sample.
pub fn timer_ns() -> f64 {
    const READS: usize = 1_000_000;
    let started = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    per_item_ns(started, READS)
}

/// The hub groups of every label set, `(hub, entries)` ascending by hub, as
/// [`FlatIndex::label_entries`] shows them.
struct GroupDirectory {
    offsets: Vec<usize>,
    groups: Vec<(VertexId, u32)>,
}

impl GroupDirectory {
    fn of(flat: &FlatIndex) -> Self {
        let mut offsets = vec![0];
        let mut groups: Vec<(VertexId, u32)> = Vec::new();
        for v in 0..flat.num_vertices() as VertexId {
            let start = groups.len();
            for entry in flat.label_entries(v) {
                match groups[start..].last_mut() {
                    Some((hub, count)) if *hub == entry.hub => *count += 1,
                    _ => groups.push((entry.hub, 1)),
                }
            }
            groups[start..].sort_unstable_by_key(|g| g.0);
            offsets.push(groups.len());
        }
        Self { offsets, groups }
    }

    fn of_vertex(&self, v: VertexId) -> &[(VertexId, u32)] {
        &self.groups[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Replays `queries` against one index on one thread: the merge itself, the
/// exact work it is given, the group kernel alone, and the batch fan-out.
pub fn query_path(flat: &FlatIndex, nested: Option<&WcIndex>, queries: &[Query]) -> Readings {
    let config = ServerConfig::default();
    let mut out = Readings::new();
    let n = queries.len();

    let started = Instant::now();
    for &(s, t, w) in queries {
        black_box(flat.distance_with(s, t, w, config.query_impl));
    }
    let flat_ns = per_item_ns(started, n);
    out.push(("core.flat.distance_ns", flat_ns));

    if let Some(index) = nested {
        let started = Instant::now();
        for &(s, t, w) in queries {
            black_box(index.distance(s, t, w));
        }
        out.push(("core.index.distance_ns", per_item_ns(started, n)));
    }

    // What the merge is given: both directories to compare, the hubs they
    // share, and the entries under those hubs.
    let directory = GroupDirectory::of(flat);
    let (mut compared, mut matched, mut scanned) = (0u64, 0u64, 0u64);
    for &(s, t, _) in queries {
        let (a, b) = (directory.of_vertex(s), directory.of_vertex(t));
        compared += (a.len() + b.len()) as u64;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    matched += 1;
                    scanned += u64::from(a[i].1 + b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out.push(("core.kernel.groups_compared_per_query", compared as f64 / n as f64));
    out.push(("core.kernel.groups_matched_per_query", matched as f64 / n as f64));
    out.push(("core.kernel.entries_scanned_per_query", scanned as f64 / n as f64));

    // The group kernel alone, over the matched groups of a sample: columns
    // gathered first, then `group_min` timed over them.
    let (mut dists, mut quals, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    for &(s, t, w) in queries.iter().take(SAMPLE_QUERIES) {
        let shared: Vec<VertexId> = {
            let (a, b) = (directory.of_vertex(s), directory.of_vertex(t));
            a.iter()
                .filter(|g| b.binary_search_by_key(&g.0, |h| h.0).is_ok())
                .map(|g| g.0)
                .collect()
        };
        for v in [s, t] {
            let mut current: Option<(VertexId, usize)> = None;
            for entry in flat.label_entries(v) {
                if shared.binary_search(&entry.hub).is_err() {
                    continue;
                }
                if current.map(|c| c.0) != Some(entry.hub) {
                    if let Some((_, start)) = current {
                        calls.push((start, dists.len(), w));
                    }
                    current = Some((entry.hub, dists.len()));
                }
                dists.push(entry.dist);
                quals.push(entry.quality);
            }
            if let Some((_, start)) = current {
                calls.push((start, dists.len(), w));
            }
        }
    }
    if !calls.is_empty() {
        let started = Instant::now();
        for &(start, end, w) in &calls {
            black_box(kernel::group_min(&dists[start..end], &quals[start..end], w));
        }
        out.push(("core.kernel.group_min_ns", per_item_ns(started, calls.len())));
    }

    // The batch fan-out the server's BATCH path goes through, per query.
    let mut fanout = [0.0; 2];
    for (slot, (name, size)) in
        [("core.parallel.par_distances_b64_ns", 64), ("core.parallel.par_distances_b16_ns", 16)]
            .into_iter()
            .enumerate()
    {
        // Thread hand-off per batch makes this the slowest replay: a quarter
        // of the queries is plenty.
        let part = &queries[..n.min(REPLAY_QUERIES / 4)];
        let started = Instant::now();
        for batch in part.chunks(size) {
            black_box(parallel::par_distances_with(
                flat,
                batch,
                config.batch_threads,
                config.query_impl,
            ));
        }
        fanout[slot] = per_item_ns(started, part.len());
        out.push((name, fanout[slot]));
    }
    // What the hand-off costs per query at batch 64: the fan-out against a
    // perfect split of the single-thread merge over the same threads.
    let ideal_ns = flat_ns / config.batch_threads.max(1) as f64;
    out.push(("core.parallel.fanout_cost_ns", fanout[0] - ideal_ns));
    out
}

/// The text protocol and the result cache over the point workloads' queries.
pub fn text_path(flat: &FlatIndex, queries: &[Query]) -> Readings {
    let config = ServerConfig::default();
    let n = queries.len();
    let lines: Vec<String> =
        queries.iter().map(|&(s, t, w)| format!("QUERY {s} {t} {w}")).collect();
    let started = Instant::now();
    for line in &lines {
        black_box(protocol::parse_request(line)).ok();
    }
    let parse_ns = per_item_ns(started, n);

    let answers: Vec<_> = queries.iter().map(|&(s, t, w)| flat.distance(s, t, w)).collect();
    let mut wire = Vec::with_capacity(16);
    let started = Instant::now();
    for &answer in &answers {
        wire.clear();
        Reply::Dist(answer).encode_text(&mut wire);
        black_box(&wire);
    }
    let encode_ns = per_item_ns(started, n);

    // The cache as the server uses it: look up, and store on a miss.
    let cache = ResultCache::new(config.cache_capacity, config.cache_shards);
    let started = Instant::now();
    for (&(s, t, w), &answer) in queries.iter().zip(&answers) {
        let key = (1, s, t, w);
        if cache.get(&key).is_none() {
            cache.insert(key, answer);
        }
    }
    let cache_ns = per_item_ns(started, n);
    vec![
        ("server.protocol.parse_ns", parse_ns),
        ("server.protocol.encode_ns", encode_ns),
        ("server.cache.get_insert_ns", cache_ns),
    ]
}

/// One `BATCH` of `size` through the binary codec, both directions: encode
/// and decode of the request, then of the reply. Nanoseconds per frame pair.
pub fn binary_path(flat: &FlatIndex, queries: &[Query], size: usize) -> Readings {
    let (mut frame, mut frames) = (Vec::new(), 0usize);
    let started = Instant::now();
    for batch in queries.chunks(size).take(REPLAY_QUERIES / 64) {
        frame.clear();
        binary::encode_request(&BinRequest::Batch { queries: batch.to_vec() }, &mut frame);
        black_box(binary::decode_request(&frame[4..])).ok();
        frames += 1;
    }
    let request_ns = per_item_ns(started, frames);
    let replies: Vec<Reply> = queries
        .chunks(size)
        .take(frames)
        .map(|b| Reply::Batch(b.iter().map(|&(s, t, w)| flat.distance(s, t, w)).collect()))
        .collect();
    let started = Instant::now();
    for reply in &replies {
        frame.clear();
        binary::encode_reply(reply, &mut frame);
        black_box(binary::decode_reply(&frame[4..])).ok();
    }
    vec![("server.binary.frame_ns", request_ns + per_item_ns(started, frames))]
}

/// Snapshot decode and zero-copy parse of the encoded index.
pub fn snapshot_path(flat: &FlatIndex) -> Readings {
    let bytes = flat.encode();
    let started = Instant::now();
    black_box(FlatIndex::decode(&bytes)).ok();
    let decode_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    black_box(FlatView::parse(&bytes)).ok();
    let parse_s = started.elapsed().as_secs_f64();
    vec![("core.flat.decode_s", decode_s), ("core.flat.view_parse_s", parse_s)]
}

/// The sharded path in process: plan, per-shard answers, overlay merge, and
/// the whole of `ShardedIndex::distance`. Also returns the sub-queries the
/// plans sent to shard 0, which is what that backend's kernel sees.
pub fn overlay_path(
    shards: &[Arc<FlatIndex>],
    overlay: &OverlayIndex,
    queries: &[Query],
) -> Result<(Readings, Vec<Query>), String> {
    let sample = &queries[..queries.len().min(OVERLAY_QUERIES)];
    let started = Instant::now();
    let plans: Vec<_> = sample.iter().map(|&(s, t, w)| overlay.plan(s, t, w)).collect();
    let plan_ns = per_item_ns(started, sample.len());
    let fanout: usize = plans.iter().map(|p| p.fanout_queries()).sum();

    let mut shard0 = Vec::new();
    let answers: Vec<Vec<Vec<Option<u32>>>> = plans
        .iter()
        .map(|plan| {
            plan.shards
                .iter()
                .map(|(shard, qs)| {
                    if *shard == 0 {
                        shard0.extend_from_slice(qs);
                    }
                    qs.iter().map(|&(s, t, w)| shards[*shard as usize].distance(s, t, w)).collect()
                })
                .collect()
        })
        .collect();
    let started = Instant::now();
    for (plan, answer) in plans.iter().zip(&answers) {
        black_box(overlay.merge(plan, answer)?);
    }
    let merge_us = per_item_ns(started, sample.len()) / 1e3;

    let sharded = ShardedIndex::from_parts(shards.to_vec(), overlay.clone())?;
    let started = Instant::now();
    for &(s, t, w) in sample {
        black_box(sharded.distance(s, t, w));
    }
    let sharded_us = per_item_ns(started, sample.len()) / 1e3;
    let readings = vec![
        ("core.overlay.boundary_vertices", overlay.num_boundary() as f64),
        ("core.overlay.edges", overlay.num_edges() as f64),
        ("core.overlay.fanout_per_query", fanout as f64 / sample.len().max(1) as f64),
        ("core.overlay.plan_ns", plan_ns),
        ("core.overlay.merge_us", merge_us),
        ("core.overlay.sharded_distance_us", sharded_us),
    ];
    Ok((readings, shard0))
}

/// How fast the generator alone runs, in queries per second: everything a
/// lane does for a request except touching the socket.
pub fn generator_rate(spec: &crate::workloads::Spec, seed: u64) -> f64 {
    use crate::workloads::Traffic;
    const QUERIES: usize = 200_000;
    let started = Instant::now();
    match spec.traffic {
        Traffic::Batch { size, .. } => {
            let mut stream = spec.uniform_stream(seed, 0);
            let (mut batch, mut frame) = (Vec::with_capacity(size), Vec::new());
            for _ in 0..QUERIES / size {
                batch.clear();
                batch.extend((0..size).map(|_| stream.next_query()));
                frame.clear();
                binary::encode_request(&BinRequest::Batch { queries: batch.clone() }, &mut frame);
                black_box(&frame);
            }
        }
        Traffic::Point { .. } => {
            let mut stream = spec.zipf_stream(seed);
            let mut line = Vec::with_capacity(32);
            for _ in 0..QUERIES {
                line.clear();
                crate::load::format_query(&mut line, stream.next_query());
                black_box(&line);
            }
        }
    }
    QUERIES as f64 / started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use wcsd_core::IndexBuilder;
    use wcsd_graph::generators::paper_figure3;

    #[test]
    fn the_clock_is_cheap_enough_to_time_requests() {
        let ns = timer_ns();
        // Every latency sample carries two readings; the fastest request this
        // benchmark times takes tens of microseconds.
        assert!(ns > 0.0 && ns < 2_000.0, "one clock reading takes {ns} ns");
    }

    #[test]
    fn the_generator_alone_outruns_every_workload() {
        // The fastest workload answers well under a million queries a second;
        // the run flags itself when the headroom over its own rate is below 5.
        for spec in &SPECS {
            let rate = generator_rate(spec, 1);
            assert!(rate.is_finite() && rate > 0.0, "{}: {rate}", spec.name);
            if !cfg!(debug_assertions) {
                assert!(rate > 3e6, "{} generates only {rate} queries/s", spec.name);
            }
        }
    }

    #[test]
    fn kernel_counts_are_exact_on_the_paper_example() {
        let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&paper_figure3()));
        let readings = query_path(&flat, None, &[(2, 5, 2)]);
        let get = |name: &str| readings.iter().find(|r| r.0 == name).map(|r| r.1).unwrap();
        let hubs = |v| {
            let mut h: Vec<_> = flat.label_entries(v).map(|e| e.hub).collect();
            h.dedup();
            h
        };
        let (a, b) = (hubs(2), hubs(5));
        let shared: Vec<_> = a.iter().filter(|h| b.contains(h)).collect();
        let scanned = [2, 5]
            .iter()
            .flat_map(|&v| flat.label_entries(v))
            .filter(|e| shared.contains(&&e.hub))
            .count();
        assert_eq!(get("core.kernel.groups_compared_per_query"), (a.len() + b.len()) as f64);
        assert_eq!(get("core.kernel.groups_matched_per_query"), shared.len() as f64);
        assert_eq!(get("core.kernel.entries_scanned_per_query"), scanned as f64);
        assert!(!shared.is_empty(), "2 and 5 are connected, so they share a hub");
    }
}
