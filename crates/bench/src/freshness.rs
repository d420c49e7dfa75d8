//! The update-stream → snapshot → `RELOAD` freshness pipeline.
//!
//! This is the production loop around [`wcsd_core::dynamic::DynamicWcIndex`]:
//! an edge-update stream (`add u v q` / `remove u v` lines) is applied in
//! batches, each batch is lazily re-frozen through the cached
//! [`DynamicWcIndex::freeze`], written out as a generation-numbered `WCIF`
//! snapshot, and pushed into a running server with `RELOAD` — after which the
//! new answers are servable. The wall-clock from the first update of a batch
//! to the completed reload is the batch's **update-to-servable freshness
//! latency**, the headline metric of [`FeedResult`].
//!
//! Every update only edits the graph; the freeze of a batch settles it with
//! one rebuild of the labels under the index's own vertex order.
//! [`FeedResult`] counts the settles and the hubs they swept, so a feed run
//! doubles as an observability probe for the dynamic layer.

use crate::loadgen::percentile;
use crate::report::{json_string, JsonRecord};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_graph::{Quality, VertexId};
use wcsd_server::{Client, Protocol};

/// One line of an edge-update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// `add u v q`: insert the undirected edge (or upgrade its quality).
    Add {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Edge quality.
        q: Quality,
    },
    /// `remove u v`: delete the undirected edge.
    Remove {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
}

/// Parses an update stream for a graph of `num_vertices` vertices: one
/// `add u v q` or `remove u v` per line, with blank lines and `#` comments
/// ignored. A vertex id at or past `num_vertices` is an error.
pub fn parse_update_stream(text: &str, num_vertices: usize) -> Result<Vec<EdgeUpdate>, String> {
    let mut updates = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parse = |s: &str| -> Result<u32, String> {
            s.parse().map_err(|_| format!("line {}: invalid number {s:?}", lineno + 1))
        };
        let vertex = |s: &str| -> Result<VertexId, String> {
            let v = parse(s)?;
            if v as usize >= num_vertices {
                return Err(format!(
                    "line {}: vertex {v} out of range (the graph has {num_vertices} vertices)",
                    lineno + 1
                ));
            }
            Ok(v)
        };
        match fields.as_slice() {
            ["add", u, v, q] => {
                updates.push(EdgeUpdate::Add { u: vertex(u)?, v: vertex(v)?, q: parse(q)? })
            }
            ["remove", u, v] => updates.push(EdgeUpdate::Remove { u: vertex(u)?, v: vertex(v)? }),
            _ => {
                return Err(format!(
                    "line {}: expected `add u v q` or `remove u v`, got {line:?}",
                    lineno + 1
                ))
            }
        }
    }
    Ok(updates)
}

/// Knobs of one feed run.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Updates applied per snapshot/reload cycle.
    pub batch_size: usize,
    /// `host:port` of a running server to `RELOAD` after each snapshot;
    /// `None` runs the pipeline offline (apply + snapshot only).
    pub addr: Option<String>,
    /// How long to keep retrying the initial server connection.
    pub connect_timeout: Duration,
}

impl Default for FeedConfig {
    fn default() -> Self {
        Self { batch_size: 16, addr: None, connect_timeout: Duration::from_secs(10) }
    }
}

/// Aggregate result of one feed run.
#[derive(Debug, Clone)]
pub struct FeedResult {
    /// Dataset / stream label.
    pub dataset: String,
    /// Snapshot/reload cycles performed.
    pub batches: usize,
    /// Updates read from the stream.
    pub updates: usize,
    /// Insertions that changed the graph.
    pub adds: usize,
    /// Deletions that changed the graph.
    pub removes: usize,
    /// Updates that were no-ops (duplicate adds, missing removes).
    pub noops: usize,
    /// Settles: one same-order label rebuild per batch that changed the
    /// graph.
    pub repairs: usize,
    /// Total hubs swept across all settles: every vertex, per settle.
    pub affected_hubs: usize,
    /// Mean time to apply one batch of updates (edge list and graph), in
    /// microseconds.
    pub apply_us_mean: f64,
    /// Mean time to settle + freeze + encode + write one snapshot, in
    /// microseconds.
    pub snapshot_us_mean: f64,
    /// Mean time for the server to complete one `RELOAD`, in microseconds
    /// (0 when running offline).
    pub reload_us_mean: f64,
    /// Median update-to-servable freshness latency in microseconds: first
    /// update of a batch → reload completed (→ snapshot written, offline).
    pub freshness_p50_us: f64,
    /// 90th-percentile freshness latency in microseconds.
    pub freshness_p90_us: f64,
    /// Worst freshness latency in microseconds.
    pub freshness_max_us: f64,
    /// Snapshot generation the server reported after the last reload
    /// (0 offline).
    pub final_generation: u64,
}

impl JsonRecord for FeedResult {
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        fn f(v: f64) -> String {
            format!("{v:.3}")
        }
        vec![
            ("dataset", json_string(&self.dataset)),
            ("batches", self.batches.to_string()),
            ("updates", self.updates.to_string()),
            ("adds", self.adds.to_string()),
            ("removes", self.removes.to_string()),
            ("noops", self.noops.to_string()),
            ("repairs", self.repairs.to_string()),
            ("affected_hubs", self.affected_hubs.to_string()),
            ("apply_us_mean", f(self.apply_us_mean)),
            ("snapshot_us_mean", f(self.snapshot_us_mean)),
            ("reload_us_mean", f(self.reload_us_mean)),
            ("freshness_p50_us", f(self.freshness_p50_us)),
            ("freshness_p90_us", f(self.freshness_p90_us)),
            ("freshness_max_us", f(self.freshness_max_us)),
            ("final_generation", self.final_generation.to_string()),
        ]
    }
}

/// Renders a short human-readable summary of a feed run.
pub fn summary(result: &FeedResult) -> String {
    format!(
        "{}: {} updates in {} batches ({} adds, {} removes, {} no-ops) -> \
         settled by {} label rebuilds ({} hubs swept); \
         freshness p50/p90/max {:.1}/{:.1}/{:.1} µs \
         (apply/snapshot/reload mean {:.1}/{:.1}/{:.1} µs), generation {}",
        result.dataset,
        result.updates,
        result.batches,
        result.adds,
        result.removes,
        result.noops,
        result.repairs,
        result.affected_hubs,
        result.freshness_p50_us,
        result.freshness_p90_us,
        result.freshness_max_us,
        result.apply_us_mean,
        result.snapshot_us_mean,
        result.reload_us_mean,
        result.final_generation
    )
}

/// Drives the full pipeline: applies `updates` to `dyn_idx` in
/// [`FeedConfig::batch_size`] chunks, writes one `gen-NNNNNN.wcif` snapshot
/// per chunk into `snapshot_dir` (created if missing), and — when
/// [`FeedConfig::addr`] is set — `RELOAD`s the running server with each
/// snapshot over a persistent binary-protocol connection. Returns the
/// aggregate result plus the snapshot paths in generation order.
///
/// Snapshots are written atomically (temp file + fsync + rename, via
/// [`wcsd_server::write_snapshot_atomic`]) and numbering continues past any
/// generations already in the directory, so a crashed or restarted feed
/// never tears or overwrites a published generation — recovery just picks
/// the newest valid one.
pub fn run_feed(
    dataset: &str,
    dyn_idx: &mut DynamicWcIndex,
    updates: &[EdgeUpdate],
    snapshot_dir: &Path,
    config: &FeedConfig,
) -> Result<(FeedResult, Vec<PathBuf>), String> {
    std::fs::create_dir_all(snapshot_dir)
        .map_err(|e| format!("cannot create {}: {e}", snapshot_dir.display()))?;
    let mut client = match &config.addr {
        Some(addr) => Some(
            Client::connect_retry_with(addr.as_str(), config.connect_timeout, Protocol::Binary)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?,
        ),
        None => None,
    };

    let batch_size = config.batch_size.max(1);
    let mut result = FeedResult {
        dataset: dataset.to_string(),
        batches: 0,
        updates: updates.len(),
        adds: 0,
        removes: 0,
        noops: 0,
        repairs: 0,
        affected_hubs: 0,
        apply_us_mean: 0.0,
        snapshot_us_mean: 0.0,
        reload_us_mean: 0.0,
        freshness_p50_us: 0.0,
        freshness_p90_us: 0.0,
        freshness_max_us: 0.0,
        final_generation: 0,
    };
    let mut snapshots = Vec::new();
    let mut freshness_us: Vec<f64> = Vec::new();
    let (mut apply_us, mut snapshot_us, mut reload_us) = (0.0f64, 0.0f64, 0.0f64);

    // Continue numbering past whatever a previous (possibly crashed) run
    // left behind: a published generation is never overwritten.
    let first_gen = std::fs::read_dir(snapshot_dir)
        .map_err(|e| format!("cannot read {}: {e}", snapshot_dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("gen-")?.strip_suffix(".wcif")?.parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0)
        + 1;

    for (gen, chunk) in (first_gen..).zip(updates.chunks(batch_size)) {
        let batch_start = Instant::now();
        let changes_before = result.adds + result.removes;
        for &update in chunk {
            match update {
                EdgeUpdate::Add { u, v, q } => {
                    if dyn_idx.insert_edge(u, v, q) {
                        result.adds += 1;
                    } else {
                        result.noops += 1;
                    }
                }
                EdgeUpdate::Remove { u, v } => {
                    if dyn_idx.remove_edge(u, v) {
                        result.removes += 1;
                    } else {
                        result.noops += 1;
                    }
                }
            }
        }
        let applied = batch_start.elapsed();

        let path = snapshot_dir.join(format!("gen-{gen:06}.wcif"));
        // The freeze settles the batch, if any update changed the graph.
        let encoded = dyn_idx.freeze().encode();
        if result.adds + result.removes > changes_before {
            result.repairs += 1;
            result.affected_hubs += dyn_idx.last_repair().map_or(0, |r| r.affected_hubs);
        }
        // Atomic temp-file + fsync + rename: a crash mid-write can leave a
        // torn temp file but never a torn generation, so a server recovering
        // from this directory always finds the previous snapshot intact.
        wcsd_server::write_snapshot_atomic(&path, &encoded)?;
        let snapshotted = batch_start.elapsed();

        if let Some(client) = client.as_mut() {
            let absolute = std::fs::canonicalize(&path)
                .map_err(|e| format!("cannot resolve {}: {e}", path.display()))?;
            let absolute =
                absolute.to_str().ok_or_else(|| format!("non-UTF-8 path {absolute:?}"))?;
            let info = client.reload(absolute)?;
            result.final_generation = info.generation;
        }
        let served = batch_start.elapsed();

        apply_us += applied.as_secs_f64() * 1e6;
        snapshot_us += (snapshotted - applied).as_secs_f64() * 1e6;
        reload_us += (served - snapshotted).as_secs_f64() * 1e6;
        record_feed_generation(
            applied,
            snapshotted - applied,
            served - snapshotted,
            client.is_some(),
            result.final_generation,
            served,
        );
        freshness_us.push(served.as_secs_f64() * 1e6);
        snapshots.push(path);
        result.batches += 1;
    }

    if result.batches > 0 {
        let b = result.batches as f64;
        result.apply_us_mean = apply_us / b;
        result.snapshot_us_mean = snapshot_us / b;
        result.reload_us_mean = if client.is_some() { reload_us / b } else { 0.0 };
    }
    freshness_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    result.freshness_p50_us = percentile(&freshness_us, 0.50);
    result.freshness_p90_us = percentile(&freshness_us, 0.90);
    result.freshness_max_us = freshness_us.last().copied().unwrap_or(0.0);
    Ok((result, snapshots))
}

/// Records one feed generation's phase split into the process-global metrics
/// registry as `wcsd_feed_phase_us{phase=apply|snapshot|reload}` (reload only
/// when feeding a live server), plus a `feed_generation` trace event whose
/// duration is the generation's update-to-servable freshness latency.
fn record_feed_generation(
    apply: Duration,
    snapshot: Duration,
    reload: Duration,
    online: bool,
    generation: u64,
    freshness: Duration,
) {
    let obs = wcsd_obs::global();
    let phase = |name: &'static str, took: Duration| {
        obs.histogram_with(
            "wcsd_feed_phase_us",
            &[("phase", name)],
            "Feed pipeline phase latency per generation in microseconds",
        )
        .record_duration(took);
    };
    phase("apply", apply);
    phase("snapshot", snapshot);
    if online {
        phase("reload", reload);
    }
    obs.tracer().record(
        "feed_generation",
        &format!("generation={generation}"),
        u64::try_from(freshness.as_micros()).unwrap_or(u64::MAX),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_json;
    use wcsd_core::IndexBuilder;
    use wcsd_graph::generators::{barabasi_albert, QualityAssigner};

    #[test]
    fn parses_streams_and_rejects_garbage() {
        let stream = "# warmup\nadd 1 2 3\n\nremove 4 5 # trailing comment\nadd 0 9 1\n";
        let updates = parse_update_stream(stream, 10).unwrap();
        assert_eq!(
            updates,
            vec![
                EdgeUpdate::Add { u: 1, v: 2, q: 3 },
                EdgeUpdate::Remove { u: 4, v: 5 },
                EdgeUpdate::Add { u: 0, v: 9, q: 1 },
            ]
        );
        assert!(parse_update_stream("add 1 2", 10).unwrap_err().contains("line 1"));
        assert!(parse_update_stream("remove 1 x", 10).unwrap_err().contains("invalid number"));
        assert!(parse_update_stream("drop 1 2", 10).unwrap_err().contains("expected"));
    }

    #[test]
    fn rejects_vertices_outside_the_graph() {
        let err = parse_update_stream("add 0 1 2\n\nadd 0 6 3\n", 6).unwrap_err();
        assert!(err.starts_with("line 3: vertex 6 out of range"), "{err}");
        let err = parse_update_stream("remove 9 0", 6).unwrap_err();
        assert!(err.starts_with("line 1: vertex 9 out of range"), "{err}");
        assert_eq!(parse_update_stream("remove 5 0", 6).unwrap().len(), 1);
    }

    #[test]
    fn offline_feed_applies_snapshots_and_reports() {
        let g = barabasi_albert(60, 3, &QualityAssigner::uniform(4), 3);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let (a, b) = {
            let e = g.edges().next().unwrap();
            (e.u, e.v)
        };
        let updates = vec![
            EdgeUpdate::Add { u: 0, v: 59, q: 4 },
            EdgeUpdate::Remove { u: a, v: b },
            EdgeUpdate::Remove { u: a, v: b }, // second time is a no-op
        ];
        let dir = std::env::temp_dir().join(format!("wcsd-feed-test-{}", std::process::id()));
        let config = FeedConfig { batch_size: 2, ..Default::default() };
        let (result, snapshots) = run_feed("ba-60", &mut dyn_idx, &updates, &dir, &config).unwrap();
        assert_eq!(result.batches, 2);
        assert_eq!(result.adds, 1);
        assert_eq!(result.removes, 1);
        assert_eq!(result.noops, 1);
        assert_eq!(result.repairs, 1);
        assert_eq!(result.affected_hubs, 60, "the settle sweeps every hub");
        assert_eq!(result.final_generation, 0, "offline run never reloads");
        assert_eq!(snapshots.len(), 2);
        // The last snapshot answers exactly like the live dynamic index.
        let data = std::fs::read(&snapshots[1]).unwrap();
        let flat = wcsd_core::FlatIndex::decode(&data).unwrap();
        for s in 0..60 {
            for t in 0..60 {
                assert_eq!(flat.distance(s, t, 2), dyn_idx.distance(s, t, 2));
            }
        }
        let json = to_json(std::slice::from_ref(&result));
        assert!(json.contains("\"repairs\": 1"));
        assert!(json.contains("\"dataset\": \"ba-60\""));
        assert!(summary(&result).contains("1 label rebuilds (60 hubs swept)"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
