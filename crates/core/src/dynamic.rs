//! Dynamic maintenance of a WC-INDEX under edge updates.
//!
//! The paper's future-work section sketches the intended approach: compute the
//! set of affected vertices and update only the affected entries, using the
//! existing index instead of re-running full constrained BFS traversals. This
//! module implements that sketch in both directions:
//!
//! * **Insertions** resume one pruned constrained search per hub, seeded
//!   *through* the new edge from the Pareto frontier of (distance, quality)
//!   pairs the current index certifies between the hub and the edge's
//!   endpoints — the natural generalisation of the resumed-BFS technique used
//!   for dynamic pruned landmark labeling. New edges only create new paths,
//!   so existing entries stay sound; the index may temporarily carry
//!   non-minimal entries, which [`DynamicWcIndex::rebuild`] removes.
//! * **Deletions** run the decremental repair of [`crate::decremental`]: the
//!   affected hubs of the deleted edge — the vertices with some shortest
//!   constrained path through it — are identified on the pre-deletion graph,
//!   their entries dropped everywhere, and the construction sweep re-run from
//!   just those hubs in rank order. On a delete-only history the repaired
//!   labels are bit-identical to a fresh build under the same vertex order.
//!   When the affected set exceeds [`DynamicWcIndex::repair_threshold`] times
//!   the vertex count, a full [`DynamicWcIndex::rebuild`] is cheaper and is
//!   used instead.
//!
//! Rebuilds (explicit or threshold-triggered) reuse the [`IndexBuilder`] the
//! dynamic index was created with, so a full-rebuild fallback keeps its
//! vertex ordering and construction mode.

use crate::build::IndexBuilder;
use crate::decremental::{self, RepairStats};
use crate::flat::FlatIndex;
use crate::index::WcIndex;
use crate::label::LabelEntry;
use crate::query;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;
use wcsd_graph::{Distance, Graph, GraphBuilder, Quality, VertexId};

/// Fraction of the vertex count above which an affected set triggers a full
/// rebuild instead of a decremental repair.
const DEFAULT_REPAIR_THRESHOLD: f64 = 0.75;

/// A WC-INDEX paired with its graph, supporting edge insertions and deletions.
#[derive(Debug, Clone)]
pub struct DynamicWcIndex {
    edges: Vec<(VertexId, VertexId, Quality)>,
    graph: Graph,
    index: WcIndex,
    builder: IndexBuilder,
    rebuild_count: usize,
    repair_threshold: f64,
    last_repair: Option<RepairStats>,
    /// Cached frozen serve representation; invalidated by every update and
    /// re-frozen lazily by [`Self::freeze`].
    flat: Option<Arc<FlatIndex>>,
}

impl DynamicWcIndex {
    /// Builds the initial index for `g` with the given builder configuration.
    pub fn new(g: &Graph, builder: IndexBuilder) -> Self {
        let edges: Vec<_> = g.edges().map(|e| (e.u, e.v, e.quality)).collect();
        let index = builder.build(g);
        Self {
            edges,
            graph: g.clone(),
            index,
            builder,
            rebuild_count: 0,
            repair_threshold: DEFAULT_REPAIR_THRESHOLD,
            last_repair: None,
            flat: None,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current index (read-only view).
    pub fn index(&self) -> &WcIndex {
        &self.index
    }

    /// Re-freezes the current index into the flat serve representation,
    /// returning a shared handle suitable for handing to a query server.
    ///
    /// The frozen index is cached: repeated calls without intervening updates
    /// return the same `Arc`, while every [`Self::insert_edge`],
    /// [`Self::remove_edge`] and [`Self::rebuild`] invalidates it so the next
    /// freeze reflects the updated labels. Handles returned earlier stay
    /// valid — they are immutable snapshots of the index at freeze time,
    /// which is exactly the hand-over a serving loop wants during updates.
    pub fn freeze(&mut self) -> Arc<FlatIndex> {
        self.flat.get_or_insert_with(|| Arc::new(FlatIndex::from_index(&self.index))).clone()
    }

    /// How many full rebuilds have been performed (threshold fallbacks and
    /// explicit [`Self::rebuild`] calls).
    pub fn rebuild_count(&self) -> usize {
        self.rebuild_count
    }

    /// The affected-set fraction above which [`Self::remove_edge`] falls back
    /// to a full rebuild.
    pub fn repair_threshold(&self) -> f64 {
        self.repair_threshold
    }

    /// Sets the fallback threshold: a deletion whose affected hubs number
    /// more than `threshold * num_vertices` is handled by [`Self::rebuild`]
    /// instead of the decremental repair. `1.0` (or more) never falls back;
    /// `0.0` always rebuilds.
    pub fn set_repair_threshold(&mut self, threshold: f64) {
        self.repair_threshold = threshold;
    }

    /// Statistics of the most recent decremental repair, or `None` if the
    /// last deletion fell back to a rebuild (or none happened yet).
    pub fn last_repair(&self) -> Option<RepairStats> {
        self.last_repair
    }

    /// Answers a `w`-constrained distance query on the current graph.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.index.distance(s, t, w)
    }

    /// Inserts the undirected edge `(a, b)` with quality `q` and incrementally
    /// repairs the index. Returns `false` if the edge (with a quality at least
    /// as high) already exists and nothing needed to change.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId, q: Quality) -> bool {
        if a == b {
            return false;
        }
        if let Some(existing) = self.graph.edge_quality(a, b) {
            if existing >= q {
                return false;
            }
            // Quality upgrade: replace the stale tuple in place instead of
            // appending next to it, so the edge list cannot grow without
            // bound under repeated upgrades.
            let pos = self
                .edges
                .iter()
                .position(|&(u, v, _)| (u == a && v == b) || (u == b && v == a))
                .expect("graph and edge list agree on edge existence");
            self.edges[pos] = (a, b, q);
        } else {
            self.edges.push((a, b, q));
        }
        self.graph =
            rebuild_graph(&self.edges, self.graph.num_vertices().max(a.max(b) as usize + 1));
        self.incremental_insert(a, b, q);
        self.flat = None;
        true
    }

    /// Removes the undirected edge `(a, b)` and repairs the index
    /// decrementally: the affected hubs of the edge are identified on the
    /// pre-deletion graph and re-swept in rank order (see
    /// [`crate::decremental`]); everything else is left untouched. If the
    /// affected set exceeds [`Self::repair_threshold`] times the vertex
    /// count, a full [`Self::rebuild`] is performed instead. Returns `false`
    /// if the edge did not exist.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let n = self.graph.num_vertices();
        if a as usize >= n || b as usize >= n {
            return false;
        }
        let Some(q) = self.graph.edge_quality(a, b) else {
            return false;
        };
        let t_scan = Instant::now();
        let affected = decremental::affected_hubs(&self.graph, a, b, q);
        record_repair_phase("scan", t_scan.elapsed());
        self.edges.retain(|&(u, v, _)| !((u == a && v == b) || (u == b && v == a)));
        self.graph = rebuild_graph(&self.edges, self.graph.num_vertices());
        self.flat = None;
        let budget = self.repair_threshold * self.graph.num_vertices() as f64;
        if affected.len() as f64 > budget {
            self.rebuild();
        } else {
            let mode = self.builder.config().mode;
            let t_resweep = Instant::now();
            let stats = decremental::repair(&mut self.index, &self.graph, mode, &affected);
            let resweep = t_resweep.elapsed();
            record_repair_phase("resweep", resweep);
            let obs = wcsd_obs::global();
            obs.counter("wcsd_repairs_total", "Decremental repairs performed").inc();
            obs.gauge(
                "wcsd_repair_affected_hubs",
                "Affected hubs in the most recent decremental repair",
            )
            .set(stats.affected_hubs as i64);
            obs.gauge(
                "wcsd_repair_removed_entries",
                "Label entries dropped by the most recent decremental repair",
            )
            .set(stats.removed_entries as i64);
            obs.gauge(
                "wcsd_repair_reinserted_entries",
                "Label entries re-inserted by the most recent decremental repair",
            )
            .set(stats.reinserted_entries as i64);
            obs.tracer().record(
                "repair",
                &format!(
                    "affected_hubs={} removed={} reinserted={}",
                    stats.affected_hubs, stats.removed_entries, stats.reinserted_entries
                ),
                u64::try_from((t_scan.elapsed()).as_micros()).unwrap_or(u64::MAX),
            );
            self.last_repair = Some(stats);
        }
        true
    }

    /// Rebuilds the index from scratch, restoring minimality.
    pub fn rebuild(&mut self) {
        self.index = self.builder.build(&self.graph);
        wcsd_obs::global()
            .counter("wcsd_rebuilds_total", "Full index rebuilds (explicit or threshold fallback)")
            .inc();
        self.rebuild_count += 1;
        self.last_repair = None;
        self.flat = None;
    }

    /// Incremental repair after inserting `(a, b, q)`: for every hub (in rank
    /// order) resume a pruned constrained search through the new edge.
    fn incremental_insert(&mut self, a: VertexId, b: VertexId, q: Quality) {
        let order = self.index.order().clone();
        let rank = order.ranks().to_vec();
        let quality_levels = self.graph.distinct_qualities();
        let n = self.graph.num_vertices();
        let mut best_quality: Vec<Quality> = vec![0; n];
        let mut touched: Vec<VertexId> = Vec::new();

        for k in 0..order.len() {
            let root = order.vertex_at(k);
            let root_rank = rank[root as usize];
            // Seed the resumed search through the new edge in both directions.
            let mut heap: BinaryHeap<Reverse<(Distance, Reverse<Quality>, VertexId)>> =
                BinaryHeap::new();
            for (x, y) in [(a, b), (b, a)] {
                if rank[y as usize] <= root_rank {
                    continue;
                }
                for &(d, w) in pareto_via_index(&self.index, root, x, &quality_levels).iter() {
                    let w_new = w.min(q);
                    if w_new == 0 {
                        continue;
                    }
                    heap.push(Reverse((d.saturating_add(1), Reverse(w_new), y)));
                }
            }
            if heap.is_empty() {
                continue;
            }

            while let Some(Reverse((dist, Reverse(w), u))) = heap.pop() {
                if w <= best_quality[u as usize] {
                    continue;
                }
                let covered =
                    query::covered(self.index.labels(root), self.index.labels(u), w, dist);
                if covered {
                    continue;
                }
                self.insert_label(u, LabelEntry::new(root, dist, w));
                if best_quality[u as usize] == 0 {
                    touched.push(u);
                }
                best_quality[u as usize] = w;
                let ids = self.graph.neighbor_ids(u);
                let quals = self.graph.neighbor_qualities(u);
                for (idx, &v) in ids.iter().enumerate() {
                    if rank[v as usize] <= root_rank {
                        continue;
                    }
                    let w_new = w.min(quals[idx]);
                    if w_new <= best_quality[v as usize] {
                        continue;
                    }
                    heap.push(Reverse((dist + 1, Reverse(w_new), v)));
                }
            }
            for v in touched.drain(..) {
                best_quality[v as usize] = 0;
            }
        }
    }

    fn insert_label(&mut self, v: VertexId, entry: LabelEntry) {
        // WcIndex stores labels immutably from the outside; go through a
        // crate-internal accessor.
        self.index.insert_label_entry(v, entry);
    }
}

/// Records one decremental-repair phase into the process-global metrics
/// registry as `wcsd_repair_phase_us{phase=...}`: `scan` is the affected-hub
/// identification on the pre-deletion graph, `resweep` the label drop plus
/// per-hub construction sweeps.
fn record_repair_phase(phase: &'static str, took: std::time::Duration) {
    wcsd_obs::global()
        .histogram_with(
            "wcsd_repair_phase_us",
            &[("phase", phase)],
            "Decremental repair phase latency in microseconds",
        )
        .record_duration(took);
}

/// Pareto frontier of `(distance, quality)` pairs the index certifies between
/// `root` and `x`, probed once per distinct quality level.
fn pareto_via_index(
    index: &WcIndex,
    root: VertexId,
    x: VertexId,
    quality_levels: &[Quality],
) -> Vec<(Distance, Quality)> {
    let mut frontier: Vec<(Distance, Quality)> = Vec::new();
    for &w in quality_levels.iter().rev() {
        if let Some(d) = index.distance(root, x, w) {
            match frontier.last() {
                Some(&(dprev, _)) if dprev_covers(dprev, d) => {
                    // A stricter level already achieved this distance; the
                    // current level adds nothing new.
                    continue;
                }
                _ => frontier.push((d, w)),
            }
        }
    }
    frontier
}

#[inline]
fn dprev_covers(dprev: Distance, d: Distance) -> bool {
    dprev <= d
}

fn rebuild_graph(edges: &[(VertexId, VertexId, Quality)], n: usize) -> Graph {
    // `GraphBuilder::with_capacity(n, _)` fixes the vertex count at `n`, so no
    // explicit padding is needed even if trailing vertices are isolated.
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v, q) in edges {
        b.add_edge(u, v, q);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wcsd_graph::generators::{erdos_renyi, paper_figure3, QualityAssigner};

    fn oracle(g: &Graph, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        use std::collections::VecDeque;
        let mut dist = vec![u32::MAX; g.num_vertices()];
        let mut q = VecDeque::new();
        dist[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for (v, quality) in g.neighbors(u) {
                if quality >= w && dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        (dist[t as usize] != u32::MAX).then(|| dist[t as usize])
    }

    fn assert_full_agreement(dyn_idx: &DynamicWcIndex) {
        let g = dyn_idx.graph();
        let levels = g.distinct_qualities();
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                for &w in &levels {
                    assert_eq!(
                        dyn_idx.distance(s, t, w),
                        oracle(g, s, t, w),
                        "mismatch after update for Q({s}, {t}, {w})"
                    );
                }
            }
        }
    }

    #[test]
    fn insertion_creates_shortcut() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        assert_eq!(dyn_idx.distance(0, 4, 3), Some(4));
        assert!(dyn_idx.insert_edge(0, 4, 5));
        assert_eq!(dyn_idx.distance(0, 4, 3), Some(1));
        assert_eq!(dyn_idx.distance(0, 4, 5), Some(1));
        assert_full_agreement(&dyn_idx);
        assert_eq!(dyn_idx.rebuild_count(), 0, "insertion must not trigger a rebuild");
    }

    #[test]
    fn inserting_weaker_duplicate_is_a_noop() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        assert!(!dyn_idx.insert_edge(0, 1, 2), "edge (0,1) already has quality 3");
        assert!(!dyn_idx.insert_edge(2, 2, 5), "self loops are ignored");
        assert!(dyn_idx.insert_edge(0, 1, 4), "higher quality upgrades the edge");
        assert_full_agreement(&dyn_idx);
    }

    #[test]
    fn deletion_repairs_without_rebuild() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        dyn_idx.set_repair_threshold(1.0);
        assert!(dyn_idx.remove_edge(3, 4));
        assert!(!dyn_idx.remove_edge(3, 4), "already removed");
        assert!(!dyn_idx.remove_edge(3, 99), "out of range is a no-op");
        assert_eq!(dyn_idx.rebuild_count(), 0, "deletion must repair, not rebuild");
        let stats = dyn_idx.last_repair().expect("repair ran");
        assert!(stats.affected_hubs > 0);
        assert!(stats.removed_entries > 0);
        assert_full_agreement(&dyn_idx);
        // v4 now only reaches the rest through v5.
        assert_eq!(dyn_idx.distance(0, 4, 1), Some(3));
    }

    #[test]
    fn repaired_labels_match_fresh_build_bit_for_bit() {
        let g = erdos_renyi(40, 0.08, &QualityAssigner::uniform(4), 5);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        dyn_idx.set_repair_threshold(1.0);
        let order = dyn_idx.index().order().clone();
        let mut removed = 0;
        for e in g.edges().take(60).collect::<Vec<_>>() {
            if e.u % 3 == 0 && dyn_idx.remove_edge(e.u, e.v) {
                removed += 1;
            }
        }
        assert!(removed > 0, "the sweep must delete something");
        assert_eq!(dyn_idx.rebuild_count(), 0);
        let fresh = IndexBuilder::default().build_with_order(dyn_idx.graph(), order);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(dyn_idx.index().labels(v), fresh.labels(v), "L(v{v}) diverged");
        }
    }

    #[test]
    fn threshold_zero_forces_rebuild_fallback() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        dyn_idx.set_repair_threshold(0.0);
        assert_eq!(dyn_idx.repair_threshold(), 0.0);
        assert!(dyn_idx.remove_edge(3, 4));
        assert_eq!(dyn_idx.rebuild_count(), 1, "threshold 0 must always rebuild");
        assert!(dyn_idx.last_repair().is_none());
        assert_full_agreement(&dyn_idx);
    }

    #[test]
    fn quality_upgrade_replaces_edge_tuple() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let before = dyn_idx.edges.len();
        // Repeated upgrades of the same edge must not grow the edge list.
        assert!(dyn_idx.insert_edge(0, 1, 4));
        assert!(dyn_idx.insert_edge(1, 0, 5));
        assert_eq!(dyn_idx.edges.len(), before, "upgrades must replace, not append");
        assert_eq!(dyn_idx.graph().edge_quality(0, 1), Some(5));
        // A genuinely new edge still appends exactly one tuple.
        assert!(dyn_idx.insert_edge(0, 4, 2));
        assert_eq!(dyn_idx.edges.len(), before + 1);
        assert_full_agreement(&dyn_idx);
    }

    #[test]
    fn random_insertion_sequences_stay_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for seed in 0..3u64 {
            let g = erdos_renyi(30, 0.06, &QualityAssigner::uniform(4), seed);
            let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
            for _ in 0..12 {
                let a = rng.gen_range(0..30u32);
                let b = rng.gen_range(0..30u32);
                let q = rng.gen_range(1..=4u32);
                dyn_idx.insert_edge(a, b, q);
            }
            assert_full_agreement(&dyn_idx);
            assert_eq!(dyn_idx.rebuild_count(), 0);
        }
    }

    #[test]
    fn freeze_is_cached_and_invalidated_by_updates() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let frozen = dyn_idx.freeze();
        assert!(Arc::ptr_eq(&frozen, &dyn_idx.freeze()), "no update → same frozen Arc");
        assert_eq!(frozen.distance(0, 4, 3), Some(4));

        assert!(dyn_idx.insert_edge(0, 4, 5));
        let refrozen = dyn_idx.freeze();
        assert!(!Arc::ptr_eq(&frozen, &refrozen), "insert must invalidate the frozen cache");
        // The old handle still answers from its snapshot; the new one sees
        // the shortcut, matching the live index on every quality level.
        assert_eq!(frozen.distance(0, 4, 3), Some(4));
        assert_eq!(refrozen.distance(0, 4, 3), Some(1));
        for w in 1..=5 {
            for s in 0..6 {
                for t in 0..6 {
                    assert_eq!(refrozen.distance(s, t, w), dyn_idx.distance(s, t, w));
                }
            }
        }

        assert!(dyn_idx.remove_edge(0, 4));
        let after_delete = dyn_idx.freeze();
        assert!(!Arc::ptr_eq(&refrozen, &after_delete), "delete must invalidate too");
        assert_eq!(after_delete.distance(0, 4, 3), Some(4));
    }

    #[test]
    fn mixed_update_sequence() {
        let g = erdos_renyi(25, 0.08, &QualityAssigner::uniform(3), 42);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        dyn_idx.insert_edge(0, 24, 3);
        dyn_idx.insert_edge(5, 17, 1);
        let removed = dyn_idx.remove_edge(0, 24);
        assert!(removed);
        dyn_idx.insert_edge(3, 9, 2);
        assert_full_agreement(&dyn_idx);
    }
}
