//! Dynamic maintenance of a WC-INDEX under edge updates.
//!
//! Every update — insertion, quality upgrade or deletion — only edits the
//! graph: it validates the edge, rebuilds the CSR graph from its own edges
//! with the one edge added, upgraded or removed, marks the labels stale and
//! drops the cached freeze. The next read ([`DynamicWcIndex::freeze`],
//! [`DynamicWcIndex::index`], [`DynamicWcIndex::distance`],
//! [`DynamicWcIndex::rebuild_count`]) settles the batch with one
//! [`IndexBuilder::build_with_order`] of the current graph under the index's
//! own vertex order: Algorithm 3 run once, as a fresh build runs it. After
//! any history of updates the labels are therefore the paper's minimal index
//! of the current graph under that order, bit for bit, by construction. The
//! order is kept, not recomputed, so hub ranks stay stable from one
//! published snapshot to the next.
//!
//! There is no in-place repair. An affected-hub repair (re-sweep only the
//! hubs with a shortest constrained path through an updated edge) was
//! measured and lost (RESULTS.md Exp 9): on a road grid, which is bipartite,
//! every hub that reaches the edge has endpoint distances differing by
//! exactly one, and on the scale-free update feed 1 970 of 2 000 hubs were
//! flagged per cycle, so the scan only added work to a re-sweep of nearly
//! every hub, and a plain same-order build was as fast or faster on every
//! graph measured. The one shape where such a scan prunes is a hub that
//! cannot reach the updated edge at all — a hub in another connected
//! component; no workload or dataset here has one.
//!
//! [`IndexBuilder::build_with_order`]: crate::build::IndexBuilder::build_with_order

use crate::build::IndexBuilder;
use crate::flat::FlatIndex;
use crate::index::WcIndex;
use std::sync::Arc;
use std::time::Instant;
use wcsd_graph::types::Edge;
use wcsd_graph::{Distance, Graph, GraphBuilder, Quality, VertexId};

/// What one settle did, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Hubs the settle swept: every vertex, since it rebuilds all labels.
    pub affected_hubs: usize,
    /// Label entries of the labels the settle replaced.
    pub removed_entries: usize,
    /// Label entries of the rebuilt labels.
    pub reinserted_entries: usize,
}

/// A WC-INDEX paired with its graph, supporting edge insertions and deletions.
#[derive(Debug, Clone)]
pub struct DynamicWcIndex {
    graph: Graph,
    index: WcIndex,
    builder: IndexBuilder,
    last_repair: Option<RepairStats>,
    /// Whether the graph changed since the labels were last built.
    stale: bool,
    /// Cached frozen serve representation; invalidated by every update and
    /// re-frozen lazily by [`Self::freeze`].
    flat: Option<Arc<FlatIndex>>,
}

impl DynamicWcIndex {
    /// Builds the initial index for `g` with the given builder configuration;
    /// its vertex order is the one every later settle keeps.
    pub fn new(g: &Graph, builder: IndexBuilder) -> Self {
        let index = builder.build(g);
        Self { graph: g.clone(), index, builder, last_repair: None, stale: false, flat: None }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current index, with every pending update settled.
    pub fn index(&mut self) -> &WcIndex {
        self.settle();
        &self.index
    }

    /// Settles pending updates and freezes the index into the flat serve
    /// representation, returning a shared handle suitable for handing to a
    /// query server.
    ///
    /// The frozen index is cached: repeated calls without intervening updates
    /// return the same `Arc`, while every [`Self::insert_edge`] and
    /// [`Self::remove_edge`] that changes the graph invalidates it so the
    /// next freeze reflects the updated labels. Handles returned earlier stay
    /// valid — they are immutable snapshots of the index at freeze time,
    /// which is exactly the hand-over a serving loop wants during updates.
    pub fn freeze(&mut self) -> Arc<FlatIndex> {
        self.settle();
        self.flat.get_or_insert_with(|| Arc::new(FlatIndex::from_index(&self.index))).clone()
    }

    /// Settles pending updates, like every read, and returns how many
    /// rebuilds under a recomputed vertex order have run: always 0, since
    /// every settle keeps the index's order. It stays for callers written
    /// when a settle could fall back to such a rebuild.
    pub fn rebuild_count(&mut self) -> usize {
        self.settle();
        0
    }

    /// Statistics of the most recent settle, or `None` if none happened yet.
    /// Does not settle: between an update and the next read it still
    /// describes the previous settle.
    pub fn last_repair(&self) -> Option<RepairStats> {
        self.last_repair
    }

    /// Settles pending updates and answers a `w`-constrained distance query
    /// on the current graph.
    pub fn distance(&mut self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.index().distance(s, t, w)
    }

    /// Inserts the undirected edge `(a, b)` with quality `q`, or upgrades an
    /// existing edge to quality `q`. Returns `false`, changing nothing, for a
    /// self loop, an endpoint outside the vertex range, or an existing edge
    /// whose quality is already at least `q`.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId, q: Quality) -> bool {
        let n = self.graph.num_vertices();
        if a == b || a as usize >= n || b as usize >= n {
            return false;
        }
        if self.graph.edge_quality(a, b).is_some_and(|existing| existing >= q) {
            return false;
        }
        // An upgrade's new edge replaces the old one: the builder keeps the
        // higher quality of parallel edges.
        self.set_graph(rebuild_graph(self.graph.edges().chain([Edge::new(a, b, q)]), n));
        true
    }

    /// Removes the undirected edge `(a, b)`. Returns `false`, changing
    /// nothing, if the edge does not exist.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let n = self.graph.num_vertices();
        if a as usize >= n || b as usize >= n {
            return false;
        }
        let Some(q) = self.graph.edge_quality(a, b) else {
            return false;
        };
        let removed = Edge::new(a, b, q).canonical();
        self.set_graph(rebuild_graph(self.graph.edges().filter(|&e| e != removed), n));
        true
    }

    /// Installs an updated graph: the labels go stale and the cached freeze
    /// is dropped.
    fn set_graph(&mut self, graph: Graph) {
        self.graph = graph;
        self.stale = true;
        self.flat = None;
    }

    /// Rebuilds stale labels under the index's own vertex order.
    fn settle(&mut self) {
        if !self.stale {
            return;
        }
        self.stale = false;
        let started = Instant::now();
        let order = self.index.order().clone();
        let index = self.builder.build_with_order(&self.graph, order);
        let stats = RepairStats {
            affected_hubs: index.num_vertices(),
            removed_entries: self.index.total_entries(),
            reinserted_entries: index.total_entries(),
        };
        self.index = index;
        let took = started.elapsed();
        let obs = wcsd_obs::global();
        obs.counter("wcsd_repairs_total", "Settles: label rebuilds after graph updates").inc();
        obs.histogram_with(
            "wcsd_repair_phase_us",
            &[("phase", "resweep")],
            "Settle latency (same-order label rebuild) in microseconds",
        )
        .record_duration(took);
        obs.tracer().record(
            "repair",
            &format!(
                "affected_hubs={} removed={} reinserted={}",
                stats.affected_hubs, stats.removed_entries, stats.reinserted_entries
            ),
            u64::try_from(took.as_micros()).unwrap_or(u64::MAX),
        );
        self.last_repair = Some(stats);
    }
}

/// The `n`-vertex graph of `edges`: one O(m) CSR build per update.
fn rebuild_graph(edges: impl Iterator<Item = Edge>, n: usize) -> Graph {
    // `GraphBuilder::new(n)` fixes the vertex count at `n`, so no explicit
    // padding is needed even if trailing vertices are isolated.
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges);
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

    fn assert_full_agreement(dyn_idx: &mut DynamicWcIndex) {
        let g = &dyn_idx.graph().clone();
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
        assert_full_agreement(&mut dyn_idx);
        assert_eq!(dyn_idx.rebuild_count(), 0, "the settle keeps the order");
    }

    #[test]
    fn inserting_weaker_duplicate_is_a_noop() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        assert!(!dyn_idx.insert_edge(0, 1, 2), "edge (0,1) already has quality 3");
        assert!(!dyn_idx.insert_edge(2, 2, 5), "self loops are ignored");
        assert!(dyn_idx.insert_edge(0, 1, 4), "higher quality upgrades the edge");
        assert_full_agreement(&mut dyn_idx);
    }

    #[test]
    fn deletion_repairs_without_rebuild() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        assert!(dyn_idx.remove_edge(3, 4));
        assert!(!dyn_idx.remove_edge(3, 4), "already removed");
        assert!(!dyn_idx.remove_edge(3, 99), "out of range is a no-op");
        assert_eq!(dyn_idx.rebuild_count(), 0, "deletion must repair, not rebuild");
        let stats = dyn_idx.last_repair().expect("repair ran");
        assert!(stats.affected_hubs > 0);
        assert!(stats.removed_entries > 0);
        assert_full_agreement(&mut dyn_idx);
        // v4 now only reaches the rest through v5.
        assert_eq!(dyn_idx.distance(0, 4, 1), Some(3));
    }

    #[test]
    fn repaired_labels_match_fresh_build_bit_for_bit() {
        let g = erdos_renyi(40, 0.08, &QualityAssigner::uniform(4), 5);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
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
    fn quality_upgrade_replaces_edge_tuple() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let before = dyn_idx.graph().num_edges();
        // Repeated upgrades of the same edge must not grow the edge list.
        assert!(dyn_idx.insert_edge(0, 1, 4));
        assert!(dyn_idx.insert_edge(1, 0, 5));
        assert_eq!(dyn_idx.graph().num_edges(), before, "upgrades must replace, not append");
        assert_eq!(dyn_idx.graph().edge_quality(0, 1), Some(5));
        // A genuinely new edge still appends exactly one tuple.
        assert!(dyn_idx.insert_edge(0, 4, 2));
        assert_eq!(dyn_idx.graph().num_edges(), before + 1);
        assert_full_agreement(&mut dyn_idx);
    }

    #[test]
    fn random_insertion_sequences_stay_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for seed in 0..3u64 {
            let g = erdos_renyi(30, 0.06, &QualityAssigner::uniform(4), seed);
            let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
            let order = dyn_idx.index().order().clone();
            for _ in 0..12 {
                let a = rng.gen_range(0..30u32);
                let b = rng.gen_range(0..30u32);
                let q = rng.gen_range(1..=4u32);
                dyn_idx.insert_edge(a, b, q);
            }
            assert_full_agreement(&mut dyn_idx);
            assert_eq!(dyn_idx.rebuild_count(), 0, "the settle keeps the order");
            let fresh = IndexBuilder::default().build_with_order(dyn_idx.graph(), order);
            for v in 0..30 {
                assert_eq!(dyn_idx.index().labels(v), fresh.labels(v), "seed {seed}: L(v{v})");
            }
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
        assert_full_agreement(&mut dyn_idx);
    }

    #[test]
    fn out_of_range_insert_is_a_noop() {
        let g = paper_figure3();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let edges: Vec<_> = dyn_idx.graph().edges().collect();
        let frozen = dyn_idx.freeze();
        assert!(!dyn_idx.insert_edge(0, 6, 3), "vertex 6 is outside the 6-vertex graph");
        assert!(!dyn_idx.insert_edge(u32::MAX, 2, 1));
        assert!(dyn_idx.graph().edges().eq(edges), "the edge list is unchanged");
        assert_eq!(dyn_idx.graph().num_vertices(), 6);
        assert_eq!(dyn_idx.graph().num_edges(), g.num_edges());
        assert!(Arc::ptr_eq(&frozen, &dyn_idx.freeze()), "nothing to settle");
        assert_full_agreement(&mut dyn_idx);
    }

    #[test]
    fn updates_settle_once_per_read() {
        // Two disjoint copies of Figure 3 (vertices 0–5 and 6–11), updated
        // in both copies within one batch.
        let fig3 = paper_figure3();
        let mut b = GraphBuilder::new(12);
        for e in fig3.edges() {
            b.add_edge(e.u, e.v, e.quality);
            b.add_edge(e.u + 6, e.v + 6, e.quality);
        }
        let g = b.build();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        let order = dyn_idx.index().order().clone();
        let entries = dyn_idx.index().total_entries();

        assert!(dyn_idx.remove_edge(3, 4));
        assert!(dyn_idx.insert_edge(6, 10, 3));
        assert!(dyn_idx.insert_edge(10, 6, 5), "quality upgrade");
        assert!(dyn_idx.last_repair().is_none(), "updates alone settle nothing");

        let frozen = dyn_idx.freeze();
        let stats = dyn_idx.last_repair().expect("the freeze settled the batch");
        assert_eq!(stats.affected_hubs, 12, "one settle sweeps every hub once");
        assert_eq!(stats.removed_entries, entries);
        assert_eq!(stats.reinserted_entries, dyn_idx.index().total_entries());
        assert_eq!(dyn_idx.rebuild_count(), 0);
        assert!(Arc::ptr_eq(&frozen, &dyn_idx.freeze()), "no update → same frozen Arc");
        assert_eq!(dyn_idx.last_repair(), Some(stats), "a second read settles nothing");
        assert_eq!(dyn_idx.index().order(), &order, "the settle keeps the order");
        let fresh = IndexBuilder::default().build_with_order(dyn_idx.graph(), order.clone());
        for v in 0..12 {
            assert_eq!(dyn_idx.index().labels(v), fresh.labels(v), "L(v{v}) diverged");
        }

        // The next batch settles once more, under the same order.
        assert!(dyn_idx.insert_edge(3, 4, 4));
        assert!(dyn_idx.remove_edge(6, 10));
        assert!(dyn_idx.insert_edge(6, 10, 1));
        let refrozen = dyn_idx.freeze();
        assert!(!Arc::ptr_eq(&frozen, &refrozen));
        assert!(Arc::ptr_eq(&refrozen, &dyn_idx.freeze()));
        let fresh = IndexBuilder::default().build_with_order(dyn_idx.graph(), order);
        for v in 0..12 {
            assert_eq!(dyn_idx.index().labels(v), fresh.labels(v), "L(v{v}) diverged");
        }
        assert_full_agreement(&mut dyn_idx);
    }
}
