//! Dynamic maintenance of a WC-INDEX under edge updates.
//!
//! Every update — insertion, quality upgrade or deletion — runs through the
//! one decremental mechanism of [`crate::decremental`], so after any history
//! the labels are **bit-identical** to a fresh
//! [`IndexBuilder::build_with_order`] of the current graph under the index's
//! vertex order: the paper's minimal index, with no dominated or unnecessary
//! entry.
//!
//! * **Deletion.** Removing `e` from `G` can change only the canonical
//!   labels of the hubs with some shortest constrained path through `e` in
//!   `G`: [`decremental`]'s affected-hub criterion, evaluated on the graph
//!   that still contains the edge.
//! * **Insertion.** Inserting `e` into `G` is deleting `e` from `G + e` run
//!   backwards, and "the canonical labels of `h` differ between `G` and
//!   `G + e`" is symmetric in the two graphs. So the hubs an insertion can
//!   change are exactly the affected hubs of `e` on `G + e`, again the graph
//!   that contains the edge. A quality upgrade is an insertion at the levels
//!   between the old and the new quality; its hubs are flagged on the
//!   upgraded graph at the new quality, a superset of those levels.
//! * **Union.** If a hub is flagged by none of the updates `G₀ → G₁ → … →
//!   G_k`, its canonical labels are the same in every `G_i`, hence in `G₀`
//!   and `G_k`. Re-sweeping the union of the flagged hubs once therefore
//!   repairs any batch of updates, whatever their mix and order.
//!
//! Updates only rebuild the graph from its own edges with the one edge
//! added, upgraded or removed, scan for their affected hubs and OR them into
//! one pending set. The repair waits for the next read
//! ([`DynamicWcIndex::freeze`], [`DynamicWcIndex::index`],
//! [`DynamicWcIndex::distance`], [`DynamicWcIndex::rebuild_count`]), which
//! re-sweeps the pending hubs in rank order — or, when more than
//! [`DynamicWcIndex::repair_threshold`] times the vertex count are pending,
//! runs one full [`DynamicWcIndex::rebuild`] instead. A batch of updates thus
//! costs one scan each plus one repair or rebuild per read, not one per
//! update.
//!
//! Rebuilds (explicit or threshold-triggered) reuse the [`IndexBuilder`] the
//! dynamic index was created with, so a full-rebuild fallback keeps its
//! vertex ordering and construction mode.
//!
//! [`decremental`]: crate::decremental
//! [`IndexBuilder::build_with_order`]: crate::build::IndexBuilder::build_with_order

use crate::build::IndexBuilder;
use crate::decremental::{self, RepairStats};
use crate::flat::FlatIndex;
use crate::index::WcIndex;
use std::sync::Arc;
use std::time::Instant;
use wcsd_graph::types::Edge;
use wcsd_graph::{Distance, Graph, GraphBuilder, Quality, VertexId};

/// Fraction of the vertex count above which the pending hubs trigger a full
/// rebuild instead of a decremental repair.
const DEFAULT_REPAIR_THRESHOLD: f64 = 0.75;

/// A WC-INDEX paired with its graph, supporting edge insertions and deletions.
#[derive(Debug, Clone)]
pub struct DynamicWcIndex {
    graph: Graph,
    index: WcIndex,
    builder: IndexBuilder,
    rebuild_count: usize,
    repair_threshold: f64,
    last_repair: Option<RepairStats>,
    /// Hubs flagged by updates since the last settle, indexed by vertex id.
    pending: Vec<bool>,
    /// How many entries of `pending` are set.
    pending_hubs: usize,
    /// Cached frozen serve representation; invalidated by every update and
    /// re-frozen lazily by [`Self::freeze`].
    flat: Option<Arc<FlatIndex>>,
}

impl DynamicWcIndex {
    /// Builds the initial index for `g` with the given builder configuration.
    pub fn new(g: &Graph, builder: IndexBuilder) -> Self {
        let index = builder.build(g);
        Self {
            graph: g.clone(),
            index,
            builder,
            rebuild_count: 0,
            repair_threshold: DEFAULT_REPAIR_THRESHOLD,
            last_repair: None,
            pending: vec![false; g.num_vertices()],
            pending_hubs: 0,
            flat: None,
        }
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
    /// return the same `Arc`, while every [`Self::insert_edge`],
    /// [`Self::remove_edge`] and [`Self::rebuild`] invalidates it so the next
    /// freeze reflects the updated labels. Handles returned earlier stay
    /// valid — they are immutable snapshots of the index at freeze time,
    /// which is exactly the hand-over a serving loop wants during updates.
    pub fn freeze(&mut self) -> Arc<FlatIndex> {
        self.settle();
        self.flat.get_or_insert_with(|| Arc::new(FlatIndex::from_index(&self.index))).clone()
    }

    /// How many full rebuilds have been performed (threshold fallbacks and
    /// explicit [`Self::rebuild`] calls). Settles pending updates first, so
    /// the count includes a fallback they cause.
    pub fn rebuild_count(&mut self) -> usize {
        self.settle();
        self.rebuild_count
    }

    /// The pending-hub fraction above which a settle falls back to a full
    /// rebuild.
    pub fn repair_threshold(&self) -> f64 {
        self.repair_threshold
    }

    /// Sets the fallback threshold: when more than `threshold *
    /// num_vertices` hubs are pending at a read, they are settled by
    /// [`Self::rebuild`] instead of the decremental repair. `1.0` (or more)
    /// never falls back; `0.0` always rebuilds.
    pub fn set_repair_threshold(&mut self, threshold: f64) {
        self.repair_threshold = threshold;
    }

    /// Statistics of the most recent settle's decremental repair, or `None`
    /// if it fell back to a rebuild (or none happened yet). Does not settle:
    /// between an update and the next read it still describes the previous
    /// settle.
    pub fn last_repair(&self) -> Option<RepairStats> {
        self.last_repair
    }

    /// Settles pending updates and answers a `w`-constrained distance query
    /// on the current graph.
    pub fn distance(&mut self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.index().distance(s, t, w)
    }

    /// Inserts the undirected edge `(a, b)` with quality `q`, or upgrades an
    /// existing edge to quality `q`, and flags the hubs it affects on the
    /// updated graph. Returns `false`, changing nothing, for a self loop, an
    /// endpoint outside the vertex range, or an existing edge whose quality
    /// is already at least `q`.
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
        self.graph = rebuild_graph(self.graph.edges().chain([Edge::new(a, b, q)]), n);
        self.flag_affected(a, b, q);
        true
    }

    /// Removes the undirected edge `(a, b)` and flags the hubs it affects on
    /// the pre-deletion graph. Returns `false`, changing nothing, if the edge
    /// does not exist.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let n = self.graph.num_vertices();
        if a as usize >= n || b as usize >= n {
            return false;
        }
        let Some(q) = self.graph.edge_quality(a, b) else {
            return false;
        };
        self.flag_affected(a, b, q);
        let removed = Edge::new(a, b, q).canonical();
        self.graph = rebuild_graph(self.graph.edges().filter(|&e| e != removed), n);
        true
    }

    /// Rebuilds the index from scratch, which also settles every pending
    /// update.
    pub fn rebuild(&mut self) {
        self.index = self.builder.build(&self.graph);
        wcsd_obs::global()
            .counter("wcsd_rebuilds_total", "Full index rebuilds (explicit or threshold fallback)")
            .inc();
        self.rebuild_count += 1;
        self.last_repair = None;
        self.pending.fill(false);
        self.pending_hubs = 0;
        self.flat = None;
    }

    /// ORs the affected hubs of edge `(a, b, q)` on the current graph, which
    /// must contain the edge, into the pending set, and drops the cached
    /// freeze.
    fn flag_affected(&mut self, a: VertexId, b: VertexId, q: Quality) {
        let t_scan = Instant::now();
        for h in decremental::affected_hubs(&self.graph, a, b, q) {
            let flag = &mut self.pending[h as usize];
            self.pending_hubs += usize::from(!*flag);
            *flag = true;
        }
        record_repair_phase("scan", t_scan.elapsed());
        self.flat = None;
    }

    /// Re-sweeps the pending hubs in rank order, or rebuilds when more than
    /// [`Self::repair_threshold`] times the vertex count are pending.
    fn settle(&mut self) {
        if self.pending_hubs == 0 {
            return;
        }
        if self.pending_hubs as f64 > self.repair_threshold * self.graph.num_vertices() as f64 {
            self.rebuild();
            return;
        }
        let hubs: Vec<VertexId> =
            (0..self.pending.len() as VertexId).filter(|&h| self.pending[h as usize]).collect();
        self.pending.fill(false);
        self.pending_hubs = 0;
        let mode = self.builder.config().mode;
        let t_resweep = Instant::now();
        let stats = decremental::repair(&mut self.index, &self.graph, mode, &hubs);
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
            u64::try_from(resweep.as_micros()).unwrap_or(u64::MAX),
        );
        self.last_repair = Some(stats);
    }
}

/// Records one decremental-repair phase into the process-global metrics
/// registry as `wcsd_repair_phase_us{phase=...}`: `scan` is one update's
/// affected-hub identification, `resweep` one settle's label drop plus
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
        dyn_idx.set_repair_threshold(1.0);
        assert_eq!(dyn_idx.distance(0, 4, 3), Some(4));
        assert!(dyn_idx.insert_edge(0, 4, 5));
        assert_eq!(dyn_idx.distance(0, 4, 3), Some(1));
        assert_eq!(dyn_idx.distance(0, 4, 5), Some(1));
        assert_full_agreement(&mut dyn_idx);
        assert_eq!(dyn_idx.rebuild_count(), 0, "threshold 1.0 repairs the insertion");
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
        dyn_idx.set_repair_threshold(1.0);
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
        assert_full_agreement(&mut dyn_idx);
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
            dyn_idx.set_repair_threshold(1.0);
            let order = dyn_idx.index().order().clone();
            for _ in 0..12 {
                let a = rng.gen_range(0..30u32);
                let b = rng.gen_range(0..30u32);
                let q = rng.gen_range(1..=4u32);
                dyn_idx.insert_edge(a, b, q);
            }
            assert_full_agreement(&mut dyn_idx);
            assert_eq!(dyn_idx.rebuild_count(), 0, "threshold 1.0 repairs every insertion");
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
        // Two disjoint copies of Figure 3 (vertices 0–5 and 6–11): updates
        // in different copies flag disjoint hubs, so only a re-sweep of
        // their union repairs the batch.
        let fig3 = paper_figure3();
        let mut b = GraphBuilder::new(12);
        for e in fig3.edges() {
            b.add_edge(e.u, e.v, e.quality);
            b.add_edge(e.u + 6, e.v + 6, e.quality);
        }
        let g = b.build();
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
        dyn_idx.set_repair_threshold(1.0);
        let order = dyn_idx.index().order().clone();

        let mut flagged = Vec::new();
        flagged.push(decremental::affected_hubs(dyn_idx.graph(), 3, 4, 4));
        assert!(dyn_idx.remove_edge(3, 4));
        assert!(dyn_idx.insert_edge(6, 10, 3));
        flagged.push(decremental::affected_hubs(dyn_idx.graph(), 6, 10, 3));
        assert!(dyn_idx.insert_edge(10, 6, 5), "quality upgrade");
        flagged.push(decremental::affected_hubs(dyn_idx.graph(), 6, 10, 5));
        assert!(dyn_idx.last_repair().is_none(), "updates alone repair nothing");
        let mut union: Vec<VertexId> = flagged.concat();
        union.sort_unstable();
        union.dedup();
        assert!(flagged.iter().all(|hubs| hubs.len() < union.len()));

        let frozen = dyn_idx.freeze();
        let stats = dyn_idx.last_repair().expect("the freeze ran one repair");
        assert_eq!(stats.affected_hubs, union.len(), "one re-sweep of the union");
        assert_eq!(dyn_idx.rebuild_count(), 0);
        assert!(Arc::ptr_eq(&frozen, &dyn_idx.freeze()), "no update → same frozen Arc");
        assert_eq!(dyn_idx.last_repair(), Some(stats), "a second read settles nothing");
        let fresh = IndexBuilder::default().build_with_order(dyn_idx.graph(), order);
        for v in 0..12 {
            assert_eq!(dyn_idx.index().labels(v), fresh.labels(v), "L(v{v}) diverged");
        }

        // Past the threshold, the next batch settles with one rebuild.
        dyn_idx.set_repair_threshold(0.0);
        assert!(dyn_idx.insert_edge(3, 4, 4));
        assert!(dyn_idx.remove_edge(6, 10));
        assert!(dyn_idx.insert_edge(6, 10, 1));
        let refrozen = dyn_idx.freeze();
        assert_eq!(dyn_idx.rebuild_count(), 1, "one rebuild for the whole batch");
        assert!(dyn_idx.last_repair().is_none());
        assert!(Arc::ptr_eq(&refrozen, &dyn_idx.freeze()));
        assert_full_agreement(&mut dyn_idx);
    }
}
