//! Weighted-graph extension of WC-INDEX (Section V of the paper).
//!
//! When edges carry lengths other than 1, the constrained BFS becomes a
//! *constrained Dijkstra*: states `(dist, vertex, quality)` are settled in
//! ascending distance order (ties broken by descending quality), the
//! per-vertex best-quality array plays the same dominance-pruning role as in
//! the unweighted algorithm, and the cover query prunes states already
//! certified by the index built so far.

use crate::label::{LabelEntry, LabelSet};
use crate::query;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wcsd_graph::{Distance, Quality, VertexId, WeightedGraph, INF_DIST, INF_QUALITY};
use wcsd_order::VertexOrder;

/// 2-hop index for weighted quality-labelled graphs.
#[derive(Debug, Clone)]
pub struct WeightedWcIndex {
    labels: Vec<LabelSet>,
    order: VertexOrder,
}

impl WeightedWcIndex {
    /// Builds the weighted index with a degree ordering.
    pub fn build(g: &WeightedGraph) -> Self {
        let mut by_degree: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        by_degree.sort_by_key(|&v| (Reverse(g.degree(v)), v));
        Self::build_with_order(g, VertexOrder::from_permutation(by_degree))
    }

    /// Builds the weighted index under a caller-supplied vertex order: one
    /// constrained Dijkstra per root, in rank order, each committing its
    /// candidates before the next root runs. Label sets are rank-keyed and
    /// born sorted, as in [`crate::build`].
    pub fn build_with_order(g: &WeightedGraph, order: VertexOrder) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let n = g.num_vertices();
        let mut labels = vec![LabelSet::new(); n];
        let mut engine = WeightedEngine::new(n);
        let mut out = Vec::new();
        for (rank, &root) in (0..).zip(order.as_slice()) {
            labels[root as usize].push(LabelEntry::self_label(rank));
            engine.run_root(g, order.ranks(), &labels, root, &mut out);
            for &(v, d, w) in &out {
                labels[v as usize].push(LabelEntry::new(rank, d, w));
            }
        }
        for set in &mut labels {
            set.finalize();
        }
        Self { labels, order }
    }

    /// The `w`-constrained weighted shortest distance between `s` and `t`.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        let d = query::query_merge(&self.labels[s as usize], &self.labels[t as usize], w);
        (d != INF_DIST).then_some(d)
    }

    /// The label set of a vertex (for statistics and tests); its hubs are
    /// ranks in [`Self::order`].
    pub fn labels(&self, v: VertexId) -> &LabelSet {
        &self.labels[v as usize]
    }

    /// The vertex order the index was built with.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Total number of label entries.
    pub fn total_entries(&self) -> usize {
        self.labels.iter().map(|l| l.len()).sum()
    }
}

/// Scratch state for the constrained Dijkstra sweeps.
struct WeightedEngine {
    /// Best quality among settled states per vertex for the current root.
    best_quality: Vec<Quality>,
    touched: Vec<VertexId>,
}

impl WeightedEngine {
    fn new(n: usize) -> Self {
        Self { best_quality: vec![0; n], touched: Vec::new() }
    }

    /// One constrained Dijkstra from `root` against the committed `labels`,
    /// pushing surviving `(vertex, dist, quality)` candidates onto `out`.
    fn run_root(
        &mut self,
        g: &WeightedGraph,
        rank: &[u32],
        labels: &[LabelSet],
        root: VertexId,
        out: &mut Vec<(VertexId, Distance, Quality)>,
    ) {
        out.clear();
        let root_rank = rank[root as usize];
        // Min-heap on (dist, Reverse(quality), vertex): shortest first, and
        // for equal distances the highest quality first so dominated
        // same-distance states are discarded cheaply.
        let mut heap: BinaryHeap<Reverse<(Distance, Reverse<Quality>, VertexId)>> =
            BinaryHeap::new();
        heap.push(Reverse((0, Reverse(INF_QUALITY), root)));

        while let Some(Reverse((dist, Reverse(w), u))) = heap.pop() {
            // Dominance pruning: an earlier settled state of u had smaller
            // or equal distance; if its quality was at least as good this
            // state is dominated.
            if w <= self.best_quality[u as usize] {
                continue;
            }
            if u != root {
                if query::covered(&labels[root as usize], &labels[u as usize], w, dist) {
                    // Pruned states do not expand (pruned-landmark rule).
                    continue;
                }
                out.push((u, dist, w));
            }
            if self.best_quality[u as usize] == 0 {
                self.touched.push(u);
            }
            self.best_quality[u as usize] = w;

            for (v, q, len) in g.neighbors(u) {
                if rank[v as usize] <= root_rank {
                    continue;
                }
                let w_new = w.min(q);
                if w_new <= self.best_quality[v as usize] {
                    continue;
                }
                heap.push(Reverse((dist.saturating_add(len), Reverse(w_new), v)));
            }
        }
        for v in self.touched.drain(..) {
            self.best_quality[v as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wcsd_graph::weighted::WeightedGraphBuilder;

    /// Constrained Dijkstra oracle.
    fn oracle(g: &WeightedGraph, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        let mut dist = vec![u64::MAX; g.num_vertices()];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == t {
                return Some(d as Distance);
            }
            for (v, q, len) in g.neighbors(u) {
                if q < w {
                    continue;
                }
                let nd = d + len as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        None
    }

    fn random_weighted(
        n: usize,
        edges: usize,
        levels: u32,
        max_len: u32,
        seed: u64,
    ) -> WeightedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = WeightedGraphBuilder::new(n);
        for _ in 0..edges {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            b.add_edge(u, v, rng.gen_range(1..=levels), rng.gen_range(1..=max_len));
        }
        b.build()
    }

    #[test]
    fn small_weighted_example() {
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 3, 2);
        b.add_edge(1, 2, 1, 1);
        b.add_edge(0, 2, 2, 10);
        b.add_edge(2, 3, 3, 4);
        let g = b.build();
        let idx = WeightedWcIndex::build(&g);
        // Constraint 1: 0→1→2 costs 3, cheaper than the direct 10.
        assert_eq!(idx.distance(0, 2, 1), Some(3));
        // Constraint 2: the 1→2 edge is too weak, so take the direct edge.
        assert_eq!(idx.distance(0, 2, 2), Some(10));
        // Constraint 3: no 3-path between 0 and 2 exists at all? 0-1 has q3 but
        // 1-2 has q1; the direct edge has q2 — so unreachable.
        assert_eq!(idx.distance(0, 2, 3), None);
        assert_eq!(idx.distance(0, 3, 2), Some(14));
        assert_eq!(idx.distance(3, 3, 5), Some(0));
    }

    #[test]
    fn unit_lengths_match_unweighted_index() {
        use crate::build::IndexBuilder;
        let ug = wcsd_graph::generators::paper_figure3();
        let wg = WeightedGraph::from_unit_lengths(&ug);
        let widx = WeightedWcIndex::build(&wg);
        let uidx = IndexBuilder::default().build(&ug);
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    assert_eq!(widx.distance(s, t, w), uidx.distance(s, t, w));
                }
            }
        }
    }

    #[test]
    fn random_weighted_graphs_match_oracle() {
        for seed in 0..3u64 {
            let g = random_weighted(35, 120, 4, 9, seed);
            let idx = WeightedWcIndex::build(&g);
            for s in 0..35 {
                for t in (0..35).step_by(4) {
                    for w in 1..=4 {
                        assert_eq!(
                            idx.distance(s, t, w),
                            oracle(&g, s, t, w),
                            "seed {seed}, Q({s}, {t}, {w})"
                        );
                    }
                }
            }
        }
    }

    /// Appends every label as `(vertex, hub id, dist, quality)`, sorted per
    /// vertex by `(hub id, dist)`.
    fn push_labels(idx: &WeightedWcIndex, words: &mut Vec<u32>) {
        for (v, set) in idx.labels.iter().enumerate() {
            let mut tuples: Vec<[u32; 3]> = set
                .entries()
                .iter()
                .map(|e| [idx.order.vertex_at(e.hub as usize), e.dist, e.quality])
                .collect();
            tuples.sort_unstable();
            for tuple in tuples {
                words.push(v as VertexId);
                words.extend(tuple);
            }
        }
    }

    /// Golden labels: the constrained-Dijkstra builder writes exactly these
    /// entries on seeded random graphs, under the degree order and a
    /// reversed-id order.
    #[test]
    fn seeded_builds_match_golden_label_hash() {
        let mut words = Vec::new();
        for seed in 0..3u64 {
            let g = random_weighted(35, 120, 4, 9, seed);
            push_labels(&WeightedWcIndex::build(&g), &mut words);
            let reversed = VertexOrder::from_permutation((0..35).rev().collect());
            push_labels(&WeightedWcIndex::build_with_order(&g, reversed), &mut words);
        }
        assert_eq!(crate::label::fnv1a_64(words), 0xad03_3959_ac21_7094);
    }

    #[test]
    fn parallel_multi_quality_edges_are_handled() {
        // A short low-quality edge and a long high-quality edge between the
        // same endpoints: both must be reflected in the index.
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1, 1);
        b.add_edge(0, 1, 5, 7);
        let g = b.build();
        let idx = WeightedWcIndex::build(&g);
        assert_eq!(idx.distance(0, 1, 1), Some(1));
        assert_eq!(idx.distance(0, 1, 2), Some(7));
        assert_eq!(idx.distance(0, 1, 6), None);
    }
}
