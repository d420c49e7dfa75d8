//! Weighted-graph extension of WC-INDEX (Section V of the paper).
//!
//! When edges carry lengths other than 1, only the order in which the
//! constrained search settles its states changes: each frontier is every
//! pending state at the next smallest distance rather than the next BFS
//! level. [`crate::build`]'s sweep engine does both, so this index runs the
//! build's own root loop, `R`-array dominance pruning and WC-INDEX+ cover
//! test, with each arc's length in place of 1.

use crate::build::{sweep_roots, ConstructionMode};
use crate::label::LabelSet;
use crate::query;
use std::cmp::Reverse;
use wcsd_graph::{Distance, Quality, VertexId, WeightedGraph, INF_DIST};
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
    /// constrained search per root, in rank order, each committing its
    /// entries before the next root runs. Label sets are rank-keyed and born
    /// sorted, as in [`crate::build`].
    pub fn build_with_order(g: &WeightedGraph, order: VertexOrder) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let mut labels =
            sweep_roots(|u| g.neighbors(u), &order, ConstructionMode::QueryEfficient, |_, _| {});
        for set in &mut labels {
            set.finalize();
        }
        Self { labels, order }
    }

    /// The `w`-constrained weighted shortest distance between `s` and `t`.
    /// A path whose length reaches `INF_DIST` (`u32::MAX`) reads as `None`:
    /// length sums saturate there, and the index keeps no such entry.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wcsd_graph::weighted::WeightedGraphBuilder;
    use wcsd_testkit::constrained_dijkstra;

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
                            constrained_dijkstra(&g, s, t, w),
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

    /// Golden labels: the weighted builder writes exactly these entries on seeded random graphs, under the degree order and a
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

    /// Length sums saturate at `INF_DIST`: a path that reaches it reads as
    /// unreachable, and a sweep that overflows neither panics nor keeps an
    /// entry for it.
    #[test]
    fn saturating_lengths_read_as_unreachable() {
        let half = 1 << 31;
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 2, half);
        b.add_edge(1, 2, 2, half);
        b.add_edge(2, 3, 2, u32::MAX);
        b.add_edge(0, 3, 1, 5);
        let g = b.build();
        let idx = WeightedWcIndex::build(&g);
        assert_eq!(idx.distance(0, 1, 1), Some(half));
        assert_eq!(idx.distance(0, 2, 1), None, "2^31 + 2^31 saturates");
        assert_eq!(idx.distance(1, 3, 1), Some(half + 5));
        assert_eq!(idx.distance(2, 3, 1), None, "a u32::MAX edge is no path");
        assert_eq!(idx.distance(0, 3, 1), Some(5));
        assert_eq!(idx.distance(0, 3, 2), None);
        for s in 0..4 {
            for t in 0..4 {
                for w in 0..=3 {
                    assert_eq!(idx.distance(s, t, w), constrained_dijkstra(&g, s, t, w));
                }
            }
        }
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
