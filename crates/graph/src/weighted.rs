//! Weighted quality-labelled graphs (Section V of the paper).
//!
//! When edges have lengths other than 1, Algorithm 3's constrained search
//! settles its states in distance order across lengths rather than BFS
//! level by level; the search itself is unchanged. This module stores the
//! extra length array alongside the CSR adjacency.

use crate::types::{Distance, Quality, VertexId, WeightedEdge};

/// An immutable undirected graph whose edges carry both a quality and a
/// positive integer length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    qualities: Vec<Quality>,
    lengths: Vec<Distance>,
    num_edges: usize,
}

/// Builder for [`WeightedGraph`].
#[derive(Debug, Clone, Default)]
pub struct WeightedGraphBuilder {
    num_vertices: usize,
    edges: Vec<WeightedEdge>,
}

impl WeightedGraphBuilder {
    /// Creates a builder for `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new() }
    }

    /// Adds an undirected weighted edge. Zero-length edges are rejected
    /// (Dijkstra correctness requires positive lengths); self-loops dropped.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, quality: Quality, length: Distance) {
        assert!(length > 0, "edge lengths must be positive");
        if u == v {
            return;
        }
        let needed = (u.max(v) as usize) + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        self.edges.push(WeightedEdge::new(u, v, quality, length));
    }

    /// Finalizes into a [`WeightedGraph`]. Parallel edges keep the
    /// lexicographically best `(shortest length, highest quality)` edge per
    /// endpoint pair; note that unlike the unweighted case a strictly
    /// dominated parallel edge is the only thing we can safely drop, so we
    /// keep one representative per (u, v, quality) group with minimal length.
    pub fn build(mut self) -> WeightedGraph {
        self.edges.sort_unstable_by_key(|e| (e.u, e.v, std::cmp::Reverse(e.quality), e.length));
        self.edges.dedup_by(|next, kept| {
            next.u == kept.u && next.v == kept.v && next.quality == kept.quality
        });
        WeightedGraph::from_dedup_edges(self.num_vertices, &self.edges)
    }
}

impl WeightedGraph {
    fn from_dedup_edges(n: usize, edges: &[WeightedEdge]) -> Self {
        let mut deg = vec![0usize; n];
        for e in edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as VertexId; acc];
        let mut qualities = vec![0 as Quality; acc];
        let mut lengths = vec![0 as Distance; acc];
        let mut cursor = offsets[..n].to_vec();
        for e in edges {
            for (src, dst) in [(e.u, e.v), (e.v, e.u)] {
                let c = cursor[src as usize];
                neighbors[c] = dst;
                qualities[c] = e.quality;
                lengths[c] = e.length;
                cursor[src as usize] += 1;
            }
        }
        Self { offsets, neighbors, qualities, lengths, num_edges: edges.len() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (counting multi-edges with distinct
    /// qualities separately).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Neighbours of `v` with `(neighbour, quality, length)` triples.
    #[inline]
    pub fn neighbors(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Quality, Distance)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        (lo..hi).map(move |i| (self.neighbors[i], self.qualities[i], self.lengths[i]))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Builds a weighted graph from an unweighted one, giving every edge
    /// length 1 — so weighted algorithms can be validated against their
    /// unweighted counterparts.
    pub fn from_unit_lengths(g: &crate::Graph) -> Self {
        let mut b = WeightedGraphBuilder::new(g.num_vertices());
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.quality, 1);
        }
        let mut wg = b.build();
        while wg.offsets.len() - 1 < g.num_vertices() {
            let last = *wg.offsets.last().expect("non-empty");
            wg.offsets.push(last);
        }
        wg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn builds_and_iterates() {
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 2, 7);
        b.add_edge(1, 2, 3, 4);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 2, 7)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_edges_rejected() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1, 0);
    }

    #[test]
    fn parallel_same_quality_edges_keep_min_length() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 2, 9);
        b.add_edge(0, 1, 2, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 2, 3)));
    }

    #[test]
    fn parallel_distinct_quality_edges_are_kept() {
        // A longer but higher-quality edge may matter for strict constraints,
        // so it must not be merged away.
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 1, 1);
        b.add_edge(0, 1, 5, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn from_unit_lengths_preserves_structure() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        let g = b.build();
        let wg = WeightedGraph::from_unit_lengths(&g);
        assert_eq!(wg.num_vertices(), 4);
        assert_eq!(wg.num_edges(), 2);
        assert!(wg.neighbors(1).all(|(_, _, len)| len == 1));
    }
}
