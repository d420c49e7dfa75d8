//! # wcsd-testkit — shared test support
//!
//! Case generators and oracles for the workspace's differential tests.
//! Seeded fuzzers sample; the tie patterns that break label invariants live
//! in tiny graphs, and there are few enough of those to enumerate. A graph
//! is described by its *edge states*: one quality per vertex pair, in
//! [`vertex_pairs`] order, with 0 for an absent pair ([`weighted_graph_of`]
//! reads a state as a quality and a length).
//!
//! ```
//! use wcsd_testkit::{all_states, graph_of};
//!
//! // Every graph on 3 vertices with pairs absent or at quality 1 or 2.
//! assert_eq!(all_states(3, 2).count(), 27);
//! let triangle = graph_of(3, &[1, 2, 1]);
//! assert_eq!(triangle.num_edges(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wcsd_graph::weighted::WeightedGraphBuilder;
use wcsd_graph::{Distance, Graph, GraphBuilder, Quality, VertexId, WeightedGraph, INF_DIST};

/// The vertex pairs `(u, v)`, `u < v`, of an `n`-vertex graph in
/// lexicographic order: the positions of an edge-state vector.
pub fn vertex_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let n = n as VertexId;
    (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect()
}

/// The `n`-vertex graph whose `i`-th vertex pair is joined at quality
/// `states[i]`, or absent where it is 0.
pub fn graph_of(n: usize, states: &[Quality]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for (&(u, v), &q) in vertex_pairs(n).iter().zip(states) {
        if q > 0 {
            b.add_edge(u, v, q);
        }
    }
    b.build()
}

/// Every edge-state vector of an `n`-vertex graph with each pair absent or
/// at a quality in `1..=levels`: `(levels + 1)^(n(n−1)/2)` vectors, one per
/// labelled graph. Under the identity vertex order they cover every
/// (graph, order) pair up to relabelling.
pub fn all_states(n: usize, levels: Quality) -> impl Iterator<Item = Vec<Quality>> {
    let pairs = vertex_pairs(n).len() as u32;
    let base = u64::from(levels) + 1;
    (0..base.pow(pairs)).map(move |mut code| {
        (0..pairs)
            .map(|_| {
                let digit = code % base;
                code /= base;
                digit as Quality
            })
            .collect()
    })
}

/// The `n`-vertex weighted graph whose `i`-th vertex pair carries
/// `states[i]`: absent where 0, else quality `1 + (s − 1) % levels` and
/// length `1 + (s − 1) / levels`. Over `all_states(n, levels * lengths)`
/// that is every graph with each pair absent or at a quality in
/// `1..=levels` and a length in `1..=lengths`.
pub fn weighted_graph_of(n: usize, states: &[u32], levels: Quality) -> WeightedGraph {
    let mut b = WeightedGraphBuilder::new(n);
    for (&(u, v), &s) in vertex_pairs(n).iter().zip(states) {
        if s > 0 {
            b.add_edge(u, v, 1 + (s - 1) % levels, 1 + (s - 1) / levels);
        }
    }
    b.build()
}

/// The `w`-constrained shortest distance from `s` to `t` by Dijkstra over
/// the edges of quality `≥ w`, or `None` if no such path is shorter than
/// `INF_DIST` (the distance type's "unreachable").
pub fn constrained_dijkstra(
    g: &WeightedGraph,
    s: VertexId,
    t: VertexId,
    w: Quality,
) -> Option<Distance> {
    let mut dist = vec![u64::MAX; g.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0u64, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == t {
            return Distance::try_from(d).ok().filter(|&d| d != INF_DIST);
        }
        for (v, q, len) in g.neighbors(u) {
            let nd = d + u64::from(len);
            if q >= w && nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_every_labelled_graph_once() {
        assert_eq!(vertex_pairs(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for n in 0..=4 {
            let graphs: Vec<Graph> = all_states(n, 2).map(|s| graph_of(n, &s)).collect();
            assert_eq!(graphs.len(), 3usize.pow((n * n.saturating_sub(1) / 2) as u32));
            for (i, g) in graphs.iter().enumerate() {
                assert_eq!(g.num_vertices(), n);
                assert!(!graphs[..i].contains(g), "n = {n}: graph #{i} repeats");
            }
        }
    }

    #[test]
    fn weighted_states_decode_to_quality_and_length() {
        let g = weighted_graph_of(3, &[1, 4, 0], 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [(1, 1, 1), (2, 2, 2)]);
        assert_eq!(constrained_dijkstra(&g, 1, 2, 1), Some(3));
        assert_eq!(constrained_dijkstra(&g, 1, 2, 2), None);
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 1, u32::MAX - 1);
        b.add_edge(1, 2, 1, 1);
        let g = b.build();
        assert_eq!(constrained_dijkstra(&g, 0, 1, 1), Some(u32::MAX - 1));
        assert_eq!(constrained_dijkstra(&g, 0, 2, 1), None, "INF_DIST is no distance");
    }
}
