//! # wcsd-testkit — shared test support
//!
//! Case generators for the workspace's differential tests. Seeded fuzzers
//! sample; the tie patterns that break label invariants live in tiny graphs,
//! and there are few enough of those to enumerate. A graph is described by
//! its *edge states*: one quality per vertex pair, in [`vertex_pairs`]
//! order, with 0 for an absent pair.
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

use wcsd_graph::{Graph, GraphBuilder, Quality, VertexId};

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
}
