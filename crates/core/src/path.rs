//! Quality constrained shortest **path** queries (Section V of the paper).
//!
//! To return the actual path rather than just its length, every label entry
//! `(hub, dist, quality)` is paired with a `parent`: the predecessor of the
//! labelled vertex on the minimal path towards the hub that the construction
//! search recorded. The labels are exactly [`crate::build`]'s, built by the same
//! sweep; the parents sit in a parallel column. A path is reconstructed by
//! walking parents from both endpoints towards the meeting hub.

use crate::build::{sweep_roots, ConstructionMode};
use crate::label::LabelSet;
use crate::query;
use wcsd_graph::{Distance, Graph, Quality, VertexId, INF_DIST};
use wcsd_order::{OrderingStrategy, VertexOrder};

/// A WC-INDEX variant that can reconstruct quality constrained shortest paths.
///
/// ```
/// use wcsd_core::path::PathIndex;
/// use wcsd_graph::generators::paper_figure3;
///
/// let g = paper_figure3();
/// let index = PathIndex::build(&g);
/// let path = index.shortest_path(2, 5, 2).unwrap();
/// assert_eq!(path.first(), Some(&2));
/// assert_eq!(path.last(), Some(&5));
/// assert_eq!(path.len() - 1, 2); // dist²(v2, v5) = 2
/// ```
#[derive(Debug, Clone)]
pub struct PathIndex {
    labels: Vec<LabelSet>,
    /// `parents[v][i]` is the parent of `labels[v].entries()[i]`: `v`'s
    /// predecessor on the recorded path towards that entry's hub (`v` itself
    /// for the self label).
    parents: Vec<Vec<VertexId>>,
    order: VertexOrder,
}

impl PathIndex {
    /// Builds a path-capable index with degree ordering.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_ordering(g, OrderingStrategy::Degree)
    }

    /// Builds a path-capable index with the given vertex ordering strategy:
    /// Algorithm 3 exactly, keeping the BFS parent of every entry it commits.
    pub fn build_with_ordering(g: &Graph, ordering: OrderingStrategy) -> Self {
        let order = ordering.compute(g);
        let mut parents = vec![Vec::new(); g.num_vertices()];
        let labels = sweep_roots(
            |u| g.neighbors(u).map(|(v, q)| (v, q, 1)),
            &order,
            ConstructionMode::QueryEfficient,
            |v, parent| parents[v as usize].push(parent),
        );
        Self { labels, parents, order }
    }

    /// The `w`-constrained distance between `s` and `t`, if any.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        let d = query::query_merge(&self.labels[s as usize], &self.labels[t as usize], w);
        (d != INF_DIST).then_some(d)
    }

    /// Label set of `v`; its hubs are ranks in [`Self::order`].
    pub fn labels(&self, v: VertexId) -> &LabelSet {
        &self.labels[v as usize]
    }

    /// The vertex order the index was built with.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Reconstructs a `w`-constrained shortest path from `s` to `t`
    /// (inclusive of both endpoints), or `None` if no `w`-path exists.
    pub fn shortest_path(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Vec<VertexId>> {
        let (hub, _) = query::meeting_hub(&self.labels[s as usize], &self.labels[t as usize], w)?;
        let mut first = self.walk_to_hub(s, hub, w)?;
        let second = self.walk_to_hub(t, hub, w)?;
        // `first` runs s -> hub; `second` runs t -> hub. Join them.
        for v in second.into_iter().rev().skip(1) {
            first.push(v);
        }
        Some(first)
    }

    /// Walks parent pointers from `v` towards the hub ranked `hub`,
    /// returning the vertex sequence `v, …, hub`.
    fn walk_to_hub(&self, v: VertexId, hub: u32, w: Quality) -> Option<Vec<VertexId>> {
        let hub_vertex = self.order.vertex_at(hub as usize);
        let mut path = vec![v];
        let mut current = v;
        // Each hop strictly decreases the recorded distance to the hub, so the
        // loop terminates after at most `dist` iterations.
        loop {
            if current == hub_vertex {
                return Some(path);
            }
            // The hub's first (minimal-distance) entry of quality `>= w`.
            let entries = self.labels[current as usize].entries();
            let i = entries.partition_point(|e| e.hub < hub || (e.hub == hub && e.quality < w));
            let entry = entries.get(i).filter(|e| e.hub == hub)?;
            if entry.dist == 0 {
                return Some(path);
            }
            let next = self.parents[current as usize][i];
            debug_assert_ne!(next, current, "parent pointer must make progress");
            path.push(next);
            current = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::{paper_figure2, paper_figure3, path_graph, QualityAssigner};
    use wcsd_graph::Graph;

    /// Checks a returned path is a valid `w`-path of the claimed length.
    fn assert_valid_path(g: &Graph, path: &[VertexId], s: VertexId, t: VertexId, w: Quality) {
        assert_eq!(*path.first().unwrap(), s);
        assert_eq!(*path.last().unwrap(), t);
        for pair in path.windows(2) {
            let q = g
                .edge_quality(pair[0], pair[1])
                .unwrap_or_else(|| panic!("({}, {}) is not an edge", pair[0], pair[1]));
            assert!(q >= w, "edge ({}, {}) violates the quality constraint", pair[0], pair[1]);
        }
    }

    #[test]
    fn paths_match_distances_on_figure3() {
        let g = paper_figure3();
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5u32 {
                    let d = didx.distance(s, t, w);
                    assert_eq!(pidx.distance(s, t, w), d, "distance mismatch Q({s},{t},{w})");
                    match d {
                        None => assert!(pidx.shortest_path(s, t, w).is_none()),
                        Some(d) => {
                            let p = pidx.shortest_path(s, t, w).expect("path must exist");
                            assert_eq!(p.len() as u32 - 1, d, "path length != distance");
                            assert_valid_path(&g, &p, s, t, w);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paths_match_distances_on_figure2() {
        let g = paper_figure2();
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in 0..10 {
            for t in 0..10 {
                for w in 1..=3u32 {
                    assert_eq!(pidx.distance(s, t, w), didx.distance(s, t, w));
                    if let Some(d) = didx.distance(s, t, w) {
                        let p = pidx.shortest_path(s, t, w).unwrap();
                        assert_eq!(p.len() as u32 - 1, d);
                        assert_valid_path(&g, &p, s, t, w);
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_paths() {
        let g = path_graph(4, 2);
        let idx = PathIndex::build(&g);
        assert_eq!(idx.shortest_path(1, 1, 5), Some(vec![1]));
        assert_eq!(idx.shortest_path(0, 3, 2), Some(vec![0, 1, 2, 3]));
        assert_eq!(idx.shortest_path(0, 3, 3), None);
    }

    /// Appends every label as `(vertex, hub id, dist, quality, parent)`,
    /// sorted per vertex by `(hub id, dist)`.
    fn push_labels(idx: &PathIndex, words: &mut Vec<u32>) {
        for (v, (set, parents)) in idx.labels.iter().zip(&idx.parents).enumerate() {
            let mut tuples: Vec<[u32; 4]> = set
                .entries()
                .iter()
                .zip(parents)
                .map(|(e, &p)| [idx.order.vertex_at(e.hub as usize), e.dist, e.quality, p])
                .collect();
            tuples.sort_unstable();
            for tuple in tuples {
                words.push(v as VertexId);
                words.extend(tuple);
            }
        }
    }

    /// Golden labels: the parent-recording builder writes exactly these quads
    /// on a seeded random graph, under the degree and the hybrid order.
    #[test]
    fn seeded_builds_match_golden_label_hash() {
        use wcsd_graph::generators::erdos_renyi;
        let mut words = Vec::new();
        for seed in [17, 23] {
            let g = erdos_renyi(60, 0.08, &QualityAssigner::uniform(4), seed);
            for ordering in [OrderingStrategy::Degree, OrderingStrategy::Hybrid] {
                push_labels(&PathIndex::build_with_ordering(&g, ordering), &mut words);
            }
        }
        assert_eq!(crate::label::fnv1a_64(words), 0x0c70_8060_3b89_5c5a);
    }

    #[test]
    fn random_graph_paths_are_valid() {
        use wcsd_graph::generators::erdos_renyi;
        let g = erdos_renyi(60, 0.08, &QualityAssigner::uniform(4), 17);
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in (0..60).step_by(7) {
            for t in (0..60).step_by(5) {
                for w in 1..=4u32 {
                    let d = didx.distance(s, t, w);
                    assert_eq!(pidx.distance(s, t, w), d);
                    if let Some(d) = d {
                        let p = pidx.shortest_path(s, t, w).unwrap();
                        assert_eq!(p.len() as u32 - 1, d);
                        if s != t {
                            assert_valid_path(&g, &p, s, t, w);
                        }
                    }
                }
            }
        }
    }
}
