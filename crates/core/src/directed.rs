//! Directed-graph extension of WC-INDEX (Section V of the paper).
//!
//! Every vertex keeps two label sets: `L_out(v)` certifies constrained paths
//! *from* `v` to hubs, `L_in(v)` certifies paths from hubs *to* `v`. The index
//! is built by running [`crate::build`]'s quality/distance-prioritized
//! constrained search from each root twice — once over out-arcs (populating
//! `L_in` of reached vertices) and once over in-arcs (populating `L_out`).

use crate::build::{ConstructionMode, SweepEngine};
use crate::label::{LabelEntry, LabelSet};
use crate::query;
use wcsd_graph::{DiGraph, Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// 2-hop index for directed quality-labelled graphs.
#[derive(Debug, Clone)]
pub struct DirectedWcIndex {
    l_out: Vec<LabelSet>,
    l_in: Vec<LabelSet>,
    order: VertexOrder,
}

impl DirectedWcIndex {
    /// Builds the directed index using a degree-style ordering
    /// (out-degree + in-degree, non-ascending).
    pub fn build(g: &DiGraph) -> Self {
        let mut by_degree: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v) + g.in_degree(v)), v));
        Self::build_with_order(g, VertexOrder::from_permutation(by_degree))
    }

    /// Builds the directed index under a caller-supplied vertex order: two
    /// pruned constrained BFS sweeps per root, in rank order, both run
    /// against the labels committed by earlier roots. Label sets are
    /// rank-keyed and born sorted, as in [`crate::build`].
    pub fn build_with_order(g: &DiGraph, order: VertexOrder) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let n = g.num_vertices();
        let mut l_out = vec![LabelSet::new(); n];
        let mut l_in = vec![LabelSet::new(); n];
        let mut engine = SweepEngine::new(n, ConstructionMode::QueryEfficient);
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        let rank = order.ranks();
        for (root_rank, &root) in (0..).zip(order.as_slice()) {
            let r = root as usize;
            l_out[r].push(LabelEntry::self_label(root_rank));
            l_in[r].push(LabelEntry::self_label(root_rank));
            // Forward sweep: paths root ⇝ u certify entries in L_in(u); the
            // cover query intersects L_out(root) with L_in(u).
            let forward_arcs = |u| g.out_neighbors(u).map(|(v, q)| (v, q, 1));
            engine.run_root(forward_arcs, rank, root, &l_out[r], &l_in, &mut forward);
            // Backward sweep: paths u ⇝ root certify entries in L_out(u).
            let backward_arcs = |u| g.in_neighbors(u).map(|(v, q)| (v, q, 1));
            engine.run_root(backward_arcs, rank, root, &l_in[r], &l_out, &mut backward);
            for &(v, d, w, _) in &forward {
                l_in[v as usize].push(LabelEntry::new(root_rank, d, w));
            }
            for &(v, d, w, _) in &backward {
                l_out[v as usize].push(LabelEntry::new(root_rank, d, w));
            }
        }
        for set in l_out.iter_mut().chain(l_in.iter_mut()) {
            set.finalize();
        }
        Self { l_out, l_in, order }
    }

    /// The `w`-constrained distance of a directed path `s ⇝ t`, if one exists.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        let d = query::query_merge(&self.l_out[s as usize], &self.l_in[t as usize], w);
        (d != INF_DIST).then_some(d)
    }

    /// Out-label set of `v` (for inspection / statistics); its hubs are
    /// ranks in [`Self::order`].
    pub fn out_labels(&self, v: VertexId) -> &LabelSet {
        &self.l_out[v as usize]
    }

    /// In-label set of `v`.
    pub fn in_labels(&self, v: VertexId) -> &LabelSet {
        &self.l_in[v as usize]
    }

    /// The vertex order the index was built with.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Total number of entries across both label families.
    pub fn total_entries(&self) -> usize {
        self.l_out.iter().chain(self.l_in.iter()).map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wcsd_graph::directed::DiGraphBuilder;

    /// Constrained BFS oracle on the digraph.
    fn oracle(g: &DiGraph, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        use std::collections::VecDeque;
        let mut dist = vec![u32::MAX; g.num_vertices()];
        let mut q = VecDeque::new();
        dist[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            if u == t {
                return Some(dist[u as usize]);
            }
            for (v, quality) in g.out_neighbors(u) {
                if quality >= w && dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        None
    }

    fn random_digraph(n: usize, arcs: usize, levels: u32, seed: u64) -> DiGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = DiGraphBuilder::new(n);
        for _ in 0..arcs {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            let q = rng.gen_range(1..=levels);
            b.add_arc(u, v, q);
        }
        b.build()
    }

    #[test]
    fn simple_directed_chain() {
        let mut b = DiGraphBuilder::new(4);
        b.add_arc(0, 1, 3);
        b.add_arc(1, 2, 1);
        b.add_arc(2, 3, 2);
        b.add_arc(3, 0, 5);
        let g = b.build();
        let idx = DirectedWcIndex::build(&g);
        assert_eq!(idx.distance(0, 3, 1), Some(3));
        assert_eq!(idx.distance(0, 3, 2), None, "arc 1→2 too weak");
        assert_eq!(idx.distance(3, 1, 3), Some(2), "wraps around through 0");
        assert_eq!(idx.distance(1, 0, 1), Some(3));
        assert_eq!(idx.distance(2, 2, 9), Some(0));
    }

    #[test]
    fn asymmetric_reachability() {
        let mut b = DiGraphBuilder::new(3);
        b.add_arc(0, 1, 2);
        b.add_arc(1, 2, 2);
        let g = b.build();
        let idx = DirectedWcIndex::build(&g);
        assert_eq!(idx.distance(0, 2, 1), Some(2));
        assert_eq!(idx.distance(2, 0, 1), None, "no backwards arcs");
        assert!(idx.total_entries() >= 6);
    }

    #[test]
    fn random_digraphs_match_oracle() {
        for seed in 0..4u64 {
            let g = random_digraph(40, 150, 4, seed);
            let idx = DirectedWcIndex::build(&g);
            for s in 0..40 {
                for t in (0..40).step_by(3) {
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
    /// vertex by `(hub id, dist)`: all of `L_out`, then all of
    /// `L_in`.
    fn push_labels(idx: &DirectedWcIndex, words: &mut Vec<u32>) {
        for family in [&idx.l_out, &idx.l_in] {
            for (v, set) in family.iter().enumerate() {
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
    }

    /// Golden labels: the two-sweep directed builder writes exactly these
    /// `L_out`/`L_in` entries on seeded random digraphs.
    #[test]
    fn seeded_builds_match_golden_label_hash() {
        let mut words = Vec::new();
        for seed in 0..4u64 {
            push_labels(&DirectedWcIndex::build(&random_digraph(40, 150, 4, seed)), &mut words);
        }
        assert_eq!(crate::label::fnv1a_64(words), 0xd48f_9673_f29c_afbc);
    }

    #[test]
    fn symmetric_digraph_matches_undirected_index() {
        use crate::build::IndexBuilder;
        let ug = wcsd_graph::generators::paper_figure3();
        let dg = DiGraph::from_undirected(&ug);
        let didx = DirectedWcIndex::build(&dg);
        let uidx = IndexBuilder::default().build(&ug);
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    assert_eq!(didx.distance(s, t, w), uidx.distance(s, t, w));
                }
            }
        }
    }
}
