//! Directed-graph extension of WC-INDEX (Section V of the paper).
//!
//! Every vertex keeps two label sets: `L_out(v)` certifies constrained paths
//! *from* `v` to hubs, `L_in(v)` certifies paths from hubs *to* `v`. The index
//! is built by running the quality/distance-prioritized constrained BFS from
//! each root twice — once over out-edges (populating `L_in` of reached
//! vertices) and once over in-edges (populating `L_out`).

use crate::label::{LabelEntry, LabelSet};
use crate::query;
use wcsd_graph::{DiGraph, Distance, Quality, VertexId, INF_DIST, INF_QUALITY};
use wcsd_order::VertexOrder;

/// 2-hop index for directed quality-labelled graphs.
#[derive(Debug, Clone)]
pub struct DirectedWcIndex {
    l_out: Vec<LabelSet>,
    l_in: Vec<LabelSet>,
    #[allow(dead_code)]
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
    /// against the labels committed by earlier roots.
    pub fn build_with_order(g: &DiGraph, order: VertexOrder) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let n = g.num_vertices();
        let mut l_out: Vec<LabelSet> = (0..n as VertexId).map(LabelSet::self_label).collect();
        let mut l_in: Vec<LabelSet> = (0..n as VertexId).map(LabelSet::self_label).collect();
        let mut engine = DirectedEngine::new(n);
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        let rank = order.ranks();
        for &root in order.as_slice() {
            // Forward sweep: paths root ⇝ u certify entries in L_in(u); the
            // cover query intersects L_out(root) with L_in(u).
            engine.run_root(g, rank, &l_out, &l_in, root, Direction::Forward, &mut forward);
            // Backward sweep: paths u ⇝ root certify entries in L_out(u).
            engine.run_root(g, rank, &l_out, &l_in, root, Direction::Backward, &mut backward);
            for &(v, d, w) in &forward {
                l_in[v as usize].push_unordered(LabelEntry::new(root, d, w));
            }
            for &(v, d, w) in &backward {
                l_out[v as usize].push_unordered(LabelEntry::new(root, d, w));
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

    /// Out-label set of `v` (for inspection / statistics).
    pub fn out_labels(&self, v: VertexId) -> &LabelSet {
        &self.l_out[v as usize]
    }

    /// In-label set of `v`.
    pub fn in_labels(&self, v: VertexId) -> &LabelSet {
        &self.l_in[v as usize]
    }

    /// Total number of entries across both label families.
    pub fn total_entries(&self) -> usize {
        self.l_out.iter().chain(self.l_in.iter()).map(|l| l.len()).sum()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Backward,
}

/// Scratch state for the directed sweeps.
struct DirectedEngine {
    best_quality: Vec<Quality>,
    touched: Vec<VertexId>,
    queued: Vec<bool>,
}

impl DirectedEngine {
    fn new(n: usize) -> Self {
        Self { best_quality: vec![0; n], touched: Vec::new(), queued: vec![false; n] }
    }

    /// One pruned constrained BFS from `root` along the given edge direction,
    /// pushing surviving `(vertex, dist, quality)` candidates onto `out`.
    #[allow(clippy::too_many_arguments)]
    fn run_root(
        &mut self,
        g: &DiGraph,
        rank: &[u32],
        l_out: &[LabelSet],
        l_in: &[LabelSet],
        root: VertexId,
        dir: Direction,
        out: &mut Vec<(VertexId, Distance, Quality)>,
    ) {
        out.clear();
        let root_rank = rank[root as usize];
        let mut frontier: Vec<(VertexId, Quality)> = vec![(root, INF_QUALITY)];
        self.best_quality[root as usize] = INF_QUALITY;
        self.touched.push(root);
        let mut next: Vec<(VertexId, Quality)> = Vec::new();
        let mut dist: Distance = 0;

        while !frontier.is_empty() {
            frontier.sort_unstable_by_key(|&(v, w)| (std::cmp::Reverse(w), v));
            for &(u, w) in &frontier {
                if u != root {
                    // Forward: does the index already certify root ⇝ u?
                    // Backward: does it certify u ⇝ root?
                    let already = match dir {
                        Direction::Forward => query::covered_building(
                            &l_out[root as usize],
                            &l_in[u as usize],
                            rank,
                            w,
                            dist,
                        ),
                        Direction::Backward => query::covered_building(
                            &l_out[u as usize],
                            &l_in[root as usize],
                            rank,
                            w,
                            dist,
                        ),
                    };
                    if already {
                        continue;
                    }
                    out.push((u, dist, w));
                }
                let neighbors: Vec<(VertexId, Quality)> = match dir {
                    Direction::Forward => g.out_neighbors(u).collect(),
                    Direction::Backward => g.in_neighbors(u).collect(),
                };
                for (v, q) in neighbors {
                    if rank[v as usize] <= root_rank {
                        continue;
                    }
                    let w_new = w.min(q);
                    if w_new <= self.best_quality[v as usize] {
                        continue;
                    }
                    if self.best_quality[v as usize] == 0 {
                        self.touched.push(v);
                    }
                    self.best_quality[v as usize] = w_new;
                    if !self.queued[v as usize] {
                        self.queued[v as usize] = true;
                        next.push((v, 0));
                    }
                }
            }
            for entry in &mut next {
                entry.1 = self.best_quality[entry.0 as usize];
                self.queued[entry.0 as usize] = false;
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            dist += 1;
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
