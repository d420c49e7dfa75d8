//! Tree decomposition via Minimum Degree Elimination (Definition 7/8 of the
//! paper).
//!
//! The decomposition repeatedly removes the vertex with the smallest degree
//! from a transient graph, records the bag `{v} ∪ N(v)`, and re-connects the
//! removed vertex's neighbours as a clique. The elimination sequence induces a
//! vertex hierarchy: vertices eliminated *late* sit high in the hierarchy and
//! make good hubs for 2-hop labeling on low-treewidth graphs such as road
//! networks.

use std::collections::{BTreeSet, BinaryHeap};
use wcsd_graph::{Graph, VertexId};

/// Configuration for [`TreeDecomposition::build`].
#[derive(Debug, Clone, Default)]
pub struct TreeDecompositionConfig {
    /// Stop eliminating once the minimum degree in the transient graph
    /// exceeds this bound and place all remaining vertices in one final
    /// "core" bag. This caps the `O(n²)` worst case on dense graphs, exactly
    /// the concern the paper's hybrid ordering addresses. `None` eliminates
    /// every vertex.
    pub max_bag_degree: Option<usize>,
}

/// The result of a minimum-degree-elimination tree decomposition.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Elimination order: `elimination[i]` is the vertex removed in round `i`.
    elimination: Vec<VertexId>,
    /// `bags[i]` is the bag `{vᵢ} ∪ Nᵢ(vᵢ)` recorded when `elimination[i]`
    /// was removed.
    bags: Vec<Vec<VertexId>>,
    /// Vertices never eliminated because of `max_bag_degree` (the "core").
    core: Vec<VertexId>,
    /// Largest bag size encountered, i.e. treewidth estimate + 1.
    max_bag_size: usize,
}

impl TreeDecomposition {
    /// Runs minimum degree elimination on `g`.
    pub fn build(g: &Graph, config: &TreeDecompositionConfig) -> Self {
        let n = g.num_vertices();
        // Transient adjacency as sorted sets: elimination adds clique edges, so
        // adjacency must support insertion and removal.
        let mut adj: Vec<BTreeSet<VertexId>> =
            (0..n as VertexId).map(|v| g.neighbor_ids(v).iter().copied().collect()).collect();
        let mut eliminated = vec![false; n];
        let mut elimination = Vec::with_capacity(n);
        let mut bags = Vec::with_capacity(n);
        let mut max_bag_size = 0usize;

        // Min-heap of (degree, vertex); stale entries are skipped lazily.
        let mut heap: BinaryHeap<std::cmp::Reverse<(usize, VertexId)>> =
            (0..n as VertexId).map(|v| std::cmp::Reverse((adj[v as usize].len(), v))).collect();

        while let Some(std::cmp::Reverse((deg, v))) = heap.pop() {
            if eliminated[v as usize] || adj[v as usize].len() != deg {
                continue; // stale heap entry
            }
            if let Some(limit) = config.max_bag_degree {
                if deg > limit {
                    // `deg` is the smallest degree left, so no remaining vertex
                    // may be eliminated: everything left is the core.
                    break;
                }
            }
            // Record the bag.
            let neighbors: Vec<VertexId> = adj[v as usize].iter().copied().collect();
            let mut bag = Vec::with_capacity(neighbors.len() + 1);
            bag.push(v);
            bag.extend_from_slice(&neighbors);
            max_bag_size = max_bag_size.max(bag.len());
            bags.push(bag);
            elimination.push(v);
            eliminated[v as usize] = true;

            // Remove v and connect its neighbours into a clique.
            for &u in &neighbors {
                adj[u as usize].remove(&v);
            }
            for i in 0..neighbors.len() {
                for j in (i + 1)..neighbors.len() {
                    let (a, b) = (neighbors[i], neighbors[j]);
                    if adj[a as usize].insert(b) {
                        adj[b as usize].insert(a);
                    }
                }
            }
            // Re-queue neighbours with their new degrees.
            for &u in &neighbors {
                heap.push(std::cmp::Reverse((adj[u as usize].len(), u)));
            }
        }

        let core: Vec<VertexId> = (0..n as VertexId).filter(|&v| !eliminated[v as usize]).collect();
        if !core.is_empty() {
            max_bag_size = max_bag_size.max(core.len());
        }
        Self { elimination, bags, core, max_bag_size }
    }

    /// The elimination sequence (earliest first).
    pub fn elimination_order(&self) -> &[VertexId] {
        &self.elimination
    }

    /// The recorded bags, parallel to [`Self::elimination_order`].
    pub fn bags(&self) -> &[Vec<VertexId>] {
        &self.bags
    }

    /// Vertices that were never eliminated (empty unless `max_bag_degree`
    /// stopped the elimination early).
    pub fn core(&self) -> &[VertexId] {
        &self.core
    }

    /// Treewidth upper bound given by this elimination order
    /// (`max bag size - 1`). Zero for the empty graph.
    pub fn treewidth_bound(&self) -> usize {
        self.max_bag_size.saturating_sub(1)
    }

    /// Converts the decomposition into a hub-importance order: vertices
    /// eliminated last (plus the core, ordered by degree in the original
    /// graph) are the most important and come first.
    pub fn hierarchy_order(&self, g: &Graph) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = Vec::with_capacity(g.num_vertices());
        let mut core = self.core.clone();
        core.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        order.extend(core);
        order.extend(self.elimination.iter().rev().copied());
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcsd_graph::generators::{
        complete_graph, paper_figure3, path_graph, random_tree, star_graph, QualityAssigner,
    };
    use wcsd_graph::GraphBuilder;

    #[test]
    fn path_has_treewidth_one() {
        let g = path_graph(20, 1);
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        assert_eq!(td.treewidth_bound(), 1);
        assert_eq!(td.elimination_order().len(), 20);
        assert!(td.core().is_empty());
    }

    #[test]
    fn tree_has_treewidth_one() {
        let g = random_tree(100, &QualityAssigner::uniform(3), 7);
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        assert_eq!(td.treewidth_bound(), 1);
    }

    #[test]
    fn cycle_has_treewidth_two() {
        let g = wcsd_graph::generators::cycle_graph(12, 1);
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        assert_eq!(td.treewidth_bound(), 2);
    }

    #[test]
    fn complete_graph_treewidth_is_n_minus_one() {
        let g = complete_graph(6, &QualityAssigner::Constant(1), 0);
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        assert_eq!(td.treewidth_bound(), 5);
    }

    #[test]
    fn star_eliminates_leaves_first() {
        let g = star_graph(10, 1);
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        // The hub (vertex 0) keeps degree >= 1 until only one edge remains, so
        // it must be one of the last two vertices eliminated (the final tie
        // between the hub and the last leaf is broken arbitrarily).
        let elim = td.elimination_order();
        let hub_pos = elim.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= elim.len() - 2, "hub eliminated too early: position {hub_pos}");
        assert_eq!(td.treewidth_bound(), 1);
        // The hierarchy order therefore places the hub within the first two.
        let hier = td.hierarchy_order(&g);
        assert!(hier[..2].contains(&0));
    }

    #[test]
    fn bag_degree_cap_produces_core() {
        let g = complete_graph(8, &QualityAssigner::Constant(1), 0);
        let cfg = TreeDecompositionConfig { max_bag_degree: Some(3) };
        let td = TreeDecomposition::build(&g, &cfg);
        // In K8 the minimum degree is 7 > 3, so nothing is eliminated.
        assert!(td.elimination_order().is_empty());
        assert_eq!(td.core().len(), 8);
        let order = td.hierarchy_order(&g);
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn hierarchy_order_is_a_permutation() {
        let g = paper_figure3();
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        let mut order = td.hierarchy_order(&g);
        order.sort_unstable();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn bags_cover_all_edges() {
        // Tree-decomposition property 2: every edge appears in some bag.
        let g = paper_figure3();
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        for e in g.edges() {
            let covered = td.bags().iter().any(|bag| bag.contains(&e.u) && bag.contains(&e.v));
            assert!(covered, "edge ({}, {}) not covered by any bag", e.u, e.v);
        }
    }

    #[test]
    fn disconnected_graph_is_fully_eliminated() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let td = TreeDecomposition::build(&g, &TreeDecompositionConfig::default());
        assert_eq!(td.elimination_order().len(), 6);
        assert_eq!(td.treewidth_bound(), 1);
    }
}
