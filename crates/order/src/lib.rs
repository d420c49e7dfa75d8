//! # wcsd-order — vertex ordering strategies for 2-hop labeling
//!
//! The order in which the index-construction BFS processes source vertices
//! ("vertex order" in the paper) determines indexing time, index size and
//! query time. This crate implements every strategy Section IV.D discusses:
//!
//! * [`degree_order`] — non-ascending degree; the canonical choice for
//!   scale-free graphs (Observation 2, and the ordering pruned landmark
//!   labeling uses).
//! * [`tree_decomposition_order`] — vertex hierarchy via Minimum Degree
//!   Elimination tree decomposition; the better choice for road networks
//!   (Observation 3 / Definition 8).
//! * [`hybrid_order`] — the paper's proposal: high-degree "core" vertices
//!   ordered by degree first, then the "periphery" ordered by a
//!   nested-dissection separator hierarchy; a periphery without small
//!   separators (scale-free graphs) keeps a capped minimum-degree-elimination
//!   hierarchy instead.
//! * [`random_order`], [`natural_order`], [`bfs_level_order`] — ablation
//!   baselines.
//!
//! All functions return a [`VertexOrder`], a permutation of `0..n` paired with
//! its inverse (rank array), which is what the index builder consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod orderings;
pub mod tree_decomposition;

pub use orderings::{
    bfs_level_order, degree_order, hybrid_order, natural_order, random_order,
    tree_decomposition_order, HybridConfig, OrderingStrategy,
};
pub use tree_decomposition::{TreeDecomposition, TreeDecompositionConfig};

use wcsd_graph::VertexId;

/// A total order over the vertices of a graph.
///
/// `order[k]` is the k-th vertex to be processed; `rank[v]` is the position of
/// vertex `v` in that order (its "importance": smaller rank = processed
/// earlier = more important hub).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexOrder {
    order: Vec<VertexId>,
    rank: Vec<u32>,
}

impl VertexOrder {
    /// Builds a vertex order from a permutation of `0..n`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_permutation(order: Vec<VertexId>) -> Self {
        let n = order.len();
        let mut rank = vec![u32::MAX; n];
        for (pos, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < n && rank[v as usize] == u32::MAX,
                "order must be a permutation of 0..{n}; offending vertex {v}"
            );
            rank[v as usize] = pos as u32;
        }
        Self { order, rank }
    }

    /// Number of vertices covered by the order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` for the empty order.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The vertex processed at position `k`.
    #[inline]
    pub fn vertex_at(&self, k: usize) -> VertexId {
        self.order[k]
    }

    /// The position (importance rank) of vertex `v`; smaller = earlier.
    #[inline]
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// The full processing order.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.order
    }

    /// The rank array indexed by vertex id.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// Iterates vertices in processing order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_roundtrip() {
        let o = VertexOrder::from_permutation(vec![2, 0, 3, 1]);
        assert_eq!(o.len(), 4);
        assert_eq!(o.vertex_at(0), 2);
        assert_eq!(o.rank_of(2), 0);
        assert_eq!(o.rank_of(1), 3);
        assert_eq!(o.iter().collect::<Vec<_>>(), vec![2, 0, 3, 1]);
        assert!(!o.is_empty());
    }

    #[test]
    fn empty_order_is_valid() {
        let o = VertexOrder::from_permutation(vec![]);
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_vertices_rejected() {
        let _ = VertexOrder::from_permutation(vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn out_of_range_vertices_rejected() {
        let _ = VertexOrder::from_permutation(vec![0, 5]);
    }
}
