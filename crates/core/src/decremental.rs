//! Decremental repair of a WC-INDEX after an edge deletion.
//!
//! Deleting an edge can only *increase* constrained distances, so label
//! entries can go stale in two ways: an entry's recorded distance is now too
//! small, or an entry that was pruned during construction (because a
//! higher-ranked hub covered the pair) must now appear because the cover
//! broke. Both effects are confined to the **affected hubs** of the deleted
//! edge, which this module identifies and re-sweeps — everything else is left
//! untouched, which is what makes deletions cheap on large graphs.
//!
//! ## Which hubs are affected?
//!
//! For a deleted edge `(a, b)` of quality `q`, call a hub `h` *affected* at
//! quality level `w ≤ q` when, **on the pre-deletion graph**,
//!
//! ```text
//! dist_w(h, a) and dist_w(h, b) are both finite and differ by exactly 1.
//! ```
//!
//! This is precisely the condition for the edge to lie on *some* shortest
//! `w`-path starting at `h`: a shortest path crossing the edge reaches one
//! endpoint as a shortest prefix and the other one step later. The criterion
//! is complete for both staleness modes:
//!
//! * **Distance staleness.** If `dist_w(h, u)` changes for any `u`, every
//!   pre-deletion shortest `w`-path from `h` to `u` crossed the edge, and its
//!   prefixes witness the condition for `h`.
//! * **Cover interplay.** Entry `(h, d, w) ∈ L(u)` exists iff no
//!   higher-ranked `x` satisfies `dist_w(h, x) + dist_w(x, u) = dist_w(h, u)`
//!   (the canonical pruned-labeling characterization). Deletion only grows
//!   distances, so a cover can only *break*, never form, while `dist_w(h, u)`
//!   stays put. When it breaks through `dist_w(x, u)`, concatenating a
//!   shortest `h → x` path with the broken shortest `x → u` path yields a
//!   shortest `h → u` walk of length `dist_w(h, u)`; a shortest walk repeats
//!   no vertex, so it is a shortest *path* through the deleted edge — and its
//!   prefixes again witness the condition for `h` itself. (A cover breaking
//!   through `dist_w(h, x)` flags `h` directly.)
//!
//! Unaffected hubs therefore keep exactly their canonical entries, and every
//! membership or distance change is owned by an affected hub.
//!
//! ## The repair
//!
//! `repair` drops **all** entries of the affected hubs from every label set
//! (keeping self labels), then re-runs the construction sweep
//! ([`crate::build`]'s pruned constrained BFS) from each affected hub in rank
//! order against the post-deletion graph, committing each root's entries
//! before the next root starts — the same commit discipline as a fresh build.
//! Retained entries of hubs ranked *below* the current root cannot perturb
//! the sweep: the rank invariant keeps them out of `L(root)`, so cover
//! queries never consult them, and the BFS only expands to lower-ranked
//! vertices anyway. The committed state seen by each re-swept root thus
//! matches what a fresh [`IndexBuilder::build_with_order`] pass under the
//! same vertex order would see, so a delete-only history yields **bit
//! identical** label sets to that fresh build (after insertions the index may
//! legitimately carry extra sound-but-unnecessary entries; answers still
//! agree).
//!
//! [`IndexBuilder::build_with_order`]: crate::build::IndexBuilder::build_with_order

use crate::build::{ConstructionMode, SweepEngine};
use crate::index::WcIndex;
use crate::label::LabelEntry;
use std::collections::VecDeque;
use wcsd_graph::{Distance, Graph, Quality, VertexId};

/// What one decremental repair did, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Hubs whose label entries had to be recomputed.
    pub affected_hubs: usize,
    /// Label entries dropped before the re-sweep.
    pub removed_entries: usize,
    /// Label entries committed by the re-sweep.
    pub reinserted_entries: usize,
}

/// Identifies the affected hubs of deleting edge `(a, b)` with quality `q`.
///
/// `graph` must be the **pre-deletion** graph. Runs two BFS traversals per
/// quality level `w ≤ q` and flags every vertex whose distances to the two
/// endpoints are finite and differ by exactly one — the vertices with some
/// shortest `w`-path through the edge (see the module docs for why this set
/// is exhaustive). Returns the flagged vertices in ascending id order.
pub(crate) fn affected_hubs(graph: &Graph, a: VertexId, b: VertexId, q: Quality) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut flagged = vec![false; n];
    let mut dist_a = vec![Distance::MAX; n];
    let mut dist_b = vec![Distance::MAX; n];
    for &w in graph.distinct_qualities().iter().filter(|&&w| w <= q) {
        bfs_levels(graph, a, w, &mut dist_a);
        bfs_levels(graph, b, w, &mut dist_b);
        for h in 0..n {
            let (da, db) = (dist_a[h], dist_b[h]);
            if da != Distance::MAX && db != Distance::MAX && da.abs_diff(db) == 1 {
                flagged[h] = true;
            }
        }
    }
    (0..n as VertexId).filter(|&h| flagged[h as usize]).collect()
}

/// Repairs `index` in place after a deletion, given the `affected` hubs and
/// the **post-deletion** `graph`: drops every entry of the affected hubs
/// (self labels stay), then re-sweeps each of them in rank order with the
/// construction engine, committing per root.
pub(crate) fn repair(
    index: &mut WcIndex,
    graph: &Graph,
    mode: ConstructionMode,
    affected: &[VertexId],
) -> RepairStats {
    let n = graph.num_vertices();
    let mut drop_hub = vec![false; n];
    for &h in affected {
        drop_hub[h as usize] = true;
    }
    let removed_entries = index.remove_entries_of_hubs(&drop_hub);

    let order = index.order().clone();
    let rank = order.ranks();
    let mut roots: Vec<VertexId> = affected.to_vec();
    roots.sort_unstable_by_key(|&h| rank[h as usize]);

    let mut engine = SweepEngine::new(n);
    let mut out: Vec<(VertexId, Distance, Quality)> = Vec::new();
    let mut reinserted_entries = 0usize;
    for &root in &roots {
        engine.run_root(graph, rank, index.labels_all(), root, mode, &mut out);
        for &(v, d, w) in &out {
            index.insert_label_entry(v, LabelEntry::new(root, d, w));
        }
        reinserted_entries += out.len();
    }
    RepairStats { affected_hubs: roots.len(), removed_entries, reinserted_entries }
}

/// Plain BFS on the `w`-filtered graph, writing distances (or
/// `Distance::MAX`) into `dist`, which is reset in full each call.
fn bfs_levels(graph: &Graph, source: VertexId, w: Quality, dist: &mut [Distance]) {
    dist.fill(Distance::MAX);
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, quality) in graph.neighbors(u) {
            if quality >= w && dist[v as usize] == Distance::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::{paper_figure3, road_grid, QualityAssigner, RoadGridConfig};
    use wcsd_graph::GraphBuilder;

    #[test]
    fn affected_hubs_flags_shortest_path_participants() {
        // Path 0 - 1 - 2 - 3, all quality 1: every vertex has a shortest
        // path through the middle edge (1, 2).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        assert_eq!(affected_hubs(&g, 1, 2, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn affected_hubs_ignores_levels_above_edge_quality() {
        // Edge (1, 2) has quality 1; at level 2 only edge (0, 1) exists, so
        // deleting (1, 2) cannot affect level-2 distances.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let affected = affected_hubs(&g, 1, 2, 1);
        assert_eq!(affected, vec![0, 1, 2], "level 1 still reaches all three");
        // A triangle where the redundant edge is off every shortest path:
        // deleting (0, 1) leaves d(0,1) = 1 via nothing — but equidistant
        // endpoints (odd cycle) are never flagged.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        // From vertex 2 the endpoints 0 and 1 are equidistant (1 and 1), so
        // 2 is not affected; 0 and 1 themselves are (0 vs 1).
        assert_eq!(affected_hubs(&g, 0, 1, 1), vec![0, 1]);
    }

    #[test]
    fn repair_matches_fresh_build_bit_for_bit() {
        let g = paper_figure3();
        let builder = IndexBuilder::default();
        let mut index = builder.build(&g);
        let order = index.order().clone();

        // Delete edge (3, 4) (quality 4 in Figure 3).
        let q = g.edge_quality(3, 4).unwrap();
        let affected = affected_hubs(&g, 3, 4, q);
        let mut b = GraphBuilder::new(g.num_vertices());
        for e in g.edges() {
            if !((e.u == 3 && e.v == 4) || (e.u == 4 && e.v == 3)) {
                b.add_edge(e.u, e.v, e.quality);
            }
        }
        let g2 = b.build();
        let stats = repair(&mut index, &g2, builder.config().mode, &affected);
        assert!(stats.affected_hubs > 0);

        let fresh = builder.build_with_order(&g2, order);
        for v in 0..g2.num_vertices() as VertexId {
            assert_eq!(index.labels(v), fresh.labels(v), "label set of v{v} diverged");
        }
    }

    #[test]
    fn repair_matches_fresh_build_with_twenty_quality_levels() {
        // Many distinct qualities per BFS level: the re-sweeps refill the
        // construction engine's per-root distance array within a level.
        let mut g = road_grid(&RoadGridConfig::square(10), &QualityAssigner::uniform(20), 11);
        let builder = IndexBuilder::wc_index_plus();
        let mut index = builder.build(&g);
        let order = index.order().clone();
        for pick in [0, 60, 120] {
            let e = g.edges().nth(pick).expect("the grid has enough edges");
            let affected = affected_hubs(&g, e.u, e.v, e.quality);
            let mut b = GraphBuilder::new(g.num_vertices());
            for f in g.edges().filter(|f| (f.u, f.v) != (e.u, e.v)) {
                b.add_edge(f.u, f.v, f.quality);
            }
            g = b.build();
            let stats = repair(&mut index, &g, builder.config().mode, &affected);
            assert!(stats.affected_hubs > 0);
            let fresh = builder.build_with_order(&g, order.clone());
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(index.labels(v), fresh.labels(v), "edge #{pick}: v{v} diverged");
            }
        }
    }
}
