//! Exhaustive checks over every tiny graph.
//!
//! `wcsd_testkit` enumerates every labelled graph on up to four vertices
//! with each vertex pair absent or at quality 1 or 2. Under the identity
//! order that is every (graph, order) pair up to relabelling, so the tie
//! patterns a seeded fuzzer may never draw are all here. Per graph, in both
//! construction modes:
//!
//! * every `(s, t, w)` answer equals the online constrained BFS, including
//!   `w = 0` and a `w` above every edge;
//! * no label entry is dominated or unnecessary;
//! * the `WCIF` image decodes and thaws back to the same index;
//! * the path index, both label families of the symmetric digraph's
//!   directed index and the weighted index on unit lengths hold the build's
//!   labels;
//! * every single-edge change (add, remove, upgrade, and a downgrade as a
//!   removal then an insertion) settles the dynamic index to
//!   `build_with_order` of the new graph under the index's original order,
//!   and the next freeze serves exactly those labels. At three vertices,
//!   every batch of two such changes does too.
//!
//! The weighted index is checked on its own enumeration: every graph on up
//! to four vertices with each pair absent or at a quality in 1–2 and a
//! length in 1–2 answers every `(s, t, w)` as constrained Dijkstra does.
//! The static checks also run on every five-vertex graph, an `#[ignore]`d
//! case for release builds:
//! `cargo test --release --test exhaustive -- --ignored`.

use wcsd::prelude::*;
use wcsd_baselines::online::constrained_bfs;
use wcsd_core::directed::DirectedWcIndex;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::path::PathIndex;
use wcsd_core::weighted::WeightedWcIndex;
use wcsd_graph::{DiGraph, WeightedGraph};
use wcsd_order::VertexOrder;
use wcsd_testkit::{all_states, constrained_dijkstra, graph_of, vertex_pairs, weighted_graph_of};

/// Qualities of the enumerated edges: each pair is absent, 1 or 2.
const LEVELS: Quality = 2;
/// Lengths of the enumerated weighted edges: 1 or 2.
const LENGTHS: u32 = 2;
const MODES: [ConstructionMode; 2] = [ConstructionMode::Basic, ConstructionMode::QueryEfficient];

/// The static checks of one graph: exact answers, a minimal index and a
/// lossless `WCIF` round trip in both modes, and the build's labels in the
/// path, directed and unit-length weighted indexes.
fn assert_builds_the_minimal_exact_index(n: usize, states: &[Quality]) {
    let g = graph_of(n, states);
    let case = format!("n = {n}, states {states:?}");
    let natural = IndexBuilder::new().ordering(OrderingStrategy::Natural);
    for mode in MODES {
        let idx = natural.clone().mode(mode).build(&g);
        for s in 0..n as VertexId {
            for t in 0..n as VertexId {
                for w in 0..=LEVELS + 1 {
                    let want = constrained_bfs(&g, s, t, w);
                    assert_eq!(idx.distance(s, t, w), want, "{case}, {mode:?}: Q({s},{t},{w})");
                }
            }
        }
        assert!(idx.dominated_entries().is_empty(), "{case}, {mode:?}: dominated");
        assert!(idx.unnecessary_entries().is_empty(), "{case}, {mode:?}: unnecessary");
        let image = FlatIndex::from_index(&idx).encode();
        let decoded = FlatIndex::decode(&image).expect("a fresh image decodes");
        assert_eq!(decoded.to_index(), idx, "{case}, {mode:?}: WCIF round trip");
    }
    let idx = natural.build(&g);
    let pidx = PathIndex::build_with_ordering(&g, OrderingStrategy::Natural);
    let didx =
        DirectedWcIndex::build_with_order(&DiGraph::from_undirected(&g), idx.order().clone());
    let widx = WeightedWcIndex::build_with_order(
        &WeightedGraph::from_unit_lengths(&g),
        idx.order().clone(),
    );
    for v in 0..n as VertexId {
        assert_eq!(pidx.labels(v), idx.labels(v), "{case}: path L(v{v})");
        assert_eq!(didx.out_labels(v), idx.labels(v), "{case}: directed L_out(v{v})");
        assert_eq!(didx.in_labels(v), idx.labels(v), "{case}: directed L_in(v{v})");
        assert_eq!(widx.labels(v), idx.labels(v), "{case}: weighted L(v{v})");
    }
}

#[test]
fn every_tiny_graph_builds_the_minimal_exact_index() {
    for n in 0..=4 {
        for states in all_states(n, LEVELS) {
            assert_builds_the_minimal_exact_index(n, &states);
        }
    }
}

/// The same checks on all 59 049 five-vertex graphs; a few seconds in
/// release, so it runs on request.
#[test]
#[ignore = "release-only: cargo test --release --test exhaustive -- --ignored"]
fn every_five_vertex_graph_builds_the_minimal_exact_index() {
    for states in all_states(5, LEVELS) {
        assert_builds_the_minimal_exact_index(5, &states);
    }
}

#[test]
fn every_tiny_weighted_graph_matches_the_dijkstra_oracle() {
    for n in 0..=4 {
        let identity = VertexOrder::from_permutation((0..n as VertexId).collect());
        for states in all_states(n, LEVELS * LENGTHS) {
            let g = weighted_graph_of(n, &states, LEVELS);
            let idx = WeightedWcIndex::build_with_order(&g, identity.clone());
            for s in 0..n as VertexId {
                for t in 0..n as VertexId {
                    for w in 0..=LEVELS + 1 {
                        assert_eq!(
                            idx.distance(s, t, w),
                            constrained_dijkstra(&g, s, t, w),
                            "n = {n}, states {states:?}: Q({s},{t},{w})"
                        );
                    }
                }
            }
        }
    }
}

/// Moves pair `pair` of `states` to quality `to` (0 removes it) through the
/// dynamic index's own updates; a downgrade is a removal then an insertion.
fn change(dyn_idx: &mut DynamicWcIndex, states: &mut [Quality], pair: usize, to: Quality) {
    let (u, v) = vertex_pairs(dyn_idx.graph().num_vertices())[pair];
    if states[pair] > to {
        assert!(dyn_idx.remove_edge(u, v), "remove ({u}, {v})");
    }
    if to > 0 {
        assert!(dyn_idx.insert_edge(v, u, to), "insert ({v}, {u}) at {to}");
    }
    states[pair] = to;
}

/// Every change of one pair's state: each pair to each other quality.
fn changes(pairs: usize) -> impl Iterator<Item = (usize, Quality)> {
    (0..pairs).flat_map(|pair| (0..=LEVELS).map(move |to| (pair, to)))
}

/// The settled index equals a fresh build of `states`' graph under `order`,
/// and its freeze serves exactly those labels.
fn assert_settled(
    dyn_idx: &mut DynamicWcIndex,
    builder: &IndexBuilder,
    order: &wcsd_order::VertexOrder,
    states: &[Quality],
    case: &str,
) {
    let n = dyn_idx.graph().num_vertices();
    assert_eq!(dyn_idx.graph(), &graph_of(n, states), "{case}: graph");
    let frozen = dyn_idx.freeze();
    let fresh = builder.build_with_order(dyn_idx.graph(), order.clone());
    assert_eq!(dyn_idx.index(), &fresh, "{case}: settled labels or order");
    assert_eq!(frozen.encode(), FlatIndex::from_index(&fresh).encode(), "{case}: stale freeze");
}

#[test]
fn every_tiny_update_settles_to_the_same_order_build() {
    for n in 2..=4 {
        let pairs = vertex_pairs(n).len();
        for states in all_states(n, LEVELS) {
            for mode in MODES {
                let builder = IndexBuilder::new().mode(mode);
                let mut base = DynamicWcIndex::new(&graph_of(n, &states), builder.clone());
                base.freeze();
                let order = base.index().order().clone();
                for (pair, to) in changes(pairs).filter(|&(p, to)| states[p] != to) {
                    let (mut dyn_idx, mut after) = (base.clone(), states.clone());
                    change(&mut dyn_idx, &mut after, pair, to);
                    let case = format!("{mode:?}, {states:?} -> {after:?}");
                    assert_settled(&mut dyn_idx, &builder, &order, &after, &case);
                }
                if n > 3 {
                    continue;
                }
                for (first, to1) in changes(pairs).filter(|&(p, to)| states[p] != to) {
                    let mut mid = states.clone();
                    change(&mut base.clone(), &mut mid, first, to1);
                    for (second, to2) in changes(pairs).filter(|&(p, to)| mid[p] != to) {
                        let (mut dyn_idx, mut after) = (base.clone(), states.clone());
                        change(&mut dyn_idx, &mut after, first, to1);
                        change(&mut dyn_idx, &mut after, second, to2);
                        let case = format!("{mode:?}, {states:?} -> {mid:?} -> {after:?}");
                        assert_settled(&mut dyn_idx, &builder, &order, &after, &case);
                    }
                }
            }
        }
    }
}
