//! Property-style tests for the core invariants of the system, driven by a
//! seeded random-graph fuzzer (a registry-free stand-in for proptest):
//!
//! * the index answers every query exactly like the online constrained BFS
//!   oracle (soundness + completeness, Theorem 1/2);
//! * no label entry is dominated by another entry of the same hub
//!   (minimality, Theorem 1);
//! * within one hub group, distance and quality are both strictly increasing
//!   (Theorem 3);
//! * all three query algorithms (Algorithms 2, 4 and 5) agree;
//! * reconstructed paths are valid `w`-paths of exactly the reported length;
//! * distance is monotonically non-decreasing in the constraint `w`;
//! * `index.within(s, t, w, d)` agrees with `distance` on all sampled triples;
//! * graph snapshots and builders are lossless.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcsd::graph::generators::{barabasi_albert, road_grid, QualityAssigner, RoadGridConfig};
use wcsd::prelude::*;
use wcsd_baselines::online::constrained_bfs;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::path::PathIndex;
use wcsd_core::query::{query_hub_bucket, query_merge, query_pair_scan};
use wcsd_graph::{Graph, INF_DIST};

/// Number of random graphs each property is checked against.
const CASES: u64 = 48;

/// Deterministic random graph: up to `max_n` vertices, up to `max_edges`
/// edge insertions (self loops and duplicates included, exercising the
/// builder's cleanup paths), qualities in `1..=max_q`.
fn random_graph(seed: u64, max_n: usize, max_edges: usize, max_q: u32) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x00C0_FFEE);
    let n = rng.gen_range(2..=max_n);
    let m = rng.gen_range(0..=max_edges);
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        let q = rng.gen_range(1..=max_q);
        b.add_edge(u, v, q);
    }
    b.build()
}

/// The index agrees with the BFS oracle on every vertex pair and level.
#[test]
fn index_matches_oracle() {
    for seed in 0..CASES {
        let g = random_graph(seed, 28, 90, 5);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let levels = g.distinct_qualities();
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                for &w in &levels {
                    assert_eq!(
                        idx.distance(s, t, w),
                        constrained_bfs(&g, s, t, w),
                        "seed {seed}: Q({s},{t},{w})"
                    );
                }
                // A constraint stricter than every edge is satisfiable only
                // for s == t.
                let too_strict = levels.last().copied().unwrap_or(1) + 1;
                let expected = (s == t).then_some(0);
                assert_eq!(idx.distance(s, t, too_strict), expected, "seed {seed}");
            }
        }
    }
}

/// Minimality: no entry is dominated by another entry of the same hub, in
/// any label set, for any ordering strategy.
#[test]
fn index_is_minimal() {
    for seed in 0..CASES {
        let g = random_graph(seed, 24, 70, 4);
        let strat = if seed % 2 == 0 { OrderingStrategy::Degree } else { OrderingStrategy::Hybrid };
        let idx = IndexBuilder::new().ordering(strat).build(&g);
        assert!(
            idx.dominated_entries().is_empty(),
            "seed {seed}: dominated entries under {:?}",
            strat
        );
    }
}

/// Theorem 3: within one vertex's entries for one hub, distances and
/// qualities are strictly co-monotone.
#[test]
fn theorem3_label_ordering() {
    for seed in 0..CASES {
        let g = random_graph(seed, 24, 70, 5);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        for v in 0..g.num_vertices() as u32 {
            for (hub, group) in idx.labels(v).hub_groups() {
                for pair in group.windows(2) {
                    assert!(pair[0].dist < pair[1].dist, "seed {seed}: L(v{v})[{hub}]");
                    assert!(pair[0].quality < pair[1].quality, "seed {seed}: L(v{v})[{hub}]");
                }
            }
        }
    }
}

/// All three query algorithms — Algorithms 2 and 4, the ablation baselines
/// called on the label sets directly, and the `Query⁺` merge the index
/// serves with — return identical answers.
#[test]
fn query_implementations_agree() {
    for seed in 0..CASES {
        let g = random_graph(seed, 20, 60, 4);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let levels = g.distinct_qualities();
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                for &w in &levels {
                    let (ls, lt) = (idx.labels(s), idx.labels(t));
                    let a = query_pair_scan(ls, lt, w);
                    let b = query_hub_bucket(ls, lt, w);
                    let c = query_merge(ls, lt, w);
                    assert_eq!(a, b, "seed {seed}: Q({s},{t},{w})");
                    assert_eq!(b, c, "seed {seed}: Q({s},{t},{w})");
                    assert_eq!(idx.distance(s, t, w), (c != INF_DIST).then_some(c));
                }
            }
        }
    }
}

/// Appends `g` to `b` with its vertex ids shifted by `offset`.
fn add_shifted(b: &mut GraphBuilder, g: &Graph, offset: u32) {
    for e in g.edges() {
        b.add_edge(e.u + offset, e.v + offset, e.quality);
    }
}

/// The graphs the order agreement is checked on, each named: seeded road
/// grids, scale-free graphs, a disconnected graph (two grids plus isolated
/// vertices), and a grid whose periphery two columns of high-degree hubs cut
/// into three pieces (each column is made a clique, so its vertices exceed
/// the hybrid order's degree threshold and leave the periphery).
fn order_agreement_graphs() -> Vec<(String, Graph)> {
    let levels = QualityAssigner::uniform(5);
    let mut graphs = Vec::new();
    for seed in 0..2 {
        let side = StdRng::seed_from_u64(seed ^ 0x0DE5).gen_range(20..40usize);
        let g = road_grid(&RoadGridConfig::square(side), &levels, seed);
        graphs.push((format!("road_grid({side}) seed {seed}"), g));
        let n = 300 + 100 * seed as usize;
        graphs.push((
            format!("barabasi_albert({n}, 4) seed {seed}"),
            barabasi_albert(n, 4, &levels, seed),
        ));
    }

    let (a, b) = (
        road_grid(&RoadGridConfig::square(12), &levels, 5),
        road_grid(&RoadGridConfig::square(9), &levels, 6),
    );
    let mut builder = GraphBuilder::new(144 + 81 + 7);
    add_shifted(&mut builder, &a, 0);
    add_shifted(&mut builder, &b, 144);
    graphs.push(("two grids and 7 isolated vertices".into(), builder.build()));

    let side = 24u32;
    let grid = road_grid(&RoadGridConfig::square(side as usize), &levels, 7);
    let mut builder = GraphBuilder::new((side * side) as usize);
    add_shifted(&mut builder, &grid, 0);
    let mut rng = StdRng::seed_from_u64(7);
    for col in [8, 16] {
        for r1 in 0..side {
            for r2 in r1 + 1..side {
                builder.add_edge(r1 * side + col, r2 * side + col, rng.gen_range(1..=5));
            }
        }
    }
    graphs.push(("grid cut by two hub columns".into(), builder.build()));
    graphs
}

/// Answers do not depend on the vertex order: indexes built under the
/// degree, tree-decomposition and hybrid orders agree with each other on
/// sampled queries, and with the online BFS oracle on a subset of them.
#[test]
fn orders_agree_with_each_other_and_the_oracle() {
    let strategies =
        [OrderingStrategy::Degree, OrderingStrategy::TreeDecomposition, OrderingStrategy::Hybrid];
    for (case, (name, g)) in order_agreement_graphs().into_iter().enumerate() {
        let n = g.num_vertices() as u32;
        let indexes: Vec<_> = strategies
            .iter()
            .map(|&s| IndexBuilder::wc_index_plus().ordering(s).build(&g))
            .collect();
        let mut rng = StdRng::seed_from_u64(case as u64 ^ 0x04DE_2500);
        for i in 0..2000 {
            let (s, t, w) = (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=6u32));
            let answers: Vec<_> = indexes.iter().map(|idx| idx.distance(s, t, w)).collect();
            assert!(
                answers.iter().all(|&a| a == answers[0]),
                "{name}: Q({s},{t},{w}) = {answers:?}"
            );
            if i % 10 == 0 {
                assert_eq!(
                    answers[0],
                    constrained_bfs(&g, s, t, w),
                    "{name}: Q({s},{t},{w}) vs BFS"
                );
            }
        }
    }
}

/// Reconstructed paths are valid w-paths of exactly the reported length.
#[test]
fn paths_are_valid() {
    for seed in 0..CASES {
        let g = random_graph(seed, 20, 55, 4);
        let pidx = PathIndex::build(&g);
        let levels = g.distinct_qualities();
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                for &w in &levels {
                    match (constrained_bfs(&g, s, t, w), pidx.shortest_path(s, t, w)) {
                        (None, p) => {
                            assert!(p.is_none(), "seed {seed}: phantom path Q({s},{t},{w})")
                        }
                        (Some(d), Some(path)) => {
                            assert_eq!(path.len() as u32 - 1, d, "seed {seed}: Q({s},{t},{w})");
                            assert_eq!(*path.first().unwrap(), s);
                            assert_eq!(*path.last().unwrap(), t);
                            for pair in path.windows(2) {
                                let q = g.edge_quality(pair[0], pair[1]);
                                assert!(
                                    q.is_some_and(|q| q >= w),
                                    "seed {seed}: Q({s},{t},{w}) has invalid edge {pair:?}"
                                );
                            }
                        }
                        (Some(_), None) => panic!("seed {seed}: path missing for Q({s},{t},{w})"),
                    }
                }
            }
        }
    }
}

/// Monotonicity in the constraint: strengthening w never shortens the
/// distance, and once a pair becomes unreachable it stays unreachable.
#[test]
fn distance_is_monotone_in_constraint() {
    for seed in 0..CASES {
        let g = random_graph(seed, 24, 70, 5);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                let mut prev: Option<u32> = Some(0);
                let mut prev_reachable = true;
                for w in 1..=5u32 {
                    let d = idx.distance(s, t, w);
                    if let (Some(p), Some(cur)) = (prev, d) {
                        assert!(cur >= p, "seed {seed}: Q({s},{t},{w}) shrank from {p} to {cur}");
                    }
                    if !prev_reachable {
                        assert!(d.is_none(), "seed {seed}: Q({s},{t},{w}) became reachable");
                    }
                    prev_reachable = d.is_some();
                    prev = d.or(prev);
                }
            }
        }
    }
}

/// `within(s, t, w, d)` is exactly `distance(s, t, w) <= d`: true for every
/// bound at or above the distance, false below it, false for unreachable
/// pairs at any bound.
#[test]
fn within_agrees_with_distance() {
    for seed in 0..CASES {
        let g = random_graph(seed, 22, 66, 4);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let levels = g.distinct_qualities();
        for s in 0..g.num_vertices() as u32 {
            for t in 0..g.num_vertices() as u32 {
                for &w in &levels {
                    match idx.distance(s, t, w) {
                        Some(d) => {
                            assert!(idx.within(s, t, w, d), "seed {seed}: Q({s},{t},{w}) d={d}");
                            assert!(idx.within(s, t, w, d + 1));
                            assert!(idx.within(s, t, w, u32::MAX));
                            if d > 0 {
                                assert!(
                                    !idx.within(s, t, w, d - 1),
                                    "seed {seed}: Q({s},{t},{w}) within bound {} too loose",
                                    d - 1
                                );
                            }
                        }
                        None => {
                            assert!(
                                !idx.within(s, t, w, u32::MAX),
                                "seed {seed}: unreachable Q({s},{t},{w}) claimed within"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Random mixed insert/delete sequences: the decremental repair never falls
/// back to a rebuild (threshold 1.0), and afterwards every query
/// implementation agrees with a from-scratch rebuild under the same vertex
/// order *and* with the BFS oracle.
#[test]
fn dynamic_mixed_updates_match_rebuild() {
    for seed in 0..CASES {
        let g = random_graph(seed, 18, 50, 4);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::wc_index_plus());
        dyn_idx.set_repair_threshold(1.0);
        let order = dyn_idx.index().order().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_D1CE);
        let n = g.num_vertices() as u32;
        for _ in 0..10 {
            if rng.gen_bool(0.5) {
                dyn_idx.insert_edge(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..5));
            } else {
                let edges: Vec<_> = dyn_idx.graph().edges().collect();
                if let Some(e) = edges.get(rng.gen_range(0..edges.len().max(1))) {
                    dyn_idx.remove_edge(e.u, e.v);
                } else {
                    // Empty graph: deleting a non-edge must be a no-op.
                    assert!(!dyn_idx.remove_edge(0, 1.min(n - 1)));
                }
            }
        }
        assert_eq!(dyn_idx.rebuild_count(), 0, "seed {seed}: repair must never rebuild");

        let rebuilt = IndexBuilder::wc_index_plus().build_with_order(dyn_idx.graph(), order);
        let levels = dyn_idx.graph().distinct_qualities();
        for s in 0..n {
            for t in 0..n {
                for &w in &levels {
                    let oracle = constrained_bfs(dyn_idx.graph(), s, t, w);
                    assert_eq!(rebuilt.distance(s, t, w), oracle, "seed {seed}: Q({s},{t},{w})");
                    for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                        assert_eq!(
                            dyn_idx.index().distance_with(s, t, w, imp),
                            oracle,
                            "seed {seed}: repaired {imp:?} Q({s},{t},{w})"
                        );
                    }
                }
            }
        }
    }
}

/// Delete-only sequences leave labels bit-identical to a fresh build under
/// the same vertex order, and every repair invalidates the frozen snapshot.
#[test]
fn dynamic_deletions_are_bit_identical_and_invalidate_freeze() {
    for seed in 0..CASES {
        let g = random_graph(seed, 18, 55, 4);
        let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::wc_index_plus());
        dyn_idx.set_repair_threshold(1.0);
        let order = dyn_idx.index().order().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE1_E7ED);
        for _ in 0..4 {
            let edges: Vec<_> = dyn_idx.graph().edges().collect();
            if edges.is_empty() {
                break;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            let frozen = dyn_idx.freeze();
            assert!(dyn_idx.remove_edge(e.u, e.v), "seed {seed}: edge existed");
            let refrozen = dyn_idx.freeze();
            assert!(
                !std::sync::Arc::ptr_eq(&frozen, &refrozen),
                "seed {seed}: repair must invalidate the frozen snapshot"
            );
            // The re-frozen snapshot answers exactly like the live index.
            let w = rng.gen_range(1..5);
            assert_eq!(refrozen.distance(e.u, e.v, w), dyn_idx.distance(e.u, e.v, w));
        }
        assert_eq!(dyn_idx.rebuild_count(), 0, "seed {seed}");
        let fresh = IndexBuilder::wc_index_plus().build_with_order(dyn_idx.graph(), order);
        for v in 0..dyn_idx.graph().num_vertices() as u32 {
            assert_eq!(
                dyn_idx.index().labels(v),
                fresh.labels(v),
                "seed {seed}: L(v{v}) diverged from the fresh build"
            );
        }
    }
}

/// Graph snapshot encode/decode is lossless.
#[test]
fn snapshot_roundtrip() {
    for seed in 0..CASES {
        let g = random_graph(seed, 30, 120, 6);
        let bytes = wcsd::graph::io::snapshot::encode(&g);
        let decoded = wcsd::graph::io::snapshot::decode(&bytes).unwrap();
        assert_eq!(g, decoded, "seed {seed}");
    }
}

/// The builder collapses parallel edges to the maximum quality and the
/// resulting adjacency is symmetric.
#[test]
fn builder_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B11_1DE5);
        let m = rng.gen_range(0..80usize);
        let edges: Vec<(u32, u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..15u32), rng.gen_range(0..15u32), rng.gen_range(1..6u32)))
            .collect();
        let mut b = GraphBuilder::new(15);
        for &(u, v, q) in &edges {
            b.add_edge(u, v, q);
        }
        let g = b.build();
        assert_eq!(g.num_vertices(), 15);
        for e in g.edges() {
            // Symmetry.
            assert_eq!(g.edge_quality(e.v, e.u), Some(e.quality), "seed {seed}");
            // Max-quality merge.
            let best = edges
                .iter()
                .filter(|(u, v, _)| (*u == e.u && *v == e.v) || (*u == e.v && *v == e.u))
                .map(|(_, _, q)| *q)
                .max();
            assert_eq!(best, Some(e.quality), "seed {seed}");
        }
    }
}
