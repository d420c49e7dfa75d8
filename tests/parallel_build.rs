//! Builder equivalence: the multi-threaded index construction of
//! `wcsd_core::parallel_build` must produce **exactly** the label sets of the
//! sequential builder — same entries, same counts, equal indexes —
//! for every thread count, on every index variant.
//!
//! The suite hashes the complete label structure (per-vertex entry sequences
//! in canonical order) so a single stray, missing or re-ordered entry fails
//! loudly, and exercises:
//!
//! * the fixture graph (`tests/fixtures/smoke.edges`);
//! * seeded random graphs from all generator families;
//! * both construction modes and several orderings;
//! * the weighted, directed, and path variants;
//! * `threads(1)` and `threads(0)` (= all cores) against the default build.

use std::hash::{Hash, Hasher};
use wcsd::core::directed::DirectedWcIndex;
use wcsd::core::path::PathIndex;
use wcsd::core::weighted::WeightedWcIndex;
use wcsd::graph::directed::DiGraphBuilder;
use wcsd::graph::generators::{
    barabasi_albert, erdos_renyi, paper_figure3, road_grid, watts_strogatz, QualityAssigner,
    RoadGridConfig,
};
use wcsd::graph::weighted::WeightedGraphBuilder;
use wcsd::graph::{DiGraph, Graph, VertexId, WeightedGraph};
use wcsd::prelude::*;

/// Stable fingerprint of a full label structure: vertex count plus every
/// entry in canonical per-vertex order.
fn fingerprint<'a>(
    num_vertices: usize,
    labels_of: impl Fn(VertexId) -> &'a wcsd::core::LabelSet,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    num_vertices.hash(&mut h);
    for v in 0..num_vertices as VertexId {
        let set = labels_of(v);
        set.len().hash(&mut h);
        for e in set.entries() {
            e.hash(&mut h);
        }
    }
    h.finish()
}

fn index_fingerprint(idx: &WcIndex) -> u64 {
    fingerprint(idx.num_vertices(), |v| idx.labels(v))
}

fn test_graphs() -> Vec<(String, Graph)> {
    let q = QualityAssigner::uniform(5);
    vec![
        ("fixture".to_string(), {
            wcsd::graph::io::read_graph_file("tests/fixtures/smoke.edges", false)
                .expect("fixture graph must load")
        }),
        ("ba-400".to_string(), barabasi_albert(400, 4, &q, 11)),
        ("er-300".to_string(), erdos_renyi(300, 0.03, &QualityAssigner::uniform(4), 23)),
        ("ws-350".to_string(), watts_strogatz(350, 6, 0.1, &QualityAssigner::uniform(3), 31)),
        ("grid-18".to_string(), road_grid(&RoadGridConfig::square(18), &q, 47)),
    ]
}

#[test]
fn unweighted_parallel_build_is_byte_identical() {
    for (name, g) in test_graphs() {
        for (mode_name, builder) in
            [("basic", IndexBuilder::wc_index()), ("plus", IndexBuilder::wc_index_plus())]
        {
            let sequential = builder.clone().build(&g);
            let expected = index_fingerprint(&sequential);
            for threads in [2usize, 4, 8] {
                let parallel = builder.clone().threads(threads).build(&g);
                assert_eq!(
                    index_fingerprint(&parallel),
                    expected,
                    "{name}/{mode_name}: {threads}-thread build diverged"
                );
                // Belt and braces: the whole indexes — every label set and
                // the vertex order — must be equal.
                assert!(
                    parallel == sequential,
                    "{name}/{mode_name}: {threads}-thread index diverged"
                );
            }
        }
    }
}

#[test]
fn one_thread_is_the_sequential_builder() {
    // `threads(1)` must take the plain sequential path (not just agree with
    // it), so this holds on every graph without any batching in play.
    for (name, g) in test_graphs() {
        let default_build = IndexBuilder::default().build(&g);
        let one_thread = IndexBuilder::default().threads(1).build(&g);
        assert!(one_thread == default_build, "{name}: threads(1) is not the sequential build");
    }
}

#[test]
fn zero_threads_uses_all_cores_and_stays_identical() {
    let g = barabasi_albert(300, 3, &QualityAssigner::uniform(4), 5);
    let sequential = IndexBuilder::default().build(&g);
    let auto = IndexBuilder::default().threads(0).build(&g);
    assert!(auto == sequential);
}

#[test]
fn orderings_stay_identical_under_parallel_build() {
    let g = barabasi_albert(250, 3, &QualityAssigner::uniform(4), 77);
    for ordering in
        [OrderingStrategy::Degree, OrderingStrategy::Hybrid, OrderingStrategy::TreeDecomposition]
    {
        let sequential = IndexBuilder::new().ordering(ordering).build(&g);
        let parallel = IndexBuilder::new().ordering(ordering).threads(4).build(&g);
        assert!(parallel == sequential, "{ordering:?} diverged");
    }
}

fn random_weighted(n: usize, edges: usize, seed: u64) -> WeightedGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = WeightedGraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(u, v, rng.gen_range(1..=4), rng.gen_range(1..=9));
        }
    }
    b.build()
}

#[test]
fn weighted_parallel_build_is_identical() {
    for seed in 0..3u64 {
        let g = random_weighted(220, 900, seed);
        let sequential = WeightedWcIndex::build(&g);
        let expected = fingerprint(g.num_vertices(), |v| sequential.labels(v));
        for threads in [2usize, 4] {
            let parallel = WeightedWcIndex::build_threads(&g, threads);
            assert_eq!(
                fingerprint(g.num_vertices(), |v| parallel.labels(v)),
                expected,
                "weighted seed {seed}, {threads} threads"
            );
        }
    }
}

fn random_digraph(n: usize, arcs: usize, seed: u64) -> DiGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = DiGraphBuilder::new(n);
    for _ in 0..arcs {
        b.add_arc(rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), rng.gen_range(1..=4));
    }
    b.build()
}

#[test]
fn directed_parallel_build_is_identical() {
    for seed in 0..3u64 {
        let g = random_digraph(200, 1000, seed);
        let sequential = DirectedWcIndex::build(&g);
        let out_fp = fingerprint(g.num_vertices(), |v| sequential.out_labels(v));
        let in_fp = fingerprint(g.num_vertices(), |v| sequential.in_labels(v));
        for threads in [2usize, 4] {
            let parallel = DirectedWcIndex::build_threads(&g, threads);
            assert_eq!(
                fingerprint(g.num_vertices(), |v| parallel.out_labels(v)),
                out_fp,
                "directed L_out seed {seed}, {threads} threads"
            );
            assert_eq!(
                fingerprint(g.num_vertices(), |v| parallel.in_labels(v)),
                in_fp,
                "directed L_in seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn path_parallel_build_reconstructs_identical_paths() {
    // PathIndex does not expose its quad labels, so equivalence is asserted
    // behaviourally: identical distances and identical reconstructed paths
    // (parent pointers included) on every sampled triple.
    let g = erdos_renyi(120, 0.05, &QualityAssigner::uniform(4), 9);
    let sequential = PathIndex::build(&g);
    let parallel = PathIndex::build_threads(&g, 4);
    for s in (0..120).step_by(3) {
        for t in (0..120).step_by(5) {
            for w in 1..=4u32 {
                assert_eq!(
                    sequential.distance(s, t, w),
                    parallel.distance(s, t, w),
                    "distance Q({s},{t},{w})"
                );
                assert_eq!(
                    sequential.shortest_path(s, t, w),
                    parallel.shortest_path(s, t, w),
                    "path Q({s},{t},{w})"
                );
            }
        }
    }
}

#[test]
fn parallel_build_agrees_with_online_oracle() {
    // Equivalence to the sequential build is the headline; this sanity check
    // re-anchors the parallel result to ground truth independently.
    let g = paper_figure3();
    let idx = IndexBuilder::wc_index_plus().threads(3).build(&g);
    assert_eq!(idx.distance(2, 5, 2), Some(2));
    assert_eq!(idx.distance(2, 5, 3), Some(3));
    assert_eq!(idx.distance(2, 5, 99), None);
    let big = barabasi_albert(300, 3, &QualityAssigner::uniform(4), 3);
    let par = IndexBuilder::default().threads(4).build(&big);
    let seq = IndexBuilder::default().build(&big);
    for s in (0..300).step_by(17) {
        for t in (0..300).step_by(13) {
            for w in 1..=4u32 {
                assert_eq!(par.distance(s, t, w), seq.distance(s, t, w));
            }
        }
    }
}
