//! Cross-crate integration tests: every algorithm in the workspace must agree
//! on every query, across graph families, orderings, construction modes and
//! serialization round-trips.

use wcsd::prelude::*;
use wcsd_baselines::{online, LcrAdaptIndex, NaiveWIndex, PartitionedGraphs};
use wcsd_core::directed::DirectedWcIndex;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::path::PathIndex;
use wcsd_core::weighted::WeightedWcIndex;
use wcsd_graph::generators::{
    barabasi_albert, erdos_renyi, road_grid, watts_strogatz, QualityAssigner, RoadGridConfig,
};
use wcsd_graph::{DiGraph, Graph, WeightedGraph};

fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("road", road_grid(&RoadGridConfig::square(9), &QualityAssigner::uniform(5), 1)),
        ("social", barabasi_albert(120, 3, &QualityAssigner::ratings_skew(5), 2)),
        ("random", erdos_renyi(90, 0.05, &QualityAssigner::uniform(4), 3)),
        ("smallworld", watts_strogatz(100, 4, 0.2, &QualityAssigner::uniform(3), 4)),
    ]
}

fn sample_queries(g: &Graph) -> Vec<(u32, u32, u32)> {
    let n = g.num_vertices() as u32;
    let levels = g.distinct_qualities();
    let mut out = Vec::new();
    for s in (0..n).step_by(7) {
        for t in (0..n).step_by(11) {
            for &w in &levels {
                out.push((s, t, w));
            }
        }
    }
    out
}

#[test]
fn all_methods_agree_on_all_graph_families() {
    for (name, g) in test_graphs() {
        let oracle = online::OnlineBfs::new(&g);
        let partitions = PartitionedGraphs::build(&g);
        let naive = NaiveWIndex::build(&g);
        let lcr = LcrAdaptIndex::build(&g);
        let wc = IndexBuilder::wc_index().build(&g);
        let wc_plus = IndexBuilder::wc_index_plus().build(&g);
        for (s, t, w) in sample_queries(&g) {
            let expected = oracle.distance(s, t, w);
            assert_eq!(partitions.distance(s, t, w), expected, "{name}: W-BFS Q({s},{t},{w})");
            assert_eq!(naive.distance(s, t, w), expected, "{name}: Naive Q({s},{t},{w})");
            assert_eq!(lcr.distance(s, t, w), expected, "{name}: LCR Q({s},{t},{w})");
            assert_eq!(wc.distance(s, t, w), expected, "{name}: WC-INDEX Q({s},{t},{w})");
            assert_eq!(wc_plus.distance(s, t, w), expected, "{name}: WC-INDEX+ Q({s},{t},{w})");
        }
    }
}

#[test]
fn every_ordering_strategy_yields_a_correct_index() {
    let g = road_grid(&RoadGridConfig::square(7), &QualityAssigner::uniform(4), 9);
    let oracle = online::OnlineBfs::new(&g);
    for strat in [
        OrderingStrategy::Degree,
        OrderingStrategy::TreeDecomposition,
        OrderingStrategy::Hybrid,
        OrderingStrategy::Natural,
        OrderingStrategy::Random(5),
        OrderingStrategy::BfsLevel,
    ] {
        let idx = IndexBuilder::new().ordering(strat).build(&g);
        for (s, t, w) in sample_queries(&g) {
            assert_eq!(
                idx.distance(s, t, w),
                oracle.distance(s, t, w),
                "{} ordering disagrees on Q({s},{t},{w})",
                strat.name()
            );
        }
        assert!(idx.dominated_entries().is_empty(), "{} ordering broke minimality", strat.name());
    }
}

#[test]
fn basic_and_query_efficient_builds_are_identical() {
    for (name, g) in test_graphs() {
        let order = wcsd_order::degree_order(&g);
        let basic =
            IndexBuilder::new().mode(ConstructionMode::Basic).build_with_order(&g, order.clone());
        let plus =
            IndexBuilder::new().mode(ConstructionMode::QueryEfficient).build_with_order(&g, order);
        assert_eq!(basic.total_entries(), plus.total_entries(), "{name}: entry count differs");
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(basic.labels(v), plus.labels(v), "{name}: labels differ at v{v}");
        }
    }
}

#[test]
fn index_snapshot_roundtrip_preserves_answers() {
    let g = barabasi_albert(150, 3, &QualityAssigner::uniform(5), 12);
    let idx = IndexBuilder::wc_index_plus().build(&g);
    let snapshot = FlatIndex::from_index(&idx).encode();
    let decoded = FlatIndex::decode(&snapshot).expect("snapshot decodes").to_index();
    assert!(decoded == idx, "the WCIF snapshot thaws to an equal index");
    for (s, t, w) in sample_queries(&g) {
        assert_eq!(idx.distance(s, t, w), decoded.distance(s, t, w));
    }
}

#[test]
fn graph_snapshot_and_formats_roundtrip() {
    let g = road_grid(&RoadGridConfig::square(8), &QualityAssigner::uniform(3), 5);
    // Edge list.
    let mut el = Vec::new();
    wcsd::graph::io::edge_list::write_edge_list(&g, &mut el).unwrap();
    assert_eq!(wcsd::graph::io::edge_list::read_edge_list(el.as_slice()).unwrap(), g);
    // DIMACS.
    let mut gr = Vec::new();
    wcsd::graph::io::dimacs::write_dimacs(&g, &mut gr).unwrap();
    assert_eq!(wcsd::graph::io::dimacs::read_dimacs(gr.as_slice()).unwrap(), g);
}

#[test]
fn path_index_agrees_with_distance_index() {
    let g = watts_strogatz(80, 4, 0.15, &QualityAssigner::uniform(4), 21);
    let didx = IndexBuilder::wc_index_plus().build(&g);
    let pidx = PathIndex::build(&g);
    for (s, t, w) in sample_queries(&g) {
        let d = didx.distance(s, t, w);
        assert_eq!(pidx.distance(s, t, w), d);
        if let Some(d) = d {
            let path = pidx.shortest_path(s, t, w).expect("path exists when distance exists");
            assert_eq!(path.len() as u32 - 1, d);
            for pair in path.windows(2) {
                let q = g.edge_quality(pair[0], pair[1]).expect("path edges exist");
                assert!(q >= w);
            }
        }
    }
}

#[test]
fn directed_index_on_symmetrised_graph_matches_undirected() {
    let g = erdos_renyi(70, 0.06, &QualityAssigner::uniform(3), 30);
    let didx = DirectedWcIndex::build(&DiGraph::from_undirected(&g));
    let uidx = IndexBuilder::wc_index_plus().build(&g);
    for (s, t, w) in sample_queries(&g) {
        assert_eq!(didx.distance(s, t, w), uidx.distance(s, t, w));
    }
}

#[test]
fn weighted_index_with_unit_lengths_matches_unweighted() {
    let g = barabasi_albert(90, 3, &QualityAssigner::uniform(4), 8);
    let widx = WeightedWcIndex::build(&WeightedGraph::from_unit_lengths(&g));
    let uidx = IndexBuilder::wc_index_plus().build(&g);
    for (s, t, w) in sample_queries(&g) {
        assert_eq!(widx.distance(s, t, w), uidx.distance(s, t, w));
    }
}

#[test]
fn dynamic_index_tracks_rebuilt_index_through_updates() {
    let g = erdos_renyi(40, 0.05, &QualityAssigner::uniform(4), 33);
    let mut dynamic = DynamicWcIndex::new(&g, IndexBuilder::wc_index_plus());
    let updates = [(1u32, 37u32, 4u32), (5, 20, 2), (0, 39, 3), (12, 13, 1), (7, 29, 4)];
    for (a, b, q) in updates {
        dynamic.insert_edge(a, b, q);
        let fresh = IndexBuilder::wc_index_plus().build(dynamic.graph());
        for (s, t, w) in sample_queries(dynamic.graph()) {
            assert_eq!(
                dynamic.distance(s, t, w),
                fresh.distance(s, t, w),
                "after inserting ({a},{b},{q}): Q({s},{t},{w})"
            );
        }
    }
    assert_eq!(dynamic.rebuild_count(), 0, "the settle keeps the order");
    // Deletion settles through the same path and stays correct.
    dynamic.remove_edge(1, 37);
    let fresh = IndexBuilder::wc_index_plus().build(dynamic.graph());
    for (s, t, w) in sample_queries(dynamic.graph()) {
        assert_eq!(dynamic.distance(s, t, w), fresh.distance(s, t, w));
    }
}

#[test]
fn quality_domain_maps_real_valued_constraints() {
    // End-to-end: raw f64 bandwidths → ranks → index → queries with raw
    // constraints.
    let raw = [1.0f64, 2.0, 3.0, 5.0, 10.0];
    let dom = QualityDomain::from_raw(&raw);
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, dom.rank_of(10.0).unwrap());
    b.add_edge(1, 2, dom.rank_of(2.0).unwrap());
    b.add_edge(0, 2, dom.rank_of(1.0).unwrap());
    b.add_edge(2, 3, dom.rank_of(5.0).unwrap());
    let g = b.build();
    let idx = IndexBuilder::wc_index_plus().build(&g);
    // Constraint 1.5 Mbps → must avoid the 1.0-quality edge.
    assert_eq!(idx.distance(0, 2, dom.rank_for_constraint(1.5)), Some(2));
    // Constraint 0.5 → every edge qualifies.
    assert_eq!(idx.distance(0, 2, dom.rank_for_constraint(0.5)), Some(1));
    // Constraint 7 → only the 10.0 edge qualifies; 2 is unreachable.
    assert_eq!(idx.distance(0, 2, dom.rank_for_constraint(7.0)), None);
    assert_eq!(idx.distance(0, 1, dom.rank_for_constraint(7.0)), Some(1));
}
