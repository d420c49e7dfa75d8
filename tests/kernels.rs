//! Parity fuzz suite for the branch-free query kernels (`wcsd_core::kernel`):
//! the chunked masked-min merge behind the default [`QueryImpl::Chunked`]
//! must answer **bit-identically** to the scalar `Query⁺` merge and the
//! pair-scan baseline (Algorithm 2 over the nested labels) — on the owned
//! [`FlatIndex`] and the zero-copy [`FlatView`] of its rank-ordered `WCIF`
//! image — across 48 random graphs per property, including out-of-range
//! quality constraints, unreachable pairs, reflexive pairs, and empty labels.
//!
//! Mirrors the seeded-fuzzer idiom of `tests/flat.rs` / `tests/properties.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcsd::prelude::*;
use wcsd_core::parallel::par_distances_with;
use wcsd_core::query::query_pair_scan;
use wcsd_graph::INF_DIST;

/// Number of random graphs each property is checked against.
const CASES: u64 = 48;

/// Deterministic random graph, same construction as `tests/flat.rs`.
fn random_graph(seed: u64, max_n: usize, max_edges: usize, max_q: u32) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x00F1_A700);
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

/// Random `(s, t, w)` queries including out-of-domain quality levels.
fn random_queries(rng: &mut StdRng, n: u32, max_q: u32, count: usize) -> Vec<(u32, u32, u32)> {
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..=max_q + 2)))
        .collect()
}

/// The nested source index and both flat representations of it: owned and
/// borrowed. The `Vec` keeps the snapshot bytes alive for the borrowed view.
struct Engines {
    idx: WcIndex,
    flat: FlatIndex,
    bytes: Vec<u8>,
}

impl Engines {
    fn build(g: &Graph) -> Self {
        let idx = IndexBuilder::wc_index_plus().build(g);
        let flat = FlatIndex::from_index(&idx);
        let bytes = flat.encode().to_vec();
        Self { idx, flat, bytes }
    }

    fn view(&self) -> FlatView<'_> {
        FlatView::parse(&self.bytes).expect("own snapshot parses")
    }
}

/// `Chunked` answers bit-identically to the scalar merge and the pair-scan
/// baseline on both representations.
#[test]
fn chunked_matches_merge_and_pairscan_everywhere() {
    for seed in 0..CASES {
        let g = random_graph(seed, 28, 90, 5);
        let e = Engines::build(&g);
        let view = e.view();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC41A);
        for (s, t, w) in random_queries(&mut rng, g.num_vertices() as u32, 5, 200) {
            let expected = e.flat.distance_with(s, t, w, QueryImpl::Merge);
            let pair_scan = query_pair_scan(e.idx.labels(s), e.idx.labels(t), w);
            assert_eq!(
                (pair_scan != INF_DIST).then_some(pair_scan),
                expected,
                "seed {seed}: baseline disagreement on Q({s},{t},{w})"
            );
            for (name, got) in [
                ("FlatIndex", e.flat.distance_with(s, t, w, QueryImpl::Chunked)),
                ("FlatView", view.distance_with(s, t, w, QueryImpl::Chunked)),
                ("FlatView merge", view.distance_with(s, t, w, QueryImpl::Merge)),
            ] {
                assert_eq!(got, expected, "seed {seed}: {name} chunked Q({s},{t},{w})");
            }
        }
    }
}

/// Edge cases the lane kernels must not mishandle: an edgeless graph (every
/// label at its smallest, every cross pair unreachable), reflexive pairs, and
/// empty and equal-source batches.
#[test]
fn kernels_handle_empty_labels_and_unreachable_pairs() {
    let g = GraphBuilder::new(6).build();
    let e = Engines::build(&g);
    let view = e.view();
    for s in 0..6 {
        for t in 0..6 {
            for w in [1, 3, u32::MAX] {
                let expected = if s == t { Some(0) } else { None };
                for got in [
                    e.flat.distance_with(s, t, w, QueryImpl::Chunked),
                    view.distance_with(s, t, w, QueryImpl::Chunked),
                ] {
                    assert_eq!(got, expected, "edgeless Q({s},{t},{w})");
                }
            }
        }
        let row: Vec<(u32, u32, u32)> = (0..6).map(|t| (s, t, 1)).collect();
        let expected: Vec<Option<u32>> =
            (0..6).map(|t| if s == t { Some(0) } else { None }).collect();
        assert_eq!(par_distances_with(&e.flat, &row, 2, QueryImpl::Chunked), expected);
        assert_eq!(par_distances_with(&view, &row, 2, QueryImpl::Chunked), expected);
        assert!(par_distances_with(&e.flat, &[], 2, QueryImpl::Chunked).is_empty(), "empty batch");
    }
}

/// The hot (rank-ordered) group layout is invisible to every query
/// implementation: both impls on the flat index agree with the nested index,
/// whose hub groups ascend by hub id, and so does the default `distance`.
#[test]
fn hot_layout_is_transparent_to_all_impls() {
    for seed in 0..CASES {
        let g = random_graph(seed, 24, 70, 4);
        let e = Engines::build(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
        for (s, t, w) in random_queries(&mut rng, g.num_vertices() as u32, 4, 80) {
            let nested = e.idx.distance(s, t, w);
            for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                assert_eq!(
                    e.flat.distance_with(s, t, w, imp),
                    nested,
                    "seed {seed}: hot layout diverges on Q({s},{t},{w}) under {imp:?}"
                );
            }
            assert_eq!(e.flat.distance(s, t, w), nested, "seed {seed}: default Q({s},{t},{w})");
        }
    }
}
