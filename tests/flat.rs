//! Property suite for the flat query engine: the read-optimized `FlatIndex`
//! (and the zero-copy `FlatView` over its `WCIF` snapshot) must answer every
//! query **bit-identically** to the nested `WcIndex` it was frozen from,
//! across random graphs, both query implementations, and the `within`
//! cover predicate — and the `WCIF` decoder must reject corrupted or
//! truncated snapshots with an error, never a panic or a wrong index.
//!
//! Mirrors the seeded-fuzzer style of `tests/properties.rs` and the snapshot
//! corruption coverage of the graph-snapshot suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcsd::graph::generators::{barabasi_albert, paper_figure3, QualityAssigner};
use wcsd::prelude::*;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::query::query_pair_scan;
use wcsd_graph::INF_DIST;

/// Number of random graphs each property is checked against.
const CASES: u64 = 32;

/// Deterministic random graph, same construction as `tests/properties.rs`.
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

/// The flat engine agrees with the nested index — and with Algorithm 2, the
/// pair-scan reference over the same label sets — on every query, for both
/// query implementations, on both the owned and the borrowed form.
#[test]
fn flat_answers_are_bit_identical() {
    for seed in 0..CASES {
        let g = random_graph(seed, 28, 90, 5);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let flat = FlatIndex::from_index(&idx);
        let bytes = flat.encode();
        let view = FlatView::parse(&bytes).expect("own encoding parses");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A7);
        for (s, t, w) in random_queries(&mut rng, g.num_vertices() as u32, 5, 200) {
            let expected = idx.distance(s, t, w);
            let pair_scan = query_pair_scan(idx.labels(s), idx.labels(t), w);
            assert_eq!(expected, (pair_scan != INF_DIST).then_some(pair_scan), "seed {seed}");
            for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                assert_eq!(
                    flat.distance_with(s, t, w, imp),
                    expected,
                    "seed {seed}: FlatIndex Q({s},{t},{w}) under {imp:?}"
                );
                assert_eq!(
                    view.distance_with(s, t, w, imp),
                    expected,
                    "seed {seed}: FlatView Q({s},{t},{w}) under {imp:?}"
                );
            }
        }
    }
}

/// `within` agrees between representations for bounds straddling the answer.
#[test]
fn flat_within_matches_nested() {
    for seed in 0..CASES {
        let g = random_graph(seed, 24, 70, 4);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let flat = FlatIndex::from_index(&idx);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x717A);
        for (s, t, w) in random_queries(&mut rng, g.num_vertices() as u32, 4, 100) {
            for d in [0, 1, 2, 4, 8, u32::MAX] {
                assert_eq!(
                    flat.within(s, t, w, d),
                    idx.within(s, t, w, d),
                    "seed {seed}: within({s},{t},{w},{d})"
                );
            }
        }
    }
}

/// Freezing and thawing is lossless: `to_index` reconstructs equal label
/// sets, and the `WCIF` snapshot round-trips to an equal flat index.
#[test]
fn flat_roundtrips_are_lossless() {
    for seed in 0..CASES {
        let g = random_graph(seed, 26, 80, 5);
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let flat = FlatIndex::from_index(&idx);
        let thawed = flat.to_index();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(thawed.labels(v), idx.labels(v), "seed {seed}: vertex {v}");
        }
        assert_eq!(thawed.order(), idx.order(), "seed {seed}");
        let decoded = FlatIndex::decode(&flat.encode()).expect("own encoding decodes");
        assert_eq!(decoded, flat, "seed {seed}");
        assert_eq!(decoded.stats(), idx.stats(), "seed {seed}");
    }
}

/// Batch evaluation answers identically through every engine and thread
/// count (the server's `BATCH` path runs over the flat form).
#[test]
fn parallel_batches_agree_across_engines() {
    let g = random_graph(7, 28, 90, 5);
    let idx = IndexBuilder::wc_index_plus().build(&g);
    let flat = FlatIndex::from_index(&idx);
    let bytes = flat.encode();
    let view = FlatView::parse(&bytes).expect("own encoding parses");
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let queries = random_queries(&mut rng, g.num_vertices() as u32, 5, 300);
    let expected = wcsd::core::parallel::par_distances(&idx, &queries, 1);
    for threads in [1, 3] {
        assert_eq!(wcsd::core::parallel::par_distances(&flat, &queries, threads), expected);
        assert_eq!(wcsd::core::parallel::par_distances(&view, &queries, threads), expected);
    }
}

/// Every truncation of a valid `WCIF` snapshot is rejected with an error.
#[test]
fn wcif_rejects_truncation() {
    let g = random_graph(3, 20, 60, 4);
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
    let bytes = flat.encode();
    for cut in 0..bytes.len() {
        assert!(FlatIndex::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
    }
    let mut extended = bytes.to_vec();
    extended.extend_from_slice(&[0; 8]);
    assert!(FlatIndex::decode(&extended).is_err(), "trailing junk accepted");
}

/// Single-word corruptions of the header and directory sections either
/// decode to an index that still answers like the original, or are rejected
/// — they never panic. Length-preserving corruptions that scramble offsets,
/// group hubs, or the vertex order must be caught by validation.
#[test]
fn wcif_corruption_never_panics() {
    let g = random_graph(11, 22, 66, 4);
    let idx = IndexBuilder::wc_index_plus().build(&g);
    let flat = FlatIndex::from_index(&idx);
    let bytes = flat.encode().to_vec();
    let mut rng = StdRng::seed_from_u64(0xC0_22);
    // Exhaustive over the header, sampled over the arrays.
    let mut positions: Vec<usize> = (0..20.min(bytes.len())).collect();
    for _ in 0..400 {
        positions.push(rng.gen_range(0..bytes.len()));
    }
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            let decoded = FlatIndex::decode(&corrupt);
            // The zero-copy view validator and the owned decode validator
            // must accept/reject exactly the same inputs.
            assert_eq!(
                FlatView::parse(&corrupt).is_ok(),
                decoded.is_ok(),
                "view/owned validators disagree at byte {pos} flip {flip:#x}"
            );
            if let Ok(decoded) = decoded {
                // A surviving decode (e.g. a flipped distance word) must
                // still be a structurally valid index: spot-check queries
                // cannot panic.
                for s in 0..g.num_vertices() as u32 {
                    let _ = decoded.distance(s, 0, 1);
                }
            }
        }
    }
}

/// A group key outside `0..n` is rejected by both readers. Ascending keys
/// alone do not catch it, and `label_entries` would later index the vertex
/// order with it.
#[test]
fn wcif_rejects_group_keys_outside_the_vertex_range() {
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&paper_figure3()));
    let bytes = flat.encode().to_vec();
    let header = |i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
    let (n, g) = (header(2) as usize, header(4) as usize);
    // The last key of the last vertex: raising it keeps keys ascending.
    let last_key = 4 * (5 + 2 * (n + 1) + g - 1);
    for key in [n as u32, 1000] {
        let mut corrupt = bytes.clone();
        corrupt[last_key..last_key + 4].copy_from_slice(&key.to_le_bytes());
        assert!(FlatIndex::decode(&corrupt).is_err(), "key {key} accepted");
        assert!(FlatView::parse(&corrupt).is_err(), "key {key} parsed");
    }
}

/// The header distinguishes the snapshot formats: the index decoder refuses
/// an overlay, the retired nested `WCIX` magic and a retired `WCIF` version-1
/// image (hub-id group keys), and the overlay decoder refuses an index, all
/// with a clean error.
#[test]
fn snapshot_formats_are_not_confusable() {
    let g = random_graph(5, 20, 60, 4);
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
    let overlay = OverlayIndex::build(&g, &Partition::build(&g, 2, 5)).encode();
    assert!(OverlayIndex::decode(&flat.encode()).is_err());
    assert!(FlatIndex::decode(&overlay).is_err());
    let mut nested = flat.encode().to_vec();
    nested[..4].copy_from_slice(b"WCIX");
    assert!(FlatIndex::decode(&nested).is_err());
    assert!(FlatView::parse(&nested).is_err());
    let mut v1 = flat.encode().to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert!(FlatIndex::decode(&v1).is_err());
    assert!(FlatView::parse(&v1).is_err());
}

/// A dynamic index re-frozen after updates answers exactly like its live
/// nested index, including through a `WCIF` round trip.
#[test]
fn refrozen_dynamic_index_matches_live_index() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = random_graph(13, 24, 70, 4);
    let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::default());
    let n = dyn_idx.graph().num_vertices() as u32;
    for _ in 0..8 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        dyn_idx.insert_edge(a, b, rng.gen_range(1..=4));
    }
    let frozen = dyn_idx.freeze();
    let reloaded = FlatIndex::decode(&frozen.encode()).expect("frozen snapshot decodes");
    for s in 0..n {
        for t in 0..n {
            for w in 1..=4 {
                assert_eq!(frozen.distance(s, t, w), dyn_idx.distance(s, t, w));
                assert_eq!(reloaded.distance(s, t, w), dyn_idx.distance(s, t, w));
            }
        }
    }
}

/// FNV-1a, 64-bit: a hash fixed by its definition, so a golden constant
/// stays valid across Rust releases (`DefaultHasher` makes no such promise).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Golden snapshot: the fixture graph built the way `wcsd-cli build` builds
/// it (hybrid order, WC-INDEX+) encodes to exactly these `WCIF` bytes. Any
/// change to the construction sweep, the vertex order or the image layout
/// that moves a single byte fails here.
#[test]
fn fixture_build_matches_golden_wcif_hash() {
    let g = wcsd::graph::io::read_graph_file("tests/fixtures/smoke.edges", false)
        .expect("fixture graph must load");
    let idx = IndexBuilder::new().ordering(OrderingStrategy::Hybrid).build(&g);
    let bytes = FlatIndex::from_index(&idx).encode();
    assert_eq!(fnv1a_64(&bytes), 0x665c_064b_cbbf_2402, "WCIF image of {} bytes", bytes.len());
}

/// Golden snapshot of the `social-point` graph, seed-1
/// `barabasi_albert(2000, 5)` built as `wc_index_plus()` builds it. Its
/// periphery has no small separator, so the hybrid order keeps the capped
/// minimum-degree elimination and these bytes must never move with a change
/// to the road-graph order.
#[test]
fn social_build_matches_golden_wcif_hash() {
    let g = barabasi_albert(2000, 5, &QualityAssigner::uniform(5), 1);
    let bytes = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g)).encode();
    assert_eq!(fnv1a_64(&bytes), 0x0f90_a1a2_f2d4_30ff, "WCIF image of {} bytes", bytes.len());
}
