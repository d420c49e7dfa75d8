//! Opt-in correctness soak on thousand-vertex graphs (the ROADMAP item
//! lifting the ~30-vertex cap of the `properties.rs` fuzzer).
//!
//! All-pairs oracle verification is quadratic, so the soak samples a few
//! thousand `(s, t, w)` triples per graph instead and re-checks the core
//! invariants at scale: oracle agreement, label minimality, Theorem 3
//! co-monotonicity, `within` consistency, constraint monotonicity, and
//! parallel-batch agreement.
//!
//! Run with: `cargo test --release --test soak -- --ignored`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcsd::prelude::*;
use wcsd_baselines::online::constrained_bfs;
use wcsd_core::parallel;
use wcsd_graph::generators::{barabasi_albert, road_grid, QualityAssigner, RoadGridConfig};
use wcsd_graph::Graph;

/// Sampled queries per graph.
const SAMPLES: usize = 2_000;

fn soak_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("ba-1100", barabasi_albert(1100, 4, &QualityAssigner::uniform(5), 4242)),
        ("grid-33x33", road_grid(&RoadGridConfig::square(33), &QualityAssigner::uniform(5), 4243)),
        (
            "ws-1000",
            wcsd_graph::generators::watts_strogatz(
                1000,
                6,
                0.1,
                &QualityAssigner::uniform(4),
                4244,
            ),
        ),
    ]
}

fn sample_queries(g: &Graph, rng: &mut StdRng) -> Vec<(u32, u32, u32)> {
    let n = g.num_vertices() as u32;
    let levels = g.distinct_qualities();
    (0..SAMPLES)
        .map(|_| {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let w = levels[rng.gen_range(0..levels.len())];
            (s, t, w)
        })
        .collect()
}

#[test]
#[ignore = "multi-second soak; run with cargo test --release --test soak -- --ignored"]
fn thousand_vertex_invariant_soak() {
    for (name, g) in soak_graphs() {
        assert!(g.num_vertices() >= 1000, "{name} is not thousand-vertex scale");
        // Determinism at soak scale: two builds of the same graph must be
        // equal label for label (the golden WCIF test in tests/flat.rs pins
        // the bytes on the small fixture; this is the big-graph leg).
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let rebuilt = IndexBuilder::wc_index_plus().build(&g);
        assert!(idx == rebuilt, "{name}: two builds of the same graph differ at soak scale");
        drop(rebuilt);
        let mut rng = StdRng::seed_from_u64(0x50AC ^ g.num_vertices() as u64);
        let queries = sample_queries(&g, &mut rng);

        // Minimality: no dominated entries anywhere, even at this scale.
        assert!(idx.dominated_entries().is_empty(), "{name}: dominated entries");

        // Theorem 3: per-hub (dist, quality) strict co-monotonicity.
        for v in 0..g.num_vertices() as u32 {
            for (hub, group) in idx.labels(v).hub_groups() {
                for pair in group.windows(2) {
                    assert!(
                        pair[0].dist < pair[1].dist && pair[0].quality < pair[1].quality,
                        "{name}: L(v{v})[{hub}] not co-monotone"
                    );
                }
            }
        }

        // Oracle agreement + within-consistency on the sampled triples.
        for &(s, t, w) in &queries {
            let expected = constrained_bfs(&g, s, t, w);
            let got = idx.distance(s, t, w);
            assert_eq!(got, expected, "{name}: Q({s},{t},{w})");
            match got {
                Some(d) => {
                    assert!(idx.within(s, t, w, d), "{name}: within(Q({s},{t},{w}), {d})");
                    assert!(!idx.within(s, t, w, d.saturating_sub(1)) || d == 0);
                }
                None => assert!(!idx.within(s, t, w, u32::MAX), "{name}: Q({s},{t},{w})"),
            }
        }

        // Constraint monotonicity on a subsample of pairs.
        let levels = g.distinct_qualities();
        for &(s, t, _) in queries.iter().take(300) {
            let mut prev = Some(0);
            for &w in &levels {
                let d = idx.distance(s, t, w);
                if let (Some(p), Some(cur)) = (prev, d) {
                    assert!(cur >= p, "{name}: Q({s},{t},{w}) shrank");
                }
                prev = d.or(prev);
            }
        }

        // Parallel batch evaluation agrees with sequential answers.
        let sequential: Vec<_> = queries.iter().map(|&(s, t, w)| idx.distance(s, t, w)).collect();
        for threads in [2, 8] {
            assert_eq!(
                parallel::par_distances(&idx, &queries, threads),
                sequential,
                "{name}: {threads} threads"
            );
        }
    }
}
