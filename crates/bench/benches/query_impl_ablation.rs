//! Ablation bench (Section IV.C): the three query implementations —
//! pair scan (Algorithm 2), hub-bucket lookup (Algorithm 4) and the linear
//! `Query⁺` merge (Algorithm 5) — on the same WC-INDEX, called directly on
//! its label sets.

use criterion::{criterion_group, criterion_main, Criterion};
use wcsd_bench::{Dataset, QueryWorkload};
use wcsd_core::query::{query_hub_bucket, query_merge, query_pair_scan};
use wcsd_core::{IndexBuilder, LabelSet};
use wcsd_graph::{Distance, Quality, INF_DIST};

/// One query algorithm over the two endpoints' label sets.
type Algorithm = fn(&LabelSet, &LabelSet, Quality) -> Distance;

fn bench_query_impls(c: &mut Criterion) {
    let g = Dataset::bench_social().generate();
    let index = IndexBuilder::wc_index_plus().build(&g);
    let workload = QueryWorkload::uniform(&g, 256, 5);
    let queries = workload.queries();

    let mut group = c.benchmark_group("query_impl_ablation");
    group.sample_size(20);
    let algorithms: [(&str, Algorithm); 3] = [
        ("Alg2_pair_scan", query_pair_scan),
        ("Alg4_hub_bucket", query_hub_bucket),
        ("Alg5_merge", query_merge),
    ];
    for (name, query) in algorithms {
        group.bench_function(name, |b| {
            b.iter(|| {
                queries
                    .iter()
                    .filter(|&&(s, t, w)| query(index.labels(s), index.labels(t), w) != INF_DIST)
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_impls);
criterion_main!(benches);
