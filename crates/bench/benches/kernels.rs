//! Kernel bench (ours): the scalar reference `Query⁺` merge against the
//! default branch-free chunked kernel over the same rank-ordered layout, plus
//! a tiny-group datapoint pinning the 1–2-entry direct-probe specialization
//! of the group minimum.

use criterion::{criterion_group, criterion_main, Criterion};
use wcsd_bench::{Dataset, QueryWorkload};
use wcsd_core::{FlatIndex, IndexBuilder, QueryImpl};

fn bench_kernels(c: &mut Criterion) {
    let g = Dataset::bench_road().generate();
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
    let workload = QueryWorkload::uniform(&g, 256, 12);
    let queries = workload.queries();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    for (name, imp) in [("scalar_merge", QueryImpl::Merge), ("chunked", QueryImpl::Chunked)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                queries.iter().filter_map(|&(s, t, w)| flat.distance_with(s, t, w, imp)).count()
            })
        });
    }
    group.finish();
}

/// Pins the 1–2-entry direct-probe specialization of the group minimum: with
/// `|w| = 2` nearly every hub group on a road graph holds one or two entries,
/// so the merge spends its time in the probe path rather than the chunked
/// lanes or the binary search.
fn bench_tiny_groups(c: &mut Criterion) {
    let g = Dataset::bench_road().with_quality_levels(2).generate();
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
    let workload = QueryWorkload::uniform(&g, 256, 13);
    let queries = workload.queries();

    let mut group = c.benchmark_group("kernels_tiny_groups");
    group.sample_size(20);
    for (name, imp) in [("probe_merge", QueryImpl::Merge), ("probe_chunked", QueryImpl::Chunked)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                queries.iter().filter_map(|&(s, t, w)| flat.distance_with(s, t, w, imp)).count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_tiny_groups);
criterion_main!(benches);
