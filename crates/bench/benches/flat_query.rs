//! Criterion microbench for the flat query engine (Exp 7's criterion twin):
//! `Query⁺` latency over the nested `WcIndex`, the contiguous `FlatIndex`
//! arena, and the zero-copy `FlatView`, plus the `WCIF` snapshot's load
//! cost: owned decode and zero-copy view parse.

use criterion::{criterion_group, criterion_main, Criterion};
use wcsd_bench::{Dataset, QueryWorkload};
use wcsd_core::{FlatIndex, FlatView, IndexBuilder};

fn bench_flat_query(c: &mut Criterion) {
    let g = Dataset::bench_road().generate();
    let workload = QueryWorkload::uniform(&g, 256, 0xF1A7);
    let queries = workload.queries();

    let nested = IndexBuilder::wc_index_plus().build(&g);
    let flat = FlatIndex::from_index(&nested);
    let wcif = flat.encode();
    let view = FlatView::parse(&wcif).expect("own encoding parses");

    let mut group = c.benchmark_group("flat_query");
    group.sample_size(20);
    group.bench_function("nested WcIndex", |b| {
        b.iter(|| queries.iter().filter_map(|&(s, t, w)| nested.distance(s, t, w)).count())
    });
    group.bench_function("FlatIndex", |b| {
        b.iter(|| queries.iter().filter_map(|&(s, t, w)| flat.distance(s, t, w)).count())
    });
    group.bench_function("FlatView", |b| {
        b.iter(|| queries.iter().filter_map(|&(s, t, w)| view.distance(s, t, w)).count())
    });
    group.finish();
}

fn bench_snapshot_load(c: &mut Criterion) {
    let g = Dataset::bench_road().generate();
    let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
    let wcif = flat.encode();

    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(20);
    group.bench_function("WCIF decode", |b| {
        b.iter(|| FlatIndex::decode(&wcif).expect("own encoding decodes").total_entries())
    });
    group.bench_function("WCIF view parse", |b| {
        b.iter(|| FlatView::parse(&wcif).expect("own encoding parses").total_entries())
    });
    group.finish();
}

criterion_group!(benches, bench_flat_query, bench_snapshot_load);
criterion_main!(benches);
