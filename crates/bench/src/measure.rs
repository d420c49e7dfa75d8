//! Timing and size measurement of every method on a dataset + workload pair.
//!
//! The harness runs each indexing method once (recording wall-clock build time
//! and index size) and then replays the query workload against every method,
//! which is exactly the protocol behind the paper's Figures 5–12.

use crate::workload::QueryWorkload;
use std::time::Instant;
use wcsd_baselines::{online, DistanceAlgorithm, LcrAdaptIndex, NaiveWIndex, PartitionedGraphs};
use wcsd_core::{ConstructionMode, FlatIndex, FlatView, IndexBuilder, QueryImpl, WcIndex};
use wcsd_graph::Graph;
use wcsd_order::OrderingStrategy;

/// Every method the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Online constrained BFS on the original graph.
    CBfs,
    /// Online Dijkstra on the original graph.
    Dijkstra,
    /// BFS over per-quality partitions.
    WBfs,
    /// One PLL index per quality level.
    Naive,
    /// Label-constrained-reachability adaptation.
    LcrAdapt,
    /// The paper's basic index.
    WcIndex,
    /// The paper's advanced index (query-efficient build + hybrid ordering).
    WcIndexPlus,
}

impl MethodKind {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Self::CBfs => "C-BFS",
            Self::Dijkstra => "Dijkstra",
            Self::WBfs => "W-BFS",
            Self::Naive => "Naive",
            Self::LcrAdapt => "LCR-adapt",
            Self::WcIndex => "WC-INDEX",
            Self::WcIndexPlus => "WC-INDEX+",
        }
    }

    /// The three index-construction methods compared in Exp 1/2/4/5.
    pub fn indexing_methods() -> [MethodKind; 3] {
        [Self::Naive, Self::WcIndex, Self::WcIndexPlus]
    }

    /// All query methods compared in Exp 3 / Exp 5c.
    pub fn query_methods() -> [MethodKind; 6] {
        [Self::WBfs, Self::Dijkstra, Self::CBfs, Self::Naive, Self::WcIndex, Self::WcIndexPlus]
    }
}

/// Result of building one index-based method on one dataset.
#[derive(Debug, Clone)]
pub struct IndexingResult {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Wall-clock construction time in seconds.
    pub build_seconds: f64,
    /// Index size in bytes.
    pub index_bytes: usize,
    /// Total number of label entries (0 for non-labeling methods).
    pub entries: usize,
}

/// Result of replaying a query workload against one method.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Mean time per query in microseconds.
    pub avg_query_us: f64,
    /// Number of queries answered (reachable or not).
    pub queries: usize,
    /// Number of queries with a finite answer (sanity statistic).
    pub reachable: usize,
}

/// A built method ready to answer queries.
pub enum BuiltMethod<'g> {
    /// Online constrained BFS.
    CBfs(online::OnlineBfs<'g>),
    /// Online Dijkstra.
    Dijkstra(online::OnlineDijkstra<'g>),
    /// Per-quality partitions.
    WBfs(PartitionedGraphs),
    /// Per-quality PLL indexes.
    Naive(NaiveWIndex),
    /// LCR adaptation.
    LcrAdapt(LcrAdaptIndex),
    /// WC-INDEX / WC-INDEX+.
    Wc(WcIndex),
}

impl BuiltMethod<'_> {
    fn distance(&self, s: u32, t: u32, w: u32) -> Option<u32> {
        match self {
            Self::CBfs(a) => a.distance(s, t, w),
            Self::Dijkstra(a) => a.distance(s, t, w),
            Self::WBfs(a) => a.distance(s, t, w),
            Self::Naive(a) => a.distance(s, t, w),
            Self::LcrAdapt(a) => a.distance(s, t, w),
            Self::Wc(a) => a.distance(s, t, w),
        }
    }

    fn index_bytes(&self) -> usize {
        match self {
            Self::CBfs(_) | Self::Dijkstra(_) => 0,
            Self::WBfs(a) => a.index_bytes(),
            Self::Naive(a) => a.index_bytes(),
            Self::LcrAdapt(a) => a.index_bytes(),
            Self::Wc(a) => a.stats().entry_bytes,
        }
    }

    fn entries(&self) -> usize {
        match self {
            Self::Naive(a) => a.total_entries(),
            Self::LcrAdapt(a) => a.total_entries(),
            Self::Wc(a) => a.total_entries(),
            _ => 0,
        }
    }
}

/// Builds one method on a graph, returning the built structure and its
/// indexing measurement.
pub fn build_method<'g>(
    dataset: &str,
    method: MethodKind,
    g: &'g Graph,
) -> (BuiltMethod<'g>, IndexingResult) {
    let start = Instant::now();
    let built = match method {
        MethodKind::CBfs => BuiltMethod::CBfs(online::OnlineBfs::new(g)),
        MethodKind::Dijkstra => BuiltMethod::Dijkstra(online::OnlineDijkstra::new(g)),
        MethodKind::WBfs => BuiltMethod::WBfs(PartitionedGraphs::build(g)),
        MethodKind::Naive => BuiltMethod::Naive(NaiveWIndex::build(g)),
        MethodKind::LcrAdapt => BuiltMethod::LcrAdapt(LcrAdaptIndex::build(g)),
        MethodKind::WcIndex => BuiltMethod::Wc(
            IndexBuilder::new()
                .ordering(OrderingStrategy::Degree)
                .mode(ConstructionMode::Basic)
                .build(g),
        ),
        MethodKind::WcIndexPlus => BuiltMethod::Wc(IndexBuilder::wc_index_plus().build(g)),
    };
    let build_seconds = start.elapsed().as_secs_f64();
    let result = IndexingResult {
        dataset: dataset.to_string(),
        method: method.name().to_string(),
        build_seconds,
        index_bytes: built.index_bytes(),
        entries: built.entries(),
    };
    (built, result)
}

/// Replays a workload against a built method and reports the mean query time.
pub fn run_queries(
    dataset: &str,
    method: MethodKind,
    built: &BuiltMethod<'_>,
    workload: &QueryWorkload,
) -> QueryResult {
    let start = Instant::now();
    let mut reachable = 0usize;
    for &(s, t, w) in workload.queries() {
        if built.distance(s, t, w).is_some() {
            reachable += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    QueryResult {
        dataset: dataset.to_string(),
        method: method.name().to_string(),
        avg_query_us: 1e6 * elapsed / workload.len().max(1) as f64,
        queries: workload.len(),
        reachable,
    }
}

/// One row of the flat-vs-nested comparison (Exp 7): the same WC-INDEX+
/// queried through the nested build representation and the flat serve
/// representation, plus snapshot decode times for both on-disk formats.
///
/// The speedup fields are within-run ratios (nested / flat), which is the
/// meaningful number on a shared single-core host.
#[derive(Debug, Clone)]
pub struct FlatQueryResult {
    /// Dataset name.
    pub dataset: String,
    /// Total label entries of the index both representations share.
    pub entries: usize,
    /// Queries replayed per measurement pass.
    pub queries: usize,
    /// Mean `Query⁺` time over the nested `WcIndex`, microseconds.
    pub nested_query_us: f64,
    /// Mean `Query⁺` time over the owned `FlatIndex`, microseconds.
    pub flat_query_us: f64,
    /// Mean `Query⁺` time over the borrowed `FlatView` (zero-copy snapshot),
    /// microseconds.
    pub view_query_us: f64,
    /// Query speedup of the flat form: `nested_query_us / flat_query_us`.
    pub query_speedup: f64,
    /// `WCIF` snapshot decode time (validated bulk copy), milliseconds.
    pub flat_decode_ms: f64,
    /// `WCIF` zero-copy view parse time (validation only, nothing copied),
    /// milliseconds — the load cost of the mmap-style serving path.
    pub view_parse_ms: f64,
    /// `WCIF` snapshot size in bytes.
    pub flat_snapshot_bytes: usize,
}

/// Replays `workload` `reps` times through `f`, returning the best
/// (minimum-interference) mean per-query microseconds across passes. The
/// count of reachable answers is folded into a checksum so the query loop
/// cannot be optimized away.
fn best_pass_us(
    workload: &QueryWorkload,
    reps: usize,
    mut f: impl FnMut(u32, u32, u32) -> Option<u32>,
) -> f64 {
    let mut best = f64::INFINITY;
    let mut checksum = 0usize;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for &(s, t, w) in workload.queries() {
            if f(s, t, w).is_some() {
                checksum += 1;
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(checksum);
    1e6 * best / workload.len().max(1) as f64
}

/// Builds WC-INDEX+ on `g` and measures nested-vs-flat query latency and
/// `WCIF` snapshot load time (Exp 7). Answers of the two representations are
/// cross-checked on every replayed query.
pub fn flat_query_comparison(
    dataset: &str,
    g: &Graph,
    workload: &QueryWorkload,
    reps: usize,
) -> FlatQueryResult {
    let index = IndexBuilder::wc_index_plus().build(g);
    let flat = FlatIndex::from_index(&index);
    for &(s, t, w) in workload.queries() {
        assert_eq!(
            index.distance(s, t, w),
            flat.distance(s, t, w),
            "flat representation diverged on {dataset} Q({s},{t},{w})"
        );
    }

    let nested_query_us = best_pass_us(workload, reps, |s, t, w| index.distance(s, t, w));
    let flat_query_us = best_pass_us(workload, reps, |s, t, w| flat.distance(s, t, w));

    let flat_bytes = flat.encode();
    let view = FlatView::parse(&flat_bytes).expect("own encoding parses");
    let view_query_us = best_pass_us(workload, reps, |s, t, w| view.distance(s, t, w));

    let mut flat_decode = f64::INFINITY;
    let mut view_parse = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let decoded = FlatIndex::decode(&flat_bytes).expect("own encoding decodes");
        flat_decode = flat_decode.min(start.elapsed().as_secs_f64());
        std::hint::black_box(decoded.total_entries());
        let start = Instant::now();
        let parsed = FlatView::parse(&flat_bytes).expect("own encoding parses");
        view_parse = view_parse.min(start.elapsed().as_secs_f64());
        std::hint::black_box(parsed.total_entries());
    }

    FlatQueryResult {
        dataset: dataset.to_string(),
        entries: index.total_entries(),
        queries: workload.len(),
        nested_query_us,
        flat_query_us,
        view_query_us,
        query_speedup: if flat_query_us > 0.0 { nested_query_us / flat_query_us } else { 0.0 },
        flat_decode_ms: 1e3 * flat_decode,
        view_parse_ms: 1e3 * view_parse,
        flat_snapshot_bytes: flat_bytes.len(),
    }
}

/// One row of the branch-free kernel comparison (Exp 12): the same WC-INDEX+
/// flat index, in its one rank-ordered layout, queried through the scalar
/// reference `Query⁺` merge ([`QueryImpl::Merge`]) and the default chunked
/// branch-free kernel ([`QueryImpl::Chunked`]).
///
/// The speedup fields are within-run ratios (scalar / kernel), which is the
/// meaningful number on a shared single-core host.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Dataset name.
    pub dataset: String,
    /// Total label entries shared by every representation.
    pub entries: usize,
    /// Queries replayed per point-query measurement pass.
    pub queries: usize,
    /// Mean scalar `Query⁺` merge time over the `FlatIndex`, microseconds.
    pub scalar_us: f64,
    /// Mean chunked-kernel time over the same `FlatIndex`, microseconds.
    pub chunked_us: f64,
    /// Within-run ratio `scalar_us / chunked_us` (≥ 1.0 = kernel wins).
    pub chunked_speedup: f64,
}

/// Builds WC-INDEX+ on `g` and measures the scalar merge against the chunked
/// kernel (Exp 12). The kernel is cross-checked query by query against the
/// scalar merge before anything is timed, so the experiment doubles as an
/// end-to-end parity test.
pub fn kernel_comparison(
    dataset: &str,
    g: &Graph,
    workload: &QueryWorkload,
    reps: usize,
) -> KernelResult {
    let index = IndexBuilder::wc_index_plus().build(g);
    let flat = FlatIndex::from_index(&index);
    for &(s, t, w) in workload.queries() {
        assert_eq!(
            flat.distance_with(s, t, w, QueryImpl::Chunked),
            flat.distance_with(s, t, w, QueryImpl::Merge),
            "chunked kernel diverged on {dataset} Q({s},{t},{w})"
        );
    }

    let scalar_us =
        best_pass_us(workload, reps, |s, t, w| flat.distance_with(s, t, w, QueryImpl::Merge));
    let chunked_us =
        best_pass_us(workload, reps, |s, t, w| flat.distance_with(s, t, w, QueryImpl::Chunked));

    KernelResult {
        dataset: dataset.to_string(),
        entries: index.total_entries(),
        queries: workload.len(),
        scalar_us,
        chunked_us,
        chunked_speedup: if chunked_us > 0.0 { scalar_us / chunked_us } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn every_method_agrees_on_a_small_dataset() {
        let mut d = Dataset::bench_road();
        d = Dataset { base_size: 8, ..d };
        let g = d.generate();
        let workload = QueryWorkload::uniform(&g, 200, 3);
        let builds: Vec<_> = MethodKind::query_methods()
            .iter()
            .map(|&m| (m, build_method("tiny", m, &g).0))
            .collect();
        for &(s, t, w) in workload.queries() {
            let reference = builds[0].1.distance(s, t, w);
            for (m, b) in &builds {
                assert_eq!(
                    b.distance(s, t, w),
                    reference,
                    "{} disagrees on Q({s},{t},{w})",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn indexing_results_have_sane_fields() {
        let d = Dataset::bench_road();
        let g = Dataset { base_size: 10, ..d }.generate();
        for m in MethodKind::indexing_methods() {
            let (_, r) = build_method("t", m, &g);
            assert!(r.build_seconds >= 0.0);
            assert!(r.entries > 0, "{} should produce entries", m.name());
            assert!(r.index_bytes > 0);
        }
        let (online, r) = build_method("t", MethodKind::CBfs, &g);
        assert_eq!(r.index_bytes, 0);
        let workload = QueryWorkload::uniform(&g, 50, 1);
        let q = run_queries("t", MethodKind::CBfs, &online, &workload);
        assert_eq!(q.queries, 50);
        assert!(q.avg_query_us >= 0.0);
        assert!(q.reachable <= q.queries);
    }

    #[test]
    fn flat_comparison_fields_are_sane() {
        let d = Dataset::bench_road();
        let g = Dataset { base_size: 10, ..d }.generate();
        let workload = QueryWorkload::uniform(&g, 120, 5);
        let r = flat_query_comparison("t", &g, &workload, 2);
        assert_eq!(r.queries, 120);
        assert!(r.entries > 0);
        assert!(r.nested_query_us > 0.0 && r.flat_query_us > 0.0 && r.view_query_us > 0.0);
        assert!(r.query_speedup > 0.0);
        assert!(r.flat_decode_ms >= 0.0 && r.view_parse_ms >= 0.0);
        assert!(r.flat_snapshot_bytes > 0);
    }

    #[test]
    fn kernel_comparison_fields_are_sane() {
        let d = Dataset::bench_road();
        let g = Dataset { base_size: 10, ..d }.generate();
        let workload = QueryWorkload::uniform(&g, 96, 9);
        let r = kernel_comparison("t", &g, &workload, 2);
        assert_eq!(r.queries, 96);
        assert!(r.entries > 0);
        assert!(r.scalar_us > 0.0 && r.chunked_us > 0.0);
        assert!(r.chunked_speedup > 0.0);
    }

    #[test]
    fn method_names_match_paper_legends() {
        assert_eq!(MethodKind::WcIndexPlus.name(), "WC-INDEX+");
        assert_eq!(MethodKind::query_methods().len(), 6);
        assert_eq!(MethodKind::indexing_methods().len(), 3);
    }
}
