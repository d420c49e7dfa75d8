//! Parallel batch-**query** evaluation for offline workloads: the tests, the
//! soak and the bench tools answer a batch across scoped threads
//! ([`std::thread::scope`]) over any [`QueryEngine`]. The query server does
//! not call it; its resident worker pool is its only level of parallelism.

use crate::index::{QueryEngine, QueryImpl};
use wcsd_graph::{Distance, Quality, VertexId};

/// Fewest queries each spawned thread must get before a batch is split: a
/// spawn and join costs about 35 µs, which 128 merges of 0.6 µs repay.
const MIN_QUERIES_PER_THREAD: usize = 128;

/// Answers a batch of `(s, t, w)` queries using up to `num_threads` threads.
///
/// Results are returned in the same order as the input queries. Each thread
/// gets at least 128 queries, so a batch shorter than 256 is answered inline
/// without spawning.
///
/// ```
/// use wcsd_core::{parallel, FlatIndex, IndexBuilder};
/// use wcsd_graph::generators::paper_figure3;
///
/// let index = IndexBuilder::wc_index_plus().build(&paper_figure3());
/// let queries = vec![(2, 5, 2), (2, 5, 3), (0, 4, 1), (2, 5, 99)];
/// let answers = parallel::par_distances(&index, &queries, 2);
/// assert_eq!(answers, vec![Some(2), Some(3), Some(2), None]);
/// let flat = FlatIndex::from_index(&index);
/// assert_eq!(parallel::par_distances(&flat, &queries, 2), answers);
/// ```
pub fn par_distances<E: QueryEngine>(
    index: &E,
    queries: &[(VertexId, VertexId, Quality)],
    num_threads: usize,
) -> Vec<Option<Distance>> {
    par_distances_with(index, queries, num_threads, QueryImpl::default())
}

/// Same as [`par_distances`] but with an explicit query implementation.
pub fn par_distances_with<E: QueryEngine>(
    index: &E,
    queries: &[(VertexId, VertexId, Quality)],
    num_threads: usize,
    imp: QueryImpl,
) -> Vec<Option<Distance>> {
    let answer = |&(s, t, w): &(VertexId, VertexId, Quality)| index.distance_with(s, t, w, imp);
    let threads = num_threads.min(queries.len() / MIN_QUERIES_PER_THREAD);
    if threads <= 1 {
        return queries.iter().map(answer).collect();
    }
    // Each thread fills its own disjoint chunk of the one output buffer, so
    // answers land in input order with no shared state between threads.
    let chunk_size = queries.len().div_ceil(threads);
    let mut out = vec![None; queries.len()];
    std::thread::scope(|scope| {
        for (slots, chunk) in out.chunks_mut(chunk_size).zip(queries.chunks(chunk_size)) {
            scope.spawn(move || {
                for (slot, query) in slots.iter_mut().zip(chunk) {
                    *slot = answer(query);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build::IndexBuilder, FlatIndex, WcIndex};
    use wcsd_graph::generators::{barabasi_albert, paper_figure3, QualityAssigner};

    /// Every engine, implementation and thread count answers in input order.
    fn assert_matches_sequential(index: &WcIndex, queries: &[(u32, u32, u32)]) {
        let flat = FlatIndex::from_index(index);
        let want: Vec<_> = queries.iter().map(|&(s, t, w)| index.distance(s, t, w)).collect();
        for threads in [1, 2, 3, 4, 7] {
            for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                let context = format!("{} queries, {threads} threads, {imp:?}", queries.len());
                assert_eq!(par_distances_with(index, queries, threads, imp), want, "{context}");
                assert_eq!(par_distances_with(&flat, queries, threads, imp), want, "{context}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Lengths on each side of the two-thread crossover, where the split
        // starts and where the last chunk is one query short.
        let g = barabasi_albert(200, 3, &QualityAssigner::uniform(5), 17);
        let index = IndexBuilder::wc_index_plus().build(&g);
        let crossover = 2 * MIN_QUERIES_PER_THREAD;
        for len in [crossover - 1, crossover, crossover + 1, 3 * crossover + 2] {
            let queries: Vec<_> =
                (0..len as u32).map(|i| (i % 200, (i * 7 + 3) % 200, i % 5 + 1)).collect();
            assert_matches_sequential(&index, &queries);
        }
    }

    #[test]
    fn equal_source_runs_match_per_query_answers() {
        // Runs of 100 equal sources plus a straggler: at 2 and 3 threads the
        // chunk boundaries fall inside runs.
        let g = barabasi_albert(120, 3, &QualityAssigner::uniform(5), 23);
        let index = IndexBuilder::wc_index_plus().build(&g);
        let mut queries: Vec<_> = [7u32, 3, 99, 3]
            .into_iter()
            .flat_map(|s| (0..100u32).map(move |i| (s, (s + 13 * i + 1) % 120, i % 5 + 1)))
            .collect();
        queries.push((11, 12, 1));
        assert_matches_sequential(&index, &queries);
    }

    #[test]
    fn empty_and_tiny_batches() {
        let index = IndexBuilder::default().build(&paper_figure3());
        assert!(par_distances(&index, &[], 4).is_empty());
        assert_eq!(par_distances(&index, &[(2, 5, 2)], 8), vec![Some(2)]);
    }

    #[test]
    fn all_query_impls_supported() {
        let index = IndexBuilder::default().build(&paper_figure3());
        let queries = [(2, 5, 2), (0, 4, 3), (1, 3, 4)];
        for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
            assert_eq!(par_distances_with(&index, &queries, 2, imp), [Some(2), Some(4), Some(2)]);
        }
    }
}
