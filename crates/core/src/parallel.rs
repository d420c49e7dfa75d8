//! Parallel batch-**query** evaluation.
//!
//! The paper's query workloads are 10,000 independent point queries; because
//! a built index is immutable, they parallelise trivially. This module
//! provides a scoped-thread fan-out ([`std::thread::scope`]) that answers a
//! batch across a fixed number of worker threads, which the benchmark harness,
//! the query server and the examples use for large workloads. It is generic
//! over the [`QueryEngine`], so the nested [`crate::WcIndex`], the flat
//! [`crate::FlatIndex`] and the borrowed [`crate::FlatView`] all work.
//!
//! This is the *read side* of the crate's parallelism story: queries share one
//! finished index and need no coordination at all. The *write side* —
//! constructing the index itself on multiple threads while keeping the result
//! byte-identical to a sequential build — lives in [`crate::parallel_build`].

use crate::index::{QueryEngine, QueryImpl};
use wcsd_graph::{Distance, Quality, VertexId};

/// Answers a batch of `(s, t, w)` queries using `num_threads` worker threads.
///
/// Generic over the [`QueryEngine`] — the nested [`crate::WcIndex`], the
/// flat [`crate::FlatIndex`], and the borrowed [`crate::FlatView`] all work.
/// Results are returned in the same order as the input queries. With
/// `num_threads <= 1` the batch is answered inline without spawning.
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
    par_distances_with(index, queries, num_threads, QueryImpl::Merge)
}

/// Same as [`par_distances`] but with an explicit query implementation.
pub fn par_distances_with<E: QueryEngine>(
    index: &E,
    queries: &[(VertexId, VertexId, Quality)],
    num_threads: usize,
    imp: QueryImpl,
) -> Vec<Option<Distance>> {
    let answer = |&(s, t, w): &(VertexId, VertexId, Quality)| index.distance_with(s, t, w, imp);
    if num_threads <= 1 || queries.len() < 2 * num_threads {
        return queries.iter().map(answer).collect();
    }
    // Each worker fills its own disjoint chunk of the one output buffer, so
    // answers land in input order with no shared state between workers.
    let chunk_size = queries.len().div_ceil(num_threads);
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
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::{barabasi_albert, paper_figure3, QualityAssigner};

    #[test]
    fn parallel_matches_sequential() {
        let g = barabasi_albert(200, 3, &QualityAssigner::uniform(5), 17);
        let index = IndexBuilder::wc_index_plus().build(&g);
        let queries: Vec<(u32, u32, u32)> =
            (0..500).map(|i| (i % 200, (i * 7 + 3) % 200, i % 5 + 1)).collect();
        let sequential: Vec<_> = queries.iter().map(|&(s, t, w)| index.distance(s, t, w)).collect();
        for threads in [1, 2, 4, 7] {
            assert_eq!(par_distances(&index, &queries, threads), sequential, "{threads} threads");
        }
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
        let queries = vec![(2u32, 5u32, 2u32), (0, 4, 3), (1, 3, 4)];
        let expected = vec![Some(2), Some(4), Some(2)];
        for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
            assert_eq!(par_distances_with(&index, &queries, 2, imp), expected);
        }
    }

    #[test]
    fn equal_source_runs_match_per_query_answers() {
        // Runs of equal sources, as the router's row fetches send them, plus
        // a straggler: answers and ordering must not change across the
        // worker chunks, on the nested and the flat engine alike.
        let g = barabasi_albert(120, 3, &QualityAssigner::uniform(5), 23);
        let index = IndexBuilder::wc_index_plus().build(&g);
        let flat = crate::FlatIndex::from_index(&index);
        let mut queries: Vec<(u32, u32, u32)> = Vec::new();
        for s in [7u32, 3, 99, 3] {
            for i in 0..9u32 {
                queries.push((s, (s + 13 * i + 1) % 120, i % 5 + 1));
            }
        }
        queries.push((11, 12, 1)); // singleton run at the tail
        let expected: Vec<_> = queries.iter().map(|&(s, t, w)| index.distance(s, t, w)).collect();
        for threads in [1, 3] {
            for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                assert_eq!(par_distances_with(&index, &queries, threads, imp), expected);
                assert_eq!(par_distances_with(&flat, &queries, threads, imp), expected);
            }
        }
    }
}
