//! The WC-INDEX: per-vertex label sets plus the vertex order they were built
//! under, with query entry points, statistics, and invariant verification.

use crate::label::{LabelEntry, LabelSet};
use crate::query;
use crate::stats::IndexStats;
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// Which `Query⁺` kernel answers a query. Algorithms 2 and 4, the paper's
/// Section IV.C ablation baselines, are not serve-path choices: they stay as
/// [`query::query_pair_scan`] and [`query::query_hub_bucket`] over label sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryImpl {
    /// Algorithm 5 (`Query⁺`): the scalar linear merge, kept as the
    /// reference the chunked kernel is checked and measured against.
    Merge,
    /// `Query⁺` with the branch-free chunked column kernels of
    /// [`crate::kernel`] in the matched-hub step. The default; answers are
    /// bit-identical to [`Self::Merge`]. Chunking is a property of the flat
    /// struct-of-arrays layout, so on the nested [`WcIndex`] this selects
    /// the plain merge.
    #[default]
    Chunked,
}

/// Anything that answers `w`-constrained distance queries from 2-hop labels:
/// the nested build representation ([`WcIndex`]) and the flat serve
/// representation ([`crate::flat::Flat`]), whether it owns its `WCIF` image
/// ([`crate::FlatIndex`]) or borrows it ([`crate::FlatView`]). Generic
/// consumers — the parallel batch evaluator, the query server — work against
/// this trait so they serve from either representation unchanged.
pub trait QueryEngine: Sync {
    /// Number of vertices the engine covers.
    fn num_vertices(&self) -> usize;

    /// Answers `Q(s, t, w)` with the selected query implementation.
    fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        imp: QueryImpl,
    ) -> Option<Distance>;

    /// Answers `Q(s, t, w)` with the default [`QueryImpl`].
    fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.distance_with(s, t, w, QueryImpl::default())
    }

    /// Returns `true` if some `w`-path of length at most `d` connects `s`
    /// and `t`; an unreachable pair never is, not even for `d == INF_DIST`.
    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool {
        self.distance(s, t, w).is_some_and(|x| x <= d)
    }

    /// Aggregate statistics (entry counts, bytes).
    fn stats(&self) -> crate::stats::IndexStats;
}

impl QueryEngine for WcIndex {
    fn num_vertices(&self) -> usize {
        WcIndex::num_vertices(self)
    }
    fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        imp: QueryImpl,
    ) -> Option<Distance> {
        WcIndex::distance_with(self, s, t, w, imp)
    }
    fn stats(&self) -> IndexStats {
        WcIndex::stats(self)
    }
}

/// A complete WC-INDEX over a graph (Definition 6 of the paper).
///
/// Construct one with [`crate::build::IndexBuilder`]. Queries never touch the
/// graph again: only the two relevant label sets are inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcIndex {
    labels: Vec<LabelSet>,
    order: VertexOrder,
}

impl WcIndex {
    /// Assembles an index from parts; used by the builders in this crate.
    pub(crate) fn from_parts(labels: Vec<LabelSet>, order: VertexOrder) -> Self {
        Self { labels, order }
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// The label set `L(v)`.
    pub fn labels(&self, v: VertexId) -> &LabelSet {
        &self.labels[v as usize]
    }

    /// The vertex order the index was built with.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Inserts a label entry into `L(v)` keeping the canonical order; used by
    /// the dynamic-update extension.
    pub(crate) fn insert_label_entry(&mut self, v: VertexId, entry: LabelEntry) {
        self.labels[v as usize].insert_sorted(entry);
    }

    /// All label sets, indexed by vertex; the construction engine reads this
    /// slice during decremental re-sweeps.
    pub(crate) fn labels_all(&self) -> &[LabelSet] {
        &self.labels
    }

    /// Drops every entry whose hub is flagged in `drop_hub` from every label
    /// set (self labels stay), returning the total number of removed entries.
    /// Used by the decremental repair.
    pub(crate) fn remove_entries_of_hubs(&mut self, drop_hub: &[bool]) -> usize {
        self.labels
            .iter_mut()
            .enumerate()
            .map(|(v, set)| set.remove_hub_entries(drop_hub, v as VertexId))
            .sum()
    }

    /// Answers `Q(s, t, w)`: the `w`-constrained distance between `s` and `t`,
    /// or `None` if no `w`-path connects them.
    ///
    /// Uses the `Query⁺` merge implementation.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        let d = query::query_merge(&self.labels[s as usize], &self.labels[t as usize], w);
        (d != INF_DIST).then_some(d)
    }

    /// Same as [`Self::distance`] under either [`QueryImpl`]: chunked column
    /// scans need the flat struct-of-arrays layout, and over nested
    /// per-vertex `Vec`s the plain merge is the chunked semantics.
    pub fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        _imp: QueryImpl,
    ) -> Option<Distance> {
        self.distance(s, t, w)
    }

    /// Returns `true` if some `w`-path connects `s` and `t` with length at
    /// most `d` (the cover predicate used during construction and by
    /// reachability-style callers).
    pub fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool {
        query::covered(&self.labels[s as usize], &self.labels[t as usize], w, d)
    }

    /// Aggregate statistics (entry counts, bytes) of the index.
    pub fn stats(&self) -> IndexStats {
        IndexStats::from_labels(&self.labels)
    }

    /// Verifies the *minimal* property of Definition in Section IV.B: no label
    /// entry is dominated by another entry with the same hub in the same
    /// label set. Returns the offending `(vertex, entry)` pairs (empty =
    /// minimal).
    pub fn dominated_entries(&self) -> Vec<(VertexId, LabelEntry)> {
        // One linear pass per hub group (the Theorem-3 check) instead of the
        // former O(g²) all-pairs scan; see `label::dominated_in_group`.
        let mut bad = Vec::new();
        for (v, set) in self.labels.iter().enumerate() {
            for (_, group) in set.hub_groups() {
                for e in crate::label::dominated_in_group(group) {
                    bad.push((v as VertexId, e));
                }
            }
        }
        bad
    }

    /// Verifies the *necessary* property on small graphs: every entry, when
    /// removed, must strictly worsen the query for its own `(vertex, hub,
    /// quality)` triple. Quadratic in the index size — intended for tests.
    pub fn unnecessary_entries(&self) -> Vec<(VertexId, LabelEntry)> {
        let mut bad = Vec::new();
        for (v, set) in self.labels.iter().enumerate() {
            let v = v as VertexId;
            for e in set.entries() {
                if e.hub == v {
                    continue; // the self label is definitionally necessary
                }
                // Without this entry, can the index still certify a w-path of
                // length <= e.dist between v and e.hub?
                let mut pruned = LabelSet::new();
                for other in set.entries() {
                    if other != e {
                        pruned.push_unordered(*other);
                    }
                }
                pruned.finalize();
                let lt = &self.labels[e.hub as usize];
                if query::covered(&pruned, lt, e.quality, e.dist) {
                    bad.push((v, *e));
                }
            }
        }
        bad
    }

    /// Total number of label entries across all vertices.
    pub fn total_entries(&self) -> usize {
        self.labels.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use crate::flat::FlatIndex;
    use wcsd_graph::generators::paper_figure3;

    /// An index's one snapshot format is `WCIF`: decode it and thaw it.
    fn decode(data: &[u8]) -> Result<WcIndex, String> {
        FlatIndex::decode(data).map(|flat| flat.to_index())
    }

    #[test]
    fn encode_decode_roundtrip() {
        let idx = IndexBuilder::default().build(&paper_figure3());
        assert_eq!(decode(&FlatIndex::from_index(&idx).encode()).unwrap(), idx);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"nope").is_err());
        // The retired nested `WCIX` format is refused like any other magic.
        assert!(decode(b"WCIX\xff\xff\xff\xff").is_err());
    }

    /// A 1-vertex `WCIF` image: `L(v0)` as `(key, [(dist, quality)])` groups
    /// in directory order, then the one order word.
    fn one_vertex_image(groups: &[(u32, &[(u32, u32)])], order: u32) -> Vec<u8> {
        let (mut hubs, mut starts, mut dists, mut qualities) = (vec![], vec![], vec![], vec![]);
        for &(hub, entries) in groups {
            hubs.push(hub);
            starts.push(dists.len() as u32);
            for &(d, q) in entries {
                dists.push(d);
                qualities.push(q);
            }
        }
        let (m, g) = (dists.len() as u32, hubs.len() as u32);
        let header = [u32::from_le_bytes(*b"WCIF"), 2, 1, m, g, 0, m, 0, g];
        let words = [&header[..], &hubs, &starts, &dists, &qualities, &[order]].concat();
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn decode_rejects_out_of_order_entries() {
        const SELF: &[(u32, u32)] = &[(0, u32::MAX)];
        assert!(decode(&one_vertex_image(&[(0, SELF)], 0)).is_ok());
        // Two groups of key 0: the directory is not strictly key-ascending.
        let err = decode(&one_vertex_image(&[(0, &[(2, 3)]), (0, SELF)], 0)).unwrap_err();
        assert!(err.contains("ascending"), "unexpected error: {err}");
        // Duplicate (hub, dist) pairs are equally non-canonical.
        assert!(decode(&one_vertex_image(&[(0, &[(2, 3), (2, 4)])], 0)).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range_vertices() {
        // An order that is not a permutation of 0..n would panic in
        // `VertexOrder::from_permutation`.
        let err = decode(&one_vertex_image(&[], 5)).unwrap_err();
        assert!(err.contains("permutation"), "unexpected error: {err}");
        // A group key outside 0..n is rejected before any query or
        // `label_entries` can index the order by it.
        let err = decode(&one_vertex_image(&[(7, &[(0, u32::MAX)])], 0)).unwrap_err();
        assert!(err.contains("key 7"), "unexpected error: {err}");
    }

    #[test]
    fn query_impl_default_is_chunked() {
        assert_eq!(QueryImpl::default(), QueryImpl::Chunked);
    }
}
