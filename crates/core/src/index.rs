//! The WC-INDEX: per-vertex label sets plus the vertex order they were built
//! under, with query entry points, statistics, and invariant verification.

use crate::label::{LabelEntry, LabelSet};
use crate::query;
use crate::stats::IndexStats;
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// Which query implementation to use (Section IV.C ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryImpl {
    /// Algorithm 2: scan all entry pairs.
    PairScan,
    /// Algorithm 4: hub-bucket lookup with binary search.
    HubBucket,
    /// Algorithm 5 (`Query⁺`): linear merge. The default.
    #[default]
    Merge,
    /// `Query⁺` with the branch-free chunked column kernels of
    /// [`crate::kernel`] in the matched-hub step. Answers are bit-identical
    /// to [`Self::Merge`]. Chunking is a property of the flat struct-of-arrays
    /// layout, so on the nested [`WcIndex`] this selects the plain merge.
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

    /// Answers `Q(s, t, w)` with the default `Query⁺` merge.
    fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.distance_with(s, t, w, QueryImpl::Merge)
    }

    /// Answers a run of `(t, w)` targets that share the source `s`, in
    /// target order. The default is a per-query loop; the flat engines
    /// override it with the batch kernel of [`crate::kernel`], which walks
    /// `s`'s hub-group directory once for the whole run. Answers are
    /// bit-identical to per-query [`Self::distance`] either way.
    fn distances_from(
        &self,
        s: VertexId,
        targets: &[(VertexId, Quality)],
    ) -> Vec<Option<Distance>> {
        targets.iter().map(|&(t, w)| self.distance(s, t, w)).collect()
    }

    /// Returns `true` if some `w`-path of length at most `d` connects `s`
    /// and `t`.
    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool;

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
    fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool {
        WcIndex::within(self, s, t, w, d)
    }
    fn stats(&self) -> IndexStats {
        WcIndex::stats(self)
    }
}

/// A complete WC-INDEX over a graph (Definition 6 of the paper).
///
/// Construct one with [`crate::build::IndexBuilder`]. Queries never touch the
/// graph again: only the two relevant label sets are inspected.
#[derive(Debug, Clone)]
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
        self.distance_with(s, t, w, QueryImpl::Merge)
    }

    /// Same as [`Self::distance`] but selecting the query implementation.
    pub fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        imp: QueryImpl,
    ) -> Option<Distance> {
        let (ls, lt) = (&self.labels[s as usize], &self.labels[t as usize]);
        let d = match imp {
            QueryImpl::PairScan => query::query_pair_scan(ls, lt, w),
            QueryImpl::HubBucket => query::query_hub_bucket(ls, lt, w),
            // Chunked column scans need the flat struct-of-arrays layout;
            // over nested per-vertex `Vec`s the plain merge IS the chunked
            // impl's semantics, so the ablation stays answer-compatible.
            QueryImpl::Merge | QueryImpl::Chunked => query::query_merge(ls, lt, w),
        };
        (d != INF_DIST).then_some(d)
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

    /// Serialized snapshot of the index as a compact byte buffer (12 bytes per
    /// entry plus a small header), mirroring the graph snapshot format.
    pub fn encode(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(16 + 12 * self.total_entries());
        buf.put_slice(b"WCIX");
        buf.put_u32_le(self.labels.len() as u32);
        for set in &self.labels {
            buf.put_u32_le(set.len() as u32);
            for e in set.entries() {
                buf.put_u32_le(e.hub);
                buf.put_u32_le(e.dist);
                buf.put_u32_le(e.quality);
            }
        }
        buf.put_slice(&serde_encode_order(&self.order));
        buf.freeze()
    }

    /// Decodes an index produced by [`Self::encode`].
    ///
    /// [`Self::encode`] writes every label set in its canonical `(hub, dist)`
    /// order, so decoding validates strict sortedness in O(n) and rejects
    /// out-of-order input instead of re-sorting each set (the former
    /// `finalize()` cost an O(k log k) sort per vertex).
    pub fn decode(data: &[u8]) -> Result<Self, String> {
        use bytes::Buf;
        let mut buf = data;
        if buf.remaining() < 8 {
            return Err("buffer too short".to_string());
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"WCIX" {
            return Err(format!("bad magic {magic:?}"));
        }
        let n = buf.get_u32_le() as usize;
        // Do not pre-allocate from the untrusted header; a corrupt count would
        // otherwise trigger a huge allocation before any bounds check fails.
        let mut labels = Vec::new();
        for v in 0..n {
            if buf.remaining() < 4 {
                return Err("truncated label header".to_string());
            }
            let k = buf.get_u32_le() as usize;
            if buf.remaining() < 12 * k {
                return Err("truncated label entries".to_string());
            }
            let mut entries = Vec::with_capacity(k);
            for _ in 0..k {
                let hub = buf.get_u32_le();
                let dist = buf.get_u32_le();
                let quality = buf.get_u32_le();
                let entry = LabelEntry::new(hub, dist, quality);
                if let Some(prev) = entries.last() {
                    let prev: &LabelEntry = prev;
                    if (prev.hub, prev.dist) >= (entry.hub, entry.dist) {
                        return Err(format!(
                            "label entries of vertex {v} are not in canonical (hub, dist) order"
                        ));
                    }
                }
                entries.push(entry);
            }
            // Hubs ascend, so the last entry carries the largest one.
            if let Some(hub) = entries.last().map(|e| e.hub).filter(|&hub| hub as usize >= n) {
                return Err(format!("label entry of vertex {v} names hub {hub} outside 0..{n}"));
            }
            labels.push(LabelSet::from_sorted(entries));
        }
        let order = serde_decode_order(buf, n)?;
        Ok(Self { labels, order })
    }
}

fn serde_encode_order(order: &VertexOrder) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * order.len());
    for v in order.iter() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn serde_decode_order(buf: &[u8], n: usize) -> Result<VertexOrder, String> {
    if buf.len() < 4 * n {
        return Err("truncated vertex order".to_string());
    }
    let mut order = Vec::with_capacity(n);
    for i in 0..n {
        let mut b = [0u8; 4];
        b.copy_from_slice(&buf[4 * i..4 * i + 4]);
        order.push(u32::from_le_bytes(b));
    }
    crate::flat::validate_order_words(order.iter().copied(), n)?;
    Ok(VertexOrder::from_permutation(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::paper_figure3;

    #[test]
    fn encode_decode_roundtrip() {
        let g = paper_figure3();
        let idx = IndexBuilder::default().build(&g);
        let bytes = idx.encode();
        let idx2 = WcIndex::decode(&bytes).unwrap();
        assert_eq!(idx.total_entries(), idx2.total_entries());
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    assert_eq!(idx.distance(s, t, w), idx2.distance(s, t, w));
                }
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WcIndex::decode(b"nope").is_err());
        assert!(WcIndex::decode(b"WCIX\xff\xff\xff\xff").is_err());
    }

    #[test]
    fn decode_rejects_out_of_order_entries() {
        // A 1-vertex index whose two entries are swapped out of (hub, dist)
        // order: hub 1 before hub 0.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"WCIX");
        buf.extend_from_slice(&1u32.to_le_bytes()); // n = 1
        buf.extend_from_slice(&2u32.to_le_bytes()); // |L(v0)| = 2
        for word in [1u32, 2, 3, 0, 0, u32::MAX] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&0u32.to_le_bytes()); // order = [0]
        let err = WcIndex::decode(&buf).unwrap_err();
        assert!(err.contains("canonical"), "unexpected error: {err}");
        // Duplicate (hub, dist) pairs are equally non-canonical.
        let mut dup = Vec::new();
        dup.extend_from_slice(b"WCIX");
        dup.extend_from_slice(&1u32.to_le_bytes());
        dup.extend_from_slice(&2u32.to_le_bytes());
        for word in [0u32, 2, 3, 0, 2, 4] {
            dup.extend_from_slice(&word.to_le_bytes());
        }
        dup.extend_from_slice(&0u32.to_le_bytes());
        assert!(WcIndex::decode(&dup).is_err());
    }

    /// A 1-vertex `WCIX` image: `L(v0)` as `(hub, dist, quality)` word
    /// triples, then the one order word.
    fn one_vertex_image(entries: &[u32], order: u32) -> Vec<u8> {
        let mut buf = b"WCIX".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32 / 3).to_le_bytes());
        for word in entries.iter().chain([&order]) {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    #[test]
    fn decode_rejects_out_of_range_vertices() {
        // An order that is not a permutation of 0..n used to panic in
        // `VertexOrder::from_permutation`.
        let err = WcIndex::decode(&one_vertex_image(&[], 5)).unwrap_err();
        assert!(err.contains("permutation"), "unexpected error: {err}");
        // A hub id outside 0..n is rejected before any query or re-layout
        // can index by it.
        let err = WcIndex::decode(&one_vertex_image(&[7, 0, u32::MAX], 0)).unwrap_err();
        assert!(err.contains("hub 7"), "unexpected error: {err}");
        assert!(WcIndex::decode(&one_vertex_image(&[0, 0, u32::MAX], 0)).is_ok());
    }

    #[test]
    fn query_impl_default_is_merge() {
        assert_eq!(QueryImpl::default(), QueryImpl::Merge);
    }
}
