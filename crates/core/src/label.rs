//! 2-hop label entries and per-vertex label sets.
//!
//! An index entry `(v, dist, w̄)` in `L(u)` states that a minimal `w̄`-path of
//! length `dist` exists between `u` and the hub `v` (Definition 6 of the
//! paper). Within one vertex's label set the entries of a single hub are kept
//! sorted by ascending distance; by Theorem 3 the qualities are then ascending
//! as well, which is what makes the `Query⁺` binary search correct.
//!
//! Every label set names its hubs by **rank** in the vertex order it was
//! built under, as pruned landmark labeling does, and keeps one order from
//! build to freeze: ascending `(hub rank, dist)`. The builders produce that
//! order as they go — `L(u)` grows one root at a time, in rank order, and
//! gets its own self label at `u`'s turn, after every hub ranked before `u` —
//! so no set is ever re-sorted, the self label is always the last entry, and
//! the flat form's rank-keyed group directory is a copy of it. Hub ids appear
//! only at the API edge, through the index's `VertexOrder`.

use wcsd_graph::{Distance, Quality};

/// One 2-hop index entry `(hub, dist, quality)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelEntry {
    /// The hub vertex `v`, as its rank in the index's vertex order
    /// (`order().vertex_at(hub)` is the vertex).
    pub hub: u32,
    /// The `quality`-constrained distance between the labelled vertex and `hub`.
    pub dist: Distance,
    /// The quality threshold `w̄` this entry certifies.
    pub quality: Quality,
}

impl LabelEntry {
    /// Creates a new label entry.
    #[inline]
    pub fn new(hub: u32, dist: Distance, quality: Quality) -> Self {
        Self { hub, dist, quality }
    }

    /// The self label `(v, 0, ∞)` of the vertex ranked `rank`: the last
    /// entry of its own label set.
    #[inline]
    pub(crate) fn self_label(rank: u32) -> Self {
        Self::new(rank, 0, wcsd_graph::INF_QUALITY)
    }

    /// Returns `true` if `self` dominates `other` in the sense of
    /// Definition 4: same hub, distance no larger and quality no smaller.
    /// Identical entries dominate each other, so an entry dominates itself.
    #[inline]
    pub fn dominates(&self, other: &LabelEntry) -> bool {
        self.hub == other.hub && self.dist <= other.dist && self.quality >= other.quality
    }
}

/// The label set `L(u)` of a single vertex.
///
/// Entries are stored strictly ascending by `(hub rank, dist)`. All entries
/// of one hub form a contiguous *group*; within a group both `dist` and
/// `quality` are strictly increasing (Theorem 3), so the group is a Pareto
/// frontier of (distance, quality) trade-offs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelSet {
    entries: Vec<LabelEntry>,
}

impl LabelSet {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Number of entries `|L(u)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the label set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, strictly ascending by `(hub rank, dist)`.
    #[inline]
    pub fn entries(&self) -> &[LabelEntry] {
        &self.entries
    }

    /// Appends an entry that sorts after every entry already in the set;
    /// the builders commit one root at a time in rank order, so their
    /// appends always do. Debug builds assert the order.
    #[inline]
    pub(crate) fn push(&mut self, entry: LabelEntry) {
        debug_assert!(
            self.entries.last().is_none_or(|e| (e.hub, e.dist) < (entry.hub, entry.dist)),
            "push requires strictly ascending (hub, dist) entries"
        );
        self.entries.push(entry);
    }

    /// Ends construction: drops the growth slack of the appends.
    pub(crate) fn finalize(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Wraps entries that are already in canonical `(hub, dist)` order, as
    /// the flat-index thaw yields them. Debug builds assert the order.
    pub(crate) fn from_sorted(entries: Vec<LabelEntry>) -> Self {
        debug_assert!(
            entries.windows(2).all(|p| (p[0].hub, p[0].dist) < (p[1].hub, p[1].dist)),
            "from_sorted requires strictly ascending (hub, dist) entries"
        );
        Self { entries }
    }

    /// The contiguous slice of entries whose hub rank is `hub` (`L[u][hub]`),
    /// or an empty slice if the hub does not occur.
    pub fn hub_group(&self, hub: u32) -> &[LabelEntry] {
        let start = self.entries.partition_point(|e| e.hub < hub);
        let end = self.entries.partition_point(|e| e.hub <= hub);
        &self.entries[start..end]
    }

    /// Number of hub groups: one per hub change, plus the first group of a
    /// nonempty set.
    pub(crate) fn num_groups(&self) -> usize {
        let hub_changes = self.entries.windows(2).filter(|p| p[0].hub != p[1].hub).count();
        usize::from(!self.entries.is_empty()) + hub_changes
    }

    /// Iterates over `(hub rank, group)` pairs in ascending rank order.
    pub fn hub_groups(&self) -> HubGroups<'_> {
        HubGroups { entries: &self.entries, pos: 0 }
    }

    /// Given a hub group (sorted by ascending dist/quality), returns the
    /// minimal distance among entries with `quality >= w`, using the binary
    /// search justified by Theorem 3.
    #[inline]
    pub fn min_dist_in_group(group: &[LabelEntry], w: Quality) -> Option<Distance> {
        let idx = group.partition_point(|e| e.quality < w);
        group.get(idx).map(|e| e.dist)
    }

    /// Returns `true` if some entry in the set is dominated by another entry
    /// of the same hub — i.e. the set violates the minimality invariant.
    ///
    /// O(n) by Theorem 3: within a `(hub, dist)`-sorted group, no entry is
    /// dominated if and only if every consecutive pair strictly increases in
    /// **both** distance and quality. (If a pair does not — equal distances,
    /// or a quality that fails to rise — the earlier entry has distance no
    /// larger and quality no smaller, so it dominates the later one.)
    pub fn has_dominated_entry(&self) -> bool {
        self.hub_groups().any(|(_, group)| !group_is_pareto(group))
    }

    /// Total heap memory consumed by the entries, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<LabelEntry>()
    }
}

/// Returns `true` if a `(hub, dist)`-sorted hub group is a strict Pareto
/// frontier: every consecutive pair strictly increases in both distance and
/// quality (the Theorem-3 invariant).
pub(crate) fn group_is_pareto(group: &[LabelEntry]) -> bool {
    group.windows(2).all(|p| p[0].dist < p[1].dist && p[0].quality < p[1].quality)
}

/// Entries of a `(hub, dist)`-sorted hub group that are dominated by another
/// entry of the same group, found in one linear pass: an entry is dominated
/// iff an entry at strictly smaller distance has quality at least as high
/// (tracked as a prefix maximum), or another entry at the *same* distance has
/// quality at least as high.
pub(crate) fn dominated_in_group(group: &[LabelEntry]) -> Vec<LabelEntry> {
    let mut bad = Vec::new();
    // Max quality among entries with strictly smaller distance than the
    // current equal-distance run.
    let mut prefix_max: Option<Quality> = None;
    let mut i = 0;
    while i < group.len() {
        let mut j = i;
        while j < group.len() && group[j].dist == group[i].dist {
            j += 1;
        }
        let run = &group[i..j];
        let run_max = run.iter().map(|e| e.quality).max().expect("runs are nonempty");
        let max_count = run.iter().filter(|e| e.quality == run_max).count();
        for e in run {
            let by_earlier = prefix_max.is_some_and(|q| q >= e.quality);
            let by_run_mate = e.quality < run_max || max_count > 1;
            if by_earlier || by_run_mate {
                bad.push(*e);
            }
        }
        prefix_max = Some(prefix_max.map_or(run_max, |q| q.max(run_max)));
        i = j;
    }
    bad
}

/// Iterator over contiguous hub groups of a [`LabelSet`].
pub struct HubGroups<'a> {
    entries: &'a [LabelEntry],
    pos: usize,
}

impl<'a> Iterator for HubGroups<'a> {
    type Item = (u32, &'a [LabelEntry]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.entries.len() {
            return None;
        }
        let hub = self.entries[self.pos].hub;
        let start = self.pos;
        while self.pos < self.entries.len() && self.entries[self.pos].hub == hub {
            self.pos += 1;
        }
        Some((hub, &self.entries[start..self.pos]))
    }
}

/// FNV-1a, 64-bit, over little-endian `u32` words: a hash fixed by its
/// definition, so the builders' golden label tests can pin a constant.
#[cfg(test)]
pub(crate) fn fnv1a_64(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcsd_graph::INF_QUALITY;

    fn sample_set() -> LabelSet {
        // Mirrors L(v5) from Table II of the paper (natural order: ranks are
        // the hub ids).
        let mut s = LabelSet::new();
        for (hub, d, w) in [
            (0, 2, 1),
            (0, 3, 2),
            (0, 5, 3),
            (1, 2, 2),
            (1, 4, 3),
            (2, 2, 2),
            (2, 3, 3),
            (3, 1, 2),
            (3, 2, 3),
            (4, 1, 3),
            (5, 0, INF_QUALITY),
        ] {
            s.push(LabelEntry::new(hub, d, w));
        }
        s.finalize();
        s
    }

    #[test]
    fn entries_are_sorted_after_finalize() {
        let s = sample_set();
        let e = s.entries();
        assert!(e.windows(2).all(|w| (w[0].hub, w[0].dist) <= (w[1].hub, w[1].dist)));
        assert_eq!(s.len(), 11);
        assert!(!s.is_empty());
    }

    #[test]
    fn hub_group_lookup() {
        let s = sample_set();
        assert_eq!(s.hub_group(0).len(), 3);
        assert_eq!(s.hub_group(4).len(), 1);
        assert_eq!(s.hub_group(9).len(), 0);
        // Within a group both dist and quality ascend (Theorem 3 invariant).
        let g = s.hub_group(0);
        assert!(g.windows(2).all(|w| w[0].dist < w[1].dist && w[0].quality < w[1].quality));
    }

    #[test]
    fn hub_groups_iterates_all_groups() {
        let s = sample_set();
        let hubs: Vec<_> = s.hub_groups().map(|(h, _)| h).collect();
        assert_eq!(hubs, vec![0, 1, 2, 3, 4, 5]);
        let total: usize = s.hub_groups().map(|(_, g)| g.len()).sum();
        assert_eq!(total, s.len());
        assert_eq!(s.num_groups(), hubs.len());
        assert_eq!(LabelSet::new().num_groups(), 0);
    }

    #[test]
    fn min_dist_in_group_binary_search() {
        let s = sample_set();
        let g = s.hub_group(0); // (2,1), (3,2), (5,3)
        assert_eq!(LabelSet::min_dist_in_group(g, 0), Some(2));
        assert_eq!(LabelSet::min_dist_in_group(g, 1), Some(2));
        assert_eq!(LabelSet::min_dist_in_group(g, 2), Some(3));
        assert_eq!(LabelSet::min_dist_in_group(g, 3), Some(5));
        assert_eq!(LabelSet::min_dist_in_group(g, 4), None);
    }

    #[test]
    fn dominance_relation() {
        let a = LabelEntry::new(3, 2, 5);
        let b = LabelEntry::new(3, 3, 4);
        let c = LabelEntry::new(4, 2, 5);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "different hubs never dominate");
        assert!(a.dominates(&a), "an entry trivially dominates itself");
    }

    #[test]
    fn detects_dominated_entries() {
        let clean = sample_set();
        assert!(!clean.has_dominated_entry());
        let mut entries = sample_set().entries().to_vec();
        entries.insert(2, LabelEntry::new(0, 4, 1)); // dominated by (0, 2, 1)
        assert!(LabelSet::from_sorted(entries).has_dominated_entry());
    }

    #[test]
    fn self_label_shape() {
        assert_eq!(LabelEntry::self_label(7), LabelEntry::new(7, 0, INF_QUALITY));
    }

    #[test]
    fn memory_accounting() {
        assert!(sample_set().memory_bytes() >= 11 * std::mem::size_of::<LabelEntry>());
        assert_eq!(std::mem::size_of::<LabelEntry>(), 12);
    }
}
