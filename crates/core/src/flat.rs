//! Read-optimized flat representation of a WC-INDEX: the index *is* its
//! `WCIF` snapshot image, one run of little-endian `u32` words that queries
//! read in place.
//!
//! [`crate::index::WcIndex`] is the *build* representation: each vertex owns a
//! `Vec<LabelEntry>`, which is exactly what the construction sweeps need
//! (per-vertex growth, in-place finalization) but pessimal for serving — every
//! query chases two pointers into scattered allocations, and the
//! array-of-structs entry layout drags `hub` bytes through the cache while the
//! binary search only wants `quality`. [`Flat`] is the *serve*
//! representation. After a five-word header (magic, version, vertex / entry /
//! group counts) its image holds:
//!
//! * a CSR `entry_offsets` section (`entry_offsets[v]..entry_offsets[v + 1]`
//!   is `L(v)`);
//! * a per-vertex *hub-group directory* (`group_hubs`, `group_starts` under a
//!   CSR `group_offsets`): one record per distinct hub of each vertex, so
//!   `Query⁺` merges the two directories directly — comparing one `u32` per
//!   distinct hub instead of walking entry-by-entry (`skip_group`) — and skips
//!   ahead with `partition_point`-style binary searches on the miss path.
//!   The directory makes a per-entry hub column redundant, so the arena does
//!   not store one: entries cost 8 bytes instead of the nested form's 12;
//! * a struct-of-arrays entry arena (`dists`, `qualities`), concatenated over
//!   all vertices in vertex order;
//! * the vertex order the index was built with.
//!
//! One struct serves over either word backing: [`FlatIndex`] owns its image
//! (`Vec<[u8; 4]>`) and [`FlatView`] borrows one (`&[[u8; 4]]`, e.g. a read
//! buffer or a mapped file). There is one validator, one set of query
//! algorithms — written against the borrowed form, through which the owned
//! one queries too — and one [`QueryEngine`] impl. `WCIF` is the index's
//! only snapshot format, and because the words are the snapshot,
//! [`Flat::encode`] is a copy, [`FlatView::parse`] is the validation pass in
//! place, [`FlatIndex::decode`] is that pass plus one copy, and
//! [`Flat::from_words`] validates a buffer a file was read straight into: no
//! per-vertex allocation and no re-sort on any of them.
//!
//! Conversion is lossless in both directions ([`FlatIndex::from_index`] /
//! [`Flat::to_index`]) and answers are bit-identical under both query
//! implementations (enforced by `tests/flat.rs`).

use crate::index::{QueryEngine, QueryImpl, WcIndex};
use crate::label::{LabelEntry, LabelSet};
use crate::stats::IndexStats;
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// Snapshot magic of the flat format ("WC Index, Flat").
pub const WCIF_MAGIC: &[u8; 4] = b"WCIF";

/// `WCIF` format version for the canonical hub-ascending group layout.
pub const WCIF_VERSION: u32 = 1;

/// `WCIF` format version for the hot-group layout: byte-for-byte the same
/// sections, but each vertex's hub groups are keyed and ordered by the hub's
/// *rank* instead of its id (see [`Flat::to_hot`]). The version word is the
/// only difference, so readers of either layout share every code path.
pub const WCIF_VERSION_HOT: u32 = 2;

/// Words in the fixed `WCIF` header: magic, version, vertex / entry / group
/// counts. The `entry_offsets` section starts right after it.
const HEADER_WORDS: usize = 5;

/// Where each section of a `WCIF` image with `n` vertices, `m` entries and
/// `g` hub groups starts, in words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    n: usize,
    m: usize,
    g: usize,
    /// `true` when `group_hubs` holds hub *ranks* (the hot-group layout, see
    /// [`Flat::to_hot`]); `false` for the canonical hub-id layout.
    hot: bool,
    group_offsets: usize,
    group_hubs: usize,
    group_starts: usize,
    dists: usize,
    qualities: usize,
    order: usize,
}

impl Layout {
    /// The section positions, or `None` when the image size overflows.
    fn new(n: usize, m: usize, g: usize, hot: bool) -> Option<Self> {
        let group_offsets = HEADER_WORDS.checked_add(n)?.checked_add(1)?;
        let group_hubs = group_offsets.checked_add(n)?.checked_add(1)?;
        let group_starts = group_hubs.checked_add(g)?;
        let dists = group_starts.checked_add(g)?;
        let qualities = dists.checked_add(m)?;
        let order = qualities.checked_add(m)?;
        order.checked_add(n)?;
        Some(Self {
            n,
            m,
            g,
            hot,
            group_offsets,
            group_hubs,
            group_starts,
            dists,
            qualities,
            order,
        })
    }

    /// Length of the whole image in words.
    fn words(&self) -> usize {
        self.order + self.n
    }

    /// The header's version word.
    fn version(&self) -> u32 {
        if self.hot {
            WCIF_VERSION_HOT
        } else {
            WCIF_VERSION
        }
    }
}

/// A frozen, read-optimized WC-INDEX stored as its own `WCIF` image.
///
/// `W` is the word backing: owned for [`FlatIndex`], borrowed for
/// [`FlatView`]. Build one from a [`WcIndex`] with [`FlatIndex::from_index`],
/// or validate an encoded image with [`FlatIndex::decode`],
/// [`FlatView::parse`] or [`Flat::from_words`]. The query surface mirrors
/// [`WcIndex`] and returns bit-identical answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flat<W> {
    /// The `WCIF` image, header included.
    words: W,
    at: Layout,
}

/// The owned flat index: the served form, and its own snapshot image.
pub type FlatIndex = Flat<Vec<[u8; 4]>>;

/// A flat index borrowed from an encoded `WCIF` buffer — a read buffer or a
/// memory-mapped file — that answers queries without copying it.
pub type FlatView<'a> = Flat<&'a [[u8; 4]]>;

impl FlatIndex {
    /// Freezes a built [`WcIndex`] by writing its `WCIF` image.
    ///
    /// Lossless: [`Flat::to_index`] reconstructs an equal [`WcIndex`], and all
    /// queries return identical answers.
    pub fn from_index(index: &WcIndex) -> Self {
        let n = index.num_vertices();
        let m = index.total_entries();
        assert!(m <= u32::MAX as usize, "flat index arena limited to u32::MAX entries");
        let g = (0..n).map(|v| index.labels(v as VertexId).hub_groups().count()).sum();
        let at = Layout::new(n, m, g, false).expect("an in-memory index has a representable image");
        let mut flat = Self { words: vec![[0; 4]; at.words()], at };
        flat.words[0] = *WCIF_MAGIC;
        for (i, word) in [at.version(), n as u32, m as u32, g as u32].into_iter().enumerate() {
            flat.set(1 + i, word);
        }
        let (mut e, mut k) = (0, 0);
        for v in 0..n {
            for (hub, group) in index.labels(v as VertexId).hub_groups() {
                flat.set(at.group_hubs + k, hub);
                flat.set(at.group_starts + k, e as u32);
                k += 1;
                for entry in group {
                    flat.set(at.dists + e, entry.dist);
                    flat.set(at.qualities + e, entry.quality);
                    e += 1;
                }
            }
            flat.set(HEADER_WORDS + v + 1, e as u32);
            flat.set(at.group_offsets + v + 1, k as u32);
        }
        for (k, v) in index.order().iter().enumerate() {
            flat.set(at.order + k, v);
        }
        flat
    }

    /// Decodes a `WCIF` snapshot produced by [`Flat::encode`]: the
    /// validation pass of [`FlatView::parse`] over the borrowed bytes, then
    /// one copy of the image. Corrupt or truncated input is rejected with an
    /// error, never a panic.
    pub fn decode(data: &[u8]) -> Result<Self, String> {
        FlatView::parse(data).map(|view| view.to_owned())
    }

    /// Overwrites word `i` of the image.
    #[inline]
    fn set(&mut self, i: usize, value: u32) {
        self.words[i] = value.to_le_bytes();
    }
}

impl<'a> FlatView<'a> {
    /// Parses and fully validates an encoded `WCIF` buffer in place, without
    /// copying it.
    pub fn parse(data: &'a [u8]) -> Result<Self, String> {
        let (words, tail) = data.as_chunks::<4>();
        if !tail.is_empty() {
            return Err(format!("buffer is {} bytes, not a whole number of words", data.len()));
        }
        Self::from_words(words)
    }
}

impl<W: AsRef<[[u8; 4]]>> Flat<W> {
    /// Serves from `words` in place once they pass the one `WCIF`
    /// validation pass: header and section sizes, offset monotonicity,
    /// group/entry consistency, group keys inside `0..n`, the Theorem-3
    /// ordering every query binary search relies on, and a permutation check
    /// on the vertex order. A snapshot file read straight into a
    /// `Vec<[u8; 4]>` becomes a [`FlatIndex`] this way with no second copy.
    /// Corrupt input is rejected with an error, never a panic.
    pub fn from_words(words: W) -> Result<Self, String> {
        let image = words.as_ref();
        if image.len() < HEADER_WORDS {
            return Err("buffer shorter than the WCIF header".to_string());
        }
        if &image[0] != WCIF_MAGIC {
            return Err(format!("bad magic {:?} (expected WCIF)", image[0]));
        }
        let header = |i: usize| u32::from_le_bytes(image[i]);
        let version = header(1);
        if version != WCIF_VERSION && version != WCIF_VERSION_HOT {
            return Err(format!(
                "unsupported WCIF version {version} \
                 (expected {WCIF_VERSION} or {WCIF_VERSION_HOT})"
            ));
        }
        let (n, m, g) = (header(2) as usize, header(3) as usize, header(4) as usize);
        let at =
            Layout::new(n, m, g, version == WCIF_VERSION_HOT).ok_or("section sizes overflow")?;
        if image.len() != at.words() {
            return Err(format!(
                "image is {} words but the header implies {}",
                image.len(),
                at.words()
            ));
        }
        let flat = Self { words, at };
        flat.view().validate()?;
        Ok(flat)
    }

    /// The same index over borrowed words; every query runs through it.
    #[inline]
    pub(crate) fn view(&self) -> FlatView<'_> {
        Flat { words: self.words.as_ref(), at: self.at }
    }

    /// Copies the image into an owned [`FlatIndex`].
    pub fn to_owned(&self) -> FlatIndex {
        Flat { words: self.words.as_ref().to_vec(), at: self.at }
    }

    /// Thaws the flat index back into the nested build representation.
    pub fn to_index(&self) -> WcIndex {
        if self.at.hot {
            // The nested form is canonical by construction; route the hot
            // layout back through the hub-ascending permutation first.
            return self.to_canonical().to_index();
        }
        let labels = (0..self.at.n)
            .map(|v| LabelSet::from_sorted(self.label_entries(v as VertexId).collect()))
            .collect();
        WcIndex::from_parts(labels, self.order())
    }

    /// Returns `true` when the index uses the hot-group layout (`WCIF`
    /// version [`WCIF_VERSION_HOT`]).
    pub fn hot_groups(&self) -> bool {
        self.at.hot
    }

    /// Re-lays the index out with each vertex's hub groups keyed and ordered
    /// by the hub's **rank** instead of its id (a copy if already hot).
    ///
    /// Rank 0 is the most important hub — the one most label sets contain —
    /// so the hot layout clusters the groups most likely to match at the
    /// front of both directories, where the merge's first iterations (and the
    /// prefetcher) touch them. Because rank is a bijection on vertices, two
    /// groups match under rank keys exactly when they match under hub ids,
    /// and within a group nothing moves: every query answer is bit-identical
    /// to the canonical layout (pinned by `tests/kernels.rs`). The layout is
    /// stamped into the image as `WCIF` version [`WCIF_VERSION_HOT`], and
    /// every reader accepts either version.
    pub fn to_hot(&self) -> FlatIndex {
        if self.at.hot {
            return self.to_owned();
        }
        let order = self.order();
        self.permute_groups(|hub| order.rank_of(hub), true)
    }

    /// Restores the canonical hub-ascending group layout (a copy if already
    /// canonical). Inverse of [`Self::to_hot`].
    pub fn to_canonical(&self) -> FlatIndex {
        if !self.at.hot {
            return self.to_owned();
        }
        let st = self.view();
        self.permute_groups(|rank| st.vertex_at(rank as usize), false)
    }

    /// Rewrites every vertex's directory (and the entry arena behind it) with
    /// group keys mapped through `new_key`, groups sorted ascending by the
    /// new key. Entry contents, per-vertex ranges and the order are unchanged.
    fn permute_groups(&self, new_key: impl Fn(u32) -> u32, hot: bool) -> FlatIndex {
        let st = self.view();
        let mut out = self.to_owned();
        out.at.hot = hot;
        out.set(1, out.at.version());
        let at = out.at;
        let mut e = 0;
        for v in 0..at.n {
            let (g0, g1) = (st.group_offset(v), st.group_offset(v + 1));
            let mut groups: Vec<usize> = (g0..g1).collect();
            groups.sort_unstable_by_key(|&k| new_key(st.group_hub(k)));
            for (slot, k) in (g0..).zip(groups) {
                out.set(at.group_hubs + slot, new_key(st.group_hub(k)));
                out.set(at.group_starts + slot, e as u32);
                for src in st.group_start(k)..st.group_end(k, v as VertexId) {
                    out.set(at.dists + e, st.dist(src));
                    out.set(at.qualities + e, st.quality(src));
                    e += 1;
                }
            }
        }
        out
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.at.n
    }

    /// Total number of label entries across all vertices.
    pub fn total_entries(&self) -> usize {
        self.at.m
    }

    /// Total number of hub groups across all vertices.
    pub fn num_groups(&self) -> usize {
        self.at.g
    }

    /// The vertex order the index was built with, read from the image.
    pub fn order(&self) -> VertexOrder {
        let st = self.view();
        // Every image is a checked or freshly written one, so this is a
        // permutation and cannot panic.
        VertexOrder::from_permutation((0..st.at.n).map(|k| st.vertex_at(k)).collect())
    }

    /// Iterates the entries of `L(v)` in directory order: canonical `(hub,
    /// dist)` order for the canonical layout, rank order for the hot layout
    /// (hub ids are recovered from the rank keys either way). The hub of each
    /// entry comes from the group directory — the arena itself stores no
    /// per-entry hub column (it would be fully redundant).
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = LabelEntry> + '_ {
        let st = self.view();
        (st.group_offset(v as usize)..st.group_offset(v as usize + 1)).flat_map(move |g| {
            let key = st.group_hub(g);
            let hub = if st.at.hot { st.vertex_at(key as usize) } else { key };
            (st.group_start(g)..st.group_end(g, v))
                .map(move |e| LabelEntry::new(hub, st.dist(e), st.quality(e)))
        })
    }

    /// Number of entries in `L(v)`.
    pub fn label_len(&self, v: VertexId) -> usize {
        let st = self.view();
        st.entry_offset(v as usize + 1) - st.entry_offset(v as usize)
    }

    /// Answers `Q(s, t, w)` with the `Query⁺` merge over the group
    /// directories.
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
        let st = self.view();
        let d = match imp {
            QueryImpl::Merge => merge_flat(&st, s, t, w),
            QueryImpl::Chunked => crate::kernel::merge_chunked(&st, s, t, w),
        };
        (d != INF_DIST).then_some(d)
    }

    /// Returns `true` if some `w`-path of length at most `d` connects `s` and
    /// `t` (the cover predicate, mirroring [`WcIndex::within`]). An
    /// unreachable pair is never within, not even `d == INF_DIST`.
    pub fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool {
        self.distance(s, t, w).is_some_and(|x| x <= d)
    }

    /// Aggregate statistics of the index.
    pub fn stats(&self) -> IndexStats {
        let st = self.view();
        let Layout { n, m, .. } = self.at;
        let max_label_size =
            (0..n).map(|v| st.entry_offset(v + 1) - st.entry_offset(v)).max().unwrap_or(0);
        IndexStats {
            num_vertices: n,
            total_entries: m,
            max_label_size,
            avg_label_size: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            entry_bytes: m * std::mem::size_of::<LabelEntry>(),
        }
    }

    /// Serializes the index as its versioned `WCIF` snapshot, which is the
    /// image itself, copied out. [`FlatIndex::decode`] and
    /// [`FlatView::parse`] read it back.
    pub fn encode(&self) -> bytes::Bytes {
        self.words.as_ref().as_flattened().to_vec().into()
    }
}

impl<W: AsRef<[[u8; 4]]> + Sync> QueryEngine for Flat<W> {
    fn num_vertices(&self) -> usize {
        Flat::num_vertices(self)
    }
    fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        imp: QueryImpl,
    ) -> Option<Distance> {
        Flat::distance_with(self, s, t, w, imp)
    }
    fn stats(&self) -> IndexStats {
        Flat::stats(self)
    }
}

/// Word-level accessors. Every query algorithm — the chunked kernel in
/// [`crate::kernel`] included — reads the index through these.
impl FlatView<'_> {
    #[inline]
    fn word(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.words[i])
    }

    /// `entry_offsets[v]`, `v` in `0..=n`.
    #[inline]
    pub(crate) fn entry_offset(&self, v: usize) -> usize {
        self.word(HEADER_WORDS + v) as usize
    }

    /// `group_offsets[v]`, `v` in `0..=n`.
    #[inline]
    pub(crate) fn group_offset(&self, v: usize) -> usize {
        self.word(self.at.group_offsets + v) as usize
    }

    /// Key of group `g`: its hub id, or the hub's rank in the hot layout.
    #[inline]
    pub(crate) fn group_hub(&self, g: usize) -> VertexId {
        self.word(self.at.group_hubs + g)
    }

    /// Arena position of the first entry of group `g`.
    #[inline]
    pub(crate) fn group_start(&self, g: usize) -> usize {
        self.word(self.at.group_starts + g) as usize
    }

    #[inline]
    pub(crate) fn dist(&self, e: usize) -> Distance {
        self.word(self.at.dists + e)
    }

    #[inline]
    pub(crate) fn quality(&self, e: usize) -> Quality {
        self.word(self.at.qualities + e)
    }

    /// The vertex at position `k` of the order.
    #[inline]
    fn vertex_at(&self, k: usize) -> VertexId {
        self.word(self.at.order + k)
    }

    /// Arena position one past the last entry of group `g`, which belongs to
    /// vertex `v`: the next group's start, or the end of `L(v)` for the
    /// vertex's last group.
    #[inline]
    pub(crate) fn group_end(&self, g: usize, v: VertexId) -> usize {
        if g + 1 < self.group_offset(v as usize + 1) {
            self.group_start(g + 1)
        } else {
            self.entry_offset(v as usize + 1)
        }
    }

    /// Best-effort prefetch of entry `e`'s column words, issued by the merge
    /// kernels one group ahead of use. The crate forbids `unsafe`, which
    /// rules out the `_mm_prefetch` intrinsic, so this is a *touch* rather
    /// than a hint: one real read per column through
    /// [`std::hint::black_box`] pulls the cache lines exactly as a hardware
    /// prefetch would, at the cost of occupying a load slot.
    #[inline]
    pub(crate) fn prefetch_entry(&self, e: usize) {
        std::hint::black_box(self.dist(e));
        std::hint::black_box(self.quality(e));
    }

    /// The structural validation pass behind every reader: offset
    /// monotonicity, group/entry consistency, group keys inside `0..n`, the
    /// Theorem-3 within-group ordering that makes every query binary search
    /// sound, and the vertex order. One linear pass over the directory and
    /// arena, run in place on the image.
    fn validate(&self) -> Result<(), String> {
        let Layout { n, m, g, .. } = self.at;
        if self.entry_offset(0) != 0 || self.group_offset(0) != 0 {
            return Err("offsets must start at 0".to_string());
        }
        if self.entry_offset(n) != m {
            return Err("entry offsets do not cover the arena".to_string());
        }
        if self.group_offset(n) != g {
            return Err("group offsets do not cover the directory".to_string());
        }
        for v in 0..n {
            let (e0, e1) = (self.entry_offset(v), self.entry_offset(v + 1));
            let (g0, g1) = (self.group_offset(v), self.group_offset(v + 1));
            if e1 < e0 || e1 > m {
                return Err(format!("entry offsets of vertex {v} are not monotone"));
            }
            if g1 < g0 || g1 > g {
                return Err(format!("group offsets of vertex {v} are not monotone"));
            }
            if (e0 == e1) != (g0 == g1) {
                return Err(format!("vertex {v} has entries and groups out of sync"));
            }
            let mut prev_hub: Option<VertexId> = None;
            for k in g0..g1 {
                let start = self.group_start(k);
                let end = self.group_end(k, v as VertexId);
                if k == g0 && start != e0 {
                    return Err(format!("first group of vertex {v} does not start its label set"));
                }
                if start >= end || end > e1 {
                    return Err(format!("group {k} of vertex {v} has an invalid entry range"));
                }
                let hub = self.group_hub(k);
                if hub as usize >= n {
                    return Err(format!("group key {hub} of vertex {v} is outside 0..{n}"));
                }
                if prev_hub.is_some_and(|p| p >= hub) {
                    return Err(format!("group hubs of vertex {v} are not strictly ascending"));
                }
                prev_hub = Some(hub);
                for e in start + 1..end {
                    if !(self.dist(e - 1) < self.dist(e) && self.quality(e - 1) < self.quality(e)) {
                        return Err(format!(
                            "entries of vertex {v}, hub {hub} violate the Theorem-3 ordering"
                        ));
                    }
                }
            }
        }
        validate_order_words((0..n).map(|k| self.vertex_at(k)), n)
    }
}

/// First group index in `lo..hi` whose hub is `>= target`
/// (`partition_point` over the group-hub directory).
#[inline]
fn lower_bound_hub(st: &FlatView<'_>, mut lo: usize, hi: usize, target: VertexId) -> usize {
    let mut len = hi - lo;
    while len > 0 {
        let half = len / 2;
        let mid = lo + half;
        if st.group_hub(mid) < target {
            lo = mid + 1;
            len -= half + 1;
        } else {
            len = half;
        }
    }
    lo
}

/// Advances past group `i` (whose hub is `< target`) to the first group in
/// `..hi` whose hub is `>= target`. The next record is the overwhelmingly
/// common case, so it is probed directly; longer mismatch runs gallop —
/// exponential probes, then a binary search over the overshoot window — so a
/// skip of `d` groups costs `O(log d)` instead of the entry-by-entry
/// `skip_group` walk of the nested representation.
#[inline]
pub(crate) fn advance_to_hub(st: &FlatView<'_>, i: usize, hi: usize, target: VertexId) -> usize {
    let mut lo = i + 1;
    if lo >= hi || st.group_hub(lo) >= target {
        return lo;
    }
    // Invariant: group_hub(lo) < target.
    let mut step = 1;
    loop {
        let probe = lo + step;
        if probe >= hi || st.group_hub(probe) >= target {
            return lower_bound_hub(st, lo + 1, probe.min(hi), target);
        }
        lo = probe;
        step *= 2;
    }
}

/// Minimal distance among the entries of group `g` (of vertex `v`) with
/// quality at least `w`. Groups of 1–2 entries — the overwhelming majority on
/// road-shaped labels — are answered by direct probes (Theorem-3 ordering
/// makes the first qualifying entry the minimum); larger groups run the
/// Theorem-3 binary search over the dense `qualities` column. The probe win
/// is pinned by the `kernels` criterion group.
#[inline]
fn min_dist_in_group(st: &FlatView<'_>, g: usize, v: VertexId, w: Quality) -> Option<Distance> {
    let end = st.group_end(g, v);
    let mut lo = st.group_start(g);
    let mut len = end - lo;
    if len <= 2 {
        if len >= 1 && st.quality(lo) >= w {
            return Some(st.dist(lo));
        }
        if len == 2 && st.quality(lo + 1) >= w {
            return Some(st.dist(lo + 1));
        }
        return None;
    }
    while len > 0 {
        let half = len / 2;
        let mid = lo + half;
        if st.quality(mid) < w {
            lo = mid + 1;
            len -= half + 1;
        } else {
            len = half;
        }
    }
    (lo < end).then(|| st.dist(lo))
}

/// `Query⁺` over the flat form: merge the two *group directories* (one record
/// per distinct hub) instead of the raw entry lists, skipping runs of
/// unmatched hubs with a binary search.
fn merge_flat(st: &FlatView<'_>, s: VertexId, t: VertexId, w: Quality) -> Distance {
    let (mut i, i_end) = (st.group_offset(s as usize), st.group_offset(s as usize + 1));
    let (mut j, j_end) = (st.group_offset(t as usize), st.group_offset(t as usize + 1));
    let mut best = INF_DIST;
    while i < i_end && j < j_end {
        let ha = st.group_hub(i);
        let hb = st.group_hub(j);
        if ha < hb {
            i = advance_to_hub(st, i, i_end, hb);
        } else if hb < ha {
            j = advance_to_hub(st, j, j_end, ha);
        } else {
            if let (Some(da), Some(db)) =
                (min_dist_in_group(st, i, s, w), min_dist_in_group(st, j, t, w))
            {
                best = best.min(da.saturating_add(db));
            }
            i += 1;
            j += 1;
        }
    }
    best
}

/// Checks that the order words form a permutation of `0..n` (so
/// `VertexOrder::from_permutation` cannot panic on untrusted input).
fn validate_order_words(order: impl Iterator<Item = u32>, n: usize) -> Result<(), String> {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for v in order {
        let v = v as usize;
        if v >= n || seen[v] {
            return Err(format!("vertex order is not a permutation of 0..{n}"));
        }
        seen[v] = true;
        count += 1;
    }
    if count != n {
        return Err(format!("vertex order is not a permutation of 0..{n}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::paper_figure3;

    /// Size of the fixed `WCIF` header in bytes.
    const WCIF_HEADER: usize = 4 * HEADER_WORDS;

    fn sample() -> (WcIndex, FlatIndex) {
        let g = paper_figure3();
        let idx = IndexBuilder::wc_index_plus().build(&g);
        let flat = FlatIndex::from_index(&idx);
        (idx, flat)
    }

    #[test]
    fn conversion_is_lossless() {
        let (idx, flat) = sample();
        assert_eq!(flat.num_vertices(), idx.num_vertices());
        assert_eq!(flat.total_entries(), idx.total_entries());
        assert_eq!(&flat.order(), idx.order());
        let back = flat.to_index();
        for v in 0..idx.num_vertices() as VertexId {
            assert_eq!(back.labels(v), idx.labels(v), "vertex {v}");
            let flat_entries: Vec<LabelEntry> = flat.label_entries(v).collect();
            assert_eq!(flat_entries, idx.labels(v).entries().to_vec(), "vertex {v}");
            assert_eq!(flat.label_len(v), idx.labels(v).len());
        }
    }

    #[test]
    fn all_query_impls_match_nested() {
        let (idx, flat) = sample();
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=6 {
                    for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                        assert_eq!(
                            flat.distance_with(s, t, w, imp),
                            idx.distance_with(s, t, w, imp),
                            "Q({s},{t},{w}) under {imp:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hot_layout_roundtrips_and_answers_identically() {
        let (idx, flat) = sample();
        let hot = flat.to_hot();
        assert!(hot.hot_groups() && !flat.hot_groups());
        assert_eq!(hot.num_vertices(), flat.num_vertices());
        assert_eq!(hot.total_entries(), flat.total_entries());
        assert_eq!(hot.stats(), flat.stats());
        // Round trip through the canonical layout is exact, and idempotent
        // conversions clone.
        assert_eq!(hot.to_canonical(), flat);
        assert_eq!(hot.to_hot(), hot);
        assert_eq!(flat.to_canonical(), flat);
        // Hub recovery: label entries carry real hub ids, and the nested
        // conversion matches the canonical one.
        for v in 0..6 {
            let key = |e: &LabelEntry| (e.hub, e.dist, e.quality);
            let mut canon: Vec<LabelEntry> = flat.label_entries(v).collect();
            let mut from_hot: Vec<LabelEntry> = hot.label_entries(v).collect();
            canon.sort_by_key(key);
            from_hot.sort_by_key(key);
            assert_eq!(from_hot, canon, "vertex {v}");
        }
        assert_eq!(hot.to_index(), idx);
        // Bit-identical answers under every impl.
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=6 {
                    for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                        assert_eq!(
                            hot.distance_with(s, t, w, imp),
                            flat.distance_with(s, t, w, imp),
                            "Q({s},{t},{w}) under {imp:?}"
                        );
                    }
                    for d in [0, 2, u32::MAX] {
                        assert_eq!(hot.within(s, t, w, d), flat.within(s, t, w, d));
                    }
                }
            }
        }
    }

    #[test]
    fn hot_layout_snapshots_as_wcif_v2() {
        let (_, flat) = sample();
        let hot = flat.to_hot();
        let bytes = hot.encode();
        assert_eq!(bytes[4], WCIF_VERSION_HOT as u8, "version word stamps the layout");
        let decoded = FlatIndex::decode(&bytes).unwrap();
        assert_eq!(decoded, hot);
        assert!(decoded.hot_groups());
        let view = FlatView::parse(&bytes).unwrap();
        assert!(view.hot_groups());
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    assert_eq!(view.distance(s, t, w), flat.distance(s, t, w));
                    assert_eq!(
                        view.distance_with(s, t, w, QueryImpl::Chunked),
                        flat.distance(s, t, w)
                    );
                }
            }
        }
        // A canonical re-encode of the decoded hot index restores version 1.
        assert_eq!(decoded.to_canonical().encode()[4], WCIF_VERSION as u8);
    }

    #[test]
    fn within_matches_nested() {
        let (idx, flat) = sample();
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    for d in [0, 1, 2, 5, u32::MAX] {
                        assert_eq!(
                            flat.within(s, t, w, d),
                            idx.within(s, t, w, d),
                            "within({s},{t},{w},{d})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stats_match_nested() {
        let (idx, flat) = sample();
        assert_eq!(flat.stats(), idx.stats());
    }

    #[test]
    fn wcif_roundtrip() {
        let (_, flat) = sample();
        let bytes = flat.encode();
        let decoded = FlatIndex::decode(&bytes).unwrap();
        assert_eq!(decoded, flat);
        let view = FlatView::parse(&bytes).unwrap();
        assert_eq!(view, flat.view());
        assert_eq!(view.num_vertices(), flat.num_vertices());
        assert_eq!(view.total_entries(), flat.total_entries());
        assert_eq!(view.stats(), flat.stats());
        assert_eq!(view.to_owned(), flat);
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5 {
                    assert_eq!(view.distance(s, t, w), flat.distance(s, t, w));
                }
            }
        }
        // The owned words validate in place to the same index.
        assert_eq!(FlatIndex::from_words(flat.words.clone()).unwrap(), flat);
    }

    #[test]
    fn decode_rejects_corruption() {
        let (_, flat) = sample();
        let bytes = flat.encode();
        // Truncation at every prefix length must error, never panic.
        for cut in [0, 3, 4, WCIF_HEADER - 1, WCIF_HEADER, bytes.len() - 1] {
            assert!(FlatIndex::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing junk changes the length away from what the header implies.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(FlatIndex::decode(&long).is_err());
        // Wrong magic / version.
        assert!(FlatIndex::decode(b"WCIX").is_err());
        let mut wrong_version = bytes.to_vec();
        wrong_version[4] = 0xFF;
        assert!(FlatIndex::decode(&wrong_version).is_err());
    }

    #[test]
    fn decode_rejects_unsorted_entries() {
        let (_, flat) = sample();
        // Swap the two leading entries of some hub group with >= 2 entries,
        // breaking the Theorem-3 ordering without changing any length.
        let st = flat.view();
        let lo = (0..flat.num_vertices())
            .flat_map(|v| (st.group_offset(v)..st.group_offset(v + 1)).map(move |g| (v, g)))
            .find(|&(v, g)| st.group_end(g, v as VertexId) - st.group_start(g) >= 2)
            .map(|(_, g)| st.group_start(g))
            .expect("the paper index has multi-entry hub groups");
        let (dists, qualities) = (flat.at.dists + lo, flat.at.qualities + lo);
        let mut tampered = flat.clone();
        tampered.words.swap(dists, dists + 1);
        tampered.words.swap(qualities, qualities + 1);
        assert!(FlatIndex::decode(&tampered.encode()).is_err());
        // A flipped quality alone (dist still ascending) is equally rejected.
        let mut tampered = flat.clone();
        tampered.words.swap(qualities, qualities + 1);
        assert!(FlatIndex::decode(&tampered.encode()).is_err());
    }

    #[test]
    fn decode_rejects_bad_order() {
        let (_, flat) = sample();
        let bytes = flat.encode();
        let mut bad = bytes.to_vec();
        // The order section is the last n words; duplicate the first vertex
        // into the second slot so it is no longer a permutation.
        let order_start = bad.len() - 4 * flat.num_vertices();
        let first: [u8; 4] = bad[order_start..order_start + 4].try_into().unwrap();
        bad[order_start + 4..order_start + 8].copy_from_slice(&first);
        assert!(FlatIndex::decode(&bad).is_err());
    }

    #[test]
    fn empty_label_sets_are_handled() {
        // An edgeless graph: every vertex has only its self label; build a
        // 1-vertex flat index plus an empty one via conversion corner cases.
        let g = wcsd_graph::GraphBuilder::new(3).build();
        let idx = IndexBuilder::default().build(&g);
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.distance(0, 0, 1), Some(0));
        assert_eq!(flat.distance(0, 2, 1), None);
        let decoded = FlatIndex::decode(&flat.encode()).unwrap();
        assert_eq!(decoded, flat);
    }
}
