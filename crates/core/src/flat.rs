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
//! * a per-vertex *hub-group directory* (`group_keys`, `group_starts` under a
//!   CSR `group_offsets`): one record per distinct hub of each vertex, keyed
//!   by the hub's **rank** in the vertex order and ascending by it, so
//!   `Query⁺` merges the two directories directly — comparing one `u32` per
//!   distinct hub instead of walking entry-by-entry (`skip_group`) — and skips
//!   ahead with `partition_point`-style binary searches on the miss path.
//!   Rank 0 is the hub most label sets contain, so the groups most likely to
//!   match sit at the front of both directories, where the merge's first
//!   iterations touch them. The directory makes a per-entry hub column
//!   redundant, so the arena does not store one: entries cost 8 bytes
//!   instead of the nested form's 12;
//! * a struct-of-arrays entry arena (`dists`, `qualities`), concatenated over
//!   all vertices in directory order;
//! * the vertex order the index was built with, which maps a group key back
//!   to its hub.
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
//! [`Flat::to_index`]) and answers are bit-identical to the nested index
//! under both query implementations (enforced by `tests/flat.rs`): rank is a
//! bijection on vertices, so two groups match under rank keys exactly when
//! their hubs are equal, and within a group nothing moves.

use crate::index::{QueryEngine, QueryImpl, WcIndex};
use crate::label::{LabelEntry, LabelSet};
use crate::stats::IndexStats;
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// Snapshot magic of the flat format ("WC Index, Flat").
pub const WCIF_MAGIC: &[u8; 4] = b"WCIF";

/// The `WCIF` format version: hub groups keyed and ordered by hub rank.
/// Version 1 keyed them by hub id; such images are refused with a request to
/// rebuild.
pub const WCIF_VERSION: u32 = 2;

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
    group_offsets: usize,
    group_keys: usize,
    group_starts: usize,
    dists: usize,
    qualities: usize,
    order: usize,
}

impl Layout {
    /// The section positions, or `None` when the image size overflows.
    fn new(n: usize, m: usize, g: usize) -> Option<Self> {
        let group_offsets = HEADER_WORDS.checked_add(n)?.checked_add(1)?;
        let group_keys = group_offsets.checked_add(n)?.checked_add(1)?;
        let group_starts = group_keys.checked_add(g)?;
        let dists = group_starts.checked_add(g)?;
        let qualities = dists.checked_add(m)?;
        let order = qualities.checked_add(m)?;
        order.checked_add(n)?;
        Some(Self { n, m, g, group_offsets, group_keys, group_starts, dists, qualities, order })
    }

    /// Length of the whole image in words.
    fn words(&self) -> usize {
        self.order + self.n
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
    /// Freezes a built [`WcIndex`] by writing its `WCIF` image directly, with
    /// no intermediate image: each vertex's hub groups are keyed by the
    /// hub's rank, sorted by key, and written in that order.
    ///
    /// Lossless: [`Flat::to_index`] reconstructs an equal [`WcIndex`], and all
    /// queries return identical answers.
    pub fn from_index(index: &WcIndex) -> Self {
        let n = index.num_vertices();
        let m = index.total_entries();
        assert!(m <= u32::MAX as usize, "flat index arena limited to u32::MAX entries");
        let order = index.order();
        // Every vertex's hub groups as `rank << 32 | first entry` words,
        // sorted per vertex: plain `u64`s sort far faster than `(key, slice)`
        // pairs, and this pass doubles as the group count the layout needs.
        let mut groups: Vec<u64> = Vec::new();
        let mut group_ends = Vec::with_capacity(n);
        for v in 0..n {
            let entries = index.labels(v as VertexId).entries();
            let start = groups.len();
            groups.extend(entries.iter().enumerate().filter_map(|(i, entry)| {
                let first = i == 0 || entries[i - 1].hub != entry.hub;
                first.then(|| u64::from(order.rank_of(entry.hub)) << 32 | i as u64)
            }));
            groups[start..].sort_unstable();
            group_ends.push(groups.len());
        }
        let g = groups.len();
        let at = Layout::new(n, m, g).expect("an in-memory index has a representable image");
        let mut flat = Self { words: vec![[0; 4]; at.words()], at };
        flat.words[0] = *WCIF_MAGIC;
        for (i, word) in [WCIF_VERSION, n as u32, m as u32, g as u32].into_iter().enumerate() {
            flat.set(1 + i, word);
        }
        let (mut e, mut k) = (0, 0);
        for (v, &end) in group_ends.iter().enumerate() {
            let entries = index.labels(v as VertexId).entries();
            for &group in &groups[k..end] {
                let first = group as u32 as usize;
                let hub = entries[first].hub;
                flat.set(at.group_keys + k, (group >> 32) as u32);
                flat.set(at.group_starts + k, e as u32);
                k += 1;
                for entry in entries[first..].iter().take_while(|entry| entry.hub == hub) {
                    flat.set(at.dists + e, entry.dist);
                    flat.set(at.qualities + e, entry.quality);
                    e += 1;
                }
            }
            flat.set(HEADER_WORDS + v + 1, e as u32);
            flat.set(at.group_offsets + v + 1, k as u32);
        }
        for (k, v) in order.iter().enumerate() {
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
        match header(1) {
            WCIF_VERSION => {}
            1 => {
                return Err("WCIF version 1 (hub-id group keys) is retired; \
                            rebuild the index to write version 2"
                    .to_string())
            }
            version => {
                return Err(format!("unsupported WCIF version {version} (expected {WCIF_VERSION})"))
            }
        }
        let (n, m, g) = (header(2) as usize, header(3) as usize, header(4) as usize);
        let at = Layout::new(n, m, g).ok_or("section sizes overflow")?;
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

    /// Thaws the flat index back into the nested build representation,
    /// re-sorting each vertex's entries into the nested form's `(hub, dist)`
    /// order. Off the serve path.
    pub fn to_index(&self) -> WcIndex {
        let labels = (0..self.at.n)
            .map(|v| {
                let mut entries: Vec<LabelEntry> = self.label_entries(v as VertexId).collect();
                entries.sort_unstable_by_key(|e| (e.hub, e.dist));
                LabelSet::from_sorted(entries)
            })
            .collect();
        WcIndex::from_parts(labels, self.order())
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

    /// Iterates the entries of `L(v)` in directory order: hub groups by
    /// ascending hub *rank*, each group's entries by ascending distance. The
    /// hub id of each entry is recovered from its group's rank key through
    /// the vertex order — the arena itself stores no per-entry hub column (it
    /// would be fully redundant).
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = LabelEntry> + '_ {
        let st = self.view();
        (st.group_offset(v as usize)..st.group_offset(v as usize + 1)).flat_map(move |g| {
            let hub = st.vertex_at(st.group_key(g) as usize);
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
    /// directories, through the default [`QueryImpl`].
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.distance_with(s, t, w, QueryImpl::default())
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

    /// Key of group `g`: its hub's rank in the vertex order.
    #[inline]
    pub(crate) fn group_key(&self, g: usize) -> u32 {
        self.word(self.at.group_keys + g)
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
            let mut prev_key: Option<u32> = None;
            for k in g0..g1 {
                let start = self.group_start(k);
                let end = self.group_end(k, v as VertexId);
                if k == g0 && start != e0 {
                    return Err(format!("first group of vertex {v} does not start its label set"));
                }
                if start >= end || end > e1 {
                    return Err(format!("group {k} of vertex {v} has an invalid entry range"));
                }
                let key = self.group_key(k);
                if key as usize >= n {
                    return Err(format!("group key {key} of vertex {v} is outside 0..{n}"));
                }
                if prev_key.is_some_and(|p| p >= key) {
                    return Err(format!("group keys of vertex {v} are not strictly ascending"));
                }
                prev_key = Some(key);
                for e in start + 1..end {
                    if !(self.dist(e - 1) < self.dist(e) && self.quality(e - 1) < self.quality(e)) {
                        return Err(format!(
                            "entries of vertex {v}, group key {key} violate the Theorem-3 ordering"
                        ));
                    }
                }
            }
        }
        validate_order_words((0..n).map(|k| self.vertex_at(k)), n)
    }
}

/// First group index in `lo..hi` whose key is `>= target`
/// (`partition_point` over the group-key directory).
#[inline]
fn lower_bound_key(st: &FlatView<'_>, mut lo: usize, hi: usize, target: u32) -> usize {
    let mut len = hi - lo;
    while len > 0 {
        let half = len / 2;
        let mid = lo + half;
        if st.group_key(mid) < target {
            lo = mid + 1;
            len -= half + 1;
        } else {
            len = half;
        }
    }
    lo
}

/// Advances past group `i` (whose key is `< target`) to the first group in
/// `..hi` whose key is `>= target`. The next record is the overwhelmingly
/// common case, so it is probed directly; longer mismatch runs gallop —
/// exponential probes, then a binary search over the overshoot window — so a
/// skip of `d` groups costs `O(log d)` instead of the entry-by-entry
/// `skip_group` walk of the nested representation.
#[inline]
pub(crate) fn advance_to_key(st: &FlatView<'_>, i: usize, hi: usize, target: u32) -> usize {
    let mut lo = i + 1;
    if lo >= hi || st.group_key(lo) >= target {
        return lo;
    }
    // Invariant: group_key(lo) < target.
    let mut step = 1;
    loop {
        let probe = lo + step;
        if probe >= hi || st.group_key(probe) >= target {
            return lower_bound_key(st, lo + 1, probe.min(hi), target);
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
/// unmatched hubs with a binary search. The scalar reference behind
/// [`QueryImpl::Merge`], against which the parity suites and the Exp 12
/// guard check the default chunked kernel.
fn merge_flat(st: &FlatView<'_>, s: VertexId, t: VertexId, w: Quality) -> Distance {
    let (mut i, i_end) = (st.group_offset(s as usize), st.group_offset(s as usize + 1));
    let (mut j, j_end) = (st.group_offset(t as usize), st.group_offset(t as usize + 1));
    let mut best = INF_DIST;
    while i < i_end && j < j_end {
        let ka = st.group_key(i);
        let kb = st.group_key(j);
        if ka < kb {
            i = advance_to_key(st, i, i_end, kb);
        } else if kb < ka {
            j = advance_to_key(st, j, j_end, ka);
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
        assert_eq!(flat.to_index(), idx);
        for v in 0..idx.num_vertices() as VertexId {
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

    /// The hot layout — hub groups keyed and ordered by rank — is the one
    /// layout, and entries keep their hub ids through it. The round trip and
    /// the answers are pinned by `conversion_is_lossless` and
    /// `all_query_impls_match_nested`.
    #[test]
    fn hot_layout_roundtrips_and_answers_identically() {
        let (idx, flat) = sample();
        let order = idx.order();
        let st = flat.view();
        for v in 0..6 {
            // Directory keys are the hubs' ranks, strictly ascending.
            let keys: Vec<u32> =
                (st.group_offset(v)..st.group_offset(v + 1)).map(|g| st.group_key(g)).collect();
            let mut ranks: Vec<u32> =
                idx.labels(v as VertexId).hub_groups().map(|(hub, _)| order.rank_of(hub)).collect();
            ranks.sort_unstable();
            assert_eq!(keys, ranks, "vertex {v}");
            // Label entries carry real hub ids, in rank order, and hold
            // exactly the nested entries.
            let entries: Vec<LabelEntry> = flat.label_entries(v as VertexId).collect();
            assert!(entries.windows(2).all(|p| order.rank_of(p[0].hub) <= order.rank_of(p[1].hub)));
            let mut sorted = entries.clone();
            sorted.sort_unstable_by_key(|e| (e.hub, e.dist));
            assert_eq!(sorted, idx.labels(v as VertexId).entries(), "vertex {v}");
        }
    }

    #[test]
    fn hot_layout_snapshots_as_wcif_v2() {
        let (_, flat) = sample();
        let bytes = flat.encode();
        assert_eq!(bytes[4], WCIF_VERSION as u8, "version word");
        assert_eq!(FlatIndex::decode(&bytes).unwrap(), flat);
        assert_eq!(FlatView::parse(&bytes).unwrap(), flat.view());
        // A version-1 image (hub-id keys) is refused with a request to
        // rebuild, by both readers.
        let mut v1 = bytes.to_vec();
        v1[4] = 1;
        let err = FlatIndex::decode(&v1).unwrap_err();
        assert!(err.contains("rebuild"), "unexpected error: {err}");
        assert!(FlatView::parse(&v1).is_err());
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
