//! Read-optimized flat representation of a WC-INDEX: the index *is* its
//! `WCIF` snapshot image, one run of little-endian `u32` words that queries
//! read in place.
//!
//! [`crate::index::WcIndex`] is the *build* representation: each vertex owns a
//! `Vec<LabelEntry>`, which is exactly what the construction sweeps need
//! (per-vertex growth, in-place insertion) but pessimal for serving — every
//! query chases two pointers into scattered allocations, and the
//! array-of-structs entry layout drags `hub` bytes through the cache while the
//! binary search only wants `quality`. [`Flat`] is the *serve*
//! representation. After a seven-word header (magic, version, vertex / entry /
//! group counts, the distance width `k` and the number of quality levels) its
//! image holds:
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
//!   redundant, so the arena does not store one;
//! * the entry arena, concatenated over all vertices in directory order: one
//!   packed word `level << k | dist` per entry, 4 bytes instead of the nested
//!   form's 12. `level` is the entry's slot in the quality table below and
//!   `dist` fills the low `k` bits. By Theorem 3 distance and quality both
//!   rise strictly within a hub group, so the words rise strictly too, and
//!   one column answers the quality filter, the minimum and the Theorem-3
//!   search: for a constraint `w`, an entry qualifies iff its word is at
//!   least `level(w) << k`, where `level(w)` is the first table slot whose
//!   quality is `>= w`, and its distance is `word & (2^k - 1)`;
//! * the quality table: the index's distinct entry qualities, strictly
//!   ascending (the self labels' `∞` included), which maps a level back to
//!   its quality;
//! * the vertex order the index was built with, which maps a group key back
//!   to its hub vertex.
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
//! under both query implementations (enforced by `tests/flat.rs`). The nested
//! label sets already key their hubs by rank, in the directory's order (see
//! [`crate::label`]), so each direction is one copy pass, after the freeze
//! collects the quality table: a group key *is* its entries' `hub`, an
//! entry's quality is `table[level]`, and [`Flat::label_entries`] yields
//! exactly the nested entries.

use crate::index::{QueryEngine, QueryImpl, WcIndex};
use crate::label::{LabelEntry, LabelSet};
use crate::stats::IndexStats;
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};
use wcsd_order::VertexOrder;

/// Snapshot magic of the flat format ("WC Index, Flat").
pub const WCIF_MAGIC: &[u8; 4] = b"WCIF";

/// The `WCIF` format version: hub groups keyed and ordered by hub rank, one
/// packed word per entry. Version 1 keyed the groups by hub id and version 2
/// stored separate distance and quality columns; both are refused with a
/// request to rebuild.
pub const WCIF_VERSION: u32 = 3;

/// Words in the fixed `WCIF` header: magic, version, vertex / entry / group
/// counts, the distance width `k` and the quality level count. The
/// `entry_offsets` section starts right after it.
const HEADER_WORDS: usize = 7;

/// Bits a level index needs when the table holds `levels` qualities.
fn level_bits(levels: usize) -> u32 {
    usize::BITS - levels.saturating_sub(1).leading_zeros()
}

/// Whether `k` distance bits and the level bits of `levels` table slots fit
/// one 32-bit entry word.
fn fits_word(k: u32, levels: usize) -> bool {
    k.checked_add(level_bits(levels)).is_some_and(|bits| bits <= 32)
}

/// Where each section of a `WCIF` image with `n` vertices, `m` entries, `g`
/// hub groups and `levels` table slots starts, in words, and how its entry
/// words split into level and distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    n: usize,
    m: usize,
    g: usize,
    levels: usize,
    /// Width of an entry word's distance field, in bits.
    k: u32,
    /// The distance field, `2^k - 1`.
    mask: u32,
    group_offsets: usize,
    group_keys: usize,
    group_starts: usize,
    entries: usize,
    table: usize,
    order: usize,
}

impl Layout {
    /// The section positions, or `None` when the image size overflows or the
    /// packed word cannot hold `k` distance bits beside the level bits.
    fn new(n: usize, m: usize, g: usize, k: u32, levels: usize) -> Option<Self> {
        if !fits_word(k, levels) {
            return None;
        }
        let group_offsets = HEADER_WORDS.checked_add(n)?.checked_add(1)?;
        let group_keys = group_offsets.checked_add(n)?.checked_add(1)?;
        let group_starts = group_keys.checked_add(g)?;
        let entries = group_starts.checked_add(g)?;
        let table = entries.checked_add(m)?;
        let order = table.checked_add(levels)?;
        order.checked_add(n)?;
        let mask = ((1u64 << k) - 1) as u32;
        Some(Self {
            n,
            m,
            g,
            levels,
            k,
            mask,
            group_offsets,
            group_keys,
            group_starts,
            entries,
            table,
            order,
        })
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
    /// Freezes a built [`WcIndex`] by writing its `WCIF` image directly: one
    /// pass collects the quality table and the largest distance, and one copy
    /// pass packs the entries. The nested sets are already rank-keyed and
    /// ascending, so each hub group's `hub` is its directory key.
    ///
    /// Lossless: [`Flat::to_index`] reconstructs an equal [`WcIndex`], and all
    /// queries return identical answers.
    ///
    /// # Panics
    ///
    /// When the index does not fit the format: see
    /// [`FlatIndex::try_from_index`], whose error this panics with.
    pub fn from_index(index: &WcIndex) -> Self {
        Self::try_from_index(index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FlatIndex::from_index`], or an error when the index does not fit
    /// the format: more than `u32::MAX` entries, or a largest distance and a
    /// quality level count whose packed word would exceed 32 bits.
    pub fn try_from_index(index: &WcIndex) -> Result<Self, String> {
        let labels = index.labels_all();
        let n = labels.len();
        let m = index.total_entries();
        if m > u32::MAX as usize {
            return Err(format!("{m} label entries exceed the flat arena's u32::MAX"));
        }
        let g = labels.iter().map(LabelSet::num_groups).sum();
        let entries = || labels.iter().flat_map(|set| set.entries());
        let mut table: Vec<Quality> = entries().map(|e| e.quality).collect();
        table.sort_unstable();
        table.dedup();
        let max_dist = entries().map(|e| e.dist).max().unwrap_or(0);
        if max_dist == INF_DIST {
            return Err("a label entry has distance INF_DIST".to_string());
        }
        let k = u32::BITS - max_dist.leading_zeros();
        if !fits_word(k, table.len()) {
            return Err(format!(
                "a packed WCIF entry needs {} bits ({} quality levels, largest distance \
                 {max_dist}), above 32",
                u64::from(k) + u64::from(level_bits(table.len())),
                table.len()
            ));
        }
        let at = Layout::new(n, m, g, k, table.len())
            .expect("an in-memory index has a representable image");
        let mut flat = Self { words: vec![[0; 4]; at.words()], at };
        flat.words[0] = *WCIF_MAGIC;
        let header = [WCIF_VERSION, n as u32, m as u32, g as u32, k, table.len() as u32];
        for (i, word) in header.into_iter().enumerate() {
            flat.set(1 + i, word);
        }
        let (mut e, mut j) = (0, 0);
        for (v, set) in labels.iter().enumerate() {
            for (hub, group) in set.hub_groups() {
                flat.set(at.group_keys + j, hub);
                flat.set(at.group_starts + j, e as u32);
                j += 1;
                for entry in group {
                    let level = table.partition_point(|&q| q < entry.quality) as u64;
                    flat.set(at.entries + e, (level << k | u64::from(entry.dist)) as u32);
                    e += 1;
                }
            }
            flat.set(HEADER_WORDS + v + 1, e as u32);
            flat.set(at.group_offsets + v + 1, j as u32);
        }
        for (level, &quality) in table.iter().enumerate() {
            flat.set(at.table + level, quality);
        }
        for (rank, v) in index.order().iter().enumerate() {
            flat.set(at.order + rank, v);
        }
        Ok(flat)
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
        if image.len() < 2 {
            return Err("buffer shorter than the WCIF header".to_string());
        }
        if &image[0] != WCIF_MAGIC {
            return Err(format!("bad magic {:?} (expected WCIF)", image[0]));
        }
        let header = |i: usize| u32::from_le_bytes(image[i]);
        let retired = |what: &str| {
            Err(format!(
                "WCIF version {} ({what}) is retired; rebuild the index to write version \
                 {WCIF_VERSION}",
                header(1)
            ))
        };
        match header(1) {
            WCIF_VERSION => {}
            1 => return retired("hub-id group keys"),
            2 => return retired("separate distance and quality columns"),
            version => {
                return Err(format!("unsupported WCIF version {version} (expected {WCIF_VERSION})"))
            }
        }
        if image.len() < HEADER_WORDS {
            return Err("buffer shorter than the WCIF header".to_string());
        }
        let (n, m, g) = (header(2) as usize, header(3) as usize, header(4) as usize);
        let (k, levels) = (header(5), header(6) as usize);
        if !fits_word(k, levels) {
            return Err(format!(
                "{k} distance bits plus {} level bits for {levels} quality levels exceed the \
                 32-bit entry word",
                level_bits(levels)
            ));
        }
        let at = Layout::new(n, m, g, k, levels).ok_or("section sizes overflow")?;
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

    /// Thaws the flat index back into the nested build representation, one
    /// copy of each vertex's entries in directory order. Off the serve path.
    pub fn to_index(&self) -> WcIndex {
        let labels = (0..self.at.n)
            .map(|v| LabelSet::from_sorted(self.label_entries(v as VertexId).collect()))
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
    /// ascending hub rank, each group's entries by ascending distance. Each
    /// entry's `hub` is its group's rank key, exactly as in the nested
    /// [`WcIndex`] — the arena itself stores no per-entry hub column (it
    /// would be fully redundant).
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = LabelEntry> + '_ {
        let st = self.view();
        (st.group_offset(v as usize)..st.group_offset(v as usize + 1)).flat_map(move |g| {
            let hub = st.group_key(g);
            (st.group_start(g)..st.group_end(g, v)).map(move |e| {
                let word = st.entry(e);
                LabelEntry::new(hub, st.dist_of(word), st.quality_at(st.level_of(word)))
            })
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

    /// The packed word of entry `e`: `level << k | dist`.
    #[inline]
    pub(crate) fn entry(&self, e: usize) -> u32 {
        self.word(self.at.entries + e)
    }

    /// The distance field of an entry word.
    #[inline]
    pub(crate) fn dist_of(&self, word: u32) -> Distance {
        word & self.at.mask
    }

    /// The level field of an entry word: its slot in the quality table.
    #[inline]
    fn level_of(&self, word: u32) -> usize {
        word.checked_shr(self.at.k).unwrap_or(0) as usize
    }

    /// The quality of table slot `level`.
    #[inline]
    fn quality_at(&self, level: usize) -> Quality {
        self.word(self.at.table + level)
    }

    /// The smallest entry word that satisfies constraint `w`: `level(w) << k`,
    /// where `level(w)` is the first table slot whose quality is `>= w`. An
    /// entry qualifies iff its word is at least this. `None` when no quality
    /// in the index reaches `w`, so no entry qualifies.
    #[inline]
    pub(crate) fn threshold(&self, w: Quality) -> Option<u32> {
        let (mut lo, mut len) = (0, self.at.levels);
        while len > 0 {
            let half = len / 2;
            if self.quality_at(lo + half) < w {
                lo += half + 1;
                len -= half + 1;
            } else {
                len = half;
            }
        }
        // `lo < levels <= 2^(32 - k)`, so the shifted level fits 32 bits.
        (lo < self.at.levels).then(|| ((lo as u64) << self.at.k) as u32)
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

    /// Best-effort prefetch of entry `e`'s word, issued by the merge kernels
    /// one group ahead of use. The crate forbids `unsafe`, which rules out
    /// the `_mm_prefetch` intrinsic, so this is a *touch* rather than a hint:
    /// one real read through [`std::hint::black_box`] pulls the cache line
    /// exactly as a hardware prefetch would, at the cost of occupying a load
    /// slot.
    #[inline]
    pub(crate) fn prefetch_entry(&self, e: usize) {
        std::hint::black_box(self.entry(e));
    }

    /// The structural validation pass behind every reader: a strictly
    /// ascending quality table, offset monotonicity, group/entry
    /// consistency, group keys inside `0..n`, entry levels inside the table
    /// and distances below [`INF_DIST`], the Theorem-3 within-group ordering
    /// (level and distance each rising strictly) that makes every query
    /// binary search sound, and the vertex order, run in place on the image.
    /// [`Self::well_formed`] accepts a sound image in a few flat sweeps;
    /// only an image it refuses is walked group by group to name its first
    /// fault.
    fn validate(&self) -> Result<(), String> {
        if self.well_formed() {
            return Ok(());
        }
        self.first_fault()
    }

    /// Whether the image passes every check of [`Self::first_fault`],
    /// decided in flat sweeps instead of its per-group loops, whose exit
    /// branches mispredict at the end of nearly every group. Group ranges
    /// follow from the starts rising strictly across the whole directory,
    /// below `m`, with each vertex's first start at its entry offset. Keys
    /// must rise within a vertex: the adjacent key pairs that do not rise
    /// are counted over the whole directory, and all of them must sit at a
    /// vertex's first group. Entries must rise within a group: a map of the
    /// group starts excuses the pairs that straddle one. Entry fields are
    /// compared as `i32` lanes, which vectorize, so `k` must lie in
    /// `1..=31`; an image with any other `k` (self labels only, or one
    /// quality level and distances reaching `2^31`) is left to
    /// [`Self::first_fault`]. Never indexes past the image, whatever it
    /// holds.
    fn well_formed(&self) -> bool {
        let Layout { n, m, g, levels, k, mask, .. } = self.at;
        let Ok(levels) = i32::try_from(levels) else { return false };
        if !(1..=31).contains(&k) {
            return false;
        }
        let section = |start: usize, len: usize| &self.words[start..start + len];
        let value = |w: &[u8; 4]| u32::from_le_bytes(*w) as usize;
        let (entry_offsets, group_offsets) =
            (section(HEADER_WORDS, n + 1), section(self.at.group_offsets, n + 1));
        let (keys, starts) = (section(self.at.group_keys, g), section(self.at.group_starts, g));
        let entries = section(self.at.entries, m);

        let table_rises = (1..levels as usize).all(|l| self.quality_at(l - 1) < self.quality_at(l));
        let offsets_hold = value(&entry_offsets[0]) == 0
            && value(&group_offsets[0]) == 0
            && value(&entry_offsets[n]) == m
            && value(&group_offsets[n]) == g
            && entry_offsets.windows(2).zip(group_offsets.windows(2)).all(|(e, k)| {
                let (e0, e1, g0, g1) = (value(&e[0]), value(&e[1]), value(&k[0]), value(&k[1]));
                e0 <= e1 && g0 <= g1 && (e0 == e1) == (g0 == g1)
            });
        if !table_rises || !offsets_hold {
            return false;
        }
        // Offsets are monotone from here, so every `g0 < g1` indexes a group.
        let firsts = || {
            group_offsets.windows(2).zip(entry_offsets).filter_map(|(k, e)| {
                let (g0, g1) = (value(&k[0]), value(&k[1]));
                (g0 < g1).then_some((g0, value(e)))
            })
        };
        let starts_rise = count_pairs(starts, |a, b| value(a) >= value(b)) == 0
            && starts.last().is_none_or(|s| value(s) < m)
            && firsts().all(|(k, e0)| value(&starts[k]) == e0);
        if !starts_rise {
            return false;
        }

        let key_falls = count_pairs(keys, |a, b| value(a) >= value(b));
        let key_falls_at_firsts =
            firsts().filter(|&(k, _)| k > 0 && value(&keys[k - 1]) >= value(&keys[k])).count();
        let keys_hold =
            keys.iter().all(|key| value(key) < n) && key_falls as usize == key_falls_at_firsts;

        // Both fields of an entry word as non-negative `i32`s; with `k` in
        // `1..=31` the distance is below `INF_DIST`.
        let fields = |w: &[u8; 4]| {
            let word = u32::from_le_bytes(*w);
            ((word >> k) as i32, (word & mask) as i32)
        };
        let breaks = |a: &[u8; 4], b: &[u8; 4]| {
            let ((la, da), (lb, db)) = (fields(a), fields(b));
            (la >= lb) | (da >= db)
        };
        let outside = entries.iter().fold(0u32, |c, w| c + u32::from(fields(w).0 >= levels));
        // `begins[e]`: entry `e` starts a group. The starts rise strictly
        // below `m`, so each indexes an entry.
        let mut begins = vec![false; m];
        for s in starts {
            begins[value(s)] = true;
        }
        let pairs = entries.iter().zip(entries.get(1..).unwrap_or_default());
        let misordered = pairs
            .zip(begins.get(1..).unwrap_or_default())
            .fold(0u32, |c, ((a, b), &begin)| c + u32::from(breaks(a, b) & !begin));
        let entries_hold = outside == 0 && misordered == 0;

        keys_hold
            && entries_hold
            && validate_order_words((0..n).map(|k| self.vertex_at(k)), n).is_ok()
    }

    /// The checks of [`Self::validate`] one vertex, group and entry at a
    /// time, stopping at the first fault with a message that names it.
    fn first_fault(&self) -> Result<(), String> {
        let Layout { n, m, g, levels, .. } = self.at;
        for level in 1..levels {
            if self.quality_at(level - 1) >= self.quality_at(level) {
                return Err(format!("quality table is not strictly ascending at level {level}"));
            }
        }
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
                let mut prev: Option<(usize, Distance)> = None;
                for e in start..end {
                    let word = self.entry(e);
                    let (level, dist) = (self.level_of(word), self.dist_of(word));
                    if level >= levels {
                        return Err(format!(
                            "entry {e} of vertex {v} has quality level {level} outside the \
                             {levels}-level table"
                        ));
                    }
                    if dist == INF_DIST {
                        return Err(format!("entry {e} of vertex {v} has distance INF_DIST"));
                    }
                    if prev.is_some_and(|(pl, pd)| pl >= level || pd >= dist) {
                        return Err(format!(
                            "entries of vertex {v}, group key {key} violate the Theorem-3 ordering"
                        ));
                    }
                    prev = Some((level, dist));
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

/// Minimal distance among the entries of group `g` (of vertex `v`) that
/// qualify, i.e. whose word is at least `threshold` (see
/// [`FlatView::threshold`]). Groups of 1–2 entries — the overwhelming
/// majority on road-shaped labels — are answered by direct probes (Theorem-3
/// ordering makes the first qualifying entry the minimum); larger groups run
/// the Theorem-3 binary search over the entry words. The probe win is pinned
/// by the `kernels` criterion group.
#[inline]
fn min_dist_in_group(st: &FlatView<'_>, g: usize, v: VertexId, threshold: u32) -> Option<Distance> {
    let end = st.group_end(g, v);
    let mut lo = st.group_start(g);
    let mut len = end - lo;
    if len <= 2 {
        if len >= 1 && st.entry(lo) >= threshold {
            return Some(st.dist_of(st.entry(lo)));
        }
        if len == 2 && st.entry(lo + 1) >= threshold {
            return Some(st.dist_of(st.entry(lo + 1)));
        }
        return None;
    }
    while len > 0 {
        let half = len / 2;
        let mid = lo + half;
        if st.entry(mid) < threshold {
            lo = mid + 1;
            len -= half + 1;
        } else {
            len = half;
        }
    }
    (lo < end).then(|| st.dist_of(st.entry(lo)))
}

/// `Query⁺` over the flat form: merge the two *group directories* (one record
/// per distinct hub) instead of the raw entry lists, skipping runs of
/// unmatched hubs with a binary search. The scalar reference behind
/// [`QueryImpl::Merge`], against which the parity suites and the Exp 12
/// guard check the default chunked kernel.
fn merge_flat(st: &FlatView<'_>, s: VertexId, t: VertexId, w: Quality) -> Distance {
    let Some(threshold) = st.threshold(w) else {
        return INF_DIST;
    };
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
                (min_dist_in_group(st, i, s, threshold), min_dist_in_group(st, j, t, threshold))
            {
                best = best.min(da.saturating_add(db));
            }
            i += 1;
            j += 1;
        }
    }
    best
}

/// The adjacent pairs `(a, b)` of `words` for which `breaks` holds, counted
/// in a branch-free fold that vectorizes.
fn count_pairs(words: &[[u8; 4]], breaks: impl Fn(&[u8; 4], &[u8; 4]) -> bool) -> u32 {
    let next = words.get(1..).unwrap_or_default();
    words.iter().zip(next).fold(0, |c, (a, b)| c + u32::from(breaks(a, b)))
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
    /// layout, and it is the nested sets' own order. The round trip and the
    /// answers are pinned by `conversion_is_lossless` and
    /// `all_query_impls_match_nested`.
    #[test]
    fn hot_layout_roundtrips_and_answers_identically() {
        let (idx, flat) = sample();
        let st = flat.view();
        for v in 0..6 {
            // Directory keys are the nested sets' hub ranks, strictly
            // ascending.
            let keys: Vec<u32> =
                (st.group_offset(v)..st.group_offset(v + 1)).map(|g| st.group_key(g)).collect();
            let ranks: Vec<u32> =
                idx.labels(v as VertexId).hub_groups().map(|(hub, _)| hub).collect();
            assert!(keys.windows(2).all(|p| p[0] < p[1]), "vertex {v}");
            assert_eq!(keys, ranks, "vertex {v}");
            // Label entries hold exactly the nested entries, in order.
            let entries: Vec<LabelEntry> = flat.label_entries(v as VertexId).collect();
            assert_eq!(entries, idx.labels(v as VertexId).entries(), "vertex {v}");
        }
    }

    #[test]
    fn hot_layout_snapshots_as_wcif_v3() {
        let (_, flat) = sample();
        let bytes = flat.encode();
        assert_eq!(bytes[4], WCIF_VERSION as u8, "version word");
        assert_eq!(FlatIndex::decode(&bytes).unwrap(), flat);
        assert_eq!(FlatView::parse(&bytes).unwrap(), flat.view());
        // A version-1 image (hub-id keys) and a version-2 image (separate
        // distance and quality columns) are refused with a request to
        // rebuild, by all three readers.
        for retired in [1, 2] {
            let mut old = bytes.to_vec();
            old[4] = retired;
            let words = old.as_chunks::<4>().0.to_vec();
            for err in [
                FlatIndex::decode(&old).unwrap_err(),
                FlatView::parse(&old).unwrap_err(),
                FlatIndex::from_words(words).unwrap_err(),
            ] {
                assert!(err.contains("rebuild"), "version {retired}: {err}");
            }
        }
    }

    /// A labelling whose one non-self entry has distance `dist` and a
    /// quality of its own, so its table holds two levels (one level bit).
    fn two_level_index(dist: Distance) -> WcIndex {
        let labels = vec![
            LabelSet::from_sorted(vec![LabelEntry::self_label(0)]),
            LabelSet::from_sorted(vec![LabelEntry::new(0, dist, 1), LabelEntry::self_label(1)]),
        ];
        WcIndex::from_parts(labels, VertexOrder::from_permutation(vec![0, 1]))
    }

    #[test]
    fn packed_words_up_to_32_bits_fit_and_wider_ones_are_refused() {
        // 31 distance bits + 1 level bit: exactly one word.
        let largest = (1 << 31) - 1;
        let flat = FlatIndex::try_from_index(&two_level_index(largest)).expect("32 bits fit");
        assert_eq!(flat.distance(1, 0, 1), Some(largest));
        assert_eq!(FlatIndex::decode(&flat.encode()).unwrap(), flat);
        // 32 distance bits + 1 level bit: refused, naming both inputs.
        let err = FlatIndex::try_from_index(&two_level_index(1 << 31)).unwrap_err();
        assert!(err.contains("33 bits") && err.contains("2 quality levels"), "{err}");
        assert!(err.contains(&format!("largest distance {}", 1u32 << 31)), "{err}");
        let panic = std::panic::catch_unwind(|| FlatIndex::from_index(&two_level_index(1 << 31)));
        assert!(panic.is_err(), "from_index must refuse what does not fit");
    }

    /// A 1-vertex image with distance width `k`, quality `table` and one
    /// group of key 0 holding the packed `entries`; the order is `[0]`.
    fn raw_image(k: u32, table: &[u32], entries: &[u32]) -> Vec<u8> {
        let (m, g) = (entries.len() as u32, 1);
        let header =
            [u32::from_le_bytes(*WCIF_MAGIC), WCIF_VERSION, 1, m, g, k, table.len() as u32];
        let (offsets, directory) = ([0, m, 0, g], [0, 0]);
        let words = [&header[..], &offsets, &directory, entries, table, &[0]].concat();
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Each fault of the packed arena is refused by name.
    #[test]
    fn decode_names_packed_word_faults() {
        const INF: u32 = u32::MAX;
        let err = |image: Vec<u8>| FlatIndex::decode(&image).unwrap_err();
        assert!(FlatIndex::decode(&raw_image(4, &[1, INF], &[1, 1 << 4 | 2])).is_ok());
        // An entry level outside the table.
        let e = err(raw_image(4, &[1, INF], &[1, 2 << 4 | 2]));
        assert!(e.contains("level 2 outside the 2-level table"), "{e}");
        // A distance field of INF_DIST (only a 32-bit field can hold one).
        let e = err(raw_image(32, &[INF], &[INF]));
        assert!(e.contains("INF_DIST"), "{e}");
        // A quality table that does not strictly ascend.
        for table in [[5, 3], [3, 3]] {
            let e = err(raw_image(4, &table, &[1, 1 << 4 | 2]));
            assert!(e.contains("not strictly ascending"), "{e}");
        }
        // `k` plus the level bits above 32, including a `k` that would
        // overflow the sum.
        for (k, table) in [(32, &[1, INF][..]), (31, &[1, 2, INF]), (33, &[INF]), (INF, &[INF])] {
            let e = err(raw_image(k, table, &[0]));
            assert!(e.contains("exceed the 32-bit entry word"), "k = {k}: {e}");
        }
        // Rising words are not enough: equal distance with a rising level,
        // and a rising distance with an equal level, both break Theorem 3.
        for entries in [[2, 1 << 4 | 2], [1, 2]] {
            let e = err(raw_image(4, &[1, INF], &entries));
            assert!(e.contains("Theorem-3"), "{entries:?}: {e}");
        }
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
        let entries = flat.at.entries + lo;
        let mut tampered = flat.clone();
        tampered.words.swap(entries, entries + 1);
        assert!(FlatIndex::decode(&tampered.encode()).is_err());
        // Rising words alone are not enough: the second entry keeps its
        // distance but takes the first one's level, so the level no longer
        // rises while the word still does.
        let (first, second) = (st.entry(lo), st.entry(lo + 1));
        let level_of_first = first & !flat.at.mask;
        let mut tampered = flat.clone();
        tampered.set(entries + 1, level_of_first | st.dist_of(second));
        assert!(st.dist_of(first) < st.dist_of(second));
        assert!(FlatIndex::decode(&tampered.encode()).is_err());
    }

    /// The flat sweeps of `well_formed` accept exactly the images the
    /// group-by-group walk accepts: every word of three images XORed with
    /// low, level and high bits and moved by one either way, read without
    /// the validation that `from_words` runs.
    #[test]
    fn sweeps_and_walk_agree_on_every_mutant() {
        use wcsd_graph::generators::{barabasi_albert, QualityAssigner};
        // A 4-clique (`k = 1`) beside an isolated vertex, whose lone group a
        // moved offset hands to its neighbour, leaving it entries and no
        // groups.
        let mut clique = wcsd_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            clique.add_edge(u, v, 2);
        }
        let social = barabasi_albert(40, 2, &QualityAssigner::uniform(4), 5);
        let (mut accepted, mut refused) = (0, 0);
        for (g, k) in [(clique.build(), 1), (paper_figure3(), 3), (social, 3)] {
            let flat = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&g));
            assert_eq!(flat.at.k, k);
            assert!(flat.view().well_formed(), "a built image passes the sweeps");
            for i in 0..flat.words.len() {
                let word = u32::from_le_bytes(flat.words[i]);
                let changes = [word ^ 1, word ^ 0x100, word ^ 0x8000_0000, !word];
                for changed in
                    changes.into_iter().chain([word.wrapping_add(1), word.wrapping_sub(1)])
                {
                    let mut words = flat.words.clone();
                    words[i] = changed.to_le_bytes();
                    let header = |j: usize| u32::from_le_bytes(words[j]);
                    let (n, m, g) = (header(2) as usize, header(3) as usize, header(4) as usize);
                    let Some(at) = Layout::new(n, m, g, header(5), header(6) as usize) else {
                        continue;
                    };
                    if at.words() != words.len() {
                        continue;
                    }
                    let view = Flat { words: &words[..], at };
                    // A `k` outside `1..=31` is the walk's to judge.
                    let walked = view.first_fault().is_ok();
                    let swept = walked && (1..=31).contains(&at.k);
                    assert_eq!(view.well_formed(), swept, "word {i} changed to {changed:#x}");
                    if walked {
                        accepted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        assert!(accepted > 0 && refused > 0, "{accepted} accepted, {refused} refused");
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
