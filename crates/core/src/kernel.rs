//! Branch-free query kernels over the flat label arena.
//!
//! [`crate::flat`] made the query path's memory layout contiguous; this module
//! makes its inner loops straight-line, and its merge is the one every query
//! takes by default ([`QueryImpl::Chunked`](crate::index::QueryImpl) is the
//! default implementation). Two kernels, both bit-identical to the scalar
//! reference `Query⁺` merge (enforced by `tests/kernels.rs`):
//!
//! * **Chunked masked-min** ([`masked_min_chunked`] and the group-min over
//!   the image behind [`QueryImpl::Chunked`](crate::index::QueryImpl)): the
//!   matched-hub step scans the group in fixed-width [`LANES`]-wide chunks
//!   with a scalar tail. In the `WCIF` image an entry is one packed word
//!   `level << k | dist` (see [`crate::flat`]), 4 bytes, and a query turns
//!   its constraint `w` into one word threshold `level(w) << k` up front, so
//!   each lane computes `(word & mask) | ((word >= threshold) as
//!   u32).wrapping_sub(1)` — one column read per entry. A filtered entry
//!   becomes `u32::MAX`, which **is** [`INF_DIST`], so a plain unsigned `min`
//!   over the masked lanes yields exactly the Theorem-3 answer (within a
//!   group, distance and quality both ascend strictly, so the first
//!   qualifying entry carries the minimal distance — and every later
//!   qualifying entry is farther). No branches, no `Option`, and rustc
//!   autovectorizes the lane loop. The slice-level kernels keep the
//!   two-column form, `dist | ((quality >= w) as u32).wrapping_sub(1)` over
//!   separate `dists`/`qualities` slices.
//! * **Crossover dispatch** ([`group_min`]): 1–2-entry groups (the common
//!   road-network case) are answered by direct probes, groups up to
//!   [`CHUNK_CROSSOVER`] entries by the chunked scan, and only larger groups
//!   keep the Theorem-3 binary search — a linear scan of a few cache lines
//!   beats `log n` dependent branchy probes until the group outgrows them.
//!   Over the image, probes and search compare entry words with the
//!   threshold directly: the words of a group rise strictly.
//!
//! The slice-level kernels ([`masked_min_scalar`], [`masked_min_chunked`],
//! [`theorem3_min`], [`group_min`]) are public so the criterion benches can
//! pin each dispatch tier in isolation; the forms over the `WCIF` image are
//! crate internal and take the borrowed [`FlatView`], through which the
//! owned index queries too.

use crate::flat::{advance_to_key, FlatView};
use wcsd_graph::{Distance, Quality, VertexId, INF_DIST};

/// Accumulator lanes of the chunked masked-min scan. Eight `u32` lanes fill
/// one 256-bit vector register, which is what rustc's autovectorizer targets
/// on x86-64; narrower targets simply unroll.
pub const LANES: usize = 8;

/// Largest group the chunked linear scan handles; larger groups keep the
/// Theorem-3 binary search. Measured on the road/social bench shapes
/// (`exp12_kernels`): a straight-line scan of up to ~8 chunks beats the
/// search's dependent, branchy probes, and real hub groups almost never get
/// this large anyway (road-network groups hold 1–2 entries).
pub const CHUNK_CROSSOVER: usize = 64;

/// Reference scalar kernel: branchy one-entry-at-a-time filtered min.
/// The baseline the chunked kernel is benchmarked against.
#[inline]
pub fn masked_min_scalar(dists: &[u32], qualities: &[u32], w: Quality) -> Distance {
    let mut best = INF_DIST;
    for (&d, &q) in dists.iter().zip(qualities) {
        if q >= w {
            best = best.min(d);
        }
    }
    best
}

/// Chunked masked-min over one group's columns: [`LANES`] independent lane
/// accumulators, a lane-reduce, and a scalar tail. Returns [`INF_DIST`] when
/// no entry has `quality >= w`.
#[inline]
pub fn masked_min_chunked(dists: &[u32], qualities: &[u32], w: Quality) -> Distance {
    debug_assert_eq!(dists.len(), qualities.len());
    let split = dists.len() - dists.len() % LANES;
    let mut lanes = [INF_DIST; LANES];
    for (dc, qc) in dists[..split].chunks_exact(LANES).zip(qualities[..split].chunks_exact(LANES)) {
        for l in 0..LANES {
            let keep = (qc[l] >= w) as u32;
            lanes[l] = lanes[l].min(dc[l] | keep.wrapping_sub(1));
        }
    }
    let mut best = lanes.iter().fold(INF_DIST, |b, &lane| b.min(lane));
    for (&d, &q) in dists[split..].iter().zip(&qualities[split..]) {
        let keep = (q >= w) as u32;
        best = best.min(d | keep.wrapping_sub(1));
    }
    best
}

/// Theorem-3 binary search over one group's columns: the first entry with
/// `quality >= w` carries the minimal distance. Returns [`INF_DIST`] when no
/// entry qualifies.
#[inline]
pub fn theorem3_min(dists: &[u32], qualities: &[u32], w: Quality) -> Distance {
    debug_assert_eq!(dists.len(), qualities.len());
    let k = qualities.partition_point(|&q| q < w);
    if k < dists.len() {
        dists[k]
    } else {
        INF_DIST
    }
}

/// The full dispatch the chunked query implementation uses per matched
/// group: direct probes for 1–2 entries, the chunked scan up to
/// [`CHUNK_CROSSOVER`], the Theorem-3 search above it.
#[inline]
pub fn group_min(dists: &[u32], qualities: &[u32], w: Quality) -> Distance {
    match dists.len() {
        0 => INF_DIST,
        1 => {
            if qualities[0] >= w {
                dists[0]
            } else {
                INF_DIST
            }
        }
        2 => {
            if qualities[0] >= w {
                dists[0]
            } else if qualities[1] >= w {
                dists[1]
            } else {
                INF_DIST
            }
        }
        len if len <= CHUNK_CROSSOVER => masked_min_chunked(dists, qualities, w),
        _ => theorem3_min(dists, qualities, w),
    }
}

/// [`group_min`] over the arena range `start..end` of the image, on packed
/// entry words: the same probe / chunked / search dispatch, where an entry
/// qualifies iff its word is at least `threshold` (see
/// [`FlatView::threshold`]) and its distance is the word's low `k` bits. Within a group
/// the words rise strictly, so the search runs on them directly.
#[inline]
pub(crate) fn group_min_flat(
    st: &FlatView<'_>,
    start: usize,
    end: usize,
    threshold: u32,
) -> Distance {
    let len = end - start;
    if len <= 2 {
        // Direct probes: by Theorem-3 ordering the first qualifying entry is
        // the minimum, so 1–2-entry groups need no loop machinery at all.
        if len >= 1 && st.entry(start) >= threshold {
            return st.dist_of(st.entry(start));
        }
        if len == 2 && st.entry(start + 1) >= threshold {
            return st.dist_of(st.entry(start + 1));
        }
        return INF_DIST;
    }
    if len <= CHUNK_CROSSOVER {
        // A filtered entry becomes `u32::MAX` = `INF_DIST`; a kept one its
        // distance field, which validation keeps below `INF_DIST`.
        let masked = |word: u32| st.dist_of(word) | ((word >= threshold) as u32).wrapping_sub(1);
        let mut lanes = [INF_DIST; LANES];
        let mut e = start;
        while e + LANES <= end {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = (*lane).min(masked(st.entry(e + l)));
            }
            e += LANES;
        }
        let mut best = lanes.iter().fold(INF_DIST, |b, &lane| b.min(lane));
        while e < end {
            best = best.min(masked(st.entry(e)));
            e += 1;
        }
        return best;
    }
    let (mut lo, mut span) = (start, len);
    while span > 0 {
        let half = span / 2;
        let mid = lo + half;
        if st.entry(mid) < threshold {
            lo = mid + 1;
            span -= half + 1;
        } else {
            span = half;
        }
    }
    if lo < end {
        st.dist_of(st.entry(lo))
    } else {
        INF_DIST
    }
}

/// `Query⁺` with chunked group kernels, the default query path: the
/// directory merge of `crate::flat::merge_flat`, but every matched group goes
/// through [`group_min_flat`] and the two per-hub minima combine branch-free
/// — [`INF_DIST`] saturates through `saturating_add` and loses every unsigned
/// `min`, so the unreachable cases need no `Option` plumbing. A constraint
/// no quality in the index reaches answers [`INF_DIST`] before the merge.
pub(crate) fn merge_chunked(st: &FlatView<'_>, s: VertexId, t: VertexId, w: Quality) -> Distance {
    let Some(threshold) = st.threshold(w) else {
        return INF_DIST;
    };
    let (mut i, i_end) = (st.group_offset(s as usize), st.group_offset(s as usize + 1));
    let (mut j, j_end) = (st.group_offset(t as usize), st.group_offset(t as usize + 1));
    let mut best = INF_DIST;
    while i < i_end && j < j_end {
        let ka = st.group_key(i);
        let kb = st.group_key(j);
        if ka == kb {
            let da = group_min_flat(st, st.group_start(i), st.group_end(i, s), threshold);
            // The t side only matters when the s side qualified; skipping it
            // otherwise saves a group scan on every quality-filtered hub.
            if da != INF_DIST {
                // Pull t's entry words toward the cache before its minimum runs.
                st.prefetch_entry(st.group_start(j));
                let db = group_min_flat(st, st.group_start(j), st.group_end(j, t), threshold);
                best = best.min(da.saturating_add(db));
            }
            i += 1;
            j += 1;
        } else if ka < kb {
            i = advance_to_key(st, i, i_end, kb);
        } else {
            j = advance_to_key(st, j, j_end, ka);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Theorem-3-ordered group: dists and qualities both strictly ascend.
    fn group(len: usize, seed: u32) -> (Vec<u32>, Vec<u32>) {
        let mut dists = Vec::with_capacity(len);
        let mut qualities = Vec::with_capacity(len);
        let (mut d, mut q) = (seed % 5, seed % 3 + 1);
        for k in 0..len as u32 {
            d += 1 + (seed.wrapping_mul(k + 1) % 4);
            q += 1 + (seed.wrapping_add(k) % 3);
            dists.push(d);
            qualities.push(q);
        }
        (dists, qualities)
    }

    #[test]
    fn all_kernels_agree_on_every_size_and_threshold() {
        for len in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 63, 64, 65, 200] {
            for seed in [1u32, 7, 1234] {
                let (dists, qualities) = group(len, seed);
                let w_max = qualities.last().copied().unwrap_or(0) + 2;
                for w in 0..=w_max {
                    let expect = masked_min_scalar(&dists, &qualities, w);
                    assert_eq!(masked_min_chunked(&dists, &qualities, w), expect, "{len}/{w}");
                    assert_eq!(theorem3_min(&dists, &qualities, w), expect, "{len}/{w}");
                    assert_eq!(group_min(&dists, &qualities, w), expect, "{len}/{w}");
                }
            }
        }
    }

    #[test]
    fn filtered_entries_mask_to_inf() {
        // Entries with quality below w must never contribute, even when their
        // distance is the global minimum of the column.
        let dists = vec![1, 5, 9];
        let qualities = vec![2, 4, 6];
        assert_eq!(masked_min_chunked(&dists, &qualities, 5), 9);
        assert_eq!(masked_min_chunked(&dists, &qualities, 7), INF_DIST);
        assert_eq!(group_min(&dists, &qualities, 3), 5);
    }

    #[test]
    fn empty_group_is_unreachable() {
        assert_eq!(masked_min_scalar(&[], &[], 1), INF_DIST);
        assert_eq!(masked_min_chunked(&[], &[], 1), INF_DIST);
        assert_eq!(theorem3_min(&[], &[], 1), INF_DIST);
        assert_eq!(group_min(&[], &[], 1), INF_DIST);
    }
}
