//! Query algorithms over WC-INDEX label sets.
//!
//! Three implementations with increasing sophistication, matching the paper:
//!
//! * [`query_pair_scan`] — Algorithm 2: scan every pair of entries.
//! * [`query_hub_bucket`] — the "naïve implementation" of Section IV.C
//!   (Algorithm 4): iterate `L(t)`, look up the matching hub bucket in `L(s)`
//!   and scan it.
//! * [`query_merge`] — `Query⁺` (Algorithm 5): a single merge over the two
//!   label lists, which share one hub order (ascending hub rank), with one
//!   binary search per shared hub, running in `O(|L(s)| + |L(t)|)`.
//!
//! All three return the same answers; the ablation benchmark
//! (`query_impl_ablation`) measures their cost difference.

use crate::label::{LabelEntry, LabelSet};
use wcsd_graph::{Distance, Quality, INF_DIST};

/// Algorithm 2: examine every pair of entries of `L(s) × L(t)`.
///
/// `O(|L(s)| · |L(t)|)`; kept as the reference implementation and ablation
/// baseline. Entries failing the quality constraint are filtered out of
/// **both** sides up front, so the quadratic rescan only runs over entries
/// that can actually certify a `w`-path — on workloads with strict
/// constraints this shrinks the inner loop by the fraction of sub-`w`
/// entries, which is what keeps the `medium`-scale ablation CI-tolerable.
pub fn query_pair_scan(ls: &LabelSet, lt: &LabelSet, w: Quality) -> Distance {
    let keep: Vec<&LabelEntry> = lt.entries().iter().filter(|b| b.quality >= w).collect();
    if keep.is_empty() {
        return INF_DIST;
    }
    let mut best = INF_DIST;
    for a in ls.entries() {
        if a.quality < w {
            continue;
        }
        for b in &keep {
            if b.hub == a.hub {
                best = best.min(a.dist.saturating_add(b.dist));
            }
        }
    }
    best
}

/// Algorithm 4: iterate the entries of `L(t)` and, for each hub, binary-search
/// the corresponding bucket `L(s)[hub]`.
pub fn query_hub_bucket(ls: &LabelSet, lt: &LabelSet, w: Quality) -> Distance {
    let mut best = INF_DIST;
    for (hub, t_group) in lt.hub_groups() {
        let s_group = ls.hub_group(hub);
        if s_group.is_empty() {
            continue;
        }
        let Some(dt) = LabelSet::min_dist_in_group(t_group, w) else { continue };
        if let Some(ds) = LabelSet::min_dist_in_group(s_group, w) {
            best = best.min(ds.saturating_add(dt));
        }
    }
    best
}

/// `Query⁺` (Algorithm 5): merge the two rank-sorted label lists, spending
/// `O(log)` per shared hub thanks to the Theorem-3 ordering; total time
/// `O(|L(s)| + |L(t)|)`.
pub fn query_merge(ls: &LabelSet, lt: &LabelSet, w: Quality) -> Distance {
    meeting_hub(ls, lt, w).map_or(INF_DIST, |(_, d)| d)
}

/// The `Query⁺` merge that also names where the two sides meet: the rank of
/// the lowest-ranked hub of minimal combined distance and that distance, or
/// `None` if no shared hub qualifies at `w`.
pub(crate) fn meeting_hub(ls: &LabelSet, lt: &LabelSet, w: Quality) -> Option<(u32, Distance)> {
    let a = ls.entries();
    let b = lt.entries();
    let mut best: Option<(u32, Distance)> = None;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ha = a[i].hub;
        let hb = b[j].hub;
        if ha < hb {
            i = skip_group(a, i);
        } else if hb < ha {
            j = skip_group(b, j);
        } else {
            let ia_end = skip_group(a, i);
            let jb_end = skip_group(b, j);
            let ga = &a[i..ia_end];
            let gb = &b[j..jb_end];
            if let (Some(da), Some(db)) =
                (LabelSet::min_dist_in_group(ga, w), LabelSet::min_dist_in_group(gb, w))
            {
                let d = da.saturating_add(db);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((ha, d));
                }
            }
            i = ia_end;
            j = jb_end;
        }
    }
    best
}

/// Advances `idx` past the contiguous group of entries sharing
/// `entries[idx].hub`.
#[inline]
fn skip_group(entries: &[LabelEntry], idx: usize) -> usize {
    let hub = entries[idx].hub;
    let mut k = idx + 1;
    while k < entries.len() && entries[k].hub == hub {
        k += 1;
    }
    k
}

/// The *cover query* of Line 11 of Algorithm 3 as one merge: does the index
/// certify a `w`-path between the two vertices of length at most `d`? The
/// builders ask it through the sweep engine's `T_w` array instead.
pub fn covered(ls: &LabelSet, lt: &LabelSet, w: Quality, d: Distance) -> bool {
    // `query_merge` signals "no w-path" with `INF_DIST`, which must not count
    // as covered even for the loosest possible bound `d == INF_DIST`.
    let dist = query_merge(ls, lt, w);
    dist != INF_DIST && dist <= d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;
    use wcsd_graph::INF_QUALITY;

    fn set(entries: &[(u32, u32, u32)]) -> LabelSet {
        LabelSet::from_sorted(entries.iter().map(|&(h, d, w)| LabelEntry::new(h, d, w)).collect())
    }

    /// The query of Example 3 in the paper: Q(v2, v5, 2) over the Table II
    /// labels must return 2.
    #[test]
    fn example3_query_v2_v5() {
        let l_v2 = set(&[(0, 2, 3), (1, 1, 5), (2, 0, INF_QUALITY)]);
        let l_v5 = set(&[
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
        ]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&l_v2, &l_v5, 2), 2);
            assert_eq!(f(&l_v2, &l_v5, 3), 3);
            assert_eq!(f(&l_v2, &l_v5, 1), 2);
        }
    }

    #[test]
    fn all_implementations_agree_on_unreachable() {
        let a = set(&[(0, 1, 2)]);
        let b = set(&[(1, 1, 2)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&a, &b, 1), INF_DIST, "no shared hub");
        }
        let c = set(&[(0, 1, 1)]);
        let d = set(&[(0, 1, 1)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&c, &d, 5), INF_DIST, "shared hub but quality too low");
        }
    }

    #[test]
    fn self_label_gives_zero_distance() {
        let s = set(&[(3, 0, INF_QUALITY)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&s, &s, 100), 0);
        }
    }

    #[test]
    fn quality_threshold_picks_longer_entries() {
        // Hub 0 reachable from s at (1, 5); from t at (2, 1) or (4, 7).
        let s = set(&[(0, 1, 5)]);
        let t = set(&[(0, 2, 1), (0, 4, 7)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&s, &t, 1), 3);
            assert_eq!(f(&s, &t, 2), 5);
            assert_eq!(f(&s, &t, 6), INF_DIST);
        }
    }

    #[test]
    fn covered_respects_distance_bound() {
        let s = set(&[(0, 1, 5)]);
        let t = set(&[(0, 2, 4)]);
        assert!(covered(&s, &t, 4, 3));
        assert!(covered(&s, &t, 4, 4));
        assert!(!covered(&s, &t, 4, 2));
        assert!(!covered(&s, &t, 5, 10));
    }

    #[test]
    fn empty_label_sets() {
        let e = LabelSet::new();
        let s = set(&[(0, 1, 1)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&e, &s, 1), INF_DIST);
            assert_eq!(f(&e, &e, 1), INF_DIST);
        }
    }

    #[test]
    fn saturating_addition_avoids_overflow() {
        let s = set(&[(0, u32::MAX - 1, 3)]);
        let t = set(&[(0, 5, 3)]);
        for f in [query_pair_scan, query_hub_bucket, query_merge] {
            assert_eq!(f(&s, &t, 1), u32::MAX);
        }
    }
}
