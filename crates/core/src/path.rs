//! Quality constrained shortest **path** queries (Section V of the paper).
//!
//! To return the actual path rather than just its length, the label entries
//! become quads `(hub, dist, quality, parent)` where `parent` is the
//! predecessor of the labelled vertex on the minimal path towards the hub
//! recorded during the construction BFS. A path is reconstructed by walking
//! parents from both endpoints towards the meeting hub.

use crate::label::{LabelEntry, LabelSet};
use wcsd_graph::{Distance, Graph, Quality, VertexId, INF_QUALITY};
use wcsd_order::{OrderingStrategy, VertexOrder};

/// A label quad `(hub, dist, quality, parent)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLabelEntry {
    /// The hub vertex.
    pub hub: VertexId,
    /// Constrained distance to the hub.
    pub dist: Distance,
    /// Quality threshold this entry certifies.
    pub quality: Quality,
    /// Predecessor of the labelled vertex on the recorded path towards the
    /// hub (equal to the labelled vertex itself for `dist == 0`).
    pub parent: VertexId,
}

/// Per-vertex quad label set, kept sorted by `(hub, dist)`.
#[derive(Debug, Clone, Default)]
struct PathLabelSet {
    entries: Vec<PathLabelEntry>,
}

impl PathLabelSet {
    fn finalize(&mut self) {
        self.entries.sort_unstable_by_key(|e| (e.hub, e.dist));
    }

    fn hub_group(&self, hub: VertexId) -> &[PathLabelEntry] {
        let start = self.entries.partition_point(|e| e.hub < hub);
        let end = self.entries.partition_point(|e| e.hub <= hub);
        &self.entries[start..end]
    }

    /// First (minimal-distance) entry in the hub group with `quality >= w`.
    fn min_entry(group: &[PathLabelEntry], w: Quality) -> Option<&PathLabelEntry> {
        let idx = group.partition_point(|e| e.quality < w);
        group.get(idx)
    }
}

/// A WC-INDEX variant that can reconstruct quality constrained shortest paths.
///
/// ```
/// use wcsd_core::path::PathIndex;
/// use wcsd_graph::generators::paper_figure3;
///
/// let g = paper_figure3();
/// let index = PathIndex::build(&g);
/// let path = index.shortest_path(2, 5, 2).unwrap();
/// assert_eq!(path.first(), Some(&2));
/// assert_eq!(path.last(), Some(&5));
/// assert_eq!(path.len() - 1, 2); // dist²(v2, v5) = 2
/// ```
#[derive(Debug, Clone)]
pub struct PathIndex {
    labels: Vec<PathLabelSet>,
    #[allow(dead_code)]
    order: VertexOrder,
}

impl PathIndex {
    /// Builds a path-capable index with degree ordering.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_ordering(g, OrderingStrategy::Degree)
    }

    /// Builds a path-capable index with the given vertex ordering strategy.
    ///
    /// The construction mirrors Algorithm 3 exactly, additionally threading
    /// the BFS parent of every frontier vertex into the recorded label. The
    /// plain-distance `cover` sets mirror `labels` minus the parent field and
    /// serve the cover queries.
    pub fn build_with_ordering(g: &Graph, ordering: OrderingStrategy) -> Self {
        let order = ordering.compute(g);
        let n = g.num_vertices();
        let mut labels: Vec<PathLabelSet> = (0..n as VertexId)
            .map(|v| PathLabelSet {
                entries: vec![PathLabelEntry { hub: v, dist: 0, quality: INF_QUALITY, parent: v }],
            })
            .collect();
        let mut cover: Vec<LabelSet> = (0..n as VertexId).map(LabelSet::self_label).collect();
        let mut engine = PathEngine::new(n);
        let mut out = Vec::new();
        for &root in order.as_slice() {
            engine.run_root(g, order.ranks(), &cover, root, &mut out);
            for &(v, dist, quality, parent) in &out {
                labels[v as usize].entries.push(PathLabelEntry {
                    hub: root,
                    dist,
                    quality,
                    parent,
                });
                cover[v as usize].push_unordered(LabelEntry::new(root, dist, quality));
            }
        }
        for set in &mut labels {
            set.finalize();
        }
        Self { labels, order }
    }

    /// The `w`-constrained distance between `s` and `t`, if any.
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.best_meeting(s, t, w).map(|(_, d)| d)
    }

    /// Reconstructs a `w`-constrained shortest path from `s` to `t`
    /// (inclusive of both endpoints), or `None` if no `w`-path exists.
    pub fn shortest_path(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Vec<VertexId>> {
        let (hub, _) = self.best_meeting(s, t, w)?;
        let mut first = self.walk_to_hub(s, hub, w)?;
        let second = self.walk_to_hub(t, hub, w)?;
        // `first` runs s -> hub; `second` runs t -> hub. Join them.
        for v in second.into_iter().rev().skip(1) {
            first.push(v);
        }
        Some(first)
    }

    /// Finds the meeting hub minimising the combined distance.
    fn best_meeting(&self, s: VertexId, t: VertexId, w: Quality) -> Option<(VertexId, Distance)> {
        let (ls, lt) = (&self.labels[s as usize], &self.labels[t as usize]);
        let mut best: Option<(VertexId, Distance)> = None;
        let (a, b) = (&ls.entries, &lt.entries);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (ha, hb) = (a[i].hub, b[j].hub);
            if ha < hb {
                i = skip(a, i);
            } else if hb < ha {
                j = skip(b, j);
            } else {
                let ia = skip(a, i);
                let jb = skip(b, j);
                if let (Some(ea), Some(eb)) =
                    (PathLabelSet::min_entry(&a[i..ia], w), PathLabelSet::min_entry(&b[j..jb], w))
                {
                    let d = ea.dist.saturating_add(eb.dist);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((ha, d));
                    }
                }
                i = ia;
                j = jb;
            }
        }
        best
    }

    /// Walks parent pointers from `v` towards `hub`, returning the vertex
    /// sequence `v, …, hub`.
    fn walk_to_hub(&self, v: VertexId, hub: VertexId, w: Quality) -> Option<Vec<VertexId>> {
        let mut path = vec![v];
        let mut current = v;
        // Each hop strictly decreases the recorded distance to the hub, so the
        // loop terminates after at most `dist` iterations.
        loop {
            if current == hub {
                return Some(path);
            }
            let group = self.labels[current as usize].hub_group(hub);
            let entry = PathLabelSet::min_entry(group, w)?;
            if entry.dist == 0 {
                return Some(path);
            }
            let next = entry.parent;
            debug_assert_ne!(next, current, "parent pointer must make progress");
            path.push(next);
            current = next;
        }
    }
}

fn skip(entries: &[PathLabelEntry], idx: usize) -> usize {
    let hub = entries[idx].hub;
    let mut k = idx + 1;
    while k < entries.len() && entries[k].hub == hub {
        k += 1;
    }
    k
}

/// Scratch state for the parent-recording sweeps.
struct PathEngine {
    best_quality: Vec<Quality>,
    touched: Vec<VertexId>,
    parent_of: Vec<VertexId>,
    queued: Vec<bool>,
}

impl PathEngine {
    fn new(n: usize) -> Self {
        Self {
            best_quality: vec![0; n],
            touched: Vec::new(),
            parent_of: vec![0; n],
            queued: vec![false; n],
        }
    }

    /// One Algorithm 3 sweep from `root` against the committed `cover` sets,
    /// pushing surviving `(vertex, dist, quality, parent)` candidates.
    fn run_root(
        &mut self,
        g: &Graph,
        rank: &[u32],
        cover: &[LabelSet],
        root: VertexId,
        out: &mut Vec<(VertexId, Distance, Quality, VertexId)>,
    ) {
        out.clear();
        let root_rank = rank[root as usize];
        // Frontier entries are (vertex, bottleneck quality, BFS parent);
        // the quality and parent are captured when the frontier is sealed
        // so that same-round improvements (which belong to the *next*
        // distance level) cannot corrupt the label recorded here.
        let mut frontier: Vec<(VertexId, Quality, VertexId)> = vec![(root, INF_QUALITY, root)];
        self.best_quality[root as usize] = INF_QUALITY;
        self.parent_of[root as usize] = root;
        self.touched.push(root);
        let mut next: Vec<(VertexId, Quality, VertexId)> = Vec::new();
        let mut dist: Distance = 0;

        while !frontier.is_empty() {
            frontier.sort_unstable_by_key(|&(v, w, _)| (std::cmp::Reverse(w), v));
            for &(u, w, parent) in &frontier {
                if u != root {
                    if crate::query::covered_building(
                        &cover[root as usize],
                        &cover[u as usize],
                        rank,
                        w,
                        dist,
                    ) {
                        continue;
                    }
                    out.push((u, dist, w, parent));
                }
                let ids = g.neighbor_ids(u);
                let quals = g.neighbor_qualities(u);
                for (idx, &v) in ids.iter().enumerate() {
                    if rank[v as usize] <= root_rank {
                        continue;
                    }
                    let w_new = w.min(quals[idx]);
                    if w_new <= self.best_quality[v as usize] {
                        continue;
                    }
                    if self.best_quality[v as usize] == 0 {
                        self.touched.push(v);
                    }
                    self.best_quality[v as usize] = w_new;
                    self.parent_of[v as usize] = u;
                    if !self.queued[v as usize] {
                        self.queued[v as usize] = true;
                        next.push((v, 0, v));
                    }
                }
            }
            for entry in &mut next {
                entry.1 = self.best_quality[entry.0 as usize];
                entry.2 = self.parent_of[entry.0 as usize];
                self.queued[entry.0 as usize] = false;
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            dist += 1;
        }
        for v in self.touched.drain(..) {
            self.best_quality[v as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use wcsd_graph::generators::{paper_figure2, paper_figure3, path_graph, QualityAssigner};
    use wcsd_graph::Graph;

    /// Checks a returned path is a valid `w`-path of the claimed length.
    fn assert_valid_path(g: &Graph, path: &[VertexId], s: VertexId, t: VertexId, w: Quality) {
        assert_eq!(*path.first().unwrap(), s);
        assert_eq!(*path.last().unwrap(), t);
        for pair in path.windows(2) {
            let q = g
                .edge_quality(pair[0], pair[1])
                .unwrap_or_else(|| panic!("({}, {}) is not an edge", pair[0], pair[1]));
            assert!(q >= w, "edge ({}, {}) violates the quality constraint", pair[0], pair[1]);
        }
    }

    #[test]
    fn paths_match_distances_on_figure3() {
        let g = paper_figure3();
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in 0..6 {
            for t in 0..6 {
                for w in 1..=5u32 {
                    let d = didx.distance(s, t, w);
                    assert_eq!(pidx.distance(s, t, w), d, "distance mismatch Q({s},{t},{w})");
                    match d {
                        None => assert!(pidx.shortest_path(s, t, w).is_none()),
                        Some(d) => {
                            let p = pidx.shortest_path(s, t, w).expect("path must exist");
                            assert_eq!(p.len() as u32 - 1, d, "path length != distance");
                            assert_valid_path(&g, &p, s, t, w);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paths_match_distances_on_figure2() {
        let g = paper_figure2();
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in 0..10 {
            for t in 0..10 {
                for w in 1..=3u32 {
                    assert_eq!(pidx.distance(s, t, w), didx.distance(s, t, w));
                    if let Some(d) = didx.distance(s, t, w) {
                        let p = pidx.shortest_path(s, t, w).unwrap();
                        assert_eq!(p.len() as u32 - 1, d);
                        assert_valid_path(&g, &p, s, t, w);
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_paths() {
        let g = path_graph(4, 2);
        let idx = PathIndex::build(&g);
        assert_eq!(idx.shortest_path(1, 1, 5), Some(vec![1]));
        assert_eq!(idx.shortest_path(0, 3, 2), Some(vec![0, 1, 2, 3]));
        assert_eq!(idx.shortest_path(0, 3, 3), None);
    }

    #[test]
    fn random_graph_paths_are_valid() {
        use wcsd_graph::generators::erdos_renyi;
        let g = erdos_renyi(60, 0.08, &QualityAssigner::uniform(4), 17);
        let pidx = PathIndex::build(&g);
        let didx = IndexBuilder::default().build(&g);
        for s in (0..60).step_by(7) {
            for t in (0..60).step_by(5) {
                for w in 1..=4u32 {
                    let d = didx.distance(s, t, w);
                    assert_eq!(pidx.distance(s, t, w), d);
                    if let Some(d) = d {
                        let p = pidx.shortest_path(s, t, w).unwrap();
                        assert_eq!(p.len() as u32 - 1, d);
                        if s != t {
                            assert_valid_path(&g, &p, s, t, w);
                        }
                    }
                }
            }
        }
    }
}
