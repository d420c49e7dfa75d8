//! WC-INDEX construction (Algorithm 3 of the paper) and the query-efficient
//! WC-INDEX+ variant (Section IV.C).
//!
//! The index is built by one *quality- and distance-prioritized constrained
//! BFS* per vertex, in vertex-order sequence. For the BFS rooted at hub `vₖ`:
//!
//! 1. a frontier holds `(vertex, bottleneck quality)` pairs, all at the same
//!    distance `d` (distance order);
//! 2. the per-vertex array `R` remembers the best bottleneck quality of any
//!    path from `vₖ` discovered so far, so each vertex enters a frontier at
//!    most once per distance and only when its quality strictly improves
//!    (Lemma 1);
//! 3. before a label `(vₖ, d, w)` is added to `L(u)`, a *cover query* checks
//!    whether the labels built so far already certify a `w`-path of length
//!    `≤ d` between `vₖ` and `u` — a hub `h` with `(h, d₁, w₁) ∈ L(vₖ)` and
//!    `(h, d₂, w₂) ∈ L(u)`, `min(w₁, w₂) ≥ w` and `d₁ + d₂ ≤ d`; if so the
//!    entry is pruned and the BFS does not expand through `u` (Line 11);
//! 4. only vertices ranked *after* `vₖ` in the vertex order are visited, the
//!    standard pruned-landmark-labeling restriction.
//!
//! The difference between WC-INDEX and WC-INDEX+ is entirely in how step 3 is
//! evaluated:
//!
//! * **Basic** — scan `L(u)` × `L(vₖ)` pairwise (Algorithm 2 style).
//! * **Query-efficient** — the hub-indexed view `T` of `L(vₖ)` is a dense
//!   array `T_w[h] = min { f.dist : f ∈ L(vₖ), f.hub = h, f.quality ≥ w }`
//!   (`∞` where no entry qualifies). It depends only on the root and the
//!   frontier quality `w`, so it is refilled from `L(vₖ)`'s hub groups only
//!   when `w` changes, and each cover query is one flat pass over `L(u)`:
//!   covered iff some `e ∈ L(u)` has `e.quality ≥ w` and
//!   `e.dist + T_w[e.hub] ≤ d` (`O(|L(u)|)`, no group walk, no search).
//!   Index contents are identical; only construction time changes — which
//!   is exactly what the paper reports (Exp 1 vs Exp 2).
//!
//! The paper's "further pruning" memo (remember the highest `w` proven
//! covered for `u` and skip later queries at no larger `w`) is deliberately
//! absent: within one root it can never fire. A vertex enters a frontier
//! only when its `R` value strictly improves and is queried with that sealed
//! `R` value, so every cover query for `u` asks a strictly higher `w` than
//! all earlier ones for `u` — no earlier cover can answer it.
//!
//! # Sweeps run against a snapshot
//!
//! The per-root BFS is implemented by the crate-internal `SweepEngine`, which *reads*
//! the label sets committed by previously processed roots but *writes* its own
//! candidate labels to a side buffer that is committed after the sweep
//! finishes. This is observably identical to mutating `L(u)` in place during
//! the sweep, because a root's own fresh labels can never satisfy one of its
//! own cover queries: a vertex re-enters the frontier only when its bottleneck
//! quality *strictly improves* (the R-array rule), so every earlier own-label
//! at `u` has strictly smaller quality than the entry currently being tested,
//! while a cover needs quality at least as large. The decremental repair
//! ([`crate::decremental`]) relies on the same argument when it re-sweeps one
//! hub against otherwise committed labels.

use crate::index::WcIndex;
use crate::label::{LabelEntry, LabelSet};
use std::time::Instant;
use wcsd_graph::{Distance, Graph, Quality, VertexId, INF_DIST, INF_QUALITY};
use wcsd_order::{OrderingStrategy, VertexOrder};

/// Which cover-query implementation the builder uses (WC-INDEX vs WC-INDEX+).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConstructionMode {
    /// Basic WC-INDEX: pairwise cover queries.
    Basic,
    /// WC-INDEX+: cover queries against a dense per-root distance array.
    #[default]
    QueryEfficient,
}

/// Configuration of [`IndexBuilder`].
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Vertex ordering strategy (Section IV.D).
    pub ordering: OrderingStrategy,
    /// Cover-query implementation used while building.
    pub mode: ConstructionMode,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self { ordering: OrderingStrategy::Degree, mode: ConstructionMode::QueryEfficient }
    }
}

/// Builds [`WcIndex`] values from graphs.
#[derive(Debug, Clone, Default)]
pub struct IndexBuilder {
    config: BuildConfig,
}

impl IndexBuilder {
    /// Builder with the default configuration (degree ordering,
    /// query-efficient construction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the vertex ordering strategy.
    pub fn ordering(mut self, ordering: OrderingStrategy) -> Self {
        self.config.ordering = ordering;
        self
    }

    /// Sets the construction mode.
    pub fn mode(mut self, mode: ConstructionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// The paper's basic WC-INDEX configuration with degree ordering.
    pub fn wc_index() -> Self {
        Self {
            config: BuildConfig {
                ordering: OrderingStrategy::Degree,
                mode: ConstructionMode::Basic,
            },
        }
    }

    /// The paper's WC-INDEX+ configuration: query-efficient construction and
    /// the hybrid vertex ordering.
    pub fn wc_index_plus() -> Self {
        Self {
            config: BuildConfig {
                ordering: OrderingStrategy::Hybrid,
                mode: ConstructionMode::QueryEfficient,
            },
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// Builds the index for `g` with a freshly computed vertex order.
    pub fn build(&self, g: &Graph) -> WcIndex {
        let t_order = Instant::now();
        let order = self.config.ordering.compute(g);
        record_build_phase("order", t_order.elapsed());
        self.build_with_order(g, order)
    }

    /// Builds the index for `g` under a caller-supplied vertex order.
    pub fn build_with_order(&self, g: &Graph, order: VertexOrder) -> WcIndex {
        assert_eq!(
            order.len(),
            g.num_vertices(),
            "vertex order must cover every vertex of the graph"
        );
        let t_total = Instant::now();
        let n = g.num_vertices();
        let mut labels: Vec<LabelSet> = (0..n as VertexId).map(LabelSet::self_label).collect();
        let mut engine = SweepEngine::new(n);
        let mut out = Vec::new();
        for &root in order.as_slice() {
            engine.run_root(g, order.ranks(), &labels, root, self.config.mode, &mut out);
            for &(v, d, w) in &out {
                labels[v as usize].push_unordered(LabelEntry::new(root, d, w));
            }
        }
        record_build_phase("sweep", t_total.elapsed());
        let t_finalize = Instant::now();
        for set in &mut labels {
            set.finalize();
        }
        let index = WcIndex::from_parts(labels, order);
        record_build_phase("finalize", t_finalize.elapsed());
        let obs = wcsd_obs::global();
        obs.counter("wcsd_builds_total", "Index builds completed").inc();
        obs.tracer().record(
            "build",
            &format!("vertices={} entries={}", index.num_vertices(), index.total_entries()),
            u64::try_from(t_total.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        index
    }
}

/// Records one construction phase into the process-global metrics registry
/// as `wcsd_build_phase_us{phase=...}`. Construction is offline work, so the
/// samples are unconditional — there is no hot path to protect.
fn record_build_phase(phase: &'static str, took: std::time::Duration) {
    wcsd_obs::global()
        .histogram_with(
            "wcsd_build_phase_us",
            &[("phase", phase)],
            "Index construction phase latency in microseconds",
        )
        .record_duration(took);
}

/// Reusable scratch state for running root sweeps. The `R` and
/// `T_w` arrays are allocated once and reset sparsely (the "Efficient
/// Initialization" paragraph of Section IV.C).
pub(crate) struct SweepEngine {
    /// `R(v)`: best bottleneck quality of any path from the current root to v.
    best_quality: Vec<Quality>,
    touched_quality: Vec<VertexId>,
    /// `T_w[h]`: shortest distance from the current root to hub `h` among
    /// the root's entries of quality `≥ root_dist_quality` (`INF_DIST` if
    /// none). Only hubs of `L(root)` are ever written.
    root_dist: Vec<Distance>,
    /// The `w` that `root_dist` holds; `None` until the root's first cover
    /// query. Frontier qualities are always `≥ 1` (a vertex is enqueued only
    /// when its `R` value rises above 0), but the cache does not rely on it.
    root_dist_quality: Option<Quality>,
    /// Scratch: whether a vertex is already queued for the next frontier.
    queued: Vec<bool>,
}

impl SweepEngine {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            best_quality: vec![0; n],
            touched_quality: Vec::new(),
            root_dist: vec![INF_DIST; n],
            root_dist_quality: None,
            queued: vec![false; n],
        }
    }

    /// Runs the quality- and distance-prioritized constrained BFS rooted at
    /// `root` against the committed `labels`, clearing `out` and pushing one
    /// `(vertex, dist, quality)` candidate per label entry that survives the
    /// cover-query pruning.
    pub(crate) fn run_root(
        &mut self,
        graph: &Graph,
        rank: &[u32],
        labels: &[LabelSet],
        root: VertexId,
        mode: ConstructionMode,
        out: &mut Vec<(VertexId, Distance, Quality)>,
    ) {
        out.clear();
        let root_rank = rank[root as usize];

        // Frontier of the current distance; every entry is (vertex, quality).
        let mut frontier: Vec<(VertexId, Quality)> = vec![(root, INF_QUALITY)];
        self.best_quality[root as usize] = INF_QUALITY;
        self.touched_quality.push(root);
        let mut next: Vec<(VertexId, Quality)> = Vec::new();
        let mut dist: Distance = 0;

        while !frontier.is_empty() {
            // Quality order: within one distance level, handle the entries
            // with the largest bottleneck quality first (the paper's second
            // priority). With the R-array deduplication this does not change
            // the produced labels, but it keeps the processing order aligned
            // with the proof of Theorem 1, and it makes `w` change at most
            // once per distinct quality of a level for the `T_w` refill.
            frontier.sort_unstable_by_key(|&(v, w)| (std::cmp::Reverse(w), v));

            for &(u, w) in &frontier {
                let is_root = u == root;
                if !is_root {
                    // Line 11: prune if the current index already covers the
                    // pair (root, u) at quality w within distance `dist`.
                    let covered = match mode {
                        ConstructionMode::Basic => is_covered_basic(labels, root, u, w, dist),
                        ConstructionMode::QueryEfficient => {
                            self.is_covered_efficient(labels, root, u, w, dist)
                        }
                    };
                    if covered {
                        continue;
                    }
                    // Line 12: the entry is minimal and necessary — keep it.
                    out.push((u, dist, w));
                }
                // Lines 13-16: expand to less important neighbours whose best
                // known bottleneck quality improves.
                let ids = graph.neighbor_ids(u);
                let quals = graph.neighbor_qualities(u);
                for (idx, &v) in ids.iter().enumerate() {
                    if rank[v as usize] <= root_rank {
                        continue;
                    }
                    let w_new = w.min(quals[idx]);
                    if w_new <= self.best_quality[v as usize] {
                        continue;
                    }
                    if self.best_quality[v as usize] == 0 {
                        self.touched_quality.push(v);
                    }
                    self.best_quality[v as usize] = w_new;
                    if !self.queued[v as usize] {
                        self.queued[v as usize] = true;
                        next.push((v, 0));
                    }
                }
            }

            // Line 17: seal the next frontier with the final R values.
            for entry in &mut next {
                entry.1 = self.best_quality[entry.0 as usize];
                self.queued[entry.0 as usize] = false;
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            dist += 1;
        }

        for v in self.touched_quality.drain(..) {
            self.best_quality[v as usize] = 0;
        }
        if self.root_dist_quality.take().is_some() {
            for f in labels[root as usize].entries() {
                self.root_dist[f.hub as usize] = INF_DIST;
            }
        }
    }

    /// WC-INDEX+ cover query: one pass over `L(u)` against `T_w`, which is
    /// refilled from `L(root)` first if `w` differs from the quality it
    /// holds. Each hub's entries are contiguous in `L(root)` (hubs commit
    /// whole, in rank order, or the set is finalized) and form a Theorem-3
    /// group, so the refill overwrites every hub of `L(root)` once.
    fn is_covered_efficient(
        &mut self,
        labels: &[LabelSet],
        root: VertexId,
        u: VertexId,
        w: Quality,
        d: Distance,
    ) -> bool {
        if self.root_dist_quality != Some(w) {
            for (hub, group) in labels[root as usize].hub_groups() {
                self.root_dist[hub as usize] =
                    LabelSet::min_dist_in_group(group, w).unwrap_or(INF_DIST);
            }
            self.root_dist_quality = Some(w);
        }
        let root_dist = &self.root_dist;
        labels[u as usize]
            .entries()
            .iter()
            .any(|e| e.quality >= w && root_dist[e.hub as usize].saturating_add(e.dist) <= d)
    }
}

/// Basic WC-INDEX cover query: for every entry of `L(u)` scan the whole of
/// `L(root)` for matching hubs (the Algorithm 2 strategy).
fn is_covered_basic(
    labels: &[LabelSet],
    root: VertexId,
    u: VertexId,
    w: Quality,
    d: Distance,
) -> bool {
    let lu = labels[u as usize].entries();
    let lr = labels[root as usize].entries();
    for eu in lu {
        if eu.quality < w || eu.dist > d {
            continue;
        }
        for er in lr {
            if er.hub == eu.hub && er.quality >= w && er.dist.saturating_add(eu.dist) <= d {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QueryImpl;
    use crate::query;
    use wcsd_graph::generators::{
        barabasi_albert, paper_figure2, paper_figure3, path_graph, road_grid, star_graph,
        QualityAssigner, RoadGridConfig,
    };
    use wcsd_order::natural_order;

    /// Reference oracle: constrained BFS on the graph itself.
    fn oracle(g: &Graph, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        use std::collections::VecDeque;
        let mut dist = vec![u32::MAX; g.num_vertices()];
        let mut q = VecDeque::new();
        dist[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            if u == t {
                return Some(dist[u as usize]);
            }
            for (v, quality) in g.neighbors(u) {
                if quality >= w && dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        None
    }

    fn assert_matches_oracle(g: &Graph, idx: &WcIndex) {
        let qualities = g.distinct_qualities();
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                for &w in &qualities {
                    let expected = oracle(g, s, t, w);
                    for imp in [QueryImpl::Merge, QueryImpl::Chunked] {
                        assert_eq!(
                            idx.distance_with(s, t, w, imp),
                            expected,
                            "mismatch for Q({s}, {t}, {w}) with {imp:?}"
                        );
                    }
                    // Algorithms 2 and 4, the ablation baselines, over the
                    // same label sets.
                    let (ls, lt) = (idx.labels(s), idx.labels(t));
                    for d in [query::query_pair_scan(ls, lt, w), query::query_hub_bucket(ls, lt, w)]
                    {
                        assert_eq!((d != INF_DIST).then_some(d), expected, "Q({s}, {t}, {w})");
                    }
                }
            }
        }
    }

    #[test]
    fn figure3_all_queries_match_oracle() {
        let g = paper_figure3();
        for builder in [
            IndexBuilder::wc_index(),
            IndexBuilder::wc_index_plus(),
            IndexBuilder::new().ordering(OrderingStrategy::Natural),
            IndexBuilder::new().ordering(OrderingStrategy::TreeDecomposition),
        ] {
            let idx = builder.build(&g);
            assert_matches_oracle(&g, &idx);
        }
    }

    #[test]
    fn figure3_example_distances_from_paper() {
        // Example 1/3 of the paper, transposed to Figure 3's graph.
        let g = paper_figure3();
        let idx = IndexBuilder::default().build(&g);
        assert_eq!(idx.distance(2, 5, 2), Some(2));
        assert_eq!(idx.distance(2, 5, 3), Some(3));
        assert_eq!(idx.distance(0, 4, 1), Some(2));
        assert_eq!(idx.distance(0, 4, 3), Some(4));
        assert_eq!(idx.distance(1, 3, 4), Some(2));
    }

    #[test]
    fn figure2_example1_distances() {
        let g = paper_figure2();
        let idx = IndexBuilder::default().build(&g);
        // dist¹(v0, v8) = 2 via v0→v2→v8; dist²(v0, v8) = 3 via v0→v1→v2→v8.
        assert_eq!(idx.distance(0, 8, 1), Some(2));
        assert_eq!(idx.distance(0, 8, 2), Some(3));
        assert_matches_oracle(&g, &idx);
    }

    #[test]
    fn natural_order_on_figure3_reproduces_table2_shape() {
        // Table II lists |L| = 1,2,3,7,8,11 for v0..v5 under the natural
        // hierarchy (v0 most important). Our natural order uses vertex 0 as
        // the most important hub as well, so label counts must match.
        let g = paper_figure3();
        let idx = IndexBuilder::new().ordering(OrderingStrategy::Natural).build(&g);
        let sizes: Vec<usize> = (0..6).map(|v| idx.labels(v).len()).collect();
        assert_eq!(sizes, vec![1, 2, 3, 7, 8, 11]);
        assert_matches_oracle(&g, &idx);
    }

    #[test]
    fn both_modes_produce_identical_indexes() {
        let assert_modes_agree = |g: &Graph, order: VertexOrder, case: &str| {
            let basic = IndexBuilder::new()
                .mode(ConstructionMode::Basic)
                .build_with_order(g, order.clone());
            let plus = IndexBuilder::new()
                .mode(ConstructionMode::QueryEfficient)
                .build_with_order(g, order);
            assert_eq!(basic.total_entries(), plus.total_entries(), "{case}");
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(basic.labels(v), plus.labels(v), "{case}: labels differ at v{v}");
            }
        };
        let g = paper_figure2();
        assert_modes_agree(&g, natural_order(&g), "figure 2, natural order");
        // With 20 levels a BFS level holds many distinct qualities, so the
        // query-efficient `T_w` array is refilled within a level.
        for levels in [1, 5, 20] {
            let qualities = QualityAssigner::uniform(levels);
            let road = road_grid(&RoadGridConfig::square(12), &qualities, 7);
            let social = barabasi_albert(150, 3, &qualities, 7);
            for (name, g) in [("road_grid(12)", road), ("barabasi_albert(150, 3)", social)] {
                let order = OrderingStrategy::Hybrid.compute(&g);
                assert_modes_agree(&g, order, &format!("{name}, {levels} levels"));
            }
        }
    }

    #[test]
    fn index_is_minimal_and_necessary_on_small_graphs() {
        for g in [paper_figure3(), paper_figure2(), star_graph(8, 2), path_graph(9, 1)] {
            let idx = IndexBuilder::default().build(&g);
            assert!(idx.dominated_entries().is_empty(), "dominated entries found");
            assert!(idx.unnecessary_entries().is_empty(), "unnecessary entries found");
        }
    }

    #[test]
    fn unreachable_pairs_return_none() {
        let mut b = wcsd_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 2);
        let g = b.build();
        let idx = IndexBuilder::default().build(&g);
        assert_eq!(idx.distance(0, 2, 1), None);
        assert_eq!(idx.distance(0, 1, 4), None, "quality constraint unsatisfiable");
        assert_eq!(idx.distance(0, 1, 3), Some(1));
        assert_eq!(idx.distance(3, 3, 9), Some(0), "self distance is always 0");
    }

    #[test]
    fn within_predicate() {
        let g = paper_figure3();
        let idx = IndexBuilder::default().build(&g);
        assert!(idx.within(2, 5, 2, 2));
        assert!(idx.within(2, 5, 2, 5));
        assert!(idx.within(2, 5, 3, 4), "dist³(v2, v5) = 3 ≤ 4");
        assert!(!idx.within(2, 5, 3, 2), "dist³(v2, v5) = 3 > 2");
        assert!(!idx.within(2, 5, 9, 100));
    }

    #[test]
    #[should_panic(expected = "vertex order must cover")]
    fn mismatched_order_length_panics() {
        let g = paper_figure3();
        let small = VertexOrder::from_permutation(vec![0, 1, 2]);
        let _ = IndexBuilder::default().build_with_order(&g, small);
    }
}
