//! WC-INDEX construction (Algorithm 3 of the paper) and the query-efficient
//! WC-INDEX+ variant (Section IV.C).
//!
//! The index is built by one *quality- and distance-prioritized constrained
//! search* per vertex, in vertex-order sequence. For the search rooted at
//! hub `vₖ`:
//!
//! 1. a frontier holds `(vertex, bottleneck quality, parent)` states, every
//!    pending state at the smallest pending distance `d` (distance order).
//!    With unit edge lengths that is one BFS level; with integer lengths
//!    (Section V) it is Dijkstra's settle order;
//! 2. the per-vertex array `R` remembers the best bottleneck quality of any
//!    path from `vₖ` no longer than `d`. It rises when a frontier is
//!    sealed, and a sealed state that does not strictly improve it is
//!    dropped, so each vertex is settled at most once per distance and only
//!    when its quality strictly improves (Lemma 1);
//! 3. before a label `(vₖ, d, w)` is added to `L(u)`, a *cover query* checks
//!    whether the labels built so far already certify a `w`-path of length
//!    `≤ d` between `vₖ` and `u` — a hub `h` with `(h, d₁, w₁) ∈ L(vₖ)` and
//!    `(h, d₂, w₂) ∈ L(u)`, `min(w₁, w₂) ≥ w` and `d₁ + d₂ ≤ d`; if so the
//!    entry is pruned and the search does not expand through `u` (Line 11);
//! 4. only vertices ranked *after* `vₖ` in the vertex order are visited, the
//!    standard pruned-landmark-labeling restriction.
//!
//! The difference between WC-INDEX and WC-INDEX+ is entirely in how step 3 is
//! evaluated:
//!
//! * **Basic** — scan `L(u)` × `L(vₖ)` pairwise (Algorithm 2 style).
//! * **Query-efficient** — the hub-indexed view `T` of `L(vₖ)` is a dense
//!   array `T_w[h] = min { f.dist : f ∈ L(vₖ), f.hub = h, f.quality ≥ w }`
//!   over hub *ranks* `h` (`∞` where no entry qualifies). It depends only on
//!   the root and the frontier quality `w`, so it is refilled from `L(vₖ)`'s
//!   hub groups only when `w` changes, and each cover query is one flat pass
//!   over `L(u)`: covered iff some `e ∈ L(u)` has `e.quality ≥ w` and
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
//! # One label order
//!
//! Every label set starts empty. At root `vₖ`'s turn the builder first
//! appends `vₖ`'s self label `(rank(vₖ), 0, ∞)` to `L(vₖ)`, then sweeps, then
//! appends the root's entries — all keyed `rank(vₖ)` — to the sets of the
//! lower-ranked vertices the sweep reached. Roots run in rank order, so
//! every set is born ascending by `(hub rank, dist)` with its self label
//! last, and nothing re-sorts it. Deferring the self label is safe because
//! self labels never take part in a construction cover query: `L(u)` holds
//! no entry of hub `vₖ` until `vₖ`'s sweep commits, and `L(vₖ)` never holds
//! hub `u`, which is ranked after `vₖ`.
//!
//! # Sweeps run against a snapshot
//!
//! The per-root search is implemented by the crate-internal `SweepEngine`,
//! the crate's one constrained search. The build runs it, and so do the
//! path index ([`crate::path`], which keeps each entry's parent), the
//! directed index ([`crate::directed`], one sweep over out-arcs and one over
//! in-arcs per root, each testing one label family of the root against the
//! other family) and the weighted index ([`crate::weighted`], whose arcs
//! carry their lengths). It *reads* the label sets committed by previously
//! processed roots but *writes* its own candidate labels to a side buffer
//! that is committed after the sweep finishes. This is observably identical
//! to mutating `L(u)` in place during the sweep, because a root's own fresh
//! labels can never satisfy one of its own cover queries: a vertex is
//! settled again only when its bottleneck quality *strictly improves* (the
//! R-array rule), so every earlier own-label at `u` has strictly smaller
//! quality than the entry currently being tested, while a cover needs
//! quality at least as large.

use crate::index::WcIndex;
use crate::label::{LabelEntry, LabelSet};
use std::collections::BTreeMap;
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
        let arcs = |u| g.neighbors(u).map(|(v, q)| (v, q, 1));
        let mut labels = sweep_roots(arcs, &order, self.config.mode, |_, _| {});
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

/// One label entry a sweep keeps: `(vertex, dist, quality, parent)`, where
/// `parent` is the vertex's predecessor on the recorded path from the root
/// (the root itself for the root's neighbours).
pub(crate) type Candidate = (VertexId, Distance, Quality, VertexId);

/// A pending state `(vertex, bottleneck quality, parent)` of a sweep.
type State = (VertexId, Quality, VertexId);

/// Algorithm 3's outer loop over `order`: at each root's turn, appends its
/// self label, sweeps it against the committed labels and appends its kept
/// entries, all keyed by the root's rank. `arcs(u)` yields `u`'s neighbours
/// with edge qualities and lengths (1 on an unweighted graph).
/// `entry_parent(v, parent)` is called once per entry appended to `L(v)`, in
/// append order, with the entry's parent (`v` itself for the self label).
pub(crate) fn sweep_roots<I: Iterator<Item = (VertexId, Quality, Distance)>>(
    arcs: impl Fn(VertexId) -> I,
    order: &VertexOrder,
    mode: ConstructionMode,
    mut entry_parent: impl FnMut(VertexId, VertexId),
) -> Vec<LabelSet> {
    let n = order.len();
    let mut labels = vec![LabelSet::new(); n];
    let mut engine = SweepEngine::new(n, mode);
    let mut out = Vec::new();
    for (rank, &root) in (0..).zip(order.as_slice()) {
        labels[root as usize].push(LabelEntry::self_label(rank));
        entry_parent(root, root);
        engine.run_root(&arcs, order.ranks(), root, &labels[root as usize], &labels, &mut out);
        for &(v, d, w, parent) in &out {
            labels[v as usize].push(LabelEntry::new(rank, d, w));
            entry_parent(v, parent);
        }
    }
    labels
}

/// Reusable scratch state for running root sweeps. The `R`, slot and `T_w`
/// arrays are allocated once and reset sparsely, if at all (the "Efficient
/// Initialization" paragraph of Section IV.C).
pub(crate) struct SweepEngine {
    mode: ConstructionMode,
    /// `R(v)`: best bottleneck quality of a sealed state of v.
    best_quality: Vec<Quality>,
    touched_quality: Vec<VertexId>,
    /// `T_w[h]`: shortest distance from the current root to the hub ranked
    /// `h` among the root's entries of quality `≥ root_dist_quality`
    /// (`INF_DIST` if none). Only hubs of the root's label set are written.
    root_dist: Vec<Distance>,
    /// The `w` that `root_dist` holds; `None` until the root's first cover
    /// query. Frontier qualities are always `≥ 1` (a state is kept only if
    /// it raises `R` above 0), but the cache does not rely on it.
    root_dist_quality: Option<Quality>,
    /// `slot[v]`: the index of v's latest pending state in its bucket, trusted
    /// only where that bucket holds v there (so it is never reset).
    slot: Vec<usize>,
    /// Pending states beyond the next distance, bucketed by distance. Only
    /// arcs longer than 1 fill it.
    later: BTreeMap<Distance, Vec<State>>,
}

impl SweepEngine {
    pub(crate) fn new(n: usize, mode: ConstructionMode) -> Self {
        Self {
            mode,
            best_quality: vec![0; n],
            touched_quality: Vec::new(),
            root_dist: vec![INF_DIST; n],
            root_dist_quality: None,
            slot: vec![0; n],
            later: BTreeMap::new(),
        }
    }

    /// Runs the quality- and distance-prioritized constrained search rooted
    /// at `root` over `arcs`, clearing `out` and pushing one candidate per
    /// label entry that survives the cover-query pruning. A cover query for
    /// `u` tests the root's own label set `root_labels` against `labels[u]`,
    /// the family the sweep's entries join: `L(root)` against `L` on an
    /// undirected graph; on a digraph `L_out(root)` against `L_in` for the
    /// forward sweep over out-arcs and `L_in(root)` against `L_out` for the
    /// backward sweep over in-arcs.
    pub(crate) fn run_root<I: Iterator<Item = (VertexId, Quality, Distance)>>(
        &mut self,
        arcs: impl Fn(VertexId) -> I,
        rank: &[u32],
        root: VertexId,
        root_labels: &LabelSet,
        labels: &[LabelSet],
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        let root_rank = rank[root as usize];

        // The frontier holds every pending state at distance `dist`, `next`
        // those at `dist + 1` and `self.later` those farther out. A state's
        // quality and parent are final once its frontier is sealed.
        let mut frontier: Vec<State> = vec![(root, INF_QUALITY, root)];
        let mut next: Vec<State> = Vec::new();
        let mut dist: Distance = 0;

        loop {
            // Quality order: within one distance, handle the states with the
            // largest bottleneck quality first (the paper's second priority),
            // so the seal keeps only a vertex's best state, and `w` changes at
            // most once per distinct quality of a frontier for the `T_w` refill.
            frontier.sort_unstable_by_key(|&(v, w, _)| (std::cmp::Reverse(w), v));
            // Seal (Line 17): a state raises `R(v)`, or is dropped if a state
            // of v no farther from the root had at least its quality (Lemma 1).
            frontier.retain(|&(v, w, _)| {
                let best = &mut self.best_quality[v as usize];
                if *best == 0 {
                    self.touched_quality.push(v);
                }
                let raised = w > *best;
                *best = (*best).max(w);
                raised
            });

            for &(u, w, parent) in &frontier {
                if u != root {
                    // Line 11: prune if the current index already covers the
                    // pair (root, u) at quality w within distance `dist`.
                    let lu = &labels[u as usize];
                    let covered = match self.mode {
                        ConstructionMode::Basic => is_covered_basic(root_labels, lu, w, dist),
                        ConstructionMode::QueryEfficient => {
                            self.is_covered_efficient(root_labels, lu, w, dist)
                        }
                    };
                    if covered {
                        continue;
                    }
                    // Line 12: the entry is minimal and necessary — keep it.
                    out.push((u, dist, w, parent));
                }
                // Lines 13-16: expand to less important neighbours whose
                // sealed bottleneck quality the arc would improve.
                for (v, q, len) in arcs(u) {
                    let w_new = w.min(q);
                    if rank[v as usize] <= root_rank || w_new <= self.best_quality[v as usize] {
                        continue;
                    }
                    // A length sum saturates to `INF_DIST`, which is no distance.
                    let d_new = dist.saturating_add(len);
                    if d_new == INF_DIST {
                        continue;
                    }
                    let bucket =
                        if len == 1 { &mut next } else { self.later.entry(d_new).or_default() };
                    // A discovery at a distance that holds v's latest state
                    // raises it in place; any other adds a state.
                    match bucket.get_mut(self.slot[v as usize]) {
                        Some(state) if state.0 == v => {
                            if w_new > state.1 {
                                *state = (v, w_new, u);
                            }
                        }
                        _ => {
                            self.slot[v as usize] = bucket.len();
                            bucket.push((v, w_new, u));
                        }
                    }
                }
            }

            // Move to the smallest pending distance: `dist + 1` if an arc of
            // length 1 reached it (with unit lengths, always the next BFS
            // level), else the first bucket's.
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            dist = match self.later.keys().next() {
                _ if !frontier.is_empty() => dist + 1,
                Some(&d) => d,
                None => break,
            };
            frontier.extend(self.later.remove(&dist).into_iter().flatten());
        }

        for v in self.touched_quality.drain(..) {
            self.best_quality[v as usize] = 0;
        }
        if self.root_dist_quality.take().is_some() {
            for f in root_labels.entries() {
                self.root_dist[f.hub as usize] = INF_DIST;
            }
        }
    }

    /// WC-INDEX+ cover query: one pass over `lu` against `T_w`, which is
    /// refilled from `root_labels` first if `w` differs from the quality it
    /// holds. Each hub's entries are contiguous in `root_labels` (hubs
    /// commit whole, in rank order) and form a Theorem-3 group, so the
    /// refill overwrites every hub of `root_labels` once.
    fn is_covered_efficient(
        &mut self,
        root_labels: &LabelSet,
        lu: &LabelSet,
        w: Quality,
        d: Distance,
    ) -> bool {
        if self.root_dist_quality != Some(w) {
            for (hub, group) in root_labels.hub_groups() {
                self.root_dist[hub as usize] =
                    LabelSet::min_dist_in_group(group, w).unwrap_or(INF_DIST);
            }
            self.root_dist_quality = Some(w);
        }
        let root_dist = &self.root_dist;
        lu.entries()
            .iter()
            .any(|e| e.quality >= w && root_dist[e.hub as usize].saturating_add(e.dist) <= d)
    }
}

/// Basic WC-INDEX cover query: for every entry of `lu` scan the whole of
/// `root_labels` for matching hubs (the Algorithm 2 strategy).
fn is_covered_basic(root_labels: &LabelSet, lu: &LabelSet, w: Quality, d: Distance) -> bool {
    for eu in lu.entries() {
        if eu.quality < w || eu.dist > d {
            continue;
        }
        for er in root_labels.entries() {
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
