//! Concrete ordering strategies (Section IV.D of the paper).

use crate::tree_decomposition::{TreeDecomposition, TreeDecompositionConfig};
use crate::VertexOrder;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wcsd_graph::{Graph, VertexId};

/// Enumerates every ordering strategy, so callers (benchmarks, examples) can
/// select one by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Non-ascending degree (ties broken by vertex id).
    Degree,
    /// Hierarchy induced by minimum-degree-elimination tree decomposition.
    TreeDecomposition,
    /// The paper's hybrid core/periphery ordering with the default threshold.
    Hybrid,
    /// Identity order `0, 1, …, n-1`.
    Natural,
    /// Uniformly random permutation (seeded).
    Random(
        /// RNG seed.
        u64,
    ),
    /// Vertices sorted by BFS level from the highest-degree vertex, then by
    /// descending degree within a level.
    BfsLevel,
}

impl OrderingStrategy {
    /// Computes the vertex order of `g` under this strategy.
    pub fn compute(&self, g: &Graph) -> VertexOrder {
        match self {
            Self::Degree => degree_order(g),
            Self::TreeDecomposition => tree_decomposition_order(g),
            Self::Hybrid => hybrid_order(g, &HybridConfig::default()),
            Self::Natural => natural_order(g),
            Self::Random(seed) => random_order(g, *seed),
            Self::BfsLevel => bfs_level_order(g),
        }
    }

    /// A short human-readable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Degree => "degree",
            Self::TreeDecomposition => "tree-decomposition",
            Self::Hybrid => "hybrid",
            Self::Natural => "natural",
            Self::Random(_) => "random",
            Self::BfsLevel => "bfs-level",
        }
    }
}

/// Degree-based ordering: vertices sorted by non-ascending degree, ties broken
/// by ascending vertex id (deterministic).
pub fn degree_order(g: &Graph) -> VertexOrder {
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    VertexOrder::from_permutation(order)
}

/// Identity ordering `0, 1, …, n-1`. Matches the implicit order used by the
/// paper's running example (Table II).
pub fn natural_order(g: &Graph) -> VertexOrder {
    VertexOrder::from_permutation((0..g.num_vertices() as VertexId).collect())
}

/// Uniformly random ordering with the given seed.
pub fn random_order(g: &Graph, seed: u64) -> VertexOrder {
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    VertexOrder::from_permutation(order)
}

/// Tree-decomposition ordering: the MDE hierarchy (vertices eliminated last
/// first), as used for road networks.
pub fn tree_decomposition_order(g: &Graph) -> VertexOrder {
    let td = TreeDecomposition::build(g, &TreeDecompositionConfig::default());
    VertexOrder::from_permutation(td.hierarchy_order(g))
}

/// Configuration of the paper's hybrid core/periphery ordering.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Degree threshold δ separating the core (degree > δ, ordered by degree)
    /// from the periphery (ordered by tree decomposition). `None` selects the
    /// threshold automatically as `max(average degree × 4, 16)`.
    pub degree_threshold: Option<usize>,
}

/// The paper's hybrid vertex ordering (Section IV.D):
///
/// 1. vertices with degree above the threshold form the *core* and are ordered
///    by non-ascending degree (cheap, effective on hubs);
/// 2. the remaining *periphery* vertices are ordered by a nested-dissection
///    separator hierarchy of the subgraph they induce (the core removed): a
///    BFS-level separator of each connected part is ranked first, then the
///    part below it and the part above it, recursively;
/// 3. core vertices precede periphery vertices.
///
/// Nested dissection needs small separators, which road-like peripheries
/// have and scale-free ones lack. So when the periphery's first separator
/// exceeds `4·√|periphery|` (or no part is large enough to split), the
/// periphery is instead ranked by a minimum-degree-elimination hierarchy
/// whose bag growth is capped at the threshold, its uneliminated remainder
/// ranked by degree.
pub fn hybrid_order(g: &Graph, config: &HybridConfig) -> VertexOrder {
    let threshold =
        config.degree_threshold.unwrap_or_else(|| ((g.avg_degree() * 4.0).ceil() as usize).max(16));

    let mut order: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| g.degree(v) > threshold).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut is_core = vec![false; g.num_vertices()];
    for &v in &order {
        is_core[v as usize] = true;
    }
    let periphery: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| !is_core[v as usize]).collect();

    match Dissection::new(g).order(periphery) {
        Some(periphery) => order.extend(periphery),
        None => order.extend(capped_mde_order(g, threshold, &is_core)),
    }
    VertexOrder::from_permutation(order)
}

/// The periphery (vertices not flagged in `is_core`) ranked by an MDE
/// hierarchy that never eliminates a vertex whose transient degree exceeds
/// `threshold`; those end up in the decomposition's core, which
/// `hierarchy_order` ranks by degree.
fn capped_mde_order(g: &Graph, threshold: usize, is_core: &[bool]) -> Vec<VertexId> {
    let td =
        TreeDecomposition::build(g, &TreeDecompositionConfig { max_bag_degree: Some(threshold) });
    td.hierarchy_order(g).into_iter().filter(|&v| !is_core[v as usize]).collect()
}

/// Parts of at most this many vertices are ranked by degree, not split.
const ND_LEAF: usize = 16;
/// A separator level is chosen among those whose cumulative vertex count
/// (through the level) lies in this share of the part.
const ND_BAND: (f64, f64) = (0.4, 0.6);
/// The first separator may hold at most this many times `√|periphery|`
/// vertices, or the periphery falls back to capped MDE.
const ND_GUARD: f64 = 4.0;

/// Nested dissection by BFS-level separators over a vertex subset.
struct Dissection<'g> {
    g: &'g Graph,
    /// `part[v]` is the id of the part `v` was last placed in; a BFS walks only
    /// vertices whose id is `current`.
    part: Vec<u32>,
    current: u32,
    /// `level[v]` is `v`'s BFS level, valid where `seen[v] == sweep`.
    level: Vec<u32>,
    seen: Vec<u32>,
    sweep: u32,
    /// The vertices of the last BFS, in visit order (so by ascending level).
    queue: Vec<VertexId>,
}

impl<'g> Dissection<'g> {
    fn new(g: &'g Graph) -> Self {
        let n = g.num_vertices();
        Self {
            g,
            part: vec![0; n],
            current: 0,
            level: vec![0; n],
            seen: vec![0; n],
            sweep: 0,
            queue: Vec::new(),
        }
    }

    /// Ranks `vertices` (most important first) by nested dissection of the
    /// subgraph they induce, or `None` if the guard rejects the first
    /// separator. Parts wait on an explicit stack, lower part on top.
    fn order(mut self, vertices: Vec<VertexId>) -> Option<Vec<VertexId>> {
        let mut guard = Some((ND_GUARD * (vertices.len() as f64).sqrt()) as usize);
        let mut order = Vec::with_capacity(vertices.len());
        let mut stack = vec![vertices];
        while let Some(part) = stack.pop() {
            if part.len() <= ND_LEAF {
                order.extend(self.by_degree(part));
                continue;
            }
            self.enter(&part);
            self.bfs(part[0]);
            if self.queue.len() < part.len() {
                // Largest first, so the guard judges the largest component's cut.
                let mut components = self.components(&part);
                components.sort_by_key(|c| std::cmp::Reverse(c.len()));
                stack.extend(components.into_iter().rev());
                continue;
            }
            // Two sweeps: the last vertex reached is pseudo-peripheral.
            self.bfs(*self.queue.last().expect("non-empty part"));
            let (lower, separator, upper) = self.split();
            if guard.take().is_some_and(|limit| separator.len() > limit) {
                return None;
            }
            order.extend(self.by_degree(separator));
            stack.extend([upper, lower].into_iter().filter(|p| !p.is_empty()));
        }
        // No part was large enough to split: nothing to dissect.
        guard.is_none().then_some(order)
    }

    /// Makes `vertices` the part BFS walks.
    fn enter(&mut self, vertices: &[VertexId]) {
        self.current += 1;
        for &v in vertices {
            self.part[v as usize] = self.current;
        }
    }

    /// BFS from `src` inside the current part; fills `queue` and `level`.
    fn bfs(&mut self, src: VertexId) {
        self.sweep += 1;
        self.queue.clear();
        self.queue.push(src);
        self.seen[src as usize] = self.sweep;
        self.level[src as usize] = 0;
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &v in self.g.neighbor_ids(u) {
                let i = v as usize;
                if self.part[i] == self.current && self.seen[i] != self.sweep {
                    self.seen[i] = self.sweep;
                    self.level[i] = self.level[u as usize] + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Splits the current part into its connected components, in the order
    /// `part` first reaches them; the part is left empty.
    fn components(&mut self, part: &[VertexId]) -> Vec<Vec<VertexId>> {
        let mut components = Vec::new();
        for &v in part {
            if self.part[v as usize] == self.current {
                self.bfs(v);
                for &u in &self.queue {
                    self.part[u as usize] = 0;
                }
                components.push(self.queue.clone());
            }
        }
        components
    }

    /// Splits the last BFS's levels into `(lower, separator, upper)`. The
    /// separator is the narrowest level whose cumulative count lies in
    /// [`ND_BAND`] (ties: the most balanced), else the median level. A
    /// separator vertex with no neighbour in the next level moves to the
    /// lower part, which it cannot join to the upper one.
    fn split(&self) -> (Vec<VertexId>, Vec<VertexId>, Vec<VertexId>) {
        let q = &self.queue;
        let total = q.len();
        // Level `k` is `q[starts[k]..starts[k + 1]]`.
        let mut starts: Vec<usize> = std::iter::once(0)
            .chain(
                (1..total).filter(|&i| self.level[q[i] as usize] != self.level[q[i - 1] as usize]),
            )
            .collect();
        starts.push(total);
        let levels = starts.len() - 1;
        let band = (total as f64 * ND_BAND.0).ceil() as usize..=(total as f64 * ND_BAND.1) as usize;
        let k = (0..levels)
            .filter(|&k| band.contains(&starts[k + 1]))
            .min_by_key(|&k| (starts[k + 1] - starts[k], (2 * starts[k + 1]).abs_diff(total)))
            .unwrap_or_else(|| {
                (0..levels)
                    .find(|&k| 2 * starts[k + 1] >= total)
                    .expect("the last level reaches total")
            });

        let mut lower = q[..starts[k]].to_vec();
        let mut separator = Vec::new();
        let (last, next) = (k + 1 == levels, (k + 1) as u32);
        for &v in &q[starts[k]..starts[k + 1]] {
            let feeds_upper = || {
                self.g.neighbor_ids(v).iter().any(|&u| {
                    self.part[u as usize] == self.current && self.level[u as usize] == next
                })
            };
            if last || feeds_upper() {
                separator.push(v);
            } else {
                lower.push(v);
            }
        }
        (lower, separator, q[starts[k + 1]..].to_vec())
    }

    /// `vertices` by non-ascending degree, ties by id.
    fn by_degree(&self, mut vertices: Vec<VertexId>) -> Vec<VertexId> {
        vertices.sort_by_key(|&v| (std::cmp::Reverse(self.g.degree(v)), v));
        vertices
    }
}

/// BFS-level ordering: a BFS from the maximum-degree vertex assigns levels;
/// vertices are sorted by ascending level, then by descending degree. Used as
/// an ablation baseline.
pub fn bfs_level_order(g: &Graph) -> VertexOrder {
    let n = g.num_vertices();
    if n == 0 {
        return VertexOrder::from_permutation(Vec::new());
    }
    let root = (0..n as VertexId).max_by_key(|&v| g.degree(v)).expect("non-empty");
    let mut level = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    level[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| (level[v as usize], std::cmp::Reverse(g.degree(v)), v));
    VertexOrder::from_permutation(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcsd_graph::generators::{
        barabasi_albert, paper_figure3, path_graph, road_grid, star_graph, QualityAssigner,
        RoadGridConfig,
    };

    fn assert_is_permutation(o: &VertexOrder, n: usize) {
        assert_eq!(o.len(), n);
        let mut sorted: Vec<_> = o.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as VertexId).collect::<Vec<_>>());
    }

    #[test]
    fn degree_order_puts_hub_first() {
        let g = star_graph(8, 1);
        let o = degree_order(&g);
        assert_eq!(o.vertex_at(0), 0);
        assert_is_permutation(&o, 8);
    }

    #[test]
    fn degree_order_on_figure3() {
        let g = paper_figure3();
        let o = degree_order(&g);
        // Vertex 3 has degree 5, the unique maximum.
        assert_eq!(o.vertex_at(0), 3);
        assert_is_permutation(&o, 6);
    }

    #[test]
    fn natural_and_random_are_permutations() {
        let g = paper_figure3();
        assert_is_permutation(&natural_order(&g), 6);
        let r1 = random_order(&g, 1);
        let r2 = random_order(&g, 1);
        assert_eq!(r1, r2, "random order must be deterministic per seed");
        assert_is_permutation(&r1, 6);
    }

    #[test]
    fn tree_decomposition_order_is_permutation() {
        let g = road_grid(&RoadGridConfig::square(8), &QualityAssigner::uniform(3), 4);
        let o = tree_decomposition_order(&g);
        assert_is_permutation(&o, 64);
    }

    #[test]
    fn hybrid_core_vertices_come_first() {
        let g = barabasi_albert(300, 3, &QualityAssigner::uniform(3), 6);
        let cfg = HybridConfig { degree_threshold: Some(20) };
        let o = hybrid_order(&g, &cfg);
        assert_is_permutation(&o, 300);
        let core_count = (0..300u32).filter(|&v| g.degree(v) > 20).count();
        assert!(core_count > 0, "test graph should have hubs");
        // The first `core_count` positions are exactly the high-degree vertices.
        for k in 0..core_count {
            assert!(g.degree(o.vertex_at(k)) > 20, "position {k} is not a core vertex");
        }
        for k in core_count..300 {
            assert!(g.degree(o.vertex_at(k)) <= 20);
        }
    }

    #[test]
    fn hybrid_default_threshold_is_permutation() {
        let g = road_grid(&RoadGridConfig::square(10), &QualityAssigner::uniform(5), 9);
        let o = hybrid_order(&g, &HybridConfig::default());
        assert_is_permutation(&o, 100);
    }

    /// Today's fallback, rebuilt from its parts: the degree core, then the
    /// capped-MDE periphery.
    fn capped_mde_hybrid(g: &Graph) -> Vec<VertexId> {
        let threshold = ((g.avg_degree() * 4.0).ceil() as usize).max(16);
        let is_core: Vec<bool> =
            (0..g.num_vertices() as VertexId).map(|v| g.degree(v) > threshold).collect();
        let mut order: Vec<VertexId> =
            (0..g.num_vertices() as VertexId).filter(|&v| is_core[v as usize]).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        order.extend(capped_mde_order(g, threshold, &is_core));
        order
    }

    #[test]
    fn hybrid_dissects_a_road_periphery() {
        let g = road_grid(&RoadGridConfig::square(30), &QualityAssigner::uniform(5), 2);
        let o = hybrid_order(&g, &HybridConfig::default());
        assert_is_permutation(&o, 900);
        assert_ne!(
            o.as_slice(),
            capped_mde_hybrid(&g),
            "a grid must take the nested-dissection path"
        );
    }

    #[test]
    fn hybrid_guard_keeps_capped_mde_on_a_social_graph() {
        let g = barabasi_albert(1000, 5, &QualityAssigner::uniform(5), 3);
        let o = hybrid_order(&g, &HybridConfig::default());
        assert_eq!(o.as_slice(), capped_mde_hybrid(&g));
    }

    #[test]
    fn hybrid_ranks_a_path_from_its_middle() {
        let o = hybrid_order(&path_graph(101, 1), &HybridConfig::default());
        assert_is_permutation(&o, 101);
        let first = o.vertex_at(0);
        assert!((40..=60).contains(&first), "first-ranked vertex {first} is not central");
    }

    #[test]
    fn hybrid_orders_tiny_graphs() {
        for n in [0, 1] {
            let g = wcsd_graph::GraphBuilder::new(n).build();
            assert_is_permutation(&hybrid_order(&g, &HybridConfig::default()), n);
        }
    }

    #[test]
    fn bfs_level_order_starts_at_max_degree_vertex() {
        let g = paper_figure3();
        let o = bfs_level_order(&g);
        assert_eq!(o.vertex_at(0), 3);
        assert_is_permutation(&o, 6);
    }

    #[test]
    fn strategy_enum_dispatches() {
        let g = paper_figure3();
        for strat in [
            OrderingStrategy::Degree,
            OrderingStrategy::TreeDecomposition,
            OrderingStrategy::Hybrid,
            OrderingStrategy::Natural,
            OrderingStrategy::Random(3),
            OrderingStrategy::BfsLevel,
        ] {
            let o = strat.compute(&g);
            assert_is_permutation(&o, 6);
            assert!(!strat.name().is_empty());
        }
    }

    #[test]
    fn empty_graph_orders_are_empty() {
        let g = wcsd_graph::GraphBuilder::new(0).build();
        assert!(degree_order(&g).is_empty());
        assert!(bfs_level_order(&g).is_empty());
        assert!(hybrid_order(&g, &HybridConfig::default()).is_empty());
    }
}
