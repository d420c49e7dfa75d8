//! Watts–Strogatz small-world graphs.
//!
//! Provide an intermediate regime between the lattice-like road networks and
//! the scale-free social networks: high clustering, small diameter, uniform
//! degree. Used in ordering-strategy ablations.

use super::QualityAssigner;
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// Generates a Watts–Strogatz graph: a ring lattice over `n` vertices where
/// each vertex connects to its `k` nearest neighbours (`k` even), and each
/// edge is rewired to a random endpoint with probability `beta`.
///
/// ```
/// use wcsd_graph::generators::{watts_strogatz, QualityAssigner};
/// let g = watts_strogatz(100, 4, 0.1, &QualityAssigner::uniform(3), 5);
/// assert_eq!(g.num_vertices(), 100);
/// ```
pub fn watts_strogatz(
    n: usize,
    k: usize,
    beta: f64,
    qualities: &QualityAssigner,
    seed: u64,
) -> Graph {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be an even integer >= 2");
    assert!(k < n, "k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta), "rewiring probability must be in [0, 1]");
    let mut rng = super::seeded_rng(seed);
    let mut b = GraphBuilder::with_capacity(n, n * k / 2);

    for u in 0..n {
        for j in 1..=(k / 2) {
            let mut v = (u + j) % n;
            if rng.gen::<f64>() < beta {
                // Rewire to a uniformly random non-self endpoint.
                let mut attempts = 0;
                loop {
                    let cand = rng.gen_range(0..n);
                    if cand != u || attempts > 20 {
                        v = cand;
                        break;
                    }
                    attempts += 1;
                }
                if v == u {
                    v = (u + j) % n; // give up rewiring, keep the lattice edge
                }
            }
            b.add_edge(u as u32, v as u32, qualities.sample(&mut rng));
        }
    }
    let mut g = b.build();
    g.pad_vertices(n);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn zero_beta_is_a_ring_lattice() {
        let g = watts_strogatz(30, 4, 0.0, &QualityAssigner::Constant(1), 0);
        assert_eq!(g.num_edges(), 30 * 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn rewiring_keeps_edge_budget() {
        let g = watts_strogatz(200, 6, 0.3, &QualityAssigner::uniform(5), 9);
        // Rewiring can merge a few parallel edges; allow small shrinkage.
        assert!(g.num_edges() <= 600 && g.num_edges() > 560, "edges = {}", g.num_edges());
    }

    #[test]
    fn stays_mostly_connected() {
        let g = watts_strogatz(500, 6, 0.2, &QualityAssigner::uniform(3), 21);
        let comps = analysis::connected_components(&g);
        assert!(analysis::largest_component_size(&comps) > 480);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_rejected() {
        let _ = watts_strogatz(10, 3, 0.1, &QualityAssigner::uniform(2), 0);
    }
}
