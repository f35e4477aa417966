//! R-MAT (Recursive MATrix) graph generator (Chakrabarti & Faloutsos).
//!
//! R-MAT recursively subdivides the adjacency matrix into four quadrants
//! and drops each edge into a quadrant with probabilities `(a, b, c, d)`.
//! With skewed probabilities the result approximates a power law, but with
//! the lumpy tails, self-similar communities and degree correlations that
//! natural graphs exhibit — which is exactly why this crate uses R-MAT for
//! the *natural-graph stand-ins* while the clean Algorithm-1 generator
//! produces the *proxies*. The systematic difference between the two
//! families reproduces the paper's proxy-vs-real estimation gap.

use hetgraph_core::rng::Xoshiro256;
use hetgraph_core::{Edge, EdgeList, Graph};

/// Configuration for the R-MAT generator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RmatConfig {
    /// Number of vertices. R-MAT operates on a `2^k` grid internally;
    /// vertices are folded down to `[0, num_vertices)` afterwards, which
    /// adds a small amount of extra irregularity (harmless and realistic).
    pub num_vertices: u32,
    /// Number of edges to generate.
    pub num_edges: usize,
    /// Quadrant probabilities `(a, b, c, d)`; must be positive and sum to 1.
    /// Typical natural-graph fits: `(0.57, 0.19, 0.19, 0.05)`.
    pub probabilities: (f64, f64, f64, f64),
    /// Per-recursion-level multiplicative noise on the probabilities, in
    /// `[0, 0.5)`. Noise decorrelates the quadrant choice across levels and
    /// smooths the degree staircase R-MAT otherwise produces.
    pub noise: f64,
    /// Drop self loops.
    pub omit_self_loops: bool,
}

impl RmatConfig {
    /// A natural-graph-like default: `(a,b,c,d) = (0.57, 0.19, 0.19, 0.05)`,
    /// 10 % noise, self loops dropped.
    pub fn natural(num_vertices: u32, num_edges: usize) -> Self {
        RmatConfig {
            num_vertices,
            num_edges,
            probabilities: (0.57, 0.19, 0.19, 0.05),
            noise: 0.10,
            omit_self_loops: true,
        }
    }

    /// Generate the graph with the given seed.
    ///
    /// # Panics
    /// Panics if `num_vertices == 0`, or if the probabilities are not
    /// positive or do not sum to ~1.
    pub fn generate(&self, seed: u64) -> Graph {
        let mut list = EdgeList::with_capacity(self.num_vertices, self.num_edges);
        self.for_each_edge_impl(seed, &mut |e| list.push(e));
        Graph::from_edge_list(list)
    }

    /// Emit every edge of `generate(seed)` in order through `f` — the
    /// streaming core both `generate` and the shard writer share.
    pub(crate) fn for_each_edge_impl(&self, seed: u64, f: &mut dyn FnMut(Edge)) {
        assert!(self.num_vertices > 0, "R-MAT needs at least one vertex");
        let (a, b, c, d) = self.probabilities;
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0 && d > 0.0,
            "probabilities must be positive"
        );
        assert!(
            ((a + b + c + d) - 1.0).abs() < 1e-9,
            "probabilities must sum to 1"
        );
        let n = self.num_vertices;
        let levels = 32 - (n.max(2) - 1).leading_zeros(); // ceil(log2 n)
        let side = 1u64 << levels;
        let mut rng = Xoshiro256::new(seed);

        let mut produced = 0usize;
        // Bound the retry loop: degenerate configs (e.g. n == 1 with self
        // loops omitted) must not spin forever.
        let max_attempts = self.num_edges.saturating_mul(4).max(64);
        let mut attempts = 0usize;
        while produced < self.num_edges && attempts < max_attempts {
            attempts += 1;
            let mut row = 0u64;
            let mut col = 0u64;
            let mut half = side >> 1;
            while half > 0 {
                // Multiplicative noise per level, renormalized implicitly by
                // comparing against the running thresholds.
                let na = a * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
                let nb = b * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
                let nc = c * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
                let u = rng.next_f64() * (na + nb + nc + (1.0 - a - b - c));
                if u < na {
                    // top-left: nothing to add
                } else if u < na + nb {
                    col += half;
                } else if u < na + nb + nc {
                    row += half;
                } else {
                    row += half;
                    col += half;
                }
                half >>= 1;
            }
            // Fold the 2^levels grid down to [0, n).
            let src = (row % n as u64) as u32;
            let dst = (col % n as u64) as u32;
            if self.omit_self_loops && src == dst {
                continue;
            }
            f(Edge::new(src, dst));
            produced += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::degree::DegreeHistogram;

    #[test]
    fn generates_requested_edges() {
        let g = RmatConfig::natural(10_000, 50_000).generate(1);
        assert_eq!(g.num_edges(), 50_000);
        assert_eq!(g.num_vertices(), 10_000);
        assert!(g.validate());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RmatConfig::natural(5_000, 20_000);
        assert_eq!(cfg.generate(3).edges(), cfg.generate(3).edges());
        assert_ne!(cfg.generate(3).edges(), cfg.generate(4).edges());
    }

    #[test]
    fn skewed_probabilities_produce_skewed_degrees() {
        let skewed = RmatConfig::natural(20_000, 100_000).generate(7);
        let s = skewed.degree_stats();
        // A uniform G(n,m) with the same density has CV ≈ 1/sqrt(mean)≈0.3;
        // R-MAT should be far more skewed.
        assert!(
            s.coefficient_of_variation() > 1.0,
            "cv = {}",
            s.coefficient_of_variation()
        );
        assert!(s.max > 50, "max degree = {}", s.max);
    }

    #[test]
    fn tail_is_roughly_power_law() {
        let g = RmatConfig::natural(50_000, 400_000).generate(11);
        let h = DegreeHistogram::total_degrees(&g);
        let fitted = h.fit_alpha_loglog(4);
        assert!(fitted.is_some());
        let alpha = fitted.unwrap();
        assert!(alpha > 0.8 && alpha < 4.0, "alpha = {alpha}");
    }

    #[test]
    fn no_self_loops_when_omitted() {
        let g = RmatConfig::natural(1_000, 10_000).generate(5);
        assert!(g.edges().iter().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn degenerate_single_vertex_terminates() {
        // All candidate edges are self loops; the attempt bound must stop us.
        let g = RmatConfig::natural(1, 100).generate(0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        let mut cfg = RmatConfig::natural(10, 10);
        cfg.probabilities = (0.5, 0.5, 0.5, 0.5);
        cfg.generate(0);
    }

    #[test]
    fn homogeneous_probabilities_approach_uniform() {
        let mut cfg = RmatConfig::natural(10_000, 80_000);
        cfg.probabilities = (0.25, 0.25, 0.25, 0.25);
        cfg.noise = 0.0;
        let g = cfg.generate(2);
        let cv = g.degree_stats().coefficient_of_variation();
        assert!(cv < 0.6, "uniform R-MAT should have low skew, cv = {cv}");
    }
}
