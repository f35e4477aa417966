//! The deployed synthetic proxy graphs (Table II, bottom rows).
//!
//! The paper deploys three proxies — 3.2 M vertices each, α = 1.95 / 2.1 /
//! 2.3 — which together cover the α range of natural graphs (≈ 1.9–2.4).
//! Profiling runs every application on every proxy on one machine of each
//! group; a new natural graph is then matched to the covering proxy by its
//! fitted α.

use hetgraph_core::Graph;

use crate::powerlaw::PowerLawConfig;

/// Full-scale vertex count of each deployed proxy (Table II).
pub const FULL_SCALE_VERTICES: u32 = 3_200_000;

/// One synthetic proxy graph definition.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProxyGraph {
    /// Display name (Table II row).
    pub name: String,
    /// Vertex count.
    pub num_vertices: u32,
    /// Power-law exponent.
    pub alpha: f64,
    /// Generation seed.
    pub seed: u64,
    /// Degree-support cap. Proxies at full scale cap degrees at 100 000
    /// (the generator default); a *downscaled* proxy must downscale its cap
    /// too, or its hub fraction — and with it the measured parallel
    /// behaviour — would be an artifact of the scale rather than of the
    /// distribution.
    pub max_degree: Option<usize>,
}

impl ProxyGraph {
    /// Create a proxy definition with the generator's default degree cap.
    pub fn new(name: impl Into<String>, num_vertices: u32, alpha: f64, seed: u64) -> Self {
        ProxyGraph {
            name: name.into(),
            num_vertices,
            alpha,
            seed,
            max_degree: None,
        }
    }

    /// Override the degree-support cap.
    pub fn with_max_degree(mut self, cap: usize) -> Self {
        self.max_degree = Some(cap);
        self
    }

    fn config(&self) -> PowerLawConfig {
        let cfg = PowerLawConfig::new(self.num_vertices, self.alpha);
        match self.max_degree {
            Some(cap) => cfg.with_max_degree(cap),
            None => cfg,
        }
    }

    /// Generate the proxy graph (Algorithm 1).
    pub fn generate(&self) -> Graph {
        self.config().generate(self.seed)
    }

    /// Expected edge count of this proxy.
    pub fn expected_edges(&self) -> f64 {
        self.config().expected_edges()
    }
}

/// The set of proxies used for profiling, ordered by α ascending coverage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProxySet {
    proxies: Vec<ProxyGraph>,
}

impl ProxySet {
    /// The paper's standard three proxies at `1/scale` of full size
    /// (`scale = 1` reproduces Table II exactly).
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    pub fn standard(scale: u32) -> Self {
        assert!(scale > 0, "scale must be positive");
        let n = (FULL_SCALE_VERTICES / scale).max(2);
        // Scale the degree cap with the vertex count so the proxies'
        // hub fraction is scale-invariant (see `ProxyGraph::max_degree`).
        let cap = ((100_000 / scale as usize).max(64)).min(n.saturating_sub(1).max(1) as usize);
        ProxySet {
            proxies: vec![
                ProxyGraph::new("SyntheticGraph_one", n, 1.95, 0x5e11_0001).with_max_degree(cap),
                ProxyGraph::new("SyntheticGraph_two", n, 2.10, 0x5e11_0002).with_max_degree(cap),
                ProxyGraph::new("SyntheticGraph_three", n, 2.30, 0x5e11_0003).with_max_degree(cap),
            ],
        }
    }

    /// Build from explicit proxies.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn from_proxies(proxies: Vec<ProxyGraph>) -> Self {
        assert!(!proxies.is_empty(), "a proxy set needs at least one proxy");
        ProxySet { proxies }
    }

    /// The proxies.
    pub fn proxies(&self) -> &[ProxyGraph] {
        &self.proxies
    }

    /// Number of proxies.
    pub fn len(&self) -> usize {
        self.proxies.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.proxies.is_empty()
    }

    /// The inclusive α range `[min, max]` covered by this set.
    pub fn alpha_range(&self) -> (f64, f64) {
        let min = self
            .proxies
            .iter()
            .map(|p| p.alpha)
            .fold(f64::INFINITY, f64::min);
        let max = self
            .proxies
            .iter()
            .map(|p| p.alpha)
            .fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// Whether a graph with fitted exponent `alpha` is covered by this set
    /// (within a tolerance band the paper leaves implicit; we use ±0.25,
    /// half the spacing the standard set provides at its edges).
    pub fn covers(&self, alpha: f64) -> bool {
        let (lo, hi) = self.alpha_range();
        alpha >= lo - 0.25 && alpha <= hi + 0.25
    }

    /// The proxy whose α is closest to `alpha` (ties break toward the
    /// denser, smaller-α proxy, which is the conservative choice for load
    /// estimation).
    pub fn closest(&self, alpha: f64) -> &ProxyGraph {
        self.proxies
            .iter()
            .min_by(|a, b| {
                let da = (a.alpha - alpha).abs();
                let db = (b.alpha - alpha).abs();
                da.partial_cmp(&db)
                    .expect("alphas are finite")
                    .then(a.alpha.partial_cmp(&b.alpha).expect("finite"))
            })
            .expect("proxy set is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_matches_table2() {
        let set = ProxySet::standard(1);
        assert_eq!(set.len(), 3);
        assert_eq!(set.proxies()[0].num_vertices, 3_200_000);
        let alphas: Vec<f64> = set.proxies().iter().map(|p| p.alpha).collect();
        assert_eq!(alphas, vec![1.95, 2.10, 2.30]);
    }

    #[test]
    fn expected_edges_ordering_matches_table2() {
        // Table II: SyntheticGraph one (α=1.95) has 42 M edges, two (2.1)
        // has 16 M, three (2.3) has 7 M — monotone decreasing in α.
        let set = ProxySet::standard(1);
        let e: Vec<f64> = set.proxies().iter().map(|p| p.expected_edges()).collect();
        assert!(e[0] > e[1] && e[1] > e[2], "{e:?}");
        // Within 2x of the paper's counts (the paper does not give its
        // support cutoff, so exact counts are not recoverable).
        assert!(e[0] > 20e6 && e[0] < 80e6, "e0 = {}", e[0]);
        assert!(e[2] > 3e6 && e[2] < 14e6, "e2 = {}", e[2]);
    }

    #[test]
    fn coverage_band() {
        let set = ProxySet::standard(100);
        assert!(set.covers(2.0));
        assert!(set.covers(1.75));
        assert!(!set.covers(1.2));
        assert!(!set.covers(3.0));
    }

    #[test]
    fn closest_picks_nearest_alpha() {
        let set = ProxySet::standard(100);
        assert_eq!(set.closest(1.9).alpha, 1.95);
        assert_eq!(set.closest(2.12).alpha, 2.10);
        assert_eq!(set.closest(2.9).alpha, 2.30);
    }

    #[test]
    fn degree_cap_scales_with_proxy_size() {
        // Hub fraction (max degree over total degree) must be roughly
        // scale-invariant, not an artifact of downscaling.
        let frac = |scale: u32| {
            let g = ProxySet::standard(scale).proxies()[0].generate();
            let d_max = g.vertices().map(|v| g.degree(v)).max().unwrap() as f64;
            d_max / (2.0 * g.num_edges() as f64)
        };
        let coarse = frac(256);
        let fine = frac(64);
        assert!(
            (coarse / fine) < 4.0 && (fine / coarse) < 4.0,
            "hub fraction should be comparable across scales: {coarse} vs {fine}"
        );
        assert!(
            coarse < 0.02,
            "capped proxies must not be one giant star: {coarse}"
        );
    }

    #[test]
    fn proxy_generation_is_deterministic_and_scaled() {
        let set = ProxySet::standard(1600); // 2 000 vertices
        let g1 = set.proxies()[1].generate();
        let g2 = set.proxies()[1].generate();
        assert_eq!(g1.edges(), g2.edges());
        assert_eq!(g1.num_vertices(), 2_000);
    }
}
