//! Degree distributions and power-law tail statistics.
//!
//! The paper's methodology hinges on degree distributions: synthetic proxy
//! graphs must follow a power law `P(d) ∝ d^-α` similar to natural graphs
//! (Fig 6). This module computes the histograms and summary statistics used
//! to verify that property and to report Table II.

use crate::Graph;

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: u32,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Minimum total degree.
    pub min: usize,
    /// Maximum total degree.
    pub max: usize,
    /// Mean total degree (in + out).
    pub mean: f64,
    /// Standard deviation of total degree.
    pub stddev: f64,
    /// Number of isolated vertices (total degree zero).
    pub isolated: usize,
}

impl DegreeStats {
    /// Compute statistics over the total degree of every vertex.
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_degrees((0..g.num_vertices()).map(|v| g.degree(v)), g.num_edges())
    }

    /// Compute from an iterator of degrees.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>, num_edges: usize) -> Self {
        let mut n = 0u32;
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut isolated = 0usize;
        for d in degrees {
            n += 1;
            min = min.min(d);
            max = max.max(d);
            sum += d as f64;
            sum_sq += (d as f64) * (d as f64);
            if d == 0 {
                isolated += 1;
            }
        }
        if n == 0 {
            return DegreeStats {
                num_vertices: 0,
                num_edges,
                min: 0,
                max: 0,
                mean: 0.0,
                stddev: 0.0,
                isolated: 0,
            };
        }
        let mean = sum / n as f64;
        let var = (sum_sq / n as f64 - mean * mean).max(0.0);
        DegreeStats {
            num_vertices: n,
            num_edges,
            min,
            max,
            mean,
            stddev: var.sqrt(),
            isolated,
        }
    }

    /// Coefficient of variation (stddev / mean); a crude skew indicator.
    /// Power-law graphs have CV well above 1; uniform random graphs sit near
    /// `1/sqrt(mean)`.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Histogram of degrees: `counts[d]` = number of vertices with degree `d`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DegreeHistogram {
    counts: Vec<usize>,
}

impl DegreeHistogram {
    /// Histogram of out-degrees.
    pub fn out_degrees(g: &Graph) -> Self {
        Self::from_degrees((0..g.num_vertices()).map(|v| g.out_degree(v)))
    }

    /// Histogram of total degrees.
    pub fn total_degrees(g: &Graph) -> Self {
        Self::from_degrees((0..g.num_vertices()).map(|v| g.degree(v)))
    }

    /// Build from raw degrees.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut counts = Vec::new();
        for d in degrees {
            if d >= counts.len() {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        DegreeHistogram { counts }
    }

    /// `counts[d]` = number of vertices of degree `d`.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of vertices of degree `d` (0 beyond the max degree).
    pub fn count(&self, d: usize) -> usize {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Maximum degree with a nonzero count (0 for an empty histogram).
    pub fn max_degree(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Total number of vertices recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// `(degree, count)` pairs with nonzero count — the scatter the paper
    /// plots in Fig 6 (log-log degree vs #vertices).
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(d, &c)| (d, c))
    }

    /// Complementary CDF: fraction of vertices with degree `>= d`, for each
    /// nonzero degree. CCDFs are the standard robust way to eyeball a
    /// power-law tail (slope ≈ −(α − 1) on log-log axes).
    pub fn ccdf(&self) -> Vec<(usize, f64)> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut at_least = total;
        for (d, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                out.push((d, at_least as f64 / total as f64));
            }
            at_least -= c;
        }
        out
    }

    /// Least-squares estimate of the power-law exponent α from the slope of
    /// the log-log CCDF: `P(D >= d) ∝ d^-(α-1)`, so `α = 1 − slope`.
    ///
    /// Much more robust than fitting raw histogram counts, whose
    /// one-vertex tail bins flatten the apparent slope. Points with CCDF
    /// below `max(50 / total, 1e-3)` are dropped: the deep tail is both
    /// sampling noise and support-truncation curvature, which would bias
    /// the slope steep.
    pub fn fit_alpha_ccdf(&self, d_min: usize) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let floor = (50.0 / total as f64).max(1e-3);
        let pts: Vec<(f64, f64)> = self
            .ccdf()
            .into_iter()
            .filter(|&(d, p)| d >= d_min.max(1) && p >= floor)
            .map(|(d, p)| ((d as f64).ln(), p.ln()))
            .collect();
        let slope = least_squares_slope(&pts)?;
        Some(1.0 - slope)
    }

    /// Least-squares estimate of the power-law exponent α from the log-log
    /// degree histogram over `d >= d_min`, i.e. the slope of
    /// `log(count) = -α log(d) + c`.
    ///
    /// This is the quick empirical check used in tests; the paper's
    /// moment-matching Newton solver lives in `hetgraph-gen::alpha`.
    /// Prefer [`DegreeHistogram::fit_alpha_ccdf`] on sampled data — the raw
    /// histogram fit is biased flat by one-vertex tail bins.
    pub fn fit_alpha_loglog(&self, d_min: usize) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .nonzero()
            .filter(|&(d, _)| d >= d_min.max(1))
            .map(|(d, c)| ((d as f64).ln(), (c as f64).ln()))
            .collect();
        let slope = least_squares_slope(&pts)?;
        Some(-slope)
    }
}

/// Slope of the least-squares line through `(x, y)` points; `None` if fewer
/// than 3 points or degenerate x spread.
fn least_squares_slope(pts: &[(f64, f64)]) -> Option<f64> {
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, EdgeList};

    fn star(n: u32) -> Graph {
        // vertex 0 points to everyone else
        let edges = (1..n).map(|v| Edge::new(0, v)).collect();
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn stats_on_star() {
        let g = star(11);
        let s = g.degree_stats();
        assert_eq!(s.max, 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 2.0 * 10.0 / 11.0).abs() < 1e-12);
        assert!(s.coefficient_of_variation() > 1.0);
    }

    #[test]
    fn histogram_counts() {
        let g = star(5);
        let h = DegreeHistogram::total_degrees(&g);
        assert_eq!(h.count(1), 4); // leaves
        assert_eq!(h.count(4), 1); // hub
        assert_eq!(h.max_degree(), 4);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn ccdf_monotone_and_starts_at_one() {
        let g = star(6);
        let h = DegreeHistogram::total_degrees(&g);
        let ccdf = h.ccdf();
        assert_eq!(ccdf.first().map(|p| p.1), Some(1.0));
        for w in ccdf.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn loglog_fit_recovers_synthetic_slope() {
        // Construct an exact power-law histogram count(d) = round(C * d^-2.5).
        let alpha = 2.5f64;
        let mut counts = vec![0usize];
        for d in 1..=200usize {
            counts.push(((1e6) * (d as f64).powf(-alpha)).round() as usize);
        }
        let h = DegreeHistogram { counts };
        let fit = h.fit_alpha_loglog(1).unwrap();
        assert!((fit - alpha).abs() < 0.05, "fit = {fit}");
    }

    #[test]
    fn ccdf_fit_recovers_synthetic_slope() {
        // Exact power-law histogram: count(d) = round(C * d^-2.2).
        let alpha = 2.2f64;
        let mut counts = vec![0usize];
        for d in 1..=500usize {
            counts.push(((1e6) * (d as f64).powf(-alpha)).round() as usize);
        }
        let h = DegreeHistogram { counts };
        let fit = h.fit_alpha_ccdf(2).unwrap();
        assert!((fit - alpha).abs() < 0.2, "fit = {fit}");
    }

    #[test]
    fn empty_histogram() {
        let h = DegreeHistogram::from_degrees(std::iter::empty());
        assert_eq!(h.max_degree(), 0);
        assert_eq!(h.total(), 0);
        assert!(h.ccdf().is_empty());
        assert!(h.fit_alpha_loglog(1).is_none());
    }
}
