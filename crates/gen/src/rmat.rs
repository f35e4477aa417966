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
//!
//! # Parallel, bit-exact generation
//!
//! The edge stream is fixed by the seed alone: it is the sequence of
//! *attempts* of a single xoshiro256** stream, each attempt drawing
//! exactly `4 · levels` numbers (three noise terms and one uniform per
//! level) and yielding an edge unless it is a dropped self loop.
//! Because the draw count per attempt never varies, attempt `k` starts
//! `k · 4 · levels` draws into the stream, and
//! [`Xoshiro256::jump`] reaches that point in 256 steps. Generation
//! therefore runs in chunks of `CHUNK_ATTEMPTS` attempts, fanned out in
//! waves over [`par::default_host_threads`] workers; the caller stitches
//! the chunks' edges back together in attempt order and stops where the
//! serial loop would (at `num_edges` edges, or after
//! `max(4 · num_edges, 64)` attempts). Thread count and chunk size change
//! speed, never bytes.

use hetgraph_core::par;
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
    /// Panics if `num_vertices == 0`, if the probabilities are not
    /// positive or do not sum to ~1, or if `noise` is outside `[0, 0.5)`.
    pub fn generate(&self, seed: u64) -> Graph {
        let mut list = EdgeList::with_capacity(self.num_vertices, self.num_edges);
        self.for_each_edge_impl(seed, &mut |e| list.push(e));
        Graph::from_edge_list(list)
    }

    /// Emit every edge of `generate(seed)` in order through `f` — the
    /// streaming core both `generate` and the shard writer share.
    pub(crate) fn for_each_edge_impl(&self, seed: u64, f: &mut dyn FnMut(Edge)) {
        self.for_each_edge_chunked(seed, CHUNK_ATTEMPTS, par::default_host_threads(), f);
    }

    /// The chunked generator body behind [`RmatConfig::for_each_edge_impl`],
    /// with the chunk size and thread count exposed for the equivalence
    /// tests. The emitted sequence is the same for every `chunk_attempts`
    /// and `threads`.
    fn for_each_edge_chunked(
        &self,
        seed: u64,
        chunk_attempts: usize,
        threads: usize,
        f: &mut dyn FnMut(Edge),
    ) {
        let draw = QuadrantDraw::new(self);
        let mut rng = Xoshiro256::new(seed);
        // Bound the retry loop: degenerate configs (e.g. n == 1 with self
        // loops omitted) must not spin forever.
        let max_attempts = self.num_edges.saturating_mul(4).max(64);
        let num_chunks = max_attempts.div_ceil(chunk_attempts);
        if num_chunks < 2 {
            draw.run(&mut rng, max_attempts, self.num_edges, f);
            return;
        }
        // Every attempt consumes exactly `4 · levels` draws, so chunk j
        // starts `j · chunk_attempts · 4 · levels` draws into the stream.
        let jump = Xoshiro256::jump_polynomial((chunk_attempts * draw.draws_per_attempt()) as u64);
        let mut produced = 0usize;
        let mut next_chunk = 0usize;
        while produced < self.num_edges && next_chunk < num_chunks {
            let wave = threads.min(num_chunks - next_chunk);
            let starts: Vec<Xoshiro256> = (0..wave)
                .map(|_| {
                    let start = rng;
                    rng.jump(&jump);
                    start
                })
                .collect();
            // No chunk of this wave can contribute more than what is
            // still missing, even if every earlier chunk comes up empty.
            let cap = self.num_edges - produced;
            let first = next_chunk * chunk_attempts;
            let chunks = par::scheduled(wave, threads, |i| {
                let begin = first + i * chunk_attempts;
                let attempts = chunk_attempts.min(max_attempts - begin);
                let mut edges = Vec::with_capacity(attempts.min(cap));
                let mut rng = starts[i];
                draw.run(&mut rng, attempts, cap, &mut |e| edges.push(e));
                edges
            });
            for e in chunks.into_iter().flatten().take(cap) {
                f(e);
                produced += 1;
            }
            next_chunk += wave;
        }
    }
}

/// Attempts per generation chunk. Resident memory while generating is
/// `threads × CHUNK_ATTEMPTS` edges, independent of the graph size.
const CHUNK_ATTEMPTS: usize = 1 << 16;

/// The validated per-call constants of one R-MAT attempt.
struct QuadrantDraw {
    a: f64,
    b: f64,
    c: f64,
    /// `1 − a − b − c`, hoisted out of the per-level loop.
    d: f64,
    noise: f64,
    levels: u32,
    n: u64,
    omit_self_loops: bool,
}

impl QuadrantDraw {
    fn new(cfg: &RmatConfig) -> Self {
        assert!(cfg.num_vertices > 0, "R-MAT needs at least one vertex");
        let (a, b, c, d) = cfg.probabilities;
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0 && d > 0.0,
            "probabilities must be positive"
        );
        assert!(
            ((a + b + c + d) - 1.0).abs() < 1e-9,
            "probabilities must sum to 1"
        );
        // Noise below 1 keeps every perturbed probability positive, which
        // the threshold select in `attempt` relies on; the documented
        // range is tighter still.
        assert!((0.0..0.5).contains(&cfg.noise), "noise must be in [0, 0.5)");
        let n = cfg.num_vertices;
        QuadrantDraw {
            a,
            b,
            c,
            d: 1.0 - a - b - c,
            noise: cfg.noise,
            levels: 32 - (n.max(2) - 1).leading_zeros(), // ceil(log2 n)
            n: u64::from(n),
            omit_self_loops: cfg.omit_self_loops,
        }
    }

    /// Random draws one attempt consumes, whether or not it yields an edge.
    fn draws_per_attempt(&self) -> usize {
        4 * self.levels as usize
    }

    /// Run `attempts` attempts from `rng`, emitting each edge they yield
    /// until `cap` edges have been emitted.
    fn run(&self, rng: &mut Xoshiro256, attempts: usize, cap: usize, emit: &mut dyn FnMut(Edge)) {
        let mut produced = 0usize;
        for _ in 0..attempts {
            if produced == cap {
                return;
            }
            if let Some(e) = self.attempt(rng) {
                emit(e);
                produced += 1;
            }
        }
    }

    /// One attempt: descend `levels` quadrant choices, then fold the
    /// `2^levels` grid down to `[0, n)`. `None` is a dropped self loop.
    #[inline]
    fn attempt(&self, rng: &mut Xoshiro256) -> Option<Edge> {
        let mut row = 0u64;
        let mut col = 0u64;
        let mut half = (1u64 << self.levels) >> 1;
        while half > 0 {
            // Multiplicative noise per level, renormalized implicitly by
            // comparing against the running thresholds.
            let na = self.a * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
            let nb = self.b * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
            let nc = self.c * (1.0 + self.noise * (rng.next_f64() - 0.5) * 2.0);
            let ab = na + nb;
            let abc = ab + nc;
            let u = rng.next_f64() * (abc + self.d);
            // With nb, nc > 0 the thresholds are ordered, so the quadrant
            // is [top-left, top-right, bottom-left, bottom-right] for
            // u < na, < ab, < abc, and beyond.
            let (q1, q2, q3) = (u >= na, u >= ab, u >= abc);
            row += half * u64::from(q2);
            col += half * u64::from((q1 & !q2) | q3);
            half >>= 1;
        }
        let src = (row % self.n) as u32;
        let dst = (col % self.n) as u32;
        if self.omit_self_loops && src == dst {
            return None;
        }
        Some(Edge::new(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::degree::DegreeHistogram;
    use proptest::prelude::*;

    /// The original single-stream draw loop with its `if/else if`
    /// quadrant chain, kept as the oracle the chunked generator must
    /// reproduce edge for edge.
    fn reference_edges(cfg: &RmatConfig, seed: u64) -> Vec<Edge> {
        let mut out = Vec::new();
        let (a, b, c, _) = cfg.probabilities;
        let n = cfg.num_vertices;
        let levels = 32 - (n.max(2) - 1).leading_zeros();
        let side = 1u64 << levels;
        let mut rng = Xoshiro256::new(seed);
        let mut produced = 0usize;
        let max_attempts = cfg.num_edges.saturating_mul(4).max(64);
        let mut attempts = 0usize;
        while produced < cfg.num_edges && attempts < max_attempts {
            attempts += 1;
            let mut row = 0u64;
            let mut col = 0u64;
            let mut half = side >> 1;
            while half > 0 {
                let na = a * (1.0 + cfg.noise * (rng.next_f64() - 0.5) * 2.0);
                let nb = b * (1.0 + cfg.noise * (rng.next_f64() - 0.5) * 2.0);
                let nc = c * (1.0 + cfg.noise * (rng.next_f64() - 0.5) * 2.0);
                let u = rng.next_f64() * (na + nb + nc + (1.0 - a - b - c));
                if u < na {
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
            let src = (row % n as u64) as u32;
            let dst = (col % n as u64) as u32;
            if cfg.omit_self_loops && src == dst {
                continue;
            }
            out.push(Edge::new(src, dst));
            produced += 1;
        }
        out
    }

    fn chunked_edges(cfg: &RmatConfig, seed: u64, chunk: usize, threads: usize) -> Vec<Edge> {
        let mut out = Vec::new();
        cfg.for_each_edge_chunked(seed, chunk, threads, &mut |e| out.push(e));
        out
    }

    const CHUNKS: [usize; 4] = [1, 3, 64, CHUNK_ATTEMPTS];
    const THREADS: [usize; 3] = [1, 2, 4];

    /// The first `(chunk size, threads)` whose stream differs from
    /// `expected`, the serial loop's.
    fn first_mismatch(cfg: &RmatConfig, seed: u64, expected: &[Edge]) -> Option<(usize, usize)> {
        CHUNKS
            .into_iter()
            .flat_map(|chunk| THREADS.map(|threads| (chunk, threads)))
            .find(|&(chunk, threads)| chunked_edges(cfg, seed, chunk, threads) != expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn chunked_generation_matches_serial_loop(
            n_pick in 0u32..6_000,
            num_edges in 0usize..2_000,
            weights in (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
            noise in 0.0f64..0.5,
            omit_self_loops in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // One case in six is n = 1 or 2, where every or most attempts
            // are self loops.
            let n = if n_pick >= 5_000 { 1 + n_pick % 2 } else { 1 + n_pick };
            let (wa, wb, wc, wd) = weights;
            let total = wa + wb + wc + wd;
            let cfg = RmatConfig {
                num_vertices: n,
                num_edges,
                probabilities: (wa / total, wb / total, wc / total, wd / total),
                noise,
                omit_self_loops,
            };
            let expected = reference_edges(&cfg, seed);
            let mismatch = first_mismatch(&cfg, seed, &expected);
            prop_assert!(mismatch.is_none(), "{mismatch:?} seed {seed} {cfg:?}");
        }

        #[test]
        fn attempt_bound_ends_the_stream_where_the_serial_loop_does(
            num_edges in 16usize..500,
            off_diagonal in (0.01f64..0.06, 0.01f64..0.06),
            noise in 0.0f64..0.5,
            seed in any::<u64>(),
        ) {
            // At n = 2 only the b and c quadrants leave the diagonal, so
            // with small b, c the 4·|E| attempt bound, not the edge
            // count, ends generation — inside some chunk but the first.
            let (b, c) = off_diagonal;
            let a = (1.0 - b - c) / 2.0;
            let cfg = RmatConfig {
                num_vertices: 2,
                num_edges,
                probabilities: (a, b, c, 1.0 - a - b - c),
                noise,
                omit_self_loops: true,
            };
            let expected = reference_edges(&cfg, seed);
            prop_assert!(expected.len() < num_edges, "bound not reached: {cfg:?}");
            let mismatch = first_mismatch(&cfg, seed, &expected);
            prop_assert!(mismatch.is_none(), "{mismatch:?} seed {seed} {cfg:?}");
        }
    }

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
    #[should_panic(expected = "noise must be in [0, 0.5)")]
    fn rejects_out_of_range_noise() {
        let mut cfg = RmatConfig::natural(10, 10);
        cfg.noise = 0.5;
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
