//! Multi-source lane programs: one superstep wave answers a whole batch.
//!
//! Both programs widen a scalar per-vertex state into an inline,
//! fixed-width *lane block* `[T; W]` with one lane per batched source,
//! folded through the existing gather path — the kernel is untouched, so
//! a wave inherits its chunk-ordered merge and stays byte-identical at
//! any host thread count. Vertex data and accumulator are plain arrays:
//! a wave makes no heap allocation per edge or per vertex, the per-lane
//! loops have a compile-time trip count, and the state is exactly
//! `n × W × size_of::<T>()` bytes.
//!
//! # Lane blocks and padding
//!
//! The block width `W` is a const generic; the server runs each wave at
//! [`block_width`] of its deduplicated lane count `L` — the narrowest of
//! `{1, 2, 4, 8, 16, 32, 64}` that holds it, [`MAX_LANES`] at most. (One
//! wide block for every wave was measured and rejected: the mean
//! `serve_mixed` wave has 3.1 lanes, so a fixed 16-wide block halves the
//! gain and raises the benchmark's peak RSS from 20.8 to 27.4 MiB.)
//! Lanes `L..W` are *padding*, and padding is **inert** — it can never
//! flip a vertex's `changed` bit, never scatters, and is never charged:
//!
//! - a padding lane's id is `NO_VERTEX` (`u32::MAX`), which equals no
//!   vertex, so it is nobody's source or seed;
//! - SSSP pads with [`UNREACHABLE`]: `min` never improves it, and "all
//!   `W` lanes unreachable" is the same predicate as "all `L` lanes
//!   unreachable";
//! - PPR pads with `0.0`: `0.0 / odeg = 0.0`, `0.0 + 0.0 = 0.0` and
//!   `0.0 + d · 0.0 = 0.0`, the same bits every superstep;
//! - the work charged per gathered edge is `L` as `f64`, never `W`.
//!
//! So a wave's data in lanes `..L` and its whole `SimReport` are
//! independent of `W` (`tests/serve.rs` pins this *width invariance*).
//!
//! # Per-lane identity contract
//!
//! A lane inside an `L`-lane batch produces **bitwise-identical** final
//! data to running that lane alone. The active frontier of a batch is the
//! *union* of the per-lane frontiers, so a vertex can be activated by one
//! lane while another lane's state there is already settled — the
//! contract holds because for both programs an *extra* activation is a
//! no-op:
//!
//! - a vertex `v` is re-activated only when some in-neighbor `u` changed
//!   in the previous superstep. If `u`'s *lane-ℓ* value did not change,
//!   lane ℓ's gather at `v` sees exactly the inputs it saw when `v` was
//!   last applied, and apply is a pure function of those inputs (SSSP's
//!   `min` is additionally idempotent against the old value), so lane ℓ's
//!   value is recomputed unchanged;
//! - if `u`'s lane-ℓ value *did* change, then in the solo lane-ℓ run `u`
//!   also changed and scattered, so `v` is active there too.
//!
//! By induction per superstep, each lane's data evolves exactly as in its
//! solo run (the solo run may converge and stop earlier; its data is
//! frozen from that point, and the batch recomputes it unchanged). The
//! proptest suite pins this end to end across partitioners and thread
//! counts.

use hetgraph_apps::pagerank::DAMPING;
use hetgraph_apps::{PageRank, Sssp};
use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{ActiveInit, Direction, GasProgram};

/// Distance value for unreachable vertices (shared with the solo
/// [`Sssp`] program so lane extraction is directly comparable).
pub const UNREACHABLE: u32 = hetgraph_apps::sssp::UNREACHABLE;

/// Widest lane block, and therefore the largest `max_batch` the server
/// accepts: 64 lanes is 256 B (SSSP) / 512 B (PPR) of state per vertex.
pub const MAX_LANES: usize = 64;

/// Lane id of a padding lane. Vertex ids are `< num_vertices <= u32::MAX`,
/// so this equals no vertex of any graph.
const NO_VERTEX: VertexId = VertexId::MAX;

/// The block width a wave of `lanes` lanes runs at: the narrowest power
/// of two that holds them.
///
/// # Panics
/// Panics unless `1 <= lanes <= MAX_LANES`.
pub fn block_width(lanes: usize) -> usize {
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane count {lanes} outside 1..={MAX_LANES}"
    );
    lanes.next_power_of_two()
}

/// `ids` padded to a `W`-wide block with `NO_VERTEX`.
fn pad_lanes<const W: usize>(ids: &[VertexId]) -> [VertexId; W] {
    assert!(
        ids.len() <= W,
        "{} lanes do not fit a {W}-wide block",
        ids.len()
    );
    assert!(
        !ids.contains(&NO_VERTEX),
        "vertex id {NO_VERTEX} is reserved for padding lanes"
    );
    let mut block = [NO_VERTEX; W];
    block[..ids.len()].copy_from_slice(ids);
    block
}

/// Multi-source unit-weight SSSP on `W`-wide lane blocks: lane ℓ computes
/// distances from `sources[ℓ]`.
///
/// Per-edge gather work scales with the lane count (`L` work units per
/// visited edge), so the simulated cost of a wave honestly reflects the
/// widened state; the batching win comes from sharing supersteps,
/// barriers, and per-vertex overheads across lanes, not from free edges.
#[derive(Debug, Clone)]
pub struct SsspLanes<const W: usize> {
    /// Lane sources, padded to the block width.
    ids: [VertexId; W],
    lanes: usize,
}

/// [`SsspLanes`] at the default `max_batch` width.
pub type MultiSssp = SsspLanes<16>;

impl<const W: usize> SsspLanes<W> {
    /// Lanes from `sources`, in the given lane order.
    ///
    /// # Panics
    /// Panics if `sources` is empty or longer than `W`.
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(!sources.is_empty(), "MultiSssp needs at least one source");
        SsspLanes {
            ids: pad_lanes(&sources),
            lanes: sources.len(),
        }
    }

    /// The lane sources, in lane order.
    pub fn sources(&self) -> &[VertexId] {
        &self.ids[..self.lanes]
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

impl<const W: usize> GasProgram for SsspLanes<W> {
    type VertexData = [u32; W];
    type Accum = [u32; W];

    fn name(&self) -> &'static str {
        "multi_sssp"
    }

    fn profile(&self) -> AppProfile {
        AppProfile {
            name: "multi_sssp".into(),
            ..Sssp::standard_profile()
        }
    }

    fn init(&self, _graph: &GraphMeta<'_>, v: VertexId) -> [u32; W] {
        self.ids.map(|s| if v == s { 0 } else { UNREACHABLE })
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[[u32; W]],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<[u32; W]>, f64) {
        let from = &data[u as usize];
        let work = self.lanes as f64;
        if from.iter().all(|&d| d == UNREACHABLE) {
            return (None, work);
        }
        let candidate = from.map(|d| if d == UNREACHABLE { UNREACHABLE } else { d + 1 });
        (Some(candidate), work)
    }

    fn sum(&self, mut a: [u32; W], b: [u32; W]) -> [u32; W] {
        for (x, &y) in a.iter_mut().zip(&b) {
            *x = (*x).min(y);
        }
        a
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        v: VertexId,
        old: &[u32; W],
        acc: Option<[u32; W]>,
        superstep: usize,
    ) -> ([u32; W], bool) {
        let new = match acc {
            Some(a) => self.sum(*old, a),
            None => *old,
        };
        let improved = new.iter().zip(old).any(|(&n, &o)| n < o);
        // Every source must fire its first scatter even though its own
        // distance does not change in superstep 0 (same kick-off rule as
        // the solo program).
        let kick_off = superstep == 0 && self.sources().contains(&v);
        (new, improved || kick_off)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn initial_active(&self, _graph: &GraphMeta<'_>) -> ActiveInit {
        ActiveInit::Seeds(self.sources().to_vec())
    }

    fn max_supersteps(&self) -> usize {
        1_000_000
    }
}

/// Multi-seed personalized PageRank on `W`-wide lane blocks: lane ℓ runs
/// `p(v) = (1 − d)·[v = seed_ℓ] + d · Σ_{u → v} p(u) / L(u)` for a fixed
/// iteration budget, with all teleport mass on the lane's own seed.
///
/// Per-edge gather work scales with the lane count, like [`SsspLanes`].
/// The fixed-iteration, scatter-on-change configuration mirrors the
/// global [`hetgraph_apps::PageRank`], so the per-lane identity argument
/// in the module docs applies unchanged (apply is a pure function of the
/// gathered accumulator).
#[derive(Debug, Clone)]
pub struct PprLanes<const W: usize> {
    /// Lane seeds, padded to the block width.
    ids: [VertexId; W],
    lanes: usize,
    iterations: usize,
}

/// [`PprLanes`] at the default `max_batch` width.
pub type MultiPpr = PprLanes<16>;

impl<const W: usize> PprLanes<W> {
    /// Lanes from `seeds`, each run for exactly `iterations` supersteps.
    ///
    /// # Panics
    /// Panics if `seeds` is empty or longer than `W`, or `iterations` is
    /// zero.
    pub fn new(seeds: Vec<VertexId>, iterations: usize) -> Self {
        assert!(!seeds.is_empty(), "MultiPpr needs at least one seed");
        assert!(iterations > 0, "MultiPpr needs at least one iteration");
        PprLanes {
            ids: pad_lanes(&seeds),
            lanes: seeds.len(),
            iterations,
        }
    }

    /// The lane seeds, in lane order.
    pub fn seeds(&self) -> &[VertexId] {
        &self.ids[..self.lanes]
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

impl<const W: usize> GasProgram for PprLanes<W> {
    type VertexData = [f64; W];
    type Accum = [f64; W];

    fn name(&self) -> &'static str {
        "multi_ppr"
    }

    fn profile(&self) -> AppProfile {
        AppProfile {
            name: "multi_ppr".into(),
            ..PageRank::standard_profile()
        }
    }

    fn init(&self, _graph: &GraphMeta<'_>, v: VertexId) -> [f64; W] {
        self.ids.map(|s| if v == s { 1.0 } else { 0.0 })
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[[f64; W]],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<[f64; W]>, f64) {
        // u is an in-neighbor, so its out-degree is never zero here.
        let odeg = graph.out_degree(u) as f64;
        let contribution = data[u as usize].map(|p| p / odeg);
        (Some(contribution), self.lanes as f64)
    }

    fn sum(&self, mut a: [f64; W], b: [f64; W]) -> [f64; W] {
        for (x, &y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        v: VertexId,
        old: &[f64; W],
        acc: Option<[f64; W]>,
        _superstep: usize,
    ) -> ([f64; W], bool) {
        let mut new = acc.unwrap_or([0.0; W]);
        for (gathered, &s) in new.iter_mut().zip(&self.ids) {
            let teleport = if v == s { 1.0 - DAMPING } else { 0.0 };
            *gathered = teleport + DAMPING * *gathered;
        }
        let changed = new
            .iter()
            .zip(old)
            .any(|(&n, &o)| n.to_bits() != o.to_bits());
        (new, changed)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};

    fn test_graph() -> Graph {
        // Two loosely-coupled rings with a bridge, so different sources
        // have genuinely different reach profiles.
        let n = 24u32;
        let mut edges = Vec::new();
        for v in 0..12u32 {
            edges.push(Edge::new(v, (v + 1) % 12));
        }
        for v in 12..24u32 {
            edges.push(Edge::new(v, 12 + (v + 1 - 12) % 12));
        }
        edges.push(Edge::new(5, 17));
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    fn run<P: GasProgram>(g: &Graph, p: &P) -> Vec<P::VertexData> {
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        SimEngine::new(&cluster).run(&dist, p, 1).data
    }

    #[test]
    fn multi_sssp_lanes_match_solo_runs() {
        let g = test_graph();
        let sources = vec![0u32, 17, 5];
        let multi = run(&g, &MultiSssp::new(sources.clone()));
        for (lane, &s) in sources.iter().enumerate() {
            let solo = run(&g, &Sssp::new(s));
            for v in 0..g.num_vertices() as usize {
                assert_eq!(
                    multi[v][lane], solo[v],
                    "lane {lane} (source {s}) diverged at vertex {v}"
                );
            }
        }
    }

    #[test]
    fn multi_ppr_lanes_match_single_lane_runs() {
        let g = test_graph();
        let seeds = vec![3u32, 20];
        let multi = run(&g, &MultiPpr::new(seeds.clone(), 15));
        for (lane, &s) in seeds.iter().enumerate() {
            let solo = run(&g, &MultiPpr::new(vec![s], 15));
            for v in 0..g.num_vertices() as usize {
                assert_eq!(
                    multi[v][lane].to_bits(),
                    solo[v][0].to_bits(),
                    "lane {lane} (seed {s}) diverged at vertex {v}"
                );
            }
        }
    }

    #[test]
    fn ppr_mass_concentrates_at_the_seed() {
        let g = test_graph();
        let data = run(&g, &MultiPpr::new(vec![0], 30));
        let seed_rank = data[0][0];
        assert!(
            data.iter().all(|lanes| lanes[0] <= seed_rank),
            "seed must hold the maximum personalized rank"
        );
        assert!(seed_rank > 0.15, "teleport mass missing: {seed_rank}");
    }

    #[test]
    fn duplicate_sources_share_results() {
        let g = test_graph();
        let multi = run(&g, &MultiSssp::new(vec![4, 4]));
        for lanes in &multi {
            assert_eq!(lanes[0], lanes[1]);
        }
    }

    #[test]
    fn padding_lanes_stay_inert() {
        let g = test_graph();
        for lanes in run(&g, &SsspLanes::<4>::new(vec![0, 17, 5])) {
            assert_eq!(lanes[3], UNREACHABLE);
        }
        for lanes in run(&g, &PprLanes::<4>::new(vec![3, 20, 7], 15)) {
            assert_eq!(lanes[3].to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn block_width_is_the_narrowest_power_of_two() {
        let widths: Vec<usize> = [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64]
            .into_iter()
            .map(block_width)
            .collect();
        assert_eq!(widths, [1, 2, 4, 4, 8, 8, 16, 16, 32, 64, 64]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn block_width_rejects_more_than_max_lanes() {
        block_width(MAX_LANES + 1);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        MultiSssp::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "do not fit a 2-wide block")]
    fn too_many_lanes_for_the_block_rejected() {
        SsspLanes::<2>::new(vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "reserved for padding")]
    fn padding_sentinel_rejected_as_a_seed() {
        MultiPpr::new(vec![NO_VERTEX], 5);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        MultiPpr::new(vec![0], 0);
    }
}
