//! Greedy graph coloring with priority-based conflict repair.
//!
//! PowerGraph's Coloring application colors a directed graph so no two
//! connected vertices share a color, and reports the number of colors
//! used. The synchronous emulation here is the classic priority scheme:
//! every vertex starts at color 0; each superstep a vertex re-colors
//! itself (to the smallest color unused by any neighbor) only if it
//! conflicts with a *higher-priority* (lower-id) neighbor. Higher-priority
//! vertices hold their color, so every conflict strictly resolves and the
//! process terminates with a proper coloring.
//!
//! Hardware character: the paper notes Coloring benefits least from
//! CCR-guided partitioning because of its "asynchronous execution manner";
//! its profile carries a moderate serial fraction to reflect the conflict
//! serialization that async engines suffer.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{Graph, GraphMeta, VertexId};
use hetgraph_engine::{Direction, GasProgram};

/// Greedy coloring vertex program.
#[derive(Debug, Clone, Default)]
pub struct Coloring {}

impl Coloring {
    /// Default construction.
    pub fn new() -> Self {
        Coloring {}
    }

    /// The ground-truth hardware profile (see crate docs).
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "coloring".into(),
            edge_flops: 50.0,
            edge_bytes: 32.0,
            vertex_flops: 40.0,
            vertex_bytes: 16.0,
            serial_fraction: 0.04,
            parallel_exponent: 0.93,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }

    /// Number of distinct colors in a final coloring — the application's
    /// reported output ("count the total number of colors in use").
    pub fn color_count(colors: &[u32]) -> usize {
        let mut set: Vec<u32> = colors.to_vec();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Verify a proper coloring: no edge (ignoring self loops) connects
    /// two vertices of the same color.
    pub fn is_proper(graph: &Graph, colors: &[u32]) -> bool {
        graph
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .all(|e| colors[e.src as usize] != colors[e.dst as usize])
    }
}

/// What Coloring gathers for one vertex: whether a higher-priority
/// (lower-id) neighbor holds its color, and the set of colors its
/// neighbors hold. Colors below 64 are bits of a mask; larger ones go
/// to a list that allocates only when such a color occurs, so a gather
/// over ordinary colorings touches no heap.
#[derive(Debug, Clone)]
pub struct ColorAcc {
    conflict: bool,
    low: u64,
    high: Vec<u32>,
}

impl GasProgram for Coloring {
    type VertexData = u32;
    type Accum = ColorAcc;

    fn name(&self) -> &'static str {
        "coloring"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, _v: VertexId) -> u32 {
        0
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[u32],
        v: VertexId,
        u: VertexId,
    ) -> (Option<ColorAcc>, f64) {
        // A self loop is never a neighbor, but its edge still costs a read.
        if u == v {
            return (None, 1.0);
        }
        let color = data[u as usize];
        let (low, high) = if color < 64 {
            (1 << color, Vec::new())
        } else {
            (0, vec![color])
        };
        let acc = ColorAcc {
            // Repair only if a higher-priority (lower id) neighbor holds
            // our color.
            conflict: u < v && color == data[v as usize],
            low,
            high,
        };
        (Some(acc), 1.0)
    }

    fn sum(&self, mut a: ColorAcc, mut b: ColorAcc) -> ColorAcc {
        a.conflict |= b.conflict;
        a.low |= b.low;
        a.high.append(&mut b.high);
        a
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        _v: VertexId,
        old: &u32,
        acc: Option<ColorAcc>,
        _superstep: usize,
    ) -> (u32, bool) {
        let Some(acc) = acc.filter(|acc| acc.conflict) else {
            return (*old, false);
        };
        // Smallest color unused by any neighbor.
        let color = if acc.low != u64::MAX {
            acc.low.trailing_ones()
        } else {
            let mut high = acc.high;
            high.sort_unstable();
            let mut candidate = 64;
            for c in high {
                if c == candidate {
                    candidate += 1;
                } else if c > candidate {
                    break;
                }
            }
            candidate
        };
        (color, color != *old)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn max_supersteps(&self) -> usize {
        10_000
    }
}

/// Executable spec: the `(neighbor id, neighbor color)` list that
/// Coloring gathered before [`ColorAcc`], kept as the oracle the
/// fixed-size set is held to.
#[cfg(test)]
mod spec {
    pub(super) fn gather(data: &[u32], u: u32) -> Vec<(u32, u32)> {
        vec![(u, data[u as usize])]
    }

    pub(super) fn sum(mut a: Vec<(u32, u32)>, mut b: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        a.append(&mut b);
        a
    }

    pub(super) fn apply(v: u32, old: u32, acc: Option<Vec<(u32, u32)>>) -> (u32, bool) {
        let Some(neighbors) = acc else {
            return (old, false);
        };
        if !neighbors.iter().any(|&(u, c)| u != v && c == old && u < v) {
            return (old, false);
        }
        let mut used: Vec<u32> = neighbors
            .iter()
            .filter(|&&(u, _)| u != v)
            .map(|&(_, c)| c)
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut candidate = 0u32;
        for c in used {
            if c == candidate {
                candidate += 1;
            } else if c > candidate {
                break;
            }
        }
        (candidate, candidate != old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, rng::Xoshiro256, Edge, EdgeList};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{MachineWeights, Oblivious, Partitioner};
    use proptest::prelude::*;

    fn run(g: &Graph) -> Vec<u32> {
        let cluster = Cluster::case2();
        let a = Oblivious::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &Coloring::new(), 1);
        assert!(out.report.converged, "coloring must converge");
        out.data
    }

    #[test]
    fn path_uses_two_colors() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 2);
    }

    #[test]
    fn triangle_needs_three_colors() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            3,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 3);
    }

    #[test]
    fn star_uses_two_colors() {
        let n = 30u32;
        let edges = (1..n).map(|v| Edge::new(0, v)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 2);
    }

    #[test]
    fn random_graph_proper() {
        let n = 400u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 17 + 5) % n));
            edges.push(Edge::new(v, (v * 29 + 11) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        // Greedy with priority stays close to degeneracy-order quality.
        assert!(Coloring::color_count(&colors) <= 10);
    }

    #[test]
    fn self_loops_do_not_deadlock() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            2,
            vec![Edge::new(0, 0), Edge::new(0, 1)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
    }

    #[test]
    fn color_count_counts_distinct() {
        assert_eq!(Coloring::color_count(&[0, 1, 0, 2]), 3);
        assert_eq!(Coloring::color_count(&[]), 0);
    }

    /// The colors a [`ColorAcc`] holds, ascending.
    fn gathered_colors(acc: &ColorAcc) -> Vec<u32> {
        let low = (0..64).filter(|c| acc.low >> c & 1 == 1);
        let mut colors: Vec<u32> = low.chain(acc.high.iter().copied()).collect();
        colors.sort_unstable();
        colors.dedup();
        colors
    }

    /// `(color, changed)` of `v` after gathering over `neighbors` in
    /// order, through [`ColorAcc`] and through the spec's list. Asserts
    /// on the way that the set holds exactly the colors of the list's
    /// non-self neighbors — the one fact the repair rule alone cannot
    /// show, since a conflict already puts `v`'s own color in the set.
    fn both_applies(data: &[u32], v: u32, neighbors: &[u32]) -> ((u32, bool), (u32, bool)) {
        let offsets = vec![0; data.len() + 1];
        let meta = GraphMeta::from_offsets(data.len() as u32, 0, &offsets, &offsets);
        let c = Coloring::new();
        let (mut fast, mut slow) = (None, None);
        for &u in neighbors {
            let (contrib, work) = c.gather(&meta, data, v, u);
            assert_eq!(work, 1.0, "one work unit per edge");
            if let Some(x) = contrib {
                fast = Some(match fast.take() {
                    Some(prev) => c.sum(prev, x),
                    None => x,
                });
            }
            let x = spec::gather(data, u);
            slow = Some(match slow.take() {
                Some(prev) => spec::sum(prev, x),
                None => x,
            });
        }
        let mut listed: Vec<u32> = (slow.iter().flatten())
            .filter(|&&(u, _)| u != v)
            .map(|&(_, color)| color)
            .collect();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(
            fast.as_ref().map(gathered_colors).unwrap_or_default(),
            listed
        );
        let old = data[v as usize];
        (c.apply(&meta, v, &old, fast, 0), spec::apply(v, old, slow))
    }

    #[test]
    fn every_low_color_taken_moves_to_the_overflow() {
        // Neighbors 0..=k hold colors 0..=k, and neighbor 0 < v = 100
        // shares v's color 0: the repair picks k + 1.
        for k in [62u32, 63, 64, 70] {
            let mut data: Vec<u32> = (0..=100).collect();
            data[100] = 0;
            let neighbors: Vec<u32> = (0..=k).chain([100, 3, 100]).collect();
            let (fast, slow) = both_applies(&data, 100, &neighbors);
            assert_eq!(fast, (k + 1, true), "k = {k}");
            assert_eq!(fast, slow, "k = {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fixed-size set repairs exactly as the gathered list did,
        /// over neighbor lists with self loops, repeated neighbors,
        /// colors 0..=200 (crossing the 63/64 mask boundary), and — in
        /// one mode of three — every low color taken by a conflicting
        /// neighborhood.
        #[test]
        fn color_acc_matches_the_neighbor_list(seed in any::<u64>()) {
            let mut rng = Xoshiro256::new(seed);
            let mode = rng.next_bounded(3);
            let (data, v, mut neighbors): (Vec<u32>, u32, Vec<u32>) = if mode == 2 {
                // Colors cycle through 0..m, m in 64..72, so neighbors
                // 0..n take every low color and v - m < v shares v's.
                let m = 64 + rng.next_bounded(8) as u32;
                let n = 2 * m + rng.next_bounded(100) as u32;
                let mut data: Vec<u32> = (0..n).map(|i| i % m).collect();
                for _ in 0..rng.next_bounded(4) {
                    data[rng.next_bounded(n as u64) as usize] = rng.next_bounded(201) as u32;
                }
                let v = m + rng.next_bounded((n - m) as u64) as u32;
                (data, v, (0..n).collect())
            } else {
                let n = 2 + rng.next_bounded(299) as u32;
                let top = if mode == 0 { 201 } else { 8 };
                let data = (0..n).map(|_| rng.next_bounded(top) as u32).collect();
                let v = rng.next_bounded(n as u64) as u32;
                let len = rng.next_bounded(65) as usize;
                (data, v, (0..len).map(|_| rng.next_bounded(n as u64) as u32).collect())
            };
            // Self loops and repeats at random positions.
            for _ in 0..rng.next_bounded(4) {
                let at = rng.next_bounded(neighbors.len() as u64 + 1) as usize;
                neighbors.insert(at, v);
                if let Some(&u) = neighbors.get(rng.next_bounded(neighbors.len() as u64) as usize) {
                    neighbors.push(u);
                }
            }
            let (fast, slow) = both_applies(&data, v, &neighbors);
            prop_assert_eq!(fast, slow);
        }
    }
}
