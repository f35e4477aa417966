//! Executable spec for placement: a naive transcription of each
//! partitioner's module-doc rule, with no caches, no unrolling and no
//! mask-width tricks, and one generic test that holds every fast path
//! byte-equal to its twin.
//!
//! The fast paths argue their equivalence in comments (incremental
//! min/max, the locality-class candidate set, the 2e-9 tie filter,
//! `u16`/`u32`/`u64` replica masks). These twins are what those
//! arguments are checked against. Adding a partitioner's twin is one
//! function here plus one row in [`tests::TWINS`].

use hetgraph_core::rng::{hash64, hash_combine};
use hetgraph_core::{EdgeSource, MachineId};

use crate::weights::MachineWeights;

/// Oblivious: every machine scored for every edge by
/// `bal(i) + [src on i] + [dst on i]` over normalized loads recomputed
/// from scratch, the running-best list of machines within 1e-9, and the
/// edge hash choosing among them.
pub(crate) fn oblivious(source: &dyn EdgeSource, weights: &MachineWeights) -> Vec<u16> {
    let p = weights.len();
    let mut replicas = vec![0u64; source.num_vertices() as usize];
    let mut loads = vec![0f64; p];
    let mut assignment = Vec::with_capacity(source.num_edges());
    for e in source.edges() {
        let mu = replicas[e.src as usize];
        let mv = replicas[e.dst as usize];
        let nl = |i: usize| loads[i] / weights.as_slice()[i];
        let min_nl = (0..p).map(nl).fold(f64::INFINITY, f64::min);
        let max_nl = (0..p).map(nl).fold(f64::NEG_INFINITY, f64::max);
        let range = max_nl - min_nl;
        let mut best_score = f64::NEG_INFINITY;
        let mut best: Vec<u16> = Vec::new();
        for i in 0..p {
            let bal = if range <= f64::EPSILON {
                1.0
            } else {
                (max_nl - nl(i)) / range
            };
            let score = bal + (((mu >> i) & 1) as f64 + ((mv >> i) & 1) as f64);
            if score > best_score + 1e-9 {
                best_score = score;
                best.clear();
                best.push(i as u16);
            } else if (score - best_score).abs() <= 1e-9 {
                best.push(i as u16);
            }
        }
        let chosen = best[(hash64(e.key()) % best.len() as u64) as usize];
        replicas[e.src as usize] |= 1u64 << chosen;
        replicas[e.dst as usize] |= 1u64 << chosen;
        loads[chosen as usize] += 1.0;
        assignment.push(chosen);
    }
    assignment
}

/// Grid: each vertex's constraint set is the row ∪ column of its
/// weighted-hash home in the near-square `r × c` grid; an edge goes to
/// the least-loaded machine of the intersection of its endpoints' sets,
/// else of their union, else of every machine.
pub(crate) fn grid(source: &dyn EdgeSource, weights: &MachineWeights) -> Vec<u16> {
    let p = weights.len();
    let r = ((p as f64).sqrt().floor() as usize).max(1);
    let c = p.div_ceil(r);
    let constraint = |v: u32| -> Vec<usize> {
        let home = weights.pick(hash64(hash_combine(v as u64, 0x6772_6964)));
        let (row, col) = (home.index() / c, home.index() % c);
        (0..p).filter(|&j| j / c == row || j % c == col).collect()
    };
    let mut loads = vec![0f64; p];
    let mut assignment = Vec::with_capacity(source.num_edges());
    for e in source.edges() {
        let (su, sv) = (constraint(e.src), constraint(e.dst));
        let inter: Vec<usize> = su.iter().copied().filter(|j| sv.contains(j)).collect();
        let union: Vec<usize> = (0..p)
            .filter(|j| su.contains(j) || sv.contains(j))
            .collect();
        let candidates = [inter, union, (0..p).collect()]
            .into_iter()
            .find(|set| !set.is_empty())
            .unwrap();
        let chosen = weights.least_loaded(&loads, candidates.into_iter().map(MachineId::from));
        loads[chosen.index()] += 1.0;
        assignment.push(chosen.0);
    }
    assignment
}

mod tests {
    use super::*;
    use crate::{PartitionAssignment, PartitionerKind};
    use hetgraph_core::obs::OFF;
    use hetgraph_core::rng::Xoshiro256;
    use hetgraph_core::{Edge, EdgeList, Graph};
    use proptest::prelude::*;

    /// A naive placement rule: the edge → machine vector of one replay.
    type Spec = fn(&dyn EdgeSource, &MachineWeights) -> Vec<u16>;

    /// Every (fast partitioner, spec) pair the harness checks.
    const TWINS: [(PartitionerKind, Spec); 2] = [
        (PartitionerKind::Oblivious, oblivious),
        (PartitionerKind::Grid, grid),
    ];

    /// Both sides of every replica-mask width cutoff (16, 32, 64).
    const MACHINES: [usize; 12] = [1, 2, 3, 15, 16, 17, 31, 32, 33, 48, 63, 64];

    /// A small multigraph with a few hubs, self-contained parallel-edge
    /// runs and isolated vertices: short enough that loads stay small and
    /// balance terms tie often.
    fn random_graph(rng: &mut Xoshiro256) -> Graph {
        let n = rng.range_u64(2, 120) as u32;
        let m = rng.range_u64(0, 600) as usize;
        let hubs = rng.range_u64(1, 4) as u32;
        let mut edges: Vec<Edge> = Vec::with_capacity(m);
        while edges.len() < m {
            let end = |rng: &mut Xoshiro256| {
                if rng.bernoulli(0.3) {
                    rng.next_bounded(hubs.min(n) as u64) as u32
                } else {
                    rng.next_bounded(n as u64) as u32
                }
            };
            let e = match edges.last() {
                Some(&last) if rng.bernoulli(0.15) => last,
                _ => Edge::new(end(rng), end(rng)),
            };
            edges.push(e);
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    /// Weights built to tie: exact duplicates, and values a hair apart —
    /// 1e-12 is far inside the 1e-9 tie band, the 1e-9-scale offsets
    /// straddle the band's edge and the 2e-9 filter threshold.
    fn tie_heavy_weights(rng: &mut Xoshiro256, p: usize) -> MachineWeights {
        const NUDGES: [f64; 7] = [0.0, 1e-12, 3e-10, 7e-10, 1e-9, 1.5e-9, 2.5e-9];
        let raw: Vec<f64> = match rng.next_bounded(4) {
            0 => vec![1.0; p],
            1 => {
                let palette = [1.0, 2.0, 3.0, 1.0 + 1e-12, 2.0 - 1e-9];
                (0..p)
                    .map(|_| palette[rng.next_bounded(5) as usize])
                    .collect()
            }
            2 => {
                let base = 1.0 + rng.next_bounded(3) as f64;
                let nudge = |rng: &mut Xoshiro256| NUDGES[rng.next_bounded(7) as usize];
                (0..p).map(|_| base * (1.0 + nudge(rng))).collect()
            }
            _ => (0..p).map(|_| 0.5 + 3.5 * rng.next_f64()).collect(),
        };
        MachineWeights::new(&raw)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each fast path returns exactly the assignment of its spec —
        /// edge machines, replica masks, masters and loads — at every
        /// mask width and thread count.
        #[test]
        fn fast_placement_matches_spec(seed in any::<u64>()) {
            let mut rng = Xoshiro256::new(seed);
            let graph = random_graph(&mut rng);
            for p in MACHINES {
                let w = tie_heavy_weights(&mut rng, p);
                let threads = [1, 2, 4][rng.next_bounded(3) as usize];
                for (kind, spec) in TWINS {
                    let want = PartitionAssignment::from_edge_machines(&graph, p, spec(&graph, &w), 1);
                    let got = kind.build().partition(&graph, &w, threads, &OFF);
                    prop_assert!(
                        got == want,
                        "{kind} diverges from its spec: seed {seed}, {p} machines, weights {:?}, {threads} threads",
                        w.as_slice()
                    );
                }
            }
        }
    }
}
