//! Ginger partitioning (Section II-C-1; PowerLyra's heuristic Hybrid,
//! scoring from Fennel).
//!
//! High-degree vertices are handled exactly like [`crate::Hybrid`]
//! (in-edges spread by source hash). Low-degree vertices, instead of a
//! plain target hash, are *re-assigned* to the machine maximizing
//!
//! ```text
//! score(v, i) = |N(v) ∩ V_i|  −  (1 / ccr_i) · γ · b(i)          (Eq. 2)
//! ```
//!
//! where `|N(v) ∩ V_i|` counts v's neighbors already homed on machine `i`,
//! `b(i)` is a balance cost over the vertices and edges currently on `i`,
//! and the heterogeneity factor `1 / ccr_i` shrinks the cost for fast
//! machines "such that a fast machine has a smaller factor to gain a
//! better score" (paper). All in-edges of a re-assigned vertex move with
//! it — the mixed-cut property that keeps low-degree replication minimal.

use hetgraph_core::{obs::Telemetry, EdgeSource};

use crate::assignment::PartitionAssignment;
use crate::hybrid::{pick_table, DEFAULT_THRESHOLD, SOURCE_SALT, TARGET_SALT};
use crate::traits::{in_memory, observed, Partitioner};
use crate::weights::{assert_bitmask_capacity, MachineWeights};

/// Ginger mixed-cut partitioner: in-degree threshold 100, γ = graph
/// average degree.
#[derive(Debug, Clone, Default)]
pub struct Ginger;

impl Ginger {
    /// The partitioner (it has no parameters).
    pub fn new() -> Self {
        Ginger
    }
}

impl Partitioner for Ginger {
    fn name(&self) -> &'static str {
        "ginger"
    }

    /// One Fennel scoring scan per low-degree vertex (high-degree
    /// vertices keep hash homes and are never greedily scored).
    fn greedy_scans(&self, source: &dyn EdgeSource) -> Option<u64> {
        let graph = in_memory(source);
        Some(
            (0..graph.num_vertices())
                .filter(|&v| graph.in_degree(v) <= DEFAULT_THRESHOLD)
                .count() as u64,
        )
    }

    /// Reads a shard source into memory first (not bounded-memory).
    fn partition(
        &self,
        source: &dyn EdgeSource,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        let graph = &*in_memory(source);
        observed(self, graph, threads, telemetry, || {
            let p = weights.len();
            assert_bitmask_capacity(p);
            let n = graph.num_vertices() as usize;
            // Balance-pressure coefficient γ. Larger values favor balance over
            // locality; Fennel's analysis suggests values around the average
            // degree.
            let gamma = graph.avg_degree().max(1.0);

            // Initial homes: the Hybrid phase-1 target hash, computed once per
            // vertex (threaded pick table).
            let mut home: Vec<u16> = pick_table(weights, n, TARGET_SALT, threads);

            // Running load accounting for the balance term: vertices and
            // in-edge bundles currently homed per machine.
            let mut vert_load = vec![0f64; p];
            let mut edge_load = vec![0f64; p];
            for v in 0..n as u32 {
                vert_load[home[v as usize] as usize] += 1.0;
                edge_load[home[v as usize] as usize] += graph.in_degree(v) as f64;
            }
            let total_verts: f64 = n as f64;
            let total_edges: f64 = graph.num_edges() as f64 + 1.0;
            // Loop invariants of the scoring scan, hoisted: the uniform
            // vertex/edge shares and the per-machine heterogeneity pressure
            // `(1/(w·p)) · γ`. Each is the exact division/product expression
            // of the original per-iteration code, so scores stay
            // bit-identical.
            let vert_share = total_verts / p as f64;
            let edge_share = total_edges / p as f64;
            let het_gamma: Vec<f64> = weights
                .as_slice()
                .iter()
                .map(|&w| (1.0 / (w * p as f64)) * gamma)
                .collect();

            // One streaming sweep over low-degree vertices, greedily re-homing
            // each by score. High-degree vertices keep hash homes (their
            // in-edges are source-hashed below anyway).
            let mut overlap = vec![0f64; p];
            for v in 0..n as u32 {
                let in_deg = graph.in_degree(v);
                if in_deg > DEFAULT_THRESHOLD {
                    continue;
                }
                // Neighbor overlap against current homes.
                overlap.fill(0.0);
                for &u in graph.in_neighbors(v).iter().chain(graph.out_neighbors(v)) {
                    overlap[home[u as usize] as usize] += 1.0;
                }
                let old = home[v as usize] as usize;
                // Remove v from its current home while scoring, so the balance
                // term sees the hypothetical placement cleanly.
                vert_load[old] -= 1.0;
                edge_load[old] -= in_deg as f64;

                let mut best = old;
                let mut best_score = f64::NEG_INFINITY;
                for i in 0..p {
                    // b(i): how full machine i is relative to a uniform share,
                    // over both vertices and edges (the paper: "considers both
                    // vertices and edges located on machine p").
                    let b = 0.5
                        * ((vert_load[i] + 1.0) / vert_share
                            + (edge_load[i] + in_deg as f64) / edge_share);
                    // Heterogeneity factor 1/ccr_i, with ccr expressed as the
                    // normalized weight times p (so a homogeneous cluster has
                    // factor exactly 1 and reduces to plain Fennel/Ginger).
                    let score = overlap[i] - het_gamma[i] * b;
                    if score > best_score {
                        best_score = score;
                        best = i;
                    }
                }
                home[v as usize] = best as u16;
                vert_load[best] += 1.0;
                edge_load[best] += in_deg as f64;
            }

            // Materialize edge assignment: low-degree targets pull their
            // in-edges to their home; high-degree targets spread by source
            // (precomputed pick table, threaded chunked map).
            let src_pick = pick_table(weights, n, SOURCE_SALT, threads);
            let edges = graph.edges();
            let assignment: Vec<u16> = crate::chunk::chunked_map(edges.len(), threads, |i| {
                let e = &edges[i];
                if graph.in_degree(e.dst) > DEFAULT_THRESHOLD {
                    src_pick[e.src as usize]
                } else {
                    home[e.dst as usize]
                }
            });
            PartitionAssignment::from_edge_machines(graph, p, assignment, threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::Hybrid;
    use crate::random_hash::RandomHash;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};

    fn community_graph() -> Graph {
        // Two dense communities plus a hub: Ginger's locality term should
        // shine here relative to hash-based Hybrid.
        let n = 2_000u32;
        let half = n / 2;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(Edge::new(v, 0)); // hub
            let base = if v < half { 0 } else { half };
            let span = half;
            edges.push(Edge::new(v, base + (v * 7 + 1) % span));
            edges.push(Edge::new(v, base + (v * 13 + 5) % span));
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn lower_replication_than_hybrid_on_community_graph() {
        let g = community_graph();
        let w = MachineWeights::uniform(4);
        let ginger = Ginger::new().partition(&g, &w, 1, &OFF);
        let hybrid = Hybrid::new().partition(&g, &w, 1, &OFF);
        assert!(
            ginger.replication_factor() <= hybrid.replication_factor(),
            "ginger {} !<= hybrid {}",
            ginger.replication_factor(),
            hybrid.replication_factor()
        );
    }

    #[test]
    fn lower_replication_than_random() {
        let g = community_graph();
        let w = MachineWeights::uniform(4);
        let ginger = Ginger::new().partition(&g, &w, 1, &OFF);
        let random = RandomHash::new().partition(&g, &w, 1, &OFF);
        assert!(ginger.replication_factor() < random.replication_factor());
    }

    #[test]
    fn weighted_assignment_favors_fast_machine() {
        let g = community_graph();
        let w = MachineWeights::from_ccr(&[1.0, 3.0]);
        let a = Ginger::new().partition(&g, &w, 1, &OFF);
        let shares = a.edge_shares();
        assert!(
            shares[1] > 0.55,
            "fast machine share {} should exceed half",
            shares[1]
        );
        assert!(shares[1] > shares[0]);
    }

    #[test]
    fn homogeneous_weights_stay_balanced() {
        let g = community_graph();
        let a = Ginger::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        for &s in &a.edge_shares() {
            assert!((s - 0.25).abs() < 0.15, "share {s}");
        }
    }

    #[test]
    fn deterministic() {
        let g = community_graph();
        let w = MachineWeights::uniform(4);
        assert_eq!(
            Ginger::new().partition(&g, &w, 1, &OFF),
            Ginger::new().partition(&g, &w, 1, &OFF)
        );
    }

    #[test]
    fn all_edges_assigned() {
        let g = community_graph();
        let a = Ginger::new().partition(&g, &MachineWeights::uniform(5), 1, &OFF);
        let total: usize = a.edges_per_machine().iter().sum();
        assert_eq!(total, g.num_edges());
    }
}
