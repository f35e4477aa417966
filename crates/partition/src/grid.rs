//! Grid (constrained) partitioning (Section II-B-3).
//!
//! Machines are arranged in a (near-)square matrix; a *shard* is a row or
//! column. Each vertex is hashed — weighted by CCR in the
//! heterogeneity-aware variant — to a home machine, and its *constraint
//! set* is that machine's row ∪ column. An edge may only be placed in the
//! intersection of its endpoints' constraint sets, which caps the number of
//! machines any vertex can be replicated on at one row + one column and so
//! bounds communication. Within the intersection, the machine with the
//! least normalized load (`load / weight`) wins — the paper's "score"
//! combining current edge distribution with CCR-suggested placement.
//!
//! The paper notes the machine count "has to be a square number"; like
//! PowerGraph's implementation we relax this to an `r × c` near-square
//! arrangement so the 2-machine clusters of the evaluation can run all five
//! partitioners.

use hetgraph_core::rng::{hash64, hash_combine};
use hetgraph_core::{obs::Telemetry, Edge, EdgeSource, MachineId};

use crate::assignment::PartitionAssignment;
use crate::chunk::chunked_map;
use crate::traits::{observed, Partitioner};
use crate::weights::{assert_bitmask_capacity, MachineWeights};

/// Constrained grid partitioner.
#[derive(Debug, Clone, Default)]
pub struct Grid {}

impl Grid {
    /// Default construction.
    pub fn new() -> Self {
        Grid {}
    }
}

/// Near-square grid dimensions for `p` machines: `r = floor(sqrt(p))`,
/// `c = ceil(p / r)`. Machine `i` sits at `(i / c, i % c)`; the last row
/// may be partial.
fn grid_dims(p: usize) -> (usize, usize) {
    let r = (p as f64).sqrt().floor() as usize;
    let r = r.max(1);
    let c = p.div_ceil(r);
    (r, c)
}

/// The constraint set (row ∪ column) of machine `m` in an `r × c` grid
/// over `p` machines.
fn constraint_set(m: usize, p: usize, r: usize, c: usize) -> u64 {
    let (row, col) = (m / c, m % c);
    let mut mask = 0u64;
    for j in 0..c {
        let cell = row * c + j;
        if cell < p {
            mask |= 1u64 << cell;
        }
    }
    for i in 0..r {
        let cell = i * c + col;
        if cell < p {
            mask |= 1u64 << cell;
        }
    }
    mask
}

fn mask_machines(mask: u64) -> impl Iterator<Item = MachineId> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let i = m.trailing_zeros();
            m &= m - 1;
            Some(MachineId(i as u16))
        }
    })
}

/// Per-vertex constraint masks via the weighted home hash (the
/// heterogeneity-aware "each shard has its weight" step), hashed once per
/// vertex instead of once per edge endpoint. The home hash is per
/// *vertex*, so the O(V) table is computable before the first edge
/// arrives — a shard source needs no second pass. Pure per vertex, so
/// the chunked fan-out keeps the table byte-identical at any thread count.
fn vertex_masks(weights: &MachineWeights, n: usize, threads: usize) -> Vec<u64> {
    let p = weights.len();
    assert_bitmask_capacity(p);
    let (r, c) = grid_dims(p);
    let constraints: Vec<u64> = (0..p).map(|m| constraint_set(m, p, r, c)).collect();
    chunked_map(n, threads, |v| {
        constraints[weights
            .pick(hash64(hash_combine(v as u64, 0x6772_6964)))
            .index()]
    })
}

impl Partitioner for Grid {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn partition(
        &self,
        source: &dyn EdgeSource,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        observed(self, source, threads, telemetry, || {
            let vertex_mask = vertex_masks(weights, source.num_vertices() as usize, threads);
            let (ws, m) = (weights.as_slice(), source.num_edges());
            let (assignment, replica_mask, edges_per_machine) = match source.graph() {
                Some(g) => place(ws, &vertex_mask, g.edges().iter().copied(), m),
                None => place(ws, &vertex_mask, source.edges(), m),
            };
            PartitionAssignment::from_parts(
                weights.len(),
                assignment,
                replica_mask,
                edges_per_machine,
                threads,
            )
        })
    }
}

/// The serial placement loop every source shares — each choice depends
/// on the loads left by every previous edge. The normalized loads are
/// cached and recomputed (same division expression as
/// `MachineWeights::normalized_load`) only for the chosen machine, and the
/// candidate scan mirrors `MachineWeights::least_loaded` bit-for-bit:
/// ascending machine id, `<` with low-id tie-break. Replica masks and
/// per-machine counts are accumulated inline so the caller can hand them
/// straight to `PartitionAssignment::from_parts` without an O(E) replay.
fn place(
    ws: &[f64],
    vertex_mask: &[u64],
    edges: impl Iterator<Item = Edge>,
    capacity: usize,
) -> (Vec<u16>, Vec<u64>, Vec<usize>) {
    let p = ws.len();
    let mut loads = vec![0f64; p];
    let mut nl: Vec<f64> = (0..p).map(|i| loads[i] / ws[i]).collect();
    let mut assignment = Vec::with_capacity(capacity);
    let mut replica_mask = vec![0u64; vertex_mask.len()];
    let mut edges_per_machine = vec![0usize; p];
    for e in edges {
        let su = vertex_mask[e.src as usize];
        let sv = vertex_mask[e.dst as usize];
        // Never empty: for homes `a` and `b`, cell (row of `a`, column of
        // `b`) is missing only when `a` sits in the partial last row and
        // `b`'s column lies past its end; then `b` sits in a full row, so
        // cell (row of `b`, column of `a`) exists and lies in both sets.
        let inter = su & sv;
        debug_assert!(inter != 0, "row ∪ column sets always intersect");
        let mut chosen = usize::MAX;
        let mut best = f64::INFINITY;
        for m in mask_machines(inter) {
            // Finite normalized loads, ascending ids: strict `<` keeps
            // the lowest id on ties, exactly like `least_loaded`.
            let v = nl[m.index()];
            if v < best {
                best = v;
                chosen = m.index();
            }
        }
        debug_assert!(chosen != usize::MAX, "candidate mask was empty");
        loads[chosen] += 1.0;
        nl[chosen] = loads[chosen] / ws[chosen];
        replica_mask[e.src as usize] |= 1u64 << chosen;
        replica_mask[e.dst as usize] |= 1u64 << chosen;
        edges_per_machine[chosen] += 1;
        assignment.push(chosen as u16);
    }
    (assignment, replica_mask, edges_per_machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_hash::RandomHash;
    use hetgraph_core::{obs::OFF, EdgeList, Graph};

    fn skewed_graph() -> Graph {
        let n = 3_000u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(Edge::new(0, v));
            edges.push(Edge::new(v, (v * 13 + 7) % n));
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn dims_cover_machines() {
        for p in 1..=20usize {
            let (r, c) = grid_dims(p);
            assert!(r * c >= p, "p={p}: {r}x{c}");
            assert!(r * c < p + c, "p={p}: grid too large");
        }
        assert_eq!(grid_dims(9), (3, 3));
        assert_eq!(grid_dims(2), (1, 2));
    }

    /// `place` has no fallback for an empty intersection: every pair of
    /// home cells must share a machine, partial last row included.
    #[test]
    fn constraint_sets_intersect_at_every_machine_count() {
        for p in 1..=64 {
            let (r, c) = grid_dims(p);
            for a in 0..p {
                for b in 0..p {
                    let inter = constraint_set(a, p, r, c) & constraint_set(b, p, r, c);
                    assert!(inter != 0, "p={p}: sets of {a} and {b} must intersect");
                }
            }
        }
    }

    #[test]
    fn replication_bounded_by_row_plus_column() {
        let g = skewed_graph();
        let a = Grid::new().partition(&g, &MachineWeights::uniform(9), 1, &OFF);
        // In a 3x3 grid a vertex can replicate on at most row+col = 5 machines.
        for v in g.vertices() {
            assert!(
                a.replica_count(v) <= 5,
                "vertex {v}: {}",
                a.replica_count(v)
            );
        }
    }

    #[test]
    fn lower_replication_than_random_on_many_machines() {
        let g = skewed_graph();
        let w = MachineWeights::uniform(16);
        let grid = Grid::new().partition(&g, &w, 1, &OFF);
        let random = RandomHash::new().partition(&g, &w, 1, &OFF);
        assert!(
            grid.replication_factor() < random.replication_factor(),
            "grid {} !< random {}",
            grid.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn weighted_loads_track_ccr_approximately() {
        let g = skewed_graph();
        let w = MachineWeights::from_ccr(&[1.0, 3.0]);
        let a = Grid::new().partition(&g, &w, 1, &OFF);
        let shares = a.edge_shares();
        assert!(
            shares[1] > 0.6,
            "fast machine share {} should dominate",
            shares[1]
        );
    }

    #[test]
    fn uniform_balances() {
        let g = skewed_graph();
        let a = Grid::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        for &s in &a.edge_shares() {
            assert!((s - 0.25).abs() < 0.06, "share {s}");
        }
    }

    #[test]
    fn works_on_two_machines() {
        let g = skewed_graph();
        let a = Grid::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let total: usize = a.edges_per_machine().iter().sum();
        assert_eq!(total, g.num_edges());
    }
}
