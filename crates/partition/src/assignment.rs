//! The result of partitioning: an edge→machine assignment plus the derived
//! replication structure (masters and mirrors).

use crate::delta::{AssignmentDelta, EdgeMove, MaskChange};
use hetgraph_core::rng::hash64;
use hetgraph_core::{Edge, Graph, MachineId, VertexId};

/// A complete vertex-cut partition of a graph across `num_machines`
/// machines.
///
/// * every edge lives on exactly one machine (`edge_machine`, parallel to
///   `graph.edges()` order);
/// * a vertex is *replicated* on every machine that holds at least one of
///   its edges (`replica_mask`, one bit per machine);
/// * one replica is the *master* (`master`); all others are *mirrors* that
///   must be synchronized each superstep. Vertices with no edges still get
///   a master so that vertex-grain work (apply) is accounted somewhere.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartitionAssignment {
    num_machines: usize,
    edge_machine: Vec<u16>,
    replica_mask: Vec<u64>,
    master: Vec<u16>,
    edges_per_machine: Vec<usize>,
}

impl PartitionAssignment {
    /// Build the full assignment from a per-edge machine vector. The
    /// per-vertex master-selection pass fans out over `threads` in
    /// index-deterministic chunks (identical structure at any thread
    /// count); the replica-mask accumulation stays serial — it is two ORs
    /// per edge against vertex-indexed state.
    ///
    /// # Panics
    /// Panics if lengths mismatch, `num_machines` is 0 or > 64,
    /// `threads == 0`, or any edge's machine is out of range.
    pub fn from_edge_machines(
        graph: &Graph,
        num_machines: usize,
        edge_machine: Vec<u16>,
        threads: usize,
    ) -> Self {
        assert!(num_machines >= 1, "need at least one machine");
        crate::weights::assert_bitmask_capacity(num_machines);
        assert!(threads > 0, "need at least one host thread");
        assert_eq!(
            edge_machine.len(),
            graph.num_edges(),
            "one machine per edge, in graph edge order"
        );
        let placed = graph
            .edges()
            .iter()
            .copied()
            .zip(edge_machine.iter().copied());
        let (replica_mask, edges_per_machine) =
            tally(graph.num_vertices() as usize, num_machines, placed);
        Self::from_parts(
            num_machines,
            edge_machine,
            replica_mask,
            edges_per_machine,
            threads,
        )
    }

    /// Assemble an assignment from state a streaming partitioner already
    /// holds: the per-edge machines, the replica bit masks it accumulated
    /// while assigning, and the per-machine edge counts. Skips the O(E)
    /// replay that [`PartitionAssignment::from_edge_machines`] would do —
    /// only the per-vertex master selection remains. Debug builds verify
    /// the handed-over state is consistent with `edge_machine`.
    ///
    /// # Panics
    /// Panics if `num_machines` is 0 or > 64, `host_threads == 0`, or the
    /// machine-count-indexed vector has the wrong length.
    pub(crate) fn from_parts(
        num_machines: usize,
        edge_machine: Vec<u16>,
        replica_mask: Vec<u64>,
        edges_per_machine: Vec<usize>,
        host_threads: usize,
    ) -> Self {
        assert!(num_machines >= 1, "need at least one machine");
        crate::weights::assert_bitmask_capacity(num_machines);
        assert!(host_threads > 0, "need at least one host thread");
        assert_eq!(
            edges_per_machine.len(),
            num_machines,
            "one edge count per machine"
        );
        debug_assert_eq!(
            edges_per_machine,
            {
                let mut counts = vec![0usize; num_machines];
                for &m in &edge_machine {
                    counts[m as usize] += 1;
                }
                counts
            },
            "edge counts must match the per-edge machines"
        );

        let n = replica_mask.len();
        // Master selection: deterministic hash-based pick among the
        // replicas (PowerGraph picks pseudo-randomly). Isolated vertices
        // hash onto any machine. Pure per vertex, so threadable.
        let master: Vec<u16> = crate::chunk::chunked_map(n, host_threads, |v| {
            master_for(v, replica_mask[v], num_machines)
        });

        PartitionAssignment {
            num_machines,
            edge_machine,
            replica_mask,
            master,
            edges_per_machine,
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Machine of edge `i` (graph edge order).
    #[inline]
    pub fn edge_machine(&self, i: usize) -> MachineId {
        MachineId(self.edge_machine[i])
    }

    /// Resident footprint in bytes of the O(V)+O(E) arrays this
    /// assignment holds: the per-edge machine lane, the per-vertex
    /// replica masks and masters, and the per-machine edge totals.
    pub fn resident_bytes(&self) -> usize {
        self.edge_machine.len() * 2
            + self.replica_mask.len() * 8
            + self.master.len() * 2
            + self.edges_per_machine.len() * std::mem::size_of::<usize>()
    }

    /// The raw per-edge machine vector.
    pub fn edge_machines(&self) -> &[u16] {
        &self.edge_machine
    }

    /// Edge counts per machine.
    pub fn edges_per_machine(&self) -> &[usize] {
        &self.edges_per_machine
    }

    /// Replica bit mask of vertex `v` (bit `m` set ⇔ `v` has a replica on
    /// machine `m`).
    #[inline]
    pub fn replica_mask(&self, v: VertexId) -> u64 {
        self.replica_mask[v as usize]
    }

    /// Number of replicas of `v` (0 for isolated vertices).
    #[inline]
    pub fn replica_count(&self, v: VertexId) -> u32 {
        self.replica_mask[v as usize].count_ones()
    }

    /// Master machine of vertex `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> MachineId {
        MachineId(self.master[v as usize])
    }

    /// Whether `v` has a replica on machine `m`.
    #[inline]
    pub fn has_replica(&self, v: VertexId, m: MachineId) -> bool {
        self.replica_mask[v as usize] & (1u64 << m.0) != 0
    }

    /// Total mirrors: `Σ_v max(replicas(v) − 1, 0)`.
    pub fn total_mirrors(&self) -> u64 {
        self.replication_summary(1).2
    }

    /// Replication factor: average replicas per vertex *that has edges*
    /// (PowerGraph's λ). 1.0 is the ideal (no vertex split across
    /// machines); `num_machines` is the worst case.
    pub fn replication_factor(&self) -> f64 {
        let (total, covered, _) = self.replication_summary(1);
        if covered == 0 {
            1.0
        } else {
            total as f64 / covered as f64
        }
    }

    /// One pass over the replica masks, fanned out over `threads` in
    /// index-deterministic chunks: `(total replicas over covered vertices,
    /// covered vertex count, total mirrors)`. Integer partial sums make
    /// the reduction exact — and therefore identical — at any thread
    /// count.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn replication_summary(&self, threads: usize) -> (u64, u64, u64) {
        assert!(threads > 0, "need at least one host thread");
        let reduce_range = |masks: &[u64]| {
            let mut total = 0u64;
            let mut covered = 0u64;
            let mut mirrors = 0u64;
            for &m in masks {
                let c = m.count_ones() as u64;
                if c > 0 {
                    total += c;
                    covered += 1;
                    mirrors += c - 1;
                }
            }
            (total, covered, mirrors)
        };
        let n = self.replica_mask.len();
        if threads == 1 || n <= crate::chunk::CHUNK {
            return reduce_range(&self.replica_mask);
        }
        let tasks = n.div_ceil(crate::chunk::CHUNK);
        let partials = hetgraph_core::par::scheduled(tasks, threads, |t| {
            let lo = t * crate::chunk::CHUNK;
            let hi = (lo + crate::chunk::CHUNK).min(n);
            reduce_range(&self.replica_mask[lo..hi])
        });
        partials
            .into_iter()
            .fold((0, 0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2))
    }

    /// Incrementally reassign a batch of edges to new machines, keeping
    /// the derived replication structure (masks, masters, per-machine edge
    /// counts) exactly what a from-scratch
    /// [`PartitionAssignment::from_edge_machines`] rebuild of the edited
    /// per-edge machine vector would produce.
    ///
    /// `batch` entries are `(edge index, destination machine)` in graph
    /// edge order; entries whose edge already lives on the destination are
    /// dropped as no-ops. When one edge appears more than once the last
    /// entry wins (earlier ones still show up as intermediate moves).
    ///
    /// Cost: O(batch log batch) for the edge updates plus one O(E) scan to
    /// recompute the replica masks of the touched endpoints (clearing a
    /// replica bit requires knowing no *other* edge of the vertex remains
    /// on that machine). Masters of mask-changed vertices are re-picked
    /// with the same hash rule the full build uses, so equality with a
    /// rebuild holds bit for bit.
    ///
    /// # Panics
    /// Panics if `graph` does not match this assignment (edge-count
    /// mismatch), an edge index is out of range, or a destination machine
    /// is out of range.
    pub fn migrate_edges(&mut self, graph: &Graph, batch: &[(usize, u16)]) -> AssignmentDelta {
        assert_eq!(
            self.edge_machine.len(),
            graph.num_edges(),
            "graph must match the assignment it is migrating"
        );
        let mut delta = AssignmentDelta::default();
        // Endpoints of moved edges, for the targeted mask recompute.
        let mut touched: Vec<VertexId> = Vec::new();
        for &(e, to) in batch {
            assert!(e < self.edge_machine.len(), "edge index {e} out of range");
            assert!(
                (to as usize) < self.num_machines,
                "edge assigned to machine {to} out of range"
            );
            let from = self.edge_machine[e];
            if from == to {
                continue;
            }
            self.edge_machine[e] = to;
            self.edges_per_machine[from as usize] -= 1;
            self.edges_per_machine[to as usize] += 1;
            delta.moves.push(EdgeMove {
                edge: e,
                from: MachineId(from),
                to: MachineId(to),
            });
            let edge = graph.edges()[e];
            touched.push(edge.src);
            touched.push(edge.dst);
        }
        if delta.moves.is_empty() {
            return delta;
        }
        touched.sort_unstable();
        touched.dedup();

        // Recompute the replica masks of touched vertices with one pass
        // over the edge list: a bit can only be *cleared* by proving no
        // remaining edge of the vertex lands on that machine.
        let mut new_masks = vec![0u64; touched.len()];
        for (e, &m) in graph.edges().iter().zip(&self.edge_machine) {
            if let Ok(i) = touched.binary_search(&e.src) {
                new_masks[i] |= 1u64 << m;
            }
            if let Ok(i) = touched.binary_search(&e.dst) {
                new_masks[i] |= 1u64 << m;
            }
        }
        for (i, &v) in touched.iter().enumerate() {
            let old_mask = self.replica_mask[v as usize];
            let new_mask = new_masks[i];
            if old_mask == new_mask {
                continue;
            }
            let old_master = self.master[v as usize];
            let new_master = master_for(v as usize, new_mask, self.num_machines);
            self.replica_mask[v as usize] = new_mask;
            self.master[v as usize] = new_master;
            delta.mask_changes.push(MaskChange {
                vertex: v,
                old_mask,
                new_mask,
                old_master: MachineId(old_master),
                new_master: MachineId(new_master),
            });
        }
        delta
    }

    /// Fraction of edges on each machine (sums to 1 for non-empty graphs).
    pub fn edge_shares(&self) -> Vec<f64> {
        let total: usize = self.edges_per_machine.iter().sum();
        if total == 0 {
            return vec![0.0; self.num_machines];
        }
        self.edges_per_machine
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// Replica masks over `n` vertices and per-machine edge counts of
/// `(edge, machine)` placements. Panics on a machine `>= num_machines`.
pub(crate) fn tally(
    n: usize,
    num_machines: usize,
    placed: impl Iterator<Item = (Edge, u16)>,
) -> (Vec<u64>, Vec<usize>) {
    let mut replica_mask = vec![0u64; n];
    let mut edges_per_machine = vec![0usize; num_machines];
    for (e, m) in placed {
        assert!(
            (m as usize) < num_machines,
            "edge assigned to machine {m} out of range"
        );
        replica_mask[e.src as usize] |= 1u64 << m;
        replica_mask[e.dst as usize] |= 1u64 << m;
        edges_per_machine[m as usize] += 1;
    }
    (replica_mask, edges_per_machine)
}

/// The deterministic master pick for vertex `v` given its replica mask: a
/// hash-based choice among the replicas, or among all machines for
/// isolated vertices. Pure in `(v, mask, num_machines)`, so re-picking
/// after a mask change reproduces exactly what a full rebuild would pick.
fn master_for(v: usize, mask: u64, num_machines: usize) -> u16 {
    let h = hash64(v as u64 ^ 0x6d61_7374_6572_2121);
    if mask == 0 {
        (h % num_machines as u64) as u16
    } else {
        let count = mask.count_ones() as u64;
        let k = (h % count) as u32;
        nth_set_bit(mask, k) as u16
    }
}

/// Index of the `k`-th (0-based) set bit of `mask`.
///
/// # Panics
/// Panics if `mask` has fewer than `k + 1` set bits.
fn nth_set_bit(mask: u64, k: u32) -> u32 {
    let mut m = mask;
    for _ in 0..k {
        assert!(m != 0, "nth_set_bit out of bits");
        m &= m - 1;
    }
    assert!(m != 0, "nth_set_bit out of bits");
    m.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{Edge, EdgeList};

    fn graph() -> Graph {
        Graph::from_edge_list(EdgeList::from_edges(
            5,
            vec![
                Edge::new(0, 1), // e0
                Edge::new(1, 2), // e1
                Edge::new(2, 3), // e2
                Edge::new(0, 3), // e3
            ],
        ))
    }

    #[test]
    fn replicas_follow_edge_placement() {
        let g = graph();
        // e0,e1 -> m0; e2,e3 -> m1
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        assert_eq!(a.replica_count(0), 2); // edges on both machines
        assert_eq!(a.replica_count(1), 1);
        assert_eq!(a.replica_count(2), 2);
        assert_eq!(a.replica_count(3), 1);
        assert_eq!(a.replica_count(4), 0); // isolated
        assert_eq!(a.edges_per_machine(), &[2, 2]);
    }

    #[test]
    fn master_is_one_of_the_replicas() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        for v in 0..4u32 {
            assert!(
                a.has_replica(v, a.master(v)),
                "master must hold a replica of {v}"
            );
        }
        // Isolated vertex still gets a valid master.
        assert!(a.master(4).index() < 2);
    }

    #[test]
    fn mirrors_and_replication_factor() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        // v0 and v2 are split -> 2 mirrors total.
        assert_eq!(a.total_mirrors(), 2);
        // RF over covered vertices: (2+1+2+1)/4 = 1.5
        assert!((a.replication_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_machine_has_no_mirrors() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 1, vec![0, 0, 0, 0], 1);
        assert_eq!(a.total_mirrors(), 0);
        assert!((a.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_shares_sum_to_one() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 3, vec![0, 1, 2, 0], 1);
        let s: f64 = a.edge_shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((a.edge_shares()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_machine_panics() {
        let g = graph();
        PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 5, 1], 1);
    }

    #[test]
    #[should_panic(expected = "one machine per edge")]
    fn wrong_length_panics() {
        let g = graph();
        PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "bitmask capacity")]
    fn over_capacity_machine_count_panics() {
        let g = graph();
        PartitionAssignment::from_edge_machines(&g, 65, vec![0; g.num_edges()], 1);
    }

    #[test]
    fn nth_set_bit_works() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
    }

    #[test]
    fn migrate_matches_from_scratch_rebuild() {
        let g = graph();
        let mut a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        let delta = a.migrate_edges(&g, &[(0, 1), (2, 0)]);
        assert_eq!(delta.edges_moved(), 2);
        let rebuilt = PartitionAssignment::from_edge_machines(&g, 2, a.edge_machines().to_vec(), 1);
        assert_eq!(a, rebuilt);
    }

    #[test]
    fn migrate_skips_noops() {
        let g = graph();
        let mut a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        let snapshot = a.clone();
        let delta = a.migrate_edges(&g, &[(0, 0), (3, 1)]);
        assert!(delta.is_empty());
        assert!(delta.mask_changes.is_empty());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn migrate_records_mask_and_master_changes() {
        let g = graph();
        // All edges on m0: every covered vertex has mask 0b01.
        let mut a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 0, 0], 1);
        // Move e1 (1->2) to m1: v1 and v2 gain a replica on m1.
        let delta = a.migrate_edges(&g, &[(1, 1)]);
        assert_eq!(delta.moves.len(), 1);
        assert_eq!(delta.moves[0].from, MachineId(0));
        assert_eq!(delta.moves[0].to, MachineId(1));
        let changed: Vec<VertexId> = delta.mask_changes.iter().map(|c| c.vertex).collect();
        assert_eq!(changed, vec![1, 2]);
        for c in &delta.mask_changes {
            assert_eq!(c.old_mask, 0b01);
            assert_eq!(c.new_mask, 0b11);
            assert_eq!(MachineId(a.master(c.vertex).0), c.new_master);
        }
        assert_eq!(a.edges_per_machine(), &[3, 1]);
    }

    #[test]
    fn migrate_last_entry_wins_for_duplicate_edges() {
        let g = graph();
        let mut a = PartitionAssignment::from_edge_machines(&g, 3, vec![0, 0, 0, 0], 1);
        let delta = a.migrate_edges(&g, &[(0, 1), (0, 2)]);
        assert_eq!(delta.edges_moved(), 2); // two intermediate moves
        assert_eq!(a.edge_machine(0), MachineId(2));
        let rebuilt = PartitionAssignment::from_edge_machines(&g, 3, a.edge_machines().to_vec(), 1);
        assert_eq!(a, rebuilt);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn migrate_rejects_out_of_range_machine() {
        let g = graph();
        let mut a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        a.migrate_edges(&g, &[(0, 7)]);
    }

    #[test]
    fn empty_graph_replication_factor_is_one() {
        let g = Graph::from_edge_list(EdgeList::new(3));
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![], 1);
        assert_eq!(a.replication_factor(), 1.0);
        assert_eq!(a.edge_shares(), vec![0.0, 0.0]);
    }
}
