//! The partition-aware graph view.
//!
//! Work attribution needs to know, for every adjacency slot the engine
//! touches, *which machine owns the underlying edge*. The CSR adjacency in
//! `hetgraph-core` stores neighbor ids only, so this module builds machine
//! arrays exactly aligned with each CSR's `targets` array by replaying the
//! same counting sort the CSR construction used.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::error::EngineError;
use hetgraph_core::{Graph, MachineId, VertexId};
use hetgraph_partition::{AssignmentDelta, PartitionAssignment};

/// Largest machine count for which [`DistributedGraph::machine_counts`]
/// materializes its per-vertex count tables. Each direction costs
/// `n * p` u32s; past this the footprint outweighs the per-edge
/// accounting work the tables save.
pub(crate) const ROW_COUNTS_MAX_MACHINES: usize = 8;

/// A graph plus its partition, with per-adjacency-slot edge ownership.
///
/// The assignment is held as a [`Cow`]: a freshly built view borrows the
/// caller's `PartitionAssignment` (zero copy, exactly the old behavior);
/// the first [`migrate_edges`](Self::migrate_edges) call clones it once
/// and every edit from then on is in-place on the owned copy. The
/// alignment tables are owned either way and are patched per-delta in
/// O(|delta|) rather than rebuilt. Cloning copies the alignment tables
/// but not the graph, and a borrowed assignment stays borrowed — cheap
/// enough to fork a mutable view off a shared one before rebalancing.
#[derive(Clone)]
pub struct DistributedGraph<'a> {
    graph: &'a Graph,
    assignment: Cow<'a, PartitionAssignment>,
    /// Machine of the edge behind `out_csr.targets()[k]`.
    out_slot_machine: Vec<u16>,
    /// Machine of the edge behind `in_csr.targets()[k]`.
    in_slot_machine: Vec<u16>,
    /// Lazily built per-vertex per-machine slot counts (see
    /// [`machine_counts`](Self::machine_counts)).
    out_row_counts: OnceLock<Vec<u32>>,
    in_row_counts: OnceLock<Vec<u32>>,
    /// Lazily built per-edge slot positions `(out, in)` — edge `i` fills
    /// `out_csr.targets()[out[i]]` and `in_csr.targets()[in[i]]`. Built on
    /// the first delta so slot lanes patch in O(|delta|) instead of an
    /// O(E) realign per migration batch.
    edge_slots: OnceLock<(Vec<u32>, Vec<u32>)>,
}

impl<'a> DistributedGraph<'a> {
    /// Build the aligned ownership arrays with a host thread budget.
    ///
    /// With one thread, a single fused edge pass fills both direction
    /// arrays at once (one sweep over the edge list instead of two full
    /// replays). With two or more, the directions build concurrently —
    /// each direction's array is computed independently, so the result
    /// is identical at any thread count.
    ///
    /// # Errors
    /// Returns [`EngineError::AssignmentMismatch`] if the assignment does
    /// not cover exactly this graph's edges.
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    pub fn new(
        graph: &'a Graph,
        assignment: &'a PartitionAssignment,
        host_threads: usize,
    ) -> Result<Self, EngineError> {
        assert!(host_threads > 0, "need at least one host thread");
        if assignment.edge_machines().len() != graph.num_edges() {
            return Err(EngineError::AssignmentMismatch {
                assignment_edges: assignment.edge_machines().len(),
                graph_edges: graph.num_edges(),
            });
        }
        let (out_slot_machine, in_slot_machine) = if host_threads >= 2 {
            let mut arrays = hetgraph_core::par::scheduled(2, host_threads, |dir| {
                align(graph, assignment, /*by_src=*/ dir == 0)
            });
            let ins = arrays.pop().expect("two direction arrays");
            let outs = arrays.pop().expect("two direction arrays");
            (outs, ins)
        } else {
            align_fused(graph, assignment)
        };
        Ok(DistributedGraph {
            graph,
            assignment: Cow::Borrowed(assignment),
            out_slot_machine,
            in_slot_machine,
            out_row_counts: OnceLock::new(),
            in_row_counts: OnceLock::new(),
            edge_slots: OnceLock::new(),
        })
    }

    /// For `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    pub fn new_with_threads(
        graph: &'a Graph,
        assignment: &'a PartitionAssignment,
        host_threads: usize,
    ) -> Result<Self, EngineError> {
        Self::new(graph, assignment, host_threads)
    }

    /// Per-vertex per-machine adjacency-slot counts for the (out, in) CSR
    /// directions, row-major by vertex: entry `v * p + m` is how many of
    /// `v`'s adjacency slots machine `m` owns. The superstep kernel uses
    /// them to charge unit-per-edge work with `p` adds per row instead of
    /// one machine-lane load and add per edge.
    ///
    /// Built lazily on first call (one pass over each slot array) and
    /// cached. Returns `None` when the cluster has more than 8 machines
    /// (the crate-private `ROW_COUNTS_MAX_MACHINES`), where the tables' `n * p`
    /// footprint stops paying for itself; callers must keep a per-edge
    /// fallback.
    pub fn machine_counts(&self) -> Option<(&[u32], &[u32])> {
        let p = self.assignment.num_machines();
        if p > ROW_COUNTS_MAX_MACHINES {
            return None;
        }
        let out = self.out_row_counts.get_or_init(|| {
            row_machine_counts(self.graph.out_csr().offsets(), &self.out_slot_machine, p)
        });
        let inn = self.in_row_counts.get_or_init(|| {
            row_machine_counts(self.graph.in_csr().offsets(), &self.in_slot_machine, p)
        });
        Some((out, inn))
    }

    /// Resident footprint in bytes of every O(V)+O(E) structure a plain
    /// simulation keeps alive through this view: the borrowed `Graph`
    /// (edge list + both CSRs), the assignment's lanes and replication
    /// arrays, this view's slot-machine lanes, and any lazily built
    /// count/slot tables that have actually materialized. The compact
    /// counterpart is [`crate::CompactDistGraph::resident_bytes`]; the
    /// scale benchmark compares the two per edge.
    pub fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes()
            + self.assignment.resident_bytes()
            + self.out_slot_machine.len() * 2
            + self.in_slot_machine.len() * 2
            + self.out_row_counts.get().map_or(0, |c| c.len() * 4)
            + self.in_row_counts.get().map_or(0, |c| c.len() * 4)
            + self
                .edge_slots
                .get()
                .map_or(0, |(o, i)| (o.len() + i.len()) * 4)
    }

    /// The underlying graph. Tied to the graph's lifetime, not the
    /// view's, so callers can hold it across mutations of `self`.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The partition (the owned copy once any migration has happened).
    pub fn assignment(&self) -> &PartitionAssignment {
        &self.assignment
    }

    /// Reassign a batch of `(edge index, destination machine)` pairs and
    /// patch every derived table, returning the applied delta. The first
    /// call clones the borrowed assignment (copy-on-write); the slot
    /// lanes, row-count tables, and replication structure are then
    /// patched in place — no O(E) rebuild on any path after the one-time
    /// edge-slot-table construction.
    ///
    /// # Panics
    /// Panics if an edge index or destination machine is out of range.
    pub fn migrate_edges(&mut self, batch: &[(usize, u16)]) -> AssignmentDelta {
        // An all-no-op batch must not trigger the copy-on-write clone (an
        // out-of-range index falls through so validation still fires).
        let no_change = batch
            .iter()
            .all(|&(e, to)| self.assignment.edge_machines().get(e) == Some(&to));
        if no_change {
            return AssignmentDelta::default();
        }
        let graph = self.graph;
        let delta = self.assignment.to_mut().migrate_edges(graph, batch);
        self.apply_delta(&delta);
        delta
    }

    /// Patch the alignment tables for an already-applied assignment
    /// delta: the touched out/in slot lanes get the new machine, and the
    /// row-count tables (if materialized) get `±1` on the two affected
    /// machine columns of each moved edge's endpoint rows.
    ///
    /// Callers that mutate through [`migrate_edges`](Self::migrate_edges)
    /// never call this directly; it is public for consumers that edit a
    /// `PartitionAssignment` they own and mirror the delta into the view.
    pub fn apply_delta(&mut self, delta: &AssignmentDelta) {
        if delta.is_empty() {
            return;
        }
        self.ensure_edge_slots();
        let (out_slots, in_slots) = self.edge_slots.get().expect("just built");
        for mv in &delta.moves {
            self.out_slot_machine[out_slots[mv.edge] as usize] = mv.to.0;
            self.in_slot_machine[in_slots[mv.edge] as usize] = mv.to.0;
        }
        let p = self.assignment.num_machines();
        let edges = self.graph.edges();
        if let Some(rc) = self.out_row_counts.get_mut() {
            for mv in &delta.moves {
                let row = edges[mv.edge].src as usize * p;
                rc[row + mv.from.index()] -= 1;
                rc[row + mv.to.index()] += 1;
            }
        }
        if let Some(rc) = self.in_row_counts.get_mut() {
            for mv in &delta.moves {
                let row = edges[mv.edge].dst as usize * p;
                rc[row + mv.from.index()] -= 1;
                rc[row + mv.to.index()] += 1;
            }
        }
    }

    /// Build the per-edge slot-position tables if not yet built: one
    /// replay of the CSR counting sort recording, for each edge, which
    /// out-slot and in-slot it filled.
    fn ensure_edge_slots(&self) {
        self.edge_slots.get_or_init(|| {
            let n = self.graph.num_vertices() as usize;
            assert!(
                self.graph.num_edges() <= u32::MAX as usize,
                "edge-slot tables index edges with u32"
            );
            let out_offsets = self.graph.out_csr().offsets();
            let in_offsets = self.graph.in_csr().offsets();
            let mut out_fill = vec![0u32; n];
            let mut in_fill = vec![0u32; n];
            let mut out_of_edge = vec![0u32; self.graph.num_edges()];
            let mut in_of_edge = vec![0u32; self.graph.num_edges()];
            for (i, e) in self.graph.edges().iter().enumerate() {
                let s = e.src as usize;
                let d = e.dst as usize;
                out_of_edge[i] = (out_offsets[s] + out_fill[s] as usize) as u32;
                out_fill[s] += 1;
                in_of_edge[i] = (in_offsets[d] + in_fill[d] as usize) as u32;
                in_fill[d] += 1;
            }
            (out_of_edge, in_of_edge)
        });
    }

    /// Out-neighbors of `v` with the owning machine of each edge.
    pub fn out_neighbors_owned(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, MachineId)> + '_ {
        let offsets = self.graph.out_csr().offsets();
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        self.graph.out_csr().targets()[lo..hi]
            .iter()
            .zip(&self.out_slot_machine[lo..hi])
            .map(|(&u, &m)| (u, MachineId(m)))
    }

    /// In-neighbors of `v` with the owning machine of each edge.
    pub fn in_neighbors_owned(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, MachineId)> + '_ {
        let offsets = self.graph.in_csr().offsets();
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        self.graph.in_csr().targets()[lo..hi]
            .iter()
            .zip(&self.in_slot_machine[lo..hi])
            .map(|(&u, &m)| (u, MachineId(m)))
    }

    /// Out-adjacency of `v` as raw parallel slices: neighbor ids and the
    /// raw machine index of each edge. The slice form is what the
    /// kernel's hot scans iterate — a bounds-checked-once zip over two
    /// plain slices, with the `MachineId` wrapper elided.
    #[inline]
    pub fn out_adj(&self, v: VertexId) -> (&[VertexId], &[u16]) {
        let offsets = self.graph.out_csr().offsets();
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        (
            &self.graph.out_csr().targets()[lo..hi],
            &self.out_slot_machine[lo..hi],
        )
    }

    /// In-adjacency of `v` as raw parallel slices (see
    /// [`out_adj`](Self::out_adj)).
    #[inline]
    pub fn in_adj(&self, v: VertexId) -> (&[VertexId], &[u16]) {
        let offsets = self.graph.in_csr().offsets();
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        (
            &self.graph.in_csr().targets()[lo..hi],
            &self.in_slot_machine[lo..hi],
        )
    }
}

/// Replay the CSR counting sort to produce, for each adjacency slot, the
/// machine of the edge that filled it. Must iterate edges in exactly the
/// order `Csr::build` does (graph edge order). Slots within a vertex are
/// tracked with a zero-initialized per-vertex counter added to the CSR
/// offset, so no copy of the offsets array is made.
fn align(graph: &Graph, assignment: &PartitionAssignment, by_src: bool) -> Vec<u16> {
    let csr = if by_src {
        graph.out_csr()
    } else {
        graph.in_csr()
    };
    let offsets = csr.offsets();
    let mut fill = vec![0u32; graph.num_vertices() as usize];
    let mut slot_machine = vec![0u16; graph.num_edges()];
    for (e, &mach) in graph.edges().iter().zip(assignment.edge_machines()) {
        let key = if by_src { e.src } else { e.dst } as usize;
        slot_machine[offsets[key] + fill[key] as usize] = mach;
        fill[key] += 1;
    }
    slot_machine
}

/// Collapse a slot-machine array into per-vertex per-machine counts
/// (`n * p`, row-major by vertex).
fn row_machine_counts(offsets: &[usize], slot_machine: &[u16], p: usize) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut counts = vec![0u32; n * p];
    for v in 0..n {
        let row = &mut counts[v * p..(v + 1) * p];
        for &m in &slot_machine[offsets[v]..offsets[v + 1]] {
            row[m as usize] += 1;
        }
    }
    counts
}

/// [`align`] for both directions in one edge pass: each edge lands its
/// machine in its out-CSR slot (keyed by source) and its in-CSR slot
/// (keyed by target) in the same iteration, so the edge list, the
/// assignment, and both fill counters stream through cache once.
fn align_fused(graph: &Graph, assignment: &PartitionAssignment) -> (Vec<u16>, Vec<u16>) {
    let n = graph.num_vertices() as usize;
    let out_offsets = graph.out_csr().offsets();
    let in_offsets = graph.in_csr().offsets();
    let mut out_fill = vec![0u32; n];
    let mut in_fill = vec![0u32; n];
    let mut out_slot = vec![0u16; graph.num_edges()];
    let mut in_slot = vec![0u16; graph.num_edges()];
    for (e, &mach) in graph.edges().iter().zip(assignment.edge_machines()) {
        let s = e.src as usize;
        let d = e.dst as usize;
        out_slot[out_offsets[s] + out_fill[s] as usize] = mach;
        out_fill[s] += 1;
        in_slot[in_offsets[d] + in_fill[d] as usize] = mach;
        in_fill[d] += 1;
    }
    (out_slot, in_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{Edge, EdgeList};

    fn setup() -> (Graph, Vec<u16>) {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1), // e0 -> m0
                Edge::new(0, 2), // e1 -> m1
                Edge::new(1, 2), // e2 -> m0
                Edge::new(3, 2), // e3 -> m1
            ],
        ));
        (g, vec![0, 1, 0, 1])
    }

    #[test]
    fn out_slots_carry_edge_machines() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let got: Vec<_> = d.out_neighbors_owned(0).collect();
        assert_eq!(got, vec![(1, MachineId(0)), (2, MachineId(1))]);
    }

    #[test]
    fn in_slots_carry_edge_machines() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        // In-neighbors of 2: from edges e1 (0, m1), e2 (1, m0), e3 (3, m1).
        let mut got: Vec<_> = d.in_neighbors_owned(2).collect();
        got.sort();
        assert_eq!(
            got,
            vec![(0, MachineId(1)), (1, MachineId(0)), (3, MachineId(1))]
        );
    }

    #[test]
    fn ownership_consistent_between_directions() {
        // The same edge must report the same machine from both endpoints.
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        // Edge (1,2) seen from 1's out list and 2's in list.
        let from_out = d
            .out_neighbors_owned(1)
            .find(|&(u, _)| u == 2)
            .expect("edge exists")
            .1;
        let from_in = d
            .in_neighbors_owned(2)
            .find(|&(u, _)| u == 1)
            .expect("edge exists")
            .1;
        assert_eq!(from_out, from_in);
    }

    #[test]
    fn duplicate_edges_keep_individual_owners() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            2,
            vec![Edge::new(0, 1), Edge::new(0, 1)],
        ));
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 1], 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let machines: Vec<_> = d.out_neighbors_owned(0).map(|(_, m)| m.0).collect();
        assert_eq!(machines.len(), 2);
        let mut sorted = machines.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn fused_and_threaded_builds_agree() {
        // The fused single-pass build (1 thread) and the per-direction
        // parallel build (2+ threads) must produce identical slot arrays.
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let serial = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        for threads in [2, 4] {
            let par =
                DistributedGraph::new(&g, &a, threads).expect("assignment must cover the graph");
            assert_eq!(serial.out_slot_machine, par.out_slot_machine);
            assert_eq!(serial.in_slot_machine, par.in_slot_machine);
        }
    }

    #[test]
    fn adjacency_slices_match_owned_iterators() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        for v in g.vertices() {
            let from_iter: Vec<_> = d.out_neighbors_owned(v).collect();
            let (ts, mach) = d.out_adj(v);
            let from_slices: Vec<_> = ts
                .iter()
                .zip(mach)
                .map(|(&u, &m)| (u, MachineId(m)))
                .collect();
            assert_eq!(from_iter, from_slices);
            let from_iter: Vec<_> = d.in_neighbors_owned(v).collect();
            let (ts, mach) = d.in_adj(v);
            let from_slices: Vec<_> = ts
                .iter()
                .zip(mach)
                .map(|(&u, &m)| (u, MachineId(m)))
                .collect();
            assert_eq!(from_iter, from_slices);
        }
    }

    #[test]
    fn machine_counts_match_slot_lanes() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let (out, inn) = d.machine_counts().expect("2 machines is under the cap");
        let p = 2usize;
        for v in g.vertices() {
            for m in 0..p {
                let expect_out = d.out_adj(v).1.iter().filter(|&&s| s as usize == m).count();
                assert_eq!(
                    out[v as usize * p + m] as usize,
                    expect_out,
                    "out v={v} m={m}"
                );
                let expect_in = d.in_adj(v).1.iter().filter(|&&s| s as usize == m).count();
                assert_eq!(
                    inn[v as usize * p + m] as usize,
                    expect_in,
                    "in v={v} m={m}"
                );
            }
        }
        // Cached: a second call hands back the same tables.
        let again = d.machine_counts().unwrap();
        assert!(std::ptr::eq(out, again.0) && std::ptr::eq(inn, again.1));
    }

    #[test]
    fn machine_counts_absent_above_machine_cap() {
        let (g, _) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 9, vec![0, 1, 2, 8], 1);
        let d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        assert!(d.machine_counts().is_none(), "9 machines exceeds the cap");
    }

    #[test]
    fn mismatched_assignment_is_a_typed_error() {
        let (g, _) = setup();
        let smaller = Graph::from_edge_list(EdgeList::from_edges(2, vec![Edge::new(0, 1)]));
        let a = PartitionAssignment::from_edge_machines(&smaller, 2, vec![0], 1);
        match DistributedGraph::new(&g, &a, 1) {
            Err(EngineError::AssignmentMismatch {
                assignment_edges,
                graph_edges,
            }) => {
                assert_eq!(assignment_edges, 1);
                assert_eq!(graph_edges, 4);
            }
            _ => panic!("expected AssignmentMismatch"),
        }
    }

    #[test]
    fn migrate_patches_slot_lanes_like_a_fresh_build() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let mut d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let delta = d.migrate_edges(&[(1, 0), (3, 0)]);
        assert_eq!(delta.edges_moved(), 2);
        // The caller's assignment is untouched (copy-on-write)...
        assert_eq!(a.edge_machines(), &[0, 1, 0, 1]);
        // ...and the view equals a fresh build of the migrated machines.
        let migrated = PartitionAssignment::from_edge_machines(
            &g,
            2,
            d.assignment().edge_machines().to_vec(),
            1,
        );
        assert_eq!(d.assignment(), &migrated);
        let fresh =
            DistributedGraph::new(&g, &migrated, 1).expect("assignment must cover the graph");
        assert_eq!(d.out_slot_machine, fresh.out_slot_machine);
        assert_eq!(d.in_slot_machine, fresh.in_slot_machine);
    }

    #[test]
    fn migrate_patches_row_counts_in_place() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms, 1);
        let mut d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        // Materialize the row tables BEFORE migrating so the patch path
        // (not a rebuild) is what produces the final counts.
        d.machine_counts().expect("under the machine cap");
        let _ = d.migrate_edges(&[(0, 1), (2, 1)]);
        let migrated = PartitionAssignment::from_edge_machines(
            &g,
            2,
            d.assignment().edge_machines().to_vec(),
            1,
        );
        let fresh =
            DistributedGraph::new(&g, &migrated, 1).expect("assignment must cover the graph");
        assert_eq!(d.machine_counts(), fresh.machine_counts());
    }

    #[test]
    fn empty_migration_batch_changes_nothing() {
        let (g, ms) = setup();
        let a = PartitionAssignment::from_edge_machines(&g, 2, ms.clone(), 1);
        let mut d = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let delta = d.migrate_edges(&[(0, 0)]);
        assert!(delta.is_empty());
        // No clone happened: still borrowing the caller's assignment.
        assert!(matches!(d.assignment, Cow::Borrowed(_)));
        assert_eq!(d.assignment().edge_machines(), ms.as_slice());
    }
}
