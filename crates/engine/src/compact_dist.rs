//! The compressed partition-aware graph view.
//!
//! [`CompactDistGraph`] is the bounded-RSS counterpart of
//! [`crate::DistributedGraph`]: both adjacency directions live in
//! delta-varint [`CompactCsr`] form, machine ownership lanes stay plain
//! per-edge `u16` arrays aligned with the *sorted* neighbor order, and the
//! replication structure (master + replica mask per vertex) is copied out
//! of the assignment so the view owns everything it needs — no `Graph`,
//! no edge list, no `PartitionAssignment` kept alive. The only O(E)
//! resident structures are the varint streams and the machine lanes,
//! which is what the scale benchmark's RSS-per-edge gate audits.
//!
//! Neighbor order differs from the plain view (sorted ascending instead
//! of edge-insertion order), but every quantity the superstep kernel
//! folds from adjacency is order-insensitive — integer-valued work
//! tallies, exact min/max/sum accumulators — so `SimReport`s stay
//! byte-identical (`sim::tests` and the CLI's `--compact` path assert
//! this). Placement is frozen: there is no migration support, so runs
//! that need a rebalance policy must use the plain view.
//!
//! Two constructors cover the two ingestion paths: [`from_dist`]
//! (re-compress an already-built plain view, used by tests and the
//! `simulate --compact` CLI path) and [`from_edge_stream`] (build
//! straight from a replayable edge stream — e.g. a
//! [`hetgraph_core::ShardSet`] — without ever materializing a `Graph`).
//! Both produce structurally identical views for the same edges and
//! assignment.
//!
//! [`from_dist`]: CompactDistGraph::from_dist
//! [`from_edge_stream`]: CompactDistGraph::from_edge_stream

use crate::distributed::{DistributedGraph, ROW_COUNTS_MAX_MACHINES};
use crate::error::EngineError;
use hetgraph_core::compact::{meta_pair, CompactCsr, CompactCsrBuilder};
use hetgraph_core::{Edge, GraphMeta, MachineId, VertexId};
use hetgraph_partition::PartitionAssignment;

/// A partitioned graph in compressed form: delta-varint adjacency plus
/// per-edge machine lanes and per-vertex replication structure. See the
/// module docs for the contract with the plain [`DistributedGraph`].
#[derive(Debug, Clone)]
pub struct CompactDistGraph {
    num_machines: usize,
    out: CompactCsr,
    inn: CompactCsr,
    /// Machine of the edge behind out slot `k` (sorted neighbor order).
    out_slot_machine: Vec<u16>,
    /// Machine of the edge behind in slot `k` (sorted neighbor order).
    in_slot_machine: Vec<u16>,
    /// Master machine per vertex.
    master: Vec<u16>,
    /// Replica bitmask per vertex.
    replica_mask: Vec<u64>,
    /// Per-vertex per-machine slot counts (row-major), materialized only
    /// when the machine count is at most [`ROW_COUNTS_MAX_MACHINES`].
    out_row_counts: Option<Vec<u32>>,
    in_row_counts: Option<Vec<u32>>,
}

impl CompactDistGraph {
    /// Re-compress a plain distributed view. Each adjacency row's
    /// `(target, machine)` pairs are stable-sorted by target so the
    /// machine lane stays aligned with the sorted varint row; duplicate
    /// targets keep their insertion-order machines.
    pub fn from_dist(dist: &DistributedGraph<'_>) -> Self {
        let graph = dist.graph();
        let assignment = dist.assignment();
        let n = graph.num_vertices();
        let p = assignment.num_machines();
        let (out, out_slot_machine, out_row_counts) =
            compress_rows(n, graph.num_edges(), p, |v| dist.out_adj(v));
        let (inn, in_slot_machine, in_row_counts) =
            compress_rows(n, graph.num_edges(), p, |v| dist.in_adj(v));
        let master = (0..n).map(|v| assignment.master(v).0).collect();
        let replica_mask = (0..n).map(|v| assignment.replica_mask(v)).collect();
        CompactDistGraph {
            num_machines: p,
            out,
            inn,
            out_slot_machine,
            in_slot_machine,
            master,
            replica_mask,
            out_row_counts,
            in_row_counts,
        }
    }

    /// Build from a replayable edge stream, without materializing a
    /// `Graph` or edge list. `stream` is called three times (degree
    /// count, out fill, in fill) and must yield the same edges in the
    /// same order each time — exactly what a
    /// [`hetgraph_core::ShardSet`] replay provides. Edge order must
    /// match the assignment's edge-machine lane.
    ///
    /// The transient fill buffers are one direction at a time (6 bytes
    /// per edge raw, freed before the other direction builds), so peak
    /// build memory stays well under a full `Graph + DistributedGraph`.
    ///
    /// # Errors
    /// Returns [`EngineError::AssignmentMismatch`] if the stream's edge
    /// count differs from the assignment's.
    pub fn from_edge_stream<I, F>(
        num_vertices: u32,
        assignment: &PartitionAssignment,
        mut stream: F,
    ) -> Result<Self, EngineError>
    where
        I: Iterator<Item = Edge>,
        F: FnMut() -> I,
    {
        let p = assignment.num_machines();
        let em = assignment.edge_machines();
        let n = num_vertices as usize;
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        let mut count = 0usize;
        for e in stream() {
            out_deg[e.src as usize] += 1;
            in_deg[e.dst as usize] += 1;
            count += 1;
        }
        if count != em.len() {
            return Err(EngineError::AssignmentMismatch {
                assignment_edges: em.len(),
                graph_edges: count,
            });
        }
        let (out, out_slot_machine, out_row_counts) =
            fill_direction(num_vertices, &out_deg, em, stream(), true, p);
        drop(out_deg);
        let (inn, in_slot_machine, in_row_counts) =
            fill_direction(num_vertices, &in_deg, em, stream(), false, p);
        drop(in_deg);
        let master = (0..num_vertices).map(|v| assignment.master(v).0).collect();
        let replica_mask = (0..num_vertices)
            .map(|v| assignment.replica_mask(v))
            .collect();
        Ok(CompactDistGraph {
            num_machines: p,
            out,
            inn,
            out_slot_machine,
            in_slot_machine,
            master,
            replica_mask,
            out_row_counts,
            in_row_counts,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Number of machines in the partition.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// The counts-and-degrees view vertex programs consume.
    #[inline]
    pub fn meta(&self) -> GraphMeta<'_> {
        meta_pair(&self.out, &self.inn)
    }

    /// Master machine of `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> MachineId {
        MachineId(self.master[v as usize])
    }

    /// Replica bitmask of `v` (bit `m` set iff machine `m` holds a
    /// replica).
    #[inline]
    pub fn replica_mask(&self, v: VertexId) -> u64 {
        self.replica_mask[v as usize]
    }

    /// Out-adjacency of `v`: sorted neighbors decoded into `scratch`,
    /// returned alongside the aligned machine lane slice.
    #[inline]
    pub fn out_adj_into<'s>(
        &'s self,
        v: VertexId,
        scratch: &'s mut Vec<VertexId>,
    ) -> (&'s [VertexId], &'s [u16]) {
        self.out.decode_row_into(v, scratch);
        let (lo, hi) = self.out.edge_range(v);
        (&scratch[..], &self.out_slot_machine[lo..hi])
    }

    /// In-adjacency of `v` (see [`out_adj_into`](Self::out_adj_into)).
    #[inline]
    pub fn in_adj_into<'s>(
        &'s self,
        v: VertexId,
        scratch: &'s mut Vec<VertexId>,
    ) -> (&'s [VertexId], &'s [u16]) {
        self.inn.decode_row_into(v, scratch);
        let (lo, hi) = self.inn.edge_range(v);
        (&scratch[..], &self.in_slot_machine[lo..hi])
    }

    /// Per-vertex per-machine slot counts for the (out, in) directions,
    /// same layout and availability rule as
    /// [`DistributedGraph::machine_counts`]; precomputed at build time.
    #[inline]
    pub fn machine_counts(&self) -> Option<(&[u32], &[u32])> {
        match (&self.out_row_counts, &self.in_row_counts) {
            (Some(o), Some(i)) => Some((o, i)),
            _ => None,
        }
    }

    /// Resident footprint in bytes of every O(V)+O(E) structure this
    /// view keeps alive: varint data and offset indexes for both
    /// directions, the machine lanes, the replication structure, and the
    /// optional row-count tables. The scale benchmark divides this by
    /// the edge count for its RSS-per-edge gate.
    pub fn resident_bytes(&self) -> usize {
        self.out.resident_bytes()
            + self.inn.resident_bytes()
            + self.out_slot_machine.len() * 2
            + self.in_slot_machine.len() * 2
            + self.master.len() * 2
            + self.replica_mask.len() * 8
            + self.out_row_counts.as_ref().map_or(0, |c| c.len() * 4)
            + self.in_row_counts.as_ref().map_or(0, |c| c.len() * 4)
    }
}

/// Compress one direction's rows from a `(targets, machines)` slice
/// source: stable-sort the pairs per row, feed the sorted targets to the
/// varint builder, and lay the machines down in the same order.
fn compress_rows<'a>(
    n: u32,
    num_edges: usize,
    p: usize,
    row_of: impl Fn(VertexId) -> (&'a [VertexId], &'a [u16]),
) -> (CompactCsr, Vec<u16>, Option<Vec<u32>>) {
    let mut b = CompactCsrBuilder::new(n);
    let mut lane = Vec::with_capacity(num_edges);
    let mut counts = (p <= ROW_COUNTS_MAX_MACHINES).then(|| vec![0u32; n as usize * p]);
    let mut pairs: Vec<(VertexId, u16)> = Vec::new();
    let mut row: Vec<VertexId> = Vec::new();
    for v in 0..n {
        let (ts, ms) = row_of(v);
        pairs.clear();
        pairs.extend(ts.iter().copied().zip(ms.iter().copied()));
        pairs.sort_by_key(|&(t, _)| t);
        row.clear();
        row.extend(pairs.iter().map(|&(t, _)| t));
        b.push_row(&row);
        for &(_, m) in &pairs {
            lane.push(m);
            if let Some(c) = &mut counts {
                c[v as usize * p + m as usize] += 1;
            }
        }
    }
    (b.finish(), lane, counts)
}

/// One direction of the streaming build: replay the counting sort the
/// plain CSR construction uses into raw target/machine arrays, then
/// compress row by row. The raw arrays are freed on return.
fn fill_direction(
    n: u32,
    deg: &[u32],
    edge_machine: &[u16],
    edges: impl Iterator<Item = Edge>,
    by_src: bool,
    p: usize,
) -> (CompactCsr, Vec<u16>, Option<Vec<u32>>) {
    let mut offsets = Vec::with_capacity(deg.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in deg {
        acc += d as usize;
        offsets.push(acc);
    }
    let num_edges = acc;
    let mut targets = vec![0u32; num_edges];
    let mut lane_raw = vec![0u16; num_edges];
    let mut fill = vec![0u32; deg.len()];
    for (i, e) in edges.enumerate() {
        let (key, t) = if by_src {
            (e.src, e.dst)
        } else {
            (e.dst, e.src)
        };
        let k = key as usize;
        let slot = offsets[k] + fill[k] as usize;
        targets[slot] = t;
        lane_raw[slot] = edge_machine[i];
        fill[k] += 1;
    }
    drop(fill);
    compress_rows(n, num_edges, p, |v| {
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        (&targets[lo..hi], &lane_raw[lo..hi])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{EdgeList, Graph};

    fn fixture() -> (Graph, PartitionAssignment) {
        // Includes a duplicate edge and an isolated vertex.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(0, 4),
            Edge::new(0, 1),
            Edge::new(2, 0),
            Edge::new(4, 2),
            Edge::new(1, 0),
        ];
        let g = Graph::from_edge_list(EdgeList::from_edges(6, edges));
        let a = PartitionAssignment::from_edge_machines(&g, 3, vec![0, 1, 2, 0, 1, 2], 1);
        (g, a)
    }

    #[test]
    fn from_dist_matches_plain_view() {
        let (g, a) = fixture();
        let dist = DistributedGraph::new(&g, &a, 1).unwrap();
        let c = CompactDistGraph::from_dist(&dist);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.num_machines(), 3);
        let mut scratch = Vec::new();
        for v in g.vertices() {
            // Sorted (target, machine) multisets must agree per row.
            for dir in [true, false] {
                let (pt, pm) = if dir { dist.out_adj(v) } else { dist.in_adj(v) };
                let mut plain: Vec<_> = pt.iter().copied().zip(pm.iter().copied()).collect();
                plain.sort();
                let (ct, cm) = if dir {
                    c.out_adj_into(v, &mut scratch)
                } else {
                    c.in_adj_into(v, &mut scratch)
                };
                assert!(ct.windows(2).all(|w| w[0] <= w[1]), "sorted row");
                let mut compact: Vec<_> = ct.iter().copied().zip(cm.iter().copied()).collect();
                compact.sort();
                assert_eq!(plain, compact, "v={v} dir={dir}");
            }
            assert_eq!(c.master(v), a.master(v));
            assert_eq!(c.replica_mask(v), a.replica_mask(v));
        }
    }

    #[test]
    fn stream_build_equals_dist_build() {
        let (g, a) = fixture();
        let dist = DistributedGraph::new(&g, &a, 1).unwrap();
        let from_dist = CompactDistGraph::from_dist(&dist);
        let edges: Vec<Edge> = g.edges().to_vec();
        let from_stream =
            CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || edges.iter().copied())
                .unwrap();
        assert_eq!(from_dist.out, from_stream.out);
        assert_eq!(from_dist.inn, from_stream.inn);
        assert_eq!(from_dist.out_slot_machine, from_stream.out_slot_machine);
        assert_eq!(from_dist.in_slot_machine, from_stream.in_slot_machine);
        assert_eq!(from_dist.master, from_stream.master);
        assert_eq!(from_dist.replica_mask, from_stream.replica_mask);
        assert_eq!(from_dist.out_row_counts, from_stream.out_row_counts);
        assert_eq!(from_dist.in_row_counts, from_stream.in_row_counts);
    }

    #[test]
    fn machine_counts_match_lanes() {
        let (g, a) = fixture();
        let dist = DistributedGraph::new(&g, &a, 1).unwrap();
        let c = CompactDistGraph::from_dist(&dist);
        let (out, inn) = c.machine_counts().expect("3 machines is under the cap");
        let p = 3usize;
        let mut scratch = Vec::new();
        for v in g.vertices() {
            for m in 0..p {
                let o = c.out_adj_into(v, &mut scratch).1.iter();
                let expect = o.filter(|&&s| s as usize == m).count();
                assert_eq!(out[v as usize * p + m] as usize, expect);
                let i = c.in_adj_into(v, &mut scratch).1.iter();
                let expect = i.filter(|&&s| s as usize == m).count();
                assert_eq!(inn[v as usize * p + m] as usize, expect);
            }
        }
    }

    #[test]
    fn stream_count_mismatch_is_typed_error() {
        let (g, a) = fixture();
        let short: Vec<Edge> = g.edges()[..3].to_vec();
        match CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || short.iter().copied()) {
            Err(EngineError::AssignmentMismatch {
                assignment_edges,
                graph_edges,
            }) => {
                assert_eq!(assignment_edges, 6);
                assert_eq!(graph_edges, 3);
            }
            _ => panic!("expected AssignmentMismatch"),
        }
    }

    #[test]
    fn meta_exposes_degrees() {
        let (g, a) = fixture();
        let dist = DistributedGraph::new(&g, &a, 1).unwrap();
        let c = CompactDistGraph::from_dist(&dist);
        let m = c.meta();
        let gm = g.meta();
        assert_eq!(m.num_vertices(), gm.num_vertices());
        assert_eq!(m.num_edges(), gm.num_edges());
        for v in g.vertices() {
            assert_eq!(m.out_degree(v), gm.out_degree(v));
            assert_eq!(m.in_degree(v), gm.in_degree(v));
        }
    }

    #[test]
    fn resident_bytes_counts_every_lane() {
        let (g, a) = fixture();
        let dist = DistributedGraph::new(&g, &a, 1).unwrap();
        let c = CompactDistGraph::from_dist(&dist);
        // At minimum: one varint byte per edge per direction, two lane
        // bytes per edge per direction, plus the per-vertex structure.
        let floor = g.num_edges() * (1 + 2) * 2 + g.num_vertices() as usize * 10;
        assert!(c.resident_bytes() >= floor);
    }
}
