//! The immutable directed graph type.

use crate::{Csr, DegreeStats, Edge, EdgeList, VertexId};

/// An immutable directed graph with the edge list plus both adjacency
/// directions in CSR form.
///
/// Construct through [`Graph::from_edge_list`] (infallible over a validated
/// [`EdgeList`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Graph {
    num_vertices: u32,
    edges: Vec<Edge>,
    out_csr: Csr,
    in_csr: Csr,
}

impl Graph {
    /// Build a graph from an [`EdgeList`], constructing both CSR directions.
    pub fn from_edge_list(list: EdgeList) -> Self {
        let num_vertices = list.num_vertices();
        let edges = list.into_edges();
        let out_csr = Csr::from_edges(num_vertices, &edges);
        let in_csr = Csr::from_edges_reversed(num_vertices, &edges);
        Graph {
            num_vertices,
            edges,
            out_csr,
            in_csr,
        }
    }

    /// Number of vertices, including isolated ones.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out_csr.neighbors(v)
    }

    /// In-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_csr.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_csr.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_csr.degree(v)
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// The out-direction CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out_csr
    }

    /// The in-direction CSR.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.in_csr
    }

    /// The counts-and-degrees view of this graph that vertex programs
    /// consume (see [`crate::meta::GraphMeta`]). Borrows the CSR offsets;
    /// cheap to construct and copy.
    pub fn meta(&self) -> crate::GraphMeta<'_> {
        crate::GraphMeta::from_offsets(
            self.num_vertices,
            self.edges.len(),
            self.out_csr.offsets(),
            self.in_csr.offsets(),
        )
    }

    /// Resident footprint in bytes of every O(V)+O(E) array this graph
    /// keeps alive: the raw edge list plus both CSR directions. This is
    /// what the compressed [`crate::compact::CompactCsr`] representation
    /// competes against in the scale benchmark's bytes-per-edge ledger.
    pub fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + self.out_csr.resident_bytes()
            + self.in_csr.resident_bytes()
    }

    /// Average out-degree `|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// Iterate over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices
    }

    /// Degree statistics over total degree (used for power-law checks).
    pub fn degree_stats(&self) -> DegreeStats {
        DegreeStats::from_graph(self)
    }

    /// The undirected version of this graph: each edge `{u, v}` appears as
    /// both `(u, v)` and `(v, u)` exactly once; self loops removed.
    ///
    /// Triangle counting and coloring (as in PowerGraph) operate on the
    /// undirected structure.
    pub fn to_undirected(&self) -> Graph {
        let mut sym: Vec<Edge> = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            if e.is_self_loop() {
                continue;
            }
            // Canonical order so dedup collapses (u,v) and (v,u) duplicates.
            let (a, b) = if e.src < e.dst {
                (e.src, e.dst)
            } else {
                (e.dst, e.src)
            };
            sym.push(Edge::new(a, b));
        }
        sym.sort_unstable();
        sym.dedup();
        let mut all = Vec::with_capacity(sym.len() * 2);
        for e in &sym {
            all.push(*e);
            all.push(e.reversed());
        }
        Graph::from_edge_list(EdgeList::from_edges(self.num_vertices, all))
    }

    /// Consistency check used by tests and debug assertions: both CSRs agree
    /// with the edge list.
    pub fn validate(&self) -> bool {
        if self.out_csr.num_edges() != self.edges.len()
            || self.in_csr.num_edges() != self.edges.len()
        {
            return false;
        }
        let out_total: usize = (0..self.num_vertices).map(|v| self.out_degree(v)).sum();
        let in_total: usize = (0..self.num_vertices).map(|v| self.in_degree(v)).sum();
        out_total == self.edges.len() && in_total == self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let el = EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        );
        Graph::from_edge_list(el)
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.avg_degree(), 1.0);
    }

    #[test]
    fn neighbors_consistent() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        let mut ins = g.in_neighbors(3).to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![1, 2]);
    }

    #[test]
    fn validates() {
        assert!(diamond().validate());
    }

    #[test]
    fn undirected_symmetrizes_and_dedups() {
        let el = EdgeList::from_edges(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(1, 1),
                Edge::new(1, 2),
            ],
        );
        let u = Graph::from_edge_list(el).to_undirected();
        // {0,1} and {1,2}: 2 undirected edges -> 4 directed arcs.
        assert_eq!(u.num_edges(), 4);
        assert_eq!(u.out_degree(1), 2);
        assert_eq!(u.in_degree(1), 2);
        // Symmetry: every arc has its reverse.
        for e in u.edges() {
            assert!(u.out_neighbors(e.dst).contains(&e.src));
        }
    }

    #[test]
    fn isolated_vertices_counted() {
        let el = EdgeList::from_edges(10, vec![Edge::new(0, 1)]);
        let g = Graph::from_edge_list(el);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(9), 0);
    }
}
