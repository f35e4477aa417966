//! Structure-agnostic graph metadata for vertex programs.
//!
//! GAS programs need only counts and degrees from the graph — never raw
//! adjacency (the engine walks adjacency on the programs' behalf). A
//! [`GraphMeta`] packages exactly that surface over *either* backing
//! representation: the plain [`crate::Csr`]'s `usize` offsets or the
//! narrow/wide offset indexes of [`crate::compact::CompactCsr`]. This is
//! what lets one superstep kernel serve both representations without a
//! generic parameter leaking into every program.

use crate::VertexId;

/// One direction's cumulative degree offsets, borrowed from whichever
/// representation backs the graph.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DegreeIndex<'a> {
    /// Plain CSR offsets (`Vec<usize>`).
    Wide(&'a [usize]),
    /// Compact CSR narrow edge offsets.
    Narrow(&'a [u32]),
    /// Compact CSR wide edge offsets.
    Narrow64(&'a [u64]),
}

impl DegreeIndex<'_> {
    #[inline]
    fn degree(&self, v: usize) -> usize {
        match self {
            DegreeIndex::Wide(o) => o[v + 1] - o[v],
            DegreeIndex::Narrow(o) => (o[v + 1] - o[v]) as usize,
            DegreeIndex::Narrow64(o) => (o[v + 1] - o[v]) as usize,
        }
    }
}

/// Borrowed counts-and-degrees view of a graph — the whole graph surface a
/// GAS vertex program sees. Cheap to copy; construct once per run via
/// `Graph::meta()` or the compact distributed graph's equivalent.
#[derive(Debug, Clone, Copy)]
pub struct GraphMeta<'a> {
    num_vertices: u32,
    num_edges: usize,
    out: DegreeIndex<'a>,
    inn: DegreeIndex<'a>,
}

impl<'a> GraphMeta<'a> {
    /// Assemble from per-direction degree indexes. Crate-internal: lets
    /// [`crate::compact`] build a meta whose two directions use different
    /// index widths (each [`crate::compact::CompactCsr`] narrows
    /// independently).
    pub(crate) fn from_parts(
        num_vertices: u32,
        num_edges: usize,
        out: DegreeIndex<'a>,
        inn: DegreeIndex<'a>,
    ) -> Self {
        GraphMeta {
            num_vertices,
            num_edges,
            out,
            inn,
        }
    }

    /// Build from plain CSR offset arrays (each of length
    /// `num_vertices + 1`).
    pub fn from_offsets(
        num_vertices: u32,
        num_edges: usize,
        out_offsets: &'a [usize],
        in_offsets: &'a [usize],
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), num_vertices as usize + 1);
        debug_assert_eq!(in_offsets.len(), num_vertices as usize + 1);
        GraphMeta {
            num_vertices,
            num_edges,
            out: DegreeIndex::Wide(out_offsets),
            inn: DegreeIndex::Wide(in_offsets),
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
        self.num_edges
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v as usize)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inn.degree(v as usize)
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Average out-degree `|E| / |V|` (0 for an empty vertex set), exactly
    /// as `Graph::avg_degree` computes it — cost-model inputs derived from
    /// either representation must match bit-for-bit.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_vertices as f64
        }
    }

    /// Maximum total degree over all vertices (0 for an empty graph).
    pub fn max_total_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactCsr;
    use crate::{Edge, EdgeList, Graph};

    fn diamond() -> Graph {
        Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        ))
    }

    #[test]
    fn plain_meta_matches_graph_accessors() {
        let g = diamond();
        let m = g.meta();
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert_eq!(m.num_edges(), g.num_edges());
        assert_eq!(m.avg_degree(), g.avg_degree());
        for v in g.vertices() {
            assert_eq!(m.out_degree(v), g.out_degree(v));
            assert_eq!(m.in_degree(v), g.in_degree(v));
            assert_eq!(m.degree(v), g.degree(v));
        }
        assert_eq!(m.max_total_degree(), 2);
    }

    #[test]
    fn narrow_meta_matches_plain_meta() {
        let g = diamond();
        let out = CompactCsr::from_csr(g.out_csr());
        let inn = CompactCsr::from_csr(g.in_csr());
        // Degrees via the compact structures must agree with the plain ones.
        for v in g.vertices() {
            assert_eq!(out.degree(v), g.out_degree(v));
            assert_eq!(inn.degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn wide_offsets_work() {
        let out = [0u64, 2, 3];
        let inn = [0u64, 1, 3];
        let m = GraphMeta::from_parts(
            2,
            3,
            DegreeIndex::Narrow64(&out),
            DegreeIndex::Narrow64(&inn),
        );
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.in_degree(1), 2);
        assert_eq!(m.degree(1), 3);
    }

    #[test]
    fn empty_graph_avg_degree_is_zero() {
        let out = [0usize];
        let m = GraphMeta::from_offsets(0, 0, &out, &out);
        assert_eq!(m.avg_degree(), 0.0);
        assert_eq!(m.max_total_degree(), 0);
    }
}
