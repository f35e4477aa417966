//! Directed edges and edge lists.
//!
//! PowerGraph-style partitioning assigns *edges* to machines, so the edge
//! list — not the adjacency structure — is the canonical streaming
//! representation consumed by every partitioner in `hetgraph-partition`.

use crate::VertexId;

/// A directed edge `src -> dst`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Target vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Construct an edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// Whether the edge is a self loop.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.src == self.dst
    }

    /// The edge with endpoints swapped.
    #[inline]
    pub fn reversed(&self) -> Edge {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// A stable 64-bit key for hashing the edge as a pair.
    #[inline]
    pub fn key(&self) -> u64 {
        ((self.src as u64) << 32) | self.dst as u64
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// A growable list of directed edges together with the vertex-count bound.
///
/// The vertex count is carried explicitly because graphs may legitimately
/// contain isolated vertices (e.g. the synthetic catalogs pin |V| to the
/// paper's Table II regardless of which vertices happen to receive edges).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EdgeList {
    num_vertices: u32,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Create an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Create an empty edge list with preallocated capacity.
    pub fn with_capacity(num_vertices: u32, capacity: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::with_capacity(capacity),
        }
    }

    /// Build from parts. Panics if any edge is out of range (programmer
    /// error; the readers in [`crate::io`] and [`crate::shard`] return
    /// [`crate::CoreError::VertexOutOfRange`] instead).
    pub fn from_edges(num_vertices: u32, edges: Vec<Edge>) -> Self {
        for e in &edges {
            assert!(
                e.src < num_vertices && e.dst < num_vertices,
                "edge {e} out of range for {num_vertices} vertices"
            );
        }
        EdgeList {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list contains no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Average out-degree `|E| / |V|` (0 for an empty vertex set).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// Append an edge.
    ///
    /// # Panics
    /// Panics in debug builds if an endpoint is out of range.
    #[inline]
    pub fn push(&mut self, e: Edge) {
        debug_assert!(e.src < self.num_vertices && e.dst < self.num_vertices);
        self.edges.push(e);
    }

    /// The edges as a slice.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate over edges by value.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Consume into the raw edge vector.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

impl IntoIterator for EdgeList {
    type Item = Edge;
    type IntoIter = std::vec::IntoIter<Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.into_iter()
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        let mut el = EdgeList::new(4);
        el.push(Edge::new(0, 1));
        el.push(Edge::new(1, 2));
        el.push(Edge::new(2, 2));
        el.push(Edge::new(1, 2));
        el.push(Edge::new(3, 0));
        el
    }

    #[test]
    fn basic_accessors() {
        let el = sample();
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.num_edges(), 5);
        assert!(!el.is_empty());
        assert_eq!(el.avg_degree(), 5.0 / 4.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates() {
        EdgeList::from_edges(2, vec![Edge::new(0, 5)]);
    }

    #[test]
    fn edge_helpers() {
        let e = Edge::new(3, 7);
        assert_eq!(e.reversed(), Edge::new(7, 3));
        assert!(!e.is_self_loop());
        assert!(Edge::new(4, 4).is_self_loop());
        assert_eq!(e.key(), (3u64 << 32) | 7);
        assert_eq!(e.to_string(), "3->7");
    }

    #[test]
    fn empty_graph_avg_degree_is_zero() {
        assert_eq!(EdgeList::new(0).avg_degree(), 0.0);
    }
}
