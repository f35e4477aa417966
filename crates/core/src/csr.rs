//! Compressed sparse row adjacency.

use crate::{Edge, VertexId};

/// Immutable CSR adjacency structure: for each vertex, a contiguous slice of
/// neighbor ids.
///
/// A `Csr` represents one direction of adjacency (out-edges or in-edges);
/// [`crate::Graph`] holds one of each. Construction is a counting sort over
/// the edge list — O(|V| + |E|) time, no per-vertex allocations.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Csr {
    /// `offsets[v] .. offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists.
    targets: Vec<VertexId>,
}

impl Csr {
    /// Build out-adjacency from an edge slice: `targets(v)` are all `dst`
    /// with `(v, dst)` in `edges`.
    pub fn from_edges(num_vertices: u32, edges: &[Edge]) -> Self {
        Self::build(num_vertices, edges, |e| (e.src, e.dst))
    }

    /// Build in-adjacency from an edge slice: `targets(v)` are all `src`
    /// with `(src, v)` in `edges`.
    pub fn from_edges_reversed(num_vertices: u32, edges: &[Edge]) -> Self {
        Self::build(num_vertices, edges, |e| (e.dst, e.src))
    }

    fn build(
        num_vertices: u32,
        edges: &[Edge],
        proj: impl Fn(&Edge) -> (VertexId, VertexId),
    ) -> Self {
        let n = num_vertices as usize;
        let mut counts = vec![0usize; n + 1];
        for e in edges {
            let (key, _) = proj(e);
            counts[key as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; edges.len()];
        for e in edges {
            let (key, val) = proj(e);
            targets[cursor[key as usize]] = val;
            cursor[key as usize] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored adjacency entries (== number of edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterate `(vertex, neighbors)` pairs in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.num_vertices()).map(move |v| (v, self.neighbors(v)))
    }

    /// The raw offsets array (length `num_vertices + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Resident footprint in bytes of the offsets and targets arrays
    /// (the compact representation's comparison baseline).
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }

    /// The raw concatenated targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(3, 0),
            Edge::new(3, 2),
        ]
    }

    #[test]
    fn out_adjacency() {
        let csr = Csr::from_edges(4, &edges());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[] as &[u32]);
        assert_eq!(csr.neighbors(3), &[0, 2]);
    }

    #[test]
    fn in_adjacency() {
        let csr = Csr::from_edges_reversed(4, &edges());
        assert_eq!(csr.neighbors(2).len(), 3);
        let mut ns = csr.neighbors(2).to_vec();
        ns.sort_unstable();
        assert_eq!(ns, vec![0, 1, 3]);
        assert_eq!(csr.neighbors(0), &[3]);
    }

    #[test]
    fn degrees_match_offsets() {
        let csr = Csr::from_edges(4, &edges());
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(2), 0);
        let total: usize = (0..4).map(|v| csr.degree(v)).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(3, &[]);
        assert_eq!(csr.num_edges(), 0);
        for v in 0..3 {
            assert!(csr.neighbors(v).is_empty());
        }
    }

    #[test]
    fn preserves_duplicate_edges() {
        let es = vec![Edge::new(0, 1), Edge::new(0, 1)];
        let csr = Csr::from_edges(2, &es);
        assert_eq!(csr.neighbors(0), &[1, 1]);
    }

    #[test]
    fn iter_covers_all_vertices() {
        let csr = Csr::from_edges(4, &edges());
        let pairs: Vec<_> = csr.iter().collect();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[3].0, 3);
        assert_eq!(pairs[3].1, &[0, 2]);
    }
}
