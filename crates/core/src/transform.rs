//! Graph transformations: vertex relabeling.
//!
//! Used by tests that need to reshape graphs while preserving structure —
//! e.g. checking that results survive a degree-sorted renumbering.

use crate::{Edge, EdgeList, Graph, VertexId};

/// Relabel vertices by a permutation: vertex `v` becomes `perm[v]`.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..num_vertices`.
pub fn relabel(graph: &Graph, perm: &[VertexId]) -> Graph {
    let n = graph.num_vertices();
    assert_eq!(
        perm.len(),
        n as usize,
        "permutation must cover every vertex"
    );
    let mut seen = vec![false; n as usize];
    for &p in perm {
        assert!(p < n, "permutation target {p} out of range");
        assert!(!seen[p as usize], "permutation target {p} repeated");
        seen[p as usize] = true;
    }
    let edges = graph
        .edges()
        .iter()
        .map(|e| Edge::new(perm[e.src as usize], perm[e.dst as usize]))
        .collect();
    Graph::from_edge_list(EdgeList::from_edges(n, edges))
}

/// The degree-sorted renumbering permutation: `perm[v]` is `v`'s new id
/// when vertices are ordered by descending total degree (ties broken by
/// old id, so the result is deterministic).
///
/// Renumbering hubs to the front shrinks the delta-varint encoding of
/// [`crate::compact::CompactCsr`] — neighbors cluster among the small,
/// frequently-referenced ids, so gaps (and their varints) get smaller —
/// and improves frontier locality, since the high-degree vertices that
/// dominate superstep work become a dense id prefix. Apply with
/// [`relabel`]; invert by `inv[perm[v]] = v`.
pub fn degree_sort_permutation(graph: &Graph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut order: Vec<VertexId> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut perm = vec![0 as VertexId; n as usize];
    for (new_id, &old) in order.iter().enumerate() {
        perm[old as usize] = new_id as VertexId;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn relabel_preserves_structure() {
        let g = diamond();
        let perm = vec![3u32, 2, 1, 0]; // reverse
        let r = relabel(&g, &perm);
        assert_eq!(r.num_edges(), g.num_edges());
        // Degree multiset is invariant under relabeling.
        let mut d1: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = r.vertices().map(|v| r.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        // Specific edge: (0,1) -> (3,2).
        assert!(r.out_neighbors(3).contains(&2));
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn bad_permutation_rejected() {
        relabel(&diamond(), &[0, 0, 1, 2]);
    }

    #[test]
    fn degree_sort_puts_hubs_first_and_is_a_bijection() {
        // Star plus a chain: vertex 0 has the highest total degree.
        let g = Graph::from_edge_list(EdgeList::from_edges(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(3, 4),
            ],
        ));
        let perm = degree_sort_permutation(&g);
        assert_eq!(perm[0], 0, "hub keeps the smallest id");
        let mut seen = perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..5).collect::<Vec<_>>(), "bijection");
        // Degrees are non-increasing along the new ordering.
        let r = relabel(&g, &perm);
        let degs: Vec<usize> = r.vertices().map(|v| r.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "{degs:?}");
    }

    #[test]
    fn degree_sort_ties_break_by_old_id() {
        // All vertices degree 1: permutation must be the identity.
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![Edge::new(0, 1), Edge::new(2, 3)],
        ));
        assert_eq!(degree_sort_permutation(&g), vec![0, 1, 2, 3]);
    }
}
