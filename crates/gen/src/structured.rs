//! Deterministic structured graphs for examples.

use hetgraph_core::{Edge, EdgeList, Graph};

/// 2-D grid of `rows x cols` vertices with edges right and down.
///
/// # Panics
/// Panics if either dimension is zero or `rows * cols` overflows `u32`.
pub fn grid(rows: u32, cols: u32) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let n = rows.checked_mul(cols).expect("grid size overflows u32");
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push(Edge::new(v, v + 1));
            }
            if r + 1 < rows {
                edges.push(Edge::new(v, v + cols));
            }
        }
    }
    Graph::from_edge_list(EdgeList::from_edges(n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // right edges: 3 * 3 = 9, down edges: 2 * 4 = 8
        assert_eq!(g.num_edges(), 17);
    }
}
