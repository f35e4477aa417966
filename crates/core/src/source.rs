//! [`EdgeSource`]: what a partitioner reads, in memory ([`Graph`]) or
//! on disk ([`ShardSet`]); the shard format stays inside [`crate::shard`].

use crate::{Edge, Graph, ShardSet};

/// A replayable edge sequence with known |V| and |E|: every
/// [`edges`](EdgeSource::edges) call replays the same edges in order.
pub trait EdgeSource {
    /// Vertex-count bound: every edge endpoint is below it.
    fn num_vertices(&self) -> u32;

    /// Number of edges one replay yields.
    fn num_edges(&self) -> usize;

    /// One in-order replay of every edge.
    fn edges(&self) -> Box<dyn Iterator<Item = Edge> + '_>;

    /// The graph itself, when the source is already in memory: random
    /// access to the edge slice and both adjacency directions.
    fn graph(&self) -> Option<&Graph> {
        None
    }
}

impl EdgeSource for Graph {
    fn num_vertices(&self) -> u32 {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    fn edges(&self) -> Box<dyn Iterator<Item = Edge> + '_> {
        Box::new(Graph::edges(self).iter().copied())
    }

    fn graph(&self) -> Option<&Graph> {
        Some(self)
    }
}

/// Replays one shard at a time, so memory stays bounded by a shard.
impl EdgeSource for ShardSet {
    fn num_vertices(&self) -> u32 {
        ShardSet::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        usize::try_from(ShardSet::num_edges(self)).expect("edge count fits in usize")
    }

    fn edges(&self) -> Box<dyn Iterator<Item = Edge> + '_> {
        Box::new(self.stream())
    }
}
