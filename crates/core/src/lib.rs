//! # hetgraph-core
//!
//! Graph substrate shared by every other `hetgraph` crate.
//!
//! This crate provides the data structures that the rest of the system is
//! built on:
//!
//! - [`Graph`] — an immutable directed graph with both out- and in-adjacency
//!   in CSR (compressed sparse row) form, built from an [`EdgeList`].
//! - [`EdgeList`] / [`Edge`] — the streaming representation consumed by the
//!   partitioners (PowerGraph-style partitioning assigns *edges*, so the edge
//!   list is the canonical unit of work).
//! - [`rng`] — a deterministic, seedable PRNG family (SplitMix64 and
//!   Xoshiro256**) plus avalanche hash functions. Every stochastic component
//!   in the workspace draws from these so that experiments are exactly
//!   reproducible across platforms, which is a prerequisite for the
//!   paper-reproduction harness.
//! - [`degree`] — degree distributions, histograms, and the tail statistics
//!   used to check that synthetic graphs follow the intended power law.
//! - [`stats`] — small numeric helpers (means, geomeans, relative errors)
//!   used by the profiling and evaluation crates.
//! - [`frontier`] — the engine's hybrid sparse/dense frontier set with
//!   dirty-word clearing (active-vertex tracking on the hot path).
//! - [`par`] — deterministic self-scheduling fan-out, shared by the engine's
//!   superstep parallelism and the benchmark sweep's cell parallelism.
//! - [`obs`] — structured observability: [`obs::Telemetry`], the one
//!   handle instrumented code takes (an event log plus a metrics
//!   registry, each on or off), span/counter/gauge events in simulated
//!   and wall time, and exporters to JSON-lines and Chrome `trace_event`
//!   format.
//! - [`metrics`] — the handle's aggregated half: zero-cost-when-disabled
//!   counters, gauges, and log-bucketed histograms, snapshotted to JSON
//!   or Prometheus text under the same two-time-domain determinism
//!   contract as the event stream.
//! - [`io`] — text and binary edge-list serialization.
//! - [`compact`] — delta-varint compressed CSR ([`compact::CompactCsr`])
//!   with width-adaptive offsets: the bounded-RSS adjacency representation
//!   for graphs too large for the plain [`Csr`] pair.
//! - [`meta`] — [`meta::GraphMeta`], the counts-and-degrees view vertex
//!   programs consume, backed by either representation.
//! - [`shard`] — fixed-size binary edge shards ([`shard::ShardWriter`] /
//!   [`shard::ShardSet`]): the streaming ingestion format generators emit
//!   with bounded buffering. [`EdgeSource`], implemented by it and by
//!   [`Graph`], is the one input every partitioner takes.
//!
//! The substrate deliberately contains no policy: partitioning, machine
//! modeling, and execution live in the downstream crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compact;
pub mod csr;
pub mod degree;
pub mod edge_list;
pub mod error;
pub mod frontier;
pub mod graph;
pub mod io;
pub mod meta;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod rng;
pub mod shard;
pub mod source;
pub mod stats;
pub mod transform;

pub use compact::CompactCsr;
pub use csr::Csr;
pub use degree::DegreeStats;
pub use edge_list::{Edge, EdgeList};
pub use error::CoreError;
pub use frontier::FrontierSet;
pub use graph::Graph;
pub use meta::GraphMeta;
pub use rng::{hash64, SplitMix64, Xoshiro256};
pub use shard::{ShardSet, ShardWriter};
pub use source::EdgeSource;

/// Identifier of a vertex. Graphs in this workspace are bounded by `u32`
/// vertex counts (the paper's largest graph has ~4.8 M vertices), which
/// halves the memory footprint of adjacency data relative to `usize`.
pub type VertexId = u32;

/// Identifier of a machine (partition) in a cluster.
///
/// A newtype rather than a bare integer so that machine indices cannot be
/// accidentally mixed with vertex ids in partitioning code.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct MachineId(pub u16);

impl MachineId {
    /// Machine id as a `usize` index into per-machine tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl From<usize> for MachineId {
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "machine index overflows u16");
        MachineId(v as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_id_roundtrip() {
        let m = MachineId::from(7usize);
        assert_eq!(m.index(), 7);
        assert_eq!(m.to_string(), "m7");
    }

    #[test]
    fn machine_id_ordering_follows_index() {
        assert!(MachineId(1) < MachineId(2));
        assert_eq!(MachineId(3), MachineId::from(3usize));
    }
}
