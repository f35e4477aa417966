//! # hetgraph-partition
//!
//! Streaming graph partitioners, homogeneous and heterogeneity-aware
//! (Section II of the paper).
//!
//! PowerGraph-style systems use **vertex cuts**: *edges* are assigned to
//! machines and a vertex that touches edges on several machines is
//! replicated there (one replica is the *master*, the rest are *mirrors*
//! that must be synchronized every superstep). The partitioners differ in
//! how they trade replication factor against balance and ingest cost:
//!
//! | Partitioner | Family | Strategy |
//! |---|---|---|
//! | [`RandomHash`] | vertex cut | hash of the edge |
//! | [`Oblivious`] | vertex cut | greedy, history of endpoint placements |
//! | [`Grid`] | vertex cut | constrain candidates to a row/column intersection |
//! | [`Hybrid`] | mixed cut | edge cut for low-degree, vertex cut for hubs |
//! | [`Ginger`] | mixed cut | Hybrid + Fennel-style score reassignment |
//!
//! Every partitioner takes a [`MachineWeights`] argument: uniform weights
//! reproduce the original homogeneous algorithms; CCR-derived weights give
//! the paper's heterogeneity-aware variants; thread-count weights give the
//! prior-work baseline. This mirrors the paper's design, where
//! heterogeneity awareness is a weighting layered onto each algorithm.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assignment;
pub(crate) mod chunk;
pub mod delta;
pub mod ginger;
pub mod grid;
pub mod hybrid;
pub mod metrics;
pub mod oblivious;
pub mod random_hash;
pub mod traits;
pub mod weights;

pub use assignment::PartitionAssignment;
pub use delta::{AssignmentDelta, EdgeMove, MaskChange};
pub use ginger::Ginger;
pub use grid::Grid;
pub use hybrid::Hybrid;
pub use metrics::PartitionMetrics;
pub use oblivious::Oblivious;
pub use random_hash::RandomHash;
pub use traits::{Partitioner, PartitionerKind, StreamPartitioner};
pub use weights::{assert_bitmask_capacity, MachineWeights, MAX_MACHINES};
