//! # hetgraph-engine
//!
//! A PowerGraph-like Gather-Apply-Scatter (GAS) engine executing on a
//! *simulated* heterogeneous cluster.
//!
//! The engine really runs the algorithm: vertex programs compute real
//! PageRank values, real component labels, real colors, real triangle
//! counts over the real partition. What is simulated is *time*: the engine
//! counts the work each machine performs in each superstep (every gather
//! visit, apply, scatter visit, and mirror synchronization, attributed to
//! the machine that owns the edge or masters the vertex) and converts
//! those counts to seconds and joules through the calibrated machine
//! models in `hetgraph-cluster`. See `DESIGN.md` for why this substitution
//! preserves the paper's phenomena.
//!
//! - [`program`] — the [`GasProgram`] trait (Jacobi-style functional GAS).
//! - [`distributed`] — [`DistributedGraph`]: the partition-aware view that
//!   knows which machine owns each CSR adjacency slot.
//! - [`compact_dist`] — [`CompactDistGraph`]: the same view over
//!   delta-varint compressed adjacency, buildable straight from an edge
//!   stream; the kernel runs it with byte-identical reports.
//! - [`sim`] — [`SimEngine`]: **the** BSP superstep loop (there is exactly
//!   one; serial execution is its 1-thread case) with timing, energy, and
//!   communication accounting, entered only through
//!   [`SimEngine::run`]`(target, program, host_threads)`. The
//!   [`RunTarget`] argument picks the view: `&DistributedGraph`,
//!   `&CompactDistGraph`, or [`RunTarget::rebalanced`].
//!   [`SimEngine::trace`] runs the same kernel and also returns the
//!   run's [`WorkTrace`]; [`SimEngine::price`] re-prices one for any
//!   cluster of the same size.
//! - `price` (crate-private) — the one pricing body (work → seconds,
//!   energy, step records, sim-domain telemetry) both paths share, and
//!   the [`WorkTrace`] record.
//! - [`rebalance`] — [`RebalancePolicy`]: between-superstep migration
//!   driven by the per-step straggler signals; [`GreedyRebalance`] is the
//!   built-in amortizing policy.
//! - [`report`] — [`SimReport`]: everything the evaluation harness reads.
//! - [`analyze`] — [`TraceAnalysis`]: offline straggler-attribution
//!   analytics over exported trace JSONL (backs `hetgraph report`).
//! - [`error`] — [`EngineError`]: typed construction failures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod compact_dist;
pub mod distributed;
pub mod error;
mod price;
pub mod program;
pub mod rebalance;
pub mod report;
pub mod sim;

pub use analyze::TraceAnalysis;
pub use compact_dist::CompactDistGraph;
pub use distributed::DistributedGraph;
pub use error::EngineError;
pub use price::WorkTrace;
pub use program::{ActiveInit, Direction, GasProgram};
pub use rebalance::{GreedyRebalance, MigrationEvent, RebalancePolicy, StepSignals};
pub use report::{SimReport, StepRecord};
pub use sim::{RunTarget, SimEngine, SimOutcome};
