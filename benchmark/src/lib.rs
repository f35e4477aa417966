//! `hetbench`: the repository's benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! - [`layers`] — every call into `hetgraph`, wrapped in spans;
//! - [`workloads`] — the five workloads built from those calls;
//! - [`harness`] — the measurement loop, output checks and result record;
//! - [`trace`] — the span recorder and Chrome-trace writer;
//! - [`metrics`] — metric names, units and per-layer derivations;
//! - [`compare`] — `run.sh --compare`;
//! - [`stats`] — order statistics and host probes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
