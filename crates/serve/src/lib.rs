//! # hetgraph-serve
//!
//! The graph-query serving layer: the engine as a long-running service.
//!
//! Everything else in the workspace is batch — one `simulate`/`submit`
//! job per invocation. This crate multiplexes thousands of concurrent
//! point queries (per-source SSSP reachability, personalized-PageRank
//! seeds, k-core membership) over **one** shared partitioned
//! [`DistributedGraph`](hetgraph_engine::DistributedGraph):
//!
//! - [`request`] — query/request/completion types and the typed
//!   [`ServeError`] admission control returns on shed;
//! - [`queue`] — bounded per-tenant queues with stride-style weighted
//!   fair batch formation, all integer arithmetic, fully deterministic;
//! - [`multi`] — the multi-source lane programs ([`SsspLanes`],
//!   [`PprLanes`]: inline fixed-width lane blocks, up to [`MAX_LANES`]
//!   lanes) that let one superstep wave answer a whole batch, with a
//!   bitwise per-lane identity contract (see the module docs);
//! - [`loadgen`] — a seeded open-loop arrival generator in simulated
//!   time;
//! - [`server`] — the serving loop: queue → batcher → wave →
//!   extraction, instrumented through the workspace's `MetricsRegistry`
//!   and `Recorder` so `hetgraph report` can analyze a serve trace.
//!
//! The control plane is serial and simulated-time; waves execute on the
//! unmodified superstep kernel, so a whole serving run is byte-identical
//! at any host thread count — the property the `BENCH_serve.json` CI
//! gate pins.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod loadgen;
pub mod multi;
pub mod queue;
pub mod request;
pub mod server;

pub use loadgen::LoadGenConfig;
pub use multi::{block_width, MultiPpr, MultiSssp, PprLanes, SsspLanes, MAX_LANES, UNREACHABLE};
pub use queue::{Batch, ServeQueue};
pub use request::{ClassKey, Completion, QueryKind, Request, ServeError, ShedRecord};
pub use server::{ServeConfig, ServeReport, Server, WaveRecord};
