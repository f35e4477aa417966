//! # hetgraph
//!
//! Proxy-guided load balancing of graph processing workloads on
//! heterogeneous clusters — a Rust reproduction of Song et al., ICPP 2016.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`core`] — graph substrate (CSR graphs, deterministic RNG, IO).
//! - [`gen`] — synthetic graph generation: power-law proxies (Algorithm 1),
//!   the α Newton solver (Eq. 7), R-MAT natural-graph stand-ins (Table II).
//! - [`cluster`] — heterogeneous machine models (Table I), the roofline +
//!   Amdahl timing model, energy and network models.
//! - [`partition`] — the five partitioners (Random Hash, Oblivious, Grid,
//!   Hybrid, Ginger), each homogeneous or CCR-weighted.
//! - [`engine`] — a PowerGraph-like Gather-Apply-Scatter engine over a
//!   simulated heterogeneous cluster.
//! - [`apps`] — PageRank, Coloring, Connected Components, Triangle Count
//!   (and extensions) as vertex programs.
//! - [`profile`] — proxy profiling, the CCR pool, prior-work estimators and
//!   accuracy evaluation.
//! - [`cost`] — cost-per-task and Pareto analysis of cloud machines.
//! - [`serve`] — the graph-query serving layer: batched multi-source
//!   superstep waves, bounded-queue admission control, and weighted fair
//!   scheduling over one shared partitioned graph.
//!
//! ## Quickstart
//!
//! ```
//! use hetgraph::prelude::*;
//!
//! // A small heterogeneous cluster: one wimpy + one beefy machine.
//! let cluster = Cluster::case2();
//!
//! // Profile it once with synthetic power-law proxies...
//! let pool = CcrPool::profile(&cluster, &ProxySet::standard(3200), &standard_apps(), 1, &OFF);
//!
//! // ...then partition a graph by the profiled CCR, build the
//! // partition-aware view, and run PageRank on it (1 host thread).
//! let graph = PowerLawConfig::new(2_000, 2.1).generate(7);
//! let ccr = pool.ccr("pagerank").unwrap();
//! let weights = MachineWeights::from_ccr(ccr.ratios());
//! let assignment = Hybrid::new().partition(&graph, &weights, 1, &OFF);
//! let dist = DistributedGraph::new(&graph, &assignment, 1).unwrap();
//! let outcome = SimEngine::new(&cluster).run(&dist, &PageRank::new(10), 1);
//! assert!(outcome.report.makespan_s > 0.0);
//! ```

pub mod framework;

pub use framework::{Framework, JobResult};

/// Compiles and runs the README's `rust` blocks under `cargo test`, so
/// the quickstart cannot drift from the API it advertises.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use hetgraph_apps as apps;
pub use hetgraph_cluster as cluster;
pub use hetgraph_core as core;
pub use hetgraph_cost as cost;
pub use hetgraph_engine as engine;
pub use hetgraph_gen as gen;
pub use hetgraph_partition as partition;
pub use hetgraph_profile as profile;
pub use hetgraph_serve as serve;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use hetgraph_apps::{
        full_apps, standard_apps, AnyApp, AppRegistry, AppSpec, Coloring, ConnectedComponents,
        KCore, PageRank, Sssp, TriangleCount,
    };
    pub use hetgraph_cluster::{
        catalog, AppProfile, Cluster, EnergyModel, MachineSpec, NetworkModel,
    };
    pub use hetgraph_core::obs::{
        chrome_trace, chrome_trace_sim, to_jsonl, Telemetry, TraceEvent, OFF,
    };
    pub use hetgraph_core::{Edge, EdgeList, Graph, MachineId, VertexId};
    pub use hetgraph_engine::{
        DistributedGraph, GasProgram, RunTarget, SimEngine, SimOutcome, SimReport,
    };
    pub use hetgraph_gen::{
        fit_alpha, BarabasiAlbertConfig, NaturalGraph, PowerLawConfig, ProxySet, RmatConfig,
        SmallWorldConfig,
    };
    pub use hetgraph_partition::{
        Ginger, Grid, Hybrid, MachineWeights, Oblivious, PartitionMetrics, Partitioner,
        PartitionerKind, RandomHash,
    };
    pub use hetgraph_profile::{
        CcrMaintainer, CcrPool, CcrSet, FeedbackBalancer, Policy, PriorWorkEstimator,
    };
}
