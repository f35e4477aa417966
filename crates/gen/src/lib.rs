//! # hetgraph-gen
//!
//! Synthetic graph generation for proxy-guided profiling.
//!
//! This crate implements Section III of the paper:
//!
//! - [`alpha`] — the numerical method (Eq. 4–7) that fits the power-law
//!   exponent α of a graph from only its vertex and edge counts, via a
//!   Newton iteration with a bisection fallback.
//! - [`powerlaw`] — Algorithm 1: the synthetic power-law proxy-graph
//!   generator. Given `N` and `α`, draws each vertex's out-degree from the
//!   discrete power-law distribution and connects edges by random hashing.
//! - [`rmat`] — an R-MAT (recursive matrix) generator. Used to build
//!   *stand-ins for the natural SNAP graphs* of Table II: R-MAT graphs
//!   follow a power law only approximately, with the tail irregularities
//!   and locality structure that make natural graphs differ from clean
//!   synthetic proxies. That difference is the mechanism behind the paper's
//!   ~8 % CCR estimation error, so it must exist in the reproduction.
//! - [`uniform`] — Erdős–Rényi G(n, m), the degenerate no-skew baseline.
//! - [`structured`] — the deterministic 2-D grid graph.
//! - [`catalog`] — Table II: the four natural-graph stand-ins with the
//!   paper's exact |V|/|E| (scalable for laptop-class runs).
//! - [`proxy`] — the three deployed synthetic proxy graphs
//!   (α = 1.95 / 2.1 / 2.3) and the [`proxy::ProxySet`] used for profiling.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

//!
//! Two further families serve the ablations: [`preferential`]
//! (Barabási–Albert — heavy tails *by growth*) and [`smallworld`]
//! (Watts–Strogatz — the hub-free adversarial case).
//!
//! [`stream`] exposes the power-law, R-MAT, and G(n, m) families as
//! [`StreamingGenerator`]s that emit edges through a callback and write
//! fixed-size shard directories with bounded buffering — the ingestion
//! path for graphs too large to materialize.

pub mod alpha;
pub mod catalog;
pub mod powerlaw;
pub mod preferential;
pub mod proxy;
pub mod rmat;
pub mod smallworld;
pub mod stream;
pub mod structured;
pub mod uniform;

pub use alpha::{fit_alpha, AlphaFit};
pub use catalog::{GraphSpec, NaturalGraph};
pub use powerlaw::PowerLawConfig;
pub use preferential::BarabasiAlbertConfig;
pub use proxy::{ProxyGraph, ProxySet};
pub use rmat::RmatConfig;
pub use smallworld::SmallWorldConfig;
pub use stream::StreamingGenerator;
pub use uniform::GnmConfig;
