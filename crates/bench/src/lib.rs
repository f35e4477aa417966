//! # hetgraph-bench
//!
//! The evaluation harness: one experiment function per table/figure of the
//! paper, shared by the `exp_*` binaries, the integration tests, and the
//! Criterion micro-benchmarks.
//!
//! Every experiment takes an [`ExperimentContext`] carrying the graph
//! *scale* (1 = the paper's full-size graphs; the default 64 keeps runs
//! laptop-sized) and prints the same rows/series the paper reports, plus a
//! machine-readable JSON dump when an output directory is configured.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`tables::table1`] | Table I (machines) |
//! | [`tables::table2`] | Table II (graphs, fitted α) |
//! | [`tables::fig6`] | Fig 6 (power-law degree distribution) |
//! | [`accuracy::fig2`] | Fig 2 (estimated vs real speedup) |
//! | [`accuracy::fig8`] | Fig 8a/8b (CCR accuracy) |
//! | [`cases::fig9`] | Fig 9 (Case 1 runtimes) |
//! | [`cases::fig10`] | Fig 10 (Cases 2–3, runtime + energy) |
//! | [`cost_fig::fig11`] | Fig 11 (cost/perf Pareto) |
//! | [`headline::headline`] | the abstract's aggregate claims |
//! | [`ablation`] | beyond-paper sensitivity studies |
//! | [`partition_bench::partition`] | partition perf baseline (`BENCH_partition.json`) |
//! | [`rebalance_bench::rebalance`] | static-vs-migration baseline (`BENCH_rebalance.json`) |
//! | [`scale_bench::scale`] | bounded-RSS scale run (`BENCH_scale.json`) |
//! | [`serve_bench::serve`] | query-serving baseline (`BENCH_serve.json`) |
//!
//! The four `BENCH_*.json` baselines share one `--check` gate, [`gate`].
//! (The engine's throughput is guarded by `BENCHMARK.json`'s `engine.*`
//! metrics instead.)

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod accuracy;
pub mod cases;
pub mod context;
pub mod cost_fig;
pub mod gate;
pub mod headline;
pub mod output;
pub mod partition_bench;
pub mod policy;
pub mod rebalance_bench;
pub mod scale_bench;
pub mod serve_bench;
pub mod tables;

pub use context::ExperimentContext;
pub use policy::Policy;
