//! # hetgraph-profile
//!
//! The paper's core contribution: proxy-graph profiling of heterogeneous
//! clusters (Section III-B).
//!
//! - [`runner`] — communication-free single-machine profiling runs (the
//!   paper profiles "machines individually … without communication
//!   interference").
//! - [`ccr`] — the Computation Capability Ratio (Eq. 1), per-application
//!   CCR sets and the offline [`CcrPool`].
//! - [`prior`] — the prior-work baseline estimator (LeBeane et al.):
//!   capability = computing-thread count.
//! - [`accuracy`] — Fig 8: per-machine speedups estimated from proxies vs
//!   measured on real graphs vs predicted by thread counts, with the
//!   paper's accuracy metric.
//! - [`policy`] — [`Policy`], the one choice of weights every experiment
//!   and the framework compare: uniform, thread counts, or profiled CCRs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

//!
//! Beyond the paper's figures, two maintenance/comparison extensions:
//!
//! - [`feedback`] — a Mizan-style dynamic rebalancer that migrates load
//!   between epochs from observed imbalance, used to quantify how many
//!   migration epochs each static starting point needs.
//! - [`online`] — periodic CCR pool maintenance with drift detection
//!   (the paper's "updating the CCR pool online at regular intervals").

pub mod accuracy;
pub mod ccr;
pub mod feedback;
pub mod online;
pub mod policy;
pub mod prior;
pub mod runner;

pub use accuracy::{AccuracyReport, AccuracyRow};
pub use ccr::{CcrPool, CcrSet};
pub use feedback::{Epoch, FeedbackBalancer};
pub use online::{CcrMaintainer, RefreshOutcome};
pub use policy::Policy;
pub use prior::PriorWorkEstimator;
pub use runner::single_machine_time;
