//! The abstract's aggregate claims, recomputed end-to-end.
//!
//! Paper: "a maximum speedup of 1.84x and 1.45x over a default system and
//! prior work, respectively. On average, it achieves 17.9% performance
//! improvement and 14.6% energy reduction as compared to prior
//! heterogeneity-aware work."

use hetgraph_cluster::Cluster;
use hetgraph_core::stats;
use hetgraph_partition::PartitionerKind;
use hetgraph_profile::Policy;

use crate::cases::{energy_savings_over, profile_pool, run_matrix, speedups_over, CaseRow};
use crate::context::ExperimentContext;
use crate::output::{f3, pct, write_json};

/// Aggregate numbers mirrored against the paper's abstract.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Headline {
    /// Max speedup of CCR guidance over the default system (paper: 1.84x).
    pub max_speedup_vs_default: f64,
    /// Max speedup over prior work (paper: 1.45x).
    pub max_speedup_vs_prior: f64,
    /// Mean performance improvement over prior work (paper: 17.9 %).
    pub avg_improvement_vs_prior_pct: f64,
    /// Mean energy reduction vs prior work (paper: 14.6 %).
    pub avg_energy_reduction_vs_prior_pct: f64,
}

/// Recompute the headline over cases 2 and 3 (the heterogeneous local
/// clusters where prior work actually differs from the default; Case 1's
/// prior == default and would only dilute the comparison).
pub fn headline(ctx: &ExperimentContext) -> Headline {
    println!(
        "== Headline aggregates (cases 2 + 3), scale 1/{} ==\n",
        ctx.scale
    );
    let mut all_rows: Vec<CaseRow> = Vec::new();
    // The graph set is cluster-independent: the process-wide memo shares
    // one generation across both cases (and with the figure sweeps).
    let graphs = ctx.natural_graphs_shared();
    for cluster in [Cluster::case2(), Cluster::case3()] {
        let pool = profile_pool(&cluster, ctx);
        let mut rows = run_matrix(
            &cluster,
            &pool,
            &graphs,
            &PartitionerKind::ALL,
            &Policy::ALL,
            ctx.apps(),
            ctx.threads,
        );
        // Tag by cluster to keep (app, graph, partitioner) keys unique
        // across cases when aggregating.
        for r in &mut rows {
            r.graph = format!("{}::{}", cluster.machines()[0].name, r.graph);
        }
        all_rows.extend(rows);
    }

    let vs_default = speedups_over(&all_rows, Policy::Default, Policy::CcrGuided);
    let vs_prior = speedups_over(&all_rows, Policy::PriorWork, Policy::CcrGuided);
    let energy_vs_prior = energy_savings_over(&all_rows, Policy::PriorWork, Policy::CcrGuided);

    let result = Headline {
        max_speedup_vs_default: stats::fmax(vs_default.iter().copied()).unwrap_or(1.0),
        max_speedup_vs_prior: stats::fmax(vs_prior.iter().copied()).unwrap_or(1.0),
        avg_improvement_vs_prior_pct: 100.0 * (stats::geomean(&vs_prior) - 1.0),
        avg_energy_reduction_vs_prior_pct: 100.0 * stats::mean(&energy_vs_prior),
    };
    println!(
        "max speedup vs default: {}x (paper 1.84x)\n\
         max speedup vs prior:   {}x (paper 1.45x)\n\
         avg improvement vs prior: {} (paper 17.9%)\n\
         avg energy reduction vs prior: {} (paper 14.6%)",
        f3(result.max_speedup_vs_default),
        f3(result.max_speedup_vs_prior),
        pct(result.avg_improvement_vs_prior_pct),
        pct(result.avg_energy_reduction_vs_prior_pct),
    );
    write_json(ctx.out_dir.as_deref(), "headline", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_directions_match_paper() {
        let h = headline(&ExperimentContext::at_scale(2048));
        assert!(
            h.max_speedup_vs_default > 1.2,
            "vs default {}",
            h.max_speedup_vs_default
        );
        assert!(
            h.max_speedup_vs_prior > 1.0,
            "vs prior {}",
            h.max_speedup_vs_prior
        );
        assert!(h.avg_improvement_vs_prior_pct > 0.0);
        assert!(h.avg_energy_reduction_vs_prior_pct > 0.0);
    }
}
