//! Sensitivity studies beyond the paper's figures.
//!
//! The paper makes several design choices without quantifying them; these
//! ablations fill the gaps DESIGN.md calls out:
//!
//! * [`proxy_size`] — how small can the proxy graphs get before CCR
//!   quality degrades? (The paper only says generation took 67 s total.)
//! * [`proxy_coverage`] — one proxy vs the three-α set: does covering the
//!   α range matter, or would any single power-law graph do?
//! * [`partitioner_quality`] — replication factor of all five partitioners
//!   across the Table II stand-ins (the classic PowerGraph/PowerLyra
//!   comparison the paper builds on).
//! * [`hybrid_threshold`] — Hybrid's high-degree threshold sweep.

use hetgraph_apps::{standard_apps, AnyApp};
use hetgraph_cluster::{catalog, Cluster};
use hetgraph_core::stats;
use hetgraph_gen::{ProxyGraph, ProxySet};
use hetgraph_partition::{
    Hybrid, MachineWeights, PartitionMetrics, Partitioner, PartitionerKind, RandomHash,
};
use hetgraph_profile::{AccuracyReport, CcrPool, FeedbackBalancer};

use crate::context::ExperimentContext;
use crate::output::{f3, pct, print_table, write_json};

/// CCR estimation error as a function of proxy graph size.
pub fn proxy_size(ctx: &ExperimentContext) -> Vec<(u32, f64)> {
    println!("== Ablation: proxy graph size vs CCR error ==\n");
    let shared = ctx.natural_graphs_shared();
    let real: Vec<_> = shared.iter().map(|(_, g)| g.clone()).collect();
    let machines = [
        catalog::c4_2xlarge(),
        catalog::c4_4xlarge(),
        catalog::c4_8xlarge(),
    ];
    let mut rows = Vec::new();
    // Proxy scales from tiny (1/8192 of full size = 390 vertices) to the
    // context's own scale.
    for scale in [8192u32, 2048, 512, ctx.scale.max(64)] {
        let report = AccuracyReport::evaluate(
            &catalog::c4_xlarge(),
            &machines,
            &standard_apps(),
            &ProxySet::standard(scale),
            &real,
        );
        rows.push((scale, report.proxy_error_pct()));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(s, e)| vec![format!("1/{s}"), format!("{}", 3_200_000u32 / s), pct(e)])
        .collect();
    print_table(&["proxy_scale", "proxy_vertices", "ccr_error"], &table);
    write_json(ctx.out_dir.as_deref(), "ablation_proxy_size", &rows);
    rows
}

/// One proxy vs the covering three-α set.
pub fn proxy_coverage(ctx: &ExperimentContext) -> Vec<(String, f64)> {
    println!("== Ablation: proxy α coverage vs CCR error ==\n");
    let shared = ctx.natural_graphs_shared();
    let real: Vec<_> = shared.iter().map(|(_, g)| g.clone()).collect();
    let machines = [
        catalog::c4_2xlarge(),
        catalog::c4_4xlarge(),
        catalog::c4_8xlarge(),
    ];
    let n = (3_200_000 / ctx.scale).max(2);
    let candidates: Vec<(String, ProxySet)> = vec![
        (
            "single_dense_1.95".into(),
            ProxySet::from_proxies(vec![ProxyGraph::new("one", n, 1.95, 1)]),
        ),
        (
            "single_mid_2.1".into(),
            ProxySet::from_proxies(vec![ProxyGraph::new("two", n, 2.10, 2)]),
        ),
        (
            "single_sparse_2.3".into(),
            ProxySet::from_proxies(vec![ProxyGraph::new("three", n, 2.30, 3)]),
        ),
        ("standard_set".into(), ProxySet::standard(ctx.scale)),
    ];
    let mut rows = Vec::new();
    for (name, set) in candidates {
        let report = AccuracyReport::evaluate(
            &catalog::c4_xlarge(),
            &machines,
            &standard_apps(),
            &set,
            &real,
        );
        rows.push((name, report.proxy_error_pct()));
    }
    let table: Vec<Vec<String>> = rows.iter().map(|(n, e)| vec![n.clone(), pct(*e)]).collect();
    print_table(&["proxy_set", "ccr_error"], &table);
    write_json(ctx.out_dir.as_deref(), "ablation_proxy_coverage", &rows);
    rows
}

/// Replication factor of every partitioner on every stand-in (uniform
/// weights, 4 machines — the classic ingress-quality comparison).
pub fn partitioner_quality(ctx: &ExperimentContext) -> Vec<(String, String, f64, f64)> {
    println!("== Ablation: partitioner replication factor & balance (4 machines) ==\n");
    let weights = MachineWeights::uniform(4);
    let mut rows = Vec::new();
    for (gname, graph) in ctx.natural_graphs_shared().iter() {
        for kind in PartitionerKind::ALL {
            let a = kind.build().partition(graph, &weights);
            let m = PartitionMetrics::compute(&a, &weights);
            rows.push((
                gname.clone(),
                kind.name().to_string(),
                m.replication_factor,
                m.max_normalized_load,
            ));
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(g, p, rf, bal)| vec![g.clone(), p.clone(), f3(*rf), f3(*bal)])
        .collect();
    print_table(
        &[
            "graph",
            "partitioner",
            "replication_factor",
            "max_norm_load",
        ],
        &table,
    );
    write_json(
        ctx.out_dir.as_deref(),
        "ablation_partitioner_quality",
        &rows,
    );
    rows
}

/// Hybrid's high-degree threshold sweep on the wiki stand-in (hubbiest).
pub fn hybrid_threshold(ctx: &ExperimentContext) -> Vec<(usize, f64)> {
    println!("== Ablation: Hybrid high-degree threshold ==\n");
    let graph = hetgraph_gen::NaturalGraph::Wiki.generate(ctx.scale);
    let weights = MachineWeights::uniform(4);
    let mut rows = Vec::new();
    for threshold in [0usize, 10, 30, 100, 300, 1000, usize::MAX] {
        let a = Hybrid::with_threshold(threshold).partition(&graph, &weights);
        rows.push((threshold, a.replication_factor()));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(t, rf)| {
            vec![
                if t == usize::MAX {
                    "inf".into()
                } else {
                    t.to_string()
                },
                f3(rf),
            ]
        })
        .collect();
    print_table(&["threshold", "replication_factor"], &table);
    write_json(ctx.out_dir.as_deref(), "ablation_hybrid_threshold", &rows);
    rows
}

/// How stale can a CCR pool get? Re-profile with a *different* proxy seed
/// set and compare pool-to-pool drift (the paper claims re-profiling is
/// only needed when machine types change; CCRs should be seed-stable).
pub fn ccr_stability(ctx: &ExperimentContext) -> f64 {
    println!("== Ablation: CCR stability across proxy regenerations ==\n");
    let cluster = Cluster::case2();
    let apps = standard_apps();
    let pool_a = CcrPool::profile(&cluster, &ProxySet::standard(ctx.scale), &apps);
    let alt: Vec<ProxyGraph> = ProxySet::standard(ctx.scale)
        .proxies()
        .iter()
        .map(|p| {
            ProxyGraph::new(
                p.name.clone(),
                p.num_vertices,
                p.alpha,
                p.seed ^ 0xdead_beef,
            )
        })
        .collect();
    let pool_b = CcrPool::profile(&cluster, &ProxySet::from_proxies(alt), &apps);
    let mut drifts = Vec::new();
    for app in apps {
        let a = pool_a.ccr(app.name()).expect("profiled").spread();
        let b = pool_b.ccr(app.name()).expect("profiled").spread();
        let drift = stats::relative_error(b, a);
        println!(
            "{}: spread {} vs {} (drift {})",
            app.name(),
            f3(a),
            f3(b),
            pct(100.0 * drift)
        );
        drifts.push(drift);
    }
    let mean_drift = stats::mean(&drifts);
    println!(
        "\nmean CCR drift across regenerations: {}",
        pct(100.0 * mean_drift)
    );
    write_json(
        ctx.out_dir.as_deref(),
        "ablation_ccr_stability",
        &mean_drift,
    );
    mean_drift
}

/// Static vs dynamic: how many Mizan-style migration epochs does each
/// starting point need to reach compute balance (imbalance ≤ 1.25)?
pub fn feedback_convergence(ctx: &ExperimentContext) -> Vec<(String, String, Option<usize>, f64)> {
    println!("== Ablation: migration epochs to balance, by initial weights ==\n");
    let cluster = Cluster::case2();
    let pool = CcrPool::profile(&cluster, &ctx.proxies(), &standard_apps());
    let graph = hetgraph_gen::NaturalGraph::Citation.generate(ctx.scale);
    let balancer = FeedbackBalancer::default();
    let mut rows = Vec::new();
    for app in [AnyApp::pagerank(), AnyApp::connected_components()] {
        let starts: Vec<(String, MachineWeights)> = vec![
            ("default".into(), MachineWeights::uniform(cluster.len())),
            (
                "prior_work".into(),
                MachineWeights::from_thread_counts(&cluster),
            ),
            (
                "ccr_guided".into(),
                MachineWeights::from_ccr(pool.ccr(app.name()).expect("profiled").ratios()),
            ),
        ];
        for (name, w) in starts {
            let history = balancer.run(&cluster, &graph, &app, &RandomHash::new(), w);
            let epochs = FeedbackBalancer::epochs_to_balance(&history, 1.25);
            let final_mk = history.last().expect("non-empty").makespan_s;
            rows.push((app.name().to_string(), name, epochs, final_mk));
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(app, start, epochs, mk)| {
            vec![
                app.clone(),
                start.clone(),
                epochs.map_or("never".into(), |e| e.to_string()),
                f3(*mk),
            ]
        })
        .collect();
    print_table(
        &[
            "app",
            "initial_weights",
            "epochs_to_balance",
            "final_makespan_s",
        ],
        &table,
    );
    println!(
        "\nReading: a good static estimate (CCR) removes the need for dynamic\n\
         migration epochs — the paper's argument against Mizan-style systems."
    );
    write_json(ctx.out_dir.as_deref(), "ablation_feedback", &rows);
    rows
}

/// Frequency sweep: how does the CCR-vs-prior gap grow as the tiny node's
/// clock drops (projecting ever-wimpier future nodes, paper Section V-B-3)?
pub fn frequency_sweep(ctx: &ExperimentContext) -> Vec<(f64, f64, f64)> {
    println!("== Ablation: tiny-node frequency sweep (Case 3 projection) ==\n");
    let graph = hetgraph_gen::NaturalGraph::Citation.generate(ctx.scale);
    let mut rows = Vec::new();
    for freq in [2.5f64, 2.1, 1.8, 1.5, 1.2] {
        let tiny = catalog::tiny_arm().at_frequency(freq, format!("tiny_{freq}"));
        let cluster = Cluster::new(vec![tiny, catalog::xeon_l()]);
        let pool = CcrPool::profile(&cluster, &ctx.proxies(), &[AnyApp::pagerank()]);
        let engine = hetgraph_engine::SimEngine::new(&cluster);
        let pagerank = AnyApp::pagerank();
        let mk = |w: &MachineWeights| {
            let a = RandomHash::new().partition(&graph, w);
            let dist = hetgraph_engine::DistributedGraph::new(&graph, &a)
                .expect("assignment must cover the graph");
            pagerank.run(&engine, &dist, 1).makespan_s
        };
        let t_default = mk(&MachineWeights::uniform(2));
        let t_prior = mk(&MachineWeights::from_thread_counts(&cluster));
        let t_ccr = mk(&MachineWeights::from_ccr(
            pool.ccr("pagerank").expect("profiled").ratios(),
        ));
        rows.push((freq, t_default / t_prior, t_default / t_ccr));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(f, sp, sc)| vec![format!("{f:.1} GHz"), f3(sp), f3(sc)])
        .collect();
    print_table(&["tiny_freq", "prior_speedup", "ccr_speedup"], &table);
    println!(
        "\nReading: the wimpier the node, the further real capability drifts\n\
         from thread counts, and the larger CCR guidance's edge over prior work."
    );
    write_json(ctx.out_dir.as_deref(), "ablation_frequency_sweep", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_quality_orders_sensibly() {
        let rows = partitioner_quality(&ExperimentContext::at_scale(2048));
        // Random hash must have the worst (highest) replication factor on
        // at least one graph relative to oblivious.
        let rf = |graph: &str, part: &str| {
            rows.iter()
                .find(|(g, p, _, _)| g == graph && p == part)
                .map(|&(_, _, rf, _)| rf)
                .expect("row")
        };
        assert!(rf("social_network", "oblivious") < rf("social_network", "random"));
    }

    #[test]
    fn hybrid_threshold_extremes() {
        let rows = hybrid_threshold(&ExperimentContext::at_scale(2048));
        assert_eq!(rows.len(), 7);
        // All thresholds produce valid replication factors >= 1.
        assert!(rows.iter().all(|&(_, rf)| rf >= 1.0));
    }

    #[test]
    fn ccr_is_stable_across_seeds() {
        let drift = ccr_stability(&ExperimentContext::at_scale(4096));
        assert!(drift < 0.15, "CCR drift {drift} too high");
    }

    #[test]
    fn frequency_sweep_gap_grows_as_node_wimpifies() {
        let rows = frequency_sweep(&ExperimentContext::at_scale(2048));
        assert_eq!(rows.len(), 5);
        // At every frequency the CCR speedup should at least match prior.
        for &(f, prior, ccr) in &rows {
            assert!(
                ccr >= prior * 0.97,
                "at {f} GHz: ccr {ccr} vs prior {prior}"
            );
        }
        // And the gap at the wimpiest setting should exceed the gap at the
        // fastest setting.
        let gap_fast = rows.first().unwrap().2 - rows.first().unwrap().1;
        let gap_wimpy = rows.last().unwrap().2 - rows.last().unwrap().1;
        assert!(
            gap_wimpy >= gap_fast,
            "gap should grow: fast {gap_fast} vs wimpy {gap_wimpy}"
        );
    }

    #[test]
    fn feedback_ablation_runs() {
        let rows = feedback_convergence(&ExperimentContext::at_scale(2048));
        assert_eq!(rows.len(), 6);
        // CCR-guided starts balanced (epoch 0) for at least one app.
        assert!(rows
            .iter()
            .any(|(_, start, epochs, _)| start == "ccr_guided" && *epochs == Some(0)));
    }
}
