//! The end-to-end case studies: Fig 9 (Case 1) and Fig 10 (Cases 2–3).

use hetgraph_apps::AnyApp;
use hetgraph_cluster::Cluster;
use hetgraph_core::obs::{chrome_trace, Telemetry};
use hetgraph_core::Graph;
use hetgraph_core::{obs::OFF, stats};
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_partition::{MachineWeights, PartitionAssignment, PartitionMetrics, PartitionerKind};
use hetgraph_profile::{CcrPool, Policy};

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::context::ExperimentContext;
use crate::output::{f3, pct, print_table, write_json};

/// One (app, graph, partitioner, policy) measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CaseRow {
    /// Application name.
    pub app: String,
    /// Graph name.
    pub graph: String,
    /// Partitioner name.
    pub partitioner: String,
    /// Policy name.
    pub policy: String,
    /// Simulated end-to-end runtime.
    pub makespan_s: f64,
    /// Simulated total energy.
    pub energy_j: f64,
    /// Partition replication factor.
    pub replication_factor: f64,
}

/// Profile the cluster once (offline, as in Fig 7a) for this context's
/// selected workloads.
pub fn profile_pool(cluster: &Cluster, ctx: &ExperimentContext) -> CcrPool {
    CcrPool::profile(cluster, &ctx.proxies(), ctx.apps(), ctx.threads, &OFF)
}

/// Execution accounting for one [`run_matrix`] call: how much work the
/// partition memo saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Total (graph, partitioner, app, policy) cells simulated.
    pub cells: usize,
    /// Distinct (graph, partitioner, weight-vector) partitions actually
    /// computed — everything else was a memo hit.
    pub partitions_computed: usize,
}

/// Run the full measurement matrix over `host_threads` workers.
///
/// Rows come back in the serial nested-loop order (graph, partitioner,
/// app, policy) regardless of the thread count, and every cell is a pure
/// function of its inputs, so the output is byte-identical to a serial
/// sweep. See DESIGN.md "Threading model" for the determinism contract
/// and how the budget is split between sweep cells and engine supersteps.
///
/// # Panics
/// Panics if `host_threads == 0`.
pub fn run_matrix(
    cluster: &Cluster,
    pool: &CcrPool,
    graphs: &[(String, Graph)],
    partitioners: &[PartitionerKind],
    policies: &[Policy],
    apps: &[AnyApp],
    host_threads: usize,
) -> Vec<CaseRow> {
    run_matrix_counted(
        cluster,
        pool,
        graphs,
        partitioners,
        policies,
        apps,
        host_threads,
    )
    .0
}

/// [`run_matrix`] also returning its [`MatrixStats`] (used by the
/// partition-dedupe regression tests).
///
/// # Panics
/// Panics if `host_threads == 0`.
pub fn run_matrix_counted(
    cluster: &Cluster,
    pool: &CcrPool,
    graphs: &[(String, Graph)],
    partitioners: &[PartitionerKind],
    policies: &[Policy],
    apps: &[AnyApp],
    host_threads: usize,
) -> (Vec<CaseRow>, MatrixStats) {
    assert!(host_threads > 0, "need at least one host thread");
    let engine = SimEngine::new(cluster);

    // Phase 1 (serial, cheap): enumerate cells in the canonical nested-
    // loop order and dedupe their partition jobs. Policies differ per app
    // only through the weight vector, so the memo key is the exact bit
    // pattern of (graph, partitioner, weights) — e.g. `default` and
    // `prior_work` weights are app-independent and partition once each.
    let mut jobs: Vec<(usize, PartitionerKind, MachineWeights)> = Vec::new();
    let mut job_index: BTreeMap<(usize, &'static str, Vec<u64>), usize> = BTreeMap::new();
    let mut cells: Vec<(usize, PartitionerKind, AnyApp, Policy, usize)> = Vec::new();
    for gi in 0..graphs.len() {
        for &kind in partitioners {
            for app in apps {
                for &policy in policies {
                    let weights = policy.weights(cluster, pool, app.name());
                    let bits: Vec<u64> = weights.as_slice().iter().map(|w| w.to_bits()).collect();
                    let job = *job_index.entry((gi, kind.name(), bits)).or_insert_with(|| {
                        jobs.push((gi, kind, weights));
                        jobs.len() - 1
                    });
                    cells.push((gi, kind, app.clone(), policy, job));
                }
            }
        }
    }

    // The budget goes to sweep-level fan-out first (cells are coarse and
    // embarrassingly parallel); whatever is left over multiplies into
    // each cell's engine. At realistic matrix sizes cells >= threads, so
    // engine_threads == 1 and each cell runs the serial reference engine.
    let sweep_threads = host_threads.min(cells.len()).max(1);
    let engine_threads = (host_threads / sweep_threads).max(1);

    // Phase 2 (parallel): each distinct partition job once.
    let parts: Vec<(PartitionAssignment, PartitionMetrics)> =
        hetgraph_core::par::scheduled(jobs.len(), sweep_threads, |j| {
            let (gi, kind, weights) = &jobs[j];
            let assignment = kind
                .build()
                .partition(&graphs[*gi].1, weights, engine_threads, &OFF);
            let metrics = PartitionMetrics::compute(&assignment, weights, engine_threads);
            (assignment, metrics)
        });

    // Phase 3 (parallel): one shared O(edges) distributed view per job,
    // instead of one per cell.
    let dists: Vec<DistributedGraph<'_>> =
        hetgraph_core::par::scheduled(jobs.len(), sweep_threads, |j| {
            DistributedGraph::new(&graphs[jobs[j].0].1, &parts[j].0, engine_threads)
                .expect("assignment must cover the graph")
        });

    // Phase 4 (parallel): simulate every cell; `scheduled` returns the
    // reports in cell order, so assembly below is order-stable.
    let reports = hetgraph_core::par::scheduled(cells.len(), sweep_threads, |k| {
        let (_, _, ref app, _, job) = cells[k];
        app.run(&engine, &dists[job], engine_threads)
    });

    let rows = cells
        .iter()
        .zip(reports)
        .map(|((gi, kind, app, policy, job), report)| CaseRow {
            app: app.name().to_string(),
            graph: graphs[*gi].0.clone(),
            partitioner: kind.name().to_string(),
            policy: policy.name().to_string(),
            makespan_s: report.makespan_s,
            energy_j: report.total_energy_j(),
            replication_factor: parts[*job].1.replication_factor,
        })
        .collect();
    let stats = MatrixStats {
        cells: cells.len(),
        partitions_computed: jobs.len(),
    };
    (rows, stats)
}

/// Find the row matching a (app, graph, partitioner, policy) tuple.
pub fn find<'a>(
    rows: &'a [CaseRow],
    app: &str,
    graph: &str,
    partitioner: &str,
    policy: Policy,
) -> &'a CaseRow {
    rows.iter()
        .find(|r| {
            r.app == app
                && r.graph == graph
                && r.partitioner == partitioner
                && r.policy == policy.name()
        })
        .unwrap_or_else(|| panic!("missing row {app}/{graph}/{partitioner}/{policy}"))
}

/// Speedups of `policy` over `baseline` for every (app, graph,
/// partitioner) cell present in `rows`.
pub fn speedups_over(rows: &[CaseRow], baseline: Policy, policy: Policy) -> Vec<f64> {
    let mut out = Vec::new();
    for r in rows.iter().filter(|r| r.policy == policy.name()) {
        let base = find(rows, &r.app, &r.graph, &r.partitioner, baseline);
        out.push(base.makespan_s / r.makespan_s);
    }
    out
}

/// Energy savings (fraction) of `policy` over `baseline`, cell-wise.
pub fn energy_savings_over(rows: &[CaseRow], baseline: Policy, policy: Policy) -> Vec<f64> {
    let mut out = Vec::new();
    for r in rows.iter().filter(|r| r.policy == policy.name()) {
        let base = find(rows, &r.app, &r.graph, &r.partitioner, baseline);
        out.push(1.0 - r.energy_j / base.energy_j);
    }
    out
}

/// Fig 9: Case 1 — m4.2xlarge + c4.2xlarge, four graphs, five
/// partitioners, default vs CCR-guided. Prior work sees this cluster as
/// homogeneous (equal thread counts), so its result equals the default.
pub fn fig9(ctx: &ExperimentContext) -> Vec<CaseRow> {
    let cluster = Cluster::case1();
    println!(
        "== Fig 9: Case 1 (m4.2xlarge + c4.2xlarge), scale 1/{} ==",
        ctx.scale
    );
    println!("(prior work sees equal thread counts here -> identical to default)\n");
    let pool = profile_pool(&cluster, ctx);
    let graphs = ctx.natural_graphs_shared();
    let rows = run_matrix(
        &cluster,
        &pool,
        &graphs,
        &PartitionerKind::ALL,
        &[Policy::Default, Policy::CcrGuided],
        ctx.apps(),
        ctx.threads,
    );

    for app in ctx.apps() {
        println!("-- {} --", app.name());
        let mut table = Vec::new();
        for (gname, _) in graphs.iter() {
            for kind in PartitionerKind::ALL {
                let d = find(&rows, app.name(), gname, kind.name(), Policy::Default);
                let c = find(&rows, app.name(), gname, kind.name(), Policy::CcrGuided);
                table.push(vec![
                    gname.clone(),
                    kind.name().to_string(),
                    f3(d.makespan_s),
                    f3(c.makespan_s),
                    f3(d.makespan_s / c.makespan_s),
                ]);
            }
        }
        print_table(
            &["graph", "partitioner", "default_s", "ccr_s", "speedup"],
            &table,
        );
        let app_rows: Vec<CaseRow> = rows
            .iter()
            .filter(|r| r.app == app.name())
            .cloned()
            .collect();
        let speedups = speedups_over(&app_rows, Policy::Default, Policy::CcrGuided);
        println!(
            "{}: avg speedup {} | max speedup {}\n",
            app.name(),
            f3(stats::geomean(&speedups)),
            f3(stats::fmax(speedups.iter().copied()).unwrap_or(1.0)),
        );
    }
    let all = speedups_over(&rows, Policy::Default, Policy::CcrGuided);
    println!(
        "Case 1 overall: avg speedup {} (paper: 1.16x), max {} (paper: 1.45x)",
        f3(stats::geomean(&all)),
        f3(stats::fmax(all.iter().copied()).unwrap_or(1.0)),
    );
    write_json(ctx.out_dir.as_deref(), "fig9", &rows);
    rows
}

/// Fig 10: Cases 2 and 3 — runtime and energy vs default, for prior work
/// and CCR guidance. `case` selects 2 (thread-count heterogeneity) or 3
/// (thread + frequency heterogeneity).
pub fn fig10(ctx: &ExperimentContext, case: u32) -> Vec<CaseRow> {
    let cluster = match case {
        2 => Cluster::case2(),
        3 => Cluster::case3(),
        other => panic!("fig10 case must be 2 or 3, got {other}"),
    };
    println!(
        "== Fig 10{}: Case {case} ({} + {}), scale 1/{} ==\n",
        if case == 2 { "a" } else { "b" },
        cluster.machines()[0].name,
        cluster.machines()[1].name,
        ctx.scale
    );
    let pool = profile_pool(&cluster, ctx);
    for set in pool.iter() {
        println!("profiled CCR[{}] = 1 : {}", set.app(), f3(set.spread()));
    }
    println!();

    let graphs = ctx.natural_graphs_shared();
    // Aggregate across all five partitioners, as Fig 9 does: single-
    // partitioner numbers at reduced scale are dominated by hub-placement
    // variance (a handful of hub bundles decide which machine hosts the
    // heavy edges), which the paper's full-size graphs average away.
    let rows = run_matrix(
        &cluster,
        &pool,
        &graphs,
        &PartitionerKind::ALL,
        &Policy::ALL,
        ctx.apps(),
        ctx.threads,
    );

    let mut table = Vec::new();
    for app in ctx.apps() {
        let app_rows: Vec<CaseRow> = rows
            .iter()
            .filter(|r| r.app == app.name())
            .cloned()
            .collect();
        let prior_speed = stats::geomean(&speedups_over(
            &app_rows,
            Policy::Default,
            Policy::PriorWork,
        ));
        let ccr_speed = stats::geomean(&speedups_over(
            &app_rows,
            Policy::Default,
            Policy::CcrGuided,
        ));
        let prior_energy = stats::mean(&energy_savings_over(
            &app_rows,
            Policy::Default,
            Policy::PriorWork,
        ));
        let ccr_energy = stats::mean(&energy_savings_over(
            &app_rows,
            Policy::Default,
            Policy::CcrGuided,
        ));
        table.push(vec![
            app.name().to_string(),
            f3(prior_speed),
            f3(ccr_speed),
            pct(100.0 * prior_energy),
            pct(100.0 * ccr_energy),
        ]);
    }
    print_table(
        &[
            "app",
            "prior_speedup",
            "ccr_speedup",
            "prior_energy_saved",
            "ccr_energy_saved",
        ],
        &table,
    );

    let prior_all = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::PriorWork));
    let ccr_all = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::CcrGuided));
    let prior_e = stats::mean(&energy_savings_over(
        &rows,
        Policy::Default,
        Policy::PriorWork,
    ));
    let ccr_e = stats::mean(&energy_savings_over(
        &rows,
        Policy::Default,
        Policy::CcrGuided,
    ));
    let paper = if case == 2 {
        "(paper: prior 1.27x / ours 1.45x; energy prior 8.4% / ours 23.6%)"
    } else {
        "(paper: prior 1.37x / ours 1.58x; energy prior 10.4%-ish / ours 26.4%)"
    };
    println!(
        "\nCase {case} overall: prior {}x, ccr {}x | energy prior {}, ccr {} {paper}",
        f3(prior_all),
        f3(ccr_all),
        pct(100.0 * prior_e),
        pct(100.0 * ccr_e),
    );
    write_json(ctx.out_dir.as_deref(), &format!("fig10_case{case}"), &rows);
    rows
}

/// Write Chrome `trace_event` files to `ctx.trace_dir` and aggregated
/// metrics snapshots to `ctx.metrics_dir` for representative cells
/// (no-op when both are unset). For **every** case cluster (1, 2, and
/// 3): one profiling trace covering proxy generation and every CCR
/// measurement cell, plus one trace per selected app covering
/// CCR-weighted Hybrid partitioning and the full superstep timeline
/// (per-machine phase spans, barrier-wait attribution, straggler
/// gauges) on the first natural graph. Trace files load directly in
/// chrome://tracing or ui.perfetto.dev. With a metrics dir, each case
/// additionally gets its sim-domain metrics snapshot — aggregated over
/// the profile cell and every app run — as `{case}.metrics.json` and
/// Prometheus text exposition as `{case}.metrics.prom`.
///
/// Returns the paths written, in emission order (per case: profile
/// trace, app traces, metrics JSON, metrics prom).
pub fn write_traces(ctx: &ExperimentContext) -> Vec<PathBuf> {
    if ctx.trace_dir.is_none() && ctx.metrics_dir.is_none() {
        return Vec::new();
    }
    for dir in [&ctx.trace_dir, &ctx.metrics_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("creating output dir {}: {e}", dir.display()));
    }
    let shared = ctx.natural_graphs_shared();
    let (gname, graph) = &shared[0];
    let kind = PartitionerKind::Hybrid;
    let mut written = Vec::new();
    let mut write = |path: PathBuf, text: &str, what: &str| {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("{what}: -> {}", path.display());
        written.push(path);
    };
    let cases = [
        ("case1", Cluster::case1()),
        ("case2", Cluster::case2()),
        ("case3", Cluster::case3()),
    ];
    for (case, cluster) in cases {
        // One handle per case: each trace file drains the event log,
        // while the metrics aggregate over the whole case.
        let telemetry = Telemetry::new(ctx.trace_dir.is_some(), ctx.metrics_dir.is_some());
        let pool = CcrPool::profile(
            &cluster,
            &ctx.proxies(),
            ctx.apps(),
            ctx.threads,
            &telemetry,
        );
        if let Some(dir) = &ctx.trace_dir {
            write(
                dir.join(format!("{case}_profile.trace.json")),
                &chrome_trace(&telemetry.take_events()),
                "trace",
            );
        }
        for app in ctx.apps() {
            let weights = Policy::CcrGuided.weights(&cluster, &pool, app.name());
            let assignment = kind
                .build()
                .partition(graph, &weights, ctx.threads, &telemetry);
            let dist = DistributedGraph::new(graph, &assignment, ctx.threads)
                .expect("assignment must cover the graph");
            let engine = SimEngine::new(&cluster).with_telemetry(&telemetry);
            app.run(&engine, &dist, ctx.threads);
            if let Some(dir) = &ctx.trace_dir {
                write(
                    dir.join(format!("{case}_{gname}_{}.trace.json", app.name())),
                    &chrome_trace(&telemetry.take_events()),
                    "trace",
                );
            }
        }
        if let Some(dir) = &ctx.metrics_dir {
            let snapshot = telemetry.snapshot_sim();
            write(
                dir.join(format!("{case}.metrics.json")),
                &snapshot.to_json(),
                "metrics",
            );
            write(
                dir.join(format!("{case}.metrics.prom")),
                &snapshot.to_prometheus(),
                "metrics",
            );
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::at_scale(512)
    }

    /// Fine-grained partitioners for the ordering assertions: at test
    /// scale, bundle-granularity partitioners (hybrid) are dominated by
    /// which machine drew the few hub bundles, which is variance, not
    /// policy quality.
    const TEST_PARTITIONERS: [PartitionerKind; 3] = [
        PartitionerKind::RandomHash,
        PartitionerKind::Grid,
        PartitionerKind::Ginger,
    ];

    #[test]
    fn case2_orderings_hold() {
        // The paper's central claim at harness level: CCR >= prior >=
        // default in speedup (geomean across apps/graphs).
        let ctx = tiny_ctx();
        let cluster = Cluster::case2();
        let pool = profile_pool(&cluster, &ctx);
        let graphs = ctx.natural_graphs();
        let rows = run_matrix(
            &cluster,
            &pool,
            &graphs,
            &TEST_PARTITIONERS,
            &Policy::ALL,
            ctx.apps(),
            ctx.threads,
        );
        let prior = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::PriorWork));
        let ccr = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::CcrGuided));
        assert!(prior > 1.0, "prior speedup {prior} must beat default");
        assert!(ccr > prior, "ccr {ccr} must beat prior {prior}");
    }

    #[test]
    fn case3_energy_ordering_holds() {
        // Case 3 is where the energy mechanism is structural: prior's 1:5
        // estimate *underestimates* the >1:6 real heterogeneity, so it
        // overloads the tiny machine and the big Xeon burns idle watts at
        // every barrier. (In Case 2 the two policies bracket the optimum
        // from opposite sides and energy is a statistical tie at reduced
        // scale.)
        let ctx = tiny_ctx();
        let cluster = Cluster::case3();
        let pool = profile_pool(&cluster, &ctx);
        let graphs = ctx.natural_graphs();
        let rows = run_matrix(
            &cluster,
            &pool,
            &graphs,
            &TEST_PARTITIONERS,
            &Policy::ALL,
            ctx.apps(),
            ctx.threads,
        );
        let prior = stats::mean(&energy_savings_over(
            &rows,
            Policy::Default,
            Policy::PriorWork,
        ));
        let ccr = stats::mean(&energy_savings_over(
            &rows,
            Policy::Default,
            Policy::CcrGuided,
        ));
        assert!(
            ccr > prior,
            "ccr energy saving {ccr} must beat prior {prior}"
        );
        assert!(ccr > 0.0);
        let prior_speed = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::PriorWork));
        let ccr_speed = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::CcrGuided));
        assert!(ccr_speed > prior_speed, "case 3 speedup ordering");
    }

    #[test]
    fn speedups_and_find_consistency() {
        let ctx = tiny_ctx();
        let cluster = Cluster::case1();
        let pool = profile_pool(&cluster, &ctx);
        let graphs = vec![ctx.natural_graphs().remove(0)];
        let rows = run_matrix(
            &cluster,
            &pool,
            &graphs,
            &[PartitionerKind::RandomHash],
            &[Policy::Default, Policy::CcrGuided],
            &[AnyApp::pagerank()],
            ctx.threads,
        );
        assert_eq!(rows.len(), 2);
        let s = speedups_over(&rows, Policy::Default, Policy::CcrGuided);
        assert_eq!(s.len(), 1);
        assert!(s[0] > 0.9, "case 1 ccr should not badly regress: {}", s[0]);
    }

    #[test]
    #[should_panic(expected = "missing row")]
    fn find_panics_on_absent_cell() {
        find(&[], "a", "g", "p", Policy::Default);
    }

    #[test]
    fn write_traces_emits_loadable_chrome_files() {
        let mut ctx = ExperimentContext::at_scale(2048);
        ctx.apps = vec![AnyApp::pagerank()];
        assert!(write_traces(&ctx).is_empty(), "no dirs -> no files");

        let dir = std::env::temp_dir().join(format!("hetgraph_traces_{}", std::process::id()));
        let mdir = std::env::temp_dir().join(format!("hetgraph_metrics_{}", std::process::id()));
        ctx.trace_dir = Some(dir.clone());
        ctx.metrics_dir = Some(mdir.clone());
        let written = write_traces(&ctx);
        // Every case cluster gets one profile trace, one trace per app,
        // and a metrics snapshot in both formats.
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let expected: Vec<String> = ["case1", "case2", "case3"]
            .iter()
            .flat_map(|case| {
                [
                    format!("{case}_profile.trace.json"),
                    format!("{case}_amazon_pagerank.trace.json"),
                    format!("{case}.metrics.json"),
                    format!("{case}.metrics.prom"),
                ]
            })
            .collect();
        assert_eq!(names, expected);
        let sim_trace = std::fs::read_to_string(&written[1]).unwrap();
        assert!(written[1].ends_with("case1_amazon_pagerank.trace.json"));
        assert!(sim_trace.contains("\"traceEvents\""));
        assert!(sim_trace.contains("barrier_wait"));
        assert!(sim_trace.contains("partition/hybrid"));
        let profile_trace = std::fs::read_to_string(&written[0]).unwrap();
        assert!(profile_trace.contains("proxy_generation"));
        let metrics_json = std::fs::read_to_string(&written[2]).unwrap();
        assert!(metrics_json.contains("engine/superstep_makespan_s"));
        assert!(
            !metrics_json.contains("\"Wall\""),
            "snapshots are sim-domain only"
        );
        let back = hetgraph_core::metrics::MetricsSnapshot::from_json(&metrics_json).unwrap();
        assert_eq!(back.to_json(), metrics_json, "snapshot round-trips exactly");
        let prom = std::fs::read_to_string(&written[3]).unwrap();
        assert!(prom.contains("# TYPE hetgraph_engine_supersteps_total counter"));

        // Metrics-only mode still covers every case, with no trace files.
        ctx.trace_dir = None;
        let metrics_only = write_traces(&ctx);
        assert_eq!(metrics_only.len(), 6);
        assert!(metrics_only
            .iter()
            .all(|p| p.to_string_lossy().contains(".metrics.")));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&mdir).unwrap();
    }
}
