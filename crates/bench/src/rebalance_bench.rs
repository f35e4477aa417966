//! Dynamic-rebalancing baseline (`BENCH_rebalance.json`).
//!
//! The tentpole scenario for mutable placement: a CCR-weighted static
//! partition is optimal only while machines keep their profiled speed.
//! This experiment runs PageRank on the frozen power-law fixture twice
//! per scenario — once with the placement pinned (the paper's static CCR
//! flow) and once with the greedy straggler-driven rebalancer allowed to
//! migrate edges between supersteps — and records both simulated
//! makespans:
//!
//! - **steady** — no perturbation. The CCR weights already balance the
//!   cluster, so the rebalancer should stand down (or at worst pay a
//!   negligible, amortized cost).
//! - **slowdown** — the most-loaded machine drops to a fraction of its
//!   nominal clock mid-run ([`SLOWDOWN_SCALE`] from superstep
//!   [`SLOWDOWN_FROM_STEP`], no recovery). Static placement eats the
//!   straggler every remaining step; migration pays a one-time transfer
//!   to shed load off it.
//!
//! Every number is simulated time, so rows are bit-reproducible for a
//! given `--scale` — no wall-clock normalization is needed. `check` gates
//! CI on the committed baseline: the slowdown scenario must keep beating
//! static placement ([`check`] for the exact rules).

use std::path::Path;
use std::time::Instant;

use hetgraph_apps::{AnyApp, PageRank};
use hetgraph_cluster::{Cluster, PerturbationSchedule};
use hetgraph_engine::{DistributedGraph, GreedyRebalance, RunTarget, SimEngine};
use hetgraph_gen::{PowerLawConfig, ProxySet};
use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};
use hetgraph_profile::CcrPool;
use serde::Value;

use crate::context::ExperimentContext;
use crate::output;

/// Clock multiplier of the perturbed machine in the slowdown scenario.
pub const SLOWDOWN_SCALE: f64 = 0.4;

/// Superstep at which the slowdown begins (it never recovers).
pub const SLOWDOWN_FROM_STEP: usize = 2;

/// One scenario's static-vs-rebalanced comparison (simulated seconds).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScenarioRow {
    /// Scenario key: `steady` or `slowdown`.
    pub scenario: String,
    /// Makespan with the placement pinned for the whole run.
    pub static_makespan_s: f64,
    /// Makespan with the greedy rebalancer active.
    pub rebalanced_makespan_s: f64,
    /// `static_makespan_s / rebalanced_makespan_s` (>1 = migration won).
    pub improvement: f64,
    /// Migration batches the policy committed.
    pub migrations: usize,
    /// Total edges migrated across all batches.
    pub edges_moved: usize,
    /// Total simulated seconds charged for the migrations.
    pub migration_cost_s: f64,
}

/// The `BENCH_rebalance.json` payload.
#[derive(Debug, serde::Serialize)]
pub struct RebalanceBench {
    /// Graph downscale factor the fixture was generated at.
    pub scale: u32,
    /// Vertices in the fixture.
    pub vertices: u32,
    /// Edges in the fixture.
    pub edges: usize,
    /// Simulated machines (Cluster::case2).
    pub machines: usize,
    /// Application under test.
    pub app: String,
    /// Machine index the slowdown scenario perturbs (the most-loaded one).
    pub slowdown_machine: usize,
    /// Clock multiplier of the perturbed machine.
    pub slowdown_scale: f64,
    /// Superstep the slowdown starts at.
    pub slowdown_from_step: usize,
    /// Scenario comparisons, `steady` first.
    pub rows: Vec<ScenarioRow>,
    /// Total experiment wall-clock, seconds.
    pub total_wall_s: f64,
}

/// Run one static-vs-rebalanced comparison under `schedule`.
fn scenario(
    name: &str,
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    program: &PageRank,
    threads: usize,
) -> ScenarioRow {
    let static_report = engine.run(dist, program, threads).report;
    // Rebalancing mutates placement, so it runs on its own copy-on-write
    // clone of the shared view (the original stays pinned).
    let mut rebal_dist = dist.clone();
    let mut policy = GreedyRebalance::new();
    let rebal_report = engine
        .run(
            RunTarget::rebalanced(&mut rebal_dist, &mut policy),
            program,
            threads,
        )
        .report;
    ScenarioRow {
        scenario: name.to_string(),
        static_makespan_s: static_report.makespan_s,
        rebalanced_makespan_s: rebal_report.makespan_s,
        improvement: static_report.makespan_s / rebal_report.makespan_s,
        migrations: policy.events().len(),
        edges_moved: policy.events().iter().map(|e| e.edges_moved).sum(),
        migration_cost_s: policy.events().iter().map(|e| e.cost_s).sum(),
    }
}

/// Run the rebalance baseline, print its table, and (with `--out`) write
/// `BENCH_rebalance.json`.
pub fn rebalance(ctx: &ExperimentContext) -> RebalanceBench {
    let t0 = Instant::now();
    let scale = ctx.scale;
    // Same fixture family and scale convention as the other baselines.
    let n = (1_000_000 / scale).max(4_000);

    println!("== rebalance baseline (scale {scale}) ==");
    let graph = PowerLawConfig::new(n, 2.1).generate(42);
    let edges = graph.num_edges();
    let cluster = Cluster::case2();
    let app = AnyApp::pagerank();
    // Static CCR flow, as in `hetgraph simulate --policy ccr`: proxy-
    // profile the cluster at a fixed small proxy scale (independent of
    // the fixture scale, so the weights are identical across scales),
    // then weight the partitioner by the measured CCRs.
    let proxy_scale = 640u32.max(scale);
    let pool = CcrPool::profile_with_threads(
        &cluster,
        &ProxySet::standard(proxy_scale),
        std::slice::from_ref(&app),
        ctx.threads,
    );
    let weights = MachineWeights::from_ccr(pool.ccr(app.name()).expect("just profiled").ratios());
    let assignment = RandomHash::new().partition(&graph, &weights);
    let dist = DistributedGraph::new_with_threads(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");
    // Slow the machine the static placement leans on hardest: that is
    // where a mid-run throttle hurts a pinned placement the most.
    let slowdown_machine = assignment
        .edges_per_machine()
        .iter()
        .enumerate()
        .max_by_key(|&(_, &e)| e)
        .map(|(i, _)| i)
        .expect("cluster has machines");
    println!(
        "fixture: power-law n={n} alpha=2.1 seed=42 ({edges} edges), case2, \
         ccr random_hash; slowdown: machine {slowdown_machine} at \
         {SLOWDOWN_SCALE}x clock from step {SLOWDOWN_FROM_STEP}"
    );

    let program = PageRank::new(10);
    let steady_engine = SimEngine::new(&cluster);
    let schedule = PerturbationSchedule::new().slowdown(
        slowdown_machine,
        SLOWDOWN_FROM_STEP,
        None,
        SLOWDOWN_SCALE,
    );
    let slow_engine = SimEngine::new(&cluster).with_perturbations(&schedule);

    let rows = vec![
        scenario("steady", &steady_engine, &dist, &program, ctx.threads),
        scenario("slowdown", &slow_engine, &dist, &program, ctx.threads),
    ];

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                output::f3(r.static_makespan_s),
                output::f3(r.rebalanced_makespan_s),
                format!("{:.3}x", r.improvement),
                r.migrations.to_string(),
                r.edges_moved.to_string(),
                output::f3(r.migration_cost_s),
            ]
        })
        .collect();
    output::print_table(
        &[
            "scenario",
            "static_s",
            "rebalanced_s",
            "improvement",
            "batches",
            "edges_moved",
            "migration_s",
        ],
        &cells,
    );

    let bench = RebalanceBench {
        scale,
        vertices: n,
        edges,
        machines: cluster.len(),
        app: app.name().to_string(),
        slowdown_machine,
        slowdown_scale: SLOWDOWN_SCALE,
        slowdown_from_step: SLOWDOWN_FROM_STEP,
        rows,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };
    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_rebalance",
        &bench,
        &output::RunManifest::collect(42, ctx.threads, scale, bench.total_wall_s),
    );
    bench
}

/// Fraction of the baseline's slowdown-scenario improvement a fresh run
/// must retain. Simulated ratios are exact at the baseline's scale; the
/// headroom only covers `--check --scale N` smoke runs at other scales.
pub const CHECK_TOLERANCE: f64 = 0.95;

/// How much the steady scenario may regress before the gate fails:
/// rebalancing must never cost more than 2% when nothing goes wrong.
pub const STEADY_FLOOR: f64 = 0.98;

/// Re-run the rebalance baseline and compare it against the committed
/// `BENCH_rebalance.json` at `baseline_path`, failing when:
///
/// - the fresh slowdown scenario does not beat static placement outright
///   (`improvement <= 1`), or committed no migration at all, or
/// - its improvement drops below [`CHECK_TOLERANCE`] of the baseline's, or
/// - the fresh steady scenario falls below [`STEADY_FLOOR`] (the
///   rebalancer hurt a healthy run).
///
/// All gated quantities are simulated-time ratios, so the gate is
/// host-speed independent by construction. The fresh run never writes
/// output, regardless of `ctx.out_dir`.
pub fn check(ctx: &ExperimentContext, baseline_path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
    let baseline = serde_json::from_str(&text)
        .map_err(|e| format!("parsing {}: {e}", baseline_path.display()))?;
    let mut fresh_ctx = ctx.clone();
    fresh_ctx.out_dir = None;
    let fresh = rebalance(&fresh_ctx);
    println!(
        "\n== rebalance bench check vs {} ==",
        baseline_path.display()
    );
    let failures = check_against(&fresh, &baseline)?;
    if failures.is_empty() {
        println!("rebalance bench check: OK (migration still beats static under slowdown)");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The pure comparison core of [`check`]: fresh measurement vs parsed
/// baseline. `Err` means the baseline document is malformed; `Ok` carries
/// the (possibly empty) list of regression messages.
fn check_against(fresh: &RebalanceBench, baseline: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let base_slowdown = baseline_improvement(baseline, "slowdown")?;
    for row in &fresh.rows {
        match row.scenario.as_str() {
            "slowdown" => {
                if row.improvement <= 1.0 {
                    failures.push(format!(
                        "slowdown: rebalanced makespan {:.4}s does not beat static {:.4}s",
                        row.rebalanced_makespan_s, row.static_makespan_s
                    ));
                }
                if row.migrations == 0 {
                    failures.push("slowdown: the rebalancer committed no migration".to_string());
                }
                if row.improvement < CHECK_TOLERANCE * base_slowdown {
                    failures.push(format!(
                        "slowdown: improvement {:.3}x is below {CHECK_TOLERANCE} x \
                         baseline {base_slowdown:.3}x",
                        row.improvement
                    ));
                }
            }
            "steady" => {
                if row.improvement < STEADY_FLOOR {
                    failures.push(format!(
                        "steady: rebalancing cost a healthy run {:.1}% \
                         (improvement {:.3}x is below the {STEADY_FLOOR} floor)",
                        100.0 * (1.0 - row.improvement),
                        row.improvement
                    ));
                }
            }
            other => failures.push(format!("unknown fresh scenario {other:?}")),
        }
    }
    if !fresh.rows.iter().any(|r| r.scenario == "slowdown") {
        failures.push("fresh run has no slowdown scenario".to_string());
    }
    Ok(failures)
}

/// Extract one scenario's improvement ratio from a parsed baseline.
fn baseline_improvement(baseline: &Value, scenario: &str) -> Result<f64, String> {
    let rows = baseline
        .get("rows")
        .and_then(Value::as_seq)
        .ok_or("baseline is missing the rows array")?;
    for row in rows {
        if row.get("scenario").and_then(Value::as_str) == Some(scenario) {
            return row
                .get("improvement")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("baseline {scenario} row is missing improvement"));
        }
    }
    Err(format!("baseline has no {scenario} scenario"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_both_scenarios_and_slowdown_wins() {
        // Scale 32 is the smallest fixture where per-step compute is large
        // enough relative to the barrier for a migration to amortize.
        let ctx = ExperimentContext::at_scale(32);
        let bench = rebalance(&ctx);
        let names: Vec<&str> = bench.rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ["steady", "slowdown"]);
        let slowdown = &bench.rows[1];
        assert!(slowdown.migrations > 0, "no migration under slowdown");
        assert!(
            slowdown.improvement > 1.0,
            "migration did not beat static: {slowdown:?}"
        );
        let steady = &bench.rows[0];
        assert!(
            steady.improvement >= STEADY_FLOOR,
            "rebalancing hurt a healthy run: {steady:?}"
        );
    }

    #[test]
    fn bench_is_deterministic_across_thread_budgets() {
        let r1 = rebalance(&ExperimentContext::at_scale(32).with_threads(1));
        let r4 = rebalance(&ExperimentContext::at_scale(32).with_threads(4));
        for (a, b) in r1.rows.iter().zip(&r4.rows) {
            assert_eq!(a.static_makespan_s, b.static_makespan_s, "{}", a.scenario);
            assert_eq!(
                a.rebalanced_makespan_s, b.rebalanced_makespan_s,
                "{}",
                a.scenario
            );
            assert_eq!(a.edges_moved, b.edges_moved, "{}", a.scenario);
        }
    }

    /// A fabricated measurement with a healthy slowdown win.
    fn fake_bench() -> RebalanceBench {
        RebalanceBench {
            scale: 1,
            vertices: 1_000_000,
            edges: 5_000_000,
            machines: 2,
            app: "pagerank".to_string(),
            slowdown_machine: 0,
            slowdown_scale: SLOWDOWN_SCALE,
            slowdown_from_step: SLOWDOWN_FROM_STEP,
            rows: vec![
                ScenarioRow {
                    scenario: "steady".to_string(),
                    static_makespan_s: 10.0,
                    rebalanced_makespan_s: 10.0,
                    improvement: 1.0,
                    migrations: 0,
                    edges_moved: 0,
                    migration_cost_s: 0.0,
                },
                ScenarioRow {
                    scenario: "slowdown".to_string(),
                    static_makespan_s: 20.0,
                    rebalanced_makespan_s: 16.0,
                    improvement: 1.25,
                    migrations: 2,
                    edges_moved: 100_000,
                    migration_cost_s: 0.05,
                },
            ],
            total_wall_s: 1.0,
        }
    }

    fn to_baseline(bench: &RebalanceBench) -> Value {
        serde_json::from_str(&serde_json::to_string_pretty(bench).unwrap()).unwrap()
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let bench = fake_bench();
        let failures = check_against(&bench, &to_baseline(&bench)).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_flags_every_regression_class() {
        let baseline = to_baseline(&fake_bench());
        let mut regressed = fake_bench();
        regressed.rows[0].improvement = 0.90; // rebalancer hurt steady run
        regressed.rows[1].improvement = 0.99; // slowdown loss
        regressed.rows[1].migrations = 0; // and it never migrated
        let failures = check_against(&regressed, &baseline).unwrap();
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("does not beat static")));
        assert!(failures.iter().any(|f| f.contains("no migration")));
        assert!(failures.iter().any(|f| f.contains("below the")));
        // A small within-tolerance dip on slowdown passes.
        let mut dipped = fake_bench();
        dipped.rows[1].improvement = 1.20;
        assert!(check_against(&dipped, &baseline).unwrap().is_empty());
    }

    #[test]
    fn check_rejects_malformed_baselines() {
        let bench = fake_bench();
        let err = check_against(&bench, &Value::Null).unwrap_err();
        assert!(err.contains("rows"), "{err}");
    }
}
