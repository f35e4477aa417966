//! The five workloads. Each says in its type docs why it exists; the
//! README has the layer → end-to-end table that follows from them.
//!
//! Sizes are for a 2-core box: one repetition takes 1.5–10 s, so a 10 s
//! window holds 1–6 of them. Everything a workload feeds the program is
//! generated from the seed; the program never sees the seed itself.

use std::path::PathBuf;

use crate::harness::{Checks, RepOutput, Run, Workload};
use crate::layers::{self, PartitionerKind};

/// Vertices of the 4.98 M-edge power-law graph (`G5M`) the batch
/// workloads share.
const G5M_VERTICES: u32 = 1_000_000;
/// Its power-law exponent.
const G5M_ALPHA: f64 = 2.1;
/// Proxy downscale of the `submit_*` deployment (50 k-vertex proxies).
const DEPLOY_PROXY_SCALE: u32 = 64;
/// PageRank iterations of a submitted job (the registry's default).
const PAGERANK_ITERATIONS: usize = 10;

fn g5m(run: &Run) -> layers::Graph {
    layers::powerlaw(
        &run.tracer,
        run.scaled(G5M_VERTICES, 2_000),
        G5M_ALPHA,
        run.cfg.seed,
    )
}

/// Serialize deterministic outputs for the cross-repetition comparison.
fn identity<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("the stand-in serializer cannot fail")
}

/// `Ok` when `assignment` places each of the graph's `edges` exactly once
/// and `weights` is a distribution.
fn placement_is_sound(
    assignment: &layers::PartitionAssignment,
    weights: &layers::MachineWeights,
    edges: usize,
) -> Result<(), String> {
    let placed: usize = assignment.edges_per_machine().iter().sum();
    let total: f64 = weights.as_slice().iter().sum();
    if assignment.edge_machines().len() != edges || placed != edges {
        Err(format!("{placed} of {edges} edges placed"))
    } else if (total - 1.0).abs() > 1e-9 {
        Err(format!("weights sum to {total}"))
    } else {
        Ok(())
    }
}

/// PageRank's check: every rank within 1e-9 of the reference's.
fn ranks_match(got: &[f64], reference: &[f64]) -> Result<(), String> {
    assert_eq!(got.len(), reference.len());
    let diff = got
        .iter()
        .zip(reference)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    if diff <= 1e-9 {
        Ok(())
    } else {
        Err(format!("max |rank - reference| = {diff:e}"))
    }
}

fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Record `sim.ccr_gain`: uniform-weights makespan over CCR-weights
/// makespan, geometric mean over the repetition's applications.
fn record_ccr_gain(run: &Run, uniform_over_ccr: &[f64]) {
    let s = run.tracer.begin("bench", "probe.ccr_gain");
    run.tracer
        .end(s, &[("ccr_gain", geomean(uniform_over_ccr))]);
}

// ------------------------------------------------------------ submit_dense

/// Fig 7b on `G5M` and the Case 2 cluster, one job after another: per
/// job, CCR weights → Hybrid partition → partition metrics → distributed
/// view → run; jobs are PageRank(10) and Connected Components.
///
/// Why: every vertex is active in every superstep, so the kernel's
/// source-table gather/apply path carries most of the wall time and
/// partition + build most of the rest. It is the workload a dense-path
/// kernel optimisation must move.
pub struct SubmitDense;

/// The deployment `submit_*` repetitions run against.
pub struct Deployment {
    graph: layers::Graph,
    framework: layers::Framework,
}

fn deployment(run: &Run) -> Deployment {
    Deployment {
        graph: g5m(run),
        framework: layers::deploy(
            &run.tracer,
            layers::case2(),
            run.downscale(DEPLOY_PROXY_SCALE),
            run.cfg.threads,
        ),
    }
}

/// What one placed-and-run job produced.
#[derive(serde::Serialize)]
struct Job {
    report: layers::SimReport,
    partition: layers::PartitionMetrics,
}

/// First-repetition outputs of `submit_dense`.
pub struct DenseKept {
    jobs: Vec<Job>,
    ranks: Vec<f64>,
    labels: Vec<u32>,
    sound: Result<(), String>,
}

impl SubmitDense {
    /// Place `graph` for `app` under `weights` and build the view, then
    /// hand it to `run_app`. The stage order is `Framework::submit`'s.
    fn place<R>(
        run: &Run,
        d: &Deployment,
        weights: &layers::MachineWeights,
        threads: usize,
        run_app: impl FnOnce(&layers::DistributedGraph<'_>) -> R,
    ) -> (R, layers::PartitionMetrics, Result<(), String>) {
        let tr = &run.tracer;
        let kind = PartitionerKind::Hybrid;
        let assignment = layers::partition(tr, kind, &d.graph, weights, threads);
        let metrics = layers::partition_metrics(tr, kind, &assignment, weights, threads);
        let dist = layers::build_dist(tr, &d.graph, &assignment, threads);
        layers::row_tables(tr, &dist);
        let result = run_app(&dist);
        let sound = placement_is_sound(&assignment, weights, d.graph.num_edges());
        (result, metrics, sound)
    }

    /// Both jobs under `family` spans with `threads`, CCR-weighted unless
    /// `uniform`; returns the two jobs with their vertex data.
    fn jobs(run: &Run, d: &Deployment, family: &str, threads: usize, uniform: bool) -> DenseKept {
        let tr = &run.tracer;
        let cluster = d.framework.cluster();
        let weights = |app| {
            if uniform {
                layers::uniform_weights(cluster.len())
            } else {
                layers::ccr_weights(d.framework.pool(), app)
            }
        };

        let op = tr.begin_op("job.pagerank");
        let (pr, pr_metrics, pr_sound) =
            Self::place(run, d, &weights("pagerank"), threads, |dist| {
                let program = layers::pagerank(PAGERANK_ITERATIONS);
                layers::run(tr, family, "pagerank", cluster, dist, &program, threads)
            });
        tr.end(op, &[]);

        let op = tr.begin_op("job.connected_components");
        let app = "connected_components";
        let (cc, cc_metrics, cc_sound) = Self::place(run, d, &weights(app), threads, |dist| {
            let program = layers::connected_components();
            layers::run(tr, family, app, cluster, dist, &program, threads)
        });
        tr.end(op, &[]);

        DenseKept {
            jobs: vec![
                Job {
                    report: pr.report,
                    partition: pr_metrics,
                },
                Job {
                    report: cc.report,
                    partition: cc_metrics,
                },
            ],
            ranks: pr.data,
            labels: cc.data,
            sound: pr_sound.and(cc_sound),
        }
    }
}

impl Workload for SubmitDense {
    const NAME: &'static str = "submit_dense";
    type State = Deployment;
    type Kept = DenseKept;

    fn setup(&self, run: &Run) -> Deployment {
        deployment(run)
    }

    fn rep(&self, run: &Run, d: &Deployment) -> RepOutput<DenseKept> {
        let kept = Self::jobs(run, d, "engine.run", run.cfg.threads, false);
        let makespans: Vec<f64> = kept.jobs.iter().map(|j| j.report.makespan_s).collect();
        RepOutput {
            ops: kept.jobs.len(),
            failed: 0,
            sim_makespan_s: makespans.iter().sum(),
            sim_latencies_s: makespans,
            identity: identity(&kept.jobs),
            kept,
        }
    }

    fn check(&self, _run: &Run, d: &Deployment, first: &RepOutput<DenseKept>, checks: &mut Checks) {
        let k = &first.kept;
        checks.record(
            "PageRank ranks equal the sequential reference to 1e-9",
            1,
            ranks_match(
                &k.ranks,
                &layers::pagerank_ref(&d.graph, PAGERANK_ITERATIONS),
            ),
        );
        checks.equal(
            "component labels equal the sequential reference",
            1,
            &k.labels,
            &layers::connected_components_ref(&d.graph),
        );
        let (report, partition) = layers::submit_connected_components(&d.framework, &d.graph);
        checks.equal(
            "the Connected Components job equals Framework::submit's",
            1,
            &(&k.jobs[1].report, &k.jobs[1].partition),
            &(&report, &partition),
        );
        checks.record(
            "each assignment covers |E| and its weights sum to 1",
            2,
            k.sound.clone(),
        );
    }

    fn probes(&self, run: &Run, d: &Deployment, first: &RepOutput<DenseKept>, checks: &mut Checks) {
        let serial = Self::jobs(run, d, "engine.run_1t", 1, false);
        checks.equal(
            "reports on 1 thread equal reports on the run's threads",
            2,
            &identity(&serial.jobs),
            &first.identity,
        );
        let uniform = Self::jobs(run, d, "engine.run_uniform", run.cfg.threads, true);
        let ratios: Vec<f64> = uniform
            .jobs
            .iter()
            .zip(&first.kept.jobs)
            .map(|(u, c)| u.report.makespan_s / c.report.makespan_s)
            .collect();
        record_ccr_gain(run, &ratios);
    }
}

// ----------------------------------------------------------- submit_sparse

/// Same graph, cluster and deployment as `submit_dense`; one Hybrid
/// partition and one view, then SSSP from 8 seeded sources and k-core
/// for k ∈ {2, 3, 5, 8}.
///
/// Why: the same kernel used the other way — sparse frontiers, frontier
/// extraction, scatter and the fixed per-superstep cost dominate, and the
/// dense source table is bypassed. A dense-path gain must show *no
/// change* here, and a cost it adds to every superstep shows.
pub struct SubmitSparse;

const SSSP_SOURCES: usize = 8;
const KCORE_KS: [u32; 4] = [2, 3, 5, 8];

/// First-repetition outputs of `submit_sparse`.
pub struct SparseKept {
    reports: Vec<layers::SimReport>,
    distances: Vec<Vec<u32>>,
    cores: Vec<Vec<bool>>,
    sound: Result<(), String>,
}

impl SubmitSparse {
    fn sources(run: &Run, d: &Deployment) -> Vec<u32> {
        layers::pick_vertices(run.cfg.seed, d.graph.num_vertices(), SSSP_SOURCES)
    }

    fn runs(run: &Run, d: &Deployment, family: &str, threads: usize) -> SparseKept {
        let tr = &run.tracer;
        let cluster = d.framework.cluster();
        let weights = layers::ccr_weights(d.framework.pool(), "sssp");
        let kind = PartitionerKind::Hybrid;
        let assignment = layers::partition(tr, kind, &d.graph, &weights, threads);
        layers::partition_metrics(tr, kind, &assignment, &weights, threads);
        let dist = layers::build_dist(tr, &d.graph, &assignment, threads);
        layers::row_tables(tr, &dist);

        let mut kept = SparseKept {
            reports: Vec::new(),
            distances: Vec::new(),
            cores: Vec::new(),
            sound: placement_is_sound(&assignment, &weights, d.graph.num_edges()),
        };
        for source in Self::sources(run, d) {
            let op = tr.begin_op("run.sssp");
            let program = layers::sssp(source);
            let out = layers::run(tr, family, "sssp", cluster, &dist, &program, threads);
            tr.end(op, &[("source", f64::from(source))]);
            kept.reports.push(out.report);
            kept.distances.push(out.data);
        }
        for k in KCORE_KS {
            let op = tr.begin_op("run.kcore");
            let program = layers::kcore(k);
            let out = layers::run(tr, family, "kcore", cluster, &dist, &program, threads);
            tr.end(op, &[("k", f64::from(k))]);
            kept.reports.push(out.report);
            kept.cores.push(out.data);
        }
        kept
    }
}

impl Workload for SubmitSparse {
    const NAME: &'static str = "submit_sparse";
    type State = Deployment;
    type Kept = SparseKept;

    fn setup(&self, run: &Run) -> Deployment {
        deployment(run)
    }

    fn rep(&self, run: &Run, d: &Deployment) -> RepOutput<SparseKept> {
        let kept = Self::runs(run, d, "engine.run", run.cfg.threads);
        let makespans: Vec<f64> = kept.reports.iter().map(|r| r.makespan_s).collect();
        RepOutput {
            ops: kept.reports.len(),
            failed: 0,
            sim_makespan_s: makespans.iter().sum(),
            sim_latencies_s: makespans,
            identity: identity(&kept.reports),
            kept,
        }
    }

    fn check(&self, run: &Run, d: &Deployment, first: &RepOutput<SparseKept>, checks: &mut Checks) {
        let k = &first.kept;
        for (source, got) in Self::sources(run, d).into_iter().zip(&k.distances) {
            checks.equal(
                &format!("SSSP distances from {source} equal the BFS reference"),
                1,
                got,
                &layers::sssp_ref(&d.graph, source),
            );
        }
        for (core, got) in KCORE_KS.into_iter().zip(&k.cores) {
            checks.equal(
                &format!("{core}-core membership equals the peeling reference"),
                1,
                got,
                &layers::kcore_ref(&d.graph, core),
            );
        }
        checks.record(
            "the assignment covers |E| and its weights sum to 1",
            first.ops,
            k.sound.clone(),
        );
    }

    fn probes(
        &self,
        run: &Run,
        d: &Deployment,
        first: &RepOutput<SparseKept>,
        checks: &mut Checks,
    ) {
        let serial = Self::runs(run, d, "engine.run_1t", 1);
        checks.equal(
            "reports on 1 thread equal reports on the run's threads",
            first.ops,
            &identity(&serial.reports),
            &first.identity,
        );
    }
}

// ----------------------------------------------------------- pipeline_wide

/// The paper's front end at P = 16 and P = 48 machines (round-robin over
/// the eight Table I types): proxy set + CCR profiling of all six apps,
/// α fits for the four Table II graphs, all five partitioners with their
/// quality metrics on `G5M`, then the Hybrid placement built and run for
/// three PageRank iterations.
///
/// Why: partitioning and profiling (the Coloring and Triangle Count
/// cells) carry the wall time here, and the kernel runs on its P > 8
/// fallback (no per-row machine-count tables), which nothing else
/// measures.
pub struct PipelineWide;

const WIDE_MACHINES: [usize; 2] = [16, 48];
const WIDE_PROXY_SCALE: u32 = 128;
const WIDE_PAGERANK_ITERATIONS: usize = 3;
const ACCURACY_GRAPH_SCALE: u32 = 32;

/// Deterministic outputs of one `pipeline_wide` repetition.
#[derive(serde::Serialize)]
struct WideOutputs {
    alphas: Vec<f64>,
    pools: Vec<layers::CcrPool>,
    placements: Vec<layers::PartitionMetrics>,
    reports: Vec<layers::SimReport>,
}

/// First-repetition outputs of `pipeline_wide`.
pub struct WideKept {
    outputs: WideOutputs,
    ranks: Vec<Vec<f64>>,
    sound: Result<(), String>,
}

impl PipelineWide {
    /// Build and run the Hybrid placement of `graph` on `cluster`.
    fn run_hybrid(
        run: &Run,
        family: &str,
        graph: &layers::Graph,
        cluster: &layers::Cluster,
        assignment: &layers::PartitionAssignment,
        threads: usize,
    ) -> layers::SimOutcome<f64> {
        let tr = &run.tracer;
        let dist = layers::build_dist(tr, graph, assignment, threads);
        layers::row_tables(tr, &dist);
        let program = layers::pagerank(WIDE_PAGERANK_ITERATIONS);
        layers::run(tr, family, "pagerank", cluster, &dist, &program, threads)
    }
}

impl Workload for PipelineWide {
    const NAME: &'static str = "pipeline_wide";
    type State = layers::Graph;
    type Kept = WideKept;

    fn setup(&self, run: &Run) -> layers::Graph {
        g5m(run)
    }

    fn rep(&self, run: &Run, graph: &layers::Graph) -> RepOutput<WideKept> {
        let tr = &run.tracer;
        let threads = run.cfg.threads;
        let proxies = layers::proxy_set(run.downscale(WIDE_PROXY_SCALE));
        let mut outputs = WideOutputs {
            alphas: layers::alpha_fits(tr),
            pools: Vec::new(),
            placements: Vec::new(),
            reports: Vec::new(),
        };
        let mut ranks = Vec::new();
        let mut sound = Vec::new();
        for machines in WIDE_MACHINES {
            let cluster = layers::wide_cluster(machines);
            let pool = layers::profile_pool(tr, &cluster, &proxies, threads);
            let weights = layers::ccr_weights(&pool, "pagerank");
            outputs.pools.push(pool);
            for kind in PartitionerKind::ALL {
                let op = tr.begin_op(&format!("placement.{}.p{machines}", kind.name()));
                let assignment = layers::partition(tr, kind, graph, &weights, threads);
                let metrics = layers::partition_metrics(tr, kind, &assignment, &weights, threads);
                outputs.placements.push(metrics);
                sound.push(placement_is_sound(&assignment, &weights, graph.num_edges()));
                if kind == PartitionerKind::Hybrid {
                    let out =
                        Self::run_hybrid(run, "engine.run", graph, &cluster, &assignment, threads);
                    outputs.reports.push(out.report);
                    ranks.push(out.data);
                }
                tr.end(op, &[]);
            }
        }
        let makespans: Vec<f64> = outputs.reports.iter().map(|r| r.makespan_s).collect();
        RepOutput {
            ops: outputs.placements.len(),
            failed: 0,
            sim_makespan_s: makespans.iter().sum(),
            sim_latencies_s: makespans,
            identity: identity(&outputs),
            kept: WideKept {
                outputs,
                ranks,
                sound: sound.into_iter().collect(),
            },
        }
    }

    fn check(
        &self,
        _run: &Run,
        graph: &layers::Graph,
        first: &RepOutput<WideKept>,
        checks: &mut Checks,
    ) {
        let reference = layers::pagerank_ref(graph, WIDE_PAGERANK_ITERATIONS);
        for (machines, got) in WIDE_MACHINES.into_iter().zip(&first.kept.ranks) {
            checks.record(
                &format!("PageRank ranks at P = {machines} equal the reference to 1e-9"),
                1,
                ranks_match(got, &reference),
            );
        }
        checks.record(
            "all ten assignments cover |E| and their weights sum to 1",
            first.ops,
            first.kept.sound.clone(),
        );
    }

    fn probes(
        &self,
        run: &Run,
        graph: &layers::Graph,
        first: &RepOutput<WideKept>,
        checks: &mut Checks,
    ) {
        let tr = &run.tracer;
        let threads = run.cfg.threads;
        let proxies = layers::proxy_set(run.downscale(WIDE_PROXY_SCALE));
        let mut ratios = Vec::new();
        let kind = PartitionerKind::Hybrid;
        for (i, machines) in WIDE_MACHINES.into_iter().enumerate() {
            let cluster = layers::wide_cluster(machines);
            let ccr = &first.kept.outputs.reports[i];
            let weights = layers::ccr_weights(&first.kept.outputs.pools[i], "pagerank");
            let assignment = layers::partition(tr, kind, graph, &weights, 1);
            let serial = Self::run_hybrid(run, "engine.run_1t", graph, &cluster, &assignment, 1);
            checks.equal(
                &format!("the P = {machines} report on 1 thread equals the run's"),
                1,
                &serial.report,
                ccr,
            );
            let weights = layers::uniform_weights(machines);
            let assignment = layers::partition(tr, kind, graph, &weights, threads);
            let uniform = Self::run_hybrid(
                run,
                "engine.run_uniform",
                graph,
                &cluster,
                &assignment,
                threads,
            );
            ratios.push(uniform.report.makespan_s / ccr.makespan_s);
        }
        record_ccr_gain(run, &ratios);

        // Where the pool's wall time goes, app by app, and how far the
        // proxy CCRs are from a graph held back from profiling.
        let graphs = layers::proxy_graphs(tr, &proxies);
        layers::profile_cells_by_app(tr, &layers::wide_cluster(WIDE_MACHINES[0]), &graphs);
        let held_back = layers::amazon(run.downscale(ACCURACY_GRAPH_SCALE));
        layers::ccr_error_pct(tr, &proxies, &[held_back]);
    }
}

// ---------------------------------------------------------- stream_compact

/// The bounded-memory path: the social-network stand-in's R-MAT recipe at
/// 1/14 (4.93 M edges) streamed into binary shards, partitioned by
/// streaming Oblivious, built into the delta-varint compressed view
/// straight from the shard stream, then PageRank and SSSP on the
/// decode-on-iterate kernel.
///
/// Why: shard writing beside shard reading, R-MAT generation, the
/// compact build and the decoding kernel are the bars nobody has looked
/// at, and this is the only guard on the compact path while the graph
/// view is rewritten. No plain `Graph` exists during the repetitions, so
/// `peak_rss_mib` is the compact path's own.
pub struct StreamCompact;

const SOCIAL_SCALE: u32 = 14;
/// R-MAT's vertex 0 sits in the densest quadrant at every level: a hub
/// on every seed, so the traversal does comparable work on each.
const COMPACT_SSSP_SOURCE: u32 = 0;

/// What the set-up derives from the generator without shard I/O.
pub struct CompactState {
    config: layers::RmatConfig,
    expected: layers::StreamDigest,
}

/// A shard directory that is removed when dropped, also on a panic.
struct ShardDir(PathBuf);

impl Drop for ShardDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// First-repetition outputs of `stream_compact`.
pub struct CompactKept {
    shards: layers::ShardSet,
    assignment: layers::PartitionAssignment,
    reports: Vec<layers::SimReport>,
    ranks: Vec<f64>,
    distances: Vec<u32>,
    _dir: ShardDir,
}

impl StreamCompact {
    fn runs(
        run: &Run,
        family: &str,
        compact: &layers::CompactDistGraph,
        threads: usize,
    ) -> (layers::SimOutcome<f64>, layers::SimOutcome<u32>) {
        let tr = &run.tracer;
        let cluster = layers::case2();
        let op = tr.begin_op("run.pagerank");
        let program = layers::pagerank(PAGERANK_ITERATIONS);
        let pr = layers::run_compact(tr, family, "pagerank", &cluster, compact, &program, threads);
        tr.end(op, &[]);
        let op = tr.begin_op("run.sssp");
        let program = layers::sssp(COMPACT_SSSP_SOURCE);
        let sssp = layers::run_compact(tr, family, "sssp", &cluster, compact, &program, threads);
        tr.end(op, &[]);
        (pr, sssp)
    }
}

impl Workload for StreamCompact {
    const NAME: &'static str = "stream_compact";
    type State = CompactState;
    type Kept = CompactKept;

    /// Stream the generator once, keeping only a digest: the edge count
    /// and order-sensitive hash every repetition's shards must replay to.
    fn setup(&self, run: &Run) -> CompactState {
        let config = layers::social_network_config(run.downscale(SOCIAL_SCALE));
        let expected = layers::rmat_digest(&run.tracer, &config, run.cfg.seed);
        CompactState { config, expected }
    }

    fn rep(&self, run: &Run, state: &CompactState) -> RepOutput<CompactKept> {
        static NEXT_DIR: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let tr = &run.tracer;
        let threads = run.cfg.threads;
        let n = NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = ShardDir(
            run.cfg
                .out
                .join(format!("shards.{}.{n}", std::process::id())),
        );
        std::fs::remove_dir_all(&dir.0).ok();

        let op = tr.begin_op("pipeline");
        let shards = layers::rmat_shards(tr, &state.config, run.cfg.seed, &dir.0);
        let weights = layers::uniform_weights(2);
        let assignment = layers::stream_oblivious(tr, &shards, &weights);
        let compact = layers::build_compact(tr, &shards, &assignment);
        tr.end(op, &[]);
        let (pr, sssp) = Self::runs(run, "engine.compact_run", &compact, threads);

        let reports = vec![pr.report, sssp.report];
        let makespans: Vec<f64> = reports.iter().map(|r| r.makespan_s).collect();
        RepOutput {
            ops: 1,
            failed: 0,
            sim_makespan_s: makespans.iter().sum(),
            sim_latencies_s: makespans,
            identity: identity(&reports),
            kept: CompactKept {
                shards,
                assignment,
                reports,
                ranks: pr.data,
                distances: sssp.data,
                _dir: dir,
            },
        }
    }

    fn check(
        &self,
        run: &Run,
        state: &CompactState,
        first: &RepOutput<CompactKept>,
        checks: &mut Checks,
    ) {
        let tr = &run.tracer;
        let k = &first.kept;
        checks.equal(
            "replaying the shards reproduces the generator's edge stream",
            1,
            &layers::shard_digest(&k.shards),
            &state.expected,
        );
        // The in-memory twin: same recipe and seed, hence the same edges
        // in the same order, so the streamed assignment fits it.
        let twin = layers::rmat_graph(tr, &state.config, run.cfg.seed);
        checks.record(
            "the assignment covers |E| and its weights sum to 1",
            1,
            placement_is_sound(&k.assignment, &layers::uniform_weights(2), twin.num_edges()),
        );
        let cluster = layers::case2();
        let threads = run.cfg.threads;
        let dist = layers::build_dist(tr, &twin, &k.assignment, threads);
        let pr = layers::pagerank(PAGERANK_ITERATIONS);
        let sssp = layers::sssp(COMPACT_SSSP_SOURCE);
        let plain = vec![
            layers::run(tr, "engine.run", "pagerank", &cluster, &dist, &pr, threads).report,
            layers::run(tr, "engine.run", "sssp", &cluster, &dist, &sssp, threads).report,
        ];
        checks.equal(
            "compact reports equal plain reports on the same assignment",
            1,
            &k.reports,
            &plain,
        );
        checks.record(
            "PageRank ranks equal the sequential reference to 1e-9",
            1,
            ranks_match(&k.ranks, &layers::pagerank_ref(&twin, PAGERANK_ITERATIONS)),
        );
        checks.equal(
            "SSSP distances equal the BFS reference",
            1,
            &k.distances,
            &layers::sssp_ref(&twin, COMPACT_SSSP_SOURCE),
        );
    }

    fn probes(
        &self,
        run: &Run,
        _state: &CompactState,
        first: &RepOutput<CompactKept>,
        checks: &mut Checks,
    ) {
        let k = &first.kept;
        layers::shard_replay(&run.tracer, &k.shards);
        let compact = layers::build_compact(&run.tracer, &k.shards, &k.assignment);
        let (pr, sssp) = Self::runs(run, "engine.run_1t", &compact, 1);
        checks.equal(
            "reports on 1 thread equal reports on the run's threads",
            1,
            &vec![pr.report, sssp.report],
            &k.reports,
        );
    }
}

// ------------------------------------------------------------- serve_mixed

/// The serving layer: one seeded open-loop stream of SSSP, personalized
/// PageRank and k-core queries (6 : 3 : 1) from two tenants weighted
/// 2 : 1, served once per repetition over a Hybrid partition (thread-
/// count weights) of a 40 000-vertex power-law graph.
///
/// Why: the serve layer does all the work here (partition and generation
/// do none), and it is the slowest layer per edge in the system. The
/// loop is open in *simulated* time — arrivals never react to service —
/// while the host has one caller.
///
/// The graph and the arrival schedule (times, tenants, classes) are the
/// committed serve fixture's at every seed; the seed re-draws the vertex
/// every query asks about. A 40 k-vertex power-law graph has 161 k–228 k
/// edges depending on its seed, and a re-drawn 250-request schedule moves
/// the simulated median latency by 10–14 % and the tail by up to 27 %
/// (interquartile, ten seeds): either would swamp any bound.
pub struct ServeMixed;

const SERVE_VERTICES: u32 = 40_000;
const SERVE_FIXTURE_SEED: u64 = 42;
const SERVE_REQUESTS: usize = 250;
/// Mean simulated gap between arrivals: 100 requests per simulated
/// second, about 60 % of what the modelled cluster sustains, so waves
/// batch several lanes yet the queue never saturates and sheds nothing.
const SERVE_MEAN_GAP_S: f64 = 0.010;
const SSSP_SAMPLES: usize = 32;

/// What `serve_mixed` repetitions share.
pub struct ServeState {
    graph: layers::Graph,
    assignment: layers::PartitionAssignment,
    stream: Vec<layers::Request>,
}

/// Deterministic outputs of one `serve_mixed` repetition.
#[derive(serde::Serialize)]
struct ServeOutputs {
    digest: String,
    served: usize,
    shed: usize,
    sim_duration_s: f64,
    latencies_s: Vec<f64>,
}

fn serve_outputs(report: &layers::ServeReport) -> ServeOutputs {
    ServeOutputs {
        digest: format!("{:016x}", report.composition_digest),
        served: report.served(),
        shed: report.shed.len(),
        sim_duration_s: report.sim_duration_s,
        latencies_s: report.completions.iter().map(|c| c.latency_s()).collect(),
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    type State = ServeState;
    type Kept = layers::ServeReport;

    fn setup(&self, run: &Run) -> ServeState {
        let tr = &run.tracer;
        let vertices = run.scaled(SERVE_VERTICES, 4_000);
        let graph = layers::powerlaw(tr, vertices, G5M_ALPHA, SERVE_FIXTURE_SEED);
        let weights = layers::thread_weights(&layers::case2());
        let kind = PartitionerKind::Hybrid;
        let assignment = layers::partition(tr, kind, &graph, &weights, run.cfg.threads);
        let requests = if run.cfg.smoke { 100 } else { SERVE_REQUESTS };
        let stream = layers::request_stream(
            tr,
            SERVE_FIXTURE_SEED,
            run.cfg.seed,
            requests,
            SERVE_MEAN_GAP_S,
            vertices,
        );
        ServeState {
            graph,
            assignment,
            stream,
        }
    }

    fn rep(&self, run: &Run, s: &ServeState) -> RepOutput<layers::ServeReport> {
        let tr = &run.tracer;
        let op = tr.begin_op("stream");
        let dist = layers::build_dist(tr, &s.graph, &s.assignment, run.cfg.threads);
        let cfg = layers::serve_config(run.cfg.threads);
        let report = layers::serve(tr, &layers::case2(), &dist, &cfg, &s.stream);
        tr.end(op, &[]);
        let outputs = serve_outputs(&report);
        RepOutput {
            ops: s.stream.len(),
            failed: outputs.shed,
            sim_makespan_s: outputs.sim_duration_s,
            identity: identity(&outputs),
            sim_latencies_s: outputs.latencies_s,
            kept: report,
        }
    }

    fn check(
        &self,
        _run: &Run,
        s: &ServeState,
        first: &RepOutput<layers::ServeReport>,
        checks: &mut Checks,
    ) {
        let report = &first.kept;
        println!(
            "serve_mixed composition digest {:016x}",
            report.composition_digest
        );
        checks.equal(
            "served + shed == offered",
            0,
            &(report.served() + report.shed.len()),
            &s.stream.len(),
        );
        let mut sssp_checked = 0;
        let mut cores: std::collections::BTreeMap<u32, Vec<bool>> = Default::default();
        for done in &report.completions {
            let request = &s.stream[done.id as usize];
            match request.kind {
                layers::QueryKind::Sssp { source } if sssp_checked < SSSP_SAMPLES => {
                    sssp_checked += 1;
                    let reachable = layers::sssp_ref(&s.graph, source)
                        .iter()
                        .filter(|&&d| d != layers::UNREACHABLE)
                        .count() as u64;
                    checks.equal(
                        &format!("request {}: vertices reachable from {source}", done.id),
                        1,
                        &done.result,
                        &reachable,
                    );
                }
                layers::QueryKind::KCoreMember { k, vertex } => {
                    let members = cores
                        .entry(k)
                        .or_insert_with(|| layers::kcore_ref(&s.graph, k));
                    checks.equal(
                        &format!("request {}: {vertex} in the {k}-core", done.id),
                        1,
                        &done.result,
                        &u64::from(members[vertex as usize]),
                    );
                }
                _ => {}
            }
        }
    }

    fn probes(
        &self,
        run: &Run,
        s: &ServeState,
        _first: &RepOutput<layers::ServeReport>,
        checks: &mut Checks,
    ) {
        let tr = &run.tracer;
        let threads = run.cfg.threads;
        let cluster = layers::case2();
        let dist = layers::build_dist(tr, &s.graph, &s.assignment, threads);

        // Is an 8-lane wave cheaper on the host than its 8 lanes alone?
        // Alone means the plain SSSP program, the tight loop a batched
        // one has to match; personalized PageRank has only the lane
        // program, so its lanes run alone as 1-lane waves.
        let lanes = layers::pick_vertices(run.cfg.seed ^ 0x8, s.graph.num_vertices(), 8);
        let iterations = layers::serve_config(threads).ppr_iterations;
        let sssp8 = layers::multi_sssp(&lanes);
        let ppr8 = layers::multi_ppr(&lanes, iterations);
        layers::run(tr, "serve.wave8", "sssp", &cluster, &dist, &sssp8, threads);
        layers::run(tr, "serve.wave8", "ppr", &cluster, &dist, &ppr8, threads);
        for &lane in &lanes {
            let (sssp1, ppr1) = (layers::sssp(lane), layers::multi_ppr(&[lane], iterations));
            layers::run(tr, "serve.solo8", "sssp", &cluster, &dist, &sssp1, threads);
            layers::run(tr, "serve.solo8", "ppr", &cluster, &dist, &ppr1, threads);
        }

        // Thread-count invariance, on a prefix to keep the probe short.
        let prefix = &s.stream[..s.stream.len() / 5];
        run.tracer.set_enabled(false);
        let serve = |threads| {
            let cfg = layers::serve_config(threads);
            identity(&serve_outputs(&layers::serve(
                tr, &cluster, &dist, &cfg, prefix,
            )))
        };
        checks.equal(
            "serving on 1 thread equals serving on the run's threads",
            prefix.len(),
            &serve(1),
            &serve(threads),
        );
        run.tracer.set_enabled(true);
    }
}
