//! Superstep-kernel perf baseline (`BENCH_engine.json`).
//!
//! Mirrors the partition perf baseline: every measurement is taken on a
//! frozen power-law fixture (`generate(42)`, ≥1M vertices / ~5M edges at
//! scale 1) against a **vendored copy of the pre-fast-path kernel**
//! ([`seed_kernel`]) run live in the same process, so the headline
//! numbers are host-speed-independent ratios, not wall-clocks.
//!
//! Per app (PageRank 5 iters, its f32 twin, SSSP, k-core 3):
//!
//! 1. **Seed-vs-fast comparison** — interleaved min-of-`reps` wall-clock
//!    of the vendored seed kernel against `SimEngine` at one thread,
//!    asserting on every rep that the two produce the identical
//!    `SimReport` *and* identical final vertex data (the fast path is an
//!    optimization, not an approximation).
//! 2. **Throughput rows** — edge-visits/second of the fast kernel; for
//!    PageRank also at 2 and 4 host threads (each asserted bit-identical
//!    to the 1-thread report).
//!
//! `check` gates CI on the committed `BENCH_engine.json`: normalized
//! single-thread rates and the per-app speedups must stay within
//! [`CHECK_TOLERANCE`] of the baseline. Multi-thread rows are recorded
//! but not gated (their scaling depends on the runner's core count,
//! which normalization cannot cancel).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use hetgraph_apps::{KCore, PageRank, PageRank32, Sssp};
use hetgraph_cluster::{Cluster, EnergyModel, EnergyReport, GraphShape, NetworkModel, WorkCounts};
use hetgraph_core::BitSet;
use hetgraph_engine::{ActiveInit, Direction, DistributedGraph, GasProgram, SimEngine, SimReport};
use hetgraph_gen::PowerLawConfig;
use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};
use serde::Value;

use crate::context::ExperimentContext;
use crate::output;

/// Fixed chunk size of the kernel's self-scheduling — vendored with the
/// seed loop so its merge order matches the engine's exactly.
const CHUNK: usize = 1_024;

/// One app × thread-count throughput measurement of the fast kernel.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KernelRow {
    /// Application name (report key).
    pub app: String,
    /// Engine host threads.
    pub threads: usize,
    /// Best-of-`reps` wall-clock of one full run, seconds.
    pub wall_s: f64,
    /// Simulated edge-work units retired per second at `wall_s`.
    pub edges_per_sec: f64,
}

/// One app's seed-vs-fast kernel comparison (both at one host thread).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SeedComparison {
    /// Application name.
    pub app: String,
    /// Interleaved repetitions; both columns are min-of-`reps`.
    pub reps: usize,
    /// Best wall-clock of the vendored seed kernel, seconds.
    pub seed_wall_s: f64,
    /// Best wall-clock of the fast kernel, seconds.
    pub fast_wall_s: f64,
    /// `seed_wall_s / fast_wall_s`.
    pub speedup: f64,
    /// Whether every rep produced the identical report and vertex data.
    pub identical: bool,
}

/// The `BENCH_engine.json` payload.
#[derive(Debug, serde::Serialize)]
pub struct EngineBench {
    /// Graph downscale factor the fixture was generated at.
    pub scale: u32,
    /// Vertices in the fixture.
    pub vertices: u32,
    /// Edges in the fixture.
    pub edges: usize,
    /// Simulated machines (Cluster::case2).
    pub machines: usize,
    /// Fast-kernel throughput rows.
    pub rows: Vec<KernelRow>,
    /// Per-app seed-vs-fast comparisons.
    pub seed: Vec<SeedComparison>,
    /// Total experiment wall-clock, seconds.
    pub total_wall_s: f64,
}

/// Scratch buffers of one seed-kernel gather chunk (the pre-fast-path
/// array-of-structs layout).
struct SeedChunk<D> {
    changes: Vec<(u32, D, bool)>,
    work: Vec<WorkCounts>,
    sync_counts: Vec<u64>,
}

/// The pre-fast-path superstep kernel, vendored verbatim as the live
/// baseline: bitset frontier rebuilt into a `Vec<u32>` every step with a
/// full-bitmap clear, iterator-based CSR walks with no prefetch, and
/// array-of-structs `Vec<WorkCounts>` chunk tallies. Chunking and merge
/// order are identical to the engine's, so its `SimReport` and final
/// vertex data must match the fast kernel bit for bit — asserted on
/// every benchmark rep.
pub fn seed_kernel<P: GasProgram>(
    cluster: &Cluster,
    dist: &DistributedGraph<'_>,
    program: &P,
) -> (Vec<P::VertexData>, SimReport) {
    let graph = dist.graph();
    let assignment = dist.assignment();
    let p = cluster.len();
    let n = graph.num_vertices() as usize;
    let profile = program.profile();
    let shape = GraphShape::of(graph);
    let meta = graph.meta();
    let machines = cluster.machines();
    let network = NetworkModel::default();
    let energy_model = EnergyModel::new(machines.to_vec());

    let mut data: Vec<P::VertexData> = (0..n as u32).map(|v| program.init(&meta, v)).collect();
    let mut active = match program.initial_active(&meta) {
        ActiveInit::All => BitSet::full(n),
        ActiveInit::Seeds(seeds) => {
            let mut s = BitSet::new(n);
            for v in seeds {
                s.insert(v as usize);
            }
            s
        }
    };

    let mut energy = EnergyReport::new(p);
    let mut per_machine_busy = vec![0.0f64; p];
    let mut total_work = vec![WorkCounts::zero(); p];
    let mut makespan = 0.0f64;
    let mut compute_total = 0.0f64;
    let mut comm_total = 0.0f64;
    let mut supersteps = 0usize;
    let mut converged = false;

    let mut active_list: Vec<u32> = Vec::new();
    let mut changed: Vec<u32> = Vec::new();
    let mut next_active = BitSet::new(n);
    let mut step_work = vec![WorkCounts::zero(); p];
    let mut sync_counts = vec![0u64; p];
    let mut busy = vec![0.0f64; p];
    let mut free: Vec<SeedChunk<P::VertexData>> = Vec::new();

    for step in 0..program.max_supersteps() {
        if active.is_empty() {
            converged = true;
            break;
        }
        active_list.clear();
        active_list.extend(active.iter().map(|v| v as u32));
        for w in &mut step_work {
            *w = WorkCounts::zero();
        }
        sync_counts.fill(0);

        // Gather + apply: collect every chunk, then merge in chunk order.
        let n_chunks = active_list.len().div_ceil(CHUNK);
        let mut gathered: Vec<SeedChunk<P::VertexData>> = Vec::with_capacity(n_chunks);
        for idx in 0..n_chunks {
            let lo = idx * CHUNK;
            let hi = (lo + CHUNK).min(active_list.len());
            let mut out = free.pop().unwrap_or_else(|| SeedChunk {
                changes: Vec::new(),
                work: vec![WorkCounts::zero(); p],
                sync_counts: vec![0u64; p],
            });
            for &v in &active_list[lo..hi] {
                let mut acc: Option<P::Accum> = None;
                seed_for_each_neighbor(dist, v, program.gather_direction(), |u, m| {
                    let (contrib, w) = program.gather(&meta, &data, v, u);
                    out.work[m].edge_units += w;
                    if let Some(c) = contrib {
                        acc = Some(match acc.take() {
                            Some(prev) => program.sum(prev, c),
                            None => c,
                        });
                    }
                });
                let master = assignment.master(v).index();
                out.work[master].vertex_units += 1.0;
                let (nd, did_change) = program.apply(&meta, v, &data[v as usize], acc, step);
                out.changes.push((v, nd, did_change));
                let mask = assignment.replica_mask(v);
                let replicas = mask.count_ones();
                if replicas > 1 {
                    out.sync_counts[master] += (replicas - 1) as u64;
                    let mut rest = mask;
                    while rest != 0 {
                        let m = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if m != master {
                            out.sync_counts[m] += 1;
                        }
                    }
                }
            }
            gathered.push(out);
        }
        changed.clear();
        for mut c in gathered {
            for i in 0..p {
                step_work[i].add(c.work[i]);
                sync_counts[i] += c.sync_counts[i];
            }
            for (v, nd, did_change) in c.changes.drain(..) {
                data[v as usize] = nd;
                if did_change {
                    changed.push(v);
                }
            }
            for w in &mut c.work {
                *w = WorkCounts::zero();
            }
            c.sync_counts.fill(0);
            free.push(c);
        }

        // Scatter over the changed vertices; full-bitmap clear each step.
        next_active.clear();
        if program.scatter_direction() != Direction::None {
            for &v in &changed {
                seed_for_each_neighbor(dist, v, program.scatter_direction(), |u, m| {
                    step_work[m].edge_units += 1.0;
                    if program.scatter_activates(&meta, &data, v, u, true) {
                        next_active.insert(u as usize);
                    }
                });
            }
        }

        // Timing and energy — the same serial section as the engine's.
        busy.clear();
        busy.extend((0..p).map(|i| profile.time_seconds(&machines[i], &step_work[i], &shape)));
        let step_compute = busy.iter().copied().fold(0.0f64, f64::max);
        let step_comm = network.step_comm_s(machines, &sync_counts);
        let step_wall = step_compute + step_comm;
        for i in 0..p {
            energy_model.account_step(&mut energy, i, busy[i], step_wall);
            per_machine_busy[i] += busy[i];
            total_work[i].add(step_work[i]);
        }
        makespan += step_wall;
        compute_total += step_compute;
        comm_total += step_comm;
        supersteps += 1;
        std::mem::swap(&mut active, &mut next_active);
    }
    if active.is_empty() {
        converged = true;
    }

    (
        data,
        SimReport {
            app: program.name().to_string(),
            supersteps,
            converged,
            makespan_s: makespan,
            compute_s: compute_total,
            comm_s: comm_total,
            per_machine_busy_s: per_machine_busy,
            per_machine_work: total_work,
            energy,
            steps: Vec::new(),
        },
    )
}

/// The seed kernel's scatter merge differs from the gather merge in one
/// way the fast path preserved: scatter edge counts land directly in
/// `step_work` in vertex order. Integer-valued unit counts make that sum
/// exact, so chunked u64 tallies reproduce it bit for bit.
fn seed_for_each_neighbor(
    dist: &DistributedGraph<'_>,
    v: u32,
    dir: Direction,
    mut f: impl FnMut(u32, usize),
) {
    match dir {
        Direction::In => {
            for (u, m) in dist.in_neighbors_owned(v) {
                f(u, m.index());
            }
        }
        Direction::Out => {
            for (u, m) in dist.out_neighbors_owned(v) {
                f(u, m.index());
            }
        }
        Direction::Both => {
            for (u, m) in dist.in_neighbors_owned(v) {
                f(u, m.index());
            }
            for (u, m) in dist.out_neighbors_owned(v) {
                f(u, m.index());
            }
        }
        Direction::None => {}
    }
}

/// Total simulated edge-work units in a report (gather + scatter visits).
fn edge_units(report: &SimReport) -> f64 {
    report.per_machine_work.iter().map(|w| w.edge_units).sum()
}

/// Benchmark one app: interleaved seed-vs-fast at one thread, then fast
/// rows at the extra thread counts (each asserted identical to 1-thread).
#[allow(clippy::too_many_arguments)]
fn bench_app<P>(
    name: &str,
    program: &P,
    cluster: &Cluster,
    dist: &DistributedGraph<'_>,
    reps: usize,
    extra_threads: &[usize],
    rows: &mut Vec<KernelRow>,
    seed: &mut Vec<SeedComparison>,
) where
    P: GasProgram,
    P::VertexData: PartialEq + std::fmt::Debug,
{
    let engine = SimEngine::new(cluster);
    let mut seed_wall_s = f64::INFINITY;
    let mut fast_wall_s = f64::INFINITY;
    let mut identical = true;
    let mut units = 0.0;
    for _ in 0..reps {
        // Interleave the two kernels so drift in machine state (frequency,
        // cache pressure) hits both columns equally.
        let t = Instant::now();
        let (seed_data, seed_report) = seed_kernel(cluster, dist, program);
        seed_wall_s = seed_wall_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let fast = engine.run(dist, program, 1);
        fast_wall_s = fast_wall_s.min(t.elapsed().as_secs_f64());
        identical &= seed_report == fast.report && seed_data == fast.data;
        units = edge_units(&fast.report);
    }
    assert!(
        identical,
        "{name}: fast kernel diverged from the vendored seed kernel"
    );
    seed.push(SeedComparison {
        app: name.to_string(),
        reps,
        seed_wall_s,
        fast_wall_s,
        speedup: seed_wall_s / fast_wall_s,
        identical,
    });
    rows.push(KernelRow {
        app: name.to_string(),
        threads: 1,
        wall_s: fast_wall_s,
        edges_per_sec: units / fast_wall_s,
    });
    let reference = engine.run(dist, program, 1);
    for &threads in extra_threads {
        let mut wall_s = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let out = engine.run(dist, program, threads);
            wall_s = wall_s.min(t.elapsed().as_secs_f64());
            assert_eq!(
                out.report, reference.report,
                "{name}: report changed at {threads} threads"
            );
            assert_eq!(
                out.data, reference.data,
                "{name}: vertex data changed at {threads} threads"
            );
        }
        rows.push(KernelRow {
            app: name.to_string(),
            threads,
            wall_s,
            edges_per_sec: units / wall_s,
        });
    }
}

/// Run the engine perf baseline, print its tables, and (with `--out`)
/// write `BENCH_engine.json`.
pub fn engine(ctx: &ExperimentContext) -> EngineBench {
    let t0 = Instant::now();
    let scale = ctx.scale;
    // Same fixture family and scale convention as the partition baseline;
    // at scale 1 this is the ~5M-edge headline graph.
    let n = (1_000_000 / scale).max(4_000);
    let reps = 3;

    println!("== engine perf baseline (scale {scale}) ==");
    let graph = PowerLawConfig::new(n, 2.1).generate(42);
    let edges = graph.num_edges();
    let cluster = Cluster::case2();
    let weights = MachineWeights::uniform(cluster.len());
    let assignment = RandomHash::new().partition(&graph, &weights);
    let dist = DistributedGraph::new_with_threads(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");
    println!("fixture: power-law n={n} alpha=2.1 seed=42 ({edges} edges), case2, random_hash");

    let mut rows = Vec::new();
    let mut seed = Vec::new();
    bench_app(
        "pagerank",
        &PageRank::new(5),
        &cluster,
        &dist,
        reps,
        &[2, 4],
        &mut rows,
        &mut seed,
    );
    bench_app(
        "pagerank_f32",
        &PageRank32::new(5),
        &cluster,
        &dist,
        reps,
        &[],
        &mut rows,
        &mut seed,
    );
    bench_app(
        "sssp",
        &Sssp::new(0),
        &cluster,
        &dist,
        reps,
        &[],
        &mut rows,
        &mut seed,
    );
    bench_app(
        "kcore",
        &KCore::new(3),
        &cluster,
        &dist,
        reps,
        &[],
        &mut rows,
        &mut seed,
    );

    let row_cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.threads.to_string(),
                output::f3(r.wall_s),
                format!("{:.0}", r.edges_per_sec),
            ]
        })
        .collect();
    output::print_table(&["app", "threads", "wall_s", "edge_units/sec"], &row_cells);
    println!();
    let seed_cells: Vec<Vec<String>> = seed
        .iter()
        .map(|s| {
            vec![
                s.app.clone(),
                output::f3(s.seed_wall_s),
                output::f3(s.fast_wall_s),
                format!("{:.2}x", s.speedup),
                s.identical.to_string(),
            ]
        })
        .collect();
    output::print_table(
        &["app", "seed_wall_s", "fast_wall_s", "speedup", "identical"],
        &seed_cells,
    );

    let bench = EngineBench {
        scale,
        vertices: n,
        edges,
        machines: cluster.len(),
        rows,
        seed,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };
    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_engine",
        &bench,
        &output::RunManifest::collect(42, ctx.threads, scale, bench.total_wall_s),
    );
    bench
}

/// Fraction of the baseline's normalized throughput a fresh run may lose
/// before the regression gate fails (same headroom as the partition
/// gate).
pub const CHECK_TOLERANCE: f64 = 0.75;

/// Re-run the engine baseline and compare it against the committed
/// `BENCH_engine.json` at `baseline_path`, failing on regressions.
///
/// Wall-clock is machine-dependent, so absolute rates are never compared
/// across runs. Each single-thread fast-kernel wall is normalized by the
/// *same run's* vendored-seed wall for the same app (the ratio cancels
/// host speed), and the gate fails when:
///
/// - a fresh seed-vs-fast rep was not bit-identical, or
/// - an app's normalized rate (= its speedup) drops below
///   [`CHECK_TOLERANCE`] of the baseline's.
///
/// Multi-thread rows are informational only: their scaling depends on
/// the runner's core count, which normalization cannot cancel. The fresh
/// run never writes output, regardless of `ctx.out_dir`.
pub fn check(ctx: &ExperimentContext, baseline_path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
    let baseline = serde_json::from_str(&text)
        .map_err(|e| format!("parsing {}: {e}", baseline_path.display()))?;
    let mut fresh_ctx = ctx.clone();
    fresh_ctx.out_dir = None;
    let fresh = engine(&fresh_ctx);
    println!("\n== engine bench check vs {} ==", baseline_path.display());
    let failures = check_against(&fresh, &baseline)?;
    if failures.is_empty() {
        println!(
            "engine bench check: OK ({} apps within {:.0}% of baseline speedups)",
            fresh.seed.len(),
            100.0 * (1.0 - CHECK_TOLERANCE),
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The pure comparison core of [`check`]: fresh measurement vs parsed
/// baseline. `Err` means the baseline document is malformed; `Ok` carries
/// the (possibly empty) list of regression messages.
fn check_against(fresh: &EngineBench, baseline: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let base_speedups = baseline_speedups(baseline)?;
    for s in &fresh.seed {
        if !s.identical {
            failures.push(format!(
                "{}: fresh seed-vs-fast kernels were not bit-identical",
                s.app
            ));
        }
        let Some(base) = base_speedups.get(&s.app) else {
            failures.push(format!("baseline has no seed comparison for {}", s.app));
            continue;
        };
        if s.speedup < CHECK_TOLERANCE * base {
            failures.push(format!(
                "{}: kernel speedup {:.2}x is below {CHECK_TOLERANCE} x baseline {base:.2}x",
                s.app, s.speedup
            ));
        }
    }
    Ok(failures)
}

/// Extract `app -> speedup` from a parsed baseline document.
fn baseline_speedups(baseline: &Value) -> Result<BTreeMap<String, f64>, String> {
    let rows = baseline
        .get("seed")
        .and_then(Value::as_seq)
        .ok_or("baseline is missing the seed array")?;
    rows.iter()
        .map(|row| {
            let app = row
                .get("app")
                .and_then(Value::as_str)
                .ok_or("baseline seed row is missing app")?;
            let speedup = row
                .get("speedup")
                .and_then(Value::as_f64)
                .ok_or("baseline seed row is missing speedup")?;
            Ok((app.to_string(), speedup))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_kernel_matches_engine_for_every_registered_shape() {
        let g = PowerLawConfig::new(2_000, 2.1).generate(9);
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2));
        let dist = DistributedGraph::new(&g, &a).expect("assignment must cover the graph");
        let engine = SimEngine::new(&cluster);
        let (sd, sr) = seed_kernel(&cluster, &dist, &PageRank::new(6));
        let fast = engine.run(&dist, &PageRank::new(6), 1);
        assert_eq!(sr, fast.report);
        assert_eq!(sd, fast.data);
        let (sd, sr) = seed_kernel(&cluster, &dist, &Sssp::new(0));
        let fast = engine.run(&dist, &Sssp::new(0), 1);
        assert_eq!(sr, fast.report);
        assert_eq!(sd, fast.data);
        let (sd, sr) = seed_kernel(&cluster, &dist, &KCore::new(3));
        let fast = engine.run(&dist, &KCore::new(3), 1);
        assert_eq!(sr, fast.report);
        assert_eq!(sd, fast.data);
    }

    #[test]
    fn bench_covers_every_app_and_thread_count() {
        let ctx = ExperimentContext::at_scale(4_096);
        let bench = engine(&ctx);
        let keys: Vec<(&str, usize)> = bench
            .rows
            .iter()
            .map(|r| (r.app.as_str(), r.threads))
            .collect();
        assert_eq!(
            keys,
            [
                ("pagerank", 1),
                ("pagerank", 2),
                ("pagerank", 4),
                ("pagerank_f32", 1),
                ("sssp", 1),
                ("kcore", 1)
            ]
        );
        assert_eq!(bench.seed.len(), 4);
        assert!(bench.seed.iter().all(|s| s.identical));
        assert!(bench.rows.iter().all(|r| r.edges_per_sec > 0.0));
    }

    /// A fabricated measurement: every app at 2x over the seed kernel.
    fn fake_bench() -> EngineBench {
        let apps = ["pagerank", "pagerank_f32", "sssp", "kcore"];
        let rows = apps
            .iter()
            .map(|a| KernelRow {
                app: a.to_string(),
                threads: 1,
                wall_s: 0.5,
                edges_per_sec: 1.0e7,
            })
            .collect();
        let seed = apps
            .iter()
            .map(|a| SeedComparison {
                app: a.to_string(),
                reps: 3,
                seed_wall_s: 1.0,
                fast_wall_s: 0.5,
                speedup: 2.0,
                identical: true,
            })
            .collect();
        EngineBench {
            scale: 1,
            vertices: 1_000_000,
            edges: 5_000_000,
            machines: 2,
            rows,
            seed,
            total_wall_s: 10.0,
        }
    }

    fn to_baseline(bench: &EngineBench) -> Value {
        serde_json::from_str(&serde_json::to_string_pretty(bench).unwrap()).unwrap()
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let bench = fake_bench();
        let failures = check_against(&bench, &to_baseline(&bench)).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_normalization_cancels_host_speed() {
        // A uniformly 3x slower host: every wall scales equally, so the
        // speedups — the only gated quantity — are unchanged.
        let mut slow = fake_bench();
        for row in &mut slow.rows {
            row.wall_s *= 3.0;
            row.edges_per_sec /= 3.0;
        }
        for s in &mut slow.seed {
            s.seed_wall_s *= 3.0;
            s.fast_wall_s *= 3.0;
        }
        let failures = check_against(&slow, &to_baseline(&fake_bench())).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_flags_divergence_and_speedup_regressions() {
        let baseline = to_baseline(&fake_bench());
        let mut regressed = fake_bench();
        regressed.seed[0].speedup = 1.0; // pagerank lost its edge
        regressed.seed[2].identical = false; // sssp diverged
        let failures = check_against(&regressed, &baseline).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("pagerank: kernel")));
        assert!(failures
            .iter()
            .any(|f| f.contains("sssp") && f.contains("identical")));
        // 25% noise within tolerance: not a failure.
        let mut noisy = fake_bench();
        for s in &mut noisy.seed {
            s.speedup = 1.6;
        }
        assert!(check_against(&noisy, &baseline).unwrap().is_empty());
    }

    #[test]
    fn check_rejects_malformed_baselines() {
        let bench = fake_bench();
        let err = check_against(&bench, &Value::Null).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
