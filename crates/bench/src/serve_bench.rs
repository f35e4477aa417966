//! Query-serving baseline (`BENCH_serve.json`).
//!
//! The tentpole scenario for the serving layer: an open-loop stream of
//! per-source SSSP, personalized-PageRank, and k-core membership queries
//! from two weighted tenants is served over one shared CCR-free hybrid
//! partition of the power-law fixture, with batched multi-source waves,
//! bounded-queue admission control, and stride weighted fair scheduling
//! (`hetgraph_serve`). Every latency is *simulated* seconds — arrival
//! times come from the seeded load generator and waves advance the clock
//! by their kernel makespans — so the measured p50/p99/throughput are
//! bit-reproducible on any host.
//!
//! The experiment runs the identical stream at 1, 2, and 4 host threads
//! and records each run's composition digest (batch membership + every
//! response value): the three must agree, which is the "deterministic
//! batch composition" leg of the serve perf gate. `--check` gates CI on
//! the committed baseline: p99 latency must not regress past
//! [`CHECK_P99_TOLERANCE`], throughput must not drop past
//! [`CHECK_THROUGHPUT_TOLERANCE`], and (at the baseline's scale) the
//! digest must match bit-for-bit (see [`gated_rows`] for the exact rules).
//!
//! Two *host* numbers ride along, kept apart from the simulated ones:
//! host requests per wall-clock second, and `batched_over_solo_sssp` —
//! one 8-lane SSSP wave over its eight sources run alone with the plain
//! `Sssp` program, both timed in this process so runner speed cancels.
//! The ratio is gated at [`CHECK_BATCHED_OVER_SOLO_MAX`]: batching must
//! not cost the host more than running the lanes one by one.

use std::time::Instant;

use hetgraph_apps::Sssp;
use hetgraph_cluster::Cluster;
use hetgraph_core::{obs::OFF, VertexId};
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_gen::PowerLawConfig;
use hetgraph_partition::{MachineWeights, PartitionerKind};
use hetgraph_serve::{LoadGenConfig, QueryKind, Request, ServeConfig, Server, SsspLanes};
use serde::Value;

use crate::context::ExperimentContext;
use crate::gate::{self, Bound, Row};
use crate::output;

/// Requests in the served stream at `--scale 1` (the committed gate
/// requires at least 2000); smoke runs at other scales shrink the
/// stream proportionally, floored at [`MIN_REQUESTS`].
pub const REQUESTS: usize = 2500;

/// Request-count floor for downscaled smoke runs.
pub const MIN_REQUESTS: usize = 250;

/// Tenant scheduling weights (tenant 0 gets 2x the lanes under backlog).
pub const TENANT_WEIGHTS: [u32; 2] = [2, 1];

/// Mean simulated inter-arrival gap, seconds. Tuned so the batcher sees
/// real backlog (multi-lane waves) without pushing the bounded queue
/// into steady-state shedding at the committed scale.
pub const MEAN_INTERARRIVAL_S: f64 = 0.006;

/// Host thread counts the digest must agree across.
pub const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// The `BENCH_serve.json` payload.
#[derive(Debug, serde::Serialize)]
pub struct ServeBench {
    /// Graph downscale factor the fixture was generated at.
    pub scale: u32,
    /// Vertices in the fixture.
    pub vertices: u32,
    /// Edges in the fixture.
    pub edges: usize,
    /// Simulated machines (Cluster::case2).
    pub machines: usize,
    /// Requests offered by the load generator.
    pub requests: usize,
    /// Tenant scheduling weights (length = tenant count).
    pub tenant_weights: Vec<u32>,
    /// Mean simulated inter-arrival gap, seconds.
    pub mean_interarrival_s: f64,
    /// Batch window held open after an idle arrival, simulated seconds.
    pub batch_window_s: f64,
    /// Lane cap per wave.
    pub max_batch: usize,
    /// Per-tenant admission-control depth budget.
    pub queue_budget: usize,
    /// Requests served (offered minus shed).
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Superstep waves executed.
    pub waves: usize,
    /// Mean requests per wave.
    pub mean_batch: f64,
    /// Per-tenant served counts.
    pub per_tenant_served: Vec<u64>,
    /// Simulated end-to-end duration, seconds.
    pub sim_duration_s: f64,
    /// Median served latency, simulated seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile served latency, simulated seconds.
    pub p99_latency_s: f64,
    /// Mean served latency, simulated seconds.
    pub mean_latency_s: f64,
    /// Served requests per simulated second.
    pub throughput_rps: f64,
    /// Batch-composition digest (hex), identical across the thread sweep.
    pub composition_digest: String,
    /// The digest observed at each [`THREAD_SWEEP`] entry, in order.
    pub thread_digests: Vec<String>,
    /// Served requests per *host* wall-clock second, from the sweep's
    /// 1-thread run (compare with the simulated `throughput_rps`).
    pub host_rps: f64,
    /// Host time of one 8-lane SSSP wave over the host time of its eight
    /// sources run alone with the plain `Sssp` program, same process.
    pub batched_over_solo_sssp: f64,
    /// Total experiment wall-clock, seconds.
    pub total_wall_s: f64,
}

/// Run the serving baseline, print its table, and (with `--out`) write
/// `BENCH_serve.json`.
pub fn serve(ctx: &ExperimentContext) -> ServeBench {
    let t0 = Instant::now();
    let scale = ctx.scale;
    // The serving corpus: latency is the object of study, not graph
    // scale, so the fixture stays wave-sized (seconds per run, not
    // minutes) even at --scale 1.
    let n = (40_000 / scale).max(4_000);
    let requests = (REQUESTS / scale as usize).max(MIN_REQUESTS);

    println!("== serve baseline (scale {scale}) ==");
    let graph = PowerLawConfig::new(n, 2.1).generate(42);
    let edges = graph.num_edges();
    let cluster = Cluster::case2();
    // Thread-count machine weights: the serving layer starts answering
    // immediately instead of amortizing a profiling pass (the CLI's
    // `hetgraph serve` makes the same trade).
    let weights = MachineWeights::from_thread_counts(&cluster);
    let assignment = PartitionerKind::Hybrid
        .build()
        .partition(&graph, &weights, 1, &OFF);
    let dist = DistributedGraph::new(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");

    let load = LoadGenConfig::standard(42, requests, MEAN_INTERARRIVAL_S);
    let stream = load.generate(graph.num_vertices());
    let mut cfg = ServeConfig::standard(TENANT_WEIGHTS.len());
    cfg.tenant_weights = TENANT_WEIGHTS.to_vec();
    println!(
        "fixture: power-law n={n} alpha=2.1 seed=42 ({edges} edges), case2, \
         hybrid; {requests} requests, {} tenants weighted {:?}, mean gap \
         {MEAN_INTERARRIVAL_S}s, window {}s, max batch {}, budget {}",
        TENANT_WEIGHTS.len(),
        TENANT_WEIGHTS,
        cfg.batch_window_s,
        cfg.max_batch,
        cfg.queue_budget,
    );

    // The thread sweep: identical stream and placement at 1/2/4 host
    // threads. The last run's report is the recorded measurement; the
    // digests of all three are recorded for the determinism gate.
    let server = Server::new(&cluster);
    let mut thread_digests = Vec::new();
    let mut report = None;
    let mut host_rps = 0.0;
    for &threads in &THREAD_SWEEP {
        cfg.threads = threads;
        let t = Instant::now();
        let r = server.serve(&dist, &cfg, &stream);
        if threads == 1 {
            host_rps = r.served() as f64 / t.elapsed().as_secs_f64();
        }
        thread_digests.push(format!("{:016x}", r.composition_digest));
        report = Some(r);
    }
    let report = report.expect("thread sweep is nonempty");
    let batched_over_solo = batched_over_solo_sssp(&cluster, &dist, &stream, ctx.threads);

    let bench = ServeBench {
        scale,
        vertices: n,
        edges,
        machines: cluster.len(),
        requests,
        tenant_weights: TENANT_WEIGHTS.to_vec(),
        mean_interarrival_s: MEAN_INTERARRIVAL_S,
        batch_window_s: cfg.batch_window_s,
        max_batch: cfg.max_batch,
        queue_budget: cfg.queue_budget,
        served: report.served(),
        shed: report.shed.len(),
        waves: report.waves.len(),
        mean_batch: if report.waves.is_empty() {
            0.0
        } else {
            report.served() as f64 / report.waves.len() as f64
        },
        per_tenant_served: report.per_tenant_served.clone(),
        sim_duration_s: report.sim_duration_s,
        p50_latency_s: report.latency_quantile_s(0.5).unwrap_or(0.0),
        p99_latency_s: report.latency_quantile_s(0.99).unwrap_or(0.0),
        mean_latency_s: report.mean_latency_s().unwrap_or(0.0),
        throughput_rps: report.throughput_rps(),
        composition_digest: format!("{:016x}", report.composition_digest),
        thread_digests,
        host_rps,
        batched_over_solo_sssp: batched_over_solo,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };

    output::print_table(
        &[
            "served", "shed", "waves", "batch", "p50_ms", "p99_ms", "mean_ms", "rps", "sim_s",
        ],
        &[vec![
            bench.served.to_string(),
            bench.shed.to_string(),
            bench.waves.to_string(),
            format!("{:.2}", bench.mean_batch),
            output::f3(bench.p50_latency_s * 1e3),
            output::f3(bench.p99_latency_s * 1e3),
            output::f3(bench.mean_latency_s * 1e3),
            output::f3(bench.throughput_rps),
            output::f3(bench.sim_duration_s),
        ]],
    );
    println!(
        "per-tenant served: {:?}; digest {} at threads {:?}",
        bench.per_tenant_served, bench.composition_digest, THREAD_SWEEP
    );
    println!(
        "host: {:.1} req/s on 1 thread; 8-lane sssp wave / 8 solo runs = {:.2}",
        bench.host_rps, bench.batched_over_solo_sssp
    );

    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_serve",
        &bench,
        &output::RunManifest::collect(42, ctx.threads, scale, bench.total_wall_s),
    );
    bench
}

/// Host time of one 8-lane `SsspLanes` wave divided by the host time of
/// its eight sources run alone with the plain [`Sssp`] program — the
/// tight loop a batched wave has to match. The sources are the first
/// eight distinct SSSP sources of `stream`; each side is the fastest of
/// five runs, all in this process.
fn batched_over_solo_sssp(
    cluster: &Cluster,
    dist: &DistributedGraph<'_>,
    stream: &[Request],
    threads: usize,
) -> f64 {
    const LANES: usize = 8;
    const REPEATS: usize = 5;
    let mut sources: Vec<VertexId> = Vec::new();
    for r in stream {
        if let QueryKind::Sssp { source } = r.kind {
            if sources.len() < LANES && !sources.contains(&source) {
                sources.push(source);
            }
        }
    }
    assert_eq!(sources.len(), LANES, "stream has too few SSSP sources");
    let engine = SimEngine::new(cluster);
    let fastest = |run: &dyn Fn()| {
        (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                run();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let wave = SsspLanes::<LANES>::new(sources.clone());
    let batched = fastest(&|| {
        std::hint::black_box(engine.run(dist, &wave, threads));
    });
    let solo = fastest(&|| {
        for &s in &sources {
            std::hint::black_box(engine.run(dist, &Sssp::new(s), threads));
        }
    });
    batched / solo
}

/// Ceiling on `batched_over_solo_sssp` in a fresh run: an 8-lane wave may
/// cost the host at most this multiple of its lanes run alone. At
/// `--scale 1` on the 2-core reference box the `Vec`-valued lane programs
/// measured 2.71 and lane blocks 0.43–0.72.
pub const CHECK_BATCHED_OVER_SOLO_MAX: f64 = 1.5;

/// Allowed p99 latency growth before the gate fails: a fresh run's
/// simulated p99 may be at most this multiple of the baseline's.
pub const CHECK_P99_TOLERANCE: f64 = 1.15;

/// Allowed throughput loss before the gate fails: a fresh run must keep
/// at least `baseline / CHECK_THROUGHPUT_TOLERANCE` served requests per
/// simulated second.
pub const CHECK_THROUGHPUT_TOLERANCE: f64 = 1.15;

/// The gated rows of a `BENCH_serve.json` document. Every gated quantity
/// is either simulated-time or a ratio of two host times taken in the
/// same process, so the gate is host-speed independent by construction;
/// `host_rps` rides along as context.
pub fn gated_rows(doc: &Value) -> Result<Vec<Row>, String> {
    let scale = gate::get(doc, "scale", Value::as_u64)?;
    let digest = gate::get(doc, "composition_digest", Value::as_str)?;
    let mut sweep = gate::get(doc, "thread_digests", Value::as_seq)?.iter();
    let sweep_agrees = sweep.all(|d| d.as_str() == Some(digest));
    let num = |name: &str, bound| {
        let value = gate::get(doc, name, Value::as_f64)?;
        Ok::<_, String>(Row::num(name, value, bound))
    };
    Ok(vec![
        Row::num(
            "digest agrees across threads",
            f64::from(sweep_agrees),
            Bound::AtLeast(1.0),
        ),
        num("p99_latency_s", Bound::AtMostTimes(CHECK_P99_TOLERANCE))?,
        num(
            "throughput_rps",
            Bound::AtLeastTimes(1.0 / CHECK_THROUGHPUT_TOLERANCE),
        )?,
        num("shed", Bound::ZeroIfBaselineZero)?,
        num(
            "batched_over_solo_sssp",
            Bound::AtMost(CHECK_BATCHED_OVER_SOLO_MAX),
        )?,
        // The digest depends on the fixture, so it is only comparable when
        // both documents share a scale (CI does; `--check --scale N`
        // smoke runs at other scales skip this leg).
        Row {
            name: "composition_digest".into(),
            value: gate::Cell::Text(digest.into()),
            bound: Bound::SameAtScale(scale),
        },
        num("host_rps", Bound::Info)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_serves_the_stream_with_multi_lane_waves() {
        let bench = serve(&ExperimentContext::at_scale(10));
        assert_eq!(bench.served + bench.shed, bench.requests);
        assert!(bench.served >= bench.requests * 9 / 10, "{bench:?}");
        assert!(bench.waves > 0 && bench.mean_batch > 1.0, "{bench:?}");
        assert!(bench.p99_latency_s >= bench.p50_latency_s);
        assert!(bench.throughput_rps > 0.0);
        assert!(bench.host_rps > 0.0);
        assert!(
            bench.batched_over_solo_sssp > 0.0 && bench.batched_over_solo_sssp.is_finite(),
            "{bench:?}"
        );
        // The thread sweep agreed.
        assert!(bench
            .thread_digests
            .iter()
            .all(|d| d == &bench.composition_digest));
        // Weighted fairness reaches the tenant counters.
        assert_eq!(
            bench.per_tenant_served.iter().sum::<u64>(),
            bench.served as u64
        );
    }

    /// A fabricated healthy measurement.
    fn fake_bench() -> ServeBench {
        ServeBench {
            scale: 1,
            vertices: 40_000,
            edges: 160_000,
            machines: 2,
            requests: REQUESTS,
            tenant_weights: TENANT_WEIGHTS.to_vec(),
            mean_interarrival_s: MEAN_INTERARRIVAL_S,
            batch_window_s: 0.05,
            max_batch: 16,
            queue_budget: 64,
            served: REQUESTS,
            shed: 0,
            waves: 300,
            mean_batch: 8.3,
            per_tenant_served: vec![1250, 1250],
            sim_duration_s: 12.0,
            p50_latency_s: 0.040,
            p99_latency_s: 0.100,
            mean_latency_s: 0.045,
            throughput_rps: 208.0,
            composition_digest: "00deadbeef00cafe".to_string(),
            thread_digests: vec!["00deadbeef00cafe".to_string(); 3],
            host_rps: 200.0,
            batched_over_solo_sssp: 1.0,
            total_wall_s: 1.0,
        }
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let failed = gate::failed_rows(gated_rows, &fake_bench(), &fake_bench());
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn check_flags_every_regression_class() {
        let mut regressed = fake_bench();
        regressed.p99_latency_s = 0.200; // p99 blew past tolerance
        regressed.throughput_rps = 100.0; // throughput collapsed
        regressed.shed = 7; // it started shedding
        regressed.composition_digest = "ffff000011112222".to_string(); // drifted
        regressed.thread_digests[2] = "1234123412341234".to_string(); // and raced
        regressed.batched_over_solo_sssp = 2.1; // batching lost on the host again
        let failed = gate::failed_rows(gated_rows, &regressed, &fake_bench());
        assert_eq!(failed.len(), 6, "{failed:?}");
        assert!(failed.iter().any(|f| f == "batched_over_solo_sssp"));
        assert!(failed.iter().any(|f| f == "p99_latency_s"));
        assert!(failed.iter().any(|f| f == "throughput_rps"));
        assert!(failed.iter().any(|f| f == "shed"));
        assert!(failed.iter().any(|f| f == "composition_digest"));
        assert!(failed.iter().any(|f| f == "digest agrees across threads"));
    }

    #[test]
    fn check_tolerates_small_dips_and_other_scales() {
        let mut dipped = fake_bench();
        dipped.p99_latency_s = 0.110; // within 1.15x
        dipped.throughput_rps = 190.0; // within /1.15
        assert!(gate::failed_rows(gated_rows, &dipped, &fake_bench()).is_empty());
        // A different scale skips the digest leg entirely.
        let mut other_scale = fake_bench();
        other_scale.scale = 10;
        other_scale.composition_digest = "ffff000011112222".to_string();
        other_scale.thread_digests = vec!["ffff000011112222".to_string(); 3];
        assert!(gate::failed_rows(gated_rows, &other_scale, &fake_bench()).is_empty());
    }
}
