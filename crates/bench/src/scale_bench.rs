//! The bounded-RSS scale benchmark behind `exp_scale` / `BENCH_scale.json`.
//!
//! Runs the full gen → partition → build → simulate pipeline twice over
//! the same edge set — once through the compressed streaming substrate
//! (shard directory → [`StreamPartitioner`] → [`CompactDistGraph`]) and
//! once through the plain in-memory path (`Graph` →
//! [`DistributedGraph`]) — and reports, per representation, the phase
//! walls, simulated edges/sec, the **resident structure bytes per edge**
//! (the audited quantity), and the process `VmHWM` snapshot.
//!
//! The fixture is a production-target R-MAT spec with the social-network
//! stand-in's skew character but 500M full-scale edges, so `--scale 10`
//! is the ~50M-edge run ROADMAP item 2 asks for. The committed
//! `BENCH_scale.json` is generated at that scale by `scripts/bench.sh`.
//!
//! ## What the `--check` gate compares
//!
//! Wall-clock rates are host-dependent and are *not* gated. The gate
//! ([`gated_rows`]) is on memory, which is stable across hosts for a
//! fixed (spec, seed, scale) — so `exp_scale --check` re-measures at the
//! *baseline's* scale, whatever `--scale` says:
//!
//! - the compact representation's resident bytes/edge must stay within
//!   the absolute [`RSS_BUDGET_BYTES_PER_EDGE`] budget,
//! - neither the compact bytes/edge nor its peak-RSS snapshot may
//!   regress more than 15 % over the committed baseline, and
//! - both pipelines must produce bitwise-identical `SimReport`s (the
//!   correctness contract that makes the memory comparison meaningful).
//!
//! `VmHWM` is a process-lifetime high-water mark, so the compact
//! pipeline runs *first*: its snapshot is unpolluted by the plain
//! structures, while the plain row's snapshot is an upper bound that
//! includes everything before it. Transient build buffers (the stream
//! partitioner's assignment, the varint fill lanes) exceed the 12 B/edge
//! structure budget while they are alive — the budget audits what stays
//! resident for the kernel, which is what bounds the largest graph a
//! host can *simulate*, and the manifest records the honest process peak
//! alongside it.
//!
//! [`StreamPartitioner`]: hetgraph_partition::StreamPartitioner

use std::path::PathBuf;
use std::time::Instant;

use hetgraph_apps::AnyApp;
use hetgraph_cluster::Cluster;
use hetgraph_core::obs::OFF;
use hetgraph_engine::{CompactDistGraph, DistributedGraph, SimEngine, SimReport};
use hetgraph_gen::{GraphSpec, NaturalGraph, StreamingGenerator};
use hetgraph_partition::{MachineWeights, PartitionerKind};
use serde::Value;

use crate::context::ExperimentContext;
use crate::gate::{self, Bound, Row};
use crate::output::{self, f3, print_table};

/// Absolute resident-structure budget for the compact representation,
/// bytes per directed edge (vs ~40+ for the plain edge list + two
/// `usize`-offset CSRs + machine lanes it replaces).
pub const RSS_BUDGET_BYTES_PER_EDGE: f64 = 12.0;

/// Largest factor over the committed baseline the check accepts for the
/// compact bytes/edge and peak-RSS snapshot (>15 % regressions fail).
pub const CHECK_RSS_TOLERANCE: f64 = 1.15;

/// The scale experiment's fixture spec: the social-network stand-in's
/// R-MAT character (heavy skew, celebrity hubs) blown up to the
/// ROADMAP's production target of 500M edges at full scale, average
/// degree 20. `--scale 10` therefore generates the ~50M-edge run the
/// acceptance gate commits; the Table II specs stay untouched.
pub fn scale_target_spec() -> GraphSpec {
    GraphSpec {
        name: "target_social".to_string(),
        vertices: 25_000_000,
        edges: 500_000_000,
        probabilities: (0.57, 0.19, 0.19, 0.05),
        noise: 0.10,
        seed: 0xA3A2_0005,
    }
}

/// One representation's trip through the pipeline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScaleRow {
    /// `"compact"` (shard-fed, compressed) or `"plain"` (in-memory).
    pub repr: String,
    /// Generation wall: shard emission (compact) or in-memory build (plain).
    pub gen_s: f64,
    /// Partition wall: one streaming pass (compact) or the graph path (plain).
    pub partition_s: f64,
    /// Distributed-view construction wall.
    pub build_s: f64,
    /// PageRank simulation wall (single rep; informational, never gated).
    pub sim_s: f64,
    /// `edges / sim_s` — informational, never gated.
    pub sim_edges_per_sec: f64,
    /// Bytes of every O(V)+O(E) structure resident during the simulate
    /// phase (structure-derived, host-independent — the gated quantity).
    pub resident_bytes: usize,
    /// `resident_bytes / edges`.
    pub resident_bytes_per_edge: f64,
    /// `VmHWM` snapshot after this representation's pipeline finished.
    pub peak_rss_bytes: Option<u64>,
}

/// The decode-overhead measurement the tentpole asks for: the same
/// partitioned graph simulated through both adjacency representations,
/// on the ~5M-edge wiki fixture (at `--scale 10`; proportionally smaller
/// in test runs).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FixtureComparison {
    /// Fixture graph name (always the wiki stand-in).
    pub name: String,
    /// Downscale factor the fixture was generated at.
    pub fixture_scale: u32,
    /// Directed edge count of the fixture.
    pub edges: usize,
    /// Best-of-reps plain-CSR PageRank wall.
    pub plain_sim_s: f64,
    /// Best-of-reps compact (decode-on-iterate) PageRank wall.
    pub compact_sim_s: f64,
    /// `compact_sim_s / plain_sim_s` — >1 means decode overhead costs
    /// more than the smaller cache footprint pays back on this host.
    pub compact_over_plain: f64,
    /// Whether the two representations' reports were bitwise identical.
    pub identical: bool,
}

/// The full `BENCH_scale.json` payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScaleBench {
    /// Downscale factor of [`scale_target_spec`] this run used.
    pub scale: u32,
    /// Vertex count at that scale.
    pub vertices: u32,
    /// Directed edge count at that scale.
    pub edges: usize,
    /// Machines in the partition (Case 2 cluster).
    pub machines: usize,
    /// One row per representation, compact first.
    pub rows: Vec<ScaleRow>,
    /// Whether the compact and plain pipelines produced bitwise-identical
    /// `SimReport`s.
    pub reports_identical: bool,
    /// The decode-overhead micro-comparison.
    pub fixture: FixtureComparison,
    /// End-to-end host wall of the whole benchmark.
    pub total_wall_s: f64,
}

/// Run the scale benchmark at `ctx.scale` and (with `--out`) write
/// `BENCH_scale.json` + its `RunManifest` sidecar.
///
/// # Panics
/// Panics on shard I/O failure or if the streamed and in-memory
/// pipelines disagree on the edge set (both would be bugs, not
/// environment conditions).
pub fn scale(ctx: &ExperimentContext) -> ScaleBench {
    let t0 = Instant::now();
    let spec = scale_target_spec();
    let cluster = Cluster::case2();
    let weights = MachineWeights::uniform(cluster.len());
    let engine = SimEngine::new(&cluster);
    let app = AnyApp::pagerank();
    let config = spec.scaled_config(ctx.scale);
    println!(
        "== exp_scale: {} at 1/{} ({} vertices, {} edges requested) ==\n",
        spec.name, ctx.scale, config.num_vertices, config.num_edges
    );

    // -- Compact pipeline: shards -> stream partition -> compact view. --
    // Runs first so its VmHWM snapshot excludes the plain structures.
    let shard_dir = scratch_shard_dir(ctx.scale);
    let t = Instant::now();
    let set = config
        .generate_shards(spec.seed, &shard_dir)
        .expect("shard emission to the scratch directory");
    let c_gen = t.elapsed().as_secs_f64();
    let edges = set.num_edges() as usize;

    let t = Instant::now();
    let streamer = PartitionerKind::Oblivious
        .build_stream()
        .expect("oblivious partitions edge-at-a-time");
    let assignment = streamer.partition_stream(set.num_vertices(), &weights, &mut set.stream());
    let c_part = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let compact =
        CompactDistGraph::from_edge_stream(set.num_vertices(), &assignment, || set.stream())
            .expect("stream edge count matches the assignment");
    let c_build = t.elapsed().as_secs_f64();
    // From here on the compact view owns everything the kernel reads.
    drop(assignment);
    std::fs::remove_dir_all(&shard_dir).ok();

    let t = Instant::now();
    let compact_report = app.run(&engine, &compact, ctx.threads);
    let c_sim = t.elapsed().as_secs_f64();
    let c_resident = compact.resident_bytes();
    let c_peak = output::peak_rss_bytes();
    drop(compact);

    // -- Plain pipeline: in-memory graph -> graph-path partition. --
    let t = Instant::now();
    let graph = config.generate(spec.seed);
    let p_gen = t.elapsed().as_secs_f64();
    assert_eq!(graph.num_edges(), edges, "stream and in-memory gen drifted");

    let t = Instant::now();
    let assignment = PartitionerKind::Oblivious
        .build()
        .partition(&graph, &weights, 1, &OFF);
    let p_part = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let dist = DistributedGraph::new(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");
    let p_build = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let plain_report = app.run(&engine, &dist, ctx.threads);
    let p_sim = t.elapsed().as_secs_f64();
    let p_resident = dist.resident_bytes();
    let p_peak = output::peak_rss_bytes();
    let reports_identical = compact_report == plain_report;
    drop(dist);
    drop(graph);

    let rows = vec![
        row(
            "compact",
            edges,
            [c_gen, c_part, c_build, c_sim],
            c_resident,
            c_peak,
        ),
        row(
            "plain",
            edges,
            [p_gen, p_part, p_build, p_sim],
            p_resident,
            p_peak,
        ),
    ];
    let fixture = fixture_comparison(ctx, &cluster, &engine, &app);

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.repr.clone(),
                f3(r.gen_s),
                f3(r.partition_s),
                f3(r.build_s),
                f3(r.sim_s),
                format!("{:.0}", r.sim_edges_per_sec),
                format!("{:.2}", r.resident_bytes_per_edge),
                r.peak_rss_bytes
                    .map_or("n/a".to_string(), |b| format!("{}", b / (1024 * 1024))),
            ]
        })
        .collect();
    print_table(
        &[
            "repr",
            "gen_s",
            "partition_s",
            "build_s",
            "sim_s",
            "sim_edges/s",
            "bytes/edge",
            "peak_rss_mib",
        ],
        &cells,
    );
    println!(
        "\nreports identical: {reports_identical} | decode overhead on {} ({} edges): \
         compact/plain sim = {}",
        fixture.name,
        fixture.edges,
        f3(fixture.compact_over_plain),
    );

    let bench = ScaleBench {
        scale: ctx.scale,
        vertices: set.num_vertices(),
        edges,
        machines: cluster.len(),
        rows,
        reports_identical,
        fixture,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };
    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_scale",
        &bench,
        &output::RunManifest::collect(spec.seed, ctx.threads, ctx.scale, bench.total_wall_s),
    );
    bench
}

fn row(
    repr: &str,
    edges: usize,
    // gen, partition, build, sim — pipeline order.
    phases_s: [f64; 4],
    resident_bytes: usize,
    peak_rss_bytes: Option<u64>,
) -> ScaleRow {
    let [gen_s, partition_s, build_s, sim_s] = phases_s;
    ScaleRow {
        repr: repr.to_string(),
        gen_s,
        partition_s,
        build_s,
        sim_s,
        sim_edges_per_sec: edges as f64 / sim_s.max(1e-9),
        resident_bytes,
        resident_bytes_per_edge: resident_bytes as f64 / edges.max(1) as f64,
        peak_rss_bytes,
    }
}

/// The decode-overhead comparison: PageRank over one partitioned graph
/// through both adjacency representations, best of two reps each. The
/// fixture is the wiki stand-in at `ctx.scale / 10` (so the committed
/// `--scale 10` run measures the full ~5M-edge headline fixture while
/// test contexts stay tiny).
fn fixture_comparison(
    ctx: &ExperimentContext,
    cluster: &Cluster,
    engine: &SimEngine<'_>,
    app: &AnyApp,
) -> FixtureComparison {
    let fixture_scale = (ctx.scale / 10).max(1);
    let graph = NaturalGraph::Wiki.generate(fixture_scale);
    let weights = MachineWeights::uniform(cluster.len());
    let assignment = PartitionerKind::Oblivious
        .build()
        .partition(&graph, &weights, 1, &OFF);
    let dist = DistributedGraph::new(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");
    let compact = CompactDistGraph::from_dist(&dist);
    let mut plain_s = f64::INFINITY;
    let mut compact_s = f64::INFINITY;
    let mut plain_report: Option<SimReport> = None;
    let mut compact_report: Option<SimReport> = None;
    for _ in 0..2 {
        let t = Instant::now();
        plain_report = Some(app.run(engine, &dist, ctx.threads));
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        compact_report = Some(app.run(engine, &compact, ctx.threads));
        compact_s = compact_s.min(t.elapsed().as_secs_f64());
    }
    FixtureComparison {
        name: "wiki".to_string(),
        fixture_scale,
        edges: graph.num_edges(),
        plain_sim_s: plain_s,
        compact_sim_s: compact_s,
        compact_over_plain: compact_s / plain_s.max(1e-9),
        identical: plain_report == compact_report,
    }
}

/// Scratch shard directory for one run; deleted before the simulate
/// phase (the shards have served their three replay passes by then).
fn scratch_shard_dir(scale: u32) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hetgraph_scale_shards_{}_{scale}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The gated rows of a `BENCH_scale.json` document (see the module docs
/// for the rules); throughput is informational only.
pub fn gated_rows(doc: &Value) -> Result<Vec<Row>, String> {
    let flag = |doc, name| Ok::<_, String>(f64::from(gate::get(doc, name, Value::as_bool)?));
    let compact = gate::find(doc, "rows", "repr", "compact")?;
    let bytes_per_edge = gate::get(compact, "resident_bytes_per_edge", Value::as_f64)?;
    // `null` where the host has no procfs: NaN, which no bound fails.
    let peak_rss = gate::get(compact, "peak_rss_bytes", Some)?.as_f64();
    let fixture = gate::get(doc, "fixture", Some)?;
    Ok(vec![
        Row::num(
            "compact and plain SimReports identical",
            flag(doc, "reports_identical")?,
            Bound::AtLeast(1.0),
        ),
        Row::num(
            "fixture reports identical",
            flag(fixture, "identical")?,
            Bound::AtLeast(1.0),
        ),
        Row::num(
            "compact bytes/edge budget",
            bytes_per_edge,
            Bound::AtMost(RSS_BUDGET_BYTES_PER_EDGE),
        ),
        Row::num(
            "compact bytes/edge",
            bytes_per_edge,
            Bound::AtMostTimes(CHECK_RSS_TOLERANCE),
        ),
        Row::num(
            "compact peak RSS bytes",
            peak_rss.unwrap_or(f64::NAN),
            Bound::AtMostTimes(CHECK_RSS_TOLERANCE),
        ),
        Row::num(
            "fixture compact/plain sim wall",
            gate::get(fixture, "compact_over_plain", Value::as_f64)?,
            Bound::Info,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        // 1/20000 of the 500M-edge target: 1250 vertices, 25000 edges.
        ExperimentContext::at_scale(20_000).with_threads(1)
    }

    #[test]
    fn both_pipelines_agree_and_compact_is_smaller() {
        let bench = scale(&tiny_ctx());
        assert_eq!(bench.rows.len(), 2);
        assert_eq!(bench.rows[0].repr, "compact");
        assert_eq!(bench.rows[1].repr, "plain");
        assert!(bench.reports_identical, "SimReports must be bit-identical");
        assert!(bench.fixture.identical, "fixture reports must match");
        assert!(bench.edges > 10_000, "fixture unexpectedly small");
        let (c, p) = (&bench.rows[0], &bench.rows[1]);
        assert!(
            c.resident_bytes < p.resident_bytes / 2,
            "compact {} vs plain {}: compression should at least halve residency",
            c.resident_bytes,
            p.resident_bytes
        );
        assert!(
            c.resident_bytes_per_edge <= RSS_BUDGET_BYTES_PER_EDGE,
            "compact {:.2} B/edge blows the {RSS_BUDGET_BYTES_PER_EDGE} budget",
            c.resident_bytes_per_edge
        );
    }

    fn fake_bench() -> ScaleBench {
        let mk = |repr: &str, resident: usize| ScaleRow {
            repr: repr.to_string(),
            gen_s: 1.0,
            partition_s: 1.0,
            build_s: 1.0,
            sim_s: 1.0,
            sim_edges_per_sec: 1.0e6,
            resident_bytes: resident,
            resident_bytes_per_edge: resident as f64 / 1.0e6,
            peak_rss_bytes: Some(100 * 1024 * 1024),
        };
        ScaleBench {
            scale: 10,
            vertices: 50_000,
            edges: 1_000_000,
            machines: 2,
            rows: vec![mk("compact", 10_000_000), mk("plain", 40_000_000)],
            reports_identical: true,
            fixture: FixtureComparison {
                name: "wiki".to_string(),
                fixture_scale: 1,
                edges: 5_000_000,
                plain_sim_s: 1.0,
                compact_sim_s: 1.2,
                compact_over_plain: 1.2,
                identical: true,
            },
            total_wall_s: 10.0,
        }
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let failed = gate::failed_rows(gated_rows, &fake_bench(), &fake_bench());
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn check_flags_budget_and_regressions() {
        let mut bad = fake_bench();
        bad.rows[0].resident_bytes_per_edge = 13.0; // over the absolute budget AND +30%
        bad.rows[0].peak_rss_bytes = Some(200 * 1024 * 1024); // +100%
        bad.reports_identical = false;
        bad.fixture.identical = false;
        let failed = gate::failed_rows(gated_rows, &bad, &fake_bench());
        assert_eq!(failed.len(), 5, "{failed:?}");
        assert!(failed.iter().any(|f| f == "compact bytes/edge budget"));
        assert!(failed.iter().any(|f| f == "compact bytes/edge"));
        assert!(failed.iter().any(|f| f == "compact peak RSS bytes"));
        assert!(failed.iter().any(|f| f.contains("SimReports")));
        assert!(failed.iter().any(|f| f.contains("fixture")));
        // Within tolerance: 10% growth passes both relative gates.
        let mut noisy = fake_bench();
        noisy.rows[0].resident_bytes_per_edge *= 1.10;
        noisy.rows[0].peak_rss_bytes = Some(110 * 1024 * 1024);
        assert!(gate::failed_rows(gated_rows, &noisy, &fake_bench()).is_empty());
    }

    #[test]
    fn target_spec_matches_the_roadmap_scale() {
        let spec = scale_target_spec();
        assert_eq!(spec.edges, 500_000_000);
        assert_eq!(spec.scaled_edges(10), 50_000_000, "scale-10 is the 50M run");
        assert!((spec.avg_degree() - 20.0).abs() < 1e-9);
    }
}
