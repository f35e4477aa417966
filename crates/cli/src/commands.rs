//! Subcommand implementations.

use std::path::Path;

use hetgraph::Framework;
use hetgraph_apps::{AnyApp, AppRegistry};
use hetgraph_cluster::Cluster;
use hetgraph_core::degree::DegreeHistogram;
use hetgraph_core::obs::Telemetry;
use hetgraph_core::{io, obs::OFF, EdgeSource, Graph, ShardSet};
use hetgraph_gen::{
    fit_alpha, BarabasiAlbertConfig, GnmConfig, NaturalGraph, PowerLawConfig, ProxySet, RmatConfig,
    SmallWorldConfig, StreamingGenerator,
};
use hetgraph_partition::{MachineWeights, PartitionMetrics, PartitionerKind};
use hetgraph_profile::{CcrPool, Policy, PriorWorkEstimator};

use crate::args::{CliError, Flags};

/// Load a graph from `--input FILE` (binary `.hgb` or SNAP-style text).
fn load_graph(path: &str) -> Result<Graph, CliError> {
    let p = Path::new(path);
    let result = if p.extension().is_some_and(|e| e == "hgb") {
        io::load_binary(p)
    } else {
        std::fs::File::open(p)
            .map_err(hetgraph_core::CoreError::from)
            .and_then(|f| io::read_text(f, None))
            .map(Graph::from_edge_list)
    };
    result.map_err(|e| CliError::Failed(format!("cannot load {path}: {e}")))
}

/// Open `--input PATH` for partitioning: a shard directory written by
/// `generate --shards` (replayed one shard at a time), or a graph file
/// loaded whole.
fn open_input(path: &str) -> Result<Box<dyn EdgeSource>, CliError> {
    if Path::new(path).is_dir() {
        let set = ShardSet::open(Path::new(path))
            .map_err(|e| CliError::Failed(format!("cannot open shard directory {path}: {e}")))?;
        Ok(Box::new(set))
    } else {
        Ok(Box::new(load_graph(path)?))
    }
}

/// Save a graph to `--out FILE` (binary when the extension is `.hgb`).
fn save_graph(path: &str, graph: &Graph) -> Result<(), CliError> {
    let p = Path::new(path);
    let result = if p.extension().is_some_and(|e| e == "hgb") {
        io::save_binary(p, graph)
    } else {
        std::fs::File::create(p)
            .map_err(hetgraph_core::CoreError::from)
            .and_then(|f| io::write_text(f, graph))
    };
    result.map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))
}

/// A failed write to the command's output writer.
fn output_failed(e: std::io::Error) -> CliError {
    CliError::Failed(format!("cannot write output: {e}"))
}

/// Resolve `--threads N` (default: `HETGRAPH_THREADS` or all cores).
fn parse_threads(flags: &Flags) -> Result<usize, CliError> {
    match flags.get("threads") {
        None => Ok(hetgraph_core::par::default_host_threads()),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(CliError::Usage(format!(
                "--threads must be a positive integer, got {v:?}"
            ))),
        },
    }
}

/// Resolve `--cluster case1|case2|case3`.
fn parse_cluster(name: &str) -> Result<Cluster, CliError> {
    match name {
        "case1" => Ok(Cluster::case1()),
        "case2" => Ok(Cluster::case2()),
        "case3" => Ok(Cluster::case3()),
        other => Err(CliError::Usage(format!(
            "unknown cluster {other:?}; expected case1, case2, or case3"
        ))),
    }
}

/// Resolve `--policy default|prior|ccr` (default: ccr).
fn parse_policy(flags: &Flags) -> Result<Policy, CliError> {
    match flags.get("policy").unwrap_or("ccr") {
        "default" => Ok(Policy::Default),
        "prior" => Ok(Policy::PriorWork),
        "ccr" => Ok(Policy::CcrGuided),
        other => Err(CliError::Usage(format!(
            "unknown policy {other:?}; expected default, prior, or ccr"
        ))),
    }
}

/// Resolve `--scale N` (proxy or stand-in downscale factor), rejecting 0.
fn parse_scale(flags: &Flags, default: u32) -> Result<u32, CliError> {
    let scale: u32 = flags.get_or("scale", default)?;
    if scale == 0 {
        return Err(CliError::Usage("--scale must be positive".into()));
    }
    Ok(scale)
}

/// Resolve `--app` against the full app registry, plus the opt-in
/// reduced-precision `pagerank_f32` (kept out of the default registries
/// so `--apps all` and the sweeps stay on the snapshot-pinned f64 path).
fn parse_app(name: &str) -> Result<AnyApp, CliError> {
    let mut registry = AppRegistry::full();
    registry.register(AnyApp::pagerank_f32());
    registry.get(name).cloned().ok_or_else(|| {
        CliError::Usage(format!(
            "unknown app {name:?}; expected one of: {}",
            registry.names().join(", ")
        ))
    })
}

/// Resolve `--apps` (comma list or "all") against the full registry.
fn parse_apps(list: &str) -> Result<Vec<AnyApp>, CliError> {
    if list == "all" {
        return Ok(AppRegistry::full().apps().to_vec());
    }
    let mut apps = Vec::new();
    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let app = parse_app(name)?;
        if !apps.contains(&app) {
            apps.push(app);
        }
    }
    if apps.is_empty() {
        return Err(CliError::Usage("--apps needs at least one workload".into()));
    }
    Ok(apps)
}

/// Resolve `--algorithm`.
fn parse_partitioner(name: &str) -> Result<PartitionerKind, CliError> {
    PartitionerKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown algorithm {name:?}; expected one of: random, oblivious, grid, hybrid, ginger"
            ))
        })
}

/// `hetgraph generate` — write a synthetic graph to a file and/or a shard
/// directory.
///
/// With `--shards DIR` the streaming families (powerlaw, rmat, gnm,
/// natural) emit fixed-size binary shards with bounded buffering: peak
/// memory is one shard's edge buffer, never the whole edge set, which is
/// how 100M-edge inputs are produced on laptop-class RAM. The growth
/// generators (ba, smallworld) inherently keep their full state and stay
/// materialize-only.
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "family",
            "vertices",
            "edges",
            "alpha",
            "neighbors",
            "beta",
            "seed",
            "out",
            "shards",
            "natural",
            "scale",
        ],
    )?;
    let seed: u64 = flags.get_or("seed", 42)?;
    let out = flags.get("out");
    let shards = flags.get("shards");
    if out.is_none() && shards.is_none() {
        return Err(CliError::Usage(
            "generate needs a sink: --out FILE and/or --shards DIR".into(),
        ));
    }
    let family = flags.get("family").unwrap_or("powerlaw");

    // Streaming families build one generator and drive every sink from
    // it; `generate_graph` and the shard writer share the same edge walk,
    // so both sinks see the identical edge sequence.
    let streaming: Option<(Box<dyn StreamingGenerator>, u64)> = match family {
        "powerlaw" => {
            let n: u32 = flags.require_parsed("vertices")?;
            let alpha: f64 = flags.get_or("alpha", 2.1)?;
            Some((Box::new(PowerLawConfig::new(n, alpha)), seed))
        }
        "rmat" => {
            let n: u32 = flags.require_parsed("vertices")?;
            let m: usize = flags.require_parsed("edges")?;
            Some((Box::new(RmatConfig::natural(n, m)), seed))
        }
        "gnm" => {
            let n: u32 = flags.require_parsed("vertices")?;
            let m: usize = flags.require_parsed("edges")?;
            Some((Box::new(GnmConfig::new(n, m)), seed))
        }
        "natural" => {
            let which = flags.require("natural")?;
            let scale = parse_scale(&flags, 64)?;
            let spec = NaturalGraph::ALL
                .into_iter()
                .find(|g| g.name() == which)
                .ok_or_else(|| CliError::Usage(format!("unknown natural graph {which:?}")))?
                .spec();
            // Stand-ins carry their own fixed seed — part of the
            // reproducible experiment definition.
            Some((Box::new(spec.scaled_config(scale)), spec.seed))
        }
        _ => None,
    };

    if let Some((gen, seed)) = streaming {
        if let Some(dir) = shards {
            let set = gen
                .generate_shards(seed, Path::new(dir))
                .map_err(|e| CliError::Failed(format!("cannot write shards to {dir}: {e}")))?;
            println!(
                "wrote {}: {} shard(s), {} vertices, {} edges",
                dir,
                set.num_shards(),
                set.num_vertices(),
                set.num_edges()
            );
        }
        if let Some(path) = out {
            let graph = gen.generate_graph(seed);
            save_graph(path, &graph)?;
            println!(
                "wrote {}: {} vertices, {} edges",
                path,
                graph.num_vertices(),
                graph.num_edges()
            );
        }
        return Ok(());
    }

    if shards.is_some() {
        return Err(CliError::Usage(format!(
            "family {family:?} cannot stream to shards (growth generators retain \
             their full state); use --out, or a streaming family (powerlaw, rmat, \
             gnm, natural)"
        )));
    }
    let graph = match family {
        "ba" => {
            let n: u32 = flags.require_parsed("vertices")?;
            let m: u32 = flags.get_or("edges", 3u32)?;
            BarabasiAlbertConfig::new(n, m).generate(seed)
        }
        "smallworld" => {
            let n: u32 = flags.require_parsed("vertices")?;
            let k: u32 = flags.get_or("neighbors", 4u32)?;
            let beta: f64 = flags.get_or("beta", 0.1)?;
            SmallWorldConfig::new(n, k, beta).generate(seed)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown family {other:?}; expected powerlaw, rmat, ba, smallworld, gnm, or natural"
            )))
        }
    };
    let path = out.expect("checked above");
    save_graph(path, &graph)?;
    println!(
        "wrote {}: {} vertices, {} edges",
        path,
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

/// `hetgraph alpha` — fit the power-law exponent (Eq. 7).
pub fn alpha(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["input", "vertices", "edges"])?;
    let (v, e) = match flags.get("input") {
        Some(path) => {
            let g = load_graph(path)?;
            (g.num_vertices() as u64, g.num_edges() as u64)
        }
        None => (
            flags.require_parsed::<u64>("vertices")?,
            flags.require_parsed::<u64>("edges")?,
        ),
    };
    let fit =
        fit_alpha(v, e).map_err(|err| CliError::Failed(format!("cannot fit alpha: {err}")))?;
    println!(
        "V = {v}, E = {e}, avg degree = {:.3}\nalpha = {:.4} (residual {:.2e}, {} iterations)",
        e as f64 / v as f64,
        fit.alpha,
        fit.residual,
        fit.iterations
    );
    let proxies = ProxySet::standard(1);
    println!(
        "covered by the standard proxy set: {} (closest proxy: {})",
        if proxies.covers(fit.alpha) {
            "yes"
        } else {
            "no — generate an extra proxy"
        },
        proxies.closest(fit.alpha).name,
    );
    Ok(())
}

/// `hetgraph stats` — degree statistics of a graph file.
pub fn stats(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["input"])?;
    let g = load_graph(flags.require("input")?)?;
    let s = g.degree_stats();
    println!(
        "vertices: {}\nedges: {}\navg degree: {:.3}\nmax degree: {}\nisolated: {}\ndegree CV: {:.3}",
        g.num_vertices(),
        g.num_edges(),
        g.avg_degree(),
        s.max,
        s.isolated,
        s.coefficient_of_variation(),
    );
    let h = DegreeHistogram::total_degrees(&g);
    if let Some(a) = h.fit_alpha_ccdf(2) {
        println!("empirical tail alpha (CCDF fit): {a:.3}");
    }
    Ok(())
}

/// `hetgraph partition` — partition a graph file or shard directory and
/// print quality metrics.
pub fn partition(args: &[String]) -> Result<(), CliError> {
    partition_to(args, &mut std::io::stdout())
}

/// [`partition`], printing its table to `out`.
fn partition_to(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["input", "machines", "algorithm", "weights", "threads"],
    )?;
    let source = open_input(flags.require("input")?)?;
    let threads = parse_threads(&flags)?;
    let machines: usize = flags.get_or("machines", 4usize)?;
    if machines == 0 || machines > 64 {
        return Err(CliError::Usage("--machines must be in 1..=64".into()));
    }
    let weights = match flags.get_f64_list("weights")? {
        Some(w) => {
            if w.len() != machines {
                return Err(CliError::Usage(format!(
                    "--weights has {} entries but --machines is {machines}",
                    w.len()
                )));
            }
            if let Some(bad) = w.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
                return Err(CliError::Usage(format!(
                    "--weights entries must be positive and finite, got {bad}"
                )));
            }
            // Every normalized share is at least (min / max) / 64 (at most
            // 64 machines), so a ratio of 128 × `f64::MIN_POSITIVE` keeps
            // the smallest share, rounding included, inside the normal
            // range that `MachineWeights::new` asserts.
            let min = w.iter().copied().fold(f64::INFINITY, f64::min);
            let max = w.iter().copied().fold(0.0, f64::max);
            if min / max < 128.0 * f64::MIN_POSITIVE {
                return Err(CliError::Usage(format!(
                    "--weights range {min:e}..={max:e} is too wide: the smallest \
                     normalized share would underflow"
                )));
            }
            MachineWeights::new(&w)
        }
        None => MachineWeights::uniform(machines),
    };
    let kinds: Vec<PartitionerKind> = match flags.get("algorithm") {
        Some(name) => vec![parse_partitioner(name)?],
        None => PartitionerKind::ALL.to_vec(),
    };
    writeln!(
        out,
        "{:10} {:>8} {:>10} {:>12} {:>13}",
        "algorithm", "rf", "mirrors", "max_nl", "balance_err"
    )
    .map_err(output_failed)?;
    for kind in kinds {
        let a = kind.build().partition(&*source, &weights, threads, &OFF);
        let m = PartitionMetrics::compute(&a, &weights, threads);
        writeln!(
            out,
            "{:10} {:>8.3} {:>10} {:>12.3} {:>13.3}",
            kind.name(),
            m.replication_factor,
            m.total_mirrors,
            m.max_normalized_load,
            m.weighted_balance_error
        )
        .map_err(output_failed)?;
    }
    Ok(())
}

/// `hetgraph profile` — profile a cluster with synthetic proxies.
pub fn profile(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["cluster", "scale", "threads", "apps"])?;
    let cluster = parse_cluster(flags.get("cluster").unwrap_or("case2"))?;
    let scale = parse_scale(&flags, 320)?;
    let threads = parse_threads(&flags)?;
    let apps = parse_apps(flags.get("apps").unwrap_or("all"))?;
    println!(
        "profiling {} machines with the standard proxy set at 1/{scale} scale...\n",
        cluster.len()
    );
    let pool = CcrPool::profile(&cluster, &ProxySet::standard(scale), &apps, threads, &OFF);
    let prior = PriorWorkEstimator::new().estimate(&cluster);
    println!("{:24} CCR per machine (slowest = 1.0)", "app");
    for set in pool.iter() {
        let r: Vec<String> = set.ratios().iter().map(|x| format!("{x:.2}")).collect();
        println!("{:24} [{}]", set.app(), r.join(", "));
    }
    let r: Vec<String> = prior.ratios().iter().map(|x| format!("{x:.2}")).collect();
    println!("{:24} [{}]", "(prior: thread counts)", r.join(", "));
    Ok(())
}

/// `hetgraph simulate` — run one app on one graph on one cluster.
///
/// With `--trace-out FILE` the whole pipeline (CCR profiling,
/// partitioning, the superstep kernel) runs under a tracing
/// [`Telemetry`] handle and the trace is written to `FILE`: a `.jsonl`
/// extension gets every event as JSON-lines, anything else gets the
/// Chrome `trace_event` JSON of the *simulated-time* events only — which
/// is byte-identical at any `--threads` value, and opens in
/// `chrome://tracing` or Perfetto.
///
/// With `--metrics-out FILE` the same handle also meters the pipeline
/// and the aggregated snapshot is written to `FILE`: a `.prom` extension
/// gets Prometheus text exposition, anything else pretty JSON. The snapshot holds the
/// *sim-domain* metrics only (byte-identical at any `--threads` value)
/// unless the filename contains `.full.`, which opts into the wall-clock
/// series too.
///
/// With `--compact` the kernel runs on the delta-varint [`hetgraph_engine::
/// CompactDistGraph`] instead of the plain distributed structure — same
/// `SimReport`, byte for byte, at a fraction of the resident bytes per
/// edge. `--input` may then also be a *shard directory* written by
/// `generate --shards`, with any of the five algorithms: the partitioner
/// reads the shards as its edge source and the compact structure is built
/// by replaying them. Random, oblivious and grid place edges in one pass
/// over the shards, so the full edge set is never resident; hybrid and
/// ginger need in-degrees and adjacency first, so they read the shards
/// into an in-memory graph, which is freed before the kernel runs.
pub fn simulate(args: &[String]) -> Result<(), CliError> {
    simulate_to(args, &mut std::io::stdout())
}

/// [`simulate`], printing its summary to `out`.
fn simulate_to(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(
        args,
        &[
            "input",
            "cluster",
            "app",
            "algorithm",
            "policy",
            "scale",
            "threads",
            "trace-out",
            "metrics-out",
            "rebalance",
        ],
        &["compact"],
    )?;
    let input = flags.require("input")?;
    let compact = flags.is_set("compact");
    let cluster = parse_cluster(flags.get("cluster").unwrap_or("case2"))?;
    let app = parse_app(flags.get("app").unwrap_or("pagerank"))?;
    let kind = parse_partitioner(flags.get("algorithm").unwrap_or("hybrid"))?;
    let threads = parse_threads(&flags)?;
    let telemetry = telemetry_for(&flags);
    let policy = parse_policy(&flags)?;
    let scale = parse_scale(&flags, 640)?;
    // Only the CCR-guided policy reads the pool: profile just this app.
    let pool = if policy == Policy::CcrGuided {
        CcrPool::profile(
            &cluster,
            &ProxySet::standard(scale),
            std::slice::from_ref(&app),
            threads,
            &telemetry,
        )
    } else {
        CcrPool::new()
    };
    let weights = policy.weights(&cluster, &pool, app.name());
    let engine = hetgraph_engine::SimEngine::new(&cluster).with_telemetry(&telemetry);
    let rebalance = flags.get("rebalance").filter(|&r| r != "off");
    if compact && rebalance.is_some() {
        return Err(CliError::Usage(
            "--compact does not support --rebalance (the compressed structure \
             is immutable once built)"
                .into(),
        ));
    }
    if !compact && Path::new(input).is_dir() {
        return Err(CliError::Usage(
            "shard-directory input requires --compact (the plain path \
             materializes the whole graph)"
                .into(),
        ));
    }
    // One input, one partition; the flags pick the view it runs on. The
    // owners outlive the target that borrows them.
    let source = open_input(input)?;
    let assignment = kind
        .build()
        .partition(&*source, &weights, threads, &telemetry);
    let (compact_dist, mut plain_dist);
    let mut greedy = hetgraph_engine::GreedyRebalance::new();
    let target = if compact {
        // Built by replaying the source, so a shard directory's edge set
        // is never resident; the view owns everything the kernel reads,
        // so the input is freed before the run.
        compact_dist = hetgraph_engine::CompactDistGraph::from_edge_stream(
            source.num_vertices(),
            &assignment,
            || source.edges(),
        )
        .map_err(|e| CliError::Failed(format!("cannot build compact graph: {e}")))?;
        drop(source);
        hetgraph_engine::RunTarget::Compact(&compact_dist)
    } else {
        let g = source
            .graph()
            .expect("a graph file: shard input needs --compact");
        plain_dist = hetgraph_engine::DistributedGraph::new(g, &assignment, threads)
            .expect("assignment must cover the graph");
        match rebalance {
            None => hetgraph_engine::RunTarget::Plain(&plain_dist),
            Some("greedy") => hetgraph_engine::RunTarget::rebalanced(&mut plain_dist, &mut greedy),
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "unknown rebalance policy {other:?}; expected greedy or off"
                )))
            }
        }
    };
    let report = app.run(&engine, target, threads);
    let migrations = rebalance.map(|_| {
        let moved: usize = greedy.events().iter().map(|e| e.edges_moved).sum();
        // Folded from +0.0: an empty `f64` sum is -0.0, which would print
        // "-0.000000s" when greedy never fires.
        let cost = greedy.events().iter().fold(0.0, |acc, e| acc + e.cost_s);
        format!(
            "rebalance: greedy, {} batch(es), {} edge(s) migrated, {:.6}s charged\n",
            greedy.events().len(),
            moved,
            cost
        )
    });
    let busy = report
        .per_machine_busy_s
        .iter()
        .zip(&cluster.machine_labels())
        .map(|(s, label)| format!("{label} {s:.4}s"))
        .collect::<Vec<_>>()
        .join(", ");
    write!(
        out,
        "{report}\n{}per-machine busy: [{busy}]\ncompute imbalance: {:.3}\n",
        migrations.unwrap_or_default(),
        report.compute_imbalance()
    )
    .map_err(output_failed)?;
    write_trace_out(&flags, &telemetry, out)?;
    write_metrics_out(&flags, &telemetry, out)
}

/// One handle for `--trace-out` / `--metrics-out`: its event log is on
/// exactly when the first flag is given, its metrics registry when the
/// second is.
fn telemetry_for(flags: &Flags) -> Telemetry {
    Telemetry::new(
        flags.get("trace-out").is_some(),
        flags.get("metrics-out").is_some(),
    )
}

/// Honor `--trace-out FILE`: drain the event log and write JSON-lines
/// (`.jsonl`) or Chrome trace_event JSON (anything else), then say so on
/// `out`. No-op when the flag is absent.
fn write_trace_out(
    flags: &Flags,
    telemetry: &Telemetry,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let Some(path) = flags.get("trace-out") else {
        return Ok(());
    };
    let events = telemetry.take_events();
    let text = if path.ends_with(".jsonl") {
        hetgraph_core::obs::to_jsonl(&events)
    } else {
        hetgraph_core::obs::chrome_trace_sim(&events)
    };
    std::fs::write(path, &text)
        .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "trace: {} events recorded, wrote {path} (open in chrome://tracing or ui.perfetto.dev)",
        events.len()
    )
    .map_err(output_failed)
}

/// Honor `--metrics-out FILE`: snapshot the metrics (sim-domain only
/// unless the name has `.full.`) as Prometheus text (`.prom`) or JSON,
/// then say so on `out`. No-op when the flag is absent.
fn write_metrics_out(
    flags: &Flags,
    telemetry: &Telemetry,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let Some(path) = flags.get("metrics-out") else {
        return Ok(());
    };
    let snapshot = if path.contains(".full.") {
        telemetry.snapshot()
    } else {
        telemetry.snapshot_sim()
    };
    let text = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, &text)
        .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "metrics: {} counters, {} gauges, {} histograms, wrote {path}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len()
    )
    .map_err(output_failed)
}

/// `hetgraph report` — offline straggler-attribution report over an
/// exported trace.
///
/// Ingests a JSON-lines trace written by `simulate --trace-out FILE.jsonl`
/// (or `exp_all --trace-dir`) and prints the per-machine barrier-wait
/// table, the top-k straggler supersteps ranked by barrier waste, the
/// critical-path phase breakdown, and the migration-effectiveness
/// timeline. `--metrics FILE` folds a JSON metrics snapshot (from
/// `--metrics-out`) into the report.
pub fn report(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["trace", "metrics", "top"])?;
    let trace_path = flags.require("trace")?;
    let top: usize = flags.get_or("top", 5usize)?;
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| CliError::Failed(format!("cannot read {trace_path}: {e}")))?;
    let analysis = hetgraph_engine::TraceAnalysis::from_jsonl(&text)
        .map_err(|e| CliError::Failed(format!("cannot analyze {trace_path}: {e}")))?;
    let snapshot = match flags.get("metrics") {
        Some(path) => {
            let body = std::fs::read_to_string(path)
                .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?;
            Some(
                hetgraph_core::metrics::MetricsSnapshot::from_json(&body)
                    .map_err(|e| CliError::Failed(format!("cannot parse {path}: {e}")))?,
            )
        }
        None => None,
    };
    print!("{}", analysis.render(top, snapshot.as_ref()));
    Ok(())
}

/// `hetgraph submit` — run one job through the Fig 7b [`Framework`] flow:
/// deploy (offline proxy profiling of the full registry), then submit.
pub fn submit(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "input",
            "cluster",
            "app",
            "algorithm",
            "policy",
            "scale",
            "threads",
        ],
    )?;
    let g = load_graph(flags.require("input")?)?;
    let cluster = parse_cluster(flags.get("cluster").unwrap_or("case2"))?;
    let app = parse_app(flags.get("app").unwrap_or("pagerank"))?;
    let threads = parse_threads(&flags)?;
    let scale = parse_scale(&flags, 640)?;
    let policy = parse_policy(&flags)?;
    let mut framework = Framework::deploy(cluster, scale)
        .with_policy(policy)
        .with_threads(threads);
    if let Some(name) = flags.get("algorithm") {
        framework = framework.with_partitioner(parse_partitioner(name)?);
    }
    if policy == Policy::CcrGuided && framework.pool().ccr(app.name()).is_none() {
        let profiled: Vec<&str> = framework.pool().iter().map(|set| set.app()).collect();
        return Err(CliError::Usage(format!(
            "--app {} has no profiled CCR (deploy profiles: {}); use --policy default or prior",
            app.name(),
            profiled.join(", ")
        )));
    }
    let result = framework.submit(&g, &app);
    println!("{}", result.report);
    println!(
        "partition: replication factor {:.3}, max normalized load {:.3}",
        result.partition.replication_factor, result.partition.max_normalized_load
    );
    println!(
        "compute imbalance: {:.3}",
        result.report.compute_imbalance()
    );
    Ok(())
}

/// `hetgraph serve` — run an open-loop query-serving scenario over one
/// shared partitioned graph.
///
/// A seeded load generator offers `--requests` mixed queries (per-source
/// SSSP reachability, personalized-PageRank seeds, k-core membership)
/// from `--tenants` tenants; the serving loop admits them against
/// bounded per-tenant queues (`--queue-budget`, shed on overflow),
/// merges compatible queries into multi-source superstep waves (up to
/// `--max-batch` per wave, `--batch-window` seconds of idle batching
/// delay), and schedules lanes by weighted fair queueing (`--weights`).
/// All times are simulated; the summary is byte-identical at any
/// `--threads`. `--trace-out`/`--metrics-out` work as in `simulate`, and
/// a serve trace feeds `hetgraph report` directly.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "input",
            "cluster",
            "algorithm",
            "requests",
            "tenants",
            "weights",
            "batch-window",
            "queue-budget",
            "max-batch",
            "mean-gap",
            "ppr-iters",
            "vertices",
            "seed",
            "threads",
            "trace-out",
            "metrics-out",
        ],
    )?;
    let cluster = parse_cluster(flags.get("cluster").unwrap_or("case2"))?;
    let kind = parse_partitioner(flags.get("algorithm").unwrap_or("hybrid"))?;
    let threads = parse_threads(&flags)?;
    let requests: usize = flags.get_or("requests", 2000usize)?;
    let tenants: usize = flags.get_or("tenants", 2usize)?;
    if requests == 0 || tenants == 0 {
        return Err(CliError::Usage(
            "--requests and --tenants must be positive".into(),
        ));
    }
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let tenant_weights: Vec<u32> = match flags.get("weights") {
        None => vec![1; tenants],
        Some(list) => {
            let parsed: Result<Vec<u32>, _> =
                list.split(',').map(|w| w.trim().parse::<u32>()).collect();
            let parsed = parsed.map_err(|e| {
                CliError::Usage(format!("--weights must be a comma list of u32: {e}"))
            })?;
            if parsed.len() != tenants {
                return Err(CliError::Usage(format!(
                    "--weights has {} entries for {tenants} tenants",
                    parsed.len()
                )));
            }
            if parsed.contains(&0) {
                return Err(CliError::Usage("--weights entries must be positive".into()));
            }
            parsed
        }
    };

    // Shared graph: a file, or a synthetic power-law fixture.
    let graph = match flags.get("input") {
        Some(path) => load_graph(path)?,
        None => {
            let n: u32 = flags.get_or("vertices", 10_000u32)?;
            if n == 0 {
                return Err(CliError::Usage("--vertices must be positive".into()));
            }
            PowerLawConfig::new(n, 2.1).generate(seed)
        }
    };

    let telemetry = telemetry_for(&flags);

    // Thread-count machine weights: heterogeneity-aware without a
    // profiling pass (the service would amortize profiling, but the CLI
    // entry point should start serving immediately).
    let weights = MachineWeights::from_thread_counts(&cluster);
    let assignment = kind
        .build()
        .partition(&graph, &weights, threads, &telemetry);
    let dist = hetgraph_engine::DistributedGraph::new(&graph, &assignment, threads)
        .map_err(|e| CliError::Failed(format!("cannot build distributed graph: {e}")))?;

    let mut load = hetgraph_serve::LoadGenConfig::standard(
        seed,
        requests,
        flags.get_or("mean-gap", 0.005f64)?,
    );
    load.tenant_shares = vec![1; tenants];
    let stream = load.generate(graph.num_vertices());

    let cfg = hetgraph_serve::ServeConfig {
        batch_window_s: flags.get_or("batch-window", 0.05f64)?,
        max_batch: flags.get_or("max-batch", 16usize)?,
        queue_budget: flags.get_or("queue-budget", 64usize)?,
        tenant_weights,
        ppr_iterations: flags.get_or("ppr-iters", 10usize)?,
        threads,
    };
    if cfg.batch_window_s < 0.0 || cfg.queue_budget == 0 {
        return Err(CliError::Usage(
            "--batch-window must be >= 0; --queue-budget must be positive".into(),
        ));
    }
    if !(1..=hetgraph_serve::MAX_LANES).contains(&cfg.max_batch) {
        return Err(CliError::Usage(format!(
            "--max-batch must be in 1..={} (the widest lane block)",
            hetgraph_serve::MAX_LANES
        )));
    }

    let report = hetgraph_serve::Server::new(&cluster)
        .with_telemetry(&telemetry)
        .serve(&dist, &cfg, &stream);

    println!(
        "serve: {} requests offered, {} served, {} shed, {} waves over {:.3}s simulated",
        requests,
        report.served(),
        report.shed.len(),
        report.waves.len(),
        report.sim_duration_s
    );
    println!(
        "latency: p50 {:.4}s  p99 {:.4}s  mean {:.4}s   throughput {:.1} req/s",
        report.latency_quantile_s(0.50).unwrap_or(0.0),
        report.latency_quantile_s(0.99).unwrap_or(0.0),
        report.mean_latency_s().unwrap_or(0.0),
        report.throughput_rps()
    );
    for (t, (&served, &shed)) in report
        .per_tenant_served
        .iter()
        .zip(&report.per_tenant_shed)
        .enumerate()
    {
        println!("tenant {t}: served {served}, shed {shed}");
    }
    println!(
        "batch composition digest: {:016x}",
        report.composition_digest
    );
    write_trace_out(&flags, &telemetry, &mut std::io::stdout())?;
    write_metrics_out(&flags, &telemetry, &mut std::io::stdout())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hetgraph_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Pin sim-domain telemetry bytes across commits: `text` must equal
    /// the committed `tests/fixtures/telemetry/{name}`.
    /// `HETGRAPH_BLESS=1 cargo test -p hetgraph-cli` rewrites the file.
    fn assert_pinned(name: &str, text: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/telemetry")
            .join(name);
        if std::env::var("HETGRAPH_BLESS").is_ok() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, text).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; regenerate with HETGRAPH_BLESS=1 cargo test -p hetgraph-cli",
                path.display()
            )
        });
        assert!(
            text == want,
            "{name} drifted from its pinned fixture: first differing byte at offset {:?}",
            text.bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| text.len().min(want.len()))
        );
    }

    #[test]
    fn generate_then_stats_then_alpha_roundtrip() {
        let path = tmp("pl.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "2000",
            "--alpha",
            "2.0",
            "--out",
            &path,
        ]))
        .unwrap();
        stats(&argv(&["--input", &path])).unwrap();
        alpha(&argv(&["--input", &path])).unwrap();
    }

    #[test]
    fn generate_text_format() {
        let path = tmp("small.txt");
        generate(&argv(&[
            "--family",
            "gnm",
            "--vertices",
            "50",
            "--edges",
            "100",
            "--out",
            &path,
        ]))
        .unwrap();
        let g = load_graph(&path).unwrap();
        assert_eq!(g.num_edges(), 100);
    }

    #[test]
    fn partition_command_runs_all_algorithms() {
        let path = tmp("part.hgb");
        generate(&argv(&[
            "--family",
            "rmat",
            "--vertices",
            "1000",
            "--edges",
            "5000",
            "--out",
            &path,
        ]))
        .unwrap();
        partition(&argv(&["--input", &path, "--machines", "4"])).unwrap();
        partition(&argv(&[
            "--input",
            &path,
            "--machines",
            "2",
            "--algorithm",
            "hybrid",
            "--weights",
            "1,3.5",
        ]))
        .unwrap();
    }

    #[test]
    fn partition_rejects_mismatched_weights() {
        let path = tmp("part2.hgb");
        generate(&argv(&[
            "--family",
            "gnm",
            "--vertices",
            "100",
            "--edges",
            "200",
            "--out",
            &path,
        ]))
        .unwrap();
        let err = partition(&argv(&[
            "--input",
            &path,
            "--machines",
            "3",
            "--weights",
            "1,2",
        ]))
        .unwrap_err();
        assert!(err.message().contains("entries"));
        // Non-positive and non-finite weights are errors, not panics.
        for bad in ["1,-1", "nan,1", "0,1", "inf,1"] {
            let err = partition(&argv(&[
                "--input",
                &path,
                "--machines",
                "2",
                "--weights",
                bad,
            ]))
            .unwrap_err();
            assert!(err.message().contains("--weights"), "{bad}: {err:?}");
        }
    }

    #[test]
    fn partition_accepts_weights_whose_sum_overflows() {
        let path = tmp("part_overflow.hgb");
        generate(&argv(&[
            "--family",
            "gnm",
            "--vertices",
            "100",
            "--edges",
            "300",
            "--out",
            &path,
        ]))
        .unwrap();
        // Finite weights summing to infinity used to normalize to zero and
        // panic Oblivious; they are uniform weights, so they print exactly
        // the uniform table.
        let table = |weights: &str| {
            let mut out = Vec::new();
            partition_to(
                &argv(&["--input", &path, "--machines", "2", "--weights", weights]),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let uniform = table("1,1");
        assert!(uniform.contains("oblivious"), "{uniform}");
        assert_eq!(table("1e308,1e308"), uniform);
        // A ratio past the f64 range would normalize the small weight to
        // zero (or a subnormal), which Oblivious divides by: an error.
        for weights in ["1e308,1e-320", "1,1e-310"] {
            let err = partition(&argv(&[
                "--input",
                &path,
                "--machines",
                "2",
                "--weights",
                weights,
            ]))
            .unwrap_err();
            assert!(
                err.message().contains("--weights range") && err.message().contains("too wide"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn simulate_default_policy() {
        let path = tmp("simulate.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "800",
            "--out",
            &path,
        ]))
        .unwrap();
        simulate(&argv(&[
            "--input",
            &path,
            "--cluster",
            "case3",
            "--app",
            "connected_components",
            "--algorithm",
            "random",
            "--policy",
            "default",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_rebalance_flag() {
        let path = tmp("simulate_rebalance.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "800",
            "--out",
            &path,
        ]))
        .unwrap();
        let mut stdout = Vec::new();
        for rebalance in ["greedy", "off"] {
            simulate_to(
                &argv(&[
                    "--input",
                    &path,
                    "--app",
                    "pagerank",
                    "--algorithm",
                    "random",
                    "--policy",
                    "default",
                    "--rebalance",
                    rebalance,
                ]),
                &mut stdout,
            )
            .unwrap();
        }
        // Greedy never fires on this graph; the charge prints unsigned.
        let stdout = String::from_utf8(stdout).unwrap();
        assert!(
            stdout.contains(
                "rebalance: greedy, 0 batch(es), 0 edge(s) migrated, 0.000000s charged\n"
            ),
            "{stdout}"
        );
        let err = simulate(&argv(&[
            "--input",
            &path,
            "--policy",
            "default",
            "--rebalance",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("rebalance policy"));
    }

    /// A greedy run that actually migrates: its sim-domain trace and
    /// metrics are pinned, and every output byte is independent of
    /// `--threads`.
    #[test]
    fn simulate_rebalance_migration_is_pinned_across_thread_counts() {
        let path = tmp("rebalance_in.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "5000",
            "--out",
            &path,
        ]))
        .unwrap();
        let run_at = |threads: &str| {
            // One pair of paths for every thread count: stdout names them.
            let (trace, metrics) = (tmp("rebalance_trace.json"), tmp("rebalance_metrics.json"));
            let mut stdout = Vec::new();
            simulate_to(
                &argv(&[
                    "--input",
                    &path,
                    "--cluster",
                    "case3",
                    "--app",
                    "pagerank",
                    "--algorithm",
                    "random",
                    "--policy",
                    "default",
                    "--rebalance",
                    "greedy",
                    "--threads",
                    threads,
                    "--trace-out",
                    &trace,
                    "--metrics-out",
                    &metrics,
                ]),
                &mut stdout,
            )
            .unwrap();
            [
                String::from_utf8(stdout).unwrap(),
                std::fs::read_to_string(&trace).unwrap(),
                std::fs::read_to_string(&metrics).unwrap(),
            ]
        };
        let reference = run_at("1");
        let [stdout, trace, metrics] = &reference;
        assert!(
            stdout.contains("rebalance: greedy, 1 batch(es), 7746 edge(s) migrated, 0.001198s"),
            "{stdout}"
        );
        // The trace and metrics lines reach the writer `simulate_to` is
        // given, after the summary.
        let trace_line = format!(
            "\ntrace: 137 events recorded, wrote {} (open in",
            tmp("rebalance_trace.json")
        );
        assert!(stdout.contains(&trace_line), "{stdout}");
        let metrics_line = format!("histograms, wrote {}\n", tmp("rebalance_metrics.json"));
        assert!(stdout.contains("\nmetrics: "), "{stdout}");
        assert!(stdout.ends_with(&metrics_line), "{stdout}");
        assert!(trace.contains("{\"name\":\"migration\",\"cat\":\"rebalance\""));
        assert_pinned("simulate_rebalance_trace.json", trace);
        assert_pinned("simulate_rebalance_metrics.json", metrics);
        for threads in ["2", "4"] {
            assert_eq!(run_at(threads), reference, "--threads {threads}");
        }
    }

    #[test]
    fn simulate_trace_out_is_byte_identical_across_thread_counts() {
        let path = tmp("trace_in.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "900",
            "--out",
            &path,
        ]))
        .unwrap();
        let trace_at = |threads: &str| {
            let out = tmp(&format!("trace_{threads}.json"));
            simulate(&argv(&[
                "--input",
                &path,
                "--cluster",
                "case2",
                "--app",
                "pagerank",
                "--algorithm",
                "hybrid",
                "--policy",
                "default",
                "--threads",
                threads,
                "--trace-out",
                &out,
            ]))
            .unwrap();
            std::fs::read_to_string(&out).unwrap()
        };
        let reference = trace_at("1");
        assert!(reference.contains("\"traceEvents\""));
        assert!(reference.contains("barrier_wait"));
        assert!(
            !reference.contains("\"pid\":1"),
            "chrome trace output carries sim-domain events only"
        );
        assert_pinned("simulate_trace.json", &reference);
        for threads in ["2", "4"] {
            assert_eq!(
                trace_at(threads),
                reference,
                "simulated-time trace must not depend on --threads"
            );
        }
    }

    #[test]
    fn simulate_metrics_out_is_byte_identical_across_thread_counts() {
        let path = tmp("metrics_in.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "900",
            "--out",
            &path,
        ]))
        .unwrap();
        let metrics_at = |threads: &str, out: &str| {
            simulate(&argv(&[
                "--input",
                &path,
                "--cluster",
                "case2",
                "--app",
                "pagerank",
                "--algorithm",
                "hybrid",
                "--policy",
                "ccr",
                "--scale",
                "3200",
                "--threads",
                threads,
                "--metrics-out",
                out,
            ]))
            .unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let reference = metrics_at("1", &tmp("metrics_1.json"));
        assert!(reference.contains("engine/superstep_makespan_s"));
        assert!(reference.contains("engine/supersteps_total"));
        assert!(reference.contains("partition/hybrid/edges_total"));
        assert!(
            !reference.contains("\"Wall\""),
            "default snapshot carries sim-domain metrics only"
        );
        assert_pinned("simulate_metrics.json", &reference);
        for threads in ["2", "4"] {
            assert_eq!(
                metrics_at(threads, &tmp(&format!("metrics_{threads}.json"))),
                reference,
                "sim-domain metrics snapshot must not depend on --threads"
            );
        }
        // Round-trip through the parser lands on the same bytes.
        let back = hetgraph_core::metrics::MetricsSnapshot::from_json(&reference).unwrap();
        assert_eq!(back.to_json(), reference);
        // `.prom` selects Prometheus text exposition; `.full.` opts into
        // the wall-clock series.
        let prom = metrics_at("2", &tmp("metrics.prom"));
        assert!(prom.contains("# TYPE hetgraph_engine_supersteps_total counter"));
        assert!(prom.contains("domain=\"sim\""));
        let full = metrics_at("2", &tmp("metrics.full.json"));
        assert!(full.contains("\"Wall\""), "full snapshot has wall metrics");
    }

    #[test]
    fn report_command_renders_exported_trace() {
        let path = tmp("report_in.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "900",
            "--out",
            &path,
        ]))
        .unwrap();
        let trace = tmp("report_trace.jsonl");
        let metrics = tmp("report_metrics.json");
        simulate(&argv(&[
            "--input",
            &path,
            "--cluster",
            "case3",
            "--app",
            "pagerank",
            "--policy",
            "default",
            "--rebalance",
            "greedy",
            "--trace-out",
            &trace,
            "--metrics-out",
            &metrics,
        ]))
        .unwrap();
        report(&argv(&[
            "--trace",
            &trace,
            "--metrics",
            &metrics,
            "--top",
            "3",
        ]))
        .unwrap();
        // A chrome-format trace (non-.jsonl) is rejected with a useful hint.
        let chrome = tmp("report_trace.json");
        simulate(&argv(&[
            "--input",
            &path,
            "--policy",
            "default",
            "--trace-out",
            &chrome,
        ]))
        .unwrap();
        let err = report(&argv(&["--trace", &chrome])).unwrap_err();
        assert!(err.message().contains("cannot analyze"), "{err:?}");
    }

    #[test]
    fn simulate_trace_out_jsonl_includes_wall_events() {
        let path = tmp("trace_jsonl_in.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "700",
            "--out",
            &path,
        ]))
        .unwrap();
        let out = tmp("trace.jsonl");
        simulate(&argv(&[
            "--input",
            &path,
            "--cluster",
            "case2",
            "--policy",
            "ccr",
            "--scale",
            "3200",
            "--trace-out",
            &out,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.lines().count() > 10);
        assert!(
            text.contains("\"domain\":\"Wall\""),
            "profiler/partition spans"
        );
        assert!(text.contains("\"domain\":\"Sim\""), "engine spans");
        assert!(text.contains("partition/hybrid"));
        assert!(text.contains("proxy_generation"));
    }

    #[test]
    fn submit_runs_framework_flow_with_threads() {
        let path = tmp("submit.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "600",
            "--out",
            &path,
        ]))
        .unwrap();
        submit(&argv(&[
            "--input",
            &path,
            "--cluster",
            "case2",
            "--app",
            "kcore",
            "--threads",
            "2",
            "--scale",
            "3200",
        ]))
        .unwrap();
    }

    #[test]
    fn submit_rejects_unprofiled_app_only_under_ccr() {
        let path = tmp("submit_f32.hgb");
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "600",
            "--out",
            &path,
        ]))
        .unwrap();
        let run = |policy: &str| {
            submit(&argv(&[
                "--input",
                &path,
                "--app",
                "pagerank_f32",
                "--policy",
                policy,
                "--scale",
                "3200",
                "--threads",
                "1",
            ]))
        };
        let err = run("ccr").unwrap_err();
        assert!(
            err.message().contains("pagerank_f32") && err.message().contains("kcore"),
            "{err:?}"
        );
        run("default").unwrap();
        run("prior").unwrap();
    }

    #[test]
    fn generate_shards_then_simulate_compact_matches_plain() {
        let file = tmp("shards_plain.hgb");
        let dir = tmp("shards_dir");
        std::fs::remove_dir_all(&dir).ok();
        // One invocation, both sinks: the file and the shard directory
        // hold the same edge sequence.
        generate(&argv(&[
            "--family",
            "powerlaw",
            "--vertices",
            "900",
            "--seed",
            "5",
            "--out",
            &file,
            "--shards",
            &dir,
        ]))
        .unwrap();
        let set = ShardSet::open(Path::new(&dir)).unwrap();
        let g = load_graph(&file).unwrap();
        assert_eq!(set.num_edges() as usize, g.num_edges());
        assert_eq!(set.stream().collect::<Vec<_>>(), g.edges());
        // Every algorithm reads either input as the same edges: the same
        // summary and the same sim-domain metrics, partition counters
        // included.
        let run = |input: &str, kind: PartitionerKind, metrics: &str| {
            let mut stdout = Vec::new();
            simulate_to(
                &argv(&[
                    "--input",
                    input,
                    "--app",
                    "pagerank",
                    "--algorithm",
                    kind.name(),
                    "--policy",
                    "ccr",
                    "--scale",
                    "3200",
                    "--threads",
                    "2",
                    "--compact",
                    "--metrics-out",
                    metrics,
                ]),
                &mut stdout,
            )
            .unwrap();
            (
                String::from_utf8(stdout).unwrap(),
                std::fs::read_to_string(metrics).unwrap(),
            )
        };
        // One metrics path for both inputs: stdout names it.
        let metrics = tmp("shards_metrics.json");
        for kind in PartitionerKind::ALL {
            let from_file = run(&file, kind, &metrics);
            let from_shards = run(&dir, kind, &metrics);
            assert!(from_file.0.contains("per-machine busy"), "{kind}");
            assert!(
                from_file
                    .1
                    .contains(&format!("partition/{kind}/edges_total")),
                "{kind}"
            );
            assert_eq!(from_shards.0, from_file.0, "{kind} stdout");
            assert_eq!(from_shards.1, from_file.1, "{kind} metrics");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_flag_errors_are_helpful() {
        // Growth families cannot stream.
        let err = generate(&argv(&[
            "--family",
            "ba",
            "--vertices",
            "100",
            "--shards",
            &tmp("ba_shards"),
        ]))
        .unwrap_err();
        assert!(err.message().contains("cannot stream"), "{err:?}");
        // A sink is required.
        let err = generate(&argv(&["--family", "powerlaw", "--vertices", "10"])).unwrap_err();
        assert!(err.message().contains("--out"), "{err:?}");
        // Shard input without --compact.
        let dir = tmp("err_shards");
        std::fs::remove_dir_all(&dir).ok();
        generate(&argv(&[
            "--family",
            "gnm",
            "--vertices",
            "50",
            "--edges",
            "200",
            "--shards",
            &dir,
        ]))
        .unwrap();
        let err = simulate(&argv(&["--input", &dir, "--policy", "default"])).unwrap_err();
        assert!(err.message().contains("--compact"), "{err:?}");
        // Hybrid reads the shards into memory and runs like the rest.
        simulate(&argv(&[
            "--input",
            &dir,
            "--policy",
            "default",
            "--algorithm",
            "hybrid",
            "--compact",
        ]))
        .unwrap();
        // Compact refuses mid-run migration.
        let err = simulate(&argv(&[
            "--input",
            &dir,
            "--policy",
            "default",
            "--algorithm",
            "random",
            "--compact",
            "--rebalance",
            "greedy",
        ]))
        .unwrap_err();
        assert!(err.message().contains("rebalance"), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(parse_cluster("nope")
            .unwrap_err()
            .message()
            .contains("case1"));
        let err = parse_app("nope").unwrap_err();
        assert!(
            err.message().contains("pagerank") && err.message().contains("kcore"),
            "{err:?}"
        );
        assert!(parse_apps("").is_err());
        // `all` stays the six f64 apps; the reduced-precision PageRank is
        // reachable only by asking for it by name.
        assert_eq!(parse_apps("all").unwrap().len(), 6);
        assert!(parse_apps("all")
            .unwrap()
            .iter()
            .all(|a| a.name() != "pagerank_f32"));
        assert_eq!(parse_app("pagerank_f32").unwrap().name(), "pagerank_f32");
        assert_eq!(parse_apps("sssp,sssp").unwrap().len(), 1);
        assert!(parse_partitioner("nope")
            .unwrap_err()
            .message()
            .contains("hybrid"));
        let err = simulate(&argv(&[
            "--input",
            "/definitely/missing",
            "--policy",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.message().contains("unknown policy"), "{err:?}");
        // `--scale 0` is an error, not a silent scale of 1.
        let err = simulate(&argv(&["--input", "/definitely/missing", "--scale", "0"])).unwrap_err();
        assert!(err.message().contains("--scale"), "{err:?}");
        assert!(load_graph("/definitely/missing")
            .unwrap_err()
            .message()
            .contains("cannot load"));
    }

    #[test]
    fn alpha_from_counts() {
        alpha(&argv(&["--vertices", "403394", "--edges", "3387388"])).unwrap();
    }

    #[test]
    fn serve_runs_with_defaults_scaled_down() {
        serve(&argv(&[
            "--requests",
            "60",
            "--tenants",
            "2",
            "--vertices",
            "500",
            "--seed",
            "5",
        ]))
        .unwrap();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let err = serve(&argv(&["--requests", "0"])).unwrap_err();
        assert!(err.message().contains("--requests"), "{err:?}");
        let err = serve(&argv(&[
            "--requests",
            "10",
            "--tenants",
            "3",
            "--weights",
            "1,2",
            "--vertices",
            "100",
        ]))
        .unwrap_err();
        assert!(err.message().contains("entries"), "{err:?}");
        let err = serve(&argv(&[
            "--requests",
            "10",
            "--weights",
            "0,1",
            "--vertices",
            "100",
        ]))
        .unwrap_err();
        assert!(err.message().contains("--weights"), "{err:?}");
        let err = serve(&argv(&[
            "--requests",
            "10",
            "--vertices",
            "100",
            "--max-batch",
            "0",
        ]))
        .unwrap_err();
        assert!(err.message().contains("--max-batch"), "{err:?}");
        // One past the widest lane block.
        let err = serve(&argv(&[
            "--requests",
            "10",
            "--vertices",
            "100",
            "--max-batch",
            "65",
        ]))
        .unwrap_err();
        assert!(
            err.message().contains("--max-batch must be in 1..=64"),
            "{err:?}"
        );
    }

    #[test]
    fn serve_trace_and_metrics_are_byte_identical_across_thread_counts() {
        // `.json` trace output is the sim-domain Chrome trace; like
        // `simulate`, it must not depend on host threading.
        let out = |threads: &str, tag: &str| {
            let trace = tmp(&format!("serve_{tag}.json"));
            let metrics = tmp(&format!("serve_m_{tag}.json"));
            serve(&argv(&[
                "--requests",
                "40",
                "--tenants",
                "2",
                "--vertices",
                "400",
                "--threads",
                threads,
                "--trace-out",
                &trace,
                "--metrics-out",
                &metrics,
            ]))
            .unwrap();
            (
                std::fs::read_to_string(trace).unwrap(),
                std::fs::read_to_string(metrics).unwrap(),
            )
        };
        let (trace1, metrics1) = out("1", "t1");
        assert_pinned("serve_trace.json", &trace1);
        assert_pinned("serve_metrics.json", &metrics1);
        let (trace4, metrics4) = out("4", "t4");
        assert_eq!(trace1, trace4, "serve trace must not depend on threads");
        assert_eq!(
            metrics1, metrics4,
            "serve metrics must not depend on threads"
        );
        assert!(trace1.contains("wave/"), "serve spans must reach the trace");
        assert!(metrics1.contains("serve/queue_depth"));
    }

    #[test]
    fn serve_jsonl_trace_feeds_the_offline_report() {
        let trace = tmp("serve_report.jsonl");
        serve(&argv(&[
            "--requests",
            "30",
            "--vertices",
            "400",
            "--trace-out",
            &trace,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let analysis = hetgraph_engine::TraceAnalysis::from_jsonl(&text).unwrap();
        assert!(!analysis.render(3, None).is_empty());
    }

    #[test]
    fn lying_binary_header_is_an_error_not_a_panic() {
        // A `.hgb` header claiming 2^61 edges with no payload behind them.
        let path = tmp("lying_header.hgb");
        let mut bytes = b"HETGRAF1".to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = simulate(&argv(&["--input", &path, "--policy", "default"])).unwrap_err();
        assert!(err.message().contains("cannot load"), "{err:?}");
        assert!(err.message().contains("truncated at edge 0"), "{err:?}");
    }

    #[test]
    fn deeply_nested_report_input_is_an_error_not_an_abort() {
        let trace = tmp("deep_trace.jsonl");
        std::fs::write(&trace, "[".repeat(1_000_000)).unwrap();
        let err = report(&argv(&["--trace", &trace])).unwrap_err();
        assert!(err.message().contains("cannot analyze"), "{err:?}");
        assert!(
            err.message().contains("recursion limit exceeded"),
            "{err:?}"
        );
    }
}
