//! Cross-crate contracts of the metrics subsystem.
//!
//! Three layers are pinned here, where every crate is in scope at once:
//!
//! 1. The full pipeline (CCR profiling, partitioning, the superstep
//!    kernel) run under one metering handle produces a sim-domain snapshot
//!    whose JSON and Prometheus bytes are identical at any host thread
//!    count — the metrics analogue of the trace determinism contract in
//!    `tests/threading.rs`.
//! 2. The offline analyzer (`hetgraph report`'s engine) reproduces the
//!    straggler attribution the engine derived online: the histogram from
//!    an exported trace equals [`SimReport::straggler_histogram`] exactly,
//!    and the kernel's metrics agree with the report's counters.
//! 3. `serde_json::format_float` — the float formatting the snapshot
//!    byte-stability rides on. The vendored crate sits outside the
//!    workspace, so its contract is enforced here where the tier-1 gate
//!    runs it.

use hetgraph_apps::AnyApp;
use hetgraph_cluster::Cluster;
use hetgraph_core::metrics::MetricsSnapshot;
use hetgraph_core::obs::{to_jsonl, Telemetry};
use hetgraph_core::Graph;
use hetgraph_engine::{DistributedGraph, SimEngine, TraceAnalysis};
use hetgraph_gen::{PowerLawConfig, ProxySet};
use hetgraph_partition::{MachineWeights, PartitionerKind};
use hetgraph_profile::CcrPool;

fn fixture_graph() -> Graph {
    PowerLawConfig::new(2_000, 2.1).generate(42)
}

#[test]
fn sim_metrics_snapshot_bytes_identical_across_thread_counts() {
    let graph = fixture_graph();
    let cluster = Cluster::case2();
    let app = AnyApp::pagerank();
    let snapshots: Vec<MetricsSnapshot> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let metrics = Telemetry::new(false, true);
            let pool = CcrPool::profile(
                &cluster,
                &ProxySet::standard(3200),
                std::slice::from_ref(&app),
                threads,
                &metrics,
            );
            let weights =
                MachineWeights::from_ccr(pool.ccr(app.name()).expect("just profiled").ratios());
            let assignment = PartitionerKind::Hybrid
                .build()
                .partition(&graph, &weights, threads, &metrics);
            let dist = DistributedGraph::new(&graph, &assignment, threads)
                .expect("assignment must cover the graph");
            let engine = SimEngine::new(&cluster).with_telemetry(&metrics);
            app.run(&engine, &dist, threads);
            metrics.snapshot_sim()
        })
        .collect();
    let json: Vec<String> = snapshots.iter().map(MetricsSnapshot::to_json).collect();
    assert!(json[0].contains("engine/superstep_makespan_s"));
    assert!(json[0].contains("partition/hybrid/edges_total"));
    assert!(json[0].contains("profile/measurement_cells_total"));
    assert_eq!(json[0], json[1], "1 vs 2 threads");
    assert_eq!(json[0], json[2], "1 vs 4 threads");
    let prom: Vec<String> = snapshots
        .iter()
        .map(MetricsSnapshot::to_prometheus)
        .collect();
    assert_eq!(prom[0], prom[1], "1 vs 2 threads (prometheus)");
    assert_eq!(prom[0], prom[2], "1 vs 4 threads (prometheus)");
    // And the JSON form survives the vendored parser byte-for-byte.
    let back = MetricsSnapshot::from_json(&json[0]).expect("snapshot parses");
    assert_eq!(back.to_json(), json[0], "parse → print is the identity");
}

#[test]
fn trace_analysis_reproduces_sim_report_stragglers() {
    let graph = fixture_graph();
    let cluster = Cluster::case3(); // two frequency domains: real stragglers
    let app = AnyApp::pagerank();
    let telemetry = Telemetry::live();
    let assignment = PartitionerKind::RandomHash.build().partition(
        &graph,
        &MachineWeights::uniform(cluster.len()),
        1,
        &telemetry,
    );
    let dist =
        DistributedGraph::new(&graph, &assignment, 1).expect("assignment must cover the graph");
    let engine = SimEngine::new(&cluster).with_telemetry(&telemetry);
    let report = app.run(&engine, &dist, 1);

    let analysis = TraceAnalysis::from_jsonl(&to_jsonl(&telemetry.take_events()))
        .expect("exported trace analyzes");
    // The acceptance contract: offline attribution over the exported
    // trace equals what the engine derived online, step for step.
    assert_eq!(
        analysis.straggler_histogram(),
        report.straggler_histogram(),
        "analyzer must reproduce the engine's straggler attribution"
    );
    assert_eq!(analysis.steps.len(), report.steps.len());
    assert_eq!(analysis.machines, cluster.len());
    for (got, want) in analysis.steps.iter().zip(&report.steps) {
        assert_eq!(got.straggler, want.straggler());
        assert_eq!(got.active, want.active as u64);
    }

    // The kernel's metrics agree with the report the same run produced.
    let snap = telemetry.snapshot_sim();
    assert_eq!(
        snap.counter_value("engine/supersteps_total"),
        Some(report.supersteps as u64)
    );
    let makespan = snap
        .histogram("engine/superstep_makespan_s")
        .expect("kernel histogram registered");
    assert_eq!(makespan.count(), report.supersteps as u64);
    let total_active: u64 = report.steps.iter().map(|s| s.active as u64).sum();
    assert_eq!(
        snap.counter_value("engine/active_vertices_total"),
        Some(total_active)
    );

    // The rendered report names every section the CLI advertises.
    let text = analysis.render(3, Some(&snap));
    for section in [
        "per-machine barrier wait",
        "straggler supersteps",
        "critical path",
        "metrics snapshot",
        "engine/supersteps_total",
    ] {
        assert!(text.contains(section), "report must mention {section:?}");
    }
}

mod format_float {
    use serde::Value;
    use serde_json::{format_float, from_str};

    #[test]
    fn goldens_pin_the_canonical_spelling() {
        assert_eq!(format_float(0.0), "0.0");
        assert_eq!(format_float(-0.0), "-0.0");
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(-2.5), "-2.5");
        assert_eq!(format_float(16777219.625), "16777219.625");
        assert_eq!(format_float(0.1), "0.1");
        assert_eq!(format_float(1e300), "1e300");
        assert_eq!(format_float(-1.5e-8), "-1.5e-8");
        assert_eq!(format_float(5e-324), "5e-324"); // smallest subnormal
        assert_eq!(format_float(f64::MAX), "1.7976931348623157e308");
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn round_trips_random_bit_patterns() {
        let mut state = 0x5eed_cafe_f00du64;
        let mut checked = 0;
        while checked < 5_000 {
            let f = f64::from_bits(splitmix64(&mut state));
            if !f.is_finite() {
                continue; // no JSON spelling; write_float maps these to null
            }
            let text = format_float(f);
            // Shortest round-trip, bit-for-bit (including -0.0).
            assert_eq!(
                text.parse::<f64>().map(f64::to_bits),
                Ok(f.to_bits()),
                "{text:?}"
            );
            // Variant-stable: always re-parses as a float, never an int.
            assert!(
                text.contains('.') || text.contains('e'),
                "{text:?} would re-parse as an integer"
            );
            match from_str(&text).expect("canonical text parses") {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits(), "{text:?}"),
                other => panic!("{text:?} parsed as {other:?}, not Float"),
            }
            // print → parse → print is the identity.
            assert_eq!(format_float(text.parse::<f64>().unwrap()), text);
            checked += 1;
        }
    }

    #[test]
    fn noncanonical_spellings_converge_on_first_reprint() {
        for (spelling, canonical) in [
            ("1E5", "100000.0"),
            ("1e+5", "100000.0"),
            ("2.50", "2.5"),
            ("0.000015", "1.5e-5"),
        ] {
            let Value::Float(f) = from_str(spelling).unwrap() else {
                panic!("{spelling:?} must parse as a float");
            };
            assert_eq!(format_float(f), canonical);
            let Value::Float(g) = from_str(canonical).unwrap() else {
                panic!("{canonical:?} must parse as a float");
            };
            assert_eq!(format_float(g), canonical, "re-print is stable");
        }
    }
}
