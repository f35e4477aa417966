//! `BENCHMARK.json` against the driver's schema and against what the
//! binary actually prints, on smoke-sized inputs with every check on.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use hetgraph_benchmark::compare::BENCHMARK_JSON;
use hetgraph_benchmark::metrics;
use hetgraph_benchmark::trace::Trace;
use serde::Value;

fn spec() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn items<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key).and_then(Value::as_seq).expect(key)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn benchmark_json_fits_the_drivers_schema() {
    let spec = spec();
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = items(&spec, "command");
    assert!((1..=32).contains(&command.len()));
    assert_eq!(command[0].as_str(), Some("bash"));
    assert_eq!(command[1].as_str(), Some("benchmark/run.sh"));
    assert_eq!(items(&spec, "paths"), [Value::Str("benchmark".to_string())]);
    let seconds = spec.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = items(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(
        runs * (seconds + 20) <= 3420,
        "{runs} runs of {seconds} s plus set-up and checks must fit the driver's budget"
    );
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = items(&spec, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let per_layer = items(&spec, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    let mut seen = BTreeSet::new();
    for m in workloads.iter().chain(end_to_end).chain(per_layer) {
        let name = text(m, "name");
        assert!(is_name(name), "{name:?} is not a valid name");
        assert!(seen.insert(name), "{name} is declared twice");
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(text(m, "unit")), "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
    }
}

fn declared(key: &str) -> Vec<(String, String, String)> {
    items(&spec(), key)
        .iter()
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
            )
        })
        .collect()
}

#[test]
fn declared_names_units_and_directions_are_the_codes() {
    let as_declared = |metrics: &[metrics::Metric]| -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string(), m.better.to_string()))
            .collect()
    };
    assert_eq!(
        declared("end_to_end"),
        as_declared(&metrics::end_to_end([1.0; 7]))
    );
    let empty = Trace::new(Vec::new());
    assert_eq!(
        declared("per_layer"),
        as_declared(&metrics::per_layer(&empty, [0.0, 0.0]))
    );
}

/// Run the real binary on smoke-sized inputs; returns the parsed last
/// line of its output and the parsed result file.
fn smoke(workload: &str, trace: bool) -> (Value, Value) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_hetbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("hetbench starts");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let line = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let result = std::fs::read_to_string(out.join(format!("{workload}.result.json"))).unwrap();
    let result = serde_json::from_str(&result).expect("the result file is JSON");
    if trace {
        let trace = std::fs::read_to_string(out.join(format!("trace.{workload}.json"))).unwrap();
        let trace = serde_json::from_str(&trace).expect("the trace file is JSON");
        let events = trace.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert!(events.len() > 10, "{workload}: {} events", events.len());
    }
    // Nothing is left behind but the result and trace files.
    let left: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.ends_with(".json"))
        .collect();
    assert!(left.is_empty(), "{workload} left {left:?} behind");
    (line, result)
}

fn printed_names(line: &Value) -> Vec<String> {
    keys(line.get("metrics").unwrap())
        .into_iter()
        .map(String::from)
        .collect()
}

fn names_of(declared: Vec<(String, String, String)>) -> Vec<String> {
    declared.into_iter().map(|(name, _, _)| name).collect()
}

fn traced_smoke_prints_the_declared_per_layer_names(workload: &str, must_move: &[&str]) {
    let (line, result) = smoke(workload, true);
    assert_eq!(printed_names(&line), names_of(declared("per_layer")));
    let metrics = line.get("metrics").unwrap();
    for name in must_move {
        let value = metrics.get(name).and_then(|m| m.get("value")).unwrap();
        assert!(value.as_f64().unwrap() > 0.0, "{workload}: {name} is 0");
    }
    // The accounting closes: layer spans cover the traced repetitions.
    let glue = metrics
        .get("host.unattributed_frac")
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(
        glue < 0.05,
        "{workload}: {glue} of the wall is unattributed"
    );
    // The same process measured the end-to-end numbers first.
    for m in result.get("end_to_end").and_then(Value::as_seq).unwrap() {
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{m:?}"
        );
    }
}

#[test]
fn submit_dense_smoke() {
    traced_smoke_prints_the_declared_per_layer_names(
        "submit_dense",
        &[
            "gen.powerlaw_s",
            "profile.pool_s",
            "partition.hybrid_s",
            "partition.metrics_s",
            "partition.replication_factor",
            "engine.build_s",
            "engine.row_tables_s",
            "engine.run_s.pagerank",
            "engine.run_s.connected_components",
            "engine.supersteps.pagerank",
            "engine.run_1t_s.pagerank",
            "engine.sim_imbalance",
            "sim.energy_j",
            "sim.ccr_gain",
            "host.calib_s",
        ],
    );
}

#[test]
fn submit_sparse_smoke() {
    traced_smoke_prints_the_declared_per_layer_names(
        "submit_sparse",
        &[
            "engine.run_s.sssp",
            "engine.run_s.kcore",
            "engine.step_us.sssp",
            "engine.edge_units.kcore",
            "engine.run_1t_s.sssp",
            "engine.speedup_2t.sssp",
        ],
    );
}

#[test]
fn pipeline_wide_smoke() {
    traced_smoke_prints_the_declared_per_layer_names(
        "pipeline_wide",
        &[
            "gen.proxy_s",
            "gen.alpha_fit_s",
            "gen.alpha_fit_iters",
            "profile.pool_s",
            "profile.cells",
            "profile.ccr_spread",
            "profile.app_s.coloring",
            "profile.app_s.triangle_count",
            "partition.random_s",
            "partition.grid_s",
            "partition.oblivious_s",
            "partition.hybrid_s",
            "partition.ginger_s",
            "partition.edges_per_s",
            "engine.run_s.pagerank",
            "sim.ccr_gain",
            "sim.ccr_error_pct",
        ],
    );
}

#[test]
fn stream_compact_smoke() {
    traced_smoke_prints_the_declared_per_layer_names(
        "stream_compact",
        &[
            "gen.shards_s",
            "gen.shard_bytes",
            "partition.stream_oblivious_s",
            "engine.compact_build_s",
            "engine.compact_bytes_per_edge",
            "engine.compact_run_s.pagerank",
            "engine.compact_run_s.sssp",
            "engine.run_1t_s.sssp",
            "core.shard_replay_s",
            "core.shard_replay_edges_per_s",
        ],
    );
}

#[test]
fn serve_mixed_smoke() {
    traced_smoke_prints_the_declared_per_layer_names(
        "serve_mixed",
        &[
            "serve.serve_s",
            "serve.waves",
            "serve.mean_lanes",
            "serve.wave_ms",
            "serve.lanes_per_s",
            "serve.loadgen_s",
            "serve.wave8_sssp_s",
            "serve.solo8_ppr_s",
            "serve.batched_over_solo.sssp",
            "serve.sim_queue_wait_p99_s",
            "serve.sim_wave_makespan_p50_s",
            "sim.rps",
            "sim.p99_latency_s",
        ],
    );
}

#[test]
fn an_untraced_run_prints_the_declared_end_to_end_names_and_no_zero() {
    let (line, result) = smoke("submit_dense", false);
    assert_eq!(printed_names(&line), names_of(declared("end_to_end")));
    for name in printed_names(&line) {
        let m = line.get("metrics").unwrap().get(&name).unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{name}"
        );
    }
    let per_layer = result.get("per_layer").and_then(Value::as_seq).unwrap();
    assert!(per_layer.is_empty());
}

#[test]
fn every_declared_workload_is_one_the_binary_knows() {
    let spec = spec();
    let declared: Vec<&str> = items(&spec, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(
        declared,
        [
            "submit_dense",
            "submit_sparse",
            "pipeline_wide",
            "stream_compact",
            "serve_mixed"
        ]
    );
    let unknown = Command::new(env!("CARGO_BIN_EXE_hetbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty(), "no result line on a usage error");
}
