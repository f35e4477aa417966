//! The metric names this benchmark reports, and how the per-layer ones
//! are derived from a finished trace.
//!
//! `BENCHMARK.json` at the repository root declares the same names with
//! the same units and directions; `tests/contract.rs` holds the two
//! together. Host metrics are wall-clock or memory of the machine the
//! benchmark runs on; simulated metrics are outputs of the modelled
//! cluster and repeat exactly for a given seed.

use crate::trace::Trace;

/// Unit, direction, and whether the value is an output of the simulated
/// cluster (it then repeats exactly for a seed) or a host measurement.
type Kind = (&'static str, &'static str, bool);
const HOST_S: Kind = ("s", "lower", false);
const HOST_MS: Kind = ("ms", "lower", false);
const HOST_US: Kind = ("us", "lower", false);
const HOST_MIB: Kind = ("MiB", "lower", false);
const HOST_RATE: Kind = ("1/s", "higher", false);
const HOST_SPEEDUP: Kind = ("ratio", "higher", false);
const HOST_RATIO: Kind = ("ratio", "lower", false);
const COUNT: Kind = ("count", "lower", true);
const BYTES: Kind = ("B", "lower", true);
const BYTES_PER_EDGE: Kind = ("B/edge", "lower", true);
const SIM_S: Kind = ("sim_s", "lower", true);
const SIM_J: Kind = ("sim_J", "lower", true);
const SIM_RATIO: Kind = ("ratio", "lower", true);
const SIM_GAIN: Kind = ("ratio", "higher", true);
const SIM_PCT: Kind = ("%", "lower", true);
const SIM_RATE: Kind = ("1/sim_s", "higher", true);

/// End-to-end metrics: defined, and never zero, on every workload.
pub const END_TO_END: [(&str, Kind); 7] = [
    ("setup_s", HOST_S),
    ("wall_s", HOST_S),
    ("ops_per_s", HOST_RATE),
    ("peak_rss_mib", HOST_MIB),
    ("sim_makespan_s", SIM_S),
    ("sim_p50_latency_s", SIM_S),
    ("sim_p95_latency_s", SIM_S),
];

/// The end-to-end metrics for `values`, given in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 7]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, kind), value)| Metric::new(name, kind, value))
        .collect()
}

/// The kernel applications that get per-app engine metrics.
const KERNEL_APPS: [&str; 4] = ["pagerank", "connected_components", "sssp", "kcore"];

/// The six profiled applications.
const PROFILED_APPS: [&str; 6] = [
    "pagerank",
    "coloring",
    "connected_components",
    "triangle_count",
    "sssp",
    "kcore",
];

/// The five partitioners, by `PartitionerKind::name`.
const PARTITIONERS: [&str; 5] = ["random", "oblivious", "grid", "hybrid", "ginger"];

/// One measured value with its declaration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Whether it is an output of the simulated cluster, which repeats
    /// exactly for a seed, rather than a host measurement.
    pub simulated: bool,
}

impl Metric {
    fn new(name: &str, kind: Kind, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: kind.0,
            better: kind.1,
            simulated: kind.2,
        }
    }
}

/// Derive every per-layer metric from `trace`. A metric whose spans the
/// workload never opened reads 0. `host` carries the two numbers the
/// harness measures itself: calibration seconds and tracing overhead.
pub fn per_layer(trace: &Trace, host: [f64; 2]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut set = |name: &str, kind: Kind, value: f64| {
        assert!(
            out.iter().all(|m| m.name != name),
            "per-layer metric {name} derived twice"
        );
        out.push(Metric::new(name, kind, value));
    };
    let sec = |span: &str| trace.seconds(span);
    let rate = |count: f64, seconds: f64| if seconds > 0.0 { count / seconds } else { 0.0 };

    // gen
    set("gen.powerlaw_s", HOST_S, sec("gen.powerlaw"));
    set(
        "gen.powerlaw_edges_per_s",
        HOST_RATE,
        rate(trace.sum("gen.powerlaw", "edges"), sec("gen.powerlaw")),
    );
    set("gen.proxy_s", HOST_S, sec("gen.proxy"));
    set("gen.alpha_fit_s", HOST_S, sec("gen.alpha_fit"));
    set(
        "gen.alpha_fit_iters",
        COUNT,
        trace.sum("gen.alpha_fit", "iters"),
    );
    set("gen.shards_s", HOST_S, sec("gen.shards"));
    set(
        "gen.shard_edges_per_s",
        HOST_RATE,
        rate(trace.sum("gen.shards", "edges"), sec("gen.shards")),
    );
    set("gen.shard_bytes", BYTES, trace.sum("gen.shards", "bytes"));

    // profile
    set("profile.pool_s", HOST_S, sec("profile.pool"));
    set("profile.cells", COUNT, trace.sum("profile.pool", "cells"));
    set(
        "profile.ccr_spread",
        SIM_GAIN,
        trace.mean("profile.pool", "ccr_spread"),
    );
    for app in PROFILED_APPS {
        set(
            &format!("profile.app_s.{app}"),
            HOST_S,
            sec(&format!("profile.app.{app}")),
        );
    }

    // partition
    let (mut part_s, mut part_edges) = (0.0, 0.0);
    for kind in PARTITIONERS {
        let span = format!("partition.{kind}");
        set(&format!("partition.{kind}_s"), HOST_S, sec(&span));
        part_s += sec(&span);
        part_edges += trace.sum(&span, "edges");
    }
    set("partition.edges_per_s", HOST_RATE, rate(part_edges, part_s));
    set("partition.metrics_s", HOST_S, sec("partition.metrics"));
    set(
        "partition.stream_oblivious_s",
        HOST_S,
        sec("partition.stream_oblivious"),
    );
    set(
        "partition.replication_factor",
        SIM_RATIO,
        trace.mean("partition.metrics", "hybrid_replication_factor"),
    );
    set(
        "partition.weighted_balance_error",
        SIM_RATIO,
        trace.mean("partition.metrics", "hybrid_weighted_balance_error"),
    );

    // engine: building
    set("engine.build_s", HOST_S, sec("engine.build"));
    set(
        "engine.build_edges_per_s",
        HOST_RATE,
        rate(trace.sum("engine.build", "edges"), sec("engine.build")),
    );
    set(
        "engine.resident_bytes_per_edge",
        BYTES_PER_EDGE,
        trace.mean("engine.row_tables", "resident_bytes_per_edge"),
    );
    set("engine.row_tables_s", HOST_S, sec("engine.row_tables"));
    set(
        "engine.compact_build_s",
        HOST_S,
        sec("engine.compact_build"),
    );
    set(
        "engine.compact_bytes_per_edge",
        BYTES_PER_EDGE,
        trace.mean("engine.compact_build", "bytes_per_edge"),
    );

    // engine: kernel
    let (mut wait, mut machine, mut busy_max, mut busy_mean, mut energy) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for app in KERNEL_APPS {
        let span = format!("engine.run.{app}");
        let (s, steps, units) = (
            sec(&span),
            trace.sum(&span, "supersteps"),
            trace.sum(&span, "edge_units"),
        );
        set(&format!("engine.run_s.{app}"), HOST_S, s);
        set(&format!("engine.supersteps.{app}"), COUNT, steps);
        set(&format!("engine.edge_units.{app}"), COUNT, units);
        set(
            &format!("engine.edge_units_per_s.{app}"),
            HOST_RATE,
            rate(units, s),
        );
        set(
            &format!("engine.step_us.{app}"),
            HOST_US,
            rate(s * 1e6, steps),
        );
        for family in ["engine.run", "engine.compact_run"] {
            let span = format!("{family}.{app}");
            wait += trace.sum(&span, "sim_wait_s");
            machine += trace.sum(&span, "sim_machine_s");
            busy_max += trace.sum(&span, "sim_busy_max_s");
            busy_mean += trace.sum(&span, "sim_busy_mean_s");
            energy += trace.sum(&span, "sim_energy_j");
        }
    }
    for app in ["pagerank", "sssp"] {
        let compact = sec(&format!("engine.compact_run.{app}"));
        let one = sec(&format!("engine.run_1t.{app}"));
        // The baseline repeats the repetition's runs of this app on one
        // thread, on whichever representation the workload uses.
        let many = sec(&format!("engine.run.{app}")) + compact;
        set(&format!("engine.compact_run_s.{app}"), HOST_S, compact);
        set(&format!("engine.run_1t_s.{app}"), HOST_S, one);
        set(
            &format!("engine.speedup_2t.{app}"),
            HOST_SPEEDUP,
            rate(one, many),
        );
    }
    set(
        "engine.sim_barrier_wait_frac",
        SIM_RATIO,
        rate(wait, machine),
    );
    set("engine.sim_imbalance", SIM_RATIO, rate(busy_max, busy_mean));

    // serve
    let serve_s = sec("serve.serve");
    let (waves, lanes) = (
        trace.sum("serve.serve", "waves"),
        trace.sum("serve.serve", "lanes"),
    );
    set("serve.serve_s", HOST_S, serve_s);
    set("serve.waves", COUNT, waves);
    set("serve.mean_lanes", SIM_GAIN, rate(lanes, waves));
    set("serve.shed", COUNT, trace.sum("serve.serve", "shed"));
    set("serve.wave_ms", HOST_MS, rate(serve_s * 1e3, waves));
    set("serve.lanes_per_s", HOST_RATE, rate(lanes, serve_s));
    set("serve.loadgen_s", HOST_S, sec("serve.loadgen"));
    for class in ["sssp", "ppr"] {
        let batched = sec(&format!("serve.wave8.{class}"));
        let solo = sec(&format!("serve.solo8.{class}"));
        set(&format!("serve.wave8_{class}_s"), HOST_S, batched);
        set(&format!("serve.solo8_{class}_s"), HOST_S, solo);
        set(
            &format!("serve.batched_over_solo.{class}"),
            HOST_RATIO,
            rate(batched, solo),
        );
    }
    for key in [
        "sim_queue_wait_p50_s",
        "sim_queue_wait_p99_s",
        "sim_wave_makespan_p50_s",
    ] {
        set(
            &format!("serve.{key}"),
            SIM_S,
            trace.mean("serve.serve", key),
        );
    }

    // core
    set("core.shard_replay_s", HOST_S, sec("core.shard_replay"));
    set(
        "core.shard_replay_edges_per_s",
        HOST_RATE,
        rate(
            trace.sum("core.shard_replay", "edges"),
            sec("core.shard_replay"),
        ),
    );

    // Outputs of the simulated cluster that exist on some workloads
    // only, so they cannot be end-to-end metrics under the contract.
    set("sim.energy_j", SIM_J, energy);
    set(
        "sim.ccr_gain",
        SIM_GAIN,
        trace.mean("probe.ccr_gain", "ccr_gain"),
    );
    set(
        "sim.ccr_error_pct",
        SIM_PCT,
        trace.mean("profile.accuracy", "ccr_error_pct"),
    );
    set("sim.rps", SIM_RATE, trace.mean("serve.serve", "sim_rps"));
    set(
        "sim.p99_latency_s",
        SIM_S,
        trace.mean("serve.serve", "sim_p99_latency_s"),
    );

    // host
    set(
        "host.unattributed_frac",
        HOST_RATIO,
        trace.unattributed_frac(),
    );
    set("host.calib_s", HOST_S, host[0]);
    set("host.trace_overhead_frac", HOST_RATIO, host[1]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_trace_yields_every_name_once_and_all_zero() {
        let metrics = per_layer(&Trace::new(Vec::new()), [0.0, 0.0]);
        assert!(metrics.len() <= 128, "{} per-layer metrics", metrics.len());
        assert!(metrics.iter().all(|m| m.value == 0.0));
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
    }
}
