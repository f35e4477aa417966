//! Partition perf baseline (`BENCH_partition.json`).
//!
//! Single-threaded ingest rate (edges/sec) of every [`PartitionerKind`]
//! at P ∈ {4, 16, 32, 48} machines on a frozen power-law fixture
//! (`generate(42)`), spanning the u16/u32/u64 replica-mask
//! monomorphizations of the streaming fast path (P = 4 and 16 both sit
//! in the u16 class, at its narrow and full ends).
//!
//! The fixture size scales with [`ExperimentContext::scale`] like every
//! other experiment; the committed `BENCH_partition.json` is generated at
//! `--scale 1` (see `scripts/bench.sh`).
//!
//! Wall-clock is machine-dependent, so `--check` never compares absolute
//! rates across runs: [`gated_rows`] normalizes each partitioner's rate
//! by the `random` partitioner's rate at the same machine count *within
//! the same document* — the ratio cancels host speed — and a normalized
//! rate may lose at most `1 - CHECK_TOLERANCE` of the baseline's.

use std::time::Instant;

use hetgraph_core::obs::OFF;
use hetgraph_gen::PowerLawConfig;
use hetgraph_partition::{MachineWeights, PartitionerKind};
use serde::Value;

use crate::context::ExperimentContext;
use crate::gate::{self, Bound, Row};
use crate::output;

/// Machine counts swept by the throughput measurement: both ends of the
/// u16 replica-mask class of the streaming partitioners, then the u32
/// and the u64 class.
pub const MACHINE_COUNTS: [usize; 4] = [4, 16, 32, 48];

/// One partitioner × machine-count throughput measurement.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ThroughputRow {
    /// Partitioner name ([`PartitionerKind::name`]).
    pub partitioner: String,
    /// Number of machines partitioned across.
    pub machines: usize,
    /// Best-of-`reps` wall-clock of one full ingest, seconds.
    pub wall_s: f64,
    /// Edges ingested per second at `wall_s`.
    pub edges_per_sec: f64,
}

/// The `BENCH_partition.json` payload.
#[derive(Debug, serde::Serialize)]
pub struct PartitionBench {
    /// Graph downscale factor the fixtures were generated at.
    pub scale: u32,
    /// Vertices in the throughput fixture.
    pub throughput_vertices: u32,
    /// Edges in the throughput fixture.
    pub throughput_edges: usize,
    /// Per-partitioner ingest rates.
    pub throughput: Vec<ThroughputRow>,
    /// Total experiment wall-clock, seconds.
    pub total_wall_s: f64,
}

/// Run the partition perf baseline, print its tables, and (with `--out`)
/// write `BENCH_partition.json`.
pub fn partition(ctx: &ExperimentContext) -> PartitionBench {
    let t0 = Instant::now();
    let scale = ctx.scale;
    // Fixture sizes follow the experiment-wide convention: scale 1 is
    // full size, larger scales shrink proportionally (floored so tests
    // at scale 64 still exercise every code path).
    let n_tp = (400_000 / scale).max(2_000);
    let reps_tp = 3;

    println!("== partition perf baseline (scale {scale}) ==");
    let tp_graph = PowerLawConfig::new(n_tp, 2.1).generate(42);
    let m = tp_graph.num_edges();
    println!("throughput fixture: power-law n={n_tp} alpha=2.1 seed=42 ({m} edges)");

    let mut throughput = Vec::new();
    for machines in MACHINE_COUNTS {
        let weights = MachineWeights::uniform(machines);
        for kind in PartitionerKind::ALL {
            let partitioner = kind.build();
            let mut wall_s = f64::INFINITY;
            for _ in 0..reps_tp {
                let t = Instant::now();
                let a = partitioner.partition(&tp_graph, &weights, 1, &OFF);
                wall_s = wall_s.min(t.elapsed().as_secs_f64());
                std::hint::black_box(&a);
            }
            throughput.push(ThroughputRow {
                partitioner: kind.name().to_string(),
                machines,
                wall_s,
                edges_per_sec: m as f64 / wall_s,
            });
        }
    }
    let rows: Vec<Vec<String>> = throughput
        .iter()
        .map(|r| {
            vec![
                r.partitioner.clone(),
                r.machines.to_string(),
                output::f3(r.wall_s),
                format!("{:.0}", r.edges_per_sec),
            ]
        })
        .collect();
    output::print_table(&["partitioner", "P", "wall_s", "edges/sec"], &rows);

    let bench = PartitionBench {
        scale,
        throughput_vertices: n_tp,
        throughput_edges: m,
        throughput,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };
    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_partition",
        &bench,
        &output::RunManifest::collect(42, ctx.threads, scale, bench.total_wall_s),
    );
    bench
}

/// Fraction of the baseline's normalized throughput a fresh run may lose
/// before the regression gate fails (25% headroom absorbs CI-runner
/// noise that normalization alone doesn't cancel).
pub const CHECK_TOLERANCE: f64 = 0.75;

/// The gated rows of a `BENCH_partition.json` document: every non-`random`
/// throughput row's `edges_per_sec` over the `random` row's at the same
/// machine count, held to [`CHECK_TOLERANCE`] of the baseline's.
pub fn gated_rows(doc: &Value) -> Result<Vec<Row>, String> {
    let rates = gate::get(doc, "throughput", Value::as_seq)?
        .iter()
        .map(|row| {
            Ok((
                gate::get(row, "partitioner", Value::as_str)?,
                gate::get(row, "machines", Value::as_u64)?,
                gate::get(row, "edges_per_sec", Value::as_f64)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut rows = Vec::new();
    for &(name, machines, rate) in rates.iter().filter(|(name, ..)| *name != "random") {
        let (.., reference) = rates
            .iter()
            .find(|(n, m, _)| *n == "random" && *m == machines)
            .ok_or_else(|| format!("no random reference row at P={machines}"))?;
        let name = format!("{name} at P={machines}");
        let bound = Bound::AtLeastTimes(CHECK_TOLERANCE);
        rows.push(Row::num(name, rate / reference, bound));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_covers_every_partitioner_and_machine_count() {
        let ctx = ExperimentContext::at_scale(256);
        let bench = partition(&ctx);
        assert_eq!(
            bench.throughput.len(),
            MACHINE_COUNTS.len() * PartitionerKind::ALL.len()
        );
    }

    /// A fabricated measurement: every partitioner ingests at the same
    /// rate (normalized throughput 1.0 everywhere).
    fn fake_bench() -> PartitionBench {
        let mut throughput = Vec::new();
        for machines in MACHINE_COUNTS {
            for kind in PartitionerKind::ALL {
                throughput.push(ThroughputRow {
                    partitioner: kind.name().to_string(),
                    machines,
                    wall_s: 0.1,
                    edges_per_sec: 1.0e6,
                });
            }
        }
        PartitionBench {
            scale: 1,
            throughput_vertices: 400_000,
            throughput_edges: 3_000_000,
            throughput,
            total_wall_s: 1.0,
        }
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let failed = gate::failed_rows(gated_rows, &fake_bench(), &fake_bench());
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn check_normalization_cancels_host_speed() {
        // The same machine measured on a 3x slower day: every wall-clock
        // scales equally, so normalized throughput is unchanged and the
        // gate still passes.
        let mut slow = fake_bench();
        for row in &mut slow.throughput {
            row.wall_s *= 3.0;
            row.edges_per_sec /= 3.0;
        }
        let failed = gate::failed_rows(gated_rows, &slow, &fake_bench());
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn check_flags_throughput_regressions() {
        let with_ginger_at = |edges_per_sec: f64| {
            let mut bench = fake_bench();
            let row = bench
                .throughput
                .iter_mut()
                .find(|r| r.partitioner == "ginger" && r.machines == 16)
                .unwrap();
            row.edges_per_sec = edges_per_sec;
            gate::failed_rows(gated_rows, &bench, &fake_bench())
        };
        // Ginger at P=16 drops to 10% of random's rate (baseline: 100%).
        assert_eq!(with_ginger_at(1.0e5), ["ginger at P=16"]);
        // 20% noise within tolerance: not a failure.
        assert!(with_ginger_at(0.8e6).is_empty());
    }
}
