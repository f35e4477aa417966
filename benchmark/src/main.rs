//! `hetbench` command line. `run.sh` is the front door; see its usage.
//!
//! ```text
//! hetbench --workload NAME --seed N --seconds S --trace 0|1
//!          [--threads T] [--out DIR] [--smoke]      measure one workload
//! hetbench --merge DIR                              fold DIR/*.result.json into DIR/results.json
//! hetbench --compare A.json B.json                  is B no worse than A?
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hetgraph_benchmark::harness::{self, Config, RunResult};
use hetgraph_benchmark::workloads::{
    PipelineWide, ServeMixed, StreamCompact, SubmitDense, SubmitSparse,
};
use hetgraph_benchmark::{compare, stats};
use serde::Value;

const USAGE: &str = "usage: hetbench --workload NAME --seed N --seconds S --trace 0|1 \
[--threads T] [--out DIR] [--smoke]\n       hetbench --merge DIR\n       \
hetbench --compare A.json B.json\nworkloads: submit_dense submit_sparse pipeline_wide \
stream_compact serve_mixed";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hetbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("--compare") => match args {
            [_, a, b] => run_compare(Path::new(a), Path::new(b)),
            _ => Err(format!("--compare takes two results files\n{USAGE}")),
        },
        Some("--merge") => match args {
            [_, dir] => merge(Path::new(dir)).map(|()| ExitCode::SUCCESS),
            _ => Err(format!("--merge takes the results directory\n{USAGE}")),
        },
        _ => measure(args).map_err(|e| format!("{e}\n{USAGE}")),
    }
}

fn value_of<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let mut workload: Option<String> = None;
    let mut cfg = Config {
        seed: 42,
        seconds: 10.0,
        trace: false,
        // Two threads when the host has them: enough to exercise every
        // parallel path, few enough that the numbers compare across hosts.
        threads: stats::nproc().min(2),
        smoke: false,
        out: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value_of(flag, it.next())?),
            "--seed" => cfg.seed = value_of(flag, it.next())?,
            "--seconds" => cfg.seconds = value_of(flag, it.next())?,
            "--trace" => cfg.trace = value_of::<u8>(flag, it.next())? != 0,
            "--threads" => cfg.threads = value_of(flag, it.next())?,
            "--out" => cfg.out = value_of(flag, it.next())?,
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cfg.threads == 0 || cfg.threads > stats::nproc() {
        return Err(format!(
            "--threads must be between 1 and the {} cores available",
            stats::nproc()
        ));
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;

    let out = cfg.out.clone();
    let (result, chrome_trace) = match workload.as_str() {
        "submit_dense" => harness::execute(&SubmitDense, cfg),
        "submit_sparse" => harness::execute(&SubmitSparse, cfg),
        "pipeline_wide" => harness::execute(&PipelineWide, cfg),
        "stream_compact" => harness::execute(&StreamCompact, cfg),
        "serve_mixed" => harness::execute(&ServeMixed, cfg),
        other => return Err(format!("unknown workload {other:?}")),
    };

    let write = |name: String, text: &str| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let json = serde_json::to_string_pretty(&result).expect("the stand-in serializer cannot fail");
    write(format!("{workload}.result.json"), &json)?;
    if let Some(trace) = &chrome_trace {
        write(format!("trace.{workload}.json"), trace)?;
    }
    report(&result);
    Ok(ExitCode::SUCCESS)
}

/// Print every metric as `workload metric value unit`, the failed checks,
/// and — last — the one-line JSON object the driver reads.
fn report(r: &RunResult) {
    for c in r.checks.iter().filter(|c| !c.ok) {
        println!("{} CHECK FAILED: {} ({})", r.workload, c.name, c.detail);
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{} {} {:?} {}", r.workload, m.name, m.value, m.unit);
    }
    println!(
        "{} ops_total {} count\n{} ops_failed {} count\n{} failed_frac {:?} ratio\n\
         {} reps {}+{} count (untraced+traced){}",
        r.workload,
        r.ops_total,
        r.workload,
        r.ops_failed,
        r.workload,
        r.ops_failed as f64 / r.ops_total as f64,
        r.workload,
        r.reps[0],
        r.reps[1],
        if r.noisy { "  [noisy host]" } else { "" },
    );
    // The object carries the family the run was asked for: end-to-end
    // numbers come from untraced repetitions, per-layer ones from traced.
    let family = if r.traced {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    let metrics = family
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        (
            "correct".to_string(),
            Value::Bool(r.ops_failed == 0 && r.checks.iter().all(|c| c.ok)),
        ),
        ("attempted".to_string(), Value::UInt(r.ops_total as u64)),
        ("failed".to_string(), Value::UInt(r.ops_failed as u64)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("the stand-in serializer cannot fail")
    );
}

/// Fold the per-workload results in `dir` into one `results.json` with
/// the run's manifest. `run.sh` passes the git SHA and compiler version
/// through the environment (a checkout need not be a git repository).
fn merge(dir: &Path) -> Result<(), String> {
    let spec = serde_json::from_str(compare::BENCHMARK_JSON)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut workloads = Vec::new();
    for name in compare::declared_workloads(&spec)? {
        let path = dir.join(format!("{name}.result.json"));
        if let Ok(text) = std::fs::read_to_string(&path) {
            let parsed =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            workloads.push(parsed);
        }
    }
    if workloads.is_empty() {
        return Err(format!("no *.result.json in {}", dir.display()));
    }
    let env = |key: &str| match std::env::var(key) {
        Ok(v) if !v.is_empty() => Value::Str(v),
        _ => Value::Null,
    };
    let first = &workloads[0];
    let carry = |key: &str| first.get(key).cloned().unwrap_or(Value::Null);
    let manifest = Value::Map(vec![
        ("git_sha".to_string(), env("HETBENCH_GIT_SHA")),
        ("rustc".to_string(), env("HETBENCH_RUSTC")),
        (
            "cpu_model".to_string(),
            stats::cpu_model().map_or(Value::Null, Value::Str),
        ),
        ("nproc".to_string(), carry("nproc")),
        ("threads".to_string(), carry("threads")),
        ("seed".to_string(), carry("seed")),
        ("seconds".to_string(), carry("seconds")),
        ("smoke".to_string(), carry("smoke")),
        (
            "reps".to_string(),
            Value::Map(
                workloads
                    .iter()
                    .map(|w: &Value| {
                        let name = w.get("workload").and_then(Value::as_str).unwrap_or("?");
                        (
                            name.to_string(),
                            w.get("reps").cloned().unwrap_or(Value::Null),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let merged = Value::Map(vec![
        ("manifest".to_string(), manifest),
        ("workloads".to_string(), Value::Seq(workloads)),
    ]);
    let path = dir.join("results.json");
    let text = serde_json::to_string_pretty(&merged).expect("the stand-in serializer cannot fail");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("[wrote {}]", path.display());
    Ok(())
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let spec = serde_json::from_str(compare::BENCHMARK_JSON)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = compare::compare(&load(a)?, &load(b)?, &spec)?;
    let end_to_end: Vec<String> = compare::declared_bounds(&spec)?
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    Ok(if compare::print(&rows, &end_to_end) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
