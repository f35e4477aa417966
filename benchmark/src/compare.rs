//! `run.sh --compare A.json B.json`: is B no worse than A?
//!
//! For each workload and end-to-end metric the verdict is
//!
//! - `pass` / `FAIL` against the bound `BENCHMARK.json` declares — except
//!   that a simulated metric must be *identical* (relative difference at
//!   most 1e-9): the two files come from the same seed, so any difference
//!   is a change to the model, never noise;
//! - `unresolved` for a host-time metric when either run was flagged
//!   noisy or the quartile spread of its samples exceeds the bound: the
//!   measurement cannot tell a regression from the host's own jitter.
//!
//! Simulated per-layer metrics present on both sides are held to the same
//! exactness. Runs with different seed, threads, core count or size are
//! not comparable and are refused.

use serde::Value;

/// The declaration this package is built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Largest relative difference two "identical" simulated values may show.
const EXACT: f64 = 1e-9;

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical, for a simulated metric).
    Pass,
    /// Worse by more than the bound (or different, for a simulated one).
    Fail,
    /// Too noisy to tell.
    Unresolved,
}

/// One line of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// How much worse B is, as a share of A (negative = better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_seq()
        .ok_or_else(|| format!("`{key}` is not a list"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn named<'a>(items: &'a [Value], name: &str) -> Option<&'a Value> {
    items
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
}

/// The workload names `BENCHMARK.json` declares, in its order.
pub fn declared_workloads(spec: &Value) -> Result<Vec<String>, String> {
    list(spec, "workloads")?
        .iter()
        .map(|w| Ok(text(w, "name")?.to_string()))
        .collect()
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn declared_bounds(spec: &Value) -> Result<Vec<(String, String, f64)>, String> {
    list(spec, "end_to_end")?
        .iter()
        .map(|m| {
            Ok((
                text(m, "name")?.to_string(),
                text(m, "better")?.to_string(),
                number(m, "bound")?,
            ))
        })
        .collect()
}

/// Compare two parsed results files (see the module docs).
///
/// # Errors
/// When a file is malformed or the runs are not comparable.
pub fn compare(a: &Value, b: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    let bounds = declared_bounds(spec)?;
    let mut rows = Vec::new();
    let b_workloads = list(b, "workloads")?;
    for wa in list(a, "workloads")? {
        let workload = text(wa, "workload")?;
        let wb = b_workloads
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))
            .ok_or_else(|| format!("{workload} is missing from the second file"))?;
        for key in ["seed", "threads", "nproc", "smoke", "seconds"] {
            if field(wa, key)? != field(wb, key)? {
                let show = |v| serde_json::to_string(v).unwrap_or_default();
                return Err(format!(
                    "{workload}: runs differ in `{key}` ({} vs {}) and cannot be compared",
                    show(field(wa, key)?),
                    show(field(wb, key)?)
                ));
            }
        }
        let noisy = [wa, wb]
            .iter()
            .any(|w| w.get("noisy").and_then(Value::as_bool) == Some(true));
        let spread = |w: &Value| -> Result<f64, String> {
            let wall = field(w, "wall")?;
            Ok((number(wall, "q3")? - number(wall, "q1")?) / number(wall, "median")?)
        };
        let wall_spread = spread(wa)?.max(spread(wb)?);

        let (ea, eb) = (list(wa, "end_to_end")?, list(wb, "end_to_end")?);
        for (name, better, bound) in &bounds {
            let find = |items, side| {
                named(items, name).ok_or_else(|| format!("{workload}: {side} lacks {name}"))
            };
            let (ma, mb) = (find(ea, "first file")?, find(eb, "second file")?);
            let (va, vb) = (number(ma, "value")?, number(mb, "value")?);
            let worse_by = if better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let simulated = field(ma, "simulated")?.as_bool() == Some(true);
            let host_time = !simulated && name != "peak_rss_mib";
            let verdict = if simulated {
                exact(va, vb)
            } else if host_time && (noisy || wall_spread > *bound) {
                Verdict::Unresolved
            } else if worse_by <= *bound {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.clone(),
                a: va,
                b: vb,
                worse_by,
                verdict,
            });
        }

        let lb = list(wb, "per_layer")?;
        for ma in list(wa, "per_layer")? {
            let name = text(ma, "name")?;
            let Some(mb) = named(lb, name) else { continue };
            if field(ma, "simulated")?.as_bool() == Some(true) {
                let (va, vb) = (number(ma, "value")?, number(mb, "value")?);
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: name.to_string(),
                    a: va,
                    b: vb,
                    worse_by: if va == 0.0 { 0.0 } else { (vb - va) / va },
                    verdict: exact(va, vb),
                });
            }
        }
    }
    Ok(rows)
}

fn exact(a: f64, b: f64) -> Verdict {
    if (a - b).abs() <= EXACT * a.abs().max(b.abs()) {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// Print the comparison; per-layer rows only when they fail. Returns
/// whether nothing failed.
pub fn print(rows: &[Row], end_to_end: &[String]) -> bool {
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    for r in rows {
        let shown = end_to_end.contains(&r.metric) || r.verdict == Verdict::Fail;
        if shown {
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.2}%  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                100.0 * r.worse_by,
                match r.verdict {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{} pass, {} unresolved (noisy host: rerun), {} FAIL",
        count(Verdict::Pass),
        count(Verdict::Unresolved),
        count(Verdict::Fail)
    );
    count(Verdict::Fail) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall: f64, rss: f64, makespan: f64, noisy: bool, seed: u64) -> Value {
        let metric = |name: &str, value: f64, simulated: bool| {
            format!(r#"{{"name":"{name}","value":{value:?},"unit":"x","simulated":{simulated}}}"#)
        };
        let text = format!(
            r#"{{"workloads":[{{"workload":"w","seed":{seed},"threads":2,"nproc":2,
            "smoke":false,"seconds":10.0,"noisy":{noisy},
            "wall":{{"q1":0.99,"median":1.0,"q3":1.01}},
            "end_to_end":[{},{},{}],
            "per_layer":[{}]}}]}}"#,
            metric("wall_s", wall, false),
            metric("peak_rss_mib", rss, false),
            metric("sim_makespan_s", makespan, true),
            metric("engine.supersteps.sssp", 20.0, true),
        );
        serde_json::from_str(&text).unwrap()
    }

    fn spec() -> Value {
        serde_json::from_str(
            r#"{"end_to_end":[
            {"name":"wall_s","unit":"s","better":"lower","bound":0.1},
            {"name":"peak_rss_mib","unit":"MiB","better":"lower","bound":0.05},
            {"name":"sim_makespan_s","unit":"sim_s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap()
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<Verdict> {
        compare(a, b, &spec())
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn within_bounds_passes_and_beyond_them_fails() {
        use Verdict::{Fail, Pass};
        let a = results(1.0, 100.0, 0.5, false, 42);
        assert_eq!(verdicts(&a, &a), [Pass; 4]);
        let slower = results(1.2, 100.0, 0.5, false, 42);
        assert_eq!(verdicts(&a, &slower), [Fail, Pass, Pass, Pass]);
        let faster = results(0.5, 94.0, 0.5, false, 42);
        assert_eq!(verdicts(&a, &faster), [Pass; 4]);
        let fatter = results(1.0, 106.0, 0.5, false, 42);
        assert_eq!(verdicts(&a, &fatter), [Pass, Fail, Pass, Pass]);
    }

    #[test]
    fn simulated_metrics_must_be_identical_even_inside_the_bound() {
        let a = results(1.0, 100.0, 0.5, false, 42);
        let drifted = results(1.0, 100.0, 0.5000001, false, 42);
        assert_eq!(verdicts(&a, &drifted)[2], Verdict::Fail);
    }

    #[test]
    fn a_noisy_run_leaves_host_times_unresolved_but_not_memory() {
        use Verdict::{Fail, Pass, Unresolved};
        let a = results(1.0, 100.0, 0.5, false, 42);
        let noisy = results(1.5, 110.0, 0.5, true, 42);
        assert_eq!(verdicts(&a, &noisy), [Unresolved, Fail, Pass, Pass]);
    }

    #[test]
    fn different_seeds_are_refused() {
        let a = results(1.0, 100.0, 0.5, false, 42);
        let b = results(1.0, 100.0, 0.5, false, 7);
        let err = compare(&a, &b, &spec()).unwrap_err();
        assert!(err.contains("`seed`"), "{err}");
    }

    #[test]
    fn the_committed_declaration_parses() {
        let spec = serde_json::from_str(BENCHMARK_JSON).unwrap();
        assert!(!declared_bounds(&spec).unwrap().is_empty());
    }
}
