//! The one baseline gate behind every `exp_* --check`.
//!
//! A bench names the gated numbers of its own JSON document once, as an
//! [`Extractor`] (its `gated_rows`): a list of [`Row`]s, each a name, a
//! value and the [`Bound`] it must hold. [`check`] runs that *same*
//! extractor over the fresh measurement and over the committed baseline —
//! so the two sides cannot drift, and a normalisation (partition's
//! divide-by-`random`) applies to both alike — and prints one table, on
//! pass and on fail, so a failing gate says which row moved.

use std::fmt;
use std::path::Path;

use serde::{Serialize, Value};

use crate::context::ExperimentContext;
use crate::output;

/// The rule a fresh [`Row`] must hold, against the baseline row of the
/// same name where the rule mentions one. Each is tested as its failure
/// condition, so a NaN on either side (an unmeasured quantity) never fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `fresh ≥ frac × baseline`.
    AtLeastTimes(f64),
    /// `fresh ≤ mult × baseline`.
    AtMostTimes(f64),
    /// `fresh ≥ floor`, whatever the baseline says.
    AtLeast(f64),
    /// `fresh > floor`, whatever the baseline says.
    MoreThan(f64),
    /// `fresh ≤ ceiling`, whatever the baseline says.
    AtMost(f64),
    /// `fresh = 0` where the baseline is 0; unconstrained elsewhere.
    ZeroIfBaselineZero,
    /// `fresh = baseline` when both documents were measured at the same
    /// scale; the payload is the *row's own* document's scale.
    SameAtScale(u64),
    /// Listed for context, never fails.
    Info,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeastTimes(k) => write!(f, ">= {k:.3} x baseline"),
            Bound::AtMostTimes(k) => write!(f, "<= {k:.3} x baseline"),
            Bound::AtLeast(x) => write!(f, ">= {x}"),
            Bound::MoreThan(x) => write!(f, "> {x}"),
            Bound::AtMost(x) => write!(f, "<= {x}"),
            Bound::ZeroIfBaselineZero => write!(f, "0 where baseline is 0"),
            Bound::SameAtScale(s) => write!(f, "= baseline at scale {s}"),
            Bound::Info => write!(f, "info"),
        }
    }
}

/// A row's value: a number (NaN = not measured, printed `n/a`) or a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A measured or derived number.
    Num(f64),
    /// An opaque token compared for equality (a digest).
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Num(x) if x.is_nan() => write!(f, "n/a"),
            Cell::Num(x) if x.abs() >= 1e4 => write!(f, "{x:.0}"),
            Cell::Num(x) => write!(f, "{x:.4}"),
            Cell::Text(s) => write!(f, "{s}"),
        }
    }
}

/// One gated (or informational) quantity of a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Unique within the document; the baseline row is found by it.
    pub name: String,
    /// The quantity, as read or derived from the document.
    pub value: Cell,
    /// The rule the fresh value must hold.
    pub bound: Bound,
}

impl Row {
    /// A numeric row.
    pub fn num(name: impl Into<String>, value: f64, bound: Bound) -> Row {
        let (name, value) = (name.into(), Cell::Num(value));
        Row { name, value, bound }
    }

    /// Whether this fresh row breaks its bound against `baseline`.
    fn fails(&self, baseline: &Row) -> bool {
        let num = |cell: &Cell| match cell {
            Cell::Num(x) => *x,
            Cell::Text(_) => f64::NAN,
        };
        let (fresh, base) = (num(&self.value), num(&baseline.value));
        match self.bound {
            Bound::AtLeastTimes(k) => fresh < k * base,
            Bound::AtMostTimes(k) => fresh > k * base,
            Bound::AtLeast(x) => fresh < x,
            Bound::MoreThan(x) => fresh <= x,
            Bound::AtMost(x) => fresh > x,
            Bound::ZeroIfBaselineZero => base == 0.0 && fresh > 0.0,
            Bound::SameAtScale(_) => baseline.bound == self.bound && baseline.value != self.value,
            Bound::Info => false,
        }
    }
}

/// A bench's statement of which numbers of its document are gated. `Err`
/// names the field a malformed document is missing.
pub type Extractor = fn(&Value) -> Result<Vec<Row>, String>;

/// `doc[name]` seen through `view` (`Value::as_f64`, `Value::as_str`, …;
/// `Some` for the raw value), or an error naming the field.
pub fn get<'a, T>(
    doc: &'a Value,
    name: &str,
    view: fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    let value = doc.get(name).and_then(view);
    value.ok_or_else(|| format!("missing or mistyped `{name}`"))
}

/// The element of the `array` field whose string field `key` is `want`.
pub fn find<'a>(doc: &'a Value, array: &str, key: &str, want: &str) -> Result<&'a Value, String> {
    let mut items = get(doc, array, Value::as_seq)?.iter();
    items
        .find(|item| item.get(key).and_then(Value::as_str) == Some(want))
        .ok_or_else(|| format!("`{array}` has no {key} = {want:?} entry"))
}

/// The outcome of [`compare`].
#[derive(Debug)]
pub struct Verdict {
    /// The table `--check` prints: every fresh row — passing or not —
    /// with its baseline, ratio, bound and `ok` / `FAIL`.
    pub table: String,
    /// Names of the rows that failed, in document order.
    pub failed: Vec<String>,
}

/// Apply `rows` to both documents and judge every fresh row against the
/// baseline row of the same name (a row the baseline lacks fails). `Err`
/// means one of the documents is malformed, and says which and how.
pub fn compare<B: Serialize>(
    rows: Extractor,
    fresh: &B,
    baseline: &Value,
) -> Result<Verdict, String> {
    let fresh_rows = rows(&fresh.to_value()).map_err(|e| format!("fresh run: {e}"))?;
    let base_rows = rows(baseline).map_err(|e| format!("baseline: {e}"))?;
    let (mut cells, mut failed) = (Vec::new(), Vec::new());
    for row in fresh_rows {
        let base = base_rows.iter().find(|b| b.name == row.name);
        let ok = base.is_some_and(|b| !row.fails(b));
        let ratio = match (&row.value, base.map(|b| &b.value)) {
            (Cell::Num(fresh), Some(Cell::Num(base))) => Cell::Num(fresh / base),
            (fresh, Some(base)) if fresh == base => Cell::Text("same".into()),
            (_, Some(_)) => Cell::Text("differs".into()),
            (_, None) => Cell::Num(f64::NAN),
        };
        cells.push(vec![
            row.name.clone(),
            base.map_or("missing".to_string(), |b| b.value.to_string()),
            row.value.to_string(),
            ratio.to_string(),
            row.bound.to_string(),
            if ok { "ok" } else { "FAIL" }.to_string(),
        ]);
        if !ok {
            failed.push(row.name);
        }
    }
    let header = ["row", "baseline", "fresh", "ratio", "bound", "verdict"];
    let table = output::format_table(&header, &cells);
    Ok(Verdict { table, failed })
}

/// Re-run `measure` and gate it against the committed baseline at
/// `baseline_path`: prints the table, `Err` lists the failed rows.
///
/// The fresh run never writes output (the baseline being checked must not
/// be overwritten), regardless of `ctx.out_dir`. With `at_baseline_scale`
/// it also adopts the baseline document's `scale`, for benches whose
/// gated quantities are only comparable at the same fixture size.
pub fn check<B: Serialize>(
    ctx: &ExperimentContext,
    baseline_path: &Path,
    measure: fn(&ExperimentContext) -> B,
    rows: Extractor,
    at_baseline_scale: bool,
) -> Result<(), String> {
    let path = baseline_path.display();
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let mut fresh_ctx = ctx.clone();
    fresh_ctx.out_dir = None;
    if at_baseline_scale {
        let scale = get(&baseline, "scale", Value::as_u64);
        fresh_ctx.scale = scale.map_err(|e| format!("baseline: {e}"))? as u32;
    }
    let verdict = compare(rows, &measure(&fresh_ctx), &baseline)?;
    println!("\n== bench check vs {path} ==\n{}", verdict.table);
    if verdict.failed.is_empty() {
        println!("bench check: OK (every row holds)");
        Ok(())
    } else {
        Err(verdict.failed.join("\n"))
    }
}

/// The whole `main` of a gated `exp_*` binary: parse the shared flags
/// plus `--check BASELINE.json`, then either [`check`] (exit 1 on a
/// failed row) or just `measure` (writing `--out` if given).
pub fn main<B: Serialize>(
    measure: fn(&ExperimentContext) -> B,
    rows: Extractor,
    at_baseline_scale: bool,
) {
    let (ctx, rest) = ExperimentContext::from_args_with(&["--check"]);
    let Some(i) = rest.iter().position(|a| a == "--check") else {
        measure(&ctx);
        return;
    };
    let baseline = Path::new(&rest[i + 1]);
    if let Err(e) = check(&ctx, baseline, measure, rows, at_baseline_scale) {
        eprintln!("bench check FAILED:\n{e}");
        std::process::exit(1);
    }
}

/// Test support: the names of the rows that fail when `fresh` is judged
/// against `baseline` as `--check` would read it back from disk.
#[cfg(test)]
pub(crate) fn failed_rows<B: Serialize>(rows: Extractor, fresh: &B, baseline: &B) -> Vec<String> {
    let text = serde_json::to_string_pretty(baseline).unwrap();
    let verdict = compare(rows, fresh, &serde_json::from_str(&text).unwrap());
    verdict.unwrap().failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_bench::gated_rows as partition;
    use crate::rebalance_bench::gated_rows as rebalance;
    use crate::scale_bench::gated_rows as scale;
    use crate::serve_bench::gated_rows as serve;

    fn doc(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    /// Every surviving extractor rejects `null`, a document without its
    /// array, and one whose row lacks its number — naming the field.
    #[test]
    fn extractors_name_the_field_a_malformed_document_is_missing() {
        let cases: [(Extractor, &str, &str); 12] = [
            (partition, "null", "throughput"),
            (partition, r#"{"scale": 1}"#, "throughput"),
            (
                partition,
                r#"{"throughput": [{"partitioner": "grid"}]}"#,
                "machines",
            ),
            (rebalance, "null", "rows"),
            (rebalance, r#"{"scale": 1}"#, "rows"),
            (
                rebalance,
                r#"{"rows": [{"scenario": "slowdown"}, {"scenario": "steady"}]}"#,
                "improvement",
            ),
            (scale, "null", "rows"),
            (scale, r#"{"rows": []}"#, "compact"),
            (
                scale,
                r#"{"rows": [{"repr": "compact"}]}"#,
                "resident_bytes_per_edge",
            ),
            (serve, "null", "scale"),
            (
                serve,
                r#"{"scale": 1, "composition_digest": ""}"#,
                "thread_digests",
            ),
            (
                serve,
                r#"{"scale": 1, "composition_digest": "", "thread_digests": []}"#,
                "p99_latency_s",
            ),
        ];
        for (rows, json, missing) in cases {
            // `compare` says which side was malformed, and how.
            let err = compare(rows, &doc(json), &Value::Null).unwrap_err();
            assert!(err.starts_with("fresh run: "), "{err}");
            assert!(err.contains(missing), "{json}: {err}");
        }
    }

    fn fake_rows(doc: &Value) -> Result<Vec<Row>, String> {
        let num = |name| get(doc, name, Value::as_f64);
        let row = |name, bound| Ok::<_, String>(Row::num(name, num(name)?, bound));
        let mut rows = vec![
            row("rate", Bound::AtLeastTimes(0.75))?,
            row("bytes", Bound::AtMostTimes(1.15))?,
            row("floor", Bound::MoreThan(1.0))?,
            Row::num(
                "peak",
                num("peak").unwrap_or(f64::NAN),
                Bound::AtMostTimes(1.15),
            ),
            Row {
                name: "digest".into(),
                value: Cell::Text(get(doc, "digest", Value::as_str)?.into()),
                bound: Bound::SameAtScale(num("scale")? as u64),
            },
        ];
        if doc.get("extra").is_some() {
            rows.push(row("extra", Bound::Info)?);
        }
        Ok(rows)
    }

    const HEALTHY: &str =
        r#"{"scale": 1, "rate": 100.0, "bytes": 10.0, "floor": 1.5, "peak": null, "digest": "ab"}"#;

    /// The one new behaviour: the table lists every row with baseline,
    /// fresh and ratio, and marks exactly the regressed rows FAIL.
    #[test]
    fn table_marks_exactly_the_regressed_rows() {
        let baseline = doc(HEALTHY);
        let healthy = compare(fake_rows, &baseline, &baseline).unwrap();
        assert!(healthy.failed.is_empty() && !healthy.table.contains("FAIL"));

        let regressed = doc(
            r#"{"scale": 1, "rate": 50.0, "bytes": 11.0, "floor": 1.0, "peak": 7.0,
                "digest": "ff", "extra": 2}"#,
        );
        let Verdict { table, failed } = compare(fake_rows, &regressed, &baseline).unwrap();
        assert_eq!(failed, ["rate", "floor", "digest", "extra"]);
        let line = |name: &str| {
            let l = table.lines().find(|l| l.starts_with(name)).unwrap();
            l.split_whitespace().map(str::to_string).collect::<Vec<_>>()
        };
        assert_eq!(line("rate")[1..4], ["100.0000", "50.0000", "0.5000"]);
        assert_eq!(line("rate").last().unwrap(), "FAIL");
        // A passing row still shows baseline, fresh and ratio.
        assert_eq!(line("bytes")[1..4], ["10.0000", "11.0000", "1.1000"]);
        assert_eq!(line("bytes").last().unwrap(), "ok");
        assert_eq!(line("digest")[1..4], ["ab", "ff", "differs"]);
        // Unmeasured on one side: listed as n/a, never a failure.
        assert_eq!(line("peak")[1..4], ["n/a", "7.0000", "n/a"]);
        assert_eq!(line("peak").last().unwrap(), "ok");
        // A fresh row the baseline lacks fails as `missing`.
        assert_eq!(line("extra")[1], "missing");
        assert_eq!(table.matches("FAIL").count(), 4, "{table}");

        // The digest is only comparable at the baseline's scale.
        let elsewhere = HEALTHY.replace("\"scale\": 1", "\"scale\": 8");
        let elsewhere = doc(&elsewhere.replace("ab", "ff"));
        let verdict = compare(fake_rows, &elsewhere, &baseline).unwrap();
        assert!(verdict.failed.is_empty(), "{}", verdict.table);
    }
}
