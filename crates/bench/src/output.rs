//! Plain-text table printing and JSON result dumping.

use std::path::Path;

/// Lay out a fixed-width table: a header row, a rule, then data rows.
///
/// # Panics
/// Panics if any row's length differs from the header's.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        format!("{}\n", s.trim_end())
    };
    let mut out = line(header.to_vec());
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.iter().map(|s| s.as_str()).collect()));
    }
    out
}

/// Print [`format_table`]'s layout to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(header, rows));
}

/// Serialize `value` as pretty JSON into `dir/name.json` (creating the
/// directory), if `dir` is provided. Errors are reported, not fatal — a
/// read-only filesystem must not kill an experiment run.
pub fn write_json<T: serde::Serialize>(dir: Option<&Path>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Provenance sidecar written next to every `BENCH_*.json` payload:
/// enough to reproduce — or discount — a number later (which commit,
/// which fixture seed, how many threads, how long, how much memory).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RunManifest {
    /// Commit SHA from `.git/HEAD` (or `GITHUB_SHA` in CI); `None` when
    /// neither is discoverable.
    pub git_sha: Option<String>,
    /// Fixture RNG seed the benchmark's graphs were generated from.
    pub seed: u64,
    /// Host thread budget the run used.
    pub threads: usize,
    /// Cores the host offered (`std::thread::available_parallelism`):
    /// with fewer cores than `threads`, multi-thread rows measure
    /// oversubscription, not scaling. `None` when the host cannot say.
    pub nproc: Option<usize>,
    /// Graph downscale factor of the run's context.
    pub scale: u32,
    /// End-to-end host wall-clock of the phase, seconds.
    pub wall_s: f64,
    /// Peak resident set (`VmHWM` from `/proc/self/status`), bytes;
    /// `None` on platforms without procfs.
    pub peak_rss_bytes: Option<u64>,
}

impl RunManifest {
    /// Collect the manifest for a finished phase: reads the git SHA and
    /// peak RSS from the environment, takes the rest from the caller.
    pub fn collect(seed: u64, threads: usize, scale: u32, wall_s: f64) -> Self {
        RunManifest {
            git_sha: git_sha(),
            seed,
            threads,
            nproc: std::thread::available_parallelism().ok().map(usize::from),
            scale,
            wall_s,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// Write a `BENCH_*` payload plus its provenance sidecar
/// (`{name}.manifest.json`), under [`write_json`]'s non-fatal contract.
pub fn write_json_with_manifest<T: serde::Serialize>(
    dir: Option<&Path>,
    name: &str,
    value: &T,
    manifest: &RunManifest,
) {
    write_json(dir, name, value);
    write_json(dir, &format!("{name}.manifest"), manifest);
}

/// The current commit SHA without shelling out: walk up from the working
/// directory to the first `.git/HEAD`, dereference one level of `ref:`
/// indirection (consulting `packed-refs` when the loose ref is absent),
/// and fall back to `GITHUB_SHA`.
fn git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(text) = std::fs::read_to_string(git.join("HEAD")) {
            let text = text.trim();
            let Some(refname) = text.strip_prefix("ref: ") else {
                return Some(text.to_string()); // detached HEAD: a bare SHA
            };
            if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
                return Some(sha.trim().to_string());
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                for line in packed.lines().filter(|l| !l.starts_with(['#', '^'])) {
                    if let Some((sha, name)) = line.split_once(' ') {
                        if name.trim() == refname {
                            return Some(sha.to_string());
                        }
                    }
                }
            }
            break;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    std::env::var("GITHUB_SHA").ok().filter(|s| !s.is_empty())
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
///
/// Public so the scale benchmark can snapshot the high-water mark after
/// each representation's pipeline, not just at manifest time.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Format a float with 3 decimals (the tables' standard cell format).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(12.34), "12.3%");
    }

    #[test]
    fn print_table_accepts_consistent_rows() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn print_table_rejects_ragged_rows() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("hetgraph_bench_test");
        write_json(Some(dir.as_path()), "sample", &vec![1, 2, 3]);
        let read = std::fs::read_to_string(dir.join("sample.json")).unwrap();
        assert!(read.contains('2'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_json_none_is_noop() {
        write_json(None, "x", &1);
    }

    #[test]
    fn run_manifest_reads_the_environment() {
        let m = RunManifest::collect(42, 8, 64, 1.5);
        assert_eq!((m.seed, m.threads, m.scale), (42, 8, 64));
        assert_eq!(m.wall_s, 1.5);
        // This test runs inside the repo on Linux: both probes must hit.
        let sha = m.git_sha.as_deref().expect("repo has a .git/HEAD");
        assert_eq!(sha.len(), 40, "full hex SHA, got {sha:?}");
        assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha:?}");
        let rss = m.peak_rss_bytes.expect("procfs has VmHWM");
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
        assert!(m.nproc.expect("Linux reports its cores") >= 1);
    }

    #[test]
    fn manifest_sidecar_lands_next_to_the_payload() {
        let dir = std::env::temp_dir().join("hetgraph_manifest_test");
        let m = RunManifest::collect(7, 2, 128, 0.25);
        write_json_with_manifest(Some(dir.as_path()), "BENCH_sample", &vec![1], &m);
        let side = std::fs::read_to_string(dir.join("BENCH_sample.manifest.json")).unwrap();
        let v = serde_json::from_str(&side).unwrap();
        assert_eq!(v.get("seed").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("threads").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("scale").and_then(|x| x.as_u64()), Some(128));
        assert_eq!(v.get("wall_s").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(
            v.get("git_sha").and_then(|x| x.as_str()),
            m.git_sha.as_deref()
        );
        assert!(dir.join("BENCH_sample.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
