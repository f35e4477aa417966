//! Experiment configuration shared by every harness.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use hetgraph_apps::{AnyApp, AppRegistry};
use hetgraph_core::Graph;
use hetgraph_gen::{NaturalGraph, ProxySet};

/// The named natural-graph stand-ins, shared process-wide by
/// [`ExperimentContext::natural_graphs_shared`].
pub type SharedGraphs = Arc<Vec<(String, Graph)>>;

/// Configuration for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Graph downscale factor: 1 reproduces the paper's Table II sizes,
    /// `N` divides every |V| and |E| by `N` (average degree preserved).
    pub scale: u32,
    /// Where to write machine-readable JSON results (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Host thread budget, split between sweep-level and engine-level
    /// parallelism (see DESIGN.md "Threading model"). Defaults to
    /// `HETGRAPH_THREADS` or, failing that, every available core.
    pub threads: usize,
    /// Workloads to sweep. Defaults to the paper's four
    /// ([`hetgraph_apps::standard_apps`]) so figure output is unchanged;
    /// `--apps` selects any subset of the full registry (`--apps all`
    /// runs all six).
    pub apps: Vec<AnyApp>,
    /// Where to write Chrome `trace_event` files for representative cells
    /// (`None` = no traces; set by `--trace-dir`).
    pub trace_dir: Option<PathBuf>,
    /// Where to write aggregated metrics snapshots (JSON + Prometheus
    /// text exposition) for representative cells (`None` = no snapshots;
    /// set by `--metrics-dir`).
    pub metrics_dir: Option<PathBuf>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            scale: 64,
            out_dir: None,
            threads: hetgraph_core::par::default_host_threads(),
            apps: hetgraph_apps::standard_apps(),
            trace_dir: None,
            metrics_dir: None,
        }
    }
}

impl ExperimentContext {
    /// Context at an explicit scale.
    pub fn at_scale(scale: u32) -> Self {
        assert!(scale > 0, "scale must be positive");
        ExperimentContext {
            scale,
            ..ExperimentContext::default()
        }
    }

    /// This context with an explicit host thread budget.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread budget must be positive");
        self.threads = threads;
        self
    }

    /// Parse the shared flags (`--scale N`, `--out DIR`, `--threads N`,
    /// `--apps LIST`) from the process arguments. Any other flag is a
    /// usage error.
    pub fn from_args() -> Self {
        Self::from_args_with(&[]).0
    }

    /// [`ExperimentContext::from_args`] for binaries with extra
    /// binary-specific flags: each name in `extra` (e.g. `"--case"`) is
    /// accepted with one value and returned verbatim in the second tuple
    /// element. Unrecognized `--*` flags (and stray positional arguments)
    /// print a usage error listing the valid options and exit.
    pub fn from_args_with(extra: &[&str]) -> (Self, Vec<String>) {
        match Self::parse_args(std::env::args().skip(1), extra) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}\n\n{}", Self::usage(extra));
                std::process::exit(2);
            }
        }
    }

    /// The flag-parsing core of [`ExperimentContext::from_args_with`],
    /// separated from the process environment for testability.
    pub fn parse_args<I>(args: I, extra: &[&str]) -> Result<(Self, Vec<String>), String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut ctx = ExperimentContext::default();
        let mut rest = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                if seen.contains(&a) {
                    return Err(format!("flag {a} given twice"));
                }
                seen.push(a.clone());
            }
            match a.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    ctx.scale = v
                        .parse()
                        .map_err(|_| format!("--scale must be a positive integer, got {v:?}"))?;
                    if ctx.scale == 0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a value")?;
                    ctx.out_dir = Some(PathBuf::from(v));
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    ctx.threads = v
                        .parse()
                        .map_err(|_| format!("--threads must be a positive integer, got {v:?}"))?;
                    if ctx.threads == 0 {
                        return Err("--threads must be positive".into());
                    }
                }
                "--apps" => {
                    let v = it.next().ok_or("--apps needs a value")?;
                    ctx.apps = Self::parse_apps(&v)?;
                }
                "--trace-dir" => {
                    let v = it.next().ok_or("--trace-dir needs a value")?;
                    ctx.trace_dir = Some(PathBuf::from(v));
                }
                "--metrics-dir" => {
                    let v = it.next().ok_or("--metrics-dir needs a value")?;
                    ctx.metrics_dir = Some(PathBuf::from(v));
                }
                other if extra.contains(&other) => {
                    let v = it.next().ok_or_else(|| format!("{other} needs a value"))?;
                    rest.push(other.to_string());
                    rest.push(v);
                }
                other if other.starts_with("--") => {
                    return Err(format!("unrecognized flag {other:?}"));
                }
                other => {
                    return Err(format!("unexpected argument {other:?}"));
                }
            }
        }
        Ok((ctx, rest))
    }

    /// The usage text listing every option this binary accepts.
    pub fn usage(extra: &[&str]) -> String {
        let mut s = String::from(
            "valid options:\n  \
             --scale N     graph downscale factor (default 64)\n  \
             --out DIR     write machine-readable JSON results to DIR\n  \
             --threads N   host thread budget (default: HETGRAPH_THREADS or all cores)\n  \
             --apps LIST   comma-separated workloads, or \"all\" (default: the paper's\n                \
             four; registry: pagerank,coloring,connected_components,\n                \
             triangle_count,sssp,kcore)\n  \
             --trace-dir DIR  write Chrome trace_event files for representative\n                \
             cells to DIR (open in chrome://tracing or ui.perfetto.dev)\n  \
             --metrics-dir DIR  write per-case metrics snapshots (sim-domain JSON\n                \
             plus Prometheus text exposition) to DIR",
        );
        for e in extra {
            s.push_str(&format!("\n  {e} VALUE"));
        }
        s
    }

    /// Resolve a `--apps` value against the full registry.
    ///
    /// `"all"` selects every registered workload; otherwise the value is a
    /// comma-separated list of registry names, resolved in the order
    /// given.
    pub fn parse_apps(list: &str) -> Result<Vec<AnyApp>, String> {
        let registry = AppRegistry::full();
        if list == "all" {
            return Ok(registry.apps().to_vec());
        }
        let mut apps = Vec::new();
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let app = registry.get(name).ok_or_else(|| {
                format!(
                    "unknown app {name:?}; registry has: {}",
                    registry.names().join(", ")
                )
            })?;
            if !apps.contains(app) {
                apps.push(app.clone());
            }
        }
        if apps.is_empty() {
            return Err("--apps needs at least one workload".into());
        }
        Ok(apps)
    }

    /// The workloads this run sweeps (the `--apps` selection, defaulting
    /// to the paper's four).
    pub fn apps(&self) -> &[AnyApp] {
        &self.apps
    }

    /// The four natural-graph stand-ins at this context's scale, in Table
    /// II order, with their display names.
    ///
    /// Freshly generated on every call; sweeps that revisit the same
    /// scale should use [`ExperimentContext::natural_graphs_shared`] so
    /// the R-MAT generation cost is paid once per scale per process.
    pub fn natural_graphs(&self) -> Vec<(String, Graph)> {
        NaturalGraph::ALL
            .iter()
            .map(|g| (g.name().to_string(), g.generate(self.scale)))
            .collect()
    }

    /// [`ExperimentContext::natural_graphs`] memoized process-wide by
    /// scale: the first call at a given scale generates the four
    /// stand-ins, every later call (from any case cluster, figure, or
    /// trace pass) gets the same `Arc`. Generation is deterministic
    /// (fixed per-spec seeds), so sharing cannot change any result — it
    /// only removes the repeated O(E) generation work `exp_all` used to
    /// pay once per figure.
    pub fn natural_graphs_shared(&self) -> SharedGraphs {
        static CACHE: OnceLock<Mutex<HashMap<u32, SharedGraphs>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().unwrap().get(&self.scale) {
            return Arc::clone(hit);
        }
        // Generate outside the lock: concurrent first callers may race to
        // build the same set, but insertion keeps the first winner so all
        // callers still converge on one allocation.
        let built = Arc::new(self.natural_graphs());
        Arc::clone(
            cache
                .lock()
                .unwrap()
                .entry(self.scale)
                .or_insert_with(|| built),
        )
    }

    /// The standard proxy set at this context's scale.
    pub fn proxies(&self) -> ProxySet {
        ProxySet::standard(self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_scale_is_laptop_sized() {
        let ctx = ExperimentContext::default();
        assert_eq!(ctx.scale, 64);
        assert!(ctx.out_dir.is_none());
        assert!(ctx.threads >= 1);
    }

    #[test]
    fn natural_graphs_in_table2_order() {
        let ctx = ExperimentContext::at_scale(512);
        let graphs = ctx.natural_graphs();
        assert_eq!(graphs.len(), 4);
        assert_eq!(graphs[0].0, "amazon");
        assert_eq!(graphs[3].0, "wiki");
        // Density is preserved by scaling.
        let amazon_density = graphs[0].1.avg_degree();
        assert!(
            (amazon_density - 8.4).abs() < 1.0,
            "density {amazon_density}"
        );
    }

    #[test]
    fn natural_graphs_shared_memoizes_by_scale() {
        let ctx = ExperimentContext::at_scale(1024);
        let a = ctx.natural_graphs_shared();
        let b = ctx.natural_graphs_shared();
        assert!(Arc::ptr_eq(&a, &b), "same scale must share one allocation");
        let other = ExperimentContext::at_scale(2048).natural_graphs_shared();
        assert!(!Arc::ptr_eq(&a, &other), "scales must not alias");
        // The shared set is exactly what a fresh generation produces.
        let fresh = ctx.natural_graphs();
        assert_eq!(a.len(), fresh.len());
        for ((sn, sg), (fn_, fg)) in a.iter().zip(&fresh) {
            assert_eq!(sn, fn_);
            assert_eq!(sg.edges(), fg.edges());
        }
    }

    #[test]
    fn proxies_scale_with_context() {
        let ctx = ExperimentContext::at_scale(3200);
        assert_eq!(ctx.proxies().proxies()[0].num_vertices, 1_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        ExperimentContext::at_scale(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_thread_budget_rejected() {
        ExperimentContext::default().with_threads(0);
    }

    #[test]
    fn parse_args_accepts_shared_flags() {
        let (ctx, rest) = ExperimentContext::parse_args(
            argv(&["--scale", "128", "--threads", "4", "--out", "results"]),
            &[],
        )
        .unwrap();
        assert_eq!(ctx.scale, 128);
        assert_eq!(ctx.threads, 4);
        assert_eq!(
            ctx.out_dir.as_deref(),
            Some(std::path::Path::new("results"))
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn parse_args_rejects_unknown_flag() {
        // The motivating typo: `--thread 8` must not silently run serial.
        let err = ExperimentContext::parse_args(argv(&["--thread", "8"]), &[]).unwrap_err();
        assert!(err.contains("--thread"), "err: {err}");
    }

    #[test]
    fn parse_args_rejects_stray_positional() {
        let err = ExperimentContext::parse_args(argv(&["case2"]), &[]).unwrap_err();
        assert!(err.contains("case2"), "err: {err}");
    }

    #[test]
    fn parse_args_threads_must_be_positive_integer() {
        assert!(ExperimentContext::parse_args(argv(&["--threads", "0"]), &[]).is_err());
        assert!(ExperimentContext::parse_args(argv(&["--threads", "many"]), &[]).is_err());
        assert!(ExperimentContext::parse_args(argv(&["--threads"]), &[]).is_err());
        // A repeated flag is an error, not last-one-wins.
        let err = ExperimentContext::parse_args(argv(&["--scale", "8", "--scale", "8192"]), &[])
            .unwrap_err();
        assert!(err.contains("--scale given twice"), "err: {err}");
        let err = ExperimentContext::parse_args(argv(&["--case", "2", "--case", "3"]), &["--case"])
            .unwrap_err();
        assert!(err.contains("--case given twice"), "err: {err}");
    }

    #[test]
    fn parse_args_passes_extra_flags_through() {
        let (ctx, rest) =
            ExperimentContext::parse_args(argv(&["--case", "3", "--scale", "256"]), &["--case"])
                .unwrap();
        assert_eq!(ctx.scale, 256);
        assert_eq!(rest, argv(&["--case", "3"]));
        // The same flag without the allowlist is an error.
        assert!(ExperimentContext::parse_args(argv(&["--case", "3"]), &[]).is_err());
    }

    #[test]
    fn default_apps_are_the_papers_four() {
        let names: Vec<_> = ExperimentContext::default()
            .apps()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(
            names,
            [
                "pagerank",
                "coloring",
                "connected_components",
                "triangle_count"
            ]
        );
    }

    #[test]
    fn parse_args_accepts_apps_selector() {
        let (ctx, _) = ExperimentContext::parse_args(argv(&["--apps", "sssp,kcore"]), &[]).unwrap();
        let names: Vec<_> = ctx.apps().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["sssp", "kcore"]);
        let (all, _) = ExperimentContext::parse_args(argv(&["--apps", "all"]), &[]).unwrap();
        assert_eq!(all.apps().len(), 6);
    }

    #[test]
    fn parse_apps_rejects_unknown_and_empty() {
        let err = ExperimentContext::parse_apps("pagerank,frobnicate").unwrap_err();
        assert!(
            err.contains("frobnicate") && err.contains("kcore"),
            "err: {err}"
        );
        assert!(ExperimentContext::parse_apps("").is_err());
        // Duplicates collapse.
        assert_eq!(
            ExperimentContext::parse_apps("sssp, sssp").unwrap().len(),
            1
        );
    }

    #[test]
    fn usage_lists_extra_flags() {
        let u = ExperimentContext::usage(&["--study"]);
        assert!(u.contains("--threads"));
        assert!(u.contains("--apps"));
        assert!(u.contains("--trace-dir"));
        assert!(u.contains("--study"));
    }

    #[test]
    fn parse_args_accepts_trace_dir() {
        let (ctx, _) =
            ExperimentContext::parse_args(argv(&["--trace-dir", "traces"]), &[]).unwrap();
        assert_eq!(
            ctx.trace_dir.as_deref(),
            Some(std::path::Path::new("traces"))
        );
        assert!(ExperimentContext::default().trace_dir.is_none());
        assert!(ExperimentContext::parse_args(argv(&["--trace-dir"]), &[]).is_err());
    }

    #[test]
    fn parse_args_accepts_metrics_dir() {
        let (ctx, _) =
            ExperimentContext::parse_args(argv(&["--metrics-dir", "metrics"]), &[]).unwrap();
        assert_eq!(
            ctx.metrics_dir.as_deref(),
            Some(std::path::Path::new("metrics"))
        );
        assert!(ExperimentContext::default().metrics_dir.is_none());
        assert!(ExperimentContext::parse_args(argv(&["--metrics-dir"]), &[]).is_err());
        assert!(ExperimentContext::usage(&[]).contains("--metrics-dir"));
    }
}
