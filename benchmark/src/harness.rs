//! The measurement loop shared by the five workloads.
//!
//! One process measures one workload: calibrate, set up at least
//! [`SETUP_REPS`] times (the median is `setup_s`), repeat the workload untraced until
//! `--seconds` have passed (reading the peak RSS after the first
//! repetition), then — in a traced run
//! only — repeat it with spans on for half as long again and take the
//! one-off probes. Output checks come last, outside every timed region.
//! The repetitions are a closed loop with one caller: the next starts
//! when the previous returns.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::{self, Metric};
use crate::stats::{self, Summary};
use crate::trace::{Scope, Tracer};

/// The set-up is run at least this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A set-up of milliseconds is repeated until this many seconds have
/// gone into it, or [`MAX_SETUP_REPS`] repetitions, so that its median is
/// as steady as that of a set-up that takes seconds.
pub const SETUP_SECONDS: f64 = 1.0;

/// See [`SETUP_SECONDS`].
pub const MAX_SETUP_REPS: usize = 25;

/// Two calibration readings further apart than this flag the run noisy.
pub const NOISY_CALIBRATION: f64 = 0.10;

/// What to run and how.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the untraced measuring window, seconds.
    pub seconds: f64,
    /// Whether to add the traced repetitions and probes.
    pub trace: bool,
    /// Host threads handed to every `*_with_threads` call.
    pub threads: usize,
    /// Shrink graphs 50× and the request stream to 100 (tests).
    pub smoke: bool,
    /// Directory for results, traces and scratch files.
    pub out: PathBuf,
}

/// Context handed to the workload's methods.
pub struct Run {
    /// The run's configuration.
    pub cfg: Config,
    /// The span recorder (disabled outside traced phases).
    pub tracer: Tracer,
}

impl Run {
    /// `full` at benchmark size, `full / 50` (at least `floor`) in a
    /// smoke run.
    pub fn scaled(&self, full: u32, floor: u32) -> u32 {
        if self.cfg.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }

    /// A proxy/stand-in downscale factor: 50× coarser in a smoke run.
    pub fn downscale(&self, full: u32) -> u32 {
        if self.cfg.smoke {
            full * 50
        } else {
            full
        }
    }
}

/// What one repetition produced.
pub struct RepOutput<K> {
    /// Operations attempted (jobs, runs, placements, pipelines, requests).
    pub ops: usize,
    /// Operations refused by the program (shed requests).
    pub failed: usize,
    /// Simulated seconds the repetition's work took on the modelled
    /// cluster.
    pub sim_makespan_s: f64,
    /// Simulated latency of each operation that has one, seconds.
    pub sim_latencies_s: Vec<f64>,
    /// Every deterministic output, serialized: all repetitions of a run
    /// must produce the same string.
    pub identity: String,
    /// Outputs kept from the first repetition for the checks.
    pub kept: K,
}

/// One output check's verdict.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Operations whose output the check covers (counted as failed when
    /// it does not hold).
    pub ops: usize,
    /// The mismatch, when there is one.
    pub detail: String,
}

/// Collector for output checks.
#[derive(Debug, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    /// Record that `name`, covering `ops` operations, held or not.
    pub fn record(&mut self, name: &str, ops: usize, verdict: Result<(), String>) {
        self.0.push(Check {
            name: name.to_string(),
            ok: verdict.is_ok(),
            ops,
            detail: verdict.err().unwrap_or_default(),
        });
    }

    /// Record the equality of two values.
    pub fn equal<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &str,
        ops: usize,
        got: &T,
        want: &T,
    ) {
        let verdict = if got == want {
            Ok(())
        } else {
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            Err(format!("got {got:.200} want {want:.200}"))
        };
        self.record(name, ops, verdict);
    }
}

/// One of the five workloads.
pub trait Workload {
    /// Name as declared in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Everything built once before the first repetition.
    type State;
    /// What a repetition hands to the checks.
    type Kept;

    /// Generate inputs and build what repetitions share. Timed.
    fn setup(&self, run: &Run) -> Self::State;
    /// One repetition. Timed as a whole.
    fn rep(&self, run: &Run, state: &Self::State) -> RepOutput<Self::Kept>;
    /// Check the first repetition's outputs. Untimed, every run.
    fn check(
        &self,
        run: &Run,
        state: &Self::State,
        first: &RepOutput<Self::Kept>,
        checks: &mut Checks,
    );
    /// One-off measurements and the costlier checks. Traced runs only.
    fn probes(
        &self,
        run: &Run,
        state: &Self::State,
        first: &RepOutput<Self::Kept>,
        checks: &mut Checks,
    );
}

/// Everything one run measured; serialized as `<workload>.result.json`.
#[derive(Debug, serde::Serialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host thread budget.
    pub threads: usize,
    /// Cores available to the process.
    pub nproc: usize,
    /// Window length asked for, seconds.
    pub seconds: f64,
    /// Whether graphs were shrunk for a smoke run.
    pub smoke: bool,
    /// Whether traced repetitions and probes ran.
    pub traced: bool,
    /// Whether the two calibration readings disagreed by more than 10 %.
    pub noisy: bool,
    /// Calibration-loop seconds before and after the repetitions.
    pub calib_s: [f64; 2],
    /// Per-set-up wall times, seconds.
    pub setup_samples_s: Vec<f64>,
    /// Per-repetition wall time of the untraced window.
    pub wall: Summary,
    /// `VmHWM` after the whole untraced window (the end-to-end metric is
    /// read after its first repetition).
    pub peak_rss_after_window_mib: f64,
    /// Untraced and traced repetitions measured.
    pub reps: [usize; 2],
    /// Operations attempted over all repetitions.
    pub ops_total: usize,
    /// Operations shed or whose output failed a check.
    pub ops_failed: usize,
    /// End-to-end metrics, in declaration order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
}

/// Measure `workload` under `cfg`. Returns the result and, for a traced
/// run, the Chrome trace to write beside it.
pub fn execute<W: Workload>(workload: &W, cfg: Config) -> (RunResult, Option<String>) {
    let run = Run {
        tracer: Tracer::new(cfg.trace),
        cfg,
    };
    let calib_before = stats::calibrate();

    // Set-up, repeated; the previous state is dropped first so two never
    // coexist and inflate the peak RSS.
    let mut setup_samples: Vec<f64> = Vec::new();
    let mut state = None;
    while setup_samples.len() < SETUP_REPS
        || (setup_samples.len() < MAX_SETUP_REPS
            && setup_samples.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(state.take());
        run.tracer
            .set_scope(Scope::Setup(setup_samples.len() as u32));
        let t = Instant::now();
        state = Some(workload.setup(&run));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUP_REPS > 0");

    let mut checks = Checks::default();
    let mut first: Option<RepOutput<W::Kept>> = None;
    let (mut ops_total, mut ops_failed, mut differing) = (0usize, 0usize, 0usize);
    let mut measure = |walls: &mut Vec<f64>, scope: Option<Scope>| {
        let root = scope.map(|s| {
            run.tracer.set_scope(s);
            run.tracer.begin("bench", "rep")
        });
        let t = Instant::now();
        let out = workload.rep(&run, &state);
        walls.push(t.elapsed().as_secs_f64());
        if let Some(root) = root {
            run.tracer.end(root, &[("ops", out.ops as f64)]);
        }
        ops_total += out.ops;
        ops_failed += out.failed;
        match &first {
            None => first = Some(out),
            Some(f) if f.identity != out.identity => {
                ops_failed += out.ops - out.failed;
                differing += 1;
            }
            Some(_) => {}
        }
    };

    // Untraced window: the end-to-end numbers.
    run.tracer.set_enabled(false);
    let mut walls = Vec::new();
    let window = Instant::now();
    let mut peak_rss_mib = None;
    while walls.is_empty() || window.elapsed().as_secs_f64() < run.cfg.seconds {
        measure(&mut walls, None);
        // Read after the first repetition: set-up plus one repetition is
        // what a user pays, and it repeats within 2 %. Later repetitions
        // grow the heap by what the allocator's per-thread arenas happen
        // to retain, which differs by 10 % from run to run.
        peak_rss_mib = peak_rss_mib.or_else(stats::peak_rss_mib);
    }
    let peak_rss_mib = peak_rss_mib.unwrap_or(0.0);
    let peak_rss_after_window_mib = stats::peak_rss_mib().unwrap_or(0.0);

    // Traced window: the per-layer numbers.
    let mut traced_walls = Vec::new();
    if run.cfg.trace {
        run.tracer.set_enabled(true);
        let window = Instant::now();
        while traced_walls.is_empty() || window.elapsed().as_secs_f64() < run.cfg.seconds / 2.0 {
            let scope = Scope::Rep(traced_walls.len() as u32);
            measure(&mut traced_walls, Some(scope));
        }
    }
    let calib_after = stats::calibrate();
    let first = first.expect("the window runs at least one repetition");

    if run.cfg.trace {
        run.tracer.set_scope(Scope::Probe);
        workload.probes(&run, &state, &first, &mut checks);
    }
    run.tracer.set_enabled(false);
    workload.check(&run, &state, &first, &mut checks);
    // Their operations are already counted as failed, hence 0 here.
    checks.record(
        "every repetition, traced or not, repeats the first one's outputs",
        0,
        match differing {
            0 => Ok(()),
            n => Err(format!("{n} repetitions differ")),
        },
    );
    ops_failed += checks
        .0
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.ops)
        .sum::<usize>();
    let ops_failed = ops_failed.min(ops_total);

    // End-to-end metrics.
    let wall = Summary::of(&walls);
    let mut latencies = first.sim_latencies_s.clone();
    latencies.sort_by(f64::total_cmp);
    let mut setup_sorted = setup_samples.clone();
    let end_to_end = metrics::end_to_end([
        stats::median(&mut setup_sorted).expect("SETUP_REPS > 0"),
        wall.median,
        (walls.len() * (first.ops - first.failed)) as f64 / walls.iter().sum::<f64>(),
        peak_rss_mib,
        first.sim_makespan_s,
        stats::median(&mut latencies).expect("every workload has a simulated latency"),
        stats::nearest_rank(&latencies, 0.95),
    ]);

    // Per-layer metrics and the trace file.
    let (per_layer, chrome_trace) = if run.cfg.trace {
        let mut traced = traced_walls.clone();
        let overhead =
            stats::median(&mut traced).expect("at least one traced rep") / wall.median - 1.0;
        let trace = run.tracer.finish();
        let calib = (calib_before + calib_after) / 2.0;
        (
            metrics::per_layer(&trace, [calib, overhead]),
            Some(trace.chrome_json()),
        )
    } else {
        (Vec::new(), None)
    };

    let result = RunResult {
        workload: W::NAME.to_string(),
        seed: run.cfg.seed,
        threads: run.cfg.threads,
        nproc: stats::nproc(),
        seconds: run.cfg.seconds,
        smoke: run.cfg.smoke,
        traced: run.cfg.trace,
        noisy: (calib_before - calib_after).abs() / calib_before.min(calib_after)
            > NOISY_CALIBRATION,
        calib_s: [calib_before, calib_after],
        setup_samples_s: setup_samples,
        wall,
        peak_rss_after_window_mib,
        reps: [walls.len(), traced_walls.len()],
        ops_total,
        ops_failed,
        end_to_end,
        per_layer,
        checks: checks.0,
    };
    (result, chrome_trace)
}
