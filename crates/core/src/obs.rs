//! Structured observability: spans, counters, and gauges with zero cost
//! when disabled.
//!
//! The paper's central claim is that the slowest machine gates every
//! synchronization barrier. Aggregate reports can say *that* a run was
//! imbalanced; only per-machine per-superstep spans can show *which*
//! machine stalled *which* barrier. This module is the substrate for that
//! evidence: [`Telemetry`], the one handle instrumented code takes, whose
//! event log collects [`TraceEvent`]s in memory and whose metrics half
//! ([`crate::metrics`]) keeps running aggregates; the shared [`OFF`]
//! handle, which compiles the hot path down to one predictable branch;
//! and exporters to JSON-lines ([`to_jsonl`]) and the Chrome
//! `trace_event` format ([`chrome_trace`], [`chrome_trace_sim`]) loadable
//! in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ## Two time domains
//!
//! Every event carries a [`TimeDomain`]:
//!
//! - [`TimeDomain::Sim`] — *simulated cluster time*. Timestamps are
//!   computed from the performance model, not measured, so they are a
//!   pure function of the input and **byte-identical across host thread
//!   counts** (the same determinism contract the engine's `SimReport`
//!   obeys). Sim events must only be emitted from serial code — in
//!   practice, the engine's per-superstep timing section.
//! - [`TimeDomain::Wall`] — *host wall-clock time*, measured against the
//!   handle's epoch ([`Telemetry::now_us`]). Wall events may be emitted
//!   from worker threads and are inherently nondeterministic; they never
//!   appear in [`chrome_trace_sim`] output.
//!
//! In the Chrome export the two domains become two processes: `pid 0` is
//! the simulated cluster (one thread lane per machine), `pid 1` is the
//! host.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Slot;

/// Which clock an event's timestamps belong to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum TimeDomain {
    /// Simulated cluster time: deterministic, model-derived.
    Sim,
    /// Host wall-clock time: measured, nondeterministic.
    Wall,
}

/// The shape of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EventKind {
    /// A duration (`ts_us` .. `ts_us + dur_us`) on a track.
    Span,
    /// A monotonic or per-step quantity sampled at `ts_us`.
    Counter,
    /// An instantaneous level sampled at `ts_us` (rendered like a
    /// counter in the Chrome export).
    Gauge,
}

/// One structured trace event.
///
/// `track` selects the lane within the domain's process: for sim events
/// the engine uses machine index `i` for machine lanes and `P` (one past
/// the last machine) for cluster-wide events like the communication
/// barrier; wall events use worker or phase indices.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceEvent {
    /// Event name (Chrome: `name`).
    pub name: String,
    /// Category tag for filtering (Chrome: `cat`).
    pub cat: String,
    /// Span, counter, or gauge.
    pub kind: EventKind,
    /// Sim or wall clock.
    pub domain: TimeDomain,
    /// Lane within the domain's process (Chrome: `tid`).
    pub track: u32,
    /// Start (spans) or sample (counters/gauges) timestamp, microseconds.
    pub ts_us: f64,
    /// Span duration in microseconds; 0 for counters/gauges.
    pub dur_us: f64,
    /// Counter/gauge value; 0 for spans.
    pub value: f64,
}

impl TraceEvent {
    /// A simulated-time span; `start_s`/`dur_s` are in simulated seconds.
    pub fn sim_span(
        name: impl Into<String>,
        cat: impl Into<String>,
        track: u32,
        start_s: f64,
        dur_s: f64,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Span,
            domain: TimeDomain::Sim,
            track,
            ts_us: start_s * 1e6,
            dur_us: dur_s * 1e6,
            value: 0.0,
        }
    }

    /// A wall-clock span; `start_us`/`dur_us` come from
    /// [`Telemetry::now_us`].
    pub fn wall_span(
        name: impl Into<String>,
        cat: impl Into<String>,
        track: u32,
        start_us: f64,
        dur_us: f64,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Span,
            domain: TimeDomain::Wall,
            track,
            ts_us: start_us,
            dur_us,
            value: 0.0,
        }
    }

    /// A counter sample at simulated time `ts_s` (seconds).
    pub fn sim_counter(name: impl Into<String>, track: u32, ts_s: f64, value: f64) -> Self {
        TraceEvent {
            name: name.into(),
            cat: "counter".into(),
            kind: EventKind::Counter,
            domain: TimeDomain::Sim,
            track,
            ts_us: ts_s * 1e6,
            dur_us: 0.0,
            value,
        }
    }

    /// A counter sample at wall-clock time `ts_us`.
    pub fn wall_counter(name: impl Into<String>, track: u32, ts_us: f64, value: f64) -> Self {
        TraceEvent {
            name: name.into(),
            cat: "counter".into(),
            kind: EventKind::Counter,
            domain: TimeDomain::Wall,
            track,
            ts_us,
            dur_us: 0.0,
            value,
        }
    }

    /// A gauge sample at simulated time `ts_s` (seconds).
    pub fn sim_gauge(name: impl Into<String>, track: u32, ts_s: f64, value: f64) -> Self {
        TraceEvent {
            kind: EventKind::Gauge,
            cat: "gauge".into(),
            ..TraceEvent::sim_counter(name, track, ts_s, value)
        }
    }

    /// A gauge sample at wall-clock time `ts_us`.
    pub fn wall_gauge(name: impl Into<String>, track: u32, ts_us: f64, value: f64) -> Self {
        TraceEvent {
            kind: EventKind::Gauge,
            cat: "gauge".into(),
            ..TraceEvent::wall_counter(name, track, ts_us, value)
        }
    }
}

/// The one telemetry handle: an in-memory event log (the trace) and a
/// metrics registry (the aggregates, see [`crate::metrics`]), each on or
/// off on its own. Instrumented code takes `&Telemetry` and guards any
/// non-trivial event construction behind [`Telemetry::tracing`] and any
/// metric registration behind [`Telemetry::metering`] — with the shared
/// [`OFF`] handle those guards are the *entire* cost of instrumentation,
/// which is what keeps the engine hot path within the benchmark's
/// overhead budget (`benches/engine.rs`, `engine_telemetry` group).
///
/// Events are kept in arrival order under one mutex, so serial emitters
/// (the engine's timing section) produce a deterministic event order;
/// concurrent emitters record wall-domain events only.
#[derive(Debug)]
pub struct Telemetry {
    /// Wall-clock epoch; `None` when the event log is off.
    epoch: Option<Instant>,
    events: Mutex<Vec<TraceEvent>>,
    /// Sim-time origin in microseconds (`f64` bits), added to every
    /// recorded [`TimeDomain::Sim`] timestamp.
    sim_origin_us: AtomicU64,
    metering: bool,
    pub(crate) slots: Mutex<BTreeMap<String, Slot>>,
}

/// The shared handle with both halves off: the default everywhere a
/// `&Telemetry` is threaded through.
pub static OFF: Telemetry = Telemetry::off();

impl Telemetry {
    /// A handle that keeps nothing and allocates nothing. `const`, so it
    /// backs the [`OFF`] static.
    pub const fn off() -> Self {
        Telemetry {
            epoch: None,
            events: Mutex::new(Vec::new()),
            sim_origin_us: AtomicU64::new(0),
            metering: false,
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// A handle whose event log is on when `tracing` (wall epoch "now")
    /// and whose metrics registry is on when `metering`.
    pub fn new(tracing: bool, metering: bool) -> Self {
        Telemetry {
            epoch: tracing.then(Instant::now),
            metering,
            ..Telemetry::off()
        }
    }

    /// A handle with both halves on.
    pub fn live() -> Self {
        Telemetry::new(true, true)
    }

    /// Whether events are being kept. `false` promises that
    /// [`Telemetry::record`] is a no-op, so callers skip event
    /// construction entirely.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.epoch.is_some()
    }

    /// Whether the metrics registry records anything. `false` hands out
    /// inert handles (a `None` check per operation).
    #[inline]
    pub fn metering(&self) -> bool {
        self.metering
    }

    /// Microseconds since the handle's epoch, for wall-domain timestamps;
    /// `0.0` when the event log is off.
    pub fn now_us(&self) -> f64 {
        self.epoch
            .map_or(0.0, |epoch| epoch.elapsed().as_secs_f64() * 1e6)
    }

    /// Record one event (dropped when the event log is off). A
    /// sim-domain event is moved onto the timeline by the sim-time origin
    /// (see [`Telemetry::set_sim_origin_s`]).
    pub fn record(&self, mut event: TraceEvent) {
        if !self.tracing() {
            return;
        }
        if event.domain == TimeDomain::Sim {
            event.ts_us += f64::from_bits(self.sim_origin_us.load(Ordering::Relaxed));
        }
        self.events
            .lock()
            .expect("trace event lock poisoned")
            .push(event);
    }

    /// Start the simulated clock of subsequently recorded sim-domain
    /// events at `origin_s` seconds instead of 0. The serving loop sets it
    /// to a wave's start so each kernel run lands on one continuous
    /// serving timeline, and resets it to 0 afterwards; one serving run
    /// per handle at a time.
    pub fn set_sim_origin_s(&self, origin_s: f64) {
        self.sim_origin_us
            .store((origin_s * 1e6).to_bits(), Ordering::Relaxed);
    }

    /// Take every recorded event, leaving the log empty.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace event lock poisoned"))
    }
}

/// Export events as JSON-lines: one compact JSON object per event, in
/// recording order, with every [`TraceEvent`] field.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("trace event serialization is infallible"));
        out.push('\n');
    }
    out
}

/// Export events in the Chrome `trace_event` format (the JSON Object
/// Format variant): open the file in `chrome://tracing` or drag it into
/// <https://ui.perfetto.dev>. Sim-domain events land in process 0
/// ("simulated cluster"), wall-domain events in process 1 ("host");
/// spans become `ph: "X"` complete events, counters and gauges become
/// `ph: "C"` counter samples.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    chrome_trace_filtered(events, None)
}

/// [`chrome_trace`] restricted to [`TimeDomain::Sim`] events.
///
/// This is the deterministic artifact: sim events are emitted only from
/// serial model code, so for a fixed input the returned string is
/// **byte-identical at any host thread count** (pinned by
/// `tests/threading.rs`). `hetgraph simulate --trace-out x.json` writes
/// exactly this.
pub fn chrome_trace_sim(events: &[TraceEvent]) -> String {
    chrome_trace_filtered(events, Some(TimeDomain::Sim))
}

fn chrome_trace_filtered(events: &[TraceEvent], only: Option<TimeDomain>) -> String {
    let kept: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| only.is_none_or(|d| e.domain == d))
        .collect();
    let mut lines: Vec<String> = Vec::with_capacity(kept.len() + 2);
    // Process-name metadata for each pid that actually appears, pid order.
    for (pid, pname) in [(0u32, "simulated cluster"), (1u32, "host")] {
        if kept.iter().any(|e| chrome_pid(e) == pid) {
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
        }
    }
    for e in kept {
        lines.push(chrome_event(e));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn chrome_pid(e: &TraceEvent) -> u32 {
    match e.domain {
        TimeDomain::Sim => 0,
        TimeDomain::Wall => 1,
    }
}

fn chrome_event(e: &TraceEvent) -> String {
    use serde::Value;
    let mut obj: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(e.name.clone())),
        ("cat".into(), Value::Str(e.cat.clone())),
    ];
    match e.kind {
        EventKind::Span => {
            obj.push(("ph".into(), Value::Str("X".into())));
            obj.push(("pid".into(), Value::UInt(chrome_pid(e) as u64)));
            obj.push(("tid".into(), Value::UInt(e.track as u64)));
            obj.push(("ts".into(), Value::Float(e.ts_us)));
            obj.push(("dur".into(), Value::Float(e.dur_us)));
        }
        EventKind::Counter | EventKind::Gauge => {
            obj.push(("ph".into(), Value::Str("C".into())));
            obj.push(("pid".into(), Value::UInt(chrome_pid(e) as u64)));
            obj.push(("tid".into(), Value::UInt(e.track as u64)));
            obj.push(("ts".into(), Value::Float(e.ts_us)));
            obj.push((
                "args".into(),
                Value::Map(vec![(e.name.clone(), Value::Float(e.value))]),
            ));
        }
    }
    serde_json::to_string(&Value::Map(obj)).expect("chrome event serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_drops_everything() {
        assert!(!OFF.tracing() && !OFF.metering());
        OFF.record(TraceEvent::sim_span("x", "test", 0, 0.0, 1.0));
        assert!(OFF.take_events().is_empty());
        assert_eq!(OFF.now_us(), 0.0);
        let metrics_only = Telemetry::new(false, true);
        metrics_only.record(TraceEvent::sim_span("x", "test", 0, 0.0, 1.0));
        assert!(metrics_only.take_events().is_empty());
        assert!(metrics_only.metering());
    }

    #[test]
    fn event_log_keeps_arrival_order() {
        let t = Telemetry::new(true, false);
        assert!(t.tracing() && !t.metering());
        t.record(TraceEvent::sim_span("a", "test", 0, 0.0, 1.0));
        t.record(TraceEvent::sim_span("b", "test", 1, 1.0, 1.0));
        let events = t.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert!(t.take_events().is_empty(), "take_events drains");
    }

    #[test]
    fn sim_origin_shifts_sim_events_only() {
        let t = Telemetry::live();
        t.set_sim_origin_s(2.5);
        t.record(TraceEvent::sim_span("k", "test", 0, 0.25, 1.0));
        t.record(TraceEvent::wall_span("w", "test", 0, 7.0, 1.0));
        t.set_sim_origin_s(0.0);
        t.record(TraceEvent::sim_counter("c", 0, 0.25, 1.0));
        let events = t.take_events();
        assert_eq!(events[0].ts_us, 0.25e6 + 2.5e6);
        assert_eq!(events[1].ts_us, 7.0);
        assert_eq!(events[2].ts_us, 0.25e6);
    }

    #[test]
    fn wall_clock_advances() {
        let t = Telemetry::live();
        let t0 = t.now_us();
        let t1 = t.now_us();
        assert!(t1 >= t0);
        assert!(t0 >= 0.0);
    }

    #[test]
    fn sim_units_convert_to_microseconds() {
        let e = TraceEvent::sim_span("gather", "superstep", 2, 1.5, 0.25);
        assert_eq!(e.ts_us, 1.5e6);
        assert_eq!(e.dur_us, 0.25e6);
        assert_eq!(e.domain, TimeDomain::Sim);
        let c = TraceEvent::sim_counter("active", 4, 2.0, 17.0);
        assert_eq!(c.ts_us, 2e6);
        assert_eq!(c.value, 17.0);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let events = vec![
            TraceEvent::sim_span("a", "test", 0, 0.0, 1.0),
            TraceEvent::wall_counter("b", 1, 5.0, 2.0),
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"a\""));
        assert!(lines[0].contains("\"domain\":\"Sim\""));
        assert!(lines[1].contains("\"kind\":\"Counter\""));
    }

    #[test]
    fn chrome_trace_has_spans_counters_and_metadata() {
        let events = vec![
            TraceEvent::sim_span("gather", "superstep", 0, 0.0, 1.0),
            TraceEvent::sim_gauge("imbalance", 2, 0.0, 1.25),
            TraceEvent::wall_span("fanout", "host", 0, 3.0, 4.0),
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""), "complete spans present");
        assert!(json.contains("\"ph\":\"C\""), "counter samples present");
        assert!(json.contains("simulated cluster"));
        assert!(json.contains("\"host\""));
        assert!(json.contains("\"imbalance\":1.25"));
    }

    #[test]
    fn chrome_trace_sim_excludes_wall_events() {
        let events = vec![
            TraceEvent::sim_span("gather", "superstep", 0, 0.0, 1.0),
            TraceEvent::wall_span("fanout", "host", 0, 3.0, 4.0),
        ];
        let json = chrome_trace_sim(&events);
        assert!(json.contains("gather"));
        assert!(!json.contains("fanout"));
        assert!(!json.contains("\"pid\":1"));
    }

    #[test]
    fn chrome_trace_sim_is_deterministic_for_identical_events() {
        let make = || {
            vec![
                TraceEvent::sim_span("gather", "superstep", 0, 0.0, 0.125),
                TraceEvent::sim_span("barrier_wait", "superstep", 1, 0.125, 0.5),
                TraceEvent::sim_counter("active_vertices", 2, 0.0, 100.0),
            ]
        };
        assert_eq!(chrome_trace_sim(&make()), chrome_trace_sim(&make()));
    }
}
