//! The benchmark's own span recorder.
//!
//! Spans are opened and closed by `layers.rs` around each call into
//! `hetgraph`, kept in memory, and written once at exit as Chrome-trace
//! JSON. The benchmark is one caller, so spans nest strictly and a stack
//! is enough to find each span's parent. A disabled tracer reads no clock
//! and stores nothing, so the untraced repetitions run the same code path
//! with the recorder compiled down to one branch per span.
//!
//! A span's *self* time is its duration minus the part of it its child
//! spans cover; summed over a tree, self times equal the root's duration,
//! which is what makes the per-layer numbers add up to the repetition's
//! wall time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// Which part of the run a span belongs to. A per-layer number is taken
/// per scope and then as the median over scopes — over the traced
/// repetitions if the span occurs in any, else over the set-ups, else
/// from the probes (which re-partition and re-build for their own ends
/// and must not dilute the repetitions' numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// The `i`-th traced repetition.
    Rep(u32),
    /// The `i`-th repetition of the workload's set-up.
    Setup(u32),
    /// One-off measurements after the repetitions (single-thread
    /// baselines, re-run profiling cells, uniform-weights runs).
    Probe,
}

impl Scope {
    fn label(self) -> String {
        match self {
            Scope::Rep(i) => format!("rep#{i}"),
            Scope::Setup(i) => format!("setup#{i}"),
            Scope::Probe => "probe".to_string(),
        }
    }

    /// Rank of the scope's kind; lower wins (see the type docs).
    fn kind(self) -> u8 {
        match self {
            Scope::Rep(_) => 0,
            Scope::Setup(_) => 1,
            Scope::Probe => 2,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; per-layer metrics are keyed by it (`partition.hybrid`).
    pub name: String,
    /// The `hetgraph` crate behind the call (`gen`, `partition`, ...), or
    /// `bench` for the benchmark's own repetition and operation spans.
    pub layer: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which part of the run recorded it.
    pub scope: Scope,
    /// Operation (job, run, placement, request stream) the span served;
    /// spans of one operation share the id. 0 = outside any operation.
    pub op: u32,
    /// Counts and exact values attached where the work happened.
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    scope: Scope,
    op: u32,
    next_op: u32,
    /// Open operation spans: (span index, operation id to restore).
    op_stack: Vec<(usize, u32)>,
}

/// In-memory span recorder (see the module docs).
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                stack: Vec::new(),
                scope: Scope::Probe,
                op: 0,
                next_op: 1,
                op_stack: Vec::new(),
            }),
        }
    }

    /// Switch recording on or off (off for the untraced repetitions of a
    /// traced run). Only between spans: an open span must close first.
    pub fn set_enabled(&self, enabled: bool) {
        assert!(
            self.state.borrow().stack.is_empty(),
            "cannot switch recording inside an open span"
        );
        self.enabled.set(enabled);
    }

    /// Set the scope the following spans belong to.
    pub fn set_scope(&self, scope: Scope) {
        self.state.borrow_mut().scope = scope;
    }

    /// Open a span. Every `begin` must be matched by one [`Tracer::end`],
    /// innermost first.
    pub fn begin(&self, layer: &'static str, name: &str) -> SpanId {
        if !self.enabled.get() {
            return SpanId(None);
        }
        let now = self.now_us();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let span = Span {
            name: name.to_string(),
            layer,
            start_us: now,
            end_us: now,
            parent: st.stack.last().copied(),
            scope: st.scope,
            op: st.op,
            counts: Vec::new(),
        };
        st.spans.push(span);
        st.stack.push(id);
        SpanId(Some(id))
    }

    /// Open a span that starts a new operation: it and every span opened
    /// inside it share a fresh operation id.
    pub fn begin_op(&self, name: &str) -> SpanId {
        if self.enabled.get() {
            let mut st = self.state.borrow_mut();
            let (span, previous) = (st.spans.len(), st.op);
            st.op_stack.push((span, previous));
            st.op = st.next_op;
            st.next_op += 1;
        }
        self.begin("bench", name)
    }

    /// Close `id`, attaching `counts` to it.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span: spans must nest.
    pub fn end(&self, id: SpanId, counts: &[(&'static str, f64)]) {
        let Some(id) = id.0 else { return };
        let now = self.now_us();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.stack.pop(), Some(id), "spans must close innermost first");
        let span = &mut st.spans[id];
        span.end_us = now;
        span.counts.extend_from_slice(counts);
        if st.op_stack.last().is_some_and(|&(span, _)| span == id) {
            let (_, previous) = st.op_stack.pop().expect("checked non-empty");
            st.op = previous;
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Stop recording and hand over the spans.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn finish(self) -> Trace {
        let st = self.state.into_inner();
        assert!(st.stack.is_empty(), "{} spans left open", st.stack.len());
        Trace::new(st.spans)
    }
}

/// A finished recording, with each span's self time worked out.
pub struct Trace {
    spans: Vec<Span>,
    self_us: Vec<f64>,
}

impl Trace {
    /// Compute self times for `spans` (parents index into the same list).
    pub fn new(spans: Vec<Span>) -> Self {
        let mut self_us: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_us[p] -= s.end_us - s.start_us;
            }
        }
        for t in &mut self_us {
            *t = t.max(0.0);
        }
        Trace { spans, self_us }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`, seconds.
    pub fn self_s(&self, i: usize) -> f64 {
        self.self_us[i] / 1e6
    }

    /// Indices of the spans named `name` in the scopes that count for it:
    /// the traced repetitions if it occurs there, else the set-ups, else
    /// the probes.
    fn occurrences(&self, name: &str) -> Vec<usize> {
        let named = |i: &usize| self.spans[*i].name == name;
        let all: Vec<usize> = (0..self.spans.len()).filter(named).collect();
        let best = all.iter().map(|&i| self.spans[i].scope.kind()).min();
        all.into_iter()
            .filter(|&i| Some(self.spans[i].scope.kind()) == best)
            .collect()
    }

    /// Sum `f(span index)` within each scope, then take the median over
    /// scopes. 0 when the name never occurs.
    fn median_over_scopes(&self, name: &str, f: impl Fn(usize) -> f64) -> f64 {
        let mut per_scope: BTreeMap<Scope, f64> = BTreeMap::new();
        for i in self.occurrences(name) {
            *per_scope.entry(self.spans[i].scope).or_insert(0.0) += f(i);
        }
        let mut values: Vec<f64> = per_scope.into_values().collect();
        crate::stats::median(&mut values).unwrap_or(0.0)
    }

    /// Self seconds spent in spans named `name` in one scope (median over
    /// scopes).
    pub fn seconds(&self, name: &str) -> f64 {
        self.median_over_scopes(name, |i| self.self_s(i))
    }

    /// Sum of the count `key` over spans named `name` in one scope
    /// (median over scopes).
    pub fn sum(&self, name: &str, key: &str) -> f64 {
        self.median_over_scopes(name, |i| self.count(i, key).unwrap_or(0.0))
    }

    /// Mean of the count `key` over the spans named `name` that carry it.
    /// Used for exact values (a replication factor, a quantile), which
    /// are the same in every repetition.
    pub fn mean(&self, name: &str, key: &str) -> f64 {
        let values: Vec<f64> = self
            .occurrences(name)
            .into_iter()
            .filter_map(|i| self.count(i, key))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    fn count(&self, i: usize, key: &str) -> Option<f64> {
        self.spans[i]
            .counts
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Share of the traced repetitions' wall time that no layer span
    /// accounts for (the benchmark's own glue between calls).
    pub fn unattributed_frac(&self) -> f64 {
        let (mut glue, mut total) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if matches!(s.scope, Scope::Rep(_)) {
                total += self.self_us[i];
                if s.layer == "bench" {
                    glue += self.self_us[i];
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            glue / total
        }
    }

    /// Chrome `trace_event` JSON (open in <https://ui.perfetto.dev>): one
    /// complete event per span on a single host lane; nesting shows as
    /// stacking, and `args` carries scope, operation id, parent, self
    /// time and the attached counts.
    pub fn chrome_json(&self) -> String {
        let mut lines = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"hetbench (host wall clock)\"}}"
                .to_string(),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("scope".to_string(), Value::Str(s.scope.label())),
                ("op".to_string(), Value::UInt(u64::from(s.op))),
                ("self_us".to_string(), Value::Float(self.self_us[i])),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::UInt(p as u64)));
            }
            for &(k, v) in &s.counts {
                args.push((k.to_string(), Value::Float(v)));
            }
            let event = Value::Map(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("cat".to_string(), Value::Str(s.layer.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(0)),
                ("id".to_string(), Value::UInt(i as u64)),
                ("ts".to_string(), Value::Float(s.start_us)),
                ("dur".to_string(), Value::Float(s.end_us - s.start_us)),
                ("args".to_string(), Value::Map(args)),
            ]);
            lines.push(serde_json::to_string(&event).expect("the stand-in serializer cannot fail"));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            lines.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            layer,
            start_us: start,
            end_us: end,
            parent,
            scope: Scope::Rep(0),
            op: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let a = tr.begin_op("op");
        let b = tr.begin("gen", "gen.powerlaw");
        tr.end(b, &[("edges", 3.0)]);
        tr.end(a, &[]);
        assert!(tr.finish().spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_scopes_and_operation_ids() {
        let tr = Tracer::new(true);
        tr.set_scope(Scope::Rep(2));
        let rep = tr.begin("bench", "rep");
        let op1 = tr.begin_op("job");
        let inner = tr.begin("engine", "engine.build");
        tr.end(inner, &[("edges", 7.0)]);
        tr.end(op1, &[]);
        let op2 = tr.begin_op("job");
        tr.end(op2, &[]);
        let outside = tr.begin("gen", "gen.powerlaw");
        tr.end(outside, &[]);
        tr.end(rep, &[]);
        let trace = tr.finish();
        let s = trace.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (0, 1, 1, 2));
        assert_eq!(s[4].op, 0, "a span after an operation is outside it");
        assert!(s.iter().all(|x| x.scope == Scope::Rep(2)));
        assert_eq!(s[2].counts, vec![("edges", 7.0)]);
        assert!(s.iter().all(|x| x.end_us >= x.start_us));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let tr = Tracer::new(true);
        let a = tr.begin("gen", "a");
        let _b = tr.begin("gen", "b");
        tr.end(a, &[]);
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn finishing_with_an_open_span_panics() {
        let tr = Tracer::new(true);
        let _a = tr.begin("gen", "a");
        tr.finish();
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let trace = Trace::new(vec![
            span("rep", "bench", 0.0, 100.0, None),
            span("a", "gen", 10.0, 40.0, Some(0)),
            span("a.inner", "core", 15.0, 25.0, Some(1)),
            span("b", "engine", 50.0, 90.0, Some(0)),
        ]);
        let self_us: Vec<f64> = (0..4).map(|i| trace.self_s(i) * 1e6).collect();
        for (got, want) in self_us.iter().zip([30.0, 20.0, 10.0, 40.0]) {
            assert!((got - want).abs() < 1e-9, "{self_us:?}");
        }
        assert!((self_us.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((trace.unattributed_frac() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn queries_sum_within_a_scope_and_take_the_median_across_scopes() {
        let mut spans = Vec::new();
        for (rep, dur) in [(0u32, 10.0), (1, 30.0), (2, 20.0)] {
            for _ in 0..2 {
                let mut s = span("partition.hybrid", "partition", 0.0, dur, None);
                s.scope = Scope::Rep(rep);
                s.counts = vec![("edges", 5.0), ("rf", 1.5)];
                spans.push(s);
            }
        }
        let trace = Trace::new(spans);
        assert!((trace.seconds("partition.hybrid") - 40e-6).abs() < 1e-15);
        assert_eq!(trace.sum("partition.hybrid", "edges"), 10.0);
        assert_eq!(trace.mean("partition.hybrid", "rf"), 1.5);
        assert_eq!(trace.seconds("missing"), 0.0);
        assert_eq!(trace.mean("partition.hybrid", "missing"), 0.0);
    }

    #[test]
    fn repetitions_outrank_setups_and_probes() {
        let mut spans = Vec::new();
        for (scope, dur) in [
            (Scope::Setup(0), 500.0),
            (Scope::Rep(0), 10.0),
            (Scope::Probe, 900.0),
        ] {
            let mut s = span("engine.build", "engine", 0.0, dur, None);
            s.scope = scope;
            spans.push(s);
        }
        let mut only_setup = span("gen.powerlaw", "gen", 0.0, 70.0, None);
        only_setup.scope = Scope::Setup(1);
        spans.push(only_setup);
        let trace = Trace::new(spans);
        assert!((trace.seconds("engine.build") - 10e-6).abs() < 1e-15);
        assert!((trace.seconds("gen.powerlaw") - 70e-6).abs() < 1e-15);
    }

    #[test]
    fn recording_can_be_switched_off_between_spans() {
        let tr = Tracer::new(true);
        tr.set_enabled(false);
        let a = tr.begin("gen", "hidden");
        tr.end(a, &[]);
        tr.set_enabled(true);
        let b = tr.begin("gen", "seen");
        tr.end(b, &[]);
        let trace = tr.finish();
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].name, "seen");
    }

    #[test]
    fn chrome_json_parses_and_carries_every_span() {
        let tr = Tracer::new(true);
        tr.set_scope(Scope::Setup(0));
        let a = tr.begin("gen", "gen.\"quoted\"");
        tr.end(a, &[("edges", 2.0)]);
        let json = tr.finish().chrome_json();
        let v = serde_json::from_str(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 2, "metadata + one span");
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(e.get("cat").and_then(Value::as_str), Some("gen"));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("scope").and_then(Value::as_str), Some("setup#0"));
        assert_eq!(args.get("edges").and_then(Value::as_f64), Some(2.0));
    }
}
