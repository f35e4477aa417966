//! Zero-cost-when-disabled metrics: counters, gauges, and log-bucketed
//! histograms — the metrics half of [`Telemetry`].
//!
//! Where the handle's event log ([`crate::obs`]) captures an *event
//! stream* (every span, in order), its metrics registry keeps *running
//! aggregates* (how many, how long, what distribution) that survive a run
//! as a compact [`MetricsSnapshot`] in JSON or Prometheus text exposition
//! format.
//!
//! # Contract
//!
//! - **Zero-cost when disabled.** With metering off ([`Telemetry::off`],
//!   the [`crate::obs::OFF`] static) the registry hands out handles whose
//!   inner `Arc` is `None`; every `inc`/`observe` on them is a single
//!   branch on an immediate. Call sites guard any setup work behind
//!   [`Telemetry::metering`], exactly like `telemetry.tracing()`.
//! - **Two time domains.** Every metric is tagged [`TimeDomain::Sim`]
//!   (derived from the simulation's cost model — deterministic) or
//!   [`TimeDomain::Wall`] (host clock — not). Sim-domain metrics may only
//!   be recorded from serial kernel sections, so a sim-only snapshot
//!   ([`Telemetry::snapshot_sim`]) serializes byte-identically at any
//!   host thread count.
//! - **Deterministic aggregation.** Histograms store *only* integer
//!   bucket counts (`u64`, relaxed atomics) — no floating-point running
//!   sum, whose non-associativity would make observation order
//!   observable. Means and quantiles are derived from the bucket bounds at
//!   snapshot time, so the order in which worker threads observe can
//!   never change a snapshot.
//!
//! # Bucketing
//!
//! Histogram buckets are logarithmic with [`SUB_BUCKETS_PER_OCTAVE`] (4)
//! sub-buckets per power of two, spanning unbiased exponents −40..=23
//! (≈`9.1e-13` to `1.7e7` — nanoseconds to months when observing
//! seconds), which is [`NUM_BUCKETS`] (256) buckets plus explicit
//! zero/underflow/overflow counts. The bucket index is computed purely
//! from the `f64` bit pattern (biased exponent + top two mantissa bits),
//! with no `libm` calls, so bucketing is bit-identical on every platform.
//! Each bucket covers the half-open value range
//! `[bucket_lower_bound(i), bucket_upper_bound(i))`; both bounds are
//! exactly representable, and relative bucket width is ≤ 25%.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::obs::{Telemetry, TimeDomain};

/// Number of histogram sub-buckets per power of two (octave).
pub const SUB_BUCKETS_PER_OCTAVE: usize = 4;
/// Smallest unbiased exponent covered by the finite buckets (2^-40).
const EXP_LO: i32 = -40;
/// Largest unbiased exponent covered by the finite buckets (2^23..2^24).
const EXP_HI: i32 = 23;
/// Total number of finite histogram buckets.
pub const NUM_BUCKETS: usize = (EXP_HI - EXP_LO + 1) as usize * SUB_BUCKETS_PER_OCTAVE;

/// `2^e` for `e` in the normal range, computed exactly via bit assembly.
#[inline]
fn exp2i(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Where an observed value lands in the bucket layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketPos {
    /// Exactly zero (either sign).
    Zero,
    /// Positive but below the bucketed range, or out-of-domain
    /// (negative / NaN).
    Underflow,
    /// At or above the top of the bucketed range (incl. `+inf`).
    Overflow,
    /// Finite bucket index in `0..NUM_BUCKETS`.
    Bucket(usize),
}

/// Classify a value into the bucket layout using only its bit pattern.
#[inline]
fn bucket_pos(v: f64) -> BucketPos {
    if v == 0.0 {
        return BucketPos::Zero;
    }
    if v < 0.0 || v.is_nan() {
        // Negative or NaN: out of the histogram's domain. Counted as
        // underflow so no observation is ever silently dropped.
        return BucketPos::Underflow;
    }
    if v.is_infinite() {
        return BucketPos::Overflow;
    }
    let bits = v.to_bits();
    // Subnormals have biased exponent 0 → unbiased −1023 → underflow.
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < EXP_LO {
        BucketPos::Underflow
    } else if exp > EXP_HI {
        BucketPos::Overflow
    } else {
        let sub = ((bits >> 50) & 0b11) as usize;
        BucketPos::Bucket((exp - EXP_LO) as usize * SUB_BUCKETS_PER_OCTAVE + sub)
    }
}

/// Inclusive lower bound of finite bucket `idx` (exactly representable).
pub fn bucket_lower_bound(idx: usize) -> f64 {
    assert!(idx < NUM_BUCKETS);
    let octave = EXP_LO + (idx / SUB_BUCKETS_PER_OCTAVE) as i32;
    let sub = idx % SUB_BUCKETS_PER_OCTAVE;
    exp2i(octave) * (1.0 + sub as f64 * 0.25)
}

/// Recover a bucket's inclusive lower bound from its exact `le` upper
/// bound by decrementing the top two mantissa bits (with an octave
/// borrow when `le` is a power of two). Exact for every `le` the
/// bucket layout produces.
fn lower_from_le(le: f64) -> f64 {
    debug_assert!(le.is_finite() && le > 0.0);
    let bits = le.to_bits();
    if (bits >> 50) & 0b11 == 0 {
        // le = 2^k: the bucket below it is [1.75·2^(k-1), 2^k).
        f64::from_bits((bits - (1u64 << 52)) | (0b11 << 50))
    } else {
        f64::from_bits(bits - (1u64 << 50))
    }
}

/// Exclusive upper bound of finite bucket `idx` (exactly representable).
///
/// This is the `le` value the Prometheus exposition reports for the
/// bucket; values exactly on the bound land in the next bucket up, a
/// half-open-vs-closed mismatch of at most one representable value that
/// the exposition accepts for the sake of exact bounds.
pub fn bucket_upper_bound(idx: usize) -> f64 {
    assert!(idx < NUM_BUCKETS);
    let octave = EXP_LO + (idx / SUB_BUCKETS_PER_OCTAVE) as i32;
    let sub = idx % SUB_BUCKETS_PER_OCTAVE;
    exp2i(octave) * (1.0 + (sub as f64 + 1.0) * 0.25)
}

// ---------------------------------------------------------------------------
// Shared metric cores (atomics behind `Arc`, written by handles)
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct CounterCore {
    value: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct GaugeCore {
    bits: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    zero: AtomicU64,
    underflow: AtomicU64,
    overflow: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            zero: AtomicU64::new(0),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Monotone counter handle. Cheap to clone; a disabled handle ignores
/// every operation with a single branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCore>>);

impl Counter {
    /// A handle that drops every update (what disabled registries return).
    pub const fn noop() -> Self {
        Counter(None)
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a noop handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Last-value gauge handle. Cheap to clone; disabled handles drop updates.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    /// A handle that drops every update.
    pub const fn noop() -> Self {
        Gauge(None)
    }

    /// Set the gauge to `v` (last write wins).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a noop or never-set handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.bits.load(Ordering::Relaxed)))
    }
}

/// Log-bucketed histogram handle. Cheap to clone; disabled handles drop
/// observations.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that drops every observation.
    pub const fn noop() -> Self {
        Histogram(None)
    }

    /// Whether this handle is wired to a live registry. Lets call sites
    /// skip building observation values that only feed this histogram.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(core) = &self.0 {
            match bucket_pos(v) {
                BucketPos::Zero => core.zero.fetch_add(1, Ordering::Relaxed),
                BucketPos::Underflow => core.underflow.fetch_add(1, Ordering::Relaxed),
                BucketPos::Overflow => core.overflow.fetch_add(1, Ordering::Relaxed),
                BucketPos::Bucket(i) => core.buckets[i].fetch_add(1, Ordering::Relaxed),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Registry: the metrics half of `Telemetry`
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) enum Slot {
    Counter(TimeDomain, Arc<CounterCore>),
    Gauge(TimeDomain, Arc<GaugeCore>),
    Histogram(TimeDomain, Arc<HistogramCore>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(..) => "counter",
            Slot::Gauge(..) => "gauge",
            Slot::Histogram(..) => "histogram",
        }
    }

    fn domain(&self) -> TimeDomain {
        match self {
            Slot::Counter(d, _) | Slot::Gauge(d, _) | Slot::Histogram(d, _) => *d,
        }
    }
}

/// The metrics half of [`Telemetry`]: a named registry of counters,
/// gauges, and histograms.
///
/// Handles ([`Counter`], [`Gauge`], [`Histogram`]) are registered by name
/// once (the lock is taken only at registration and snapshot time) and
/// then updated lock-free via relaxed atomics. Registering the same name
/// twice returns a handle to the same underlying metric; re-registering
/// under a different kind or time domain panics — metric names are a
/// program-wide namespace and a collision is a bug at the call site.
/// With metering off every handle is inert and nothing is allocated.
impl Telemetry {
    fn slot<F>(&self, name: &str, make: F) -> Option<Slot>
    where
        F: FnOnce() -> Slot,
    {
        if !self.metering() {
            return None;
        }
        let mut slots = self.slots.lock().unwrap();
        let slot = slots.entry(name.to_string()).or_insert_with(make);
        Some(match slot {
            Slot::Counter(d, c) => Slot::Counter(*d, Arc::clone(c)),
            Slot::Gauge(d, c) => Slot::Gauge(*d, Arc::clone(c)),
            Slot::Histogram(d, c) => Slot::Histogram(*d, Arc::clone(c)),
        })
    }

    fn mismatch(name: &str, want: &str, got: &Slot) -> ! {
        panic!(
            "metric {name:?} already registered as a {:?}-domain {}, requested {want}",
            got.domain(),
            got.kind(),
        )
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, domain: TimeDomain) -> Counter {
        match self.slot(name, || {
            Slot::Counter(
                domain,
                Arc::new(CounterCore {
                    value: AtomicU64::new(0),
                }),
            )
        }) {
            None => Counter(None),
            Some(Slot::Counter(d, core)) if d == domain => Counter(Some(core)),
            Some(other) => Self::mismatch(name, "counter", &other),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, domain: TimeDomain) -> Gauge {
        match self.slot(name, || {
            Slot::Gauge(
                domain,
                Arc::new(GaugeCore {
                    bits: AtomicU64::new(0),
                }),
            )
        }) {
            None => Gauge(None),
            Some(Slot::Gauge(d, core)) if d == domain => Gauge(Some(core)),
            Some(other) => Self::mismatch(name, "gauge", &other),
        }
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str, domain: TimeDomain) -> Histogram {
        match self.slot(name, || {
            Slot::Histogram(domain, Arc::new(HistogramCore::new()))
        }) {
            None => Histogram(None),
            Some(Slot::Histogram(d, core)) if d == domain => Histogram(Some(core)),
            Some(other) => Self::mismatch(name, "histogram", &other),
        }
    }

    /// Snapshot every metric, sorted by name within each section.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(domain, core) => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    domain: *domain,
                    value: core.value.load(Ordering::Relaxed),
                }),
                Slot::Gauge(domain, core) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    domain: *domain,
                    value: f64::from_bits(core.bits.load(Ordering::Relaxed)),
                }),
                Slot::Histogram(domain, core) => {
                    let mut buckets = Vec::new();
                    for (i, b) in core.buckets.iter().enumerate() {
                        let count = b.load(Ordering::Relaxed);
                        if count > 0 {
                            buckets.push(HistogramBucket {
                                le: bucket_upper_bound(i),
                                count,
                            });
                        }
                    }
                    snap.histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        domain: *domain,
                        zero: core.zero.load(Ordering::Relaxed),
                        underflow: core.underflow.load(Ordering::Relaxed),
                        overflow: core.overflow.load(Ordering::Relaxed),
                        buckets,
                    });
                }
            }
        }
        snap
    }

    /// Snapshot only the sim-domain metrics — the deterministic artifact.
    /// Its JSON and Prometheus serializations are byte-identical at any
    /// host thread count.
    pub fn snapshot_sim(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.retain_domain(TimeDomain::Sim);
        snap
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CounterSnapshot {
    /// Metric name (slash-separated path, e.g. `engine/supersteps_total`).
    pub name: String,
    /// Time domain the metric was recorded in.
    pub domain: TimeDomain,
    /// Counter value.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Time domain the metric was recorded in.
    pub domain: TimeDomain,
    /// Last value set (0.0 if never set).
    pub value: f64,
}

/// One non-empty histogram bucket: `count` observations with values in
/// `[previous bound, le)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HistogramBucket {
    /// Exclusive upper bound of the bucket (exactly representable).
    pub le: f64,
    /// Observations in this bucket (non-cumulative).
    pub count: u64,
}

/// Point-in-time state of one histogram: sparse non-empty buckets plus
/// explicit zero/underflow/overflow counts (kept out-of-band so the JSON
/// never needs a non-finite number).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Time domain the metric was recorded in.
    pub domain: TimeDomain,
    /// Observations exactly equal to zero.
    pub zero: u64,
    /// Positive observations below the bucketed range, plus out-of-domain
    /// (negative / NaN) observations.
    pub underflow: u64,
    /// Observations at or above the top of the bucketed range.
    pub overflow: u64,
    /// Non-empty buckets in ascending `le` order.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.zero
            + self.underflow
            + self.overflow
            + self.buckets.iter().map(|b| b.count).sum::<u64>()
    }

    /// Approximate sum of observations, reconstructed from bucket
    /// geometry: each bucket contributes its count times the arithmetic
    /// midpoint of its exact bounds (within 12.5% of the true sum for
    /// in-range values), zero and underflow contribute 0, and overflow
    /// contributes the top finite bound per observation. Midpoints of
    /// dyadic bounds are themselves exact, so the reconstruction is
    /// deterministic; never used where exactness matters (the counts
    /// themselves are exact).
    pub fn approx_sum(&self) -> f64 {
        let mut sum = 0.0;
        for b in &self.buckets {
            let mid = (lower_from_le(b.le) + b.le) * 0.5;
            sum += b.count as f64 * mid;
        }
        sum += self.overflow as f64 * bucket_upper_bound(NUM_BUCKETS - 1);
        sum
    }

    /// Approximate arithmetic mean of observations (bucket-midpoint
    /// reconstruction, see [`Self::approx_sum`]); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.approx_sum() / n as f64)
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: walks the cumulative counts
    /// and reports the upper bound of the bucket containing the rank
    /// (0.0 for the zero bucket, the bottom of the range for underflow,
    /// `f64::INFINITY` for overflow). `None` when empty or `q` is out of
    /// range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the q-quantile (1-based, nearest-rank definition).
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = self.zero;
        if rank <= seen {
            return Some(0.0);
        }
        seen += self.underflow;
        if rank <= seen {
            return Some(bucket_lower_bound(0));
        }
        for b in &self.buckets {
            seen += b.count;
            if rank <= seen {
                return Some(b.le);
            }
        }
        Some(f64::INFINITY)
    }
}

/// A full registry snapshot: every section sorted by metric name, so two
/// snapshots of the same recorded data serialize byte-identically.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Drop every metric not recorded in `domain`.
    pub fn retain_domain(&mut self, domain: TimeDomain) {
        self.counters.retain(|c| c.domain == domain);
        self.gauges.retain(|g| g.domain == domain);
        self.histograms.retain(|h| h.domain == domain);
    }

    /// Convenience lookup: counter value by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Convenience lookup: gauge value by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Convenience lookup: histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty-printed JSON document (trailing newline included). For a
    /// sim-domain snapshot this is byte-identical at any thread count:
    /// names are sorted, counts are integers, and every float
    /// (gauge values, bucket bounds) prints through the vendored
    /// `serde_json`'s stable shortest-round-trip formatter.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serialization");
        s.push('\n');
        s
    }

    /// Parse a snapshot back from its [`Self::to_json`] serialization.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let section = |key: &str| -> Result<Vec<serde::Value>, String> {
            Ok(value
                .get(key)
                .and_then(serde::Value::as_seq)
                .ok_or_else(|| format!("metrics snapshot: missing array {key:?}"))?
                .to_vec())
        };
        let name_domain = |v: &serde::Value| -> Result<(String, TimeDomain), String> {
            let name = v
                .get("name")
                .and_then(serde::Value::as_str)
                .ok_or("metrics snapshot: entry without name")?
                .to_string();
            let domain = match v.get("domain").and_then(serde::Value::as_str) {
                Some("Sim") => TimeDomain::Sim,
                Some("Wall") => TimeDomain::Wall,
                other => return Err(format!("metrics snapshot {name:?}: bad domain {other:?}")),
            };
            Ok((name, domain))
        };
        let bad = |name: &str, key: &str| {
            format!("metrics snapshot {name:?}: missing or mistyped {key:?}")
        };
        let num = |v: &serde::Value, name: &str, key: &str| {
            v.get(key)
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| bad(name, key))
        };
        let mut snap = MetricsSnapshot::default();
        for c in section("counters")? {
            let (name, domain) = name_domain(&c)?;
            let value = num(&c, &name, "value")?;
            snap.counters.push(CounterSnapshot {
                name,
                domain,
                value,
            });
        }
        for g in section("gauges")? {
            let (name, domain) = name_domain(&g)?;
            let value = match g.get("value") {
                // `to_json` spells a non-finite gauge as null.
                Some(serde::Value::Null) => f64::NAN,
                v => v
                    .and_then(serde::Value::as_f64)
                    .ok_or_else(|| bad(&name, "value"))?,
            };
            snap.gauges.push(GaugeSnapshot {
                name,
                domain,
                value,
            });
        }
        for h in section("histograms")? {
            let (name, domain) = name_domain(&h)?;
            let mut buckets = Vec::new();
            for b in h
                .get("buckets")
                .and_then(serde::Value::as_seq)
                .ok_or_else(|| bad(&name, "buckets"))?
            {
                let le = b
                    .get("le")
                    .and_then(serde::Value::as_f64)
                    .ok_or_else(|| bad(&name, "le"))?;
                buckets.push(HistogramBucket {
                    le,
                    count: num(b, &name, "count")?,
                });
            }
            snap.histograms.push(HistogramSnapshot {
                zero: num(&h, &name, "zero")?,
                underflow: num(&h, &name, "underflow")?,
                overflow: num(&h, &name, "overflow")?,
                name,
                domain,
                buckets,
            });
        }
        Ok(snap)
    }

    /// Prometheus text exposition (format 0.0.4).
    ///
    /// Metric names are prefixed `hetgraph_` and sanitized (`[^a-zA-Z0-9_:]`
    /// → `_`); the time domain becomes a `domain` label. Histograms emit
    /// cumulative `_bucket{le="..."}` series (zero and underflow counts
    /// fold into the cumulative base; `+Inf` covers overflow), an
    /// approximate `_sum` (bucket-midpoint reconstruction, see
    /// [`HistogramSnapshot::approx_sum`]), and an exact `_count`. Floats
    /// print through `serde_json::format_float`, so a sim-domain
    /// exposition is byte-stable.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 9);
            out.push_str("hetgraph_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
                    out.push(ch);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn domain_label(domain: TimeDomain) -> &'static str {
            match domain {
                TimeDomain::Sim => "sim",
                TimeDomain::Wall => "wall",
            }
        }
        fn fmt(v: f64) -> String {
            serde_json::format_float(v)
        }
        let mut out = String::new();
        for c in &self.counters {
            let name = sanitize(&c.name);
            let d = domain_label(c.domain);
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name}{{domain=\"{d}\"}} {}\n", c.value));
        }
        for g in &self.gauges {
            let name = sanitize(&g.name);
            let d = domain_label(g.domain);
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name}{{domain=\"{d}\"}} {}\n", fmt(g.value)));
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            let d = domain_label(h.domain);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = h.zero + h.underflow;
            for b in &h.buckets {
                cumulative += b.count;
                out.push_str(&format!(
                    "{name}_bucket{{domain=\"{d}\",le=\"{}\"}} {cumulative}\n",
                    fmt(b.le)
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{domain=\"{d}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "{name}_sum{{domain=\"{d}\"}} {}\n",
                fmt(h.approx_sum())
            ));
            out.push_str(&format!("{name}_count{{domain=\"{d}\"}} {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn metering_off_hands_out_inert_handles() {
        let m = Telemetry::new(true, false);
        assert!(!m.metering());
        let c = m.counter("c", TimeDomain::Sim);
        let g = m.gauge("g", TimeDomain::Sim);
        let h = m.histogram("h", TimeDomain::Wall);
        c.inc();
        c.add(10);
        g.set(3.5);
        h.observe(1.0);
        assert!(!h.is_live());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        let snap = m.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        // The shared static behaves the same.
        assert!(!crate::obs::OFF.metering());
        crate::obs::OFF.counter("x", TimeDomain::Wall).inc();
        assert_eq!(crate::obs::OFF.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counter_and_gauge_roundtrip_through_snapshot() {
        let m = Telemetry::live();
        let c = m.counter("engine/supersteps_total", TimeDomain::Sim);
        c.add(7);
        // Re-registering the same name returns the same counter.
        m.counter("engine/supersteps_total", TimeDomain::Sim).inc();
        let g = m.gauge("engine/imbalance", TimeDomain::Sim);
        g.set(1.25);
        g.set(1.5);
        let snap = m.snapshot();
        assert_eq!(snap.counter_value("engine/supersteps_total"), Some(8));
        assert_eq!(snap.gauge_value("engine/imbalance"), Some(1.5));
        assert_eq!(snap.counter_value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let m = Telemetry::live();
        let _c = m.counter("x", TimeDomain::Sim);
        let _g = m.gauge("x", TimeDomain::Sim);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn domain_collision_panics() {
        let m = Telemetry::live();
        let _a = m.counter("x", TimeDomain::Sim);
        let _b = m.counter("x", TimeDomain::Wall);
    }

    #[test]
    fn bucket_bounds_bracket_observations() {
        // For a spread of magnitudes, the chosen bucket's bounds must
        // bracket the value half-open.
        let mut rng = crate::SplitMix64::new(0x5eed);
        for _ in 0..10_000 {
            // Log-uniform over the full bucketed range.
            let e = (rng.next_u64() % 64) as i32 + EXP_LO;
            let frac = 1.0 + (rng.next_u64() % 1_000_000) as f64 / 1_000_000.0;
            let v = exp2i(e) * frac;
            match bucket_pos(v) {
                BucketPos::Bucket(i) => {
                    assert!(
                        bucket_lower_bound(i) <= v && v < bucket_upper_bound(i),
                        "v={v} not in [{}, {}) (bucket {i})",
                        bucket_lower_bound(i),
                        bucket_upper_bound(i),
                    );
                }
                other => panic!("v={v} landed in {other:?}"),
            }
        }
    }

    #[test]
    fn bucket_edges_and_special_values() {
        assert_eq!(bucket_pos(0.0), BucketPos::Zero);
        assert_eq!(bucket_pos(-0.0), BucketPos::Zero);
        assert_eq!(bucket_pos(-1.0), BucketPos::Underflow);
        assert_eq!(bucket_pos(f64::NAN), BucketPos::Underflow);
        assert_eq!(bucket_pos(f64::INFINITY), BucketPos::Overflow);
        assert_eq!(bucket_pos(1e-300), BucketPos::Underflow);
        assert_eq!(bucket_pos(1e300), BucketPos::Overflow);
        // 1.0 = 2^0 → first sub-bucket of octave 0−EXP_LO.
        assert_eq!(
            bucket_pos(1.0),
            BucketPos::Bucket((-EXP_LO) as usize * SUB_BUCKETS_PER_OCTAVE)
        );
        // Exactly on a sub-bucket bound → next bucket up (half-open).
        let idx = (-EXP_LO) as usize * SUB_BUCKETS_PER_OCTAVE;
        assert_eq!(bucket_pos(1.25), BucketPos::Bucket(idx + 1));
        assert_eq!(bucket_upper_bound(idx), 1.25);
        assert_eq!(bucket_lower_bound(idx + 1), 1.25);
        // Bottom and top of the range.
        assert_eq!(bucket_pos(exp2i(EXP_LO)), BucketPos::Bucket(0));
        assert_eq!(bucket_pos(exp2i(EXP_HI + 1)), BucketPos::Overflow);
        let top = NUM_BUCKETS - 1;
        assert_eq!(bucket_upper_bound(top), exp2i(EXP_HI + 1));
    }

    #[test]
    fn histogram_snapshot_counts_means_quantiles() {
        let m = Telemetry::live();
        let h = m.histogram("t", TimeDomain::Sim);
        assert!(h.is_live());
        h.observe(0.0);
        for _ in 0..10 {
            h.observe(1.0);
        }
        h.observe(100.0);
        h.observe(f64::INFINITY);
        h.observe(-3.0);
        let snap = m.snapshot();
        let hs = snap.histogram("t").unwrap();
        assert_eq!(hs.count(), 14);
        assert_eq!(hs.zero, 1);
        assert_eq!(hs.underflow, 1);
        assert_eq!(hs.overflow, 1);
        // p50 falls in the 1.0 bucket → its upper bound 1.25.
        assert_eq!(hs.quantile(0.5), Some(1.25));
        assert_eq!(hs.quantile(0.0), Some(0.0));
        assert_eq!(hs.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(hs.quantile(2.0), None);
        let mean = hs.mean().unwrap();
        assert!(mean > 0.0 && mean.is_finite());
        let empty = HistogramSnapshot {
            name: "e".into(),
            domain: TimeDomain::Sim,
            zero: 0,
            underflow: 0,
            overflow: 0,
            buckets: vec![],
        };
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn json_roundtrips_exactly() {
        let m = Telemetry::live();
        m.counter("engine/supersteps_total", TimeDomain::Sim)
            .add(12);
        m.gauge("engine/imbalance", TimeDomain::Sim).set(1.0625);
        m.gauge("partition/edges_per_sec", TimeDomain::Wall)
            .set(1.25e7);
        let h = m.histogram("engine/superstep_makespan_s", TimeDomain::Sim);
        for &v in &[0.0, 1e-20, 0.125, 0.13, 0.5, 7.0, 1e9] {
            h.observe(v);
        }
        let snap = m.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Byte-identity through the vendored parser (satellite: stable
        // float formatting).
        assert_eq!(back.to_json(), json);
        assert!(MetricsSnapshot::from_json("{}").is_err());
        // Hostile nesting is a parse error, not a stack overflow.
        let deep = MetricsSnapshot::from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(deep.contains("recursion limit exceeded"), "{deep}");
        // A missing or mistyped field is an error naming the field and
        // the metric, never a silent zero.
        let parse_one = |section: &str, fields: &str| {
            let entry = format!(r#"{{"name": "m", "domain": "Sim"{fields}}}"#);
            let body = ["counters", "gauges", "histograms"]
                .map(|k| format!("{k:?}: [{}]", if k == section { &entry } else { "" }));
            MetricsSnapshot::from_json(&format!("{{{}}}", body.join(", ")))
        };
        for (section, fields, field) in [
            ("counters", "", "value"),
            ("counters", r#", "value": 1.5"#, "value"),
            ("gauges", r#", "value": "1""#, "value"),
            (
                "histograms",
                r#", "underflow": 0, "overflow": 0, "buckets": []"#,
                "zero",
            ),
            (
                "histograms",
                r#", "zero": 0, "overflow": 0, "buckets": []"#,
                "underflow",
            ),
            (
                "histograms",
                r#", "zero": 0, "underflow": 0, "buckets": []"#,
                "overflow",
            ),
            (
                "histograms",
                r#", "zero": 0, "underflow": 0, "overflow": 0"#,
                "buckets",
            ),
            (
                "histograms",
                r#", "zero": 0, "underflow": 0, "overflow": 0, "buckets": [{"le": 1.5}]"#,
                "count",
            ),
        ] {
            let err = parse_one(section, fields).expect_err(field);
            assert!(
                err.contains(&format!("\"m\": missing or mistyped {field:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn prometheus_exposition_golden() {
        let m = Telemetry::live();
        m.counter("engine/supersteps_total", TimeDomain::Sim).add(8);
        m.gauge("engine/imbalance", TimeDomain::Sim).set(1.5);
        let h = m.histogram("engine/superstep makespan_s", TimeDomain::Sim);
        h.observe(0.0);
        h.observe(1.0);
        h.observe(1.0);
        h.observe(1.3);
        h.observe(f64::INFINITY);
        let got = m.snapshot_sim().to_prometheus();
        // Cumulative buckets: base 1 (the zero observation), 1.0 and
        // 1.0 land under le=1.25, 1.3 under le=1.5, +Inf in overflow.
        // _sum: 2·midpoint(1.0,1.25) + 1·midpoint(1.25,1.5) + 1·2^24
        //     = 2.25 + 1.375 + 16777216 = 16777219.625 (exact dyadic).
        let want = "\
# TYPE hetgraph_engine_supersteps_total counter
hetgraph_engine_supersteps_total{domain=\"sim\"} 8
# TYPE hetgraph_engine_imbalance gauge
hetgraph_engine_imbalance{domain=\"sim\"} 1.5
# TYPE hetgraph_engine_superstep_makespan_s histogram
hetgraph_engine_superstep_makespan_s_bucket{domain=\"sim\",le=\"1.25\"} 3
hetgraph_engine_superstep_makespan_s_bucket{domain=\"sim\",le=\"1.5\"} 4
hetgraph_engine_superstep_makespan_s_bucket{domain=\"sim\",le=\"+Inf\"} 5
hetgraph_engine_superstep_makespan_s_sum{domain=\"sim\"} 16777219.625
hetgraph_engine_superstep_makespan_s_count{domain=\"sim\"} 5
";
        assert_eq!(got, want);
    }

    #[test]
    fn sim_snapshot_excludes_wall_metrics() {
        let m = Telemetry::live();
        m.counter("sim_c", TimeDomain::Sim).inc();
        m.counter("wall_c", TimeDomain::Wall).inc();
        m.histogram("wall_h", TimeDomain::Wall).observe(1.0);
        let sim = m.snapshot_sim();
        assert_eq!(sim.counters.len(), 1);
        assert_eq!(sim.counters[0].name, "sim_c");
        assert!(sim.histograms.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Observation order can never change a snapshot: bucket counts
        // are integers and integer adds commute, so any interleaving of
        // worker threads yields the same bytes.
        #[test]
        fn observation_order_is_invisible(
            values in proptest::collection::vec(0.0f64..1e8, 1..200),
            rotate in 0usize..200,
        ) {
            let observe_all = |vs: &[f64]| {
                let m = Telemetry::live();
                let h = m.histogram("h", TimeDomain::Sim);
                for &v in vs {
                    h.observe(v);
                }
                m.snapshot_sim().to_json()
            };
            let mut reordered = values.clone();
            reordered.rotate_left(rotate % values.len());
            reordered.reverse();
            prop_assert_eq!(observe_all(&values), observe_all(&reordered));
        }

        // Recorded observation counts are exact regardless of magnitude.
        #[test]
        fn histogram_never_loses_observations(
            values in proptest::collection::vec(-1e12f64..1e12, 0..100),
        ) {
            let m = Telemetry::live();
            let h = m.histogram("h", TimeDomain::Sim);
            for &v in &values {
                h.observe(v);
            }
            let snap = m.snapshot();
            prop_assert_eq!(snap.histogram("h").unwrap().count(), values.len() as u64);
        }
    }
}
