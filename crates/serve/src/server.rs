//! The simulated-time serving loop: queue → batcher → wave → extraction.
//!
//! [`Server::serve`] drives a seeded request stream against one shared
//! [`DistributedGraph`]: arrivals are admitted against the bounded
//! tenant queues, the batcher merges compatible queued queries into one
//! multi-source superstep wave (executed by the unmodified kernel via
//! [`SimEngine::run`]), and per-request responses are
//! extracted from the wave's lanes. The *control plane* — admission,
//! window arithmetic, batch formation, latency accounting — runs
//! serially in simulated time; only the wave's gather/apply/scatter
//! fan-out uses host threads. Reports are therefore byte-identical at
//! any host thread count, which the serve perf gate enforces.
//!
//! Timeline semantics: when the queue is idle the clock jumps to the
//! next arrival and holds a *batch window* of `batch_window_s` open to
//! collect near-simultaneous requests; under backlog, waves run
//! back-to-back with no added window delay. Requests arriving while a
//! wave executes are admitted when it completes (single simulated
//! execution context — the wave owns the cluster).

use hetgraph_apps::KCore;
use hetgraph_cluster::Cluster;
use hetgraph_core::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use hetgraph_core::obs::{Recorder, TimeDomain, TraceEvent};
use hetgraph_core::{hash64, rng::hash_combine, VertexId};
use hetgraph_engine::{DistributedGraph, SimEngine, SimReport};

use crate::multi::{block_width, PprLanes, SsspLanes, MAX_LANES, UNREACHABLE};
use crate::queue::{Batch, ServeQueue};
use crate::request::{ClassKey, Completion, Request, ShedRecord};

/// Serving-loop configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeConfig {
    /// Batch window: how long an idle batcher holds the door open after
    /// the first arrival, simulated seconds.
    pub batch_window_s: f64,
    /// Maximum requests per wave (lane cap for SSSP/PPR waves).
    pub max_batch: usize,
    /// Per-tenant queue depth budget (admission control).
    pub queue_budget: usize,
    /// Tenant scheduling weights; the length is the tenant count.
    pub tenant_weights: Vec<u32>,
    /// Supersteps per personalized-PageRank wave.
    pub ppr_iterations: usize,
    /// Host threads for wave execution (control plane stays serial).
    pub threads: usize,
}

impl ServeConfig {
    /// Sensible defaults for `tenants` equally-weighted tenants.
    pub fn standard(tenants: usize) -> Self {
        ServeConfig {
            batch_window_s: 0.05,
            max_batch: 16,
            queue_budget: 64,
            tenant_weights: vec![1; tenants.max(1)],
            ppr_iterations: 10,
            threads: 1,
        }
    }
}

/// One executed wave.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WaveRecord {
    /// Wave sequence number.
    pub index: usize,
    /// Batching class label (`sssp`, `ppr`, `kcore<k>`).
    pub class: String,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated kernel makespan, seconds.
    pub makespan_s: f64,
    /// Requests served by the wave.
    pub requests: usize,
    /// Program lanes the wave ran (deduplicated sources/seeds; 1 for
    /// k-core waves, which share a single fixed point).
    pub lanes: usize,
    /// Supersteps the wave's kernel executed.
    pub supersteps: usize,
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Served requests, in completion order.
    pub completions: Vec<Completion>,
    /// Requests shed by admission control, in arrival order.
    pub shed: Vec<ShedRecord>,
    /// Per-tenant served counts.
    pub per_tenant_served: Vec<u64>,
    /// Per-tenant shed counts.
    pub per_tenant_shed: Vec<u64>,
    /// Executed waves, in order.
    pub waves: Vec<WaveRecord>,
    /// Simulated time at which the last wave finished (or the last
    /// arrival, if nothing was served), seconds.
    pub sim_duration_s: f64,
    /// Order-sensitive digest of batch composition and responses
    /// (classes, lane members, request ids, result values — no simulated
    /// times, so the digest is stable across hosts).
    pub composition_digest: u64,
}

impl ServeReport {
    /// Latency of the `q`-quantile served request (nearest-rank over the
    /// sorted latency list), simulated seconds.
    pub fn latency_quantile_s(&self, q: f64) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        let mut latencies: Vec<f64> = self.completions.iter().map(Completion::latency_s).collect();
        latencies.sort_by(f64::total_cmp);
        let idx = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(latencies[idx])
    }

    /// Mean served latency, simulated seconds.
    pub fn mean_latency_s(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        Some(
            self.completions
                .iter()
                .map(Completion::latency_s)
                .sum::<f64>()
                / self.completions.len() as f64,
        )
    }

    /// Served requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.sim_duration_s <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 / self.sim_duration_s
    }

    /// Total served requests.
    pub fn served(&self) -> usize {
        self.completions.len()
    }
}

/// Pre-registered metric handles (no-ops on the disabled registry).
struct ServeMetrics {
    queue_depth: Gauge,
    batch_size: Histogram,
    batch_lanes: Histogram,
    shed_total: Counter,
    wave_total: Counter,
    tenant_served: Vec<Counter>,
}

impl ServeMetrics {
    fn new(metrics: &MetricsRegistry, tenants: usize) -> Self {
        ServeMetrics {
            queue_depth: metrics.gauge("serve/queue_depth", TimeDomain::Sim),
            batch_size: metrics.histogram("serve/batch_size", TimeDomain::Sim),
            batch_lanes: metrics.histogram("serve/batch_lanes", TimeDomain::Sim),
            shed_total: metrics.counter("serve/shed_total", TimeDomain::Sim),
            wave_total: metrics.counter("serve/wave_total", TimeDomain::Sim),
            tenant_served: (0..tenants)
                .map(|t| {
                    metrics.counter(&format!("serve/tenant/{t}/served_total"), TimeDomain::Sim)
                })
                .collect(),
        }
    }
}

/// Splices per-wave kernel traces into one continuous serving timeline:
/// sim-domain timestamps are offset by the wave's start time (each
/// kernel run starts its own clock at zero); wall-domain events pass
/// through untouched. The offset is plain `f64` bit storage — waves run
/// one at a time, and concurrent kernel workers only emit wall events.
struct ShiftRecorder<'a> {
    inner: &'a dyn Recorder,
    offset_us: std::sync::atomic::AtomicU64,
}

impl<'a> ShiftRecorder<'a> {
    fn new(inner: &'a dyn Recorder) -> Self {
        ShiftRecorder {
            inner,
            offset_us: std::sync::atomic::AtomicU64::new(0.0f64.to_bits()),
        }
    }

    fn set_offset_s(&self, offset_s: f64) {
        self.offset_us.store(
            (offset_s * 1e6).to_bits(),
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    fn shift(&self, mut event: TraceEvent) -> TraceEvent {
        if event.domain == TimeDomain::Sim {
            event.ts_us +=
                f64::from_bits(self.offset_us.load(std::sync::atomic::Ordering::Relaxed));
        }
        event
    }
}

impl Recorder for ShiftRecorder<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: TraceEvent) {
        self.inner.record(self.shift(event));
    }

    fn record_batch(&self, events: &mut Vec<TraceEvent>) {
        for e in events.iter_mut() {
            *e = self.shift(e.clone());
        }
        self.inner.record_batch(events);
    }

    fn now_us(&self) -> f64 {
        self.inner.now_us()
    }
}

/// The serving front end: owns the instrumentation wiring and runs
/// request streams over a shared partitioned graph.
pub struct Server<'a> {
    cluster: &'a Cluster,
    recorder: &'a dyn Recorder,
    metrics: &'a MetricsRegistry,
}

impl<'a> Server<'a> {
    /// A server for `cluster` with instrumentation disabled.
    pub fn new(cluster: &'a Cluster) -> Self {
        Server {
            cluster,
            recorder: &hetgraph_core::obs::NOOP,
            metrics: &hetgraph_core::metrics::NOOP,
        }
    }

    /// Attach a [`Recorder`]: the serving loop emits `wave/<class>`
    /// spans and queue-depth gauges, and each wave's kernel trace is
    /// time-shifted onto the serving timeline, so `hetgraph report`
    /// analyzes a serve trace like any simulate trace.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a [`MetricsRegistry`] (queue-depth gauge, batch-size
    /// histograms, per-tenant served counters, shed counter — all
    /// sim-domain, recorded from the serial control plane).
    pub fn with_metrics(mut self, metrics: &'a MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Serve `requests` (sorted by arrival, ids in arrival order — the
    /// load generator's output contract) over `dist`.
    ///
    /// # Panics
    /// Panics if the request stream is unsorted, the config has no
    /// tenants or a `max_batch` outside `1..=MAX_LANES`, or a query
    /// references a vertex outside the graph.
    pub fn serve(
        &self,
        dist: &DistributedGraph<'_>,
        cfg: &ServeConfig,
        requests: &[Request],
    ) -> ServeReport {
        assert!(!cfg.tenant_weights.is_empty(), "config has no tenants");
        assert!(
            (1..=MAX_LANES).contains(&cfg.max_batch),
            "max_batch {} outside 1..={MAX_LANES}",
            cfg.max_batch
        );
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "request stream must be sorted by arrival time"
        );
        let n = dist.graph().num_vertices();
        for r in requests {
            assert!(
                r.kind.vertex() < n,
                "request {} references vertex {} outside the graph ({n} vertices)",
                r.id,
                r.kind.vertex()
            );
        }
        let tenants = cfg.tenant_weights.len();
        let m = ServeMetrics::new(self.metrics, tenants);
        let shift = ShiftRecorder::new(self.recorder);
        let engine = SimEngine::new(self.cluster)
            .with_recorder(&shift)
            .with_metrics(self.metrics);
        // Serve-level trace lane: one past the cluster-wide track the
        // kernel uses for its communication barrier.
        let serve_track = self.cluster.len() as u32 + 1;

        let mut queue = ServeQueue::new(cfg.tenant_weights.clone(), cfg.queue_budget);
        let mut now = 0.0f64;
        let mut cursor = 0usize;
        let mut report = ServeReport {
            completions: Vec::new(),
            shed: Vec::new(),
            per_tenant_served: vec![0; tenants],
            per_tenant_shed: vec![0; tenants],
            waves: Vec::new(),
            sim_duration_s: 0.0,
            composition_digest: hash64(0x5e22e),
        };

        while cursor < requests.len() || !queue.is_empty() {
            if queue.is_empty() && cursor < requests.len() {
                // Idle: jump to the next arrival and hold the batch
                // window open to collect near-simultaneous requests.
                now = now.max(requests[cursor].arrival_s) + cfg.batch_window_s;
            }
            cursor = self.admit_until(&mut queue, &m, &mut report, requests, cursor, now);
            let Some(batch) = queue.next_batch(cfg.max_batch) else {
                continue;
            };
            m.queue_depth.set(queue.total_depth() as f64);
            m.batch_size.observe(batch.requests.len() as f64);
            m.wave_total.inc();
            for r in &batch.requests {
                m.tenant_served[r.tenant].inc();
            }

            shift.set_offset_s(now);
            let wave = execute_wave(&engine, dist, cfg, &batch, now, report.waves.len());
            if self.recorder.enabled() {
                self.recorder.record(TraceEvent::sim_span(
                    format!("wave/{}", wave.record.class),
                    "serve",
                    serve_track,
                    now,
                    wave.record.makespan_s,
                ));
                self.recorder.record(TraceEvent::sim_gauge(
                    "serve/queue_depth",
                    serve_track,
                    now,
                    queue.total_depth() as f64,
                ));
            }
            m.batch_lanes.observe(wave.record.lanes as f64);
            now += wave.record.makespan_s;
            report.sim_duration_s = now;

            // Fold the wave into the composition digest: class, lane
            // membership, and every (request, response) pair — this is
            // what "deterministic batch composition" gates on.
            let mut d = report.composition_digest;
            d = hash_combine(d, wave.record.index as u64);
            d = hash_combine(d, batch.class.digest_tag());
            d = hash_combine(d, wave.record.lanes as u64);
            for (req, &result) in batch.requests.iter().zip(&wave.results) {
                d = hash_combine(d, req.id);
                d = hash_combine(d, result);
                report.per_tenant_served[req.tenant] += 1;
                report.completions.push(Completion {
                    id: req.id,
                    tenant: req.tenant,
                    class: batch.class,
                    arrival_s: req.arrival_s,
                    wave_start_s: wave.record.start_s,
                    finish_s: now,
                    result,
                });
            }
            report.composition_digest = d;
            report.waves.push(wave.record);
        }
        if let Some(last) = requests.last() {
            report.sim_duration_s = report.sim_duration_s.max(last.arrival_s);
        }
        m.queue_depth.set(0.0);
        report
    }

    /// Admit every request with `arrival_s <= now`, recording sheds.
    fn admit_until(
        &self,
        queue: &mut ServeQueue,
        m: &ServeMetrics,
        report: &mut ServeReport,
        requests: &[Request],
        mut cursor: usize,
        now: f64,
    ) -> usize {
        while cursor < requests.len() && requests[cursor].arrival_s <= now {
            let req = &requests[cursor];
            if queue.admit(req.clone()).is_err() {
                report.per_tenant_shed[req.tenant] += 1;
                report.shed.push(ShedRecord {
                    id: req.id,
                    tenant: req.tenant,
                    arrival_s: req.arrival_s,
                });
                m.shed_total.inc();
            }
            cursor += 1;
        }
        m.queue_depth.set(queue.total_depth() as f64);
        cursor
    }
}

/// A wave's record plus per-request response values (aligned with the
/// batch's request order).
struct WaveOutcome {
    record: WaveRecord,
    results: Vec<u64>,
}

/// Run one batch as a single superstep wave and extract responses.
fn execute_wave(
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    cfg: &ServeConfig,
    batch: &Batch,
    start_s: f64,
    index: usize,
) -> WaveOutcome {
    let (report, lanes, results) = match batch.class {
        ClassKey::KCore(k) => {
            let out = engine.run(dist, &KCore::new(k), cfg.threads);
            let results = batch
                .requests
                .iter()
                .map(|r| u64::from(out.data[r.kind.vertex() as usize]))
                .collect();
            (out.report, 1, results)
        }
        class @ (ClassKey::Sssp | ClassKey::Ppr) => {
            let (lane_of, ids) = assign_lanes(&batch.requests);
            // The narrowest lane block that holds the deduplicated lanes.
            let (report, per_lane) = match block_width(ids.len()) {
                1 => lane_wave::<1>(engine, dist, cfg, class, &ids),
                2 => lane_wave::<2>(engine, dist, cfg, class, &ids),
                4 => lane_wave::<4>(engine, dist, cfg, class, &ids),
                8 => lane_wave::<8>(engine, dist, cfg, class, &ids),
                16 => lane_wave::<16>(engine, dist, cfg, class, &ids),
                32 => lane_wave::<32>(engine, dist, cfg, class, &ids),
                64 => lane_wave::<64>(engine, dist, cfg, class, &ids),
                w => unreachable!("block_width returned {w}"),
            };
            let results = lane_of.iter().map(|&l| per_lane[l]).collect();
            (report, ids.len(), results)
        }
    };
    WaveOutcome {
        record: WaveRecord {
            index,
            class: batch.class.label(),
            start_s,
            makespan_s: report.makespan_s,
            requests: batch.requests.len(),
            lanes,
            supersteps: report.supersteps,
        },
        results,
    }
}

/// Run `ids` as the lanes of one `W`-wide SSSP or PPR wave; returns the
/// kernel report and the per-lane response values.
fn lane_wave<const W: usize>(
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    cfg: &ServeConfig,
    class: ClassKey,
    ids: &[VertexId],
) -> (SimReport, Vec<u64>) {
    match class {
        ClassKey::Sssp => {
            let program = SsspLanes::<W>::new(ids.to_vec());
            let out = engine.run(dist, &program, cfg.threads);
            // One pass over the data: per-lane reachable counts.
            let mut reach = vec![0u64; ids.len()];
            for block in &out.data {
                for (count, &d) in reach.iter_mut().zip(block) {
                    if d != UNREACHABLE {
                        *count += 1;
                    }
                }
            }
            (out.report, reach)
        }
        ClassKey::Ppr => {
            let program = PprLanes::<W>::new(ids.to_vec(), cfg.ppr_iterations);
            let out = engine.run(dist, &program, cfg.threads);
            // Rank-mass digest per lane, folded in vertex order (fixed
            // summation order = deterministic bits).
            let mut mass = vec![0.0f64; ids.len()];
            for block in &out.data {
                for (sum, &p) in mass.iter_mut().zip(block) {
                    *sum += p;
                }
            }
            (out.report, mass.into_iter().map(f64::to_bits).collect())
        }
        ClassKey::KCore(_) => unreachable!("k-core waves have no lanes"),
    }
}

/// Map each request to a program lane, deduplicating repeated
/// sources/seeds (two queries for the same source share one lane).
/// Returns (per-request lane index, lane vertex list in first-seen
/// order).
fn assign_lanes(requests: &[Request]) -> (Vec<usize>, Vec<VertexId>) {
    let mut lanes: Vec<VertexId> = Vec::new();
    let mut lane_of = Vec::with_capacity(requests.len());
    for r in requests {
        let v = r.kind.vertex();
        let lane = match lanes.iter().position(|&x| x == v) {
            Some(l) => l,
            None => {
                lanes.push(v);
                lanes.len() - 1
            }
        };
        lane_of.push(lane);
    }
    (lane_of, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadGenConfig;
    use crate::request::QueryKind;
    use hetgraph_core::{Edge, EdgeList, Graph};
    use hetgraph_gen::PowerLawConfig;
    use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};

    fn fixture() -> (Graph, Cluster) {
        (PowerLawConfig::new(600, 2.1).generate(11), Cluster::case2())
    }

    fn partition(g: &Graph) -> hetgraph_partition::PartitionAssignment {
        RandomHash::new().partition(g, &MachineWeights::uniform(2))
    }

    #[test]
    fn serves_every_request_when_budget_allows() {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let stream = LoadGenConfig::standard(5, 60, 0.05).generate(g.num_vertices());
        let mut cfg = ServeConfig::standard(2);
        cfg.queue_budget = 1000;
        let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
        assert_eq!(report.served(), 60);
        assert!(report.shed.is_empty());
        assert_eq!(report.per_tenant_served.iter().sum::<u64>(), 60);
        assert!(report.throughput_rps() > 0.0);
        assert!(report.latency_quantile_s(0.5).unwrap() > 0.0);
        // Completion times are consistent.
        for c in &report.completions {
            assert!(c.finish_s >= c.arrival_s);
            assert!(c.finish_s > c.wave_start_s);
        }
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let stream = LoadGenConfig::standard(7, 80, 0.02).generate(g.num_vertices());
        let run = |threads: usize| {
            let mut cfg = ServeConfig::standard(2);
            cfg.threads = threads;
            Server::new(&cluster).serve(&dist, &cfg, &stream)
        };
        let r1 = run(1);
        for threads in [2, 4] {
            let rt = run(threads);
            assert_eq!(r1.composition_digest, rt.composition_digest);
            assert_eq!(r1.completions, rt.completions, "threads={threads}");
            assert_eq!(r1.sim_duration_s, rt.sim_duration_s);
        }
    }

    #[test]
    fn waves_are_class_pure_and_capped() {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        // Dense arrivals force batching.
        let stream = LoadGenConfig::standard(3, 120, 0.001).generate(g.num_vertices());
        let mut cfg = ServeConfig::standard(2);
        cfg.max_batch = 8;
        cfg.queue_budget = 1000;
        let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
        assert!(report.waves.iter().any(|w| w.requests > 1), "no batching");
        assert!(report.waves.iter().all(|w| w.requests <= 8));
        assert!(report.waves.iter().all(|w| w.lanes <= w.requests.max(1)));
    }

    #[test]
    fn sheds_surface_under_a_tiny_budget() {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let stream = LoadGenConfig::standard(9, 200, 0.0001).generate(g.num_vertices());
        let mut cfg = ServeConfig::standard(2);
        cfg.queue_budget = 2;
        cfg.max_batch = 2;
        let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
        assert!(!report.shed.is_empty(), "overload must shed");
        assert_eq!(
            report.served() + report.shed.len(),
            200,
            "every request is either served or shed"
        );
    }

    #[test]
    fn batched_sssp_response_matches_solo_run() {
        // One reachability query on a known path graph.
        let n = 10u32;
        let edges = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let cluster = Cluster::case2();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let stream = vec![
            Request {
                id: 0,
                tenant: 0,
                kind: QueryKind::Sssp { source: 3 },
                arrival_s: 0.0,
            },
            Request {
                id: 1,
                tenant: 1,
                kind: QueryKind::Sssp { source: 0 },
                arrival_s: 0.0,
            },
        ];
        let report = Server::new(&cluster).serve(&dist, &ServeConfig::standard(2), &stream);
        // Vertex 3 reaches 3..10 (7 vertices), vertex 0 reaches all 10.
        assert_eq!(report.completions[0].result, 7);
        assert_eq!(report.completions[1].result, 10);
        assert_eq!(report.waves.len(), 1, "same-class queries share a wave");
        assert_eq!(report.waves[0].lanes, 2);
    }

    /// Serve one `kind` query (request id 7) over the 600-vertex fixture.
    fn serve_one(kind: QueryKind, cfg: &ServeConfig) -> ServeReport {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let request = Request {
            id: 7,
            tenant: 0,
            kind,
            arrival_s: 0.0,
        };
        Server::new(&cluster).serve(&dist, cfg, &[request])
    }

    #[test]
    #[should_panic(expected = "request 7 references vertex 600 outside the graph")]
    fn out_of_range_sssp_source_rejected_up_front() {
        serve_one(QueryKind::Sssp { source: 600 }, &ServeConfig::standard(1));
    }

    #[test]
    #[should_panic(expected = "request 7 references vertex 4000000000 outside the graph")]
    fn out_of_range_ppr_seed_rejected_up_front() {
        serve_one(
            QueryKind::Ppr {
                seed: 4_000_000_000,
            },
            &ServeConfig::standard(1),
        );
    }

    #[test]
    #[should_panic(expected = "request 7 references vertex 600 outside the graph")]
    fn out_of_range_kcore_vertex_rejected_up_front() {
        serve_one(
            QueryKind::KCoreMember { k: 2, vertex: 600 },
            &ServeConfig::standard(1),
        );
    }

    #[test]
    #[should_panic(expected = "max_batch 65 outside 1..=64")]
    fn max_batch_past_the_widest_block_rejected() {
        let mut cfg = ServeConfig::standard(1);
        cfg.max_batch = MAX_LANES + 1;
        serve_one(QueryKind::Sssp { source: 0 }, &cfg);
    }

    #[test]
    fn widest_block_serves_a_full_batch() {
        // 64 distinct sources arriving at once fill one 64-lane wave; the
        // last vertex in range is a valid query.
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let n = g.num_vertices();
        let stream: Vec<Request> = (0..MAX_LANES as u32)
            .map(|i| Request {
                id: u64::from(i),
                tenant: 0,
                kind: QueryKind::Sssp { source: n - 1 - i },
                arrival_s: 0.0,
            })
            .collect();
        let mut cfg = ServeConfig::standard(1);
        cfg.max_batch = MAX_LANES;
        let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].lanes, MAX_LANES);
        assert!(report.completions.iter().all(|c| c.result >= 1));
    }

    #[test]
    fn trace_and_metrics_capture_the_serving_run() {
        let (g, cluster) = fixture();
        let a = partition(&g);
        let dist = DistributedGraph::new(&g, &a).unwrap();
        let stream = LoadGenConfig::standard(1, 40, 0.01).generate(g.num_vertices());
        let recorder = hetgraph_core::obs::TraceRecorder::new();
        let metrics = MetricsRegistry::new();
        let report = Server::new(&cluster)
            .with_recorder(&recorder)
            .with_metrics(&metrics)
            .serve(&dist, &ServeConfig::standard(2), &stream);
        let events = recorder.take_events();
        let wave_spans: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("wave/"))
            .collect();
        assert_eq!(wave_spans.len(), report.waves.len());
        // Wave spans sit on the serving timeline, in order.
        for pair in wave_spans.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
        // Kernel spans were time-shifted onto the same timeline: no
        // sim-domain event may start before the first wave does.
        let first_wave_ts = wave_spans[0].ts_us;
        assert!(
            events
                .iter()
                .filter(|e| e.domain == TimeDomain::Sim
                    && e.kind == hetgraph_core::obs::EventKind::Span)
                .all(|e| e.ts_us >= first_wave_ts - 1e-9)
        );
        let snap = metrics.snapshot_sim();
        assert_eq!(
            snap.counter_value("serve/wave_total"),
            Some(report.waves.len() as u64)
        );
        let served: u64 = (0..2)
            .filter_map(|t| snap.counter_value(&format!("serve/tenant/{t}/served_total")))
            .sum();
        assert_eq!(served, report.served() as u64);
        assert!(snap.histogram("serve/batch_size").is_some());
    }
}
