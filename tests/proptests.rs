//! Property-based tests on the core invariants of the whole stack.

use hetgraph::core::rng::Xoshiro256;
use hetgraph::core::transform::{degree_sort_permutation, relabel};
use hetgraph::core::{io, CompactCsr, Csr, Edge, EdgeList, Graph, GraphMeta};
use hetgraph::engine::Direction;
use hetgraph::prelude::*;
use proptest::prelude::*;

/// Build the view of `a` over `g` and run `program` on it.
fn run<P: GasProgram>(
    engine: &SimEngine<'_>,
    g: &Graph,
    a: &hetgraph::partition::PartitionAssignment,
    program: &P,
    threads: usize,
) -> SimOutcome<P::VertexData> {
    let dist = DistributedGraph::new(g, a, threads).expect("assignment must cover the graph");
    engine.run(&dist, program, threads)
}

/// Strategy: a random directed graph as (vertex count, edge pairs).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2u32..200,
        proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..400),
    )
        .prop_map(|(n, pairs)| {
            let edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| Edge::new((a % n as u64) as u32, (b % n as u64) as u32))
                .collect();
            Graph::from_edge_list(EdgeList::from_edges(n, edges))
        })
}

/// Strategy: positive machine weights for 1..=6 machines.
fn arb_weights() -> impl Strategy<Value = MachineWeights> {
    proptest::collection::vec(0.05f64..10.0, 1..=6).prop_map(|w| MachineWeights::new(&w))
}

/// A minimal source-only GAS program (each in-neighbor contributes half its
/// value) with the per-source table opt-in as a runtime switch, so a pair of
/// runs can pin the table path against the general per-edge gather.
struct HalfRank {
    iters: usize,
    by_source: bool,
}

impl GasProgram for HalfRank {
    type VertexData = f64;
    type Accum = f64;

    fn name(&self) -> &'static str {
        "half_rank_proptest"
    }

    fn profile(&self) -> AppProfile {
        PageRank::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, v: VertexId) -> f64 {
        f64::from(v % 7) + 1.0
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[f64],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<f64>, f64) {
        (Some(data[u as usize] * 0.5), 1.0)
    }

    fn gather_by_source(&self) -> bool {
        self.by_source
    }

    fn source_gather(&self, _graph: &GraphMeta<'_>, data: &[f64], u: VertexId) -> f64 {
        data[u as usize] * 0.5
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        _v: VertexId,
        _old: &f64,
        acc: Option<f64>,
        _superstep: usize,
    ) -> (f64, bool) {
        (acc.unwrap_or(0.0) + 0.25, true)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn max_supersteps(&self) -> usize {
        self.iters
    }
}

/// Assert one direction of [`CompactCsr`] is equivalent to its plain
/// [`Csr`]: same edge count, same per-vertex degrees, rows decode to the
/// sorted plain rows (both via the materializing decoder and the cursor),
/// and edge ranges tile `0..num_edges` in vertex order.
fn assert_compact_matches_plain(csr: &Csr, dir: &str) -> Result<(), proptest::TestCaseError> {
    let compact = CompactCsr::from_csr(csr);
    prop_assert_eq!(compact.num_vertices(), csr.num_vertices());
    prop_assert_eq!(compact.num_edges(), csr.num_edges());
    let mut cursor = 0usize;
    let mut row = Vec::new();
    for v in 0..csr.num_vertices() {
        prop_assert!(
            compact.degree(v) == csr.degree(v),
            "{} degree of {} diverged",
            dir,
            v
        );
        let (lo, hi) = compact.edge_range(v);
        prop_assert!(lo == cursor, "{} edge range of {} does not tile", dir, v);
        cursor = hi;
        let mut plain = csr.neighbors(v).to_vec();
        plain.sort_unstable();
        compact.decode_row_into(v, &mut row);
        prop_assert!(row == plain, "{} decoded row of {} diverged", dir, v);
        let iterated: Vec<VertexId> = compact.neighbors(v).collect();
        prop_assert!(iterated == plain, "{} cursor row of {} diverged", dir, v);
    }
    prop_assert_eq!(cursor, compact.num_edges());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrips_edges(g in arb_graph()) {
        // Every edge appears in the out-CSR of its source and the in-CSR
        // of its target, with multiplicity.
        let out_total: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_total: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_total, g.num_edges());
        prop_assert_eq!(in_total, g.num_edges());
        prop_assert!(g.validate());
    }

    #[test]
    fn binary_io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_binary(&mut buf, &g).unwrap();
        let back = io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(back.edges(), g.edges());
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
    }

    #[test]
    fn partitioners_assign_every_edge_exactly_once(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
    ) {
        let kind = PartitionerKind::ALL[kind_idx];
        let a = kind.build().partition(&g, &w, 1, &OFF);
        let total: usize = a.edges_per_machine().iter().sum();
        prop_assert_eq!(total, g.num_edges());
        // Replication factor bounds.
        let rf = a.replication_factor();
        prop_assert!(rf >= 1.0 - 1e-12);
        prop_assert!(rf <= w.len() as f64 + 1e-12);
        // Every vertex with an edge has a replica; masters hold replicas.
        for v in g.vertices() {
            if g.degree(v) > 0 {
                prop_assert!(a.replica_count(v) >= 1);
                prop_assert!(a.has_replica(v, a.master(v)));
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
    ) {
        let kind = PartitionerKind::ALL[kind_idx];
        let a = kind.build().partition(&g, &w, 1, &OFF);
        let b = kind.build().partition(&g, &w, 1, &OFF);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn machine_weight_shares_sum_to_one(w in arb_weights()) {
        // Whatever raw capacities went in, the normalized shares form a
        // probability distribution.
        let total: f64 = w.as_slice().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "shares sum to {}", total);
        prop_assert!(w.as_slice().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn partitioning_is_thread_count_invariant(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
    ) {
        // The full PartitionAssignment — edge machines, masters, replica
        // masks, per-machine loads — must be byte-identical at any host
        // thread budget, for every partitioner.
        let kind = PartitionerKind::ALL[kind_idx];
        let serial = kind.build().partition(&g, &w, 1, &OFF);
        for threads in [2usize, 4] {
            let par = kind.build().partition(&g, &w, threads, &OFF);
            prop_assert_eq!(&serial, &par);
        }
    }

    #[test]
    fn partition_metrics_thread_count_invariant(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
    ) {
        let a = PartitionerKind::ALL[kind_idx].build().partition(&g, &w, 1, &OFF);
        let serial = PartitionMetrics::compute(&a, &w, 1);
        for threads in [2usize, 4] {
            let par = PartitionMetrics::compute(&a, &w, threads);
            prop_assert_eq!(&serial, &par);
        }
    }

    #[test]
    fn weighted_pick_is_total_and_stable(w in arb_weights(), h in any::<u64>()) {
        let m = w.pick(h);
        prop_assert!(m.index() < w.len());
        prop_assert_eq!(m, w.pick(h));
    }

    #[test]
    fn alpha_fit_inverts_expected_degree(alpha in 1.3f64..3.0) {
        // For any alpha in the natural band, fitting from the distribution's
        // own expected density must recover it.
        let d_max = 5_000usize;
        let mean = hetgraph::gen::alpha::expected_avg_degree(alpha, d_max);
        let n = 10_000_000u64;
        let m = (mean * n as f64) as u64;
        let fit = hetgraph::gen::alpha::fit_alpha_with_support(n, m, d_max).unwrap();
        prop_assert!((fit.alpha - alpha).abs() < 0.02, "{} vs {}", fit.alpha, alpha);
    }

    #[test]
    fn powerlaw_generator_edge_count_tracks_expectation(
        // α > 2 keeps the degree variance finite; below that the edge count
        // of a single sample legitimately swings by integer factors (the
        // α = 1.95 regime is covered by the looser smoke property below).
        alpha in 2.05f64..2.6,
        seed in any::<u64>(),
    ) {
        let cfg = PowerLawConfig::new(5_000, alpha);
        let g = cfg.generate(seed);
        let expected = cfg.expected_edges();
        // Even with finite variance, a single hub draw can add tens of
        // percent at this vertex count, so the upper bound is checked with
        // the largest out-degree excluded.
        let d_max_out = g.vertices().map(|v| g.out_degree(v)).max().unwrap_or(0) as f64;
        let trimmed = g.num_edges() as f64 - d_max_out;
        prop_assert!(
            trimmed <= expected * 1.5,
            "trimmed edges {} vs expected {}",
            trimmed,
            expected
        );
        prop_assert!(
            g.num_edges() as f64 >= expected * 0.6,
            "edges {} vs expected {}",
            g.num_edges(),
            expected
        );
        prop_assert!(g.validate());
    }

    #[test]
    fn powerlaw_generator_heavy_tail_regime_stays_sane(
        alpha in 1.8f64..2.05,
        seed in any::<u64>(),
    ) {
        // Infinite-variance regime: only order-of-magnitude bounds hold
        // per sample.
        let cfg = PowerLawConfig::new(5_000, alpha);
        let g = cfg.generate(seed);
        let expected = cfg.expected_edges();
        prop_assert!(g.num_edges() as f64 >= expected * 0.5);
        prop_assert!(g.num_edges() as f64 <= expected * 8.0);
        prop_assert!(g.validate());
    }

    #[test]
    fn ccr_sets_normalize_to_slowest(times in proptest::collection::vec(0.01f64..100.0, 1..8)) {
        let set = CcrSet::from_times("t", &times);
        let min = set.ratios().iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((min - 1.0).abs() < 1e-12);
        prop_assert_eq!(set.ratios().len(), times.len());
    }

    #[test]
    fn engine_results_survive_weight_changes(
        g in arb_graph(),
        w in arb_weights(),
    ) {
        // Changing weights changes placement, never CC results.
        prop_assume!(w.len() >= 2);
        let machines: Vec<_> = (0..w.len())
            .map(|i| if i % 2 == 0 { catalog::xeon_s() } else { catalog::xeon_l() })
            .collect();
        let cluster = Cluster::new(machines);
        let engine = SimEngine::new(&cluster);
        let uniform = RandomHash::new().partition(&g, &MachineWeights::uniform(w.len()), 1, &OFF);
        let skewed = RandomHash::new().partition(&g, &w, 1, &OFF);
        let a = run(&engine, &g, &uniform, &ConnectedComponents::new(), 1).data;
        let b = run(&engine, &g, &skewed, &ConnectedComponents::new(), 1).data;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn engine_output_is_thread_count_invariant(
        g in arb_graph(),
        w in arb_weights(),
    ) {
        // The kernel's speed machinery — hybrid frontier extraction, the
        // per-source contribution table, in-place vs staged apply, pooled
        // chunks — must never leak into results: the full SimReport JSON
        // and the final vertex data are byte-identical at any host thread
        // budget, for a table-mode app (PageRank), a sparse-frontier app
        // (SSSP), and a shrinking-frontier app (k-core).
        prop_assume!(w.len() >= 2);
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        macro_rules! pin {
            ($prog:expr) => {{
                let prog = $prog;
                let reference = run(&engine, &g, &a, &prog, 1);
                let ref_json = serde_json::to_string(&reference.report).unwrap();
                for threads in [2usize, 4] {
                    let par = run(&engine, &g, &a, &prog, threads);
                    prop_assert_eq!(&par.data, &reference.data);
                    let par_json = serde_json::to_string(&par.report).unwrap();
                    prop_assert_eq!(&par_json, &ref_json);
                }
            }};
        }
        pin!(PageRank::new(4));
        pin!(Sssp::new(0));
        pin!(KCore::new(2));
    }

    #[test]
    fn source_table_gather_matches_general_gather(
        g in arb_graph(),
        iters in 1usize..6,
    ) {
        // Two copies of the same source-only program, one opting into the
        // per-source contribution table and one running the general
        // per-edge gather, must produce bit-identical data and reports —
        // the table is a pure speed heuristic.
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        let on = run(&engine, &g, &a, &HalfRank { iters, by_source: true }, 1);
        let off = run(&engine, &g, &a, &HalfRank { iters, by_source: false }, 1);
        prop_assert_eq!(on.data, off.data);
        prop_assert_eq!(
            serde_json::to_string(&on.report).unwrap(),
            serde_json::to_string(&off.report).unwrap()
        );
    }

    #[test]
    fn frontier_set_modes_agree_with_hashset(
        ops in proptest::collection::vec(0u32..700, 1..300),
        force_dense in any::<bool>(),
    ) {
        // Whatever extraction mode the occupancy heuristic would pick,
        // both the sparse (dirty-word) and dense (full-scan) paths must
        // produce the same sorted, deduplicated frontier — and leave the
        // set fully cleared for reuse.
        let mut fs = hetgraph::core::FrontierSet::new(700);
        let mut hs = std::collections::BTreeSet::new();
        for &i in &ops {
            fs.insert(i);
            hs.insert(i);
        }
        prop_assert_eq!(fs.len(), hs.len());
        let mut out = Vec::new();
        fs.extract_into_forced(&mut out, force_dense);
        let expect: Vec<u32> = hs.into_iter().collect();
        prop_assert_eq!(out, expect);
        prop_assert!(fs.is_empty(), "extraction must drain the set");
        // The set must be genuinely clean: a second round sees only the
        // new inserts.
        fs.insert(3);
        let mut out2 = Vec::new();
        fs.extract_into_forced(&mut out2, !force_dense);
        prop_assert_eq!(out2, vec![3u32]);
    }

    #[test]
    fn migration_matches_rebuild(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec((0usize..100_000, 0u16..8), 1..60),
            1..4,
        ),
    ) {
        // Migrating any sequence of random batches (with duplicate edges
        // and no-op moves included) must leave exactly the assignment a
        // from-scratch build of the same per-edge machine vector gives, and
        // each delta must record exactly the vertices whose replica mask
        // changed, with their old and new masks and masters.
        let mut a = PartitionerKind::ALL[kind_idx].build().partition(&g, &w, 1, &OFF);
        for raw in raw_batches {
            let batch: Vec<(usize, u16)> = raw
                .into_iter()
                .map(|(e, m)| (e % g.num_edges(), m % w.len() as u16))
                .collect();
            let before = a.clone();
            let delta = a.migrate_edges(&g, &batch);
            let changed: Vec<u32> = g
                .vertices()
                .filter(|&v| before.replica_mask(v) != a.replica_mask(v))
                .collect();
            let recorded: Vec<u32> = delta.mask_changes.iter().map(|c| c.vertex).collect();
            prop_assert_eq!(recorded, changed);
            for c in &delta.mask_changes {
                prop_assert_eq!(c.old_mask, before.replica_mask(c.vertex));
                prop_assert_eq!(c.new_mask, a.replica_mask(c.vertex));
                prop_assert_eq!(c.old_master, before.master(c.vertex));
                prop_assert_eq!(c.new_master, a.master(c.vertex));
            }
        }
        let rebuilt = hetgraph::partition::PartitionAssignment::from_edge_machines(
            &g,
            w.len(),
            a.edge_machines().to_vec(), 1,        );
        prop_assert_eq!(&a, &rebuilt);
    }

    #[test]
    fn rebalanced_run_is_thread_count_invariant(
        g in arb_graph(),
        w in arb_weights(),
        slow_machine in 0usize..2,
    ) {
        // A rebalanced run — policy decisions, migrations, charged costs
        // and all — must produce byte-identical reports and data at any
        // host thread budget, even under a mid-run machine slowdown. An
        // eager policy (no imbalance threshold, tiny horizon-friendly
        // batches) maximizes the chance that migrations actually fire.
        let cluster = Cluster::case2();
        let skew = w.as_slice()[0];
        let a = RandomHash::new().partition(&g, &MachineWeights::new(&[skew, 1.0]), 1, &OFF);
        let schedule = hetgraph::cluster::PerturbationSchedule::new()
            .slowdown(slow_machine, 1, None, 0.25);
        let engine = SimEngine::new(&cluster).with_perturbations(&schedule);
        let prog = PageRank::new(4);
        let mut reference: Option<(String, Vec<f64>)> = None;
        for threads in [1usize, 2, 4] {
            let mut dist = DistributedGraph::new(&g, &a, 1).expect("assignment covers graph");
            let mut policy = hetgraph::engine::GreedyRebalance::new()
                .with_min_imbalance(1.0)
                .with_cooldown(1)
                .with_horizon(100);
            let out = engine.run(
                RunTarget::rebalanced(&mut dist, &mut policy),
                &prog,
                threads,
            );
            let json = serde_json::to_string(&out.report).unwrap();
            match &reference {
                None => reference = Some((json, out.data)),
                Some((ref_json, ref_data)) => {
                    prop_assert!(&json == ref_json, "report diverged at {} threads", threads);
                    prop_assert!(&out.data == ref_data, "data diverged at {} threads", threads);
                }
            }
        }
    }

    #[test]
    fn compact_csr_matches_plain_csr_on_random_graphs(g in arb_graph()) {
        // Both adjacency directions of the delta-varint representation
        // must be loss-free against the plain CSR they were built from.
        assert_compact_matches_plain(g.out_csr(), "out")?;
        assert_compact_matches_plain(g.in_csr(), "in")?;
    }

    #[test]
    fn compact_csr_matches_plain_csr_on_powerlaw_graphs(
        alpha in 1.9f64..2.6,
        seed in any::<u64>(),
    ) {
        // The skewed-degree regime the compression is designed for: hub
        // rows with thousands of small gaps and a long tail of tiny rows.
        let g = PowerLawConfig::new(2_000, alpha).generate(seed);
        assert_compact_matches_plain(g.out_csr(), "out")?;
        assert_compact_matches_plain(g.in_csr(), "in")?;
    }

    #[test]
    fn degree_renumbering_is_a_bijection_preserving_results(g in arb_graph()) {
        // The degree-sorted renumbering pass must be a permutation of the
        // id space that only relabels: adjacency maps through it exactly,
        // and engine results are the original's composed with the inverse
        // permutation. (The SimReport's timing side depends on placement,
        // which hashes ids, so the structural quantities — superstep count
        // and per-vertex data — are the preserved ones.)
        let perm = degree_sort_permutation(&g);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.num_vertices()).collect::<Vec<_>>());
        let r = relabel(&g, &perm);
        prop_assert_eq!(r.num_edges(), g.num_edges());
        for v in g.vertices() {
            let mut mapped: Vec<VertexId> =
                g.out_neighbors(v).iter().map(|&u| perm[u as usize]).collect();
            mapped.sort_unstable();
            let mut relabeled = r.out_neighbors(perm[v as usize]).to_vec();
            relabeled.sort_unstable();
            prop_assert!(mapped == relabeled, "out row of {} diverged", v);
        }
        // A structure-determined app (k-core peeling ignores ids): data
        // must satisfy new[perm[v]] == old[v] bit-for-bit, and the peel
        // takes the same number of supersteps.
        let cluster = Cluster::case2();
        let engine = SimEngine::new(&cluster);
        let weights = MachineWeights::uniform(2);
        let kcore = KCore::new(2);
        let old = run(&engine, &g, &RandomHash::new().partition(&g, &weights, 1, &OFF), &kcore, 1);
        let new = run(&engine, &r, &RandomHash::new().partition(&r, &weights, 1, &OFF), &kcore, 1);
        prop_assert_eq!(old.report.supersteps, new.report.supersteps);
        for v in g.vertices() {
            prop_assert!(
                old.data[v as usize] == new.data[perm[v as usize] as usize],
                "data of {} diverged",
                v
            );
        }
    }

    #[test]
    fn rng_bounded_uniformity_smoke(seed in any::<u64>(), bound in 1u64..1_000) {
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_bounded(bound) < bound);
        }
    }
}

/// Every registry program, including the opt-in f32 PageRank.
fn registry_programs() -> Vec<AnyApp> {
    let mut apps = full_apps();
    apps.push(AnyApp::pagerank_f32());
    apps
}

/// A report's serde bytes.
fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// What a live telemetry handle saw in the sim domain: the events, and
/// the metrics snapshot.
fn sim_telemetry(t: &Telemetry) -> (Vec<TraceEvent>, String) {
    let events = t
        .take_events()
        .into_iter()
        .filter(|e| e.domain == hetgraph::core::obs::TimeDomain::Sim)
        .collect();
    (events, t.snapshot_sim().to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn price_of_trace_is_run(
        g in arb_graph(),
        w in arb_weights(),
        kind_idx in 0usize..5,
    ) {
        // `price(trace(t).1) == trace(t).0 == run(t)`, as serde bytes, for
        // every registry program over any partitioner's placement, on
        // either representation, at 1/2/4 threads, with telemetry off and
        // live — and a live handle sees the same sim-domain events and
        // metrics from all three, even pricing a trace recorded with
        // telemetry off.
        let machines: Vec<_> = (0..w.len())
            .map(|i| if i % 2 == 0 { catalog::xeon_s() } else { catalog::xeon_l() })
            .collect();
        let cluster = Cluster::new(machines);
        let a = PartitionerKind::ALL[kind_idx].build().partition(&g, &w, 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment covers graph");
        let compact = hetgraph::engine::CompactDistGraph::from_dist(&dist);
        for app in registry_programs() {
            for threads in [1usize, 2, 4] {
                for compact_view in [false, true] {
                    let target = || -> RunTarget<'_, '_> {
                        if compact_view { (&compact).into() } else { (&dist).into() }
                    };
                    let off = SimEngine::new(&cluster);
                    let run = report_json(&app.run(&off, target(), threads));
                    let (traced, trace) = app.trace(&off, target(), threads).expect("traces");
                    prop_assert!(report_json(&traced) == run, "{}: trace", app);
                    let priced = off.price(&trace).expect("prices");
                    prop_assert!(report_json(&priced) == run, "{}: price", app);

                    let (t_run, t_trace, t_price) =
                        (Telemetry::live(), Telemetry::live(), Telemetry::live());
                    let live_run = app.run(&SimEngine::new(&cluster).with_telemetry(&t_run), target(), threads);
                    let (live_traced, live_trace) = app
                        .trace(&SimEngine::new(&cluster).with_telemetry(&t_trace), target(), threads)
                        .expect("traces");
                    prop_assert!(live_trace == trace, "{}: work is telemetry-independent", app);
                    // The trace recorded with telemetry off prices live.
                    let live_priced = SimEngine::new(&cluster)
                        .with_telemetry(&t_price)
                        .price(&trace)
                        .expect("prices");
                    let live = report_json(&live_run);
                    prop_assert!(report_json(&live_traced) == live, "{}: live trace", app);
                    prop_assert!(report_json(&live_priced) == live, "{}: live price", app);
                    let seen = sim_telemetry(&t_run);
                    prop_assert!(seen == sim_telemetry(&t_trace), "{}: trace telemetry", app);
                    prop_assert!(seen == sim_telemetry(&t_price), "{}: price telemetry", app);
                }
            }
        }
    }

    #[test]
    fn trace_prices_on_any_cluster_of_its_size(g in arb_graph()) {
        // The work a run does does not depend on the machine specs, so a
        // trace recorded on one cluster, priced on another of the same
        // size, is the other cluster's run: P = 1 across all eight Table I
        // machines, and P = 2 for Case 2 against its specs swapped.
        let table1 = catalog::table1();
        let one = |m: &MachineSpec| Cluster::new(vec![m.clone()]);
        let solo = RandomHash::new().partition(&g, &MachineWeights::uniform(1), 1, &OFF);
        let solo_view = DistributedGraph::new(&g, &solo, 1).expect("assignment covers graph");
        let case2 = Cluster::case2();
        let swapped = Cluster::new(case2.machines().iter().rev().cloned().collect());
        let pair = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let pair_view = DistributedGraph::new(&g, &pair, 1).expect("assignment covers graph");
        for app in registry_programs() {
            let first = one(&table1[0]);
            let (_, trace) = app.trace(&SimEngine::new(&first), &solo_view, 1).expect("traces");
            for m in &table1 {
                let cluster = one(m);
                let engine = SimEngine::new(&cluster);
                prop_assert!(
                    report_json(&engine.price(&trace).expect("prices"))
                        == report_json(&app.run(&engine, &solo_view, 1)),
                    "{} on {}",
                    app,
                    m.name
                );
            }
            let (_, trace) = app.trace(&SimEngine::new(&case2), &pair_view, 2).expect("traces");
            let engine = SimEngine::new(&swapped);
            prop_assert!(
                report_json(&engine.price(&trace).expect("prices"))
                    == report_json(&app.run(&engine, &pair_view, 2)),
                "{} on swapped case 2",
                app
            );
        }
    }
}
