//! Reproduction-shape assertions: the paper's qualitative claims must hold
//! end-to-end through the public experiment harness (at reduced scale).

use hetgraph_bench::{accuracy, cases, tables, ExperimentContext};

use hetgraph::core::stats;
use hetgraph::prelude::*;
use hetgraph_bench::cases::{profile_pool, run_matrix, speedups_over};
use hetgraph_partition::PartitionerKind;

fn ctx() -> ExperimentContext {
    ExperimentContext::at_scale(1024)
}

#[test]
fn fig2_shape_prior_overestimates_saturating_apps() {
    let points = accuracy::fig2(&ctx());
    let speed = |series: &str, machine: &str| {
        points
            .iter()
            .find(|p| p.series == series && p.machine == machine)
            .expect("point")
            .speedup
    };
    // The thread-count estimate says 17x on c4.8xlarge; no application
    // reaches it, PageRank is furthest away (Fig 2's core message).
    let est = speed("estimate", "c4.8xlarge");
    assert!(est > 16.0);
    for app in [
        "pagerank",
        "coloring",
        "connected_components",
        "triangle_count",
    ] {
        assert!(speed(app, "c4.8xlarge") < est, "{app}");
    }
    assert!(
        speed("pagerank", "c4.8xlarge") < speed("triangle_count", "c4.8xlarge"),
        "PageRank saturates below TriangleCount"
    );
}

#[test]
fn fig8_proxies_are_accurate_thread_counts_are_not() {
    let a = accuracy::fig8(&ctx(), "a");
    assert!(
        a.proxy_error_pct < 25.0,
        "within-category proxy error too high: {}",
        a.proxy_error_pct
    );
    assert!(
        a.prior_error_pct > 2.0 * a.proxy_error_pct,
        "prior ({}) must be far worse than proxy ({})",
        a.prior_error_pct,
        a.proxy_error_pct
    );
    let b = accuracy::fig8(&ctx(), "b");
    assert!(
        b.proxy_error_pct < 20.0,
        "cross-category proxy error too high: {}",
        b.proxy_error_pct
    );
}

#[test]
fn case1_ccr_beats_default_where_prior_is_blind() {
    // Case 1: equal thread counts -> prior work falls back to uniform.
    // CCR guidance still finds the microarchitectural difference.
    let ctx = ctx();
    let cluster = Cluster::case1();
    let pool = profile_pool(&cluster, &ctx);
    let graphs = ctx.natural_graphs();
    let rows = run_matrix(
        &cluster,
        &pool,
        &graphs,
        &[PartitionerKind::RandomHash, PartitionerKind::Grid],
        &[Policy::Default, Policy::CcrGuided],
        &hetgraph::apps::standard_apps(),
        ctx.threads,
    );
    let s = stats::geomean(&speedups_over(&rows, Policy::Default, Policy::CcrGuided));
    // At this reduced test scale, per-superstep barrier time dilutes the
    // ~1.2x capability gap of Case 1 (paper: 1.16x at full size; the
    // exp_fig9 harness at --scale 64 lands near 1.1x). The structural
    // signal asserted here is that CCR finds a consistent benefit where
    // prior work sees a homogeneous cluster and can find none.
    assert!(
        s > 1.01,
        "case 1 avg speedup {s} should exceed 1 (paper: 1.16x)"
    );
}

#[test]
fn case3_is_more_heterogeneous_than_case2() {
    // The paper: CCRs grow substantially when frequency heterogeneity is
    // added; Triangle Count's grows the least and stays closest to the
    // thread-count ratio.
    let ctx = ctx();
    let pool2 = profile_pool(&Cluster::case2(), &ctx);
    let pool3 = profile_pool(&Cluster::case3(), &ctx);
    for app in hetgraph::apps::standard_apps() {
        let s2 = pool2.ccr(app.name()).unwrap().spread();
        let s3 = pool3.ccr(app.name()).unwrap().spread();
        assert!(s3 > s2, "{}: case3 {s3} must exceed case2 {s2}", app.name());
    }
    let tc3 = pool3.ccr("triangle_count").unwrap().spread();
    for app in ["pagerank", "coloring", "connected_components"] {
        let s3 = pool3.ccr(app).unwrap().spread();
        assert!(
            tc3 < s3,
            "TC case3 CCR ({tc3}) stays below {app} ({s3}) — closest to the 1:5 thread ratio"
        );
    }
}

#[test]
fn table2_and_fig6_regenerate() {
    let rows = tables::table2(&ctx());
    assert_eq!(rows.len(), 7);
    let bins = tables::fig6(&ctx());
    assert!(!bins.is_empty());
}

#[test]
fn fig10_case2_full_stack_smoke() {
    // Tiny-scale smoke of the actual figure harness: orderings at this
    // scale are asserted by the bench crate's own tests; here we only
    // require the harness to run end-to-end and produce full coverage.
    let small = ExperimentContext::at_scale(4096);
    let rows = cases::fig10(&small, 2);
    // 4 graphs x 5 partitioners x 4 apps x 3 policies
    assert_eq!(rows.len(), 4 * 5 * 4 * 3);
    for r in &rows {
        assert!(r.makespan_s > 0.0);
        assert!(r.energy_j > 0.0);
    }
}
