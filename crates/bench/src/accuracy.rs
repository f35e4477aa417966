//! Fig 2 (motivation) and Fig 8 (CCR accuracy).

use hetgraph_apps::standard_apps;
use hetgraph_cluster::{catalog, MachineSpec};
use hetgraph_core::Graph;
use hetgraph_profile::runner::profiling_set_times;
use hetgraph_profile::AccuracyReport;

use crate::context::ExperimentContext;
use crate::output::{f3, pct, print_table, write_json};

/// One Fig 2 series point: an application's real speedup on a machine vs
/// the thread-count estimate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig2Point {
    /// Application ("estimate" for the thread-count line).
    pub series: String,
    /// Machine name.
    pub machine: String,
    /// Speedup over the smallest machine.
    pub speedup: f64,
}

/// Fig 2: real scaling of the four applications across the c4 family vs
/// the resource-based estimate of prior work. Measured on the social
/// network stand-in (the paper's headline natural graph).
pub fn fig2(ctx: &ExperimentContext) -> Vec<Fig2Point> {
    let machines = [
        catalog::c4_xlarge(),
        catalog::c4_2xlarge(),
        catalog::c4_4xlarge(),
        catalog::c4_8xlarge(),
    ];
    println!(
        "== Fig 2: estimated vs real speedup across c4 machines, scale 1/{} ==\n",
        ctx.scale
    );
    let graph = hetgraph_gen::NaturalGraph::SocialNetwork.generate(ctx.scale);
    let mut points = Vec::new();

    // The prior-work "estimate" line: computing threads relative to base.
    let base_threads = machines[0].computing_threads() as f64;
    for m in &machines {
        points.push(Fig2Point {
            series: "estimate".into(),
            machine: m.name.clone(),
            speedup: m.computing_threads() as f64 / base_threads,
        });
    }
    for app in standard_apps() {
        // One traced run, priced on every machine; the first is the base.
        let times = profiling_set_times(&machines, &app, std::slice::from_ref(&graph));
        for (m, &t) in machines.iter().zip(&times) {
            points.push(Fig2Point {
                series: app.name().to_string(),
                machine: m.name.clone(),
                speedup: times[0] / t,
            });
        }
    }

    let mut table = Vec::new();
    for series in [
        "estimate",
        "pagerank",
        "coloring",
        "connected_components",
        "triangle_count",
    ] {
        let mut row = vec![series.to_string()];
        for m in &machines {
            let p = points
                .iter()
                .find(|p| p.series == series && p.machine == m.name)
                .expect("point exists");
            row.push(f3(p.speedup));
        }
        table.push(row);
    }
    print_table(
        &["series", "xlarge", "2xlarge", "4xlarge", "8xlarge"],
        &table,
    );
    println!(
        "\nShape check: PageRank saturates mid-range, TriangleCount keeps climbing,\n\
         the estimate line wildly overshoots every application at 8xlarge."
    );
    write_json(ctx.out_dir.as_deref(), "fig2", &points);
    points
}

/// Fig 8a/8b output: the accuracy table plus summary error percentages.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig8Result {
    /// Which part ("a" = within the c4 category, "b" = across categories).
    pub part: String,
    /// The per-(app, machine) rows.
    pub report: AccuracyReport,
    /// Mean proxy estimation error, percent.
    pub proxy_error_pct: f64,
    /// Mean prior-work estimation error, percent.
    pub prior_error_pct: f64,
}

/// Fig 8: CCR accuracy from synthetic proxies vs real graphs.
///
/// Part "a": c4.{x,2x,4x,8x}large (baseline c4.xlarge) — the paper reports
/// 92 % accuracy here and 108 % error for thread counts.
/// Part "b": {m4,c4,r3}.2xlarge (baseline m4.2xlarge) — the paper reports
/// 96 % accuracy.
pub fn fig8(ctx: &ExperimentContext, part: &str) -> Fig8Result {
    let (baseline, machines): (MachineSpec, Vec<MachineSpec>) = match part {
        "a" => (
            catalog::c4_xlarge(),
            vec![
                catalog::c4_2xlarge(),
                catalog::c4_4xlarge(),
                catalog::c4_8xlarge(),
            ],
        ),
        "b" => (
            catalog::m4_2xlarge(),
            vec![catalog::c4_2xlarge(), catalog::r3_2xlarge()],
        ),
        other => panic!("fig8 part must be \"a\" or \"b\", got {other:?}"),
    };
    println!("== Fig 8{part}: CCR accuracy, scale 1/{} ==\n", ctx.scale);
    let shared = ctx.natural_graphs_shared();
    let real: Vec<Graph> = shared.iter().map(|(_, g)| g.clone()).collect();
    let report = AccuracyReport::evaluate(
        &baseline,
        &machines,
        &standard_apps(),
        &ctx.proxies(),
        &real,
    );

    let mut table = Vec::new();
    for r in &report.rows {
        table.push(vec![
            r.app.clone(),
            r.machine.clone(),
            f3(r.real_speedup),
            f3(r.proxy_speedup),
            f3(r.prior_speedup),
            pct(100.0 * r.proxy_error()),
            pct(100.0 * r.prior_error()),
        ]);
    }
    print_table(
        &[
            "app",
            "machine",
            "real",
            "proxy",
            "prior",
            "proxy_err",
            "prior_err",
        ],
        &table,
    );
    let result = Fig8Result {
        part: part.to_string(),
        proxy_error_pct: report.proxy_error_pct(),
        prior_error_pct: report.prior_error_pct(),
        report,
    };
    let paper = if part == "a" {
        "(paper: proxy error ~8%, prior error ~108%)"
    } else {
        "(paper: proxy error ~4%)"
    };
    println!(
        "\nFig 8{part}: proxy error {} | prior error {} {paper}",
        pct(result.proxy_error_pct),
        pct(result.prior_error_pct),
    );
    write_json(ctx.out_dir.as_deref(), &format!("fig8{part}"), &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes() {
        let ctx = ExperimentContext::at_scale(1024);
        let points = fig2(&ctx);
        let get = |series: &str, machine: &str| {
            points
                .iter()
                .find(|p| p.series == series && p.machine == machine)
                .unwrap()
                .speedup
        };
        // Estimate overshoots the saturating app on the biggest machine.
        assert!(get("estimate", "c4.8xlarge") > 2.0 * get("pagerank", "c4.8xlarge"));
        // TriangleCount scales further than PageRank.
        assert!(get("triangle_count", "c4.8xlarge") > get("pagerank", "c4.8xlarge"));
        // Everything is monotone in machine size.
        for s in [
            "pagerank",
            "coloring",
            "connected_components",
            "triangle_count",
        ] {
            assert!(get(s, "c4.2xlarge") > get(s, "c4.xlarge"), "{s}");
            assert!(get(s, "c4.8xlarge") > get(s, "c4.2xlarge"), "{s}");
        }
    }

    #[test]
    fn fig8a_proxy_beats_prior() {
        let ctx = ExperimentContext::at_scale(1024);
        let r = fig8(&ctx, "a");
        assert!(r.proxy_error_pct < r.prior_error_pct);
        assert!(r.prior_error_pct > 40.0, "prior err {}", r.prior_error_pct);
    }

    #[test]
    fn fig8b_cross_category_accuracy() {
        let ctx = ExperimentContext::at_scale(1024);
        let r = fig8(&ctx, "b");
        assert!(r.proxy_error_pct < 20.0, "proxy err {}", r.proxy_error_pct);
    }

    #[test]
    #[should_panic(expected = "part must be")]
    fn bad_part_rejected() {
        fig8(&ExperimentContext::at_scale(1024), "c");
    }
}
