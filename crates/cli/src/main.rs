//! `hetgraph` — command-line tools for the hetgraph workspace.
//!
//! ```text
//! hetgraph generate  --family powerlaw|rmat|ba|smallworld|gnm|natural ... --out FILE | --shards DIR
//! hetgraph alpha     --input FILE | --vertices N --edges M
//! hetgraph stats     --input FILE
//! hetgraph partition --input FILE|SHARD_DIR --machines K [--algorithm NAME] [--weights a,b,...]
//! hetgraph profile   [--cluster case1|case2|case3] [--scale N] [--apps LIST]
//! hetgraph simulate  --input FILE|SHARD_DIR [--compact] [--cluster C] [--app A] [--algorithm P] [--policy default|prior|ccr] [--rebalance greedy|off] [--trace-out FILE] [--metrics-out FILE]
//! hetgraph serve     [--requests N] [--tenants K] [--batch-window W] [--queue-budget B] [--max-batch M] [--weights a,b,...] [--input FILE | --vertices N] [--trace-out FILE] [--metrics-out FILE]
//! hetgraph report    --trace FILE.jsonl [--metrics FILE.json] [--top K]
//! hetgraph submit    --input FILE [--cluster C] [--app A] [--algorithm P] [--policy ...] [--threads N]
//! ```
//!
//! Graph files: `.hgb` is the compact binary format; any other extension
//! is SNAP-style text (`src<TAB>dst` per line, `#` comments).

mod args;
mod commands;

const USAGE: &str = "\
hetgraph <command> [--flag value ...]

commands:
  generate   write a synthetic graph to a file and/or a shard directory
             --family powerlaw|rmat|ba|smallworld|gnm|natural  --out FILE | --shards DIR
             powerlaw: --vertices N [--alpha A]      rmat/gnm: --vertices N --edges M
             ba: --vertices N [--edges M]            smallworld: --vertices N [--neighbors K] [--beta B]
             natural: --natural amazon|citation|social_network|wiki [--scale S]
             common: [--seed S]
             --shards DIR streams fixed-size binary shards with bounded
             buffering (powerlaw, rmat, gnm, natural only)
  alpha      fit the power-law exponent (paper Eq. 7)
             --input FILE | --vertices N --edges M
  stats      degree statistics of a graph file
             --input FILE
  partition  partition a graph and print quality metrics
             --input FILE|SHARD_DIR [--machines K] [--algorithm NAME]
             [--weights a,b,...]
  profile    proxy-profile a cluster (prints the CCR pool)
             [--cluster case1|case2|case3] [--scale N] [--threads N]
             [--apps LIST|all]
  simulate   run one application on a simulated heterogeneous cluster
             --input FILE|SHARD_DIR [--cluster C] [--app A] [--algorithm P]
             [--policy default|prior|ccr] [--scale N] [--threads N]
             [--compact]  run the kernel on the delta-varint compressed
             structure (byte-identical SimReport, lower resident bytes);
             a shard-directory --input requires --compact (hybrid and
             ginger read the shards into memory before placing)
             [--rebalance greedy|off]  migrate edges between supersteps
             when a machine straggles (off by default; reports are
             byte-identical to no flag when off)
             [--trace-out FILE]  Chrome trace_event JSON of the simulated
             timeline (.jsonl = every event as JSON-lines); open in
             chrome://tracing or ui.perfetto.dev
             [--metrics-out FILE]  aggregated metrics snapshot (.prom =
             Prometheus text exposition, else JSON); sim-domain only —
             byte-identical at any --threads — unless the name has .full.
  serve      serve an open-loop stream of graph queries (per-source SSSP,
             personalized PageRank, k-core membership) over one shared
             partitioned graph, with batched multi-source waves,
             admission control, and weighted fair scheduling
             [--requests N] [--tenants K] [--batch-window W]
             [--queue-budget B] [--max-batch M] [--weights a,b,...]
             [--mean-gap S] [--ppr-iters I] [--seed S] [--threads N]
             [--input FILE | --vertices N] [--cluster C] [--algorithm P]
             [--trace-out FILE] [--metrics-out FILE]
             all times simulated; the summary is byte-identical at any
             --threads
  report     offline straggler report from an exported trace
             --trace FILE.jsonl  [--metrics FILE.json]  [--top K]
             prints per-machine barrier waits, top-K straggler supersteps,
             critical-path phase breakdown, and the migration timeline
  submit     run one job through the full Fig 7b framework flow
             (deploy = offline profiling of every registered app, then
             CCR-pick, partition, execute)
             --input FILE [--cluster C] [--app A] [--algorithm P]
             [--policy default|prior|ccr] [--scale N] [--threads N]
             profiling runs at HETGRAPH_THREADS or on every core;
             --threads sets the job's budget

apps: pagerank, coloring, connected_components, triangle_count, sssp, kcore
--threads defaults to HETGRAPH_THREADS or every available core.
exit codes: 0 success, 1 the run failed, 2 usage error (unknown command
or flag, missing or unparsable value).
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let rest = &argv[1..];
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "alpha" => commands::alpha(rest),
        "stats" => commands::stats(rest),
        "partition" => commands::partition(rest),
        "profile" => commands::profile(rest),
        "simulate" => commands::simulate(rest),
        "serve" => commands::serve(rest),
        "report" => commands::report(rest),
        "submit" => commands::submit(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => Err(args::CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
