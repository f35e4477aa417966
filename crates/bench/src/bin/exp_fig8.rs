//! Regenerates Fig 8a/8b: CCR estimation accuracy.
//!
//! Usage: `exp_fig8 [--scale N] [--out DIR] [--threads N] [--part a|b]`
//! (default: both parts)

fn main() {
    let (ctx, rest) = hetgraph_bench::ExperimentContext::from_args_with(&["--part"]);
    let part = rest
        .iter()
        .position(|a| a == "--part")
        .and_then(|i| rest.get(i + 1))
        .map(|s| match s.as_str() {
            p @ ("a" | "b") => p,
            _ => {
                eprintln!("error: --part must be a or b, got {s:?}");
                std::process::exit(2);
            }
        });
    match part {
        Some(p) => {
            hetgraph_bench::accuracy::fig8(&ctx, p);
        }
        None => {
            hetgraph_bench::accuracy::fig8(&ctx, "a");
            println!();
            hetgraph_bench::accuracy::fig8(&ctx, "b");
        }
    }
}
