//! Exit codes of the `hetgraph` binary on rejected input.

use std::process::Command;

fn hetgraph(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hetgraph"))
        .args(args)
        .output()
        .expect("spawn hetgraph")
}

/// A weight ratio past the f64 range would normalize the small weight to
/// zero; `partition` reports it as a usage error (exit 1, like every
/// other rejected flag), not as a panic in Oblivious (exit 101).
#[test]
fn extreme_weight_ratio_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join("hetgraph_cli_exit_codes");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.hgb");
    let graph = graph.to_str().unwrap();
    let gen = hetgraph(&[
        "generate",
        "--family",
        "gnm",
        "--vertices",
        "100",
        "--edges",
        "300",
        "--out",
        graph,
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let out = hetgraph(&[
        "partition",
        "--input",
        graph,
        "--machines",
        "2",
        "--weights",
        "1e308,1e-320",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --weights range 1e-320..=1e308 is too wide"),
        "{stderr}"
    );
}
