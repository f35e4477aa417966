//! Exit codes of the `hetgraph` binary on rejected input: 2 for a usage
//! error (an unknown command or flag, a missing or unparsable value, no
//! command at all), as the `exp_*` binaries do, and 1 for a run that
//! failed.

use std::process::Command;

fn hetgraph(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hetgraph"))
        .args(args)
        .output()
        .expect("spawn hetgraph")
}

/// A weight ratio past the f64 range would normalize the small weight to
/// zero; `partition` reports it as a usage error (exit 2, like every
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
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --weights range 1e-320..=1e308 is too wide"),
        "{stderr}"
    );
}

/// Each kind of usage error exits 2 with a message; a command that parses
/// but cannot read its input exits 1.
#[test]
fn usage_errors_exit_2_and_run_failures_exit_1() {
    let usage: [&[&str]; 6] = [
        &[],
        &["bogus"],
        &["stats", "--bogus", "1"],
        &["stats", "--input"],
        &["alpha", "--vertices", "ten", "--edges", "30"],
        &["simulate", "--input", "g.hgb", "--cluster", "case9"],
    ];
    for args in usage {
        let out = hetgraph(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(!out.stderr.is_empty(), "{args:?}");
    }
    let out = hetgraph(&["stats", "--input", "/definitely/missing.hgb"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: cannot load"), "{stderr}");
}
