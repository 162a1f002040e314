//! Runs the benchmark binary end to end: one workload on two seeds, and
//! the argument errors.

use eatss_trace::json::Json;
use std::process::Command;

/// Runs the benchmark and returns its details and result lines.
fn run(args: &[&str]) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected details and result lines, got {stdout}"
    );
    let parse = |l: &str| Json::parse(l).unwrap_or_else(|e| panic!("not JSON ({e}): {l}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn number(j: &Json, path: &[&str]) -> f64 {
    let mut v = j;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {path:?}"));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

#[test]
fn serve_mixed_reruns_on_a_second_seed() {
    for seed in ["1", "2"] {
        let (details, result) = run(&[
            "--workload",
            "serve-mixed",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{details:?}"
        );
        assert_eq!(number(&result, &["failed"]), 0.0);
        assert!(number(&result, &["attempted"]) >= 1.0);
        assert!(number(&result, &["metrics", "throughput_ops_s", "value"]) > 0.0);
        assert_eq!(number(&details, &["provenance", "seed"]).to_string(), seed);
        for kind in ["hit", "miss", "inline"] {
            assert!(
                number(&details, &["requests", kind]) > 0.0,
                "no {kind} requests in {details:?}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "sweep", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
