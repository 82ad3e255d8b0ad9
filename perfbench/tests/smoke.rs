//! A seconds-long run of every workload, untraced and traced, against a
//! freshly built `jim-serve`. Each must come out clean: no failed or
//! refused op, an exact cross-check of every op count against the
//! server's `Metrics`, and every full-fidelity session inferring a
//! predicate instance-equivalent to its goal. (Wrong inferences on sampled
//! sessions are reported apart and do not fail a run.)
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

#![forbid(unsafe_code)]

use jim_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["wire-mix", "deep-inference", "resume-churn", "huge-open"];

/// Build `jim-serve` in release mode next to this test's own build.
fn jim_serve(target: &Path) -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "-p", "jim-server"])
        .args(["--bin", "jim-serve", "--target-dir"])
        .arg(target)
        .current_dir(&repo)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building jim-serve failed");
    target.join("release").join("jim-serve")
}

/// The traced run's own checks, from its result document: the workload's
/// intended layer dominates, and per op the traced handler agrees with the
/// server's median and its layers account for the span.
fn assert_trace_checks_hold(out: &Path, workload: &str) {
    let path = out.join(format!("{workload}-seed3-trace1.json"));
    let text = std::fs::read_to_string(&path).expect("a traced result document");
    let detail = Json::parse(text.trim_end()).expect("the result document is JSON");
    let checks = detail
        .get("layers")
        .and_then(|l| l.get("checks"))
        .expect("a checks object");
    let holds = checks
        .get("dominant_layer")
        .and_then(|d| d.get("holds"))
        .and_then(Json::as_bool);
    assert_eq!(holds, Some(true), "{workload}: {}", checks.render());
    let Some(Json::Object(per_op)) = checks.get("per_op") else {
        panic!("{workload}: no per-op checks in {}", checks.render());
    };
    assert!(!per_op.is_empty(), "{workload}: no op was traced");
    for (op, check) in per_op {
        let agrees = check.get("agrees").and_then(Json::as_bool);
        assert_ne!(agrees, Some(false), "{workload} {op}: {}", check.render());
        let attributed = check.get("attributed").and_then(Json::as_bool);
        assert_eq!(
            attributed,
            Some(true),
            "{workload} {op}: {}",
            check.render()
        );
    }
}

#[test]
fn every_workload_runs_clean_for_a_few_seconds() {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_jim-perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .join("smoke");
    let serve = jim_serve(&target.join("serve"));
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&bench)
                .arg("--jim-serve")
                .arg(&serve)
                .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
                .args(["--trace", trace, "--out"])
                .arg(target.join("out"))
                .output()
                .expect("the benchmark runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {stderr}"
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}: {last}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}");
            };
            for (_, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {last}");
            }
            if trace == "1" {
                assert_trace_checks_hold(&target.join("out"), workload);
            }
        }
    }
}
