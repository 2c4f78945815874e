//! Drives the built `ledger` binary at smoke sizes: every workload, both
//! trace modes, the full run and the repeatability check. Keeps the runner
//! compiling, the correctness gates exercised, and the emitted names equal
//! to the ones `BENCHMARK.json` declares.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary runs")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .expect("the run printed a result line");
    json::parse(line).unwrap_or_else(|e| panic!("result line does not parse ({e}): {line}"))
}

fn declared(key: &str) -> Vec<(String, String)> {
    json::parse(BENCHMARK_JSON)
        .expect("BENCHMARK.json parses")
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |name: &str| {
                m.get(name)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn fields(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(fields) => fields,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn workloads() -> Vec<String> {
    declared("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_gate() {
    for workload in workloads() {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = ledger(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let result = last_line(&output);

            let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{stderr}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));

            let metrics = fields(result.get("metrics").expect("the result has metrics"));
            let emitted: BTreeSet<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let wanted: BTreeSet<(String, String)> = declared(key).into_iter().collect();
            assert_eq!(
                emitted, wanted,
                "{workload} --trace {trace} metric names or units"
            );
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Value::as_f64).unwrap();
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
            }
        }
    }
}

#[test]
fn the_full_run_reports_every_workload_and_the_repeat_check_every_pair() {
    let output = ledger(&["--smoke", "--seed", "3"]);
    assert!(
        output.status.success(),
        "full smoke run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let document = last_line(&output);
    let reported: Vec<&str> = fields(
        document
            .get("workloads")
            .expect("the document lists workloads"),
    )
    .iter()
    .map(|(name, _)| name.as_str())
    .collect();
    assert_eq!(reported, workloads());

    // At smoke sizes the gaps themselves are noise, so only the shape of
    // the report is asserted, not the verdict.
    let output = ledger(&["--check-repeat", "--smoke", "--seed", "3"]);
    let report = last_line(&output);
    let rows = report
        .get("repeat")
        .and_then(Value::as_array)
        .expect("repeat rows");
    assert_eq!(rows.len(), workloads().len() * declared("end_to_end").len());
    for row in rows {
        for field in ["first", "second", "worse_by", "bound"] {
            assert!(
                row.get(field).and_then(Value::as_f64).is_some(),
                "row lacks {field}"
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let round = |seed: &str| -> String {
        let output = ledger(&[
            "--workload",
            "serve_warm",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let context = stdout
            .lines()
            .rev()
            .nth(1)
            .expect("a context line precedes the result");
        let context = json::parse(context).expect("the context line parses");
        context
            .get("info")
            .and_then(|info| info.get("count_round"))
            .and_then(Value::as_str)
            .expect("serve_warm reports its count round's order")
            .to_string()
    };
    let first = round("11");
    assert_eq!(first, round("11"));
    assert!(["12", "13", "14", "15"]
        .iter()
        .any(|seed| round(seed) != first));
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--trace", "2"][..],
        &["--seconds", "0"][..],
        &["--frobnicate"][..],
    ] {
        let output = ledger(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
