//! Turning an [`Outcome`] into the metrics the contract names, plus the
//! machine/run fingerprint.

use crate::harness::{LayerMetrics, Outcome, PhaseStats, RunCtx};
use crate::json::{self, Value};
use crate::trace;
use std::path::Path;

/// The committed benchmark definition, embedded so the runner, the
/// repeatability check and the tests all read the same names and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The four workload names, in the order the full run visits them.
pub const WORKLOADS: [&str; 4] = ["batch_match", "serve_warm", "plan_churn", "mixed_rw"];

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline.
    pub bound: f64,
}

/// What the runner needs of the benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Gated end-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Length of one measured run.
    pub run_seconds: f64,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lacks end_to_end")
            .iter()
            .map(|m| MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("metric name")
                    .to_string(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .expect("metric bound"),
            })
            .collect();
        Self {
            end_to_end,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("run_seconds"),
        }
    }
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The six gated metrics of an untraced run.
pub fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let phase = &outcome.untraced;
    vec![
        ("setup_s", outcome.setup_s, "s"),
        ("rss_mb", phase.rss_mb, "MiB"),
        ("primary_p50_us", phase.primary.p50_us, "us"),
        ("primary_per_s", phase.primary.per_s, "1/s"),
        ("secondary_p50_us", phase.secondary.p50_us, "us"),
        ("secondary_per_s", phase.secondary.per_s, "1/s"),
    ]
}

/// Span names that are planner entry points.
fn is_plan(name: &str) -> bool {
    name.ends_with("plan_cached")
}

/// Span names that are remote calls.
fn is_client(name: &str) -> bool {
    name.starts_with("client.")
}

/// The per-layer metrics of a traced run: the probes' and server's, plus
/// what the spans and the two phases of this run say.
pub fn per_layer(outcome: &Outcome) -> LayerMetrics {
    let mut layer = outcome.layer.clone();
    let traced = outcome
        .traced
        .as_ref()
        .expect("a traced run has a traced phase");
    let untraced = &outcome.untraced;

    let times = trace::self_times(&traced.spans);
    let roots = trace::root_total_ns(&traced.spans).max(1) as f64;
    let (mut plan, mut client, mut execute, mut harness) = (0u64, 0u64, 0u64, 0u64);
    for (name, time) in &times {
        if is_plan(name) {
            plan += time.total_ns;
        } else if is_client(name) {
            client += time.total_ns;
        } else if name.starts_with("session.") || name.starts_with("engine.") {
            execute += time.total_ns;
        } else {
            // Root spans: what is left after their children is the
            // harness's own checking.
            harness += time.self_ns;
        }
    }
    layer.insert("trace.spans", (traced.spans.len() as f64, "count"));
    layer.insert(
        "trace.dropped_spans",
        (traced.dropped_spans as f64, "count"),
    );
    layer.insert("trace.plan_share", (plan as f64 / roots, "ratio"));
    layer.insert("trace.execute_share", (execute as f64 / roots, "ratio"));
    layer.insert("trace.client_share", (client as f64 / roots, "ratio"));
    layer.insert("trace.harness_share", (harness as f64 / roots, "ratio"));
    layer.insert(
        "trace.overhead_share",
        (
            traced.primary.p50_us / untraced.primary.p50_us - 1.0,
            "ratio",
        ),
    );

    layer.insert(
        "mem.peak_rss_mb",
        (crate::harness::resident_mb("VmHWM"), "MiB"),
    );

    // Tails: reported, not gated, until shown to repeat.
    layer.insert("tail.primary_us", (untraced.primary.tail_us, "us"));
    layer.insert("tail.primary_pct", (untraced.primary.tail_pct, "%"));
    layer.insert("tail.secondary_us", (untraced.secondary.tail_us, "us"));
    layer.insert("tail.secondary_pct", (untraced.secondary.tail_pct, "%"));
    layer.insert("samples.primary", (untraced.primary.count as f64, "count"));
    layer.insert(
        "samples.secondary",
        (untraced.secondary.count as f64, "count"),
    );
    layer
}

fn phase_json(phase: &PhaseStats) -> Value {
    let class = |s: &crate::stats::Summary| {
        json::object([
            ("samples", Value::Number(s.count as f64)),
            ("p50_us", Value::Number(s.p50_us)),
            ("per_s", Value::Number(s.per_s)),
            ("tail_pct", Value::Number(s.tail_pct)),
            ("tail_us", Value::Number(s.tail_us)),
            (
                "window_p50_us",
                Value::Array(
                    s.window_p50_us
                        .iter()
                        .map(|&v| Value::Number(v.round()))
                        .collect(),
                ),
            ),
        ])
    };
    json::object([
        ("elapsed_s", Value::Number(phase.elapsed_s)),
        ("primary", class(&phase.primary)),
        ("secondary", class(&phase.secondary)),
    ])
}

/// CPU model name from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, model)| model.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported checkout).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".into(),
        commit => commit.to_string(),
    }
}

/// The context line printed before the result: machine and run
/// fingerprint, workload facts, and per-class sample counts and tails.
pub fn context_json(workload: &str, ctx: &RunCtx, smoke: bool, outcome: &Outcome) -> Value {
    let fingerprint = json::object([
        ("cpu_model", Value::String(cpu_model())),
        ("nproc", Value::Number(ctx.nproc as f64)),
        ("threads_T", Value::Number(ctx.threads as f64)),
        (
            "pinned_cpu",
            ctx.pinned_cpu
                .map_or(Value::Null, |cpu| Value::Number(cpu as f64)),
        ),
        (
            "kernel_family",
            Value::String(graphpi_graph::vertex_set::active_kernel().name().into()),
        ),
        ("rustc", Value::String(env!("LEDGER_RUSTC_VERSION").into())),
        ("git_commit", Value::String(git_commit())),
        ("seed", Value::Number(ctx.seed as f64)),
        ("seconds", Value::Number(ctx.seconds)),
        ("warmup_s", Value::Number(ctx.sizing.warmup.as_secs_f64())),
        ("traced", Value::Bool(ctx.trace)),
        (
            "sizing",
            Value::String(if smoke { "smoke" } else { "full" }.into()),
        ),
    ]);
    let mut fields = vec![
        ("workload".to_string(), Value::String(workload.into())),
        ("fingerprint".to_string(), fingerprint),
        (
            "info".to_string(),
            Value::Object(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("untraced_phase".to_string(), phase_json(&outcome.untraced)),
    ];
    if let Some(traced) = &outcome.traced {
        fields.push(("traced_phase".to_string(), phase_json(traced)));
    }
    Value::Object(fields)
}

/// The result line the contract asks for.
pub fn result_json(outcome: &Outcome, metrics: &[(String, f64, String)]) -> Value {
    json::object([
        ("correct", Value::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Value::Number(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Value::Number(outcome.checks.failed as f64)),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            json::object([
                                ("value", Value::Number(*value)),
                                ("unit", Value::String(unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_runner_emits() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|entry| {
                    entry
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            [
                "setup_s",
                "rss_mb",
                "primary_p50_us",
                "primary_per_s",
                "secondary_p50_us",
                "secondary_per_s"
            ]
        );
        assert!(names("per_layer").len() <= 128);
        let spec = Spec::load();
        for metric in &spec.end_to_end {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{} bound {}",
                metric.name,
                metric.bound
            );
        }
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn resident_set_and_fs_type_read_proc() {
        assert!(crate::harness::resident_mb("VmRSS") > 0.0);
        assert!(crate::harness::resident_mb("VmHWM") >= crate::harness::resident_mb("VmRSS"));
        assert_ne!(fs_type(Path::new(".")), "");
    }
}
