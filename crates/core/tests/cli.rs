//! Integration tests that shell the real `graphpi-cli` binary: argument
//! validation must fail with a clear message and a nonzero exit code (no
//! silent fallthrough to defaults), and the happy paths — including the
//! `--clients` concurrent-load mode — must work end to end as a user would
//! invoke them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graphpi-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("spawn graphpi-cli")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Writes a tiny two-triangle graph and returns its path (unique per test
/// so concurrent test binaries cannot race on the file).
fn temp_graph(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphpi_cli_shell_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}.txt"));
    std::fs::write(&path, "0 1\n1 2\n0 2\n2 3\n1 3\n").unwrap();
    path
}

/// Asserts the invocation failed (nonzero exit) and that stderr mentions
/// `needle` — the "clear error message" half of the contract.
fn assert_rejected(args: &[&str], needle: &str) {
    let output = run(args);
    assert!(
        !output.status.success(),
        "expected nonzero exit for {args:?}, got success with stdout: {}",
        stdout_of(&output)
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains(needle),
        "stderr for {args:?} should mention {needle:?}, got: {stderr}"
    );
}

#[test]
fn rejects_zero_repeat() {
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--repeat",
            "0",
        ],
        "--repeat must be at least 1",
    );
}

#[test]
fn rejects_unknown_format() {
    assert_rejected(
        &["stats", "--graph", "g.txt", "--format", "tsv"],
        "unknown format",
    );
    assert_rejected(
        &["stats", "--graph", "g.txt", "--format", "BINARY"],
        "unknown format",
    );
}

#[test]
fn rejects_bad_clients_values() {
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--session",
            "--clients",
            "0",
        ],
        "--clients must be at least 1",
    );
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--session",
            "--clients",
            "two",
        ],
        "--clients must be an integer",
    );
    // Concurrent load without a shared session is meaningless.
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--clients",
            "2",
        ],
        "--clients requires --session",
    );
    // And so is a job cap without the session pool to enforce it.
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--max-in-flight",
            "2",
        ],
        "--max-in-flight requires --session",
    );
}

#[test]
fn rejects_unknown_flags_and_patterns() {
    assert_rejected(
        &["count", "--graph", "g.txt", "--pattern", "house", "--turbo"],
        "unknown flag",
    );
    let graph = temp_graph("badpattern");
    assert_rejected(
        &[
            "count",
            "--graph",
            graph.to_str().unwrap(),
            "--pattern",
            "nonsense",
        ],
        "unknown pattern",
    );
}

#[test]
fn rejects_missing_graph_file_with_typed_error() {
    assert_rejected(
        &[
            "count",
            "--graph",
            "/nonexistent/graphpi/graph.txt",
            "--pattern",
            "triangle",
        ],
        "failed to load",
    );
}

#[test]
fn counts_triangles_end_to_end() {
    let graph = temp_graph("happy");
    let output = run(&[
        "count",
        "--graph",
        graph.to_str().unwrap(),
        "--pattern",
        "triangle",
        "--threads",
        "1",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    assert!(
        stdout_of(&output).contains("embeddings: 2"),
        "stdout: {}",
        stdout_of(&output)
    );
}

#[test]
fn rejects_nonsensical_mode_combos() {
    // Execution-mode flags must fail loudly, not silently fall back to a
    // plain count.
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=turbo",
        ],
        "unknown mode",
    );
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=enumerate",
            "--session",
            "--clients",
            "2",
        ],
        "single query stream",
    );
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=enumerate",
            "--limit",
            "0",
        ],
        "--limit must be at least 1",
    );
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--sample-rate",
            "0.5",
        ],
        "only apply to --mode=sample",
    );
    assert_rejected(
        &[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=sample",
            "--sample-rate",
            "2",
        ],
        "must be in (0, 1]",
    );
    assert_rejected(
        &[
            "remote",
            "--pattern",
            "house",
            "--enumerate",
            "--clients",
            "2",
        ],
        "cannot combine with",
    );
    assert_rejected(
        &["remote", "--pattern", "house", "--mode=enumerate"],
        "--enumerate",
    );
}

#[test]
fn mode_queries_end_to_end() {
    let graph = temp_graph("modes");
    let graph = graph.to_str().unwrap();
    // Enumerate: the two triangles, then the summary line.
    let output = run(&[
        "count",
        "--graph",
        graph,
        "--pattern",
        "triangle",
        "--mode=enumerate",
        "--limit",
        "10",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(
        stdout.contains("enumerated: 2 embeddings (limit 10)"),
        "stdout: {stdout}"
    );
    // Orbit: counts sum to pattern_size x global count; all four vertices
    // join at least one triangle.
    let output = run(&[
        "count",
        "--graph",
        graph,
        "--pattern",
        "triangle",
        "--mode=orbit",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(
        stdout.contains("orbit: counts sum 6 = 3 x 2 embeddings, 4/4 vertices participate"),
        "stdout: {stdout}"
    );
    // Sample at rate 1 degenerates to the exact count with zero stderr.
    let output = run(&[
        "count",
        "--graph",
        graph,
        "--pattern",
        "triangle",
        "--mode=sample",
        "--sample-rate",
        "1.0",
        "--sample-seed",
        "42",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(
        stdout.contains("sample: estimate 2.0 +- 0.0 stderr"),
        "stdout: {stdout}"
    );
}

#[test]
fn clients_mode_reports_aggregate_throughput() {
    let graph = temp_graph("clients");
    let output = run(&[
        "count",
        "--graph",
        graph.to_str().unwrap(),
        "--pattern",
        "triangle",
        "--threads",
        "2",
        "--session",
        "--clients",
        "2",
        "--repeat",
        "3",
        "--max-in-flight",
        "2",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(stdout.contains("clients x2"), "stdout: {stdout}");
    assert!(stdout.contains("queries/s aggregate"), "stdout: {stdout}");
    assert!(
        stdout.contains("embeddings: 2  (bit-identical across all clients)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("max 2 jobs in flight"), "stdout: {stdout}");
}
