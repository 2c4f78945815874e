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

/// The server keeps its plan cache in memory only; the flags that once
/// named a snapshot file are refused like any other unknown flag.
#[test]
fn the_server_refuses_the_plan_cache_persistence_flags() {
    for flag in [["--persist", "p"], ["--snapshot-interval-ms", "5"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_graphpi-server"))
            .args([["--graph", "g"], flag].concat())
            .output()
            .expect("spawn graphpi-server");
        assert!(!output.status.success(), "{flag:?} was accepted");
        let stderr = stderr_of(&output);
        assert!(
            stderr.starts_with(&format!("unknown flag {}\n", flag[0])),
            "{flag:?}: {stderr}"
        );
    }
}

/// Hub rows are the engine's choice: whenever the graph has one, every
/// query intersects through it. The switch that once opted in is refused
/// like any other unknown flag.
#[test]
fn count_and_remote_refuse_the_hubs_switch() {
    for command in [
        &["count", "--graph", "g", "--pattern", "house"][..],
        &["remote", "--pattern", "house"],
    ] {
        let output = run(&[command, &["--hubs"]].concat());
        assert!(!output.status.success(), "{command:?} accepted --hubs");
        let stderr = stderr_of(&output);
        assert!(
            stderr.starts_with("unknown flag --hubs\n"),
            "{command:?}: {stderr}"
        );
    }
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
    // Five edges price far below one pool hand-off: the plan line says
    // the query runs on the calling thread.
    assert!(
        stdout_of(&output).contains(", placement caller\n"),
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

/// Asserts the invocation exits 1 with exactly one line on stderr that
/// mentions `needle` and is not a panic report.
fn assert_one_line_error(args: &[&str], needle: &str) {
    let output = cli()
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("spawn graphpi-cli");
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_patterns_exit_one_with_one_line_and_no_panic() {
    let graph = temp_graph("badpatterns");
    let graph = graph.to_str().unwrap();
    for (pattern, needle) in [
        ("cycle2", "cycleK needs K in 3..="),
        ("clique200000", "cliqueK needs K in 1..="),
        ("adj:010", "invalid adjacency string"),
        ("adj:01x0", "invalid adjacency string"),
        ("adj:0100", "invalid adjacency string"),
    ] {
        assert_one_line_error(&["count", "--graph", graph, "--pattern", pattern], needle);
        assert_one_line_error(&["plan", "--graph", graph, "--pattern", pattern], needle);
        // `remote` refuses the pattern before it dials anything.
        assert_one_line_error(&["remote", "--pattern", pattern], needle);
    }
}

/// A flag whose value becomes a number of OS threads or per-job slots is
/// bounded by its table row: `--threads 100000` used to spend minutes
/// spawning workers that spun on `yield_now` to count one triangle.
#[test]
fn oversized_worker_counts_are_refused_before_anything_is_spawned() {
    let graph = temp_graph("workers");
    let graph = graph.to_str().unwrap();
    let count = ["count", "--graph", graph, "--pattern", "triangle"];
    let start = std::time::Instant::now();
    for (flag, extra) in [
        ("--threads", &["--threads", "100000"][..]),
        ("--clients", &["--session", "--clients", "1025"]),
        ("--max-in-flight", &["--session", "--max-in-flight", "1025"]),
    ] {
        let needle = format!("{flag} must be at most 1024");
        assert_one_line_error(&[&count, extra].concat(), &needle);
    }
    assert_one_line_error(
        &["remote", "--ping", "--clients", "1025"],
        "--clients must be at most 1024",
    );
    assert!(start.elapsed() < std::time::Duration::from_secs(5));
}

#[test]
fn unknown_command_exits_one_with_one_line() {
    assert_one_line_error(&["foo"], "unknown command \"foo\"");
}

#[test]
fn an_unreachable_server_fails_every_client_without_a_panic() {
    // Port 1 on loopback refuses the connection.
    assert_one_line_error(
        &[
            "remote",
            "--addr",
            "127.0.0.1:1",
            "--pattern",
            "triangle",
            "--clients",
            "2",
        ],
        "client 0:",
    );
}

/// `--help` is an answer, not an error: exit 0, stdout only, and below the
/// usage line one row for every flag that line names.
#[test]
fn help_exits_zero_and_describes_every_flag_of_the_usage_line() {
    let help = |binary: &str, args: &[&str]| {
        let output = Command::new(binary).args(args).output().expect("spawn");
        assert!(output.status.success(), "{args:?}: {}", stderr_of(&output));
        assert!(stderr_of(&output).is_empty(), "{args:?}");
        let text = stdout_of(&output);
        let usage = text.lines().next().unwrap_or_default().to_string();
        let flags = usage
            .split([' ', '[', ']'])
            .filter(|word| word.starts_with("--"));
        for flag in flags {
            assert!(
                text.contains(&format!("\n  {flag} ")),
                "{args:?} lacks a row for {flag}"
            );
        }
        (usage, text)
    };
    let cli = env!("CARGO_BIN_EXE_graphpi-cli");
    let (_, overview) = help(cli, &["--help"]);
    for (command, a_flag) in [
        ("stats", "--graph"),
        ("plan", "--pattern"),
        ("count", "--sample-rate"),
        ("convert", "<binary-out>"),
        ("update", "--insert U V"),
        ("remote", "--probe-malformed"),
        ("promote", "--addr"),
        ("chaos-proxy", "--partial-per-mille"),
    ] {
        assert!(overview.contains(&format!("\n  {command} ")), "{overview}");
        let (usage, _) = help(cli, &[command, "--help"]);
        assert!(
            usage.starts_with(&format!("usage: graphpi-cli {command}")),
            "{usage}"
        );
        assert!(usage.contains(a_flag), "{usage}");
    }
    let (usage, _) = help(env!("CARGO_BIN_EXE_graphpi-server"), &["--help"]);
    assert!(
        usage.starts_with("usage: graphpi-server --graph <path> ["),
        "{usage}"
    );
    assert!(usage.contains("--replica-of"), "{usage}");
}

/// Request IDs are idempotency keys the server remembers. Two invocations
/// must never present the same one, or the second is answered from the
/// first one's ledger entry: a stale count, a mutation silently dropped.
#[test]
fn separate_invocations_never_replay_each_others_requests() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("graphpi_cli_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // A path 0-1-2-3; inserting 0-2 closes the one triangle.
    std::fs::write(path("g.txt"), "0 1\n1 2\n2 3\n").unwrap();
    std::fs::write(path("insert.txt"), "+ 0 2\n").unwrap();
    std::fs::write(path("delete.txt"), "- 0 2\n").unwrap();
    let mut server = Command::new(env!("CARGO_BIN_EXE_graphpi-server"))
        .args(["--graph", &path("g.txt"), "--wal", &path("g.wal")])
        .args(["--listen", "127.0.0.1:0", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graphpi-server");
    let mut banner = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap()
        .to_string();
    let remote = |extra: &[&str]| {
        let output = run(&[&["remote", "--addr", &addr], extra].concat());
        assert!(output.status.success(), "{extra:?}: {}", stderr_of(&output));
        stdout_of(&output)
    };
    for retries in ["1", "3"] {
        let count = |expected: &str| {
            let stdout = remote(&["--pattern", "triangle", "--retries", retries]);
            assert!(stdout.contains(expected), "--retries {retries}: {stdout}");
        };
        count("triangle: 0 embeddings");
        let stdout = remote(&["--mutate", &path("insert.txt"), "--retries", retries]);
        assert!(stdout.contains("+1 -0 edges"), "{stdout}");
        count("triangle: 1 embeddings");
        let stdout = remote(&["--mutate", &path("delete.txt"), "--retries", retries]);
        assert!(stdout.contains("+0 -1 edges"), "{stdout}");
    }
    remote(&["--shutdown"]);
    server.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
