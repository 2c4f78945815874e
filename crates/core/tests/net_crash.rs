//! Graceful shutdown, out of process: this test shells the real
//! `graphpi-server` binary, sends it a real SIGTERM, and verifies that the
//! signal drains exactly like the SHUTDOWN opcode (exit status 0) and that
//! a restarted process answers bit-identically.

#![cfg(unix)]

use graphpi_core::net::Client;
use graphpi_graph::generators;
use graphpi_pattern::prefab;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A per-test scratch directory with a real graph file in it.
fn scratch(label: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("graphpi_crash_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.txt");
    let graph = generators::power_law(150, 5, 73);
    let mut text = String::new();
    for (u, v) in graph.edges() {
        if u < v {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(&graph_path, text).unwrap();
    (dir, graph_path)
}

/// A spawned `graphpi-server` child plus the address it bound.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the real server binary and blocks until it prints its
    /// `listening on <addr>` line.
    fn spawn(graph: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_graphpi-server"))
            .arg("--graph")
            .arg(graph)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--threads")
            .arg("2")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn graphpi-server");
        let stdout = child.stdout.take().expect("captured stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected server banner: {line}"))
            .parse()
            .expect("parse listen address");
        Self { child, addr }
    }

    fn client(&self) -> Client {
        // The listener is up before the banner prints, so this connects
        // first try.
        Client::connect(self.addr).expect("connect to spawned server")
    }

    /// SIGTERM, then wait for the graceful exit.
    fn terminate(&mut self) -> std::process::ExitStatus {
        Command::new("kill")
            .arg("-TERM")
            .arg(self.child.id().to_string())
            .status()
            .expect("send SIGTERM");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll the server") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "SIGTERM did not drain the server"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn sigterm_drains_gracefully_and_a_restart_answers_identically() {
    let (dir, graph) = scratch("sigterm");

    let mut server = ServerProcess::spawn(&graph);
    let first_house = server.client().count(&prefab::house()).unwrap().count;
    let status = server.terminate();
    assert!(
        status.success(),
        "SIGTERM drain must exit cleanly: {status}"
    );

    // A fresh process re-plans on first use and answers bit-identically.
    let mut restarted = ServerProcess::spawn(&graph);
    {
        let mut client = restarted.client();
        assert_eq!(client.count(&prefab::house()).unwrap().count, first_house);
        let stats = client.stats().unwrap();
        assert_eq!((stats.cache_misses, stats.warm_started), (1, 0));
        client.shutdown_server().unwrap();
    }
    assert!(restarted.child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
