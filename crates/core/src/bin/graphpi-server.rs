//! The GraphPi network server binary.
//!
//! ```text
//! graphpi-server --graph edges.txt [--listen 127.0.0.1:7431] [--wal graph.wal]
//! graphpi-server --help          # every flag, its default and what it does
//! ```
//!
//! Loads the data graph once (text edge list or the checksummed binary
//! format, auto-sniffed; binary opens zero-copy via mmap), binds the
//! listener, prints one `listening on <addr>` line to stdout, and serves
//! the wire protocol documented in `docs/protocol.md` until a client sends
//! the `SHUTDOWN` opcode or the process receives SIGTERM/SIGINT. Both
//! shutdown paths are graceful: new connections are refused, in-flight
//! queries finish and their replies are delivered. The plan cache lives in
//! memory only; a restarted server re-plans each pattern on its first query.
//!
//! With `--wal <path>` the graph is **mutable and durable**: the
//! `UPDATE` opcode commits edge batches that are fsync'd to the
//! write-ahead log before they become visible, queries pin generation
//! snapshots, and a restart with the same `--graph` and `--wal` replays
//! the log back to a bit-identical graph (see the module docs of
//! `graphpi_graph::wal`). Without `--wal` the graph is immutable and
//! updates are refused with the `ReadOnly` error code.
//! `--checkpoint-interval-ms N` runs a background maintenance thread
//! that periodically folds the WAL into a checkpoint and compacts the
//! delta overlay, off the committing thread.
//!
//! With `--replica-of <addr>` (requires `--wal`) the server starts as a
//! **read replica**: it subscribes to the primary's replicated WAL
//! stream, applies every committed batch through its own durable engine
//! (so the replica is itself crash-safe), answers `COUNT`/`STATS`/
//! `HEALTH` (reporting its role and replication lag), and refuses
//! `UPDATE` with `NOT_PRIMARY` carrying the primary's address. `SIGUSR1`
//! or the `PROMOTE` opcode (`graphpi-cli promote`) promotes it: the
//! subscription is sealed and the server flips to read-write primary.

mod common;

use common::{flag, load_graph, GraphFormat, Kind, Spec, U64, USIZE, WORKERS};
use graphpi_core::config::{PoolOptions, ServeOptions};
use graphpi_core::engine::GraphPi;
use graphpi_core::net::{run_replication, ReplState, Server};
use graphpi_core::DynamicEngine;
use graphpi_graph::DurableGraphOptions;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PATH: Kind = Kind::Str("<path>");
const ADDR: Kind = Kind::Str("<addr:port>");

#[rustfmt::skip] // one row per flag: name, kind, default, help
static SERVER: Spec = Spec {
    command: "graphpi-server",
    about: "Serves pattern-matching queries over one data graph (wire protocol: docs/protocol.md).\n\
            Prints `listening on <addr>` once ready; drains on SHUTDOWN, SIGTERM or SIGINT.",
    flags: &[
        flag("--graph",                  PATH,  "",               "data graph: edge list or `graphpi-cli convert` binary (sniffed)").required(),
        flag("--listen",                 ADDR,  "127.0.0.1:7431", "address to bind (port 0 picks a free one)"),
        flag("--threads",                WORKERS, "0",            "pool worker threads (0 = all cores)"),
        flag("--cache-capacity",         USIZE, "64",             "compiled plans the cache keeps"),
        flag("--max-in-flight",          WORKERS, "0",            "jobs the pool runs at once (0 = automatic)"),
        flag("--max-connections",        WORKERS, "64",           "connections served at once; more are refused"),
        flag("--queue-depth",            USIZE, "0",              "queries that may wait for admission before shedding (0 = automatic)"),
        flag("--wal",                    PATH,  "",               "write-ahead log: makes the graph mutable (UPDATE) and durable"),
        flag("--checkpoint-interval-ms", U64,   "0",              "fold the WAL into a checkpoint this often (needs --wal; 0 = off)"),
        flag("--replica-of",             ADDR,  "",               "start as a read replica of this primary (needs --wal)"),
    ],
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServerArgs {
    graph_path: String,
    listen: String,
    threads: usize,
    cache_capacity: usize,
    max_in_flight: usize,
    max_connections: usize,
    queue_depth: usize,
    wal: Option<String>,
    checkpoint_interval_ms: u64,
    replica_of: Option<String>,
}

fn parse_args(args: &[String]) -> Result<ServerArgs, String> {
    let parsed = SERVER.parse(args)?;
    let args = ServerArgs {
        graph_path: parsed.get("--graph"),
        listen: parsed.get("--listen"),
        threads: parsed.get("--threads"),
        cache_capacity: parsed.get("--cache-capacity"),
        max_in_flight: parsed.get("--max-in-flight"),
        max_connections: parsed.get("--max-connections"),
        queue_depth: parsed.get("--queue-depth"),
        wal: parsed.opt("--wal"),
        checkpoint_interval_ms: parsed.get("--checkpoint-interval-ms"),
        replica_of: parsed.opt("--replica-of"),
    };
    if args.wal.is_none() {
        let usage = SERVER.usage();
        if args.replica_of.is_some() {
            return Err(format!(
                "--replica-of needs --wal: the replica re-logs the stream it applies\n{usage}"
            ));
        }
        if args.checkpoint_interval_ms > 0 {
            return Err(format!(
                "--checkpoint-interval-ms needs --wal: only a durable graph checkpoints\n{usage}"
            ));
        }
    }
    Ok(args)
}

/// SIGTERM/SIGINT handling, in raw libc-less FFI (the same idiom as the
/// mmap loader). The handler itself only flips an atomic — the only
/// async-signal-safe thing it may do — and a watcher thread polls the
/// flag and triggers the normal graceful drain, so a plain `kill` gets
/// the exact same drain as the SHUTDOWN opcode.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);
    pub static PROMOTE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Release);
    }

    extern "C" fn on_promote(_signum: i32) {
        PROMOTE.store(true, Ordering::Release);
    }

    /// Installs the flag-flipping handlers: SIGTERM/SIGINT drain,
    /// SIGUSR1 requests a replica promotion.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGUSR1, on_promote as *const () as usize);
        }
    }

    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::Acquire)
    }

    pub fn promote_signalled() -> bool {
        PROMOTE.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn signalled() -> bool {
        false
    }
    pub fn promote_signalled() -> bool {
        false
    }
}

fn run(args: ServerArgs) -> Result<(), String> {
    let load_start = std::time::Instant::now();
    let graph = load_graph(&args.graph_path, GraphFormat::Auto)?;
    eprintln!(
        "graph: {} vertices, {} edges (loaded in {:?})",
        graph.num_vertices(),
        graph.num_edges(),
        load_start.elapsed()
    );
    // Open the serving engine: static (immutable) without --wal, durable
    // dynamic with it. The WAL opens before the listener binds, so
    // "listening on" is only printed once recovery has fully replayed.
    let mut static_engine = None;
    let mut dynamic_engine = None;
    match &args.wal {
        None => static_engine = Some(GraphPi::new(graph)),
        Some(wal_path) => {
            let (engine, recovery) =
                DynamicEngine::durable(graph, wal_path, DurableGraphOptions::default())
                    .map_err(|e| format!("failed to open WAL {wal_path}: {e}"))?;
            eprintln!(
                "wal: generation {} ({} batches replayed, checkpoint {}, {} torn bytes dropped)",
                recovery.generation,
                recovery.replayed_batches,
                if recovery.checkpoint_loaded {
                    "loaded"
                } else {
                    "absent"
                },
                recovery.truncated_bytes
            );
            dynamic_engine = Some(engine);
        }
    }

    let options = ServeOptions {
        pool: PoolOptions {
            threads: args.threads,
            cache_capacity: args.cache_capacity,
            max_in_flight: args.max_in_flight,
        },
        max_connections: args.max_connections,
        max_queue_depth: args.queue_depth,
        checkpoint_interval: (args.checkpoint_interval_ms > 0)
            .then(|| Duration::from_millis(args.checkpoint_interval_ms)),
        ..ServeOptions::default()
    };
    let server = Server::bind(&args.listen, options).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    // The one stdout line scripts wait for (the port matters when binding
    // to port 0).
    println!("listening on {addr}");
    eprintln!(
        "pool: {} workers, max {} jobs in flight, plan cache capacity {}",
        server.pool().threads(),
        server.pool().max_in_flight(),
        args.cache_capacity
    );

    signals::install();
    let watcher = std::thread::spawn(move || {
        while !signals::signalled() {
            if handle.is_draining() {
                // Drained by other means (SHUTDOWN opcode); stop watching.
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        eprintln!("signal received; draining");
        handle.shutdown();
    });

    let report = match (&static_engine, &dynamic_engine) {
        (Some(engine), _) => server.serve(engine).map_err(|e| e.to_string())?,
        (None, Some(engine)) => {
            let repl = match &args.replica_of {
                Some(primary) => {
                    eprintln!("replica: following primary {primary}");
                    ReplState::replica(primary)
                }
                None => ReplState::primary(),
            };
            let stop = AtomicBool::new(false);
            let result = std::thread::scope(|scope| {
                if let Some(primary) = &args.replica_of {
                    // The apply loop: subscribe, apply, reconnect, and
                    // (on SIGUSR1 or a PROMOTE frame) seal and flip.
                    let apply_repl = Arc::clone(&repl);
                    let stop = &stop;
                    scope.spawn(move || {
                        let report = run_replication(primary.as_str(), engine, &apply_repl, stop);
                        eprintln!(
                            "replication: {} batches applied, {} checkpoints installed, \
                             {} reconnects{}",
                            report.batches_applied,
                            report.checkpoints_installed,
                            report.reconnects,
                            if report.promoted { "; promoted" } else { "" }
                        );
                    });
                    // SIGUSR1 cannot touch the shared state from the
                    // handler; this poller forwards it as a promote
                    // request the apply loop observes between frames.
                    let signal_repl = Arc::clone(&repl);
                    scope.spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            if signals::promote_signalled() {
                                signal_repl.request_promote();
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    });
                }
                let result = server.serve_dynamic_with_repl(engine, Arc::clone(&repl));
                stop.store(true, Ordering::Release);
                result
            });
            result.map_err(|e| e.to_string())?
        }
        (None, None) => unreachable!("one engine is always constructed"),
    };
    let _ = watcher.join();
    eprintln!(
        "drained: {} connections, {} queries, {} updates",
        report.connections, report.queries, report.updates
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if common::wants_help(&args) {
        println!("{}", SERVER.help());
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_invocation() {
        let args = parse_args(&strings(&[
            "--graph",
            "g.txt",
            "--listen",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--cache-capacity",
            "16",
            "--max-in-flight",
            "2",
            "--max-connections",
            "8",
            "--queue-depth",
            "5",
            "--wal",
            "graph.wal",
            "--checkpoint-interval-ms",
            "400",
            "--replica-of",
            "127.0.0.1:7431",
        ]))
        .unwrap();
        assert_eq!(args.graph_path, "g.txt");
        assert_eq!(args.listen, "0.0.0.0:9000");
        assert_eq!(args.threads, 4);
        assert_eq!(args.cache_capacity, 16);
        assert_eq!(args.max_in_flight, 2);
        assert_eq!(args.max_connections, 8);
        assert_eq!(args.queue_depth, 5);
        assert_eq!(args.wal.as_deref(), Some("graph.wal"));
        assert_eq!(args.checkpoint_interval_ms, 400);
        assert_eq!(args.replica_of.as_deref(), Some("127.0.0.1:7431"));
    }

    #[test]
    fn defaults_and_errors() {
        let args = parse_args(&strings(&["--graph", "g.txt"])).unwrap();
        assert_eq!(args.listen, "127.0.0.1:7431");
        assert_eq!(args.threads, 0);
        assert_eq!(args.cache_capacity, 64);
        assert_eq!(args.queue_depth, 0);
        assert!(args.wal.is_none());
        assert_eq!(args.checkpoint_interval_ms, 0);
        assert!(args.replica_of.is_none());
        // Replication and background checkpointing both need a WAL.
        assert!(
            parse_args(&strings(&["--graph", "g", "--replica-of", "h:1"])).is_err(),
            "--replica-of without --wal"
        );
        assert!(parse_args(&strings(&[
            "--graph",
            "g",
            "--checkpoint-interval-ms",
            "100"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--graph",
            "g",
            "--wal",
            "w",
            "--replica-of",
            "h:1",
            "--checkpoint-interval-ms",
            "100",
        ]))
        .is_ok());
        assert!(parse_args(&strings(&[])).is_err(), "--graph is required");
        assert!(parse_args(&strings(&["--graph"])).is_err());
        assert!(parse_args(&strings(&["--graph", "g", "--wal"])).is_err());
        assert!(parse_args(&strings(&["--graph", "g", "--threads", "x"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn every_row_of_the_flag_table_parses_and_refuses_as_declared() {
        common::testing::check_rows(&SERVER);
    }

    /// The flags and defaults of the hand-written parser the table replaced.
    #[test]
    fn the_table_holds_exactly_the_flags_and_defaults_it_replaced() {
        let rows: Vec<(&str, &str)> = SERVER.flags.iter().map(|f| (f.name, f.default)).collect();
        let expected = [
            ("--graph", ""),
            ("--listen", "127.0.0.1:7431"),
            ("--threads", "0"),
            ("--cache-capacity", "64"),
            ("--max-in-flight", "0"),
            ("--max-connections", "64"),
            ("--queue-depth", "0"),
            ("--wal", ""),
            ("--checkpoint-interval-ms", "0"),
            ("--replica-of", ""),
        ];
        assert_eq!(rows, expected);
    }
}
