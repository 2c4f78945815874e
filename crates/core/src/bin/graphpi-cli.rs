//! Command-line front end for the GraphPi engine.
//!
//! ```text
//! graphpi-cli stats   --graph edges.txt
//! graphpi-cli plan    --graph edges.txt --pattern p3
//! graphpi-cli count   --graph edges.txt --pattern house [--threads 8] [--no-iep] [--hubs] [--list 5]
//! graphpi-cli count   --graph graph.bin --format binary --pattern house --repeat 50 --session
//! graphpi-cli convert edges.txt graph.bin
//! graphpi-cli update  --graph edges.txt --wal graph.wal --insert 0 9 --delete 3 4 [--ops ops.txt]
//! graphpi-cli remote  --addr 127.0.0.1:7431 --pattern house --clients 4 --repeat 8 --stats
//! graphpi-cli remote  --addr 127.0.0.1:7431 --mutate ops.txt
//! ```
//!
//! Graphs load from a whitespace-separated edge list (`#`/`%` comments
//! allowed) or from the checksummed binary format written by `convert`
//! (`--format text|binary|auto`; `auto`, the default, sniffs the magic
//! bytes). Binary graphs open **zero-copy** via `mmap` where the platform
//! supports it — the fast path for repeated runs on large datasets.
//!
//! Patterns are named (`triangle`, `rectangle`, `house`, `cycle6tri`,
//! `p1`..`p6`, `cliqueK`, `cycleK`, `pathK`, `starK`) or given explicitly as
//! `adj:<0/1 adjacency matrix string>` in row-major order.
//!
//! `--repeat N` runs the count N times. Without `--session` every
//! iteration pays the full cold path (re-plan + spawn/join worker
//! threads); with `--session` the query runs on a persistent worker pool
//! with a compiled-plan cache, so iterations after the first are the warm
//! serving path. The reported cold/warm split is the amortization this
//! distinction buys.
//!
//! `--clients N` (requires `--session`) is the concurrent-load mode: N
//! client threads share one session and each runs `--repeat` queries
//! simultaneously, exercising the pool's multi-job scheduler. The report is
//! aggregate throughput plus the plan-cache counters (which must satisfy
//! hits + misses = total queries). `--max-in-flight N` caps how many of
//! those jobs the pool runs at once (0 = automatic); extra clients block,
//! which is the pool's backpressure.
//!
//! `--scalar-kernels` pins the sorted-set intersection kernels to the
//! portable scalar reference (process-wide) instead of the runtime-detected
//! SIMD family; counts are bit-identical either way.
//!
//! `--mode` selects what `count` computes: `count` (default, the exact
//! global count), `orbit` (per-vertex participation counts),
//! `sample` (a seeded Horvitz–Thompson estimate; `--sample-rate R` in
//! `(0, 1]`, default 0.1, and `--sample-seed N`, default 0 — the same
//! seed replays the same estimate), or `enumerate` (the embeddings
//! themselves, up to `--limit N`, default 100). The non-count modes run a
//! single query stream, so they reject `--clients`; `--list` stays the
//! count-mode preview.
//!
//! `remote` talks to a running `graphpi-server` over the wire protocol
//! (`docs/protocol.md`): `--pattern` counts remotely (`--clients N` opens N
//! concurrent connections, each running `--repeat` queries, and verifies
//! every observed count is bit-identical), `--stats` prints the server's
//! counters and latency histogram, `--ping` is a liveness probe,
//! `--probe-malformed` sends a garbage frame and verifies the server
//! answers with a typed error and keeps serving, and `--shutdown` asks the
//! server to drain gracefully. `--retries N` and `--backoff-ms N` run the
//! counts through the resilient retrying client (automatic reconnect,
//! request-ID idempotency, exponential backoff with jitter), and
//! `--chaos-seed N` additionally routes each connection through the
//! in-process seeded fault injector — a manual probe of the same machinery
//! the chaos tests drive.
//!
//! `remote --mode=orbit|sample` sends the same mode queries over the wire
//! (the `CountRequest` mode byte), and `remote --enumerate
//! --limit N` streams the embeddings themselves as paged `ENUM_PAGE`
//! frames (`--page-size` caps embeddings per page). Enumeration carries
//! no idempotency key: the retrying client re-issues it only while zero
//! pages have arrived.
//!
//! `remote --endpoints a,b,c` is the failover mode for a replicated
//! deployment: counts rotate across every endpoint (with read-your-writes
//! generation floors after a `--mutate`), writes route to the primary and
//! follow `NOT_PRIMARY` redirects, and the run ends with a `replication:`
//! summary (reads per endpoint, failovers, the worst replication lag any
//! endpoint reports). `promote --addr <replica>` asks a replica to become
//! the primary — the manual half of a failover drill.
//!
//! `chaos-proxy` runs the standalone byte-level fault-injecting TCP proxy
//! between real clients and a real server (prints one
//! `proxying on <addr>` line to stdout, then serves until killed).
//!
//! `update` commits edge batches to a **local** WAL-backed graph: the
//! base graph comes from `--graph`, the durable state from `--wal`
//! (created on first use, replayed on every run), and the batch from
//! repeated `--insert u v` / `--delete u v` flags and/or an `--ops` file
//! of `+ u v` / `- u v` lines (file order is preserved: an insert
//! following a delete starts a new batch, because within one batch all
//! inserts apply before all deletes). `remote --mutate <ops-file>` sends
//! the same ops format to a running `graphpi-server --wal`, split into
//! frame-sized batches, and prints the final generation.

use graphpi_core::codegen::{generate, Language};
use graphpi_core::config::PoolOptions;
use graphpi_core::engine::{CountOptions, GraphPi, Mode, Outcome, PlanOptions};
use graphpi_core::net::protocol::{self, LatencyHistogram};
use graphpi_core::net::{
    ChaosConfig, ChaosConnector, ChaosProxy, Client, CountExt, FailoverClient, NetError, QueryMode,
    RemoteCountOptions, RemoteEnumerateOptions, RemoteEnumeration, RemoteUpdateOptions,
    RetryPolicy, RetryStats, RetryingClient, Transport, UpdateOk,
};
use graphpi_graph::csr::CsrGraph;
use graphpi_graph::wal::DurableGraph;
use graphpi_graph::DurableGraphOptions;
use graphpi_graph::{io, vertex_set, EdgeBatch};
use graphpi_pattern::{prefab, Pattern};
use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

/// How to interpret the `--graph` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphFormat {
    /// Sniff the magic bytes: binary if they match, else text.
    Auto,
    /// Whitespace-separated edge list.
    Text,
    /// The checksummed binary format (opened zero-copy via mmap).
    Binary,
}

/// What the `count` command computes (`--mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CliMode {
    /// The exact global embedding count (the default).
    #[default]
    Count,
    /// Per-vertex orbit counts (how many embeddings each vertex joins).
    Orbit,
    /// A sampled Horvitz–Thompson estimate (`--sample-rate`, `--sample-seed`).
    Sample,
    /// The embeddings themselves, up to `--limit`.
    Enumerate,
}

/// Parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    command: Command,
    graph_path: String,
    format: GraphFormat,
    pattern: Option<String>,
    threads: usize,
    use_iep: bool,
    hub_bitsets: bool,
    scalar_kernels: bool,
    list: usize,
    repeat: usize,
    session: bool,
    clients: usize,
    max_in_flight: usize,
    mode: CliMode,
    /// Subtree sampling probability for `--mode=sample` (in `(0, 1]`).
    sample_rate: f64,
    /// Sampling seed for `--mode=sample` (default 0: runs are reproducible
    /// unless a seed is given explicitly).
    sample_seed: u64,
    /// Embedding budget for `--mode=enumerate` (must be at least 1).
    limit: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Stats,
    Plan,
    Count,
    /// Convert an edge list into the binary format (`input` → `output`).
    Convert {
        output: String,
    },
    /// Talk to a running `graphpi-server` over the wire protocol.
    Remote(RemoteArgs),
    /// Promote a running replica to primary.
    Promote {
        addr: String,
    },
    /// Run the byte-level fault-injecting TCP proxy.
    ChaosProxy(ChaosProxyArgs),
    /// Commit edge batches to a local WAL-backed graph.
    Update(UpdateArgs),
}

/// `update` subcommand invocation (the graph path and format live on
/// [`CliArgs`] like every other graph-loading command).
#[derive(Debug, Clone, PartialEq, Eq)]
struct UpdateArgs {
    wal: String,
    inserts: Vec<(u32, u32)>,
    deletes: Vec<(u32, u32)>,
    ops: Option<String>,
    checkpoint: bool,
}

/// `remote` subcommand invocation: which server to talk to and what to do.
#[derive(Debug, Clone, PartialEq)]
struct RemoteArgs {
    addr: String,
    /// Failover mode: the replicated deployment's endpoint list
    /// (empty = classic single-address mode via `addr`).
    endpoints: Vec<String>,
    pattern: Option<String>,
    clients: usize,
    repeat: usize,
    no_iep: bool,
    hubs: bool,
    deadline_ms: u32,
    retries: u32,
    backoff_ms: u64,
    chaos_seed: Option<u64>,
    ping: bool,
    stats: bool,
    shutdown: bool,
    probe_malformed: bool,
    mutate: Option<String>,
    /// Remote count mode (`--mode=count|orbit|sample`; enumeration is the
    /// separate paged `--enumerate` request, not a count mode).
    mode: CliMode,
    sample_rate: f64,
    /// Sampling seed for `--mode=sample` (default 0, documented: the same
    /// seed replays the same estimate on an unchanged graph).
    sample_seed: u64,
    /// Stream embeddings (`ENUMERATE`/`ENUM_PAGE`) instead of counting.
    enumerate: bool,
    /// Embedding budget for `--enumerate`.
    limit: u64,
    /// Requested embeddings per page (0 = server default).
    page_size: u32,
}

/// `chaos-proxy` subcommand invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosProxyArgs {
    listen: String,
    upstream: String,
    seed: u64,
    stall_per_mille: u32,
    stall_ms: u64,
    reset_per_mille: u32,
    partial_per_mille: u32,
}

const USAGE: &str = "usage: graphpi-cli <stats|plan|count> --graph <path> \
[--format auto|text|binary] [--pattern <name|adj:...>] [--threads N] [--no-iep] [--hubs] \
[--scalar-kernels] [--list N] [--repeat N] [--session] [--clients N] [--max-in-flight N] \
[--mode count|orbit|sample|enumerate] [--sample-rate R] [--sample-seed N (default 0)] [--limit N]\n\
       graphpi-cli convert <edge-list> <binary-out>\n\
       graphpi-cli update --graph <path> --wal <path> [--format auto|text|binary] \
[--insert U V]... [--delete U V]... [--ops <file>] [--checkpoint]\n\
       graphpi-cli remote [--addr host:port | --endpoints a,b,c] [--pattern <name>] \
[--clients N] [--repeat N] [--no-iep] [--hubs] [--deadline-ms N] [--retries N] [--backoff-ms N] \
[--chaos-seed N] [--ping] [--stats] [--probe-malformed] [--shutdown] [--mutate <ops-file>] \
[--mode count|orbit|sample] [--sample-rate R] [--sample-seed N] \
[--enumerate] [--limit N] [--page-size N]\n\
       graphpi-cli promote [--addr host:port]\n\
       graphpi-cli chaos-proxy --upstream host:port [--listen host:port] [--seed N] \
[--stall-per-mille N] [--stall-ms N] [--reset-per-mille N] [--partial-per-mille N]";

/// A [`CliArgs`] with every count-path knob at its default — the shape
/// the non-counting subcommands (convert, update, remote, ...) return.
fn base_args(command: Command, graph_path: String, format: GraphFormat) -> CliArgs {
    CliArgs {
        command,
        graph_path,
        format,
        pattern: None,
        threads: 0,
        use_iep: true,
        hub_bitsets: false,
        scalar_kernels: false,
        list: 0,
        repeat: 1,
        session: false,
        clients: 1,
        max_in_flight: 0,
        mode: CliMode::Count,
        sample_rate: DEFAULT_SAMPLE_RATE,
        sample_seed: 0,
        limit: DEFAULT_ENUM_LIMIT,
    }
}

/// Default subtree sampling probability for `--mode=sample`.
const DEFAULT_SAMPLE_RATE: f64 = 0.1;
/// Default embedding budget for `--mode=enumerate`.
const DEFAULT_ENUM_LIMIT: u64 = 100;

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    // `--flag=value` is sugar for `--flag value`, everywhere a flag takes
    // a value (`--mode=enumerate` reads better than `--mode enumerate`).
    let expanded: Vec<String> = args
        .iter()
        .flat_map(|arg| {
            match arg
                .strip_prefix("--")
                .and_then(|stripped| stripped.split_once('='))
            {
                Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
                None => vec![arg.clone()],
            }
        })
        .collect();
    let args = &expanded;
    let mut iter = args.iter();
    let command = match iter.next().map(String::as_str) {
        Some("stats") => Command::Stats,
        Some("plan") => Command::Plan,
        Some("count") => Command::Count,
        Some("convert") => {
            let input = iter
                .next()
                .ok_or(format!("convert needs <edge-list> <binary-out>\n{USAGE}"))?;
            let output = iter
                .next()
                .ok_or(format!("convert needs <edge-list> <binary-out>\n{USAGE}"))?;
            if let Some(extra) = iter.next() {
                return Err(format!("unexpected argument {extra:?}\n{USAGE}"));
            }
            return Ok(base_args(
                Command::Convert {
                    output: output.clone(),
                },
                input.clone(),
                GraphFormat::Auto,
            ));
        }
        Some("chaos-proxy") => {
            let proxy = parse_chaos_proxy_args(iter.as_slice())?;
            return Ok(base_args(
                Command::ChaosProxy(proxy),
                String::new(),
                GraphFormat::Auto,
            ));
        }
        Some("update") => {
            let (graph_path, format, update) = parse_update_args(iter.as_slice())?;
            return Ok(base_args(Command::Update(update), graph_path, format));
        }
        Some("promote") => {
            let mut addr = "127.0.0.1:7431".to_string();
            let mut promote_iter = iter.clone();
            while let Some(flag) = promote_iter.next() {
                match flag.as_str() {
                    "--addr" => addr = promote_iter.next().ok_or("--addr needs a value")?.clone(),
                    other => return Err(format!("unknown flag {other}\n{USAGE}")),
                }
            }
            return Ok(base_args(
                Command::Promote { addr },
                String::new(),
                GraphFormat::Auto,
            ));
        }
        Some("remote") => {
            let remote = parse_remote_args(iter.as_slice())?;
            return Ok(base_args(
                Command::Remote(remote),
                String::new(),
                GraphFormat::Auto,
            ));
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    let mut graph_path = None;
    let mut format = GraphFormat::Auto;
    let mut pattern = None;
    let mut threads = 0usize;
    let mut use_iep = true;
    let mut hub_bitsets = false;
    let mut scalar_kernels = false;
    let mut list = 0usize;
    let mut repeat = 1usize;
    let mut session = false;
    let mut clients = 1usize;
    let mut max_in_flight = 0usize;
    let mut mode = CliMode::Count;
    let mut sample_rate: Option<f64> = None;
    let mut sample_seed: Option<u64> = None;
    let mut limit: Option<u64> = None;
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--graph" => graph_path = Some(iter.next().ok_or("--graph needs a value")?.clone()),
            "--format" => {
                format = match iter.next().ok_or("--format needs a value")?.as_str() {
                    "auto" => GraphFormat::Auto,
                    "text" => GraphFormat::Text,
                    "binary" => GraphFormat::Binary,
                    other => return Err(format!("unknown format {other:?} (auto|text|binary)")),
                }
            }
            "--pattern" => pattern = Some(iter.next().ok_or("--pattern needs a value")?.clone()),
            "--threads" => {
                threads = iter
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?
            }
            "--no-iep" => use_iep = false,
            "--hubs" => hub_bitsets = true,
            "--scalar-kernels" => scalar_kernels = true,
            "--session" => session = true,
            "--repeat" => {
                repeat = iter
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|_| "--repeat must be an integer".to_string())?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--list" => {
                list = iter
                    .next()
                    .ok_or("--list needs a value")?
                    .parse()
                    .map_err(|_| "--list must be an integer".to_string())?
            }
            "--clients" => {
                clients = iter
                    .next()
                    .ok_or("--clients needs a value")?
                    .parse()
                    .map_err(|_| "--clients must be an integer".to_string())?;
                if clients == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
            }
            "--max-in-flight" => {
                max_in_flight = iter
                    .next()
                    .ok_or("--max-in-flight needs a value")?
                    .parse()
                    .map_err(|_| "--max-in-flight must be an integer".to_string())?
            }
            "--mode" => {
                mode = parse_mode(iter.next().ok_or("--mode needs a value")?)?;
            }
            "--sample-rate" => {
                sample_rate = Some(parse_sample_rate(
                    iter.next().ok_or("--sample-rate needs a value")?,
                )?);
            }
            "--sample-seed" => {
                sample_seed = Some(
                    iter.next()
                        .ok_or("--sample-seed needs a value")?
                        .parse()
                        .map_err(|_| "--sample-seed must be an integer".to_string())?,
                );
            }
            "--limit" => {
                let value: u64 = iter
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "--limit must be an integer".to_string())?;
                if value == 0 {
                    return Err(
                        "--limit must be at least 1 (an empty enumeration is a no-op)".to_string(),
                    );
                }
                limit = Some(value);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let graph_path = graph_path.ok_or_else(|| format!("--graph is required\n{USAGE}"))?;
    if !matches!(command, Command::Stats) && pattern.is_none() {
        return Err(format!("--pattern is required for this command\n{USAGE}"));
    }
    if clients > 1 && !session {
        return Err("--clients requires --session (the concurrent-load mode \
                    runs on the shared session pool)"
            .to_string());
    }
    if max_in_flight > 0 && !session {
        return Err(
            "--max-in-flight requires --session (only the session pool schedules jobs)".to_string(),
        );
    }
    if mode != CliMode::Count {
        if command != Command::Count {
            return Err("--mode applies to the count command".to_string());
        }
        if clients > 1 {
            return Err(format!(
                "--clients is the count-mode concurrent-load harness; --mode={} runs a \
                 single query stream",
                mode_name(mode)
            ));
        }
        if list > 0 {
            return Err(
                "--list is the count-mode embedding preview; use --mode=enumerate --limit N \
                 to list embeddings"
                    .to_string(),
            );
        }
    }
    if mode != CliMode::Sample && (sample_rate.is_some() || sample_seed.is_some()) {
        return Err(
            "--sample-rate/--sample-seed only apply to --mode=sample (the other modes are exact)"
                .to_string(),
        );
    }
    if mode != CliMode::Enumerate && limit.is_some() {
        return Err("--limit only applies to --mode=enumerate".to_string());
    }
    Ok(CliArgs {
        command,
        graph_path,
        format,
        pattern,
        threads,
        use_iep,
        hub_bitsets,
        scalar_kernels,
        list,
        repeat,
        session,
        clients,
        max_in_flight,
        mode,
        sample_rate: sample_rate.unwrap_or(DEFAULT_SAMPLE_RATE),
        sample_seed: sample_seed.unwrap_or(0),
        limit: limit.unwrap_or(DEFAULT_ENUM_LIMIT),
    })
}

/// Parses a `--mode` value.
fn parse_mode(value: &str) -> Result<CliMode, String> {
    match value {
        "count" => Ok(CliMode::Count),
        "orbit" => Ok(CliMode::Orbit),
        "sample" => Ok(CliMode::Sample),
        "enumerate" => Ok(CliMode::Enumerate),
        other => Err(format!(
            "unknown mode {other:?} (count|orbit|sample|enumerate)"
        )),
    }
}

/// The `--mode` spelling of a [`CliMode`], for error messages.
fn mode_name(mode: CliMode) -> &'static str {
    match mode {
        CliMode::Count => "count",
        CliMode::Orbit => "orbit",
        CliMode::Sample => "sample",
        CliMode::Enumerate => "enumerate",
    }
}

/// Parses and range-checks a `--sample-rate` value.
fn parse_sample_rate(value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .parse()
        .map_err(|_| "--sample-rate must be a number".to_string())?;
    if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
        return Err("--sample-rate must be in (0, 1]".to_string());
    }
    Ok(rate)
}

/// Parses the flags after `remote`.
fn parse_remote_args(args: &[String]) -> Result<RemoteArgs, String> {
    let mut remote = RemoteArgs {
        addr: "127.0.0.1:7431".to_string(),
        endpoints: Vec::new(),
        pattern: None,
        clients: 1,
        repeat: 1,
        no_iep: false,
        hubs: false,
        deadline_ms: 0,
        retries: 1,
        backoff_ms: 10,
        chaos_seed: None,
        ping: false,
        stats: false,
        shutdown: false,
        probe_malformed: false,
        mutate: None,
        mode: CliMode::Count,
        sample_rate: DEFAULT_SAMPLE_RATE,
        sample_seed: 0,
        enumerate: false,
        limit: DEFAULT_ENUM_LIMIT,
        page_size: 0,
    };
    let mut sample_rate: Option<f64> = None;
    let mut sample_seed: Option<u64> = None;
    let mut limit: Option<u64> = None;
    let mut page_size: Option<u32> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => remote.addr = iter.next().ok_or("--addr needs a value")?.clone(),
            "--endpoints" => {
                remote.endpoints = iter
                    .next()
                    .ok_or("--endpoints needs a comma-separated address list")?
                    .split(',')
                    .map(str::trim)
                    .filter(|part| !part.is_empty())
                    .map(str::to_string)
                    .collect();
                if remote.endpoints.is_empty() {
                    return Err("--endpoints needs at least one address".to_string());
                }
            }
            "--pattern" => {
                remote.pattern = Some(iter.next().ok_or("--pattern needs a value")?.clone())
            }
            "--clients" => {
                remote.clients = iter
                    .next()
                    .ok_or("--clients needs a value")?
                    .parse()
                    .map_err(|_| "--clients must be an integer".to_string())?;
                if remote.clients == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
            }
            "--repeat" => {
                remote.repeat = iter
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|_| "--repeat must be an integer".to_string())?;
                if remote.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--deadline-ms" => {
                remote.deadline_ms = iter
                    .next()
                    .ok_or("--deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be an integer".to_string())?
            }
            "--retries" => {
                remote.retries = iter
                    .next()
                    .ok_or("--retries needs a value")?
                    .parse()
                    .map_err(|_| "--retries must be an integer".to_string())?;
                if remote.retries == 0 {
                    return Err("--retries must be at least 1 (the first attempt)".to_string());
                }
            }
            "--backoff-ms" => {
                remote.backoff_ms = iter
                    .next()
                    .ok_or("--backoff-ms needs a value")?
                    .parse()
                    .map_err(|_| "--backoff-ms must be an integer".to_string())?
            }
            "--chaos-seed" => {
                remote.chaos_seed = Some(
                    iter.next()
                        .ok_or("--chaos-seed needs a value")?
                        .parse()
                        .map_err(|_| "--chaos-seed must be an integer".to_string())?,
                )
            }
            "--mutate" => {
                remote.mutate = Some(iter.next().ok_or("--mutate needs a value")?.clone())
            }
            "--no-iep" => remote.no_iep = true,
            "--hubs" => remote.hubs = true,
            "--ping" => remote.ping = true,
            "--stats" => remote.stats = true,
            "--shutdown" => remote.shutdown = true,
            "--probe-malformed" => remote.probe_malformed = true,
            "--mode" => {
                remote.mode = parse_mode(iter.next().ok_or("--mode needs a value")?)?;
                if remote.mode == CliMode::Enumerate {
                    return Err(
                        "remote enumeration is the paged --enumerate request, not a --mode value"
                            .to_string(),
                    );
                }
            }
            "--sample-rate" => {
                sample_rate = Some(parse_sample_rate(
                    iter.next().ok_or("--sample-rate needs a value")?,
                )?);
            }
            "--sample-seed" => {
                sample_seed = Some(
                    iter.next()
                        .ok_or("--sample-seed needs a value")?
                        .parse()
                        .map_err(|_| "--sample-seed must be an integer".to_string())?,
                );
            }
            "--enumerate" => remote.enumerate = true,
            "--limit" => {
                let value: u64 = iter
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "--limit must be an integer".to_string())?;
                if value == 0 {
                    return Err(
                        "--limit must be at least 1 (an empty enumeration is a no-op)".to_string(),
                    );
                }
                limit = Some(value);
            }
            "--page-size" => {
                page_size = Some(
                    iter.next()
                        .ok_or("--page-size needs a value")?
                        .parse()
                        .map_err(|_| "--page-size must be an integer".to_string())?,
                );
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    remote.sample_rate = sample_rate.unwrap_or(DEFAULT_SAMPLE_RATE);
    remote.sample_seed = sample_seed.unwrap_or(0);
    remote.limit = limit.unwrap_or(DEFAULT_ENUM_LIMIT);
    remote.page_size = page_size.unwrap_or(0);
    if remote.enumerate {
        if remote.pattern.is_none() {
            return Err("--enumerate needs a --pattern to enumerate".to_string());
        }
        if remote.mode != CliMode::Count {
            return Err(format!(
                "--enumerate streams embeddings; it cannot combine with --mode={}",
                mode_name(remote.mode)
            ));
        }
        if remote.clients > 1 {
            return Err(
                "--enumerate streams one non-idempotent response; it cannot combine with \
                 --clients (each stream would race for the shared limit)"
                    .to_string(),
            );
        }
    }
    if remote.pattern.is_none()
        && remote.mutate.is_none()
        && !(remote.ping || remote.stats || remote.shutdown || remote.probe_malformed)
    {
        return Err(format!(
            "remote needs something to do: --pattern, --mutate, --ping, --stats, \
             --probe-malformed or --shutdown\n{USAGE}"
        ));
    }
    if remote.mode != CliMode::Sample && (sample_rate.is_some() || sample_seed.is_some()) {
        return Err(
            "--sample-rate/--sample-seed only apply to --mode=sample (the other modes are exact)"
                .to_string(),
        );
    }
    if !remote.enumerate && (limit.is_some() || page_size.is_some()) {
        return Err("--limit/--page-size only apply to --enumerate".to_string());
    }
    if remote.chaos_seed.is_some() && remote.retries == 1 {
        return Err(
            "--chaos-seed without --retries would fail on the first injected fault; \
             give the client retries (e.g. --retries 8)"
                .to_string(),
        );
    }
    if !remote.endpoints.is_empty() {
        // Failover mode drives counts and mutations through the
        // multi-endpoint client; the single-connection probes have no
        // meaningful target in a rotation.
        if remote.ping || remote.stats || remote.shutdown || remote.probe_malformed {
            return Err(
                "--endpoints is for counts and mutations; use --addr for --ping, --stats, \
                 --probe-malformed and --shutdown"
                    .to_string(),
            );
        }
        if remote.chaos_seed.is_some() {
            return Err(
                "--chaos-seed routes one address; it cannot combine with --endpoints".to_string(),
            );
        }
        if remote.clients > 1 {
            return Err(
                "--endpoints runs one failover client; drop --clients or use --addr".to_string(),
            );
        }
        if remote.enumerate {
            return Err(
                "--enumerate is non-idempotent and cannot fail over; use --addr".to_string(),
            );
        }
        if remote.mode != CliMode::Count {
            return Err(format!(
                "--mode={} is --addr territory; the failover client verifies exact counts",
                mode_name(remote.mode)
            ));
        }
    }
    Ok(remote)
}

/// Parses the flags after `update`.
fn parse_update_args(args: &[String]) -> Result<(String, GraphFormat, UpdateArgs), String> {
    let mut graph_path = None;
    let mut format = GraphFormat::Auto;
    let mut update = UpdateArgs {
        wal: String::new(),
        inserts: Vec::new(),
        deletes: Vec::new(),
        ops: None,
        checkpoint: false,
    };
    fn edge(flag: &str, iter: &mut std::slice::Iter<'_, String>) -> Result<(u32, u32), String> {
        let u = iter
            .next()
            .ok_or(format!("{flag} needs two vertex ids"))?
            .parse()
            .map_err(|_| format!("{flag} vertices must be integers"))?;
        let v = iter
            .next()
            .ok_or(format!("{flag} needs two vertex ids"))?
            .parse()
            .map_err(|_| format!("{flag} vertices must be integers"))?;
        Ok((u, v))
    }
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--graph" => graph_path = Some(iter.next().ok_or("--graph needs a value")?.clone()),
            "--wal" => update.wal = iter.next().ok_or("--wal needs a value")?.clone(),
            "--ops" => update.ops = Some(iter.next().ok_or("--ops needs a value")?.clone()),
            "--insert" => update.inserts.push(edge("--insert", &mut iter)?),
            "--delete" => update.deletes.push(edge("--delete", &mut iter)?),
            "--checkpoint" => update.checkpoint = true,
            "--format" => {
                format = match iter.next().ok_or("--format needs a value")?.as_str() {
                    "auto" => GraphFormat::Auto,
                    "text" => GraphFormat::Text,
                    "binary" => GraphFormat::Binary,
                    other => return Err(format!("unknown format {other:?} (auto|text|binary)")),
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let graph_path = graph_path.ok_or_else(|| format!("--graph is required\n{USAGE}"))?;
    if update.wal.is_empty() {
        return Err(format!("update requires --wal <path>\n{USAGE}"));
    }
    if update.inserts.is_empty()
        && update.deletes.is_empty()
        && update.ops.is_none()
        && !update.checkpoint
    {
        return Err(format!(
            "update needs something to commit: --insert, --delete, --ops or --checkpoint\n{USAGE}"
        ));
    }
    Ok((graph_path, format, update))
}

/// One mutation from an ops file: `true` = insert, `false` = delete.
type Op = (bool, (u32, u32));

/// One wire-sized batch: the insert list, then the delete list.
type OpBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Parses the `+ u v` / `- u v` ops format (`#`/`%` comments and blank
/// lines allowed), keeping file order.
fn parse_ops_text(text: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let insert = match parts.next() {
            Some("+") => true,
            Some("-") => false,
            _ => {
                return Err(format!(
                    "ops line {}: must be '+ u v' or '- u v', got {line:?}",
                    index + 1
                ))
            }
        };
        let mut vertex = || -> Result<u32, String> {
            parts
                .next()
                .ok_or(format!("ops line {}: missing vertex id", index + 1))?
                .parse()
                .map_err(|_| format!("ops line {}: vertex ids must be integers", index + 1))
        };
        let edge = (vertex()?, vertex()?);
        if parts.next().is_some() {
            return Err(format!("ops line {}: trailing tokens", index + 1));
        }
        ops.push((insert, edge));
    }
    Ok(ops)
}

/// Groups an ordered op sequence into batches that preserve its
/// semantics: within one batch all inserts apply before all deletes, so
/// an insert *following* a delete must start a new batch. `cap` bounds
/// the edges per batch (for the wire's frame limit); `usize::MAX` means
/// unbounded.
fn ops_to_batches(ops: &[Op], cap: usize) -> Vec<OpBatch> {
    let cap = cap.max(1);
    let mut batches = Vec::new();
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    let mut deletes: Vec<(u32, u32)> = Vec::new();
    for &(insert, edge) in ops {
        let full = inserts.len() + deletes.len() >= cap;
        let order_break = insert && !deletes.is_empty();
        if (full || order_break) && (!inserts.is_empty() || !deletes.is_empty()) {
            batches.push((std::mem::take(&mut inserts), std::mem::take(&mut deletes)));
        }
        if insert {
            inserts.push(edge);
        } else {
            deletes.push(edge);
        }
    }
    if !inserts.is_empty() || !deletes.is_empty() {
        batches.push((inserts, deletes));
    }
    batches
}

/// Runs the `update` subcommand: open (replay) the durable graph, commit
/// the requested batches, optionally checkpoint.
fn run_update(graph_path: &str, format: GraphFormat, args: &UpdateArgs) -> Result<(), String> {
    let graph = load_graph(graph_path, format)?;
    let (durable, recovery) = DurableGraph::open(graph, &args.wal, DurableGraphOptions::default())
        .map_err(|e| format!("failed to open WAL {}: {e}", args.wal))?;
    eprintln!(
        "wal: generation {} ({} batches replayed, checkpoint {})",
        recovery.generation,
        recovery.replayed_batches,
        if recovery.checkpoint_loaded {
            "loaded"
        } else {
            "absent"
        },
    );
    let mut ops: Vec<Op> = Vec::new();
    if let Some(path) = &args.ops {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ops.extend(parse_ops_text(&text)?);
    }
    ops.extend(args.inserts.iter().map(|&edge| (true, edge)));
    ops.extend(args.deletes.iter().map(|&edge| (false, edge)));
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    for (batch_inserts, batch_deletes) in ops_to_batches(&ops, usize::MAX) {
        let mut batch = EdgeBatch::new();
        for (u, v) in batch_inserts {
            batch.insert(u, v);
        }
        for (u, v) in batch_deletes {
            batch.delete(u, v);
        }
        let report = durable
            .commit(&batch)
            .map_err(|e| format!("commit failed: {e}"))?;
        inserted += u64::from(report.inserted);
        deleted += u64::from(report.deleted);
    }
    if args.checkpoint {
        let generation = durable
            .checkpoint()
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        eprintln!(
            "checkpoint: generation {generation} folded into {}",
            durable.checkpoint_path().display()
        );
    }
    let snapshot = durable.snapshot();
    println!(
        "committed: generation {}, +{inserted} -{deleted} edges ({} vertices, {} edges)",
        snapshot.generation(),
        snapshot.graph().num_vertices(),
        snapshot.graph().num_edges()
    );
    Ok(())
}

/// Parses the flags after `chaos-proxy`.
fn parse_chaos_proxy_args(args: &[String]) -> Result<ChaosProxyArgs, String> {
    let mut proxy = ChaosProxyArgs {
        listen: "127.0.0.1:0".to_string(),
        upstream: String::new(),
        seed: 0,
        stall_per_mille: 50,
        stall_ms: 2,
        reset_per_mille: 20,
        partial_per_mille: 20,
    };
    fn per_mille(name: &str, value: Option<&String>) -> Result<u32, String> {
        let value: u32 = value
            .ok_or(format!("{name} needs a value"))?
            .parse()
            .map_err(|_| format!("{name} must be an integer"))?;
        if value > 1000 {
            return Err(format!("{name} is per mille (0..=1000)"));
        }
        Ok(value)
    }
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--listen" => proxy.listen = iter.next().ok_or("--listen needs a value")?.clone(),
            "--upstream" => proxy.upstream = iter.next().ok_or("--upstream needs a value")?.clone(),
            "--seed" => {
                proxy.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--stall-ms" => {
                proxy.stall_ms = iter
                    .next()
                    .ok_or("--stall-ms needs a value")?
                    .parse()
                    .map_err(|_| "--stall-ms must be an integer".to_string())?
            }
            "--stall-per-mille" => {
                proxy.stall_per_mille = per_mille("--stall-per-mille", iter.next())?
            }
            "--reset-per-mille" => {
                proxy.reset_per_mille = per_mille("--reset-per-mille", iter.next())?
            }
            "--partial-per-mille" => {
                proxy.partial_per_mille = per_mille("--partial-per-mille", iter.next())?
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if proxy.upstream.is_empty() {
        return Err(format!(
            "chaos-proxy requires --upstream <host:port>\n{USAGE}"
        ));
    }
    Ok(proxy)
}

/// Resolves `host:port` to a socket address.
fn resolve_addr(addr: &str) -> Result<std::net::SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolved to no addresses"))
}

/// Runs the chaos proxy until the process is killed.
fn run_chaos_proxy(args: &ChaosProxyArgs) -> Result<(), String> {
    let upstream = resolve_addr(&args.upstream)?;
    let config = ChaosConfig {
        seed: args.seed,
        stall_per_mille: args.stall_per_mille,
        stall_ms: args.stall_ms,
        reset_per_mille: args.reset_per_mille,
        partial_write_per_mille: args.partial_per_mille,
        ..ChaosConfig::default()
    };
    let proxy = ChaosProxy::bind(&args.listen, upstream, config)
        .map_err(|e| format!("failed to bind {}: {e}", args.listen))?;
    let addr = proxy.local_addr().map_err(|e| e.to_string())?;
    // The one stdout line scripts wait for.
    println!("proxying on {addr}");
    eprintln!(
        "chaos: seed {} stall {}‰ x{}ms reset {}‰ partial {}‰ -> upstream {upstream}",
        args.seed,
        args.stall_per_mille,
        args.stall_ms,
        args.reset_per_mille,
        args.partial_per_mille
    );
    proxy.run().map_err(|e| e.to_string())
}

/// Sends two deliberately unacceptable frames — one with a corrupt magic,
/// one well-formed but carrying the retired protocol version 1 — each on
/// its own raw socket, and verifies the server answers with a typed error
/// (or cleanly drops the connection) and keeps serving afterwards.
fn probe_malformed(addr: &str) -> Result<(), String> {
    use std::io::Write;
    // Valid length prefix, corrupt magic: the server must not crash.
    let mut garbage = Vec::new();
    garbage.extend_from_slice(&8u32.to_le_bytes());
    garbage.extend_from_slice(b"XXxx\x01\x02\x03\x04");
    let mut v1_ping = protocol::Frame::new(protocol::op::PING, vec![]).encode();
    v1_ping[6] = 1;
    for (what, bytes) in [("malformed", garbage), ("protocol-v1", v1_ping)] {
        let mut stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("failed to connect to {addr}: {e}"))?;
        stream
            .write_all(&bytes)
            .map_err(|e| format!("probe write failed: {e}"))?;
        match protocol::read_frame(&mut stream) {
            Ok(frame) if frame.opcode == protocol::op::ERROR => {
                let detail = protocol::WireError::decode(&frame.payload)
                    .map(|e| e.code.to_string())
                    .unwrap_or_else(|| "undecodable".to_string());
                println!("probe: {what} frame answered with typed error ({detail})");
            }
            Ok(frame) => {
                return Err(format!(
                    "probe: unexpected reply opcode {:#04x} to a {what} frame",
                    frame.opcode
                ))
            }
            Err(NetError::Closed) => {
                println!("probe: {what} frame dropped the connection cleanly")
            }
            Err(e) => return Err(format!("probe: unexpected failure: {e}")),
        }
        // The server must still be alive for everyone else.
        Client::connect(addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("probe: server unreachable after the {what} frame: {e}"))?;
        println!("probe: server still answers ping after the {what} frame");
    }
    Ok(())
}

/// Prints a `STATS_OK` snapshot in human-readable form.
fn print_remote_stats(stats: &protocol::StatsOk) {
    println!(
        "server: {} live workers, {}/{} jobs in flight, {} queued, {} active-era connections",
        stats.live_workers,
        stats.in_flight,
        stats.max_in_flight,
        stats.queued,
        stats.connections_total
    );
    println!(
        "queries: {} executed, {} deadline-exceeded, {} protocol errors",
        stats.queries_total, stats.deadline_exceeded, stats.protocol_errors
    );
    if stats.enumerations_total > 0 {
        println!(
            "enumerations: {} streamed in {} page(s)",
            stats.enumerations_total, stats.pages_sent
        );
    }
    println!(
        "plan cache: {} hit(s) / {} miss(es), {} eviction(s), {}/{} plans, {} warm-started",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_len,
        stats.cache_capacity,
        stats.warm_started
    );
    if stats.latency.total() > 0 {
        let p50 = stats.latency.percentile_upper_bound_micros(0.50).unwrap();
        let p99 = stats.latency.percentile_upper_bound_micros(0.99).unwrap();
        println!(
            "latency: {} samples, p50 < {}us, p99 < {}us",
            stats.latency.total(),
            p50,
            p99
        );
        let buckets: Vec<String> = stats
            .latency
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, count)| {
                format!(
                    ">={}us: {count}",
                    LatencyHistogram::bucket_floor_micros(index)
                )
            })
            .collect();
        println!("latency histogram: {}", buckets.join("  "));
    }
}

/// Runs `remote --endpoints a,b,c`: mutations and counts through the
/// multi-endpoint failover client, with a `replication:` summary of
/// where the traffic landed and how far the replicas trail.
fn run_remote_failover(args: &RemoteArgs) -> Result<(), String> {
    let endpoints: Vec<std::net::SocketAddr> = args
        .endpoints
        .iter()
        .map(|addr| resolve_addr(addr))
        .collect::<Result<_, _>>()?;
    let policy = RetryPolicy {
        max_attempts: args.retries.max(2),
        initial_backoff: Duration::from_millis(args.backoff_ms),
        ..RetryPolicy::default()
    };
    // Read-your-writes on: counts after a mutation carry the committed
    // generation as a floor, so a lagging replica waits or sheds.
    let mut client = FailoverClient::connect(endpoints, policy, true);
    if let Some(ops_path) = &args.mutate {
        let text = std::fs::read_to_string(ops_path)
            .map_err(|e| format!("cannot read {ops_path}: {e}"))?;
        let ops = parse_ops_text(&text)?;
        let batches = ops_to_batches(&ops, protocol::MAX_UPDATE_EDGES);
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        let mut last: Option<UpdateOk> = None;
        for (ins, del) in &batches {
            let options = RemoteUpdateOptions {
                deadline_ms: args.deadline_ms,
                request_id: 0,
            };
            let ok = client
                .update_with(ins, del, options)
                .map_err(|e| format!("mutate failed: {e}"))?;
            inserted += u64::from(ok.inserted);
            deleted += u64::from(ok.deleted);
            last = Some(ok);
        }
        match last {
            Some(ok) => println!(
                "mutate: {} batch(es) applied, +{inserted} -{deleted} edges, generation {} \
                 (primary {})",
                batches.len(),
                ok.generation,
                client.primary_endpoint()
            ),
            None => println!("mutate: {ops_path} contained no operations"),
        }
    }
    if let Some(name) = &args.pattern {
        let pattern = resolve_pattern(name)?;
        // Non-count modes are rejected at parse time for --endpoints, so
        // the failover path always runs plain counts.
        let options = RemoteCountOptions {
            no_iep: args.no_iep,
            hub_bitsets: args.hubs,
            deadline_ms: args.deadline_ms,
            request_id: 0,
            min_generation: 0,
            mode: QueryMode::Count,
        };
        let start = std::time::Instant::now();
        let mut observed = Vec::with_capacity(args.repeat);
        for query in 0..args.repeat {
            // Reads are sticky per connection; rotating between queries
            // spreads the burst across the endpoint list.
            if query > 0 {
                client.rotate_reads();
            }
            let result = client
                .count_with(&pattern, options)
                .map_err(|e| format!("count failed: {e}"))?;
            observed.push(result.count);
        }
        let elapsed = start.elapsed();
        let first = observed[0];
        if observed.iter().any(|&c| c != first) {
            return Err("failover reads observed diverging counts".to_string());
        }
        println!(
            "remote count {name}: {first} embeddings  ({} queries across {} endpoint(s) in {:?})",
            observed.len(),
            client.endpoints().len(),
            elapsed
        );
    }
    // The summary line: who answered the reads, how often writes had to
    // re-route, and the worst replication lag any endpoint admits to.
    let stats = client.stats().clone();
    let reads: Vec<String> = client
        .endpoints()
        .iter()
        .zip(&stats.reads_per_endpoint)
        .map(|(addr, count)| format!("{addr}={count}"))
        .collect();
    let mut max_lag = 0u64;
    let mut unreachable = 0usize;
    for (_, health) in client.health_all() {
        match health {
            Some(health) => max_lag = max_lag.max(health.replication_lag),
            None => unreachable += 1,
        }
    }
    println!(
        "replication: reads [{}], {} failover(s) ({} redirected), max lag {} generation(s), \
         {} unreachable, primary {}",
        reads.join(" "),
        stats.failovers,
        stats.redirects,
        max_lag,
        unreachable,
        client.primary_endpoint()
    );
    Ok(())
}

/// Runs `promote`: asks the replica at `addr` to become primary.
fn run_promote(addr: &str) -> Result<(), String> {
    let ok = Client::connect(addr)
        .and_then(|mut c| c.promote())
        .map_err(|e| format!("promote failed: {e}"))?;
    println!(
        "promoted: {addr} is primary at generation {}",
        ok.generation
    );
    Ok(())
}

/// Runs the `remote` subcommand against a live `graphpi-server`.
fn run_remote(args: &RemoteArgs) -> Result<(), String> {
    if !args.endpoints.is_empty() {
        return run_remote_failover(args);
    }
    if args.probe_malformed {
        probe_malformed(&args.addr)?;
    }
    if args.ping {
        Client::connect(&args.addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("ping failed: {e}"))?;
        println!("ping: ok ({})", args.addr);
    }
    if let Some(ops_path) = &args.mutate {
        // Mutations run before any counting, so `--mutate ops.txt
        // --pattern house` counts the post-update graph.
        let text = std::fs::read_to_string(ops_path)
            .map_err(|e| format!("cannot read {ops_path}: {e}"))?;
        let ops = parse_ops_text(&text)?;
        let batches = ops_to_batches(&ops, protocol::MAX_UPDATE_EDGES);
        let options = RemoteUpdateOptions {
            deadline_ms: args.deadline_ms,
            request_id: 0,
        };
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        let mut last: Option<UpdateOk> = None;
        if args.retries > 1 {
            // The retrying client tags every batch with a request ID, so
            // a resend after an ambiguous failure replays from the
            // server's ledger instead of committing twice.
            let policy = RetryPolicy {
                max_attempts: args.retries,
                initial_backoff: Duration::from_millis(args.backoff_ms),
                ..RetryPolicy::default()
            };
            let mut client = RetryingClient::connect_tcp(resolve_addr(&args.addr)?, policy);
            for (ins, del) in &batches {
                let ok = client
                    .update_with(ins, del, options)
                    .map_err(|e| format!("mutate failed: {e}"))?;
                inserted += u64::from(ok.inserted);
                deleted += u64::from(ok.deleted);
                last = Some(ok);
            }
        } else {
            let mut client =
                Client::connect(&args.addr).map_err(|e| format!("mutate: connect failed: {e}"))?;
            for (ins, del) in &batches {
                let ok = client
                    .update_with(ins, del, options)
                    .map_err(|e| format!("mutate failed: {e}"))?;
                inserted += u64::from(ok.inserted);
                deleted += u64::from(ok.deleted);
                last = Some(ok);
            }
        }
        match last {
            Some(ok) => println!(
                "mutate: {} batch(es) applied, +{inserted} -{deleted} edges, generation {}",
                batches.len(),
                ok.generation
            ),
            None => println!("mutate: {ops_path} contained no operations"),
        }
    }
    if let Some(name) = &args.pattern {
        let pattern = resolve_pattern(name)?;
        if args.enumerate {
            run_remote_enumerate(args, name, &pattern)?;
        } else {
            run_remote_counts(args, name, &pattern)?;
        }
    }
    if args.stats {
        let stats = Client::connect(&args.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats failed: {e}"))?;
        print_remote_stats(&stats);
    }
    if args.shutdown {
        Client::connect(&args.addr)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("shutdown: server is draining");
    }
    Ok(())
}

/// The wire [`QueryMode`] a `remote` invocation's count requests carry.
fn remote_query_mode(args: &RemoteArgs) -> QueryMode {
    match args.mode {
        CliMode::Orbit => QueryMode::Orbit,
        CliMode::Sample => QueryMode::sample(args.sample_seed, args.sample_rate),
        _ => QueryMode::Count,
    }
}

/// Runs the remote counting loop (all `--mode`s; enumeration is
/// [`run_remote_enumerate`]): every client thread opens its own
/// connection and runs `--repeat` queries, and all observed headline
/// counts must be bit-identical — sample mode included, because a fixed
/// seed replays the same estimate on an unchanged graph.
fn run_remote_counts(args: &RemoteArgs, name: &str, pattern: &Pattern) -> Result<(), String> {
    let options = RemoteCountOptions {
        no_iep: args.no_iep,
        hub_bitsets: args.hubs,
        deadline_ms: args.deadline_ms,
        request_id: 0,
        min_generation: 0,
        mode: remote_query_mode(args),
    };
    // With --retries or --chaos-seed the counts run through the
    // resilient retrying client (which needs a resolved address for
    // its reconnect loop) instead of the plain one-shot client.
    let use_retry = args.retries > 1 || args.chaos_seed.is_some();
    let resolved = if use_retry {
        Some(resolve_addr(&args.addr)?)
    } else {
        None
    };
    let start = std::time::Instant::now();
    type ClientResult = Result<(Vec<u64>, CountExt, RetryStats), String>;
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client_index| {
                let addr = &args.addr;
                scope.spawn(move || {
                    let mut observed = Vec::with_capacity(args.repeat);
                    let mut ext = CountExt::None;
                    if let Some(resolved) = resolved {
                        let policy = RetryPolicy {
                            max_attempts: args.retries,
                            initial_backoff: Duration::from_millis(args.backoff_ms),
                            ..RetryPolicy::default()
                        }
                        .with_seed(client_index as u64);
                        let mut client = match args.chaos_seed {
                            Some(seed) => {
                                let config = ChaosConfig::gentle(seed ^ client_index as u64);
                                let connector = ChaosConnector::new(resolved, config);
                                RetryingClient::new(
                                    move || {
                                        let transport = connector.connect()?;
                                        Ok(Box::new(transport) as Box<dyn Transport + Send>)
                                    },
                                    policy,
                                )
                            }
                            None => RetryingClient::connect_tcp(resolved, policy),
                        };
                        for _ in 0..args.repeat {
                            let result = client
                                .count_with(pattern, options)
                                .map_err(|e| format!("client {client_index}: {e}"))?;
                            observed.push(result.count);
                            ext = result.ext;
                        }
                        Ok((observed, ext, client.stats()))
                    } else {
                        let mut client = Client::connect(addr)
                            .map_err(|e| format!("client {client_index}: connect: {e}"))?;
                        for _ in 0..args.repeat {
                            let result = client
                                .count_with(pattern, options)
                                .map_err(|e| format!("client {client_index}: {e}"))?;
                            observed.push(result.count);
                            ext = result.ext;
                        }
                        Ok((observed, ext, RetryStats::default()))
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("remote client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all_counts = Vec::new();
    let mut mode_ext = CountExt::None;
    let mut retry = RetryStats::default();
    for result in results {
        let (counts, ext, stats) = result?;
        all_counts.extend(counts);
        if !matches!(ext, CountExt::None) {
            mode_ext = ext;
        }
        retry.attempts += stats.attempts;
        retry.connects += stats.connects;
        retry.retries += stats.retries;
        retry.hints_honored += stats.hints_honored;
    }
    let first = all_counts[0];
    if all_counts.iter().any(|&c| c != first) {
        return Err("remote clients observed diverging counts".to_string());
    }
    let queries = all_counts.len() as u32;
    println!(
        "remote count {name}: {first} embeddings  ({queries} queries x{} client(s) in {:?}, \
         {:.0} queries/s)",
        args.clients,
        elapsed,
        f64::from(queries) / elapsed.as_secs_f64()
    );
    match mode_ext {
        CountExt::None => {}
        CountExt::Orbit(orbit) => println!(
            "orbit: counts sum {} across {} participating vertices, max {} at vertex {}",
            orbit.sum, orbit.nonzero_vertices, orbit.max_count, orbit.max_vertex
        ),
        CountExt::Sample(sample) => println!(
            "sample: estimate {:.1} +- {:.1} stderr (seed {}, rate {}, {}/{} tasks sampled)",
            f64::from_bits(sample.estimate_bits),
            f64::from_bits(sample.stderr_bits),
            args.sample_seed,
            args.sample_rate,
            sample.sampled_tasks,
            sample.total_tasks
        ),
    }
    if use_retry {
        println!(
            "resilience: {} attempts, {} connects, {} retries, {} server hints honored",
            retry.attempts, retry.connects, retry.retries, retry.hints_honored
        );
    }
    Ok(())
}

/// Runs `remote --enumerate`: one paged `ENUMERATE` stream (non-idempotent
/// — retried automatically only while zero pages have arrived), printing a
/// short embedding preview and the page/total summary.
fn run_remote_enumerate(args: &RemoteArgs, name: &str, pattern: &Pattern) -> Result<(), String> {
    let options = RemoteEnumerateOptions {
        hub_bitsets: args.hubs,
        deadline_ms: args.deadline_ms,
        page_size: args.page_size,
    };
    let start = std::time::Instant::now();
    let result: RemoteEnumeration = if args.retries > 1 || args.chaos_seed.is_some() {
        let resolved = resolve_addr(&args.addr)?;
        let policy = RetryPolicy {
            max_attempts: args.retries,
            initial_backoff: Duration::from_millis(args.backoff_ms),
            ..RetryPolicy::default()
        };
        let mut client = match args.chaos_seed {
            Some(seed) => {
                let config = ChaosConfig::gentle(seed);
                let connector = ChaosConnector::new(resolved, config);
                RetryingClient::new(
                    move || {
                        let transport = connector.connect()?;
                        Ok(Box::new(transport) as Box<dyn Transport + Send>)
                    },
                    policy,
                )
            }
            None => RetryingClient::connect_tcp(resolved, policy),
        };
        client
            .enumerate_with(pattern, args.limit, options)
            .map_err(|e| format!("enumerate failed: {e}"))?
    } else {
        let mut client =
            Client::connect(&args.addr).map_err(|e| format!("enumerate: connect failed: {e}"))?;
        client
            .enumerate_with(pattern, args.limit, options)
            .map_err(|e| format!("enumerate failed: {e}"))?
    };
    let elapsed = start.elapsed();
    const PREVIEW: usize = 5;
    for embedding in result.embeddings.iter().take(PREVIEW) {
        println!("  {embedding:?}");
    }
    if result.embeddings.len() > PREVIEW {
        println!("  ... {} more", result.embeddings.len() - PREVIEW);
    }
    println!(
        "remote enumerate {name}: {} embeddings in {} page(s) (limit {}) in {elapsed:?}",
        result.embeddings.len(),
        result.pages,
        args.limit
    );
    Ok(())
}

/// Resolves a pattern name (or `adj:` string, or `cliqueK`/`cycleK`/...).
fn resolve_pattern(name: &str) -> Result<Pattern, String> {
    let lower = name.to_ascii_lowercase();
    if let Some(matrix) = lower.strip_prefix("adj:") {
        return std::panic::catch_unwind(|| Pattern::from_adjacency_string(matrix))
            .map_err(|_| format!("invalid adjacency string {matrix:?}"));
    }
    let sized = |prefix: &str| -> Option<usize> {
        lower
            .strip_prefix(prefix)
            .and_then(|rest| rest.parse::<usize>().ok())
    };
    if let Some(k) = sized("clique") {
        return Ok(prefab::clique(k));
    }
    if let Some(k) = sized("cycle") {
        return Ok(prefab::cycle_pattern(k));
    }
    if let Some(k) = sized("path") {
        return Ok(prefab::path_pattern(k));
    }
    if let Some(k) = sized("star") {
        return Ok(prefab::star_pattern(k));
    }
    match lower.as_str() {
        "triangle" => Ok(prefab::triangle()),
        "rectangle" | "square" => Ok(prefab::rectangle()),
        "house" => Ok(prefab::house()),
        "cycle6tri" | "cycle-6-tri" => Ok(prefab::cycle_6_tri()),
        "p1" => Ok(prefab::p1()),
        "p2" => Ok(prefab::p2()),
        "p3" => Ok(prefab::p3()),
        "p4" => Ok(prefab::p4()),
        "p5" => Ok(prefab::p5()),
        "p6" => Ok(prefab::p6()),
        other => Err(format!(
            "unknown pattern {other:?}; use a named pattern, cliqueK/cycleK/pathK/starK, or adj:<matrix>"
        )),
    }
}

/// Loads the data graph honoring `--format` (binary opens zero-copy).
fn load_graph(path: &str, format: GraphFormat) -> Result<CsrGraph, String> {
    let binary = match format {
        GraphFormat::Binary => true,
        GraphFormat::Text => false,
        GraphFormat::Auto => io::sniff_is_binary(path),
    };
    if binary {
        io::load_binary_mmap(path).map_err(|e| format!("failed to load {path}: {e}"))
    } else {
        io::load_edge_list(path).map_err(|e| format!("failed to load {path}: {e}"))
    }
}

/// Runs `convert <edge-list> <binary-out>` and verifies the round trip.
fn run_convert(input: &str, output: &str) -> Result<(), String> {
    let start = std::time::Instant::now();
    let graph = load_graph(input, GraphFormat::Auto)?;
    let loaded = start.elapsed();
    io::save_binary(&graph, output).map_err(|e| format!("failed to write {output}: {e}"))?;
    // Re-open through the mmap path: proves the file round-trips before
    // anyone depends on it.
    let reopened =
        io::load_binary_mmap(output).map_err(|e| format!("verification reload failed: {e}"))?;
    if reopened != graph {
        return Err("verification reload produced a different graph".to_string());
    }
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    println!(
        "converted {} -> {} ({} vertices, {} edges, {} bytes, loaded in {:?})",
        input,
        output,
        graph.num_vertices(),
        graph.num_edges(),
        bytes,
        loaded,
    );
    Ok(())
}

fn run(args: CliArgs) -> Result<(), String> {
    if args.scalar_kernels {
        vertex_set::set_force_scalar(true);
    }
    if let Command::Convert { output } = &args.command {
        return run_convert(&args.graph_path, output);
    }
    if let Command::Remote(remote) = &args.command {
        return run_remote(remote);
    }
    if let Command::Promote { addr } = &args.command {
        return run_promote(addr);
    }
    if let Command::ChaosProxy(proxy) = &args.command {
        return run_chaos_proxy(proxy);
    }
    if let Command::Update(update) = &args.command {
        return run_update(&args.graph_path, args.format, update);
    }
    let load_start = std::time::Instant::now();
    let graph = load_graph(&args.graph_path, args.format)?;
    println!(
        "graph: {} vertices, {} edges ({}loaded in {:?})",
        graph.num_vertices(),
        graph.num_edges(),
        if graph.is_memory_mapped() {
            "mmap, "
        } else {
            ""
        },
        load_start.elapsed(),
    );
    let engine = GraphPi::new(graph);
    let stats = engine.stats();
    println!(
        "stats: triangles={} max_degree={} avg_degree={:.2} p1={:.3e} p2={:.3e}",
        stats.triangle_count, stats.max_degree, stats.avg_degree, stats.p1, stats.p2
    );
    if args.command == Command::Stats {
        return Ok(());
    }

    let pattern = resolve_pattern(args.pattern.as_deref().unwrap())?;
    let plan = engine
        .plan(&pattern, PlanOptions::default())
        .map_err(|e| e.to_string())?;
    println!(
        "plan: {} restriction sets x {} schedules -> {} candidates in {:?}",
        plan.restriction_sets_generated,
        plan.schedules_generated,
        plan.candidates_considered,
        plan.preprocessing_time
    );
    println!(
        "selected schedule {:?}, restrictions {:?}, predicted cost {:.3e}",
        plan.plan.config.schedule.order(),
        plan.plan.config.restrictions.restrictions(),
        plan.predicted_cost
    );
    if args.command == Command::Plan {
        println!("\n{}", generate(&plan.plan, Language::Cpp));
        return Ok(());
    }

    let count_options = CountOptions {
        use_iep: args.use_iep,
        threads: args.threads,
        prefix_depth: None,
        hub_bitsets: args.hub_bitsets,
        scalar_kernels: args.scalar_kernels,
    };
    println!("kernels: {}", vertex_set::active_kernel().name());
    if args.mode != CliMode::Count {
        return run_local_mode(&engine, &pattern, &args, count_options);
    }
    let mut timings: Vec<std::time::Duration> = Vec::with_capacity(args.repeat);
    let mut count = 0u64;
    if args.session {
        // Warm serving path: persistent pool + compiled-plan cache. The
        // first iteration pays planning (a cache miss); the rest are warm.
        let session = engine.session_with(
            PoolOptions {
                threads: args.threads,
                max_in_flight: args.max_in_flight,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            count_options,
        );
        if args.clients > 1 {
            // Concurrent-load mode: N clients share the session, each
            // running `repeat` queries as simultaneous jobs on the pool.
            // One cold query first so the comparison below is warm-path.
            let cold_start = std::time::Instant::now();
            count = session.count(&pattern).map_err(|e| e.to_string())?;
            let cold = cold_start.elapsed();
            let expected = count;
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for client in 0..args.clients {
                    let session = &session;
                    let pattern = &pattern;
                    scope.spawn(move || {
                        for _ in 0..args.repeat {
                            let got = session
                                .count(pattern)
                                .unwrap_or_else(|e| panic!("client {client}: {e}"));
                            assert_eq!(got, expected, "client {client} observed a diverging count");
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let queries = (args.clients * args.repeat) as u32;
            let stats = session.cache_stats();
            println!(
                "session: {} workers, max {} jobs in flight, plan cache {} hit(s) / {} miss(es)",
                session.pool().threads(),
                session.pool().max_in_flight(),
                stats.hits,
                stats.misses
            );
            println!(
                "clients x{}: cold {:?}; {} warm queries in {:?} -> {:.0} queries/s aggregate \
                 ({:?}/query)",
                args.clients,
                cold,
                queries,
                elapsed,
                queries as f64 / elapsed.as_secs_f64(),
                elapsed / queries,
            );
            debug_assert_eq!(stats.hits + stats.misses, u64::from(queries) + 1);
            println!("embeddings: {count}  (bit-identical across all clients)");
            return Ok(());
        }
        for _ in 0..args.repeat {
            let start = std::time::Instant::now();
            count = session.count(&pattern).map_err(|e| e.to_string())?;
            timings.push(start.elapsed());
        }
        let stats = session.cache_stats();
        println!(
            "session: {} workers, plan cache {} hit(s) / {} miss(es)",
            session.pool().threads(),
            stats.hits,
            stats.misses
        );
    } else {
        // Cold path: every iteration re-plans and spawns/joins a fresh set
        // of worker threads, like independent CLI invocations would.
        for _ in 0..args.repeat {
            let start = std::time::Instant::now();
            let iter_plan = engine
                .plan(&pattern, PlanOptions::default())
                .map_err(|e| e.to_string())?;
            count = engine.execute_count(&iter_plan.plan, count_options);
            timings.push(start.elapsed());
        }
    }
    println!("embeddings: {count}  ({:?})", timings[0]);
    if args.repeat > 1 {
        let rest = &timings[1..];
        let rest_min = rest.iter().min().expect("repeat > 1");
        let rest_avg = rest.iter().sum::<std::time::Duration>() / rest.len() as u32;
        if args.session {
            // Iterations after the first hit the plan cache and warm pool.
            println!(
                "repeat x{}: cold {:?}, warm avg {:?}, warm min {:?}",
                args.repeat, timings[0], rest_avg, rest_min
            );
        } else {
            // Every iteration re-plans and re-spawns: all cold.
            println!(
                "repeat x{}: first {:?}, avg {:?}, min {:?} (every iteration cold; use --session for the warm path)",
                args.repeat, timings[0], rest_avg, rest_min
            );
        }
    }
    if args.list > 0 {
        let embeddings = graphpi_core::exec::interp::list_embeddings(&plan.plan, engine.graph());
        for emb in embeddings.iter().take(args.list) {
            println!("  {emb:?}");
        }
    }
    Ok(())
}

/// Runs the non-count local execution modes (`--mode=orbit|sample|enumerate`).
///
/// Mode queries always run on a session (the pooled serving path): the
/// pool schedules them on its low-priority lane and the mode-plan cache
/// amortizes planning, which is exactly how a server would execute them.
fn run_local_mode(
    engine: &GraphPi,
    pattern: &Pattern,
    args: &CliArgs,
    count_options: CountOptions,
) -> Result<(), String> {
    let session = engine.session_with(
        PoolOptions {
            threads: args.threads,
            max_in_flight: args.max_in_flight,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        count_options,
    );
    let mode = match args.mode {
        CliMode::Count => Mode::Count,
        CliMode::Enumerate => Mode::Enumerate { limit: args.limit },
        CliMode::Orbit => Mode::Orbit,
        CliMode::Sample => Mode::Sample {
            rate: args.sample_rate,
            seed: args.sample_seed,
        },
    };
    let start = std::time::Instant::now();
    let outcome = session
        .run(pattern, mode, count_options)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    match outcome {
        Outcome::Count(count) => println!("embeddings: {count}  ({elapsed:?})"),
        Outcome::Embeddings(embeddings) => {
            for embedding in &embeddings {
                println!("  {embedding:?}");
            }
            let truncated = embeddings.len() as u64 >= args.limit;
            println!(
                "enumerated: {} embeddings (limit {}{}) in {elapsed:?}",
                embeddings.len(),
                args.limit,
                if truncated { ", truncated" } else { "" },
            );
        }
        Outcome::PerVertex(counts) => {
            let orbit = protocol::OrbitSummary::of(&counts);
            let size = pattern.num_vertices() as u64;
            println!(
                "orbit: counts sum {} = {size} x {} embeddings, {}/{} vertices \
                 participate, max {} at vertex {} ({elapsed:?})",
                orbit.sum,
                orbit.sum / size.max(1),
                orbit.nonzero_vertices,
                counts.len(),
                orbit.max_count,
                orbit.max_vertex,
            );
        }
        Outcome::Approx(approx) => println!(
            "sample: estimate {:.1} +- {:.1} stderr (rate {}, seed {}, {}/{} tasks sampled) \
             in {elapsed:?}",
            approx.estimate,
            approx.stderr,
            args.sample_rate,
            args.sample_seed,
            approx.sampled_tasks,
            approx.total_tasks
        ),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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

    fn temp_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphpi_cli_{label}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_count_invocation() {
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--threads",
            "4",
            "--no-iep",
            "--list",
            "3",
        ]))
        .unwrap();
        assert_eq!(args.command, Command::Count);
        assert_eq!(args.graph_path, "g.txt");
        assert_eq!(args.pattern.as_deref(), Some("house"));
        assert_eq!(args.threads, 4);
        assert!(!args.use_iep);
        assert_eq!(args.list, 3);
        assert_eq!(args.format, GraphFormat::Auto);
        assert!(!args.scalar_kernels);
    }

    #[test]
    fn parses_format_and_kernel_flags() {
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.bin",
            "--format",
            "binary",
            "--pattern",
            "house",
            "--scalar-kernels",
        ]))
        .unwrap();
        assert_eq!(args.format, GraphFormat::Binary);
        assert!(args.scalar_kernels);
        assert_eq!(
            parse_args(&strings(&["stats", "--graph", "g.txt", "--format", "text"]))
                .unwrap()
                .format,
            GraphFormat::Text
        );
        assert!(parse_args(&strings(&["stats", "--graph", "g.txt", "--format", "tsv"])).is_err());
    }

    #[test]
    fn parses_convert_invocation() {
        let args = parse_args(&strings(&["convert", "in.txt", "out.bin"])).unwrap();
        assert_eq!(args.graph_path, "in.txt");
        assert_eq!(
            args.command,
            Command::Convert {
                output: "out.bin".to_string()
            }
        );
        assert!(parse_args(&strings(&["convert", "in.txt"])).is_err());
        assert!(parse_args(&strings(&["convert", "a", "b", "c"])).is_err());
    }

    #[test]
    fn parses_repeat_and_session_flags() {
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--repeat",
            "20",
            "--session",
        ]))
        .unwrap();
        assert_eq!(args.repeat, 20);
        assert!(args.session);
        // Defaults: one iteration, no session.
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
        ]))
        .unwrap();
        assert_eq!(args.repeat, 1);
        assert!(!args.session);
        // Zero repeats is rejected.
        assert!(parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--repeat",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn parses_and_validates_clients_flags() {
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--session",
            "--clients",
            "4",
            "--max-in-flight",
            "2",
        ]))
        .unwrap();
        assert_eq!(args.clients, 4);
        assert_eq!(args.max_in_flight, 2);
        assert!(args.session);
        // Defaults.
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
        ]))
        .unwrap();
        assert_eq!(args.clients, 1);
        assert_eq!(args.max_in_flight, 0);
        // Zero clients and clients-without-session are rejected.
        for bad in [
            vec![
                "count",
                "--graph",
                "g.txt",
                "--pattern",
                "house",
                "--session",
                "--clients",
                "0",
            ],
            vec![
                "count",
                "--graph",
                "g.txt",
                "--pattern",
                "house",
                "--clients",
                "2",
            ],
            // --max-in-flight only means something on the session pool.
            vec![
                "count",
                "--graph",
                "g.txt",
                "--pattern",
                "house",
                "--max-in-flight",
                "2",
            ],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_mode_flags_and_equals_sugar() {
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=sample",
            "--sample-rate=0.25",
            "--sample-seed=7",
        ]))
        .unwrap();
        assert_eq!(args.mode, CliMode::Sample);
        assert_eq!(args.sample_rate, 0.25);
        assert_eq!(args.sample_seed, 7);
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode",
            "enumerate",
            "--limit",
            "12",
        ]))
        .unwrap();
        assert_eq!(args.mode, CliMode::Enumerate);
        assert_eq!(args.limit, 12);
        // Defaults: exact count; seed 0, rate 0.1 and limit 100 documented.
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
        ]))
        .unwrap();
        assert_eq!(args.mode, CliMode::Count);
        assert_eq!(args.sample_seed, 0);
        assert_eq!(args.sample_rate, DEFAULT_SAMPLE_RATE);
        assert_eq!(args.limit, DEFAULT_ENUM_LIMIT);
    }

    #[test]
    fn rejects_nonsensical_mode_combinations() {
        let base = ["count", "--graph", "g.txt", "--pattern", "house"];
        let rejected: &[(&[&str], &str)] = &[
            (&["--mode", "turbo"], "unknown mode"),
            (
                &["--mode=enumerate", "--limit", "0"],
                "--limit must be at least 1",
            ),
            (
                &["--mode=enumerate", "--session", "--clients", "2"],
                "single query stream",
            ),
            (
                &["--mode=enumerate", "--list", "3"],
                "--list is the count-mode",
            ),
            (
                &["--limit", "5"],
                "--limit only applies to --mode=enumerate",
            ),
            (&["--sample-rate", "0.5"], "only apply to --mode=sample"),
            (&["--sample-seed", "9"], "only apply to --mode=sample"),
            (
                &["--mode=sample", "--sample-rate", "0"],
                "--sample-rate must be in (0, 1]",
            ),
            (
                &["--mode=sample", "--sample-rate", "1.5"],
                "--sample-rate must be in (0, 1]",
            ),
            // `"nan"` parses as a float; the range check must still veto it.
            (
                &["--mode=sample", "--sample-rate", "nan"],
                "--sample-rate must be in (0, 1]",
            ),
        ];
        for (extra, needle) in rejected {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            let error = parse_args(&strings(&argv)).unwrap_err();
            assert!(error.contains(needle), "{argv:?}: {error}");
        }
        // --mode is a count-command flag.
        assert!(
            parse_args(&strings(&["stats", "--graph", "g.txt", "--mode", "orbit"]))
                .unwrap_err()
                .contains("--mode applies to the count command")
        );
    }

    #[test]
    fn parses_remote_mode_and_enumerate_flags() {
        let args = parse_args(&strings(&["remote", "--pattern", "house", "--mode=orbit"])).unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.mode, CliMode::Orbit);
        assert!(!remote.enumerate);
        let args = parse_args(&strings(&[
            "remote",
            "--pattern",
            "house",
            "--enumerate",
            "--limit",
            "64",
            "--page-size",
            "16",
        ]))
        .unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert!(remote.enumerate);
        assert_eq!(remote.limit, 64);
        assert_eq!(remote.page_size, 16);
        assert_eq!(remote.mode, CliMode::Count);
        for (argv, needle) in [
            (
                vec!["remote", "--pattern", "p1", "--mode=enumerate"],
                "paged --enumerate",
            ),
            (
                vec!["remote", "--enumerate"],
                "--enumerate needs a --pattern",
            ),
            (
                vec!["remote", "--pattern", "p1", "--enumerate", "--clients", "2"],
                "cannot combine with",
            ),
            (
                vec!["remote", "--pattern", "p1", "--enumerate", "--mode=orbit"],
                "cannot combine with --mode=orbit",
            ),
            (
                vec!["remote", "--pattern", "p1", "--enumerate", "--limit", "0"],
                "--limit must be at least 1",
            ),
            (
                vec!["remote", "--pattern", "p1", "--limit", "9"],
                "only apply to --enumerate",
            ),
            (
                vec!["remote", "--pattern", "p1", "--sample-seed", "3"],
                "only apply to --mode=sample",
            ),
            (
                vec![
                    "remote",
                    "--endpoints",
                    "h:1,h:2",
                    "--pattern",
                    "p1",
                    "--enumerate",
                ],
                "cannot fail over",
            ),
            (
                vec![
                    "remote",
                    "--endpoints",
                    "h:1,h:2",
                    "--pattern",
                    "p1",
                    "--mode=sample",
                ],
                "--addr territory",
            ),
        ] {
            let error = parse_args(&strings(&argv)).unwrap_err();
            assert!(error.contains(needle), "{argv:?}: {error}");
        }
    }

    #[test]
    fn session_repeat_end_to_end_on_a_temporary_graph() {
        // Unique per process so concurrent test runs on a shared machine
        // cannot race on the same file.
        let dir = temp_dir("session");
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n1 2\n0 2\n2 3\n1 3\n").unwrap();
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            path.to_str().unwrap(),
            "--pattern",
            "triangle",
            "--threads",
            "2",
            "--repeat",
            "3",
            "--session",
        ]))
        .unwrap();
        assert!(run(args).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parses_remote_invocation() {
        let args = parse_args(&strings(&[
            "remote",
            "--addr",
            "127.0.0.1:9000",
            "--pattern",
            "house",
            "--clients",
            "4",
            "--repeat",
            "8",
            "--deadline-ms",
            "250",
            "--no-iep",
            "--stats",
        ]))
        .unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.addr, "127.0.0.1:9000");
        assert_eq!(remote.pattern.as_deref(), Some("house"));
        assert_eq!(remote.clients, 4);
        assert_eq!(remote.repeat, 8);
        assert_eq!(remote.deadline_ms, 250);
        assert!(remote.no_iep);
        assert!(remote.stats);
        assert!(!remote.shutdown);

        // --mutate alone is an action.
        let parsed = parse_args(&strings(&["remote", "--mutate", "ops.txt"])).unwrap();
        let Command::Remote(remote) = parsed.command else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.mutate.as_deref(), Some("ops.txt"));

        // Action-free remote invocations are rejected; action flags alone
        // are fine (default address).
        assert!(parse_args(&strings(&["remote"])).is_err());
        assert!(parse_args(&strings(&["remote", "--addr", "h:1"])).is_err());
        for solo in ["--ping", "--stats", "--shutdown", "--probe-malformed"] {
            let parsed = parse_args(&strings(&["remote", solo])).unwrap();
            assert!(matches!(parsed.command, Command::Remote(_)), "{solo}");
        }
        assert!(parse_args(&strings(&["remote", "--clients", "0", "--ping"])).is_err());
        assert!(parse_args(&strings(&["remote", "--repeat", "0", "--ping"])).is_err());
        assert!(parse_args(&strings(&["remote", "--bogus"])).is_err());
    }

    #[test]
    fn parses_remote_resilience_flags() {
        let args = parse_args(&strings(&[
            "remote",
            "--pattern",
            "house",
            "--retries",
            "8",
            "--backoff-ms",
            "5",
            "--chaos-seed",
            "42",
        ]))
        .unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.retries, 8);
        assert_eq!(remote.backoff_ms, 5);
        assert_eq!(remote.chaos_seed, Some(42));
        // Defaults: one attempt, no chaos.
        let args = parse_args(&strings(&["remote", "--ping"])).unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.retries, 1);
        assert_eq!(remote.backoff_ms, 10);
        assert_eq!(remote.chaos_seed, None);
        // Zero retries is rejected; chaos without retries is rejected
        // (the first injected fault would fail the run).
        assert!(parse_args(&strings(&["remote", "--ping", "--retries", "0"])).is_err());
        assert!(parse_args(&strings(&["remote", "--ping", "--chaos-seed", "7"])).is_err());
    }

    #[test]
    fn parses_remote_endpoints_and_promote() {
        let args = parse_args(&strings(&[
            "remote",
            "--endpoints",
            "127.0.0.1:7431, 127.0.0.1:7432,127.0.0.1:7433",
            "--pattern",
            "house",
            "--repeat",
            "6",
        ]))
        .unwrap();
        let Command::Remote(remote) = args.command else {
            panic!("expected a remote command");
        };
        assert_eq!(
            remote.endpoints,
            vec!["127.0.0.1:7431", "127.0.0.1:7432", "127.0.0.1:7433"]
        );
        assert_eq!(remote.repeat, 6);
        // Mutate-only failover runs are fine.
        assert!(parse_args(&strings(&[
            "remote",
            "--endpoints",
            "h:1,h:2",
            "--mutate",
            "o"
        ]))
        .is_ok());
        // The single-connection probes, chaos injection and multi-client
        // mode are all --addr territory.
        for bad in [
            vec!["remote", "--endpoints", "h:1", "--ping"],
            vec!["remote", "--endpoints", "h:1", "--pattern", "p1", "--stats"],
            vec![
                "remote",
                "--endpoints",
                "h:1",
                "--pattern",
                "p1",
                "--shutdown",
            ],
            vec![
                "remote",
                "--endpoints",
                "h:1",
                "--pattern",
                "p1",
                "--probe-malformed",
            ],
            vec![
                "remote",
                "--endpoints",
                "h:1",
                "--pattern",
                "p1",
                "--retries",
                "4",
                "--chaos-seed",
                "9",
            ],
            vec![
                "remote",
                "--endpoints",
                "h:1",
                "--pattern",
                "p1",
                "--clients",
                "2",
            ],
            vec!["remote", "--endpoints", ",", "--pattern", "p1"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }

        let args = parse_args(&strings(&["promote", "--addr", "127.0.0.1:7432"])).unwrap();
        assert_eq!(
            args.command,
            Command::Promote {
                addr: "127.0.0.1:7432".to_string()
            }
        );
        // Default address, like remote.
        let args = parse_args(&strings(&["promote"])).unwrap();
        assert_eq!(
            args.command,
            Command::Promote {
                addr: "127.0.0.1:7431".to_string()
            }
        );
        assert!(parse_args(&strings(&["promote", "--bogus"])).is_err());
    }

    #[test]
    fn parses_chaos_proxy_invocation() {
        let args = parse_args(&strings(&[
            "chaos-proxy",
            "--upstream",
            "127.0.0.1:7431",
            "--listen",
            "127.0.0.1:7500",
            "--seed",
            "9",
            "--stall-per-mille",
            "100",
            "--stall-ms",
            "3",
            "--reset-per-mille",
            "15",
            "--partial-per-mille",
            "25",
        ]))
        .unwrap();
        let Command::ChaosProxy(proxy) = args.command else {
            panic!("expected a chaos-proxy command");
        };
        assert_eq!(proxy.upstream, "127.0.0.1:7431");
        assert_eq!(proxy.listen, "127.0.0.1:7500");
        assert_eq!(proxy.seed, 9);
        assert_eq!(proxy.stall_per_mille, 100);
        assert_eq!(proxy.stall_ms, 3);
        assert_eq!(proxy.reset_per_mille, 15);
        assert_eq!(proxy.partial_per_mille, 25);
        // Defaults (gentle chaos, ephemeral listen port).
        let args = parse_args(&strings(&["chaos-proxy", "--upstream", "h:1"])).unwrap();
        let Command::ChaosProxy(proxy) = args.command else {
            panic!("expected a chaos-proxy command");
        };
        assert_eq!(proxy.listen, "127.0.0.1:0");
        assert_eq!(proxy.stall_per_mille, 50);
        // --upstream is required; per-mille rates are capped at 1000.
        assert!(parse_args(&strings(&["chaos-proxy"])).is_err());
        assert!(parse_args(&strings(&[
            "chaos-proxy",
            "--upstream",
            "h:1",
            "--reset-per-mille",
            "1001",
        ]))
        .is_err());
    }

    #[test]
    fn parses_update_invocation() {
        let args = parse_args(&strings(&[
            "update",
            "--graph",
            "g.txt",
            "--wal",
            "g.wal",
            "--insert",
            "0",
            "9",
            "--insert",
            "1",
            "8",
            "--delete",
            "2",
            "3",
            "--ops",
            "ops.txt",
            "--checkpoint",
        ]))
        .unwrap();
        assert_eq!(args.graph_path, "g.txt");
        let Command::Update(update) = args.command else {
            panic!("expected an update command");
        };
        assert_eq!(update.wal, "g.wal");
        assert_eq!(update.inserts, vec![(0, 9), (1, 8)]);
        assert_eq!(update.deletes, vec![(2, 3)]);
        assert_eq!(update.ops.as_deref(), Some("ops.txt"));
        assert!(update.checkpoint);
        // --graph, --wal, and at least one action are all required;
        // --insert needs both endpoints.
        assert!(parse_args(&strings(&["update", "--wal", "w", "--insert", "0", "1"])).is_err());
        assert!(parse_args(&strings(&["update", "--graph", "g", "--insert", "0", "1"])).is_err());
        assert!(parse_args(&strings(&["update", "--graph", "g", "--wal", "w"])).is_err());
        assert!(parse_args(&strings(&[
            "update", "--graph", "g", "--wal", "w", "--insert", "0"
        ]))
        .is_err());
    }

    #[test]
    fn ops_text_parses_and_batches_in_order() {
        let ops = parse_ops_text("# comment\n+ 0 1\n+ 2 3\n- 0 1\n\n+ 4 5\n").unwrap();
        assert_eq!(
            ops,
            vec![
                (true, (0, 1)),
                (true, (2, 3)),
                (false, (0, 1)),
                (true, (4, 5)),
            ]
        );
        // The insert after the delete starts a new batch (inserts apply
        // before deletes within one batch, so merging would reorder).
        let batches = ops_to_batches(&ops, usize::MAX);
        assert_eq!(
            batches,
            vec![(vec![(0, 1), (2, 3)], vec![(0, 1)]), (vec![(4, 5)], vec![]),]
        );
        // The cap splits oversized runs.
        let many: Vec<Op> = (0..5).map(|i| (true, (i, i + 10))).collect();
        let capped = ops_to_batches(&many, 2);
        assert_eq!(capped.len(), 3);
        assert!(capped
            .iter()
            .all(|(ins, del)| ins.len() <= 2 && del.is_empty()));
        // Malformed lines are rejected with their line number.
        assert!(parse_ops_text("+ 0\n").unwrap_err().contains("line 1"));
        assert!(parse_ops_text("x 0 1\n").unwrap_err().contains("line 1"));
        assert!(parse_ops_text("+ 0 1 2\n").unwrap_err().contains("line 1"));
    }

    #[test]
    fn update_then_count_round_trips_through_the_wal() {
        let dir = temp_dir("update");
        let graph = dir.join("graph.txt");
        let wal = dir.join("graph.wal");
        let ops = dir.join("ops.txt");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(dir.join("graph.wal.ckpt")).ok();
        // A path 0-1-2-3: no triangles.
        std::fs::write(&graph, "0 1\n1 2\n2 3\n").unwrap();
        std::fs::write(&ops, "+ 0 2\n+ 1 3\n- 2 3\n").unwrap();
        let run_args = |argv: &[&str]| run(parse_args(&strings(argv)).unwrap());
        // Commit: closes triangle 0-1-2, opens 1-3, drops 2-3.
        run_args(&[
            "update",
            "--graph",
            graph.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--ops",
            ops.to_str().unwrap(),
        ])
        .unwrap();
        // A second run replays the WAL and commits a further edge.
        run_args(&[
            "update",
            "--graph",
            graph.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--insert",
            "0",
            "3",
            "--checkpoint",
        ])
        .unwrap();
        // The recovered graph: edges 01 12 02 13 03 -> triangles 012, 013.
        let base = load_graph(graph.to_str().unwrap(), GraphFormat::Auto).unwrap();
        let (durable, recovery) =
            DurableGraph::open(base, &wal, DurableGraphOptions::default()).unwrap();
        assert!(recovery.checkpoint_loaded, "second run checkpointed");
        let engine = GraphPi::new(durable.snapshot().graph().as_ref().clone());
        assert_eq!(engine.count(&prefab::triangle()).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_needs_no_pattern_but_count_does() {
        assert!(parse_args(&strings(&["stats", "--graph", "g.txt"])).is_ok());
        assert!(parse_args(&strings(&["count", "--graph", "g.txt"])).is_err());
        assert!(parse_args(&strings(&["bogus"])).is_err());
        assert!(parse_args(&strings(&["count", "--pattern", "p1"])).is_err());
    }

    #[test]
    fn pattern_resolution() {
        assert_eq!(resolve_pattern("house").unwrap(), prefab::house());
        assert_eq!(resolve_pattern("P3").unwrap(), prefab::p3());
        assert_eq!(resolve_pattern("clique4").unwrap(), prefab::clique(4));
        assert_eq!(resolve_pattern("cycle5").unwrap(), prefab::cycle_pattern(5));
        assert_eq!(
            resolve_pattern("adj:011101110").unwrap(),
            prefab::triangle()
        );
        assert!(resolve_pattern("nonsense").is_err());
    }

    #[test]
    fn end_to_end_on_a_temporary_graph() {
        let dir = temp_dir("e2e");
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n1 2\n0 2\n2 3\n").unwrap();
        let args = parse_args(&strings(&[
            "count",
            "--graph",
            path.to_str().unwrap(),
            "--pattern",
            "triangle",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(run(args).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn convert_then_count_binary_end_to_end() {
        let dir = temp_dir("convert");
        let text = dir.join("graph.txt");
        let bin = dir.join("graph.bin");
        std::fs::write(&text, "0 1\n1 2\n0 2\n2 3\n1 3\n3 4\n").unwrap();
        let convert = parse_args(&strings(&[
            "convert",
            text.to_str().unwrap(),
            bin.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run(convert).is_ok());
        assert!(io::sniff_is_binary(bin.to_str().unwrap()));
        assert!(!io::sniff_is_binary(text.to_str().unwrap()));
        // Explicit binary format and auto-sniffed both count identically.
        for format_args in [vec![], vec!["--format", "binary"]] {
            let mut argv = vec![
                "count",
                "--graph",
                bin.to_str().unwrap(),
                "--pattern",
                "triangle",
                "--threads",
                "1",
            ];
            argv.extend(format_args);
            assert!(run(parse_args(&strings(&argv)).unwrap()).is_ok());
        }
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&bin).ok();
    }
}
