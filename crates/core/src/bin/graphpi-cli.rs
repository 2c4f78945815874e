//! Command-line front end for the GraphPi engine: local queries (`stats`,
//! `plan`, `count`), graph files (`convert`, `update`), and the network
//! client of a running `graphpi-server` (`remote`, `promote`,
//! `chaos-proxy`).
//!
//! ```text
//! graphpi-cli count   --graph edges.txt --pattern house --threads 8
//! graphpi-cli count   --graph graph.bin --pattern triangle --mode=enumerate --limit 20
//! graphpi-cli convert edges.txt graph.bin
//! graphpi-cli update  --graph edges.txt --wal graph.wal --insert 0 9 --delete 3 4
//! graphpi-cli remote  --addr 127.0.0.1:7431 --pattern house --clients 4 --repeat 8 --stats
//! graphpi-cli --help              # the commands
//! graphpi-cli remote --help       # one command's flags, defaults and meaning
//! ```
//!
//! Every flag is declared once, in the tables below, and `--help` prints
//! them. A malformed command line, a bad pattern or a failed run exits 1
//! with a one-line message (followed by the usage line when a flag is at
//! fault).

mod common;

use common::Kind::Switch;
use common::{
    flag, load_graph, Flag, GraphFormat, Kind, Parsed, Spec, FORMAT, U32, U64, USIZE, WORKERS,
    WORKERS_AT_LEAST_ONE,
};
use graphpi_core::codegen::{generate, Language};
use graphpi_core::config::PoolOptions;
use graphpi_core::engine::{
    CountOptions, GraphPi, Mode, Outcome, PlanOptions, Session, MAX_PATTERN_VERTICES,
};
use graphpi_core::net::protocol::{self, LatencyHistogram};
use graphpi_core::net::{
    ChaosConfig, ChaosConnector, ChaosProxy, Client, ClientCounters, CountExt, NetError, QueryMode,
    RemoteCountOptions, RemoteEnumerateOptions, RemoteUpdateOptions, RetryPolicy, Transport,
};
use graphpi_graph::wal::DurableGraph;
use graphpi_graph::DurableGraphOptions;
use graphpi_graph::{io, vertex_set, EdgeBatch};
use graphpi_pattern::{prefab, Pattern};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

impl CliMode {
    /// Every mode, in the order of [`MODE_NAMES`].
    const ALL: [CliMode; 4] = [Self::Count, Self::Orbit, Self::Sample, Self::Enumerate];

    /// The `--mode` spelling.
    fn name(self) -> &'static str {
        MODE_NAMES[self as usize]
    }
}

/// Which of the three local query commands runs: each prints what the one
/// before it does, then its own part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Stats,
    Plan,
    Count,
}

/// `stats` / `plan` / `count` invocation.
#[derive(Debug, Clone, PartialEq)]
struct QueryArgs {
    kind: QueryKind,
    graph_path: String,
    format: GraphFormat,
    pattern: Option<String>,
    threads: usize,
    use_iep: bool,
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

/// Parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    /// Query a local graph file.
    Query(QueryArgs),
    /// Convert an edge list into the binary format (`input` → `output`).
    Convert { input: String, output: String },
    /// Talk to a running `graphpi-server` over the wire protocol.
    Remote(RemoteArgs),
    /// Promote a running replica to primary.
    Promote { addr: String },
    /// Run the byte-level fault-injecting TCP proxy.
    ChaosProxy(ChaosProxyArgs),
    /// Commit edge batches to a local WAL-backed graph.
    Update(UpdateArgs),
}

/// `update` subcommand invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UpdateArgs {
    graph_path: String,
    format: GraphFormat,
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
    /// Every endpoint of a replicated deployment (empty = `addr` alone).
    endpoints: Vec<String>,
    pattern: Option<String>,
    clients: usize,
    repeat: usize,
    no_iep: bool,
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

/// The `--mode` spellings, in the order of [`CliMode::ALL`].
const MODE_NAMES: [&str; 4] = ["count", "orbit", "sample", "enumerate"];

const PATH: Kind = Kind::Str("<path>");
const HOST_PORT: Kind = Kind::Str("<host:port>");
const PER_MILLE: Kind = Kind::Int(32, 0..=1000, "", "is per mille (0..=1000)");
const AT_LEAST_ONE: Kind = Kind::Int(usize::BITS, 1..=u64::MAX, "must be at least 1", "");

/// Rows that more than one command's table holds.
#[rustfmt::skip] // one row per flag: name, kind, default, help
mod shared_rows {
    use super::*;
    pub const GRAPH: Flag       = flag("--graph",       PATH,   "",            "data graph: an edge list (`#`/`%` comments) or the binary `convert` writes").required();
    pub const FORMAT_ROW: Flag  = flag("--format",      FORMAT, "auto",        "how to read --graph (auto sniffs the magic bytes; binary opens via mmap)");
    pub const PATTERN: Flag     = flag("--pattern",     Kind::Str("<name>"), "", "triangle|rectangle|house|cycle6tri|p1..p6|cliqueK|cycleK|pathK|starK|adj:<row-major 0/1 matrix>");
    pub const NO_IEP: Flag      = flag("--no-iep",      Switch, "",            "count without the inclusion-exclusion suffix");
    pub const REPEAT: Flag      = flag("--repeat",      AT_LEAST_ONE, "1",     "run the query N times");
    pub const CLIENTS: Flag     = flag("--clients",     WORKERS_AT_LEAST_ONE, "1", "concurrent clients, each running --repeat queries; all counts must agree");
    pub const MODE: Flag        = flag("--mode",        Kind::OneOf("mode", &MODE_NAMES), "count", "exact count, per-vertex orbit counts, seeded sample estimate, or the embeddings");
    pub const SAMPLE_RATE: Flag = flag("--sample-rate", Kind::Float(0.0, 1.0, "must be in (0, 1]"), "0.1", "--mode=sample: subtree sampling probability");
    pub const SAMPLE_SEED: Flag = flag("--sample-seed", U64,    "0",           "--mode=sample: the same seed replays the same estimate");
    pub const LIMIT: Flag       = flag("--limit",       Kind::Int(64, 1..=u64::MAX, "must be at least 1 (an empty enumeration is a no-op)", ""), "100", "enumeration: the most embeddings to return");
    pub const ADDR: Flag        = flag("--addr",        HOST_PORT, "127.0.0.1:7431", "the server to talk to");
}
use shared_rows::*;

#[rustfmt::skip] // one row per flag: name, kind, default, help
const QUERY_FLAGS: &[Flag] = &[
    GRAPH, FORMAT_ROW, PATTERN,
    flag("--threads",        WORKERS, "0", "worker threads (0 = all cores)"),
    NO_IEP,
    flag("--scalar-kernels", Switch, "",  "pin the set kernels to the portable scalar reference (same counts)"),
    flag("--list",           USIZE,  "0", "count mode: also print the first N embeddings"),
    REPEAT,
    flag("--session",        Switch, "",  "run on a persistent worker pool with a compiled-plan cache (the warm serving path)"),
    CLIENTS,
    flag("--max-in-flight",  WORKERS, "0", "with --session: jobs the pool runs at once (0 = automatic); extra clients block"),
    MODE, SAMPLE_RATE, SAMPLE_SEED, LIMIT,
];

static STATS: Spec = Spec {
    command: "graphpi-cli stats",
    about: "Print the graph's size, triangle count and degree statistics.",
    flags: QUERY_FLAGS,
};

static PLAN: Spec = Spec {
    command: "graphpi-cli plan",
    about: "Choose the schedule and restrictions for --pattern and print the generated matcher.",
    flags: QUERY_FLAGS,
};

static COUNT: Spec = Spec {
    command: "graphpi-cli count",
    about:
        "Count the embeddings of --pattern (or, with --mode, list, attribute or estimate them).\n\
            --repeat alone re-plans and re-spawns the worker threads every iteration (cold);\n\
            with --session the later iterations hit the plan cache on a warm pool, and\n\
            --clients N drives that one session from N threads at once. The non-count modes\n\
            always run on a session, as a server would run them.",
    flags: QUERY_FLAGS,
};

static CONVERT: Spec = Spec {
    command: "graphpi-cli convert <edge-list> <binary-out>",
    about: "Write an edge list in the checksummed binary format and verify it reads back.",
    flags: &[],
};

#[rustfmt::skip]
static UPDATE: Spec = Spec {
    command: "graphpi-cli update",
    about: "Commit edge batches to a local WAL-backed graph.\n\
            The log is created on first use and replayed on every run. An ops file holds\n\
            `+ u v` / `- u v` lines; within one batch all inserts apply before all deletes,\n\
            so an insert that follows a delete starts a new batch.",
    flags: &[
        GRAPH, FORMAT_ROW,
        flag("--wal",         PATH,   "",     "the write-ahead log holding the durable state").required(),
        flag("--insert",      Kind::VertexPair, "", "insert edge U V"),
        flag("--delete",      Kind::VertexPair, "", "delete edge U V"),
        flag("--ops",         PATH,   "",     "ops file, committed before the --insert/--delete flags"),
        flag("--checkpoint",  Switch, "",     "fold the log into a checkpoint afterwards"),
    ],
};

#[rustfmt::skip]
static REMOTE: Spec = Spec {
    command: "graphpi-cli remote",
    about: "Talk to a running graphpi-server (docs/protocol.md).\n\
            One run may mutate, then count or enumerate, then ask for --stats or --shutdown.\n\
            Every request retries per --retries and carries a request ID, so a resend is answered\n\
            once. --endpoints is the failover mode of a replicated deployment: reads rotate over\n\
            the endpoints, writes follow the primary.",
    flags: &[
        ADDR,
        flag("--endpoints",       Kind::Str("<a,b,c>"), "", "failover mode: every endpoint of a replicated deployment (instead of --addr)"),
        PATTERN, CLIENTS, REPEAT, NO_IEP,
        flag("--deadline-ms",     U32,    "0",  "per-request deadline covering queueing and execution (0 = none)"),
        flag("--retries",         Kind::Int(32, 1..=u64::MAX, "must be at least 1 (the first attempt)", ""), "1", "attempts per request, reconnecting with jittered exponential backoff"),
        flag("--backoff-ms",      U64,    "10", "backoff before the second attempt; doubles per retry"),
        flag("--chaos-seed",      U64,    "",   "route each connection through the in-process seeded fault injector"),
        flag("--ping",            Switch, "",   "liveness probe"),
        flag("--stats",           Switch, "",   "print the server's counters and latency histogram"),
        flag("--probe-malformed", Switch, "",   "send a garbage frame and a protocol-v1 frame; the server must refuse both and survive"),
        flag("--shutdown",        Switch, "",   "ask the server to drain gracefully"),
        flag("--mutate",          PATH,   "",   "ops file (`+ u v` / `- u v` lines) to commit, in frame-sized batches, before counting"),
        MODE, SAMPLE_RATE, SAMPLE_SEED,
        flag("--enumerate",       Switch, "",   "stream the embeddings as pages instead of counting (not --mode=enumerate)"),
        LIMIT,
        flag("--page-size",       U32,    "0",  "--enumerate: embeddings per page (0 = server default)"),
    ],
};

static PROMOTE: Spec = Spec {
    command: "graphpi-cli promote",
    about: "Ask the replica at --addr to become the primary (the manual half of a failover).",
    flags: &[ADDR],
};

#[rustfmt::skip]
static CHAOS_PROXY: Spec = Spec {
    command: "graphpi-cli chaos-proxy",
    about: "Run the byte-level fault-injecting TCP proxy in front of a server.\n\
            Prints `proxying on <addr>`, then serves until killed.",
    flags: &[
        flag("--upstream",           HOST_PORT, "",            "the real server").required(),
        flag("--listen",             HOST_PORT, "127.0.0.1:0", "address to bind (port 0 picks a free one)"),
        flag("--seed",               U64,       "0",           "fault schedule seed"),
        flag("--stall-per-mille",    PER_MILLE, "50",          "chance that a chunk stalls"),
        flag("--stall-ms",           U64,       "2",           "how long a stall lasts"),
        flag("--reset-per-mille",    PER_MILLE, "20",          "chance that a chunk resets the connection"),
        flag("--partial-per-mille",  PER_MILLE, "20",          "chance that a chunk is cut short"),
    ],
};

static COMMANDS: [&Spec; 8] = [
    &STATS,
    &PLAN,
    &COUNT,
    &CONVERT,
    &UPDATE,
    &REMOTE,
    &PROMOTE,
    &CHAOS_PROXY,
];

/// The top-level `--help`: every command with the first line of its purpose.
fn overview() -> String {
    let mut text = "usage: graphpi-cli <command> [flags]\n\ncommands:\n".to_string();
    for spec in COMMANDS {
        let summary = spec.about.lines().next().unwrap_or("");
        text += &format!("  {:<12} {summary}\n", spec.name());
    }
    text + "\n`graphpi-cli <command> --help` lists that command's flags."
}

/// The command the first word of the command line names.
fn command_named(args: &[String]) -> Option<&'static Spec> {
    let name = args.first()?;
    COMMANDS.iter().copied().find(|spec| spec.name() == name)
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let name = args.first().map_or("", String::as_str);
    let Some(spec) = command_named(args) else {
        let names: Vec<&str> = COMMANDS.iter().map(|spec| spec.name()).collect();
        return Err(format!(
            "unknown command {name:?}: expected one of {} (see graphpi-cli --help)",
            names.join(", ")
        ));
    };
    let rest = &args[1..];
    if name == "convert" {
        let [input, output] = rest else {
            return Err(format!(
                "convert needs exactly <edge-list> <binary-out>\n{}",
                spec.usage()
            ));
        };
        return Ok(Command::Convert {
            input: input.clone(),
            output: output.clone(),
        });
    }
    let parsed = spec.parse(rest)?;
    Ok(match name {
        "stats" => Command::Query(checked_query_args(QueryKind::Stats, &parsed, spec)?),
        "plan" => Command::Query(checked_query_args(QueryKind::Plan, &parsed, spec)?),
        "count" => Command::Query(checked_query_args(QueryKind::Count, &parsed, spec)?),
        "update" => Command::Update(update_args(&parsed)?),
        "remote" => Command::Remote(remote_args(&parsed)?),
        "promote" => Command::Promote {
            addr: parsed.get("--addr"),
        },
        "chaos-proxy" => Command::ChaosProxy(ChaosProxyArgs {
            listen: parsed.get("--listen"),
            upstream: parsed.get("--upstream"),
            seed: parsed.get("--seed"),
            stall_per_mille: parsed.get("--stall-per-mille"),
            stall_ms: parsed.get("--stall-ms"),
            reset_per_mille: parsed.get("--reset-per-mille"),
            partial_per_mille: parsed.get("--partial-per-mille"),
        }),
        _ => unreachable!("every entry of COMMANDS has an arm"),
    })
}

/// Fills a [`QueryArgs`] from a parse of [`QUERY_FLAGS`].
fn query_args(kind: QueryKind, parsed: &Parsed) -> QueryArgs {
    QueryArgs {
        kind,
        graph_path: parsed.get("--graph"),
        format: GraphFormat::ALL[parsed.choice("--format")],
        pattern: parsed.opt("--pattern"),
        threads: parsed.get("--threads"),
        use_iep: !parsed.given("--no-iep"),
        scalar_kernels: parsed.given("--scalar-kernels"),
        list: parsed.get("--list"),
        repeat: parsed.get("--repeat"),
        session: parsed.given("--session"),
        clients: parsed.get("--clients"),
        max_in_flight: parsed.get("--max-in-flight"),
        mode: CliMode::ALL[parsed.choice("--mode")],
        sample_rate: parsed.get("--sample-rate"),
        sample_seed: parsed.get("--sample-seed"),
        limit: parsed.get("--limit"),
    }
}

/// The sampling knobs mean nothing to the exact modes.
fn sample_flags_need_sample_mode(parsed: &Parsed, mode: CliMode) -> Result<(), String> {
    if mode != CliMode::Sample && (parsed.given("--sample-rate") || parsed.given("--sample-seed")) {
        return Err(
            "--sample-rate/--sample-seed only apply to --mode=sample (the other modes are exact)"
                .to_string(),
        );
    }
    Ok(())
}

/// `stats` / `plan` / `count`: the filled arguments, once the rules that
/// span several flags hold.
fn checked_query_args(kind: QueryKind, parsed: &Parsed, spec: &Spec) -> Result<QueryArgs, String> {
    let args = query_args(kind, parsed);
    if kind != QueryKind::Stats && args.pattern.is_none() {
        return Err(format!(
            "--pattern is required for this command\n{}",
            spec.usage()
        ));
    }
    if args.clients > 1 && !args.session {
        return Err("--clients requires --session (the concurrent-load mode \
                    runs on the shared session pool)"
            .to_string());
    }
    if args.max_in_flight > 0 && !args.session {
        return Err(
            "--max-in-flight requires --session (only the session pool schedules jobs)".to_string(),
        );
    }
    if args.mode != CliMode::Count {
        if kind != QueryKind::Count {
            return Err("--mode applies to the count command".to_string());
        }
        if args.clients > 1 {
            return Err(format!(
                "--clients is the count-mode concurrent-load harness; --mode={} runs a \
                 single query stream",
                args.mode.name()
            ));
        }
        if args.list > 0 {
            return Err(
                "--list is the count-mode embedding preview; use --mode=enumerate --limit N \
                 to list embeddings"
                    .to_string(),
            );
        }
    }
    sample_flags_need_sample_mode(parsed, args.mode)?;
    if args.mode != CliMode::Enumerate && parsed.given("--limit") {
        return Err("--limit only applies to --mode=enumerate".to_string());
    }
    Ok(args)
}

/// `remote`: the filled arguments, once the rules that span several
/// flags hold.
fn remote_args(parsed: &Parsed) -> Result<RemoteArgs, String> {
    let endpoints: Option<String> = parsed.opt("--endpoints");
    let remote = RemoteArgs {
        addr: parsed.get("--addr"),
        endpoints: endpoints
            .iter()
            .flat_map(|list| list.split(','))
            .map(|part| part.trim().to_string())
            .filter(|part| !part.is_empty())
            .collect(),
        pattern: parsed.opt("--pattern"),
        clients: parsed.get("--clients"),
        repeat: parsed.get("--repeat"),
        no_iep: parsed.given("--no-iep"),
        deadline_ms: parsed.get("--deadline-ms"),
        retries: parsed.get("--retries"),
        backoff_ms: parsed.get("--backoff-ms"),
        chaos_seed: parsed.opt("--chaos-seed"),
        ping: parsed.given("--ping"),
        stats: parsed.given("--stats"),
        shutdown: parsed.given("--shutdown"),
        probe_malformed: parsed.given("--probe-malformed"),
        mutate: parsed.opt("--mutate"),
        mode: CliMode::ALL[parsed.choice("--mode")],
        sample_rate: parsed.get("--sample-rate"),
        sample_seed: parsed.get("--sample-seed"),
        enumerate: parsed.given("--enumerate"),
        limit: parsed.get("--limit"),
        page_size: parsed.get("--page-size"),
    };
    let probes = remote.ping || remote.stats || remote.shutdown || remote.probe_malformed;
    if endpoints.is_some() && remote.endpoints.is_empty() {
        return Err("--endpoints needs at least one address".to_string());
    }
    if remote.mode == CliMode::Enumerate {
        return Err(
            "remote enumeration is the paged --enumerate request, not a --mode value".to_string(),
        );
    }
    if remote.enumerate {
        if remote.pattern.is_none() {
            return Err("--enumerate needs a --pattern to enumerate".to_string());
        }
        if remote.mode != CliMode::Count {
            return Err(format!(
                "--enumerate streams embeddings; it cannot combine with --mode={}",
                remote.mode.name()
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
    if remote.pattern.is_none() && remote.mutate.is_none() && !probes {
        return Err(format!(
            "remote needs something to do: --pattern, --mutate, --ping, --stats, \
             --probe-malformed or --shutdown\n{}",
            REMOTE.usage()
        ));
    }
    sample_flags_need_sample_mode(parsed, remote.mode)?;
    if !remote.enumerate && (parsed.given("--limit") || parsed.given("--page-size")) {
        return Err("--limit/--page-size only apply to --enumerate".to_string());
    }
    if remote.chaos_seed.is_some() && remote.retries == 1 {
        return Err(
            "--chaos-seed without --retries would fail on the first injected fault; \
             give the client retries (e.g. --retries 8)"
                .to_string(),
        );
    }
    // The probes each speak to one server; a rotation gives them no
    // meaningful target.
    if !remote.endpoints.is_empty() && probes {
        return Err(
            "--endpoints is for counts, enumerations and mutations; use --addr for --ping, \
             --stats, --probe-malformed and --shutdown"
                .to_string(),
        );
    }
    Ok(remote)
}

/// `update`: the filled arguments; a run must have something to commit.
fn update_args(parsed: &Parsed) -> Result<UpdateArgs, String> {
    let update = UpdateArgs {
        graph_path: parsed.get("--graph"),
        format: GraphFormat::ALL[parsed.choice("--format")],
        wal: parsed.get("--wal"),
        inserts: parsed.pairs("--insert"),
        deletes: parsed.pairs("--delete"),
        ops: parsed.opt("--ops"),
        checkpoint: parsed.given("--checkpoint"),
    };
    if update.inserts.is_empty()
        && update.deletes.is_empty()
        && update.ops.is_none()
        && !update.checkpoint
    {
        return Err(format!(
            "update needs something to commit: --insert, --delete, --ops or --checkpoint\n{}",
            UPDATE.usage()
        ));
    }
    Ok(update)
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

/// Reads and parses an ops file.
fn read_ops(path: &str) -> Result<Vec<Op>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_ops_text(&text)
}

/// Runs the `update` subcommand: open (replay) the durable graph, commit
/// the requested batches, optionally checkpoint.
fn run_update(args: &UpdateArgs) -> Result<(), String> {
    let graph = load_graph(&args.graph_path, args.format)?;
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
    let mut ops = args.ops.as_deref().map_or(Ok(Vec::new()), read_ops)?;
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
        "plan cache: {} hit(s) / {} miss(es), {} eviction(s), {}/{} plans",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_len,
        stats.cache_capacity
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

/// One `remote` client over `endpoints`, retrying per `--retries` /
/// `--backoff-ms`: plain TCP, or with `--chaos-seed` every dial goes
/// through the in-process fault injector (its own fault stream per
/// client). Request IDs are drawn from the policy's seed and the server
/// remembers them as idempotency keys, so the seed is fresh per
/// invocation (clock and pid) and per client: two runs of this program
/// must never present the same ID, or the second would be answered from
/// the first one's ledger entry.
fn connect(args: &RemoteArgs, endpoints: &[SocketAddr], client_index: u64) -> Client {
    let clock = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    let clock = clock.map_or(0, |since| since.as_nanos() as u64);
    let seed = clock ^ (u64::from(std::process::id()) << 32) ^ client_index;
    let mut policy = RetryPolicy::default().with_seed(seed);
    // Over several endpoints a write may spend one attempt on a redirect.
    let floor = if endpoints.len() > 1 { 2 } else { 1 };
    policy.max_attempts = args.retries.max(floor);
    policy.initial_backoff = Duration::from_millis(args.backoff_ms);
    let Some(chaos_seed) = args.chaos_seed else {
        return Client::with_endpoints(endpoints.to_vec(), policy);
    };
    let config = ChaosConfig::gentle(chaos_seed ^ client_index);
    let injectors: Vec<_> = endpoints
        .iter()
        .map(|&addr| (addr, ChaosConnector::new(addr, config)))
        .collect();
    let dial = move |addr| {
        let (_, injector) = injectors
            .iter()
            .find(|(at, _)| *at == addr)
            .expect("an endpoint");
        Ok(Box::new(injector.connect()?) as Box<dyn Transport + Send>)
    };
    Client::with_connector(endpoints.to_vec(), dial, policy)
}

/// Commits the `--mutate` ops file, one frame-sized batch after another,
/// and prints the summary; with `--endpoints` it names the primary the
/// batches landed on.
fn mutate(args: &RemoteArgs, ops_path: &str, client: &mut Client) -> Result<(), String> {
    let batches = ops_to_batches(&read_ops(ops_path)?, protocol::MAX_UPDATE_EDGES);
    let options = RemoteUpdateOptions {
        deadline_ms: args.deadline_ms,
        request_id: 0,
    };
    let (mut inserted, mut deleted, mut generation) = (0u64, 0u64, None);
    for (ins, del) in &batches {
        let ok = client
            .update_with(ins, del, options)
            .map_err(|e| format!("mutate failed: {e}"))?;
        inserted += u64::from(ok.inserted);
        deleted += u64::from(ok.deleted);
        generation = Some(ok.generation);
    }
    let landed = if args.endpoints.is_empty() {
        String::new()
    } else {
        format!(" (primary {})", client.primary_endpoint())
    };
    match generation {
        Some(generation) => println!(
            "mutate: {} batch(es) applied, +{inserted} -{deleted} edges, generation {generation}{landed}",
            batches.len(),
        ),
        None => println!("mutate: {ops_path} contained no operations"),
    }
    Ok(())
}

/// What a `remote` invocation's count requests carry.
fn count_options(args: &RemoteArgs) -> RemoteCountOptions {
    RemoteCountOptions {
        no_iep: args.no_iep,
        deadline_ms: args.deadline_ms,
        mode: match args.mode {
            CliMode::Orbit => QueryMode::Orbit,
            CliMode::Sample => QueryMode::sample(args.sample_seed, args.sample_rate),
            _ => QueryMode::Count,
        },
        ..RemoteCountOptions::default()
    }
}

/// Runs `work` once per client index on its own scoped thread; the first
/// client to fail (or to panic) fails the run.
fn run_clients<T: Send>(
    clients: usize,
    work: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..clients)
            .map(|index| scope.spawn(move || work(index)))
            .collect();
        // Join every client before looking at any result: a handle left
        // unjoined would turn its thread's panic into the scope's.
        let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
        let results = joined.into_iter().enumerate().map(|(index, joined)| {
            joined.unwrap_or_else(|_| Err(format!("client {index} panicked")))
        });
        results.collect()
    })
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

/// Runs the `remote` subcommand against a live `graphpi-server`, or with
/// `--endpoints` against every node of a replicated deployment (then a
/// `replication:` line sums up where the traffic landed).
fn run_remote(args: &RemoteArgs) -> Result<(), String> {
    // A bad pattern fails the run before anything is sent.
    let pattern = args.pattern.as_deref().map(resolve_pattern).transpose()?;
    if args.probe_malformed {
        probe_malformed(&args.addr)?;
    }
    if args.ping {
        Client::connect(&args.addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("ping failed: {e}"))?;
        println!("ping: ok ({})", args.addr);
    }
    let endpoints = if args.endpoints.is_empty() {
        vec![resolve_addr(&args.addr)?]
    } else {
        let resolved = args.endpoints.iter().map(|addr| resolve_addr(addr));
        resolved.collect::<Result<_, _>>()?
    };
    // Clients dial lazily; the mutex only hands each thread its own.
    let mut clients: Vec<Mutex<Client>> = (0..args.clients)
        .map(|index| Mutex::new(connect(args, &endpoints, index as u64)))
        .collect();
    let first = clients[0].get_mut().expect("no thread has run yet");
    if let Some(ops_path) = &args.mutate {
        // Mutations run before any counting, so `--mutate ops.txt
        // --pattern house` counts the post-update graph. Every batch
        // carries a request ID, so a resend after an ambiguous failure
        // replays from the server's ledger instead of committing twice.
        mutate(args, ops_path, first)?;
    }
    if let (Some(name), Some(pattern)) = (&args.pattern, &pattern) {
        if args.enumerate {
            run_remote_enumerate(args, first, name, pattern)?;
        } else {
            run_remote_counts(args, &clients, name, pattern)?;
        }
    }
    let clients: Vec<Client> = clients
        .into_iter()
        .map(|client| client.into_inner().expect("every client thread was joined"))
        .collect();
    print_summary(args, &clients);
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

/// The run's summary lines, over every client: with `--retries` or
/// `--chaos-seed` a `resilience:` line of what the retry loop did, and
/// with `--endpoints` a `replication:` line of who answered the reads, how
/// often writes had to re-route, and the worst replication lag any
/// endpoint admits to.
fn print_summary(args: &RemoteArgs, clients: &[Client]) {
    let counters: Vec<ClientCounters> = clients.iter().map(Client::counters).collect();
    let sum = |field: fn(&ClientCounters) -> u64| counters.iter().map(field).sum::<u64>();
    if args.retries > 1 || args.chaos_seed.is_some() {
        println!(
            "resilience: {} attempts, {} connects, {} retries, {} server hints honored",
            sum(|c| c.attempts),
            sum(|c| c.connects),
            sum(|c| c.retries),
            sum(|c| c.hints_honored)
        );
    }
    if args.endpoints.is_empty() {
        return;
    }
    let first = &clients[0];
    let reads: Vec<String> = (first.endpoints().iter().enumerate())
        .map(|(at, addr)| {
            let reads: u64 = counters.iter().map(|c| c.reads_per_endpoint[at]).sum();
            format!("{addr}={reads}")
        })
        .collect();
    let mut max_lag = 0u64;
    let mut unreachable = 0usize;
    for (_, health) in first.health_all() {
        match health {
            Some(health) => max_lag = max_lag.max(health.replication_lag),
            None => unreachable += 1,
        }
    }
    println!(
        "replication: reads [{}], {} failover(s) ({} redirected), max lag {max_lag} \
         generation(s), {unreachable} unreachable, primary {}",
        reads.join(" "),
        sum(|c| c.failovers),
        sum(|c| c.redirects),
        first.primary_endpoint()
    );
}

/// Runs the remote counting loop (all `--mode`s; enumeration is
/// [`run_remote_enumerate`]): every client thread runs `--repeat` queries,
/// and all observed headline counts must be bit-identical — sample mode
/// included, because a fixed seed replays the same estimate on an
/// unchanged graph. Every count is floored at the `--mutate` generation,
/// so a lagging replica waits or sheds the read to another endpoint.
fn run_remote_counts(
    args: &RemoteArgs,
    clients: &[Mutex<Client>],
    name: &str,
    pattern: &Pattern,
) -> Result<(), String> {
    let mut options = count_options(args);
    let first = clients[0].lock().expect("no client thread has run yet");
    options.min_generation = first.last_write_generation();
    drop(first);
    let start = Instant::now();
    let results = run_clients(args.clients, |client_index| {
        let mut client = clients[client_index].lock().expect("one thread per client");
        let mut observed = Vec::with_capacity(args.repeat);
        let mut ext = CountExt::None;
        for query in 0..args.repeat {
            // Reads are sticky per connection; rotating between queries
            // spreads the burst across the endpoint list.
            if query > 0 {
                client.rotate_reads();
            }
            let reply = client.count_with(pattern, options);
            let reply = reply.map_err(|e| format!("client {client_index}: {e}"))?;
            observed.push(reply.count);
            ext = reply.ext;
        }
        Ok((observed, ext))
    })?;
    let elapsed = start.elapsed();
    let mut all_counts = Vec::new();
    let mut mode_ext = CountExt::None;
    for (counts, ext) in results {
        all_counts.extend(counts);
        if !matches!(ext, CountExt::None) {
            mode_ext = ext;
        }
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
    Ok(())
}

/// Runs `remote --enumerate`: one paged `ENUMERATE` stream (non-idempotent
/// — retried automatically only while zero pages have arrived), printing a
/// short embedding preview and the page/total summary.
fn run_remote_enumerate(
    args: &RemoteArgs,
    client: &mut Client,
    name: &str,
    pattern: &Pattern,
) -> Result<(), String> {
    let options = RemoteEnumerateOptions {
        deadline_ms: args.deadline_ms,
        page_size: args.page_size,
    };
    let start = Instant::now();
    let result = client
        .enumerate_with(pattern, args.limit, options)
        .map_err(|e| format!("enumerate failed: {e}"))?;
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
        return Pattern::try_from_adjacency_string(matrix)
            .map_err(|e| format!("invalid adjacency string {matrix:?}: {e}"));
    }
    // The sized families: name, smallest K that is a pattern, constructor.
    type Build = fn(usize) -> Pattern;
    let families: [(&str, usize, Build); 4] = [
        ("clique", 1, prefab::clique),
        ("cycle", 3, prefab::cycle_pattern),
        ("path", 1, prefab::path_pattern),
        ("star", 1, prefab::star_pattern),
    ];
    for (family, smallest, build) in families {
        let Some(k) = lower.strip_prefix(family).and_then(|k| k.parse().ok()) else {
            continue;
        };
        if !(smallest..=MAX_PATTERN_VERTICES).contains(&k) {
            return Err(format!(
                "{family}K needs K in {smallest}..={MAX_PATTERN_VERTICES}, got {k}"
            ));
        }
        return Ok(build(k));
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

/// Runs `convert <edge-list> <binary-out>` and verifies the round trip.
fn run_convert(input: &str, output: &str) -> Result<(), String> {
    let start = Instant::now();
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

fn run(command: Command) -> Result<(), String> {
    match &command {
        Command::Query(query) => run_query(query),
        Command::Convert { input, output } => run_convert(input, output),
        Command::Remote(remote) => run_remote(remote),
        Command::Promote { addr } => run_promote(addr),
        Command::ChaosProxy(proxy) => run_chaos_proxy(proxy),
        Command::Update(update) => run_update(update),
    }
}

/// The persistent pool and plan cache `--session` and the non-count modes
/// run on.
fn open_session<'e>(engine: &'e GraphPi, args: &QueryArgs, options: CountOptions) -> Session<'e> {
    let pool = PoolOptions {
        threads: args.threads,
        max_in_flight: args.max_in_flight,
        ..PoolOptions::default()
    };
    engine.session_with(pool, PlanOptions::default(), options)
}

/// Runs `stats`, `plan` and `count`: each prints what the one before it
/// does, then its own part.
fn run_query(args: &QueryArgs) -> Result<(), String> {
    if args.scalar_kernels {
        vertex_set::set_force_scalar(true);
    }
    // A bad pattern fails the run before the graph is loaded.
    let pattern = args.pattern.as_deref().map(resolve_pattern).transpose()?;
    let load_start = Instant::now();
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
    let Some(pattern) = pattern.filter(|_| args.kind != QueryKind::Stats) else {
        return Ok(());
    };

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
        "selected schedule {:?}, restrictions {:?}, predicted cost {:.3e}, placement {}",
        plan.plan.config.schedule.order(),
        plan.plan.config.restrictions.restrictions(),
        plan.predicted_cost,
        plan.placement()
    );
    if args.kind == QueryKind::Plan {
        println!("\n{}", generate(&plan.plan, Language::Cpp));
        return Ok(());
    }

    let count_options = CountOptions {
        use_iep: args.use_iep,
        threads: args.threads,
        scalar_kernels: args.scalar_kernels,
        ..CountOptions::default()
    };
    println!("kernels: {}", vertex_set::active_kernel().name());
    if args.mode != CliMode::Count {
        return run_local_mode(&engine, &pattern, args, count_options);
    }
    let mut timings: Vec<Duration> = Vec::with_capacity(args.repeat);
    let mut count = 0u64;
    if args.session {
        // Warm serving path: persistent pool + compiled-plan cache. The
        // first iteration pays planning (a cache miss); the rest are warm.
        let session = open_session(&engine, args, count_options);
        if args.clients > 1 {
            // Concurrent-load mode: N clients share the session, each
            // running `repeat` queries as simultaneous jobs on the pool.
            // One cold query first so the comparison below is warm-path.
            let cold_start = Instant::now();
            count = session.count(&pattern).map_err(|e| e.to_string())?;
            let cold = cold_start.elapsed();
            let start = Instant::now();
            run_clients(args.clients, |client| {
                for _ in 0..args.repeat {
                    let got = session.count(&pattern);
                    let got = got.map_err(|e| format!("client {client}: {e}"))?;
                    if got != count {
                        return Err(format!(
                            "client {client} observed a diverging count: {got}, not {count}"
                        ));
                    }
                }
                Ok(())
            })?;
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
            let start = Instant::now();
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
            let start = Instant::now();
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
        let rest_avg = rest.iter().sum::<Duration>() / rest.len() as u32;
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
    args: &QueryArgs,
    count_options: CountOptions,
) -> Result<(), String> {
    let session = open_session(engine, args, count_options);
    let mode = match args.mode {
        CliMode::Count => Mode::Count,
        CliMode::Enumerate => Mode::Enumerate { limit: args.limit },
        CliMode::Orbit => Mode::Orbit,
        CliMode::Sample => Mode::Sample {
            rate: args.sample_rate,
            seed: args.sample_seed,
        },
    };
    let start = Instant::now();
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
    if common::wants_help(&args) {
        println!("{}", command_named(&args).map_or_else(overview, Spec::help));
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

    /// What the `--sample-rate` and `--limit` rows' defaults must parse to.
    const DEFAULT_SAMPLE_RATE: f64 = 0.1;
    const DEFAULT_ENUM_LIMIT: u64 = 100;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// A `stats` / `plan` / `count` command line, parsed.
    fn query(parts: &[&str]) -> QueryArgs {
        match parse_args(&strings(parts)) {
            Ok(Command::Query(query)) => query,
            other => panic!("expected a query command, got {other:?}"),
        }
    }

    fn temp_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphpi_cli_{label}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_count_invocation() {
        let args = query(&[
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
        ]);
        assert_eq!(args.kind, QueryKind::Count);
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
        let args = query(&[
            "count",
            "--graph",
            "g.bin",
            "--format",
            "binary",
            "--pattern",
            "house",
            "--scalar-kernels",
        ]);
        assert_eq!(args.format, GraphFormat::Binary);
        assert!(args.scalar_kernels);
        assert_eq!(
            query(&["stats", "--graph", "g.txt", "--format", "text"]).format,
            GraphFormat::Text
        );
        assert!(parse_args(&strings(&["stats", "--graph", "g.txt", "--format", "tsv"])).is_err());
    }

    #[test]
    fn parses_convert_invocation() {
        let args = parse_args(&strings(&["convert", "in.txt", "out.bin"])).unwrap();
        assert_eq!(
            args,
            Command::Convert {
                input: "in.txt".to_string(),
                output: "out.bin".to_string()
            }
        );
        assert!(parse_args(&strings(&["convert", "in.txt"])).is_err());
        assert!(parse_args(&strings(&["convert", "a", "b", "c"])).is_err());
    }

    #[test]
    fn parses_repeat_and_session_flags() {
        let args = query(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--repeat",
            "20",
            "--session",
        ]);
        assert_eq!(args.repeat, 20);
        assert!(args.session);
        // Defaults: one iteration, no session.
        let args = query(&["count", "--graph", "g.txt", "--pattern", "house"]);
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
        let args = query(&[
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
        ]);
        assert_eq!(args.clients, 4);
        assert_eq!(args.max_in_flight, 2);
        assert!(args.session);
        // Defaults.
        let args = query(&["count", "--graph", "g.txt", "--pattern", "house"]);
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
        let args = query(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode=sample",
            "--sample-rate=0.25",
            "--sample-seed=7",
        ]);
        assert_eq!(args.mode, CliMode::Sample);
        assert_eq!(args.sample_rate, 0.25);
        assert_eq!(args.sample_seed, 7);
        let args = query(&[
            "count",
            "--graph",
            "g.txt",
            "--pattern",
            "house",
            "--mode",
            "enumerate",
            "--limit",
            "12",
        ]);
        assert_eq!(args.mode, CliMode::Enumerate);
        assert_eq!(args.limit, 12);
        // Defaults: exact count; seed 0, rate 0.1 and limit 100 documented.
        let args = query(&["count", "--graph", "g.txt", "--pattern", "house"]);
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
        let Command::Remote(remote) = args else {
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
        let Command::Remote(remote) = args else {
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
        let Command::Remote(remote) = args else {
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
        let Command::Remote(remote) = parsed else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.mutate.as_deref(), Some("ops.txt"));

        // Action-free remote invocations are rejected; action flags alone
        // are fine (default address).
        assert!(parse_args(&strings(&["remote"])).is_err());
        assert!(parse_args(&strings(&["remote", "--addr", "h:1"])).is_err());
        for solo in ["--ping", "--stats", "--shutdown", "--probe-malformed"] {
            let parsed = parse_args(&strings(&["remote", solo])).unwrap();
            assert!(matches!(parsed, Command::Remote(_)), "{solo}");
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
        let Command::Remote(remote) = args else {
            panic!("expected a remote command");
        };
        assert_eq!(remote.retries, 8);
        assert_eq!(remote.backoff_ms, 5);
        assert_eq!(remote.chaos_seed, Some(42));
        // Defaults: one attempt, no chaos.
        let args = parse_args(&strings(&["remote", "--ping"])).unwrap();
        let Command::Remote(remote) = args else {
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
        let Command::Remote(remote) = args else {
            panic!("expected a remote command");
        };
        assert_eq!(
            remote.endpoints,
            vec!["127.0.0.1:7431", "127.0.0.1:7432", "127.0.0.1:7433"]
        );
        assert_eq!(remote.repeat, 6);
        // Everything a remote run does over one address it does over a
        // rotation: mutations, chaos injection, several clients, count
        // modes and enumeration.
        for good in [
            vec!["remote", "--endpoints", "h:1,h:2", "--mutate", "o"],
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
            vec![
                "remote",
                "--endpoints",
                "h:1,h:2",
                "--pattern",
                "p1",
                "--mode=sample",
            ],
            vec![
                "remote",
                "--endpoints",
                "h:1,h:2",
                "--pattern",
                "p1",
                "--enumerate",
            ],
        ] {
            assert!(parse_args(&strings(&good)).is_ok(), "{good:?}");
        }
        // The single-connection probes need one address.
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
            vec!["remote", "--endpoints", ",", "--pattern", "p1"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }

        let args = parse_args(&strings(&["promote", "--addr", "127.0.0.1:7432"])).unwrap();
        assert_eq!(
            args,
            Command::Promote {
                addr: "127.0.0.1:7432".to_string()
            }
        );
        // Default address, like remote.
        let args = parse_args(&strings(&["promote"])).unwrap();
        assert_eq!(
            args,
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
        let Command::ChaosProxy(proxy) = args else {
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
        let Command::ChaosProxy(proxy) = args else {
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
        let Command::Update(update) = args else {
            panic!("expected an update command");
        };
        assert_eq!(update.graph_path, "g.txt");
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
        let engine = GraphPi::shared(std::sync::Arc::clone(durable.snapshot().graph()));
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

    #[test]
    fn every_row_of_every_flag_table_parses_and_refuses_as_declared() {
        for spec in COMMANDS {
            common::testing::check_rows(spec);
        }
    }

    /// The flags and defaults of the hand-written parsers the tables
    /// replaced: nothing added, renamed, removed or re-defaulted.
    #[test]
    fn the_tables_hold_exactly_the_flags_and_defaults_they_replaced() {
        let query = "--graph= --format=auto --pattern= --threads=0 --no-iep= \
                     --scalar-kernels= --list=0 --repeat=1 --session= --clients=1 \
                     --max-in-flight=0 --mode=count --sample-rate=0.1 --sample-seed=0 --limit=100";
        let expected = [
            ("stats", query),
            ("plan", query),
            ("count", query),
            ("convert", ""),
            (
                "update",
                "--graph= --format=auto --wal= --insert= --delete= --ops= --checkpoint=",
            ),
            (
                "remote",
                "--addr=127.0.0.1:7431 --endpoints= --pattern= --clients=1 --repeat=1 --no-iep= \
                 --deadline-ms=0 --retries=1 --backoff-ms=10 --chaos-seed= --ping= \
                 --stats= --probe-malformed= --shutdown= --mutate= --mode=count \
                 --sample-rate=0.1 --sample-seed=0 --enumerate= --limit=100 --page-size=0",
            ),
            ("promote", "--addr=127.0.0.1:7431"),
            (
                "chaos-proxy",
                "--upstream= --listen=127.0.0.1:0 --seed=0 --stall-per-mille=50 --stall-ms=2 \
                 --reset-per-mille=20 --partial-per-mille=20",
            ),
        ];
        for (spec, (name, rows)) in COMMANDS.iter().zip(expected) {
            assert_eq!(spec.name(), name);
            let declared: Vec<String> = spec
                .flags
                .iter()
                .map(|flag| format!("{}={}", flag.name, flag.default))
                .collect();
            assert_eq!(declared.join(" "), rows, "{name}");
        }
    }

    /// The wording of every bound and choice a flag enforces, as the
    /// hand-written parsers spelled it.
    #[test]
    fn out_of_bounds_operands_keep_their_wording() {
        let count = ["count", "--graph", "g", "--pattern", "p1"];
        let cases: &[(&[&str], &[&str], &str)] = &[
            (&count, &["--repeat", "0"], "--repeat must be at least 1"),
            (&count, &["--clients", "0"], "--clients must be at least 1"),
            (
                &count,
                &["--mode=enumerate", "--limit", "0"],
                "--limit must be at least 1 (an empty enumeration is a no-op)",
            ),
            (
                &count,
                &["--mode=sample", "--sample-rate", "2"],
                "--sample-rate must be in (0, 1]",
            ),
            (
                &count,
                &["--sample-rate", "half"],
                "--sample-rate must be a number",
            ),
            (
                &count,
                &["--format", "tsv"],
                "unknown format \"tsv\" (auto|text|binary)",
            ),
            (
                &count,
                &["--mode", "turbo"],
                "unknown mode \"turbo\" (count|orbit|sample|enumerate)",
            ),
            (&count, &["--threads"], "--threads needs a value"),
            (
                &["remote", "--ping"],
                &["--retries", "0"],
                "--retries must be at least 1 (the first attempt)",
            ),
            (
                &["remote", "--ping"],
                &["--deadline-ms", "4294967296"],
                "--deadline-ms must be an integer",
            ),
            (
                &["chaos-proxy", "--upstream", "h:1"],
                &["--reset-per-mille", "1001"],
                "--reset-per-mille is per mille (0..=1000)",
            ),
            (
                &["update", "--graph", "g", "--wal", "w"],
                &["--insert", "0"],
                "--insert needs two vertex ids",
            ),
            (
                &["update", "--graph", "g", "--wal", "w"],
                &["--delete", "a", "b"],
                "--delete vertices must be integers",
            ),
        ];
        for (base, extra, message) in cases {
            let argv = [*base, *extra].concat();
            assert_eq!(
                parse_args(&strings(&argv)).unwrap_err(),
                *message,
                "{argv:?}"
            );
        }
    }

    #[test]
    fn bad_patterns_are_errors_not_panics() {
        for (name, needle) in [
            ("cycle2", "cycleK needs K in 3..=8, got 2"),
            ("clique200000", "cliqueK needs K in 1..=8, got 200000"),
            ("path0", "pathK needs K in 1..=8"),
            ("star9", "starK needs K in 1..=8"),
            ("adj:010", "length 3 is not a square"),
            ("adj:01x0", "not 0 or 1"),
            ("adj:0100", "not symmetric"),
            ("adj:1001", "self loop"),
        ] {
            let error = resolve_pattern(name).unwrap_err();
            assert!(error.contains(needle), "{name}: {error}");
            assert!(!error.contains('\n'), "{name}: one line");
        }
        assert_eq!(resolve_pattern("cycle3").unwrap(), prefab::triangle());
        assert_eq!(resolve_pattern("cycle6tri").unwrap(), prefab::cycle_6_tri());
    }

    #[test]
    fn an_unknown_command_is_named_on_one_line() {
        let error = parse_args(&strings(&["foo"])).unwrap_err();
        assert!(error.starts_with("unknown command \"foo\""), "{error}");
        assert!(!error.contains('\n'), "{error}");
        assert!(parse_args(&[])
            .unwrap_err()
            .starts_with("unknown command \"\""));
    }

    #[test]
    fn a_failing_client_fails_the_run_without_a_panic() {
        let ran = run_clients(3, |index| {
            if index == 1 {
                Err("client 1: boom".to_string())
            } else {
                Ok(index)
            }
        });
        assert_eq!(ran.unwrap_err(), "client 1: boom");
        assert_eq!(run_clients(3, Ok).unwrap(), [0, 1, 2]);
        let panicked = run_clients(2, |index| -> Result<(), String> {
            panic!("client {index}")
        });
        assert_eq!(panicked.unwrap_err(), "client 0 panicked");
    }
}
