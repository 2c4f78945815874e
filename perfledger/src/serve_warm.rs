//! `serve_warm`: `Server::serve` in process on the 100-vertex graph (pool
//! of `T` workers), one blocking `Client` over loopback in a closed loop, a
//! warm plan cache. Matching is tens of microseconds, so pool dispatch, the
//! `Session` hit path, the frame codec, admission, the connection handler
//! and the socket dominate; kernels do little.
//!
//! One connection, not `T`: with `T` requests in flight the box settles
//! into one of two scheduling regimes per run (p50 150 or 190 µs for the
//! same binary and inputs), with one it repeats within 3 %. What `T`
//! connections do to latency and throughput is measured ungated by the
//! probes (`net.server.loaded_*`, `net.server.queueing_share`).
//!
//! Primary operation: one **count round** — count(triangle),
//! count(rectangle), count(house), in a seeded order. Secondary operation:
//! one **mode round** — per-vertex counts of house, a sampled estimate of
//! house, a full enumeration of triangle. Rounds, because a per-request
//! median over three unequal requests sits on whichever is in the middle.

use crate::harness::{self, Checks, Connection, Outcome, RunCtx, WindowRec};
use crate::inputs::{self, Named};
use crate::json::Value;
use crate::probes;
use crate::reference;
use crate::trace::SpanBuf;
use graphpi_core::config::PoolOptions;
use graphpi_core::engine::{GraphPi, PlanOptions};
use graphpi_core::net::{
    Client, CountExt, NetError, QueryMode, RemoteCountOptions, ServerReport, StatsOk,
};
use graphpi_core::ServerHandle;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Sampling rate of the sampled-estimate query.
const SAMPLE_RATE: f64 = 0.5;
/// Sample seeds the connection rotates through.
const SAMPLE_SEEDS: u64 = 4;
/// Budget of the enumeration query (above the triangle count, so the
/// whole match set comes back and its length is checked exactly).
const ENUMERATE_LIMIT: u64 = 4_096;
/// Indices into [`inputs::serve_patterns`].
const TRIANGLE: usize = 0;
const HOUSE: usize = 2;

/// What every reply is checked against.
struct Expected {
    /// The reference engine (same seeded graph as the served one).
    engine: GraphPi,
    /// The count round, in this run's order.
    round: Vec<Named>,
    /// Reference count of each pattern in `round`.
    counts: Vec<u64>,
    triangle: Named,
    triangle_count: u64,
    house: Named,
    house_count: u64,
    /// Sample seed → estimate bits, computed in process on one thread.
    estimates: BTreeMap<u64, u64>,
}

struct Conn {
    client: Client,
    sample_turn: u64,
    sample_base: u64,
    rec: WindowRec,
    spans: SpanBuf,
    checks: Checks,
    /// COUNT-opcode requests sent (plain, orbit and sample).
    count_requests: u64,
    enumerations: u64,
}

impl Connection for Conn {
    fn recording(&mut self) -> (&mut WindowRec, &mut SpanBuf) {
        (&mut self.rec, &mut self.spans)
    }
}

impl Conn {
    fn step(&mut self, expected: &Expected) {
        self.count_round(expected);
        self.mode_round(expected);
    }

    fn count_round(&mut self, expected: &Expected) {
        let start = Instant::now();
        let root = self.spans.root("serve.count_round");
        for ((name, pattern), want) in expected.round.iter().zip(&expected.counts) {
            let span = self.spans.child("client.count", root);
            let reply = self.client.count(pattern);
            self.spans.close(span);
            self.count_requests += 1;
            let got = reply.as_ref().map(|r| r.count);
            self.checks.op(got.as_ref().ok() == Some(want), || {
                format!("remote count({name}) = {got:?}, reference {want}")
            });
        }
        self.spans.close(root);
        self.rec.primary.record(start.elapsed().as_nanos() as u64);
    }

    fn mode_round(&mut self, expected: &Expected) {
        let start = Instant::now();
        let root = self.spans.root("serve.mode_round");
        let (_, house) = &expected.house;
        self.sample_turn += 1;
        let sample = QueryMode::sample(
            self.sample_base + self.sample_turn % SAMPLE_SEEDS,
            SAMPLE_RATE,
        );
        for mode in [QueryMode::Orbit, sample] {
            let span = self.spans.child("client.count_with", root);
            let reply = self.client.count_with(
                house,
                RemoteCountOptions {
                    mode,
                    ..RemoteCountOptions::default()
                },
            );
            self.spans.close(span);
            self.count_requests += 1;
            let ok = reply.as_ref().is_ok_and(|r| match (mode, r.ext) {
                (QueryMode::Orbit, CountExt::Orbit(orbit)) => {
                    r.count == expected.house_count
                        && orbit.sum == expected.house_count * house.num_vertices() as u64
                }
                (QueryMode::Sample { seed, .. }, CountExt::Sample(sample)) => {
                    expected.estimates.get(&seed) == Some(&sample.estimate_bits)
                }
                _ => false,
            });
            self.checks
                .op(ok, || format!("remote {mode:?}(house) = {reply:?}"));
        }

        let (_, triangle) = &expected.triangle;
        let span = self.spans.child("client.enumerate", root);
        let reply = self.client.enumerate(triangle, ENUMERATE_LIMIT);
        self.spans.close(span);
        self.enumerations += 1;
        let ok = reply.as_ref().is_ok_and(|r| {
            r.embeddings.len() as u64 == expected.triangle_count.min(ENUMERATE_LIMIT)
                && r.embeddings
                    .iter()
                    .all(|e| reference::embedding_is_valid(triangle, expected.engine.graph(), e))
        });
        self.checks.op(ok, || {
            format!(
                "remote enumerate(triangle) returned {:?} embeddings, reference {}",
                reply.as_ref().map(|r| r.embeddings.len()),
                expected.triangle_count
            )
        });
        self.spans.close(root);
        self.rec.secondary.record(start.elapsed().as_nanos() as u64);
    }
}

struct Ready {
    engine: Arc<GraphPi>,
    handle: ServerHandle,
    server: JoinHandle<Result<ServerReport, NetError>>,
    conn: Conn,
}

fn sample_base(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)
}

fn setup(ctx: &RunCtx, expected: &Expected) -> Ready {
    let engine = Arc::new(GraphPi::new(ctx.sizing.small_graph.build(ctx.seed)));
    let (server, handle) = harness::bind_loopback(ctx.threads);
    let served = Arc::clone(&engine);
    let server = std::thread::spawn(move || server.serve(&served));
    let mut conn = Conn {
        client: Client::connect(handle.addr()).expect("connect loopback"),
        sample_turn: 0,
        sample_base: sample_base(ctx.seed),
        rec: WindowRec::new(),
        spans: SpanBuf::off(),
        checks: Checks::default(),
        count_requests: 0,
        enumerations: 0,
    };
    // Ready means warm: one round of each kind plans every distinct query
    // into the server's cache.
    conn.step(expected);
    Ready {
        engine,
        handle,
        server,
        conn,
    }
}

fn teardown(ready: Ready) -> (Checks, ServerReport) {
    let Ready {
        handle,
        server,
        conn,
        ..
    } = ready;
    let checks = conn.checks;
    drop(conn.client);
    handle.shutdown();
    let report = harness::drained(server.join());
    (checks, report)
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    // References, computed in process on the same seeded graph before any
    // server exists.
    let engine = GraphPi::new(ctx.sizing.small_graph.build(ctx.seed));
    let patterns = inputs::serve_patterns();
    let reference_count = |(name, pattern): &Named| {
        let plan = engine
            .plan(pattern, PlanOptions::default())
            .expect("serve pattern plans");
        let count = reference::reference_count(&plan.plan, engine.graph());
        assert_eq!(
            count,
            reference::naive_count(pattern, engine.graph()),
            "references disagree on {name}"
        );
        count
    };
    let round = inputs::shuffled(&patterns, ctx.seed, "serve-round");
    let counts = round.iter().map(reference_count).collect();
    let (triangle, house) = (patterns[TRIANGLE].clone(), patterns[HOUSE].clone());
    let estimates = {
        // One worker thread: the estimate may not depend on scheduling.
        let session = engine.session_with(
            PoolOptions {
                threads: 1,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            Default::default(),
        );
        (0..SAMPLE_SEEDS)
            .map(|k| {
                let seed = sample_base(ctx.seed) + k;
                let approx = session
                    .count_approx(&house.1, SAMPLE_RATE, seed)
                    .expect("reference estimate");
                (seed, approx.estimate.to_bits())
            })
            .collect()
    };
    let expected = Expected {
        triangle_count: reference_count(&triangle),
        house_count: reference_count(&house),
        round,
        counts,
        triangle,
        house,
        estimates,
        engine,
    };

    let mut checks = Checks::default();
    let (setup_s, mut ready) = harness::timed_setups(
        ctx,
        || setup(ctx, &expected),
        |ready| checks.merge(teardown(ready).0),
    );
    assert_eq!(
        ready.engine.graph(),
        expected.engine.graph(),
        "set-up graph differs from the reference graph"
    );

    let (untraced, traced) = harness::run_phases(ctx, |window_length, windows, spans| {
        let conns = std::slice::from_mut(&mut ready.conn);
        harness::run_windows(conns, window_length, windows, spans, |conn| {
            conn.step(&expected)
        })
    });

    // The server's own counters must agree with what the client sent.
    let (count_requests, enumerations) = (ready.conn.count_requests, ready.conn.enumerations);
    let stats = ready.conn.client.stats();
    checks.op(stats.is_ok(), || format!("STATS failed: {stats:?}"));
    let stats = stats.unwrap_or_default();
    check_server_stats(&mut checks, &stats, count_requests, enumerations);
    let hit_ratio = harness::hit_ratio(stats.cache_hits, stats.cache_misses);
    checks.invariant(hit_ratio >= 0.99, || {
        format!(
            "serve_warm hit ratio {hit_ratio} (hits {}, misses {})",
            stats.cache_hits, stats.cache_misses
        )
    });

    let mut layer = harness::LayerMetrics::new();
    if ctx.trace {
        layer = probes::run_all(ctx, &ready.engine, &patterns, &mut checks);
        probes::insert_cache_stats(
            &mut layer,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
        );
        probes::insert_server_stats(&mut layer, &stats);
    }

    let graph_vertices = ready.engine.graph().num_vertices();
    let graph_edges = ready.engine.graph().num_edges();
    let (conn_checks, report) = teardown(ready);
    checks.merge(conn_checks);
    checks.invariant(report.queries == count_requests, || {
        format!(
            "server drained with {} queries, the client sent {count_requests}",
            report.queries
        )
    });

    let info = vec![
        ("graph_vertices", Value::Number(graph_vertices as f64)),
        ("graph_edges", Value::Number(graph_edges as f64)),
        ("connections", Value::Number(1.0)),
        (
            "loop",
            Value::String("closed: one request in flight".into()),
        ),
        (
            "count_round",
            Value::String(
                expected
                    .round
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
        ("count_requests", Value::Number(count_requests as f64)),
        ("enumerations", Value::Number(enumerations as f64)),
    ];
    Outcome {
        checks,
        setup_s,
        untraced,
        traced,
        layer,
        info,
    }
}

/// The server's counters after a clean phase: every count request the
/// clients sent entered execution, and nothing was shed, timed out or
/// malformed.
pub fn check_server_stats(
    checks: &mut Checks,
    stats: &StatsOk,
    count_requests: u64,
    enumerations: u64,
) {
    checks.invariant(stats.queries_total == count_requests, || {
        format!(
            "server queries_total {} but clients sent {count_requests}",
            stats.queries_total
        )
    });
    checks.invariant(stats.enumerations_total == enumerations, || {
        format!(
            "server enumerations_total {} but clients sent {enumerations}",
            stats.enumerations_total
        )
    });
    checks.invariant(
        stats.overload_rejections == 0
            && stats.deadline_exceeded == 0
            && stats.protocol_errors == 0,
        || {
            format!(
                "server shed or failed requests: {} overload, {} deadline, {} protocol",
                stats.overload_rejections, stats.deadline_exceeded, stats.protocol_errors
            )
        },
    );
}
