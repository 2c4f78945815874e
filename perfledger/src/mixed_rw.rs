//! `mixed_rw`: `Server::serve_dynamic` over a durable `DynamicEngine`
//! (WAL in a fresh directory, fsync per commit as shipped, pool of `T`
//! workers) on a 1 500-vertex power-law graph. One writer connection
//! commits `update` batches of 64 edges — it inserts its seeded pool chunk
//! by chunk, then deletes it chunk by chunk, so |E| swings between 7 485
//! and 9 533 and overlay compaction and WAL checkpoints fire many times per phase —
//! beside one reader connection looping `count(house)`. Every commit
//! publishes a new generation, so the reader also re-plans.
//!
//! Primary operation: one read. Secondary operation: one acked write.
//! Reads and writes trade against each other through the overlay,
//! compaction and the pool: judge a change on all four numbers together.

use crate::harness::{self, Checks, Connection, Outcome, RunCtx, WindowRec};
use crate::inputs;
use crate::json::Value;
use crate::probes;
use crate::reference;
use crate::serve_warm::check_server_stats;
use crate::trace::SpanBuf;
use graphpi_core::engine::{GraphPi, PlanOptions};
use graphpi_core::net::{Client, NetError, ServerReport};
use graphpi_core::{DynamicEngine, ServerHandle};
use graphpi_graph::wal::DurableGraphOptions;
use graphpi_graph::{CsrGraph, GraphBuilder};
use graphpi_pattern::Pattern;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Writer {
    client: Client,
    pool: Vec<Vec<(u32, u32)>>,
    /// Which pool chunks are currently in the graph (the shadow state).
    present: Vec<bool>,
    next: usize,
    acked: u64,
}

struct Reader {
    client: Client,
    pattern: Pattern,
    reads: u64,
}

enum Role {
    Writer(Writer),
    Reader(Reader),
}

struct Conn {
    role: Role,
    rec: WindowRec,
    spans: SpanBuf,
    checks: Checks,
}

impl Connection for Conn {
    fn recording(&mut self) -> (&mut WindowRec, &mut SpanBuf) {
        (&mut self.rec, &mut self.spans)
    }
}

impl Conn {
    fn step(&mut self) {
        let start = Instant::now();
        match &mut self.role {
            Role::Writer(writer) => {
                let chunk = &writer.pool[writer.next];
                let inserting = !writer.present[writer.next];
                let root = self.spans.root("mixed.write");
                let span = self.spans.child("client.update", root);
                let reply = if inserting {
                    writer.client.update(chunk, &[])
                } else {
                    writer.client.update(&[], chunk)
                };
                self.spans.close(span);
                let changed = reply
                    .as_ref()
                    .map(|r| if inserting { r.inserted } else { r.deleted });
                self.checks
                    .op(changed.as_ref().ok() == Some(&(chunk.len() as u32)), || {
                        format!("update of {} edges changed {changed:?}", chunk.len())
                    });
                if reply.is_ok() {
                    writer.present[writer.next] = inserting;
                    writer.acked += 1;
                }
                writer.next = (writer.next + 1) % writer.pool.len();
                self.spans.close(root);
                self.rec.secondary.record(start.elapsed().as_nanos() as u64);
            }
            Role::Reader(reader) => {
                let root = self.spans.root("mixed.read");
                let span = self.spans.child("client.count", root);
                let reply = reader.client.count(&reader.pattern);
                self.spans.close(span);
                reader.reads += 1;
                self.checks.op(reply.is_ok(), || {
                    format!("remote count(house) failed: {reply:?}")
                });
                self.spans.close(root);
                self.rec.primary.record(start.elapsed().as_nanos() as u64);
            }
        }
    }
}

struct Ready {
    base: CsrGraph,
    dir: PathBuf,
    engine: Arc<DynamicEngine>,
    handle: ServerHandle,
    server: JoinHandle<Result<ServerReport, NetError>>,
    conns: Vec<Conn>,
}

fn durable_options(ctx: &RunCtx) -> DurableGraphOptions {
    DurableGraphOptions {
        compaction_threshold: ctx.sizing.compaction_threshold,
        checkpoint_wal_bytes: ctx.sizing.checkpoint_wal_bytes,
    }
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("graph.wal")
}

fn setup(ctx: &RunCtx, rep: usize) -> Ready {
    let base = ctx.sizing.mixed_graph.build(ctx.seed);
    let dir = ctx.scratch.join(format!("mixed-rw-{rep}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create WAL directory");
    let (engine, recovery) =
        DynamicEngine::durable(base.clone(), wal_path(&dir), durable_options(ctx))
            .expect("open a fresh durable engine");
    assert!(recovery.created, "the WAL directory was not fresh");
    let engine = Arc::new(engine);
    let (server, handle) = harness::bind_loopback(ctx.threads);
    let served = Arc::clone(&engine);
    let server = std::thread::spawn(move || server.serve_dynamic(&served));

    let connect = || Client::connect(handle.addr()).expect("connect loopback");
    let pool = inputs::edge_pool(
        &base,
        ctx.sizing.pool_chunks,
        ctx.sizing.batch_edges,
        ctx.seed,
    );
    let roles = [
        Role::Writer(Writer {
            client: connect(),
            present: vec![false; pool.len()],
            pool,
            next: 0,
            acked: 0,
        }),
        Role::Reader(Reader {
            client: connect(),
            pattern: inputs::mixed_pattern().1,
            reads: 0,
        }),
    ];
    let mut conns: Vec<Conn> = roles
        .into_iter()
        .map(|role| Conn {
            role,
            rec: WindowRec::new(),
            spans: SpanBuf::off(),
            checks: Checks::default(),
        })
        .collect();
    // Ready means the first read has been answered (its plan is cached).
    conns[1].step();
    Ready {
        base,
        dir,
        engine,
        handle,
        server,
        conns,
    }
}

/// Stops the server and returns the connections' tallies, the engine (now
/// unshared) and the drain report.
fn stop(ready: Ready) -> (Checks, Arc<DynamicEngine>, ServerReport, CsrGraph, PathBuf) {
    let Ready {
        base,
        dir,
        engine,
        handle,
        server,
        conns,
    } = ready;
    let mut checks = Checks::default();
    for conn in conns {
        checks.merge(conn.checks);
    }
    handle.shutdown();
    let report = harness::drained(server.join());
    (checks, engine, report, base, dir)
}

/// The graph the shadow state says the engine must hold.
fn shadow_graph(base: &CsrGraph, writer: &Writer) -> CsrGraph {
    let mut builder = GraphBuilder::new().num_vertices(base.num_vertices());
    for (u, v) in base.edges() {
        builder.push_edge(u, v);
    }
    for (chunk, _) in writer.pool.iter().zip(&writer.present).filter(|(_, &p)| p) {
        for &(u, v) in chunk {
            builder.push_edge(u, v);
        }
    }
    builder.build()
}

/// Runs the workload.
pub fn run(ctx: &RunCtx) -> Outcome {
    let mut checks = Checks::default();
    let mut rep = 0;
    let (setup_s, mut ready) = harness::timed_setups(
        ctx,
        || {
            rep += 1;
            setup(ctx, rep)
        },
        |ready| {
            let (conn_checks, _, _, _, dir) = stop(ready);
            checks.merge(conn_checks);
            std::fs::remove_dir_all(dir).ok();
        },
    );

    let (untraced, traced) = harness::run_phases(ctx, |window_length, windows, spans| {
        harness::run_windows(&mut ready.conns, window_length, windows, spans, Conn::step)
    });

    // Quiesced: the live count, a static engine built from the shadow edge
    // list, and (below) the engine recovered from the WAL must agree.
    let (_, house) = inputs::mixed_pattern();
    let Role::Writer(writer) = &ready.conns[0].role else {
        unreachable!("connection 0 is the writer")
    };
    let shadow = GraphPi::new(shadow_graph(&ready.base, writer));
    let shadow_plan = shadow
        .plan(&house, PlanOptions::default())
        .expect("house plans");
    let shadow_count = reference::reference_count(&shadow_plan.plan, shadow.graph());
    let acked = writer.acked;
    let overlay_chunks = writer.present.iter().filter(|&&p| p).count();

    let Role::Reader(reader) = &mut ready.conns[1].role else {
        unreachable!("connection 1 is a reader")
    };
    let live = reader.client.count(&house).map(|r| r.count);
    reader.reads += 1;
    checks.op(live.as_ref().ok() == Some(&shadow_count), || {
        format!("quiesced live count {live:?}, shadow graph count {shadow_count}")
    });
    let stats = reader.client.stats();
    checks.op(stats.is_ok(), || format!("STATS failed: {stats:?}"));
    let stats = stats.unwrap_or_default();
    let reads: u64 = ready
        .conns
        .iter()
        .map(|c| match &c.role {
            Role::Reader(r) => r.reads,
            Role::Writer(_) => 0,
        })
        .sum();
    check_server_stats(&mut checks, &stats, reads, 0);
    let generation = ready.engine.generation();
    checks.invariant(generation == acked, || {
        format!("engine at generation {generation} after {acked} acked batches")
    });
    let wal_epoch = ready.engine.wal_epoch().unwrap_or(0);

    let mut layer = harness::LayerMetrics::new();
    if ctx.trace {
        let pin = ready.engine.pin();
        layer = probes::run_all(ctx, pin.engine(), &[inputs::mixed_pattern()], &mut checks);
        probes::insert_cache_stats(
            &mut layer,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
        );
        probes::insert_server_stats(&mut layer, &stats);
    }

    let (conn_checks, engine, report, base, dir) = stop(ready);
    checks.merge(conn_checks);
    checks.invariant(report.updates == acked, || {
        format!(
            "server drained with {} updates, the writer saw {acked} acks",
            report.updates
        )
    });
    drop(
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("the engine is still shared after the server drained")),
    );

    // Durability: reopen from the files alone.
    let start = Instant::now();
    let recovered = DynamicEngine::durable(base, wal_path(&dir), durable_options(ctx));
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    match recovered {
        Ok((engine, recovery)) => {
            let count = engine.pin().engine().count(&house);
            checks.op(count == Ok(shadow_count) && recovery.generation == acked, || {
                format!(
                    "recovered count {count:?} at generation {}, expected {shadow_count} at {acked}",
                    recovery.generation
                )
            });
        }
        Err(error) => checks.op(false, || format!("WAL recovery failed: {error}")),
    }
    if ctx.trace {
        layer.insert("wal.recover_ms", (recover_ms, "ms"));
    }
    std::fs::remove_dir_all(&dir).ok();

    let info = vec![
        (
            "graph_vertices",
            Value::Number(ctx.sizing.mixed_graph.vertices as f64),
        ),
        (
            "graph_edges_at_quiesce",
            Value::Number(shadow.graph().num_edges() as f64),
        ),
        (
            "connections",
            Value::String("1 writer + 1 reader, closed loop".into()),
        ),
        ("batch_edges", Value::Number(ctx.sizing.batch_edges as f64)),
        ("pool_chunks", Value::Number(ctx.sizing.pool_chunks as f64)),
        (
            "pool_chunks_present_at_quiesce",
            Value::Number(overlay_chunks as f64),
        ),
        (
            "wal_flush_policy",
            Value::String("fsync per commit (as shipped; not configurable)".into()),
        ),
        (
            "compaction_threshold_edges",
            Value::Number(ctx.sizing.compaction_threshold as f64),
        ),
        (
            "checkpoint_wal_bytes",
            Value::Number(ctx.sizing.checkpoint_wal_bytes as f64),
        ),
        ("wal_checkpoints", Value::Number(wal_epoch as f64)),
        ("acked_batches", Value::Number(acked as f64)),
        ("reads", Value::Number(reads as f64)),
        (
            "scratch_fs",
            Value::String(crate::report::fs_type(&ctx.scratch)),
        ),
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
