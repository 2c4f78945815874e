//! Per-layer probes: each times one layer's public entry points on the
//! workload's own graph and patterns, from outside. They run only in the
//! traced run, after the timed phases, and every workload runs all of
//! them — a layer a workload never touches is still priced on that
//! workload's inputs, which is what makes the layer numbers comparable
//! across workloads.

use crate::harness::{bind_loopback, drained, hit_ratio, median_ns, Checks, LayerMetrics, RunCtx};
use crate::inputs::{self, Named};
use crate::stats;
use graphpi_core::config::{Configuration, PoolOptions, ServeOptions};
use graphpi_core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions};
use graphpi_core::exec::parallel::{self, CountMode, ParallelOptions};
use graphpi_core::exec::{iep, interp};
use graphpi_core::net::protocol::{self, op, CountOk, CountRequest, Frame};
use graphpi_core::net::{run_replication, Client, QueryMode, ReplState, StatsOk};
use graphpi_core::perf_model::{select_best, PerformanceModel};
use graphpi_core::schedule::efficient_schedules;
use graphpi_core::{DynamicEngine, Server, WorkerPool};
use graphpi_graph::delta::EdgeBatch;
use graphpi_graph::wal::DurableGraphOptions;
use graphpi_graph::{vertex_set, CsrGraph, GraphBuilder, HubGraph, HubOptions};
use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs every probe and returns the per-layer metrics they measure.
pub fn run_all(
    ctx: &RunCtx,
    engine: &GraphPi,
    patterns: &[Named],
    checks: &mut Checks,
) -> LayerMetrics {
    let mut layer = LayerMetrics::new();
    kernels(ctx, engine.graph(), &mut layer);
    hubs(ctx, engine.graph(), &mut layer);
    executors(ctx, engine, patterns, &mut layer);
    planner(ctx, engine, patterns, &mut layer);
    codec(ctx, patterns, &mut layer);
    serving(ctx, engine, patterns, checks, &mut layer);
    dynamic(ctx, engine, patterns, checks, &mut layer);
    layer
}

fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

fn us(nanos: f64) -> f64 {
    nanos / 1e3
}

/// `vertex_set`: the three two-set kernels over (N(u), N(v)) for up to
/// 512 evenly spaced edges of the workload graph, in ns per input element.
fn kernels(ctx: &RunCtx, graph: &CsrGraph, layer: &mut LayerMetrics) {
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let stride = (edges.len() / 512).max(1);
    let pairs: Vec<(&[u32], &[u32])> = edges
        .iter()
        .step_by(stride)
        .map(|&(u, v)| (graph.neighbors(u), graph.neighbors(v)))
        .collect();
    let elements: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
    let per_element = |nanos: f64| nanos / elements.max(1) as f64;
    let mut out = Vec::new();
    let budget = ctx.sizing.probe_budget;
    let intersect = median_ns(budget, || {
        for (a, b) in &pairs {
            vertex_set::intersect_into(a, b, &mut out);
            black_box(out.len());
        }
    });
    let intersect_count = median_ns(budget, || {
        for (a, b) in &pairs {
            black_box(vertex_set::intersect_count(a, b));
        }
    });
    let subtract = median_ns(budget, || {
        for (a, b) in &pairs {
            vertex_set::subtract_into(a, b, &mut out);
            black_box(out.len());
        }
    });
    layer.insert(
        "vertex_set.intersect_ns_per_elem",
        (per_element(intersect), "ns"),
    );
    layer.insert(
        "vertex_set.intersect_count_ns_per_elem",
        (per_element(intersect_count), "ns"),
    );
    layer.insert(
        "vertex_set.subtract_ns_per_elem",
        (per_element(subtract), "ns"),
    );
}

/// `hub`: building the hub index, and what its bitset rows weigh.
fn hubs(ctx: &RunCtx, graph: &CsrGraph, layer: &mut LayerMetrics) {
    let mut bytes = 0;
    let build = median_ns(ctx.sizing.probe_budget, || {
        bytes = black_box(HubGraph::build(graph, HubOptions::default())).bitset_bytes();
    });
    layer.insert("hub.build_ms", (ms(build), "ms"));
    layer.insert("hub.bitset_bytes", (bytes as f64, "bytes"));
}

/// `interp`, `iep`, `parallel`, `pool` and the sinks, per pattern, summed
/// over the workload's patterns.
fn executors(ctx: &RunCtx, engine: &GraphPi, patterns: &[Named], layer: &mut LayerMetrics) {
    let graph = engine.graph();
    let budget = ctx.sizing.probe_budget;
    let threads = ctx.threads;
    let enumerate = ParallelOptions {
        threads,
        mode: CountMode::Enumerate,
        ..ParallelOptions::default()
    };
    let pool = Arc::new(WorkerPool::new(threads));
    let session = engine.session_shared(
        Arc::clone(&pool),
        Arc::new(PlanCache::new(64)),
        PlanOptions::default(),
        CountOptions {
            use_iep: false,
            ..CountOptions::default()
        },
    );

    let (mut seq, mut seq_iep, mut scoped, mut unpinned, mut pooled) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut count_mode, mut orbit, mut enumeration, mut sample) = (0.0, 0.0, 0.0, 0.0);
    let (mut tasks, mut task_ns, mut timed_tasks) = (0usize, 0.0, 0usize);
    let mut worst_iep = f64::INFINITY;
    for (_, pattern) in patterns {
        let plan = engine
            .plan(pattern, PlanOptions::default())
            .expect("workload pattern plans");
        let plan = &plan.plan;
        let one_seq = median_ns(budget, || {
            black_box(interp::count_embeddings(plan, graph));
        });
        let one_iep = median_ns(budget, || {
            black_box(iep::count_embeddings_iep(plan, graph));
        });
        seq += one_seq;
        seq_iep += one_iep;
        worst_iep = worst_iep.min(one_seq / one_iep);
        scoped += median_ns(budget, || {
            black_box(parallel::count_parallel(plan, graph, enumerate));
        });
        // The same again with the run's CPU pin lifted: what `T` scoped
        // threads gain over one on this host.
        unpinned += ctx.cpus.with_all_cpus(|| {
            median_ns(budget, || {
                black_box(parallel::count_parallel(plan, graph, enumerate));
            })
        });
        pooled += median_ns(budget, || {
            black_box(pool.count(plan, graph, &enumerate));
        });

        // Prefix tasks: how many one query decomposes into (exact), and
        // what one costs (over at most 4 096 evenly spaced tasks).
        let depth = parallel::default_prefix_depth(plan);
        let prefixes = interp::enumerate_prefixes(plan, graph, depth);
        tasks += prefixes.len();
        let stride = (prefixes.len() / 4_096).max(1);
        let start = Instant::now();
        for prefix in prefixes.iter().step_by(stride) {
            black_box(interp::count_from_prefix(plan, graph, prefix));
            timed_tasks += 1;
        }
        task_ns += start.elapsed().as_nanos() as f64;

        // Sinks against plain counting on the same IEP-free plan.
        let mode_plan = session
            .mode_plan_cached(pattern)
            .expect("workload pattern plans");
        count_mode += median_ns(budget, || {
            black_box(session.execute_count(&mode_plan.plan));
        });
        orbit += median_ns(budget, || {
            black_box(session.count_per_vertex(pattern).expect("orbit probe"));
        });
        enumeration += median_ns(budget, || {
            black_box(
                session
                    .enumerate(pattern, ctx.sizing.enumerate_limit)
                    .expect("enumerate probe"),
            );
        });
        sample += median_ns(budget, || {
            black_box(
                session
                    .count_approx(pattern, 0.1, ctx.seed)
                    .expect("sample probe"),
            );
        });
    }
    let queries = patterns.len().max(1) as f64;
    layer.insert("interp.seq_count_ms", (ms(seq), "ms"));
    layer.insert(
        "interp.prefix_task_ns",
        (task_ns / timed_tasks.max(1) as f64, "ns"),
    );
    layer.insert("interp.tasks_per_query", (tasks as f64 / queries, "count"));
    layer.insert("iep.speedup", (seq / seq_iep, "ratio"));
    layer.insert("iep.speedup_min", (worst_iep, "ratio"));
    layer.insert("parallel.scoped_count_ms", (ms(scoped), "ms"));
    layer.insert("parallel.speedup_T", (seq / unpinned, "ratio"));
    layer.insert("pool.count_over_scoped", (pooled / scoped, "ratio"));
    layer.insert("sink.orbit_over_count", (orbit / count_mode, "ratio"));
    layer.insert(
        "sink.enumerate_over_count",
        (enumeration / count_mode, "ratio"),
    );
    layer.insert("sink.sample_over_count", (sample / count_mode, "ratio"));

    // Pool dispatch floor: a task-path plan on an edgeless graph has zero
    // prefix tasks, so the job is publish + wake + join and nothing else.
    let edgeless = GraphBuilder::new().num_vertices(64).build();
    let house = engine
        .plan(&graphpi_pattern::prefab::house(), PlanOptions::default())
        .expect("house plans");
    let dispatch = median_ns(budget, || {
        black_box(pool.count(&house.plan, &edgeless, &enumerate));
    });
    layer.insert("pool.dispatch_us", (us(dispatch), "us"));
}

/// `schedule`, `restriction`, `perf_model` and the whole `GraphPi::plan`,
/// as the mean per workload pattern.
fn planner(ctx: &RunCtx, engine: &GraphPi, patterns: &[Named], layer: &mut LayerMetrics) {
    let budget = ctx.sizing.probe_budget;
    let (mut schedule, mut restriction, mut rank, mut plan) = (0.0, 0.0, 0.0, 0.0);
    for (_, pattern) in patterns {
        schedule += median_ns(budget, || {
            black_box(efficient_schedules(pattern));
        });
        restriction += median_ns(budget, || {
            black_box(generate_restriction_sets(
                pattern,
                GenerationOptions::default(),
            ));
        });
        // The candidate list `GraphPi::plan` ranks under default options.
        let mut sets = generate_restriction_sets(pattern, GenerationOptions::default());
        sets.sort_by_key(|s| s.len());
        sets.truncate(PlanOptions::default().max_restriction_sets);
        let candidates: Vec<Configuration> = efficient_schedules(pattern)
            .iter()
            .flat_map(|schedule| {
                sets.iter()
                    .map(|set| Configuration::new(pattern.clone(), schedule.clone(), set.clone()))
            })
            .collect();
        let model = PerformanceModel::new(*engine.stats(), pattern.num_vertices());
        rank += median_ns(budget, || {
            black_box(select_best(&model, &candidates));
        });
        plan += median_ns(budget, || {
            black_box(
                engine
                    .plan(pattern, PlanOptions::default())
                    .expect("workload pattern plans"),
            );
        });
    }
    let n = patterns.len().max(1) as f64;
    layer.insert("schedule.generate_us", (us(schedule) / n, "us"));
    layer.insert("restriction.generate_us", (us(restriction) / n, "us"));
    layer.insert("perf_model.rank_us", (us(rank) / n, "us"));
    layer.insert("engine.plan_us", (us(plan) / n, "us"));
}

/// `net::protocol`: encoding a COUNT request frame and decoding a
/// COUNT_OK reply frame, in memory.
fn codec(ctx: &RunCtx, patterns: &[Named], layer: &mut LayerMetrics) {
    let budget = ctx.sizing.probe_budget;
    let request = CountRequest {
        no_iep: false,
        hub_bitsets: false,
        deadline_ms: 0,
        request_id: 0,
        min_generation: 0,
        mode: QueryMode::Count,
        pattern: patterns[0].1.canonical_bytes(),
    };
    let request_bytes = Frame::new(op::COUNT, request.encode()).encode().len();
    let reply = Frame::new(op::COUNT_OK, CountOk::new(123_456, 78).encode()).encode();
    // One call is tens of nanoseconds, below the clock's resolution: time
    // a thousand per sample.
    const REPS: usize = 1_000;
    let encode = median_ns(budget, || {
        for _ in 0..REPS {
            black_box(Frame::new(op::COUNT, black_box(&request).encode()).encode());
        }
    });
    let decode = median_ns(budget, || {
        for _ in 0..REPS {
            let frame =
                protocol::read_frame(&mut black_box(&reply[..])).expect("reply frame decodes");
            black_box(CountOk::decode(&frame.payload).expect("reply payload decodes"));
        }
    });
    layer.insert("net.protocol.encode_ns", (encode / REPS as f64, "ns"));
    layer.insert("net.protocol.decode_ns", (decode / REPS as f64, "ns"));
    layer.insert(
        "net.protocol.request_bytes",
        (request_bytes as f64, "bytes"),
    );
    layer.insert("net.protocol.reply_bytes", (reply.len() as f64, "bytes"));
}

/// Median of per-call latencies of `call` cycling through `patterns`,
/// sampled for about `budget` (at least one full cycle).
fn cycle_p50_ns(budget: Duration, patterns: &[Named], mut call: impl FnMut(&Named)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (start.elapsed() < budget && samples.len() < 100_000) {
        for named in patterns {
            let t = Instant::now();
            call(named);
            samples.push(t.elapsed().as_nanos() as f64);
        }
    }
    stats::median(&samples)
}

/// `engine` warm path in process, then the same queries through a
/// loopback server on one connection: the hit path, the ping floor, the
/// one-connection latency, and how well the layers add up to it.
fn serving(
    ctx: &RunCtx,
    engine: &GraphPi,
    patterns: &[Named],
    checks: &mut Checks,
    layer: &mut LayerMetrics,
) {
    let budget = ctx.sizing.probe_budget * 2;
    let pool_options = PoolOptions {
        threads: ctx.threads,
        ..PoolOptions::default()
    };
    let session = engine.session_with(
        pool_options,
        PlanOptions::default(),
        CountOptions::default(),
    );
    for (_, pattern) in patterns {
        session.count(pattern).expect("workload pattern counts");
    }
    let hit = median_ns(budget, || {
        black_box(session.plan_cached(&patterns[0].1).expect("cached plan"));
    });
    let warm = cycle_p50_ns(budget, patterns, |(_, pattern)| {
        black_box(session.count(pattern).expect("warm count"));
    });
    let expected: Vec<u64> = patterns
        .iter()
        .map(|(_, p)| session.count(p).expect("warm count"))
        .collect();
    drop(session);
    layer.insert("engine.session_hit_us", (us(hit), "us"));
    layer.insert("engine.session_count_warm_us", (us(warm), "us"));

    let (server, handle) = bind_loopback(ctx.threads);
    let (ping, c1, stats, sent) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(engine));
        let mut client = Client::connect(handle.addr()).expect("connect loopback");
        let mut sent = 0u64;
        for ((name, pattern), want) in patterns.iter().zip(&expected) {
            let got = client.count(pattern).map(|r| r.count);
            sent += 1;
            checks.op(got.as_ref().ok() == Some(want), || {
                format!("probe remote count({name}) = {got:?}, in-process {want}")
            });
        }
        let ping = median_ns(budget, || client.ping().expect("ping"));
        let c1 = cycle_p50_ns(budget, patterns, |(_, pattern)| {
            black_box(client.count(pattern).expect("remote count"));
            sent += 1;
        });
        let stats = client.stats().expect("STATS");
        drop(client);
        handle.shutdown();
        drained(serving.join());
        (ping, c1, stats, sent)
    });
    crate::serve_warm::check_server_stats(checks, &stats, sent, 0);
    insert_server_stats(layer, &stats);

    let codec_us = (layer["net.protocol.encode_ns"].0 + layer["net.protocol.decode_ns"].0) / 1e3;
    let decomposition = (us(ping) + codec_us + us(warm)) / us(c1);
    if !(0.7..=1.3).contains(&decomposition) {
        eprintln!(
            "warning: serve.decomposition_ratio {decomposition:.2} is outside 0.7-1.3: \
             ping {:.1} us + codec {codec_us:.2} us + warm count {:.1} us vs one-connection {:.1} us",
            us(ping),
            us(warm),
            us(c1)
        );
    }
    layer.insert("net.client.ping_rtt_us", (us(ping), "us"));
    layer.insert("net.client.latency_c1_p50_us", (us(c1), "us"));
    layer.insert("net.server.self_us", (us(c1) - us(warm) - us(ping), "us"));
    layer.insert("serve.decomposition_ratio", (decomposition, "ratio"));
    loaded(ctx, engine, patterns, layer);
}

/// What `T` connections at once do that one does not. Like
/// `parallel.speedup_T`, this runs with the CPU pin lifted (server and client threads spawned inside
/// spread over the host's CPUs): one connection first, then `T` in a
/// closed loop, on the same server. Ungated: on the reference box these
/// numbers move 20 % between identical runs.
fn loaded(ctx: &RunCtx, engine: &GraphPi, patterns: &[Named], layer: &mut LayerMetrics) {
    let budget = ctx.sizing.probe_budget * 4;
    let (alone_p50, loaded_p50, loaded_per_s) = ctx.cpus.with_all_cpus(|| {
        let (server, handle) = bind_loopback(ctx.threads);
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve(engine));
            let connect = || Client::connect(handle.addr()).expect("connect loopback");
            let mut first = connect();
            for (_, pattern) in patterns {
                first.count(pattern).expect("warming count");
            }
            let alone_p50 = cycle_p50_ns(budget, patterns, |(_, pattern)| {
                black_box(first.count(pattern).expect("remote count"));
            });
            let mut clients = vec![first];
            clients.resize_with(ctx.threads, connect);
            let start = Instant::now();
            let samples: Vec<f64> = std::thread::scope(|inner| {
                let threads: Vec<_> = clients
                    .iter_mut()
                    .map(|client| {
                        inner.spawn(move || {
                            let mut samples = Vec::new();
                            while start.elapsed() < budget {
                                for (_, pattern) in patterns {
                                    let t = Instant::now();
                                    black_box(client.count(pattern).expect("remote count"));
                                    samples.push(t.elapsed().as_nanos() as f64);
                                }
                            }
                            samples
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .flat_map(|t| t.join().expect("probe client panicked"))
                    .collect()
            });
            let elapsed = start.elapsed().as_secs_f64();
            drop(clients);
            handle.shutdown();
            drained(serving.join());
            (
                alone_p50,
                stats::median(&samples),
                samples.len() as f64 / elapsed,
            )
        })
    });
    layer.insert("net.server.loaded_p50_us", (us(loaded_p50), "us"));
    layer.insert("net.server.loaded_per_s", (loaded_per_s, "1/s"));
    layer.insert(
        "net.server.queueing_share",
        (1.0 - alone_p50 / loaded_p50, "ratio"),
    );
}

/// What the workload's own plan cache did over the run.
pub fn insert_cache_stats(layer: &mut LayerMetrics, hits: u64, misses: u64, evictions: u64) {
    layer.insert("engine.cache_hit_ratio", (hit_ratio(hits, misses), "ratio"));
    layer.insert("engine.cache_evictions", (evictions as f64, "count"));
}

/// The server-side counters a `STATS` reply carries.
pub fn insert_server_stats(layer: &mut LayerMetrics, stats: &StatsOk) {
    layer.insert(
        "net.server.queries_total",
        (stats.queries_total as f64, "count"),
    );
    layer.insert(
        "net.server.overload_rejections",
        (stats.overload_rejections as f64, "count"),
    );
    layer.insert(
        "net.server.deadline_exceeded",
        (stats.deadline_exceeded as f64, "count"),
    );
    layer.insert(
        "net.server.protocol_errors",
        (stats.protocol_errors as f64, "count"),
    );
    layer.insert(
        "net.server.p99_upper_us",
        (
            // The last bucket is open-ended (`u64::MAX`); cap it for printing.
            stats
                .latency
                .percentile_upper_bound_micros(0.99)
                .unwrap_or(0)
                .min(1 << 40) as f64,
            "us",
        ),
    );
}

/// `dynamic`, `delta`, `wal` and `net::replica` on twins of the workload
/// graph: apply cost with and without the log, pin cost, reading through
/// an overlay against reading after compaction, recovery, and a replica
/// catching up with a quiesced primary.
fn dynamic(
    ctx: &RunCtx,
    engine: &GraphPi,
    patterns: &[Named],
    checks: &mut Checks,
    layer: &mut LayerMetrics,
) {
    const CHUNKS: usize = 8;
    let budget = ctx.sizing.probe_budget;
    let graph = engine.graph();
    let pattern = &patterns[0].1;
    let pool = inputs::edge_pool(graph, CHUNKS, ctx.sizing.batch_edges, ctx.seed ^ 0xD1CE);
    let batches: Vec<(EdgeBatch, EdgeBatch)> = pool
        .iter()
        .map(|chunk| {
            (
                EdgeBatch::from_edges(chunk.clone(), vec![]),
                EdgeBatch::from_edges(vec![], chunk.clone()),
            )
        })
        .collect();
    // One sample = insert a chunk, then delete it: the graph is unchanged
    // afterwards, so every sample does the same work.
    let flip = |engine: &DynamicEngine, turn: &mut usize| {
        let (insert, delete) = &batches[*turn % CHUNKS];
        *turn += 1;
        engine.apply(insert).expect("probe insert applies");
        engine.apply(delete).expect("probe delete applies");
    };

    let volatile = DynamicEngine::volatile(graph.clone());
    let mut turn = 0;
    let apply_volatile = median_ns(budget, || flip(&volatile, &mut turn)) / 2.0;
    let pin = median_ns(budget, || {
        for _ in 0..1_000 {
            black_box(volatile.pin());
        }
    }) / 1_000.0;

    // Reading through an overlay vs. after folding it into the base.
    for (insert, _) in &batches {
        volatile.apply(insert).expect("probe insert applies");
    }
    let overlay_pin = volatile.pin();
    let through_overlay = median_ns(budget, || {
        black_box(overlay_pin.engine().count(pattern).expect("overlay count"));
    });
    let start = Instant::now();
    let compacted = volatile.compact();
    let compact = start.elapsed().as_nanos() as f64;
    let compacted_pin = volatile.pin();
    let after_compaction = median_ns(budget, || {
        black_box(
            compacted_pin
                .engine()
                .count(pattern)
                .expect("compacted count"),
        );
    });
    checks.invariant(compacted, || "probe compaction was not installed".into());

    // The same applies with the log underneath.
    let dir = ctx.scratch.join("probe-dynamic");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create probe directory");
    let options = DurableGraphOptions {
        checkpoint_wal_bytes: u64::MAX,
        ..DurableGraphOptions::default()
    };
    let wal = dir.join("primary.wal");
    let (durable, _) =
        DynamicEngine::durable(graph.clone(), &wal, options).expect("open probe WAL");
    let wal_before = durable.wal_len().unwrap_or(0);
    let mut turn = 0;
    let apply_durable = median_ns(budget, || flip(&durable, &mut turn)) / 2.0;
    let logged_edges = (2 * turn * ctx.sizing.batch_edges) as f64;
    let wal_bytes = (durable.wal_len().unwrap_or(0) - wal_before) as f64;
    // Leave some edges in, so recovery and the replica have a state to match.
    for (insert, _) in batches.iter().take(CHUNKS / 2) {
        durable.apply(insert).expect("probe insert applies");
    }
    let primary_count = durable
        .pin()
        .engine()
        .count(pattern)
        .expect("primary count");
    let primary_generation = durable.generation();

    // A replica catching up with the quiesced primary over loopback.
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let (replica, _) = DynamicEngine::durable(graph.clone(), dir.join("replica.wal"), options)
        .expect("open replica WAL");
    let repl = ReplState::replica(&handle.addr().to_string());
    let stop = AtomicBool::new(false);
    let catchup = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_dynamic(&durable));
        let start = Instant::now();
        let following = scope.spawn(|| run_replication(handle.addr(), &replica, &repl, &stop));
        while replica.generation() < primary_generation && start.elapsed() < Duration::from_secs(20)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        let catchup = start.elapsed();
        stop.store(true, Ordering::Release);
        following.join().expect("replication thread panicked");
        handle.shutdown();
        drained(serving.join());
        catchup
    });
    let replica_count = replica.pin().engine().count(pattern);
    checks.op(
        replica.generation() == primary_generation && replica_count == Ok(primary_count),
        || {
            format!(
                "replica at generation {} counts {replica_count:?}; primary at {primary_generation} counts {primary_count}",
                replica.generation()
            )
        },
    );
    drop(replica);
    drop(durable);

    // Recovery from the primary's files alone.
    let start = Instant::now();
    let recovered = DynamicEngine::durable(graph.clone(), &wal, options);
    let recover = start.elapsed().as_nanos() as f64;
    let recovered_count = recovered
        .as_ref()
        .map(|(engine, _)| engine.pin().engine().count(pattern));
    checks.op(
        matches!(recovered_count, Ok(Ok(count)) if count == primary_count),
        || format!("probe recovery counted {recovered_count:?}, primary {primary_count}"),
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    layer.insert("dynamic.apply_volatile_us", (us(apply_volatile), "us"));
    layer.insert("dynamic.pin_us", (us(pin), "us"));
    layer.insert(
        "dynamic.overlay_read_ratio",
        (through_overlay / after_compaction, "ratio"),
    );
    layer.insert("dynamic.compact_ms", (ms(compact), "ms"));
    layer.insert(
        "wal.fsync_share",
        (1.0 - apply_volatile / apply_durable, "ratio"),
    );
    layer.insert(
        "wal.bytes_per_edge",
        (wal_bytes / logged_edges.max(1.0), "bytes"),
    );
    layer.insert("wal.recover_ms", (ms(recover), "ms"));
    layer.insert(
        "net.replica.catchup_ms",
        (catchup.as_secs_f64() * 1e3, "ms"),
    );
    layer.insert(
        "net.replica.batches_per_s",
        (primary_generation as f64 / catchup.as_secs_f64(), "1/s"),
    );
}
