//! Serving-path acceptance suite: the persistent worker pool and the
//! plan-cached [`Session`] API must be **bit-identical** to the established
//! execution paths under every combination of thread count, batch size,
//! hub acceleration and counting mode.

use graphpi::core::config::{Configuration, PoolOptions};
use graphpi::core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions};
use graphpi::core::exec::interp::ExecCtx;
use graphpi::core::exec::parallel::{CountMode, ParallelOptions};
use graphpi::core::exec::pool::WorkerPool;
use graphpi::core::exec::{iep, interp};
use graphpi::core::schedule::efficient_schedules;
use graphpi::graph::generators;
use graphpi::graph::hub::{HubGraph, HubOptions};
use graphpi::pattern::prefab;
use graphpi::pattern::restriction::{generate_restriction_sets, GenerationOptions};
use std::sync::Arc;

fn plan_for(pattern: graphpi::pattern::Pattern) -> graphpi::core::config::ExecutionPlan {
    let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
    let schedules = efficient_schedules(&pattern);
    Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
}

/// The tentpole agreement sweep: pooled execution must match the
/// sequential reference of its counting mode (the interpreter, or the
/// sequential IEP count) on the same graph layout exactly, across thread
/// counts × batch sizes × hub on/off × counting modes.
#[test]
fn pooled_execution_is_bit_identical_to_sequential() {
    let graph = generators::power_law(180, 5, 123);
    let hubs = HubGraph::build(&graph, HubOptions::default());
    for (name, pattern) in prefab::evaluation_patterns().into_iter().take(3) {
        let plan = plan_for(pattern);
        let sequential = interp::count_embeddings(&plan, &graph);
        for &threads in &[1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            for &batch_size in &[1usize, 64] {
                for mode in [CountMode::Enumerate, CountMode::Iep] {
                    for hubbed in [false, true] {
                        let options = ParallelOptions {
                            threads,
                            mode,
                            batch_size,
                            ..Default::default()
                        };
                        let ctx: ExecCtx = if hubbed {
                            (&graph, &hubs).into()
                        } else {
                            (&graph).into()
                        };
                        let reference = match mode {
                            CountMode::Enumerate => interp::count_embeddings(&plan, ctx),
                            CountMode::Iep => iep::count_embeddings_iep(&plan, ctx),
                        };
                        let pooled = pool.count(&plan, ctx, &options);
                        assert_eq!(
                            pooled, reference,
                            "{name}: pooled vs sequential reference (threads={threads}, \
                             batch={batch_size}, mode={mode:?}, hubs={hubbed})"
                        );
                        assert_eq!(
                            pooled, sequential,
                            "{name}: pooled vs sequential enumeration (threads={threads}, \
                             batch={batch_size}, mode={mode:?}, hubs={hubbed})"
                        );
                    }
                }
            }
        }
    }
}

/// One pool re-used for many different plans/options must never leak state
/// between jobs (tasks, counts or scratch).
#[test]
fn pool_state_is_isolated_between_jobs() {
    let graph = generators::power_law(160, 5, 77);
    let pool = WorkerPool::new(3);
    let plans: Vec<_> = prefab::evaluation_patterns()
        .into_iter()
        .take(4)
        .map(|(name, p)| (name, plan_for(p)))
        .collect();
    let expected: Vec<u64> = plans
        .iter()
        .map(|(_, plan)| interp::count_embeddings(plan, &graph))
        .collect();
    for round in 0..3 {
        for ((name, plan), &want) in plans.iter().zip(&expected) {
            assert_eq!(
                pool.count(plan, &graph, &ParallelOptions::default()),
                want,
                "{name} (round {round})"
            );
        }
    }
}

#[test]
fn session_agrees_with_engine_for_every_mode() {
    let graph = generators::power_law(200, 5, 55);
    let engine = GraphPi::new(graph);
    let session = engine.session_with(
        PoolOptions {
            threads: 2,
            cache_capacity: 16,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions::default(),
    );
    for (name, pattern) in prefab::evaluation_patterns().into_iter().take(3) {
        let expected = engine.count(&pattern).unwrap();
        assert_eq!(session.count(&pattern).unwrap(), expected, "{name}");
        for (use_iep, hub_bitsets) in [(false, false), (true, true)] {
            let got = session
                .count_with(
                    &pattern,
                    CountOptions {
                        use_iep,
                        hub_bitsets,
                        ..CountOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(got, expected, "{name} (iep={use_iep}, hubs={hub_bitsets})");
        }
    }
}

/// Warm repeats hit the plan cache and stay bit-identical.
#[test]
fn warm_repeats_hit_the_cache_and_agree() {
    let engine = GraphPi::new(generators::power_law(170, 5, 31));
    let session = engine.session();
    let pattern = prefab::house();
    let cold = session.count(&pattern).unwrap();
    for _ in 0..10 {
        assert_eq!(session.count(&pattern).unwrap(), cold);
    }
    let stats = session.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 10);
}

/// The concurrency matrix of the multi-tenant pool: several submitter
/// threads keep distinct jobs (different plans × modes × batch sizes) in
/// flight simultaneously, and every single result must equal the
/// sequential interpreter's. This is the bit-identity guarantee of the
/// tentpole sweep above, extended to *overlapping* jobs.
#[test]
fn concurrent_jobs_on_one_pool_are_bit_identical() {
    let graph = generators::power_law(170, 5, 201);
    let plans: Vec<_> = prefab::evaluation_patterns()
        .into_iter()
        .take(4)
        .map(|(name, p)| (name, plan_for(p)))
        .collect();
    let expected: Vec<u64> = plans
        .iter()
        .map(|(_, plan)| interp::count_embeddings(plan, &graph))
        .collect();
    for &(threads, max_in_flight) in &[(1usize, 2usize), (2, 2), (2, 4), (4, 3)] {
        let pool = WorkerPool::with_max_in_flight(threads, max_in_flight);
        std::thread::scope(|scope| {
            for (i, ((name, plan), &want)) in plans.iter().zip(&expected).enumerate() {
                let pool = &pool;
                let graph = &graph;
                scope.spawn(move || {
                    let options = ParallelOptions {
                        mode: if i % 2 == 0 {
                            CountMode::Enumerate
                        } else {
                            CountMode::Iep
                        },
                        batch_size: [1, 8, 64][i % 3],
                        ..Default::default()
                    };
                    for round in 0..4 {
                        assert_eq!(
                            pool.count(plan, graph, &options),
                            want,
                            "{name} (round {round}, threads={threads}, \
                             max_in_flight={max_in_flight})"
                        );
                    }
                });
            }
        });
        assert_eq!(pool.in_flight(), 0);
    }
}

/// The serving stress test: N client threads × M mixed patterns hammer one
/// shared `Session` concurrently. Every count must match the sequential
/// engine, and the cache counters must stay consistent (each query is
/// exactly one hit or one miss: hits + misses == queries).
#[test]
fn concurrent_clients_stress_shared_session() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let engine = GraphPi::new(generators::power_law(170, 5, 333));
    let session = engine.session_with(
        PoolOptions {
            threads: 2,
            cache_capacity: 8,
            max_in_flight: CLIENTS,
        },
        PlanOptions::default(),
        CountOptions::default(),
    );
    let patterns: Vec<_> = prefab::evaluation_patterns()
        .into_iter()
        .take(4)
        .map(|(_, p)| p)
        .collect();
    let expected: Vec<u64> = patterns.iter().map(|p| engine.count(p).unwrap()).collect();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let session = &session;
            let patterns = &patterns;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the pattern mix per client so distinct plans
                    // overlap in flight.
                    let idx = (client + round) % patterns.len();
                    assert_eq!(
                        session.count(&patterns[idx]).unwrap(),
                        expected[idx],
                        "client {client}, round {round}"
                    );
                }
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        (CLIENTS * ROUNDS) as u64,
        "every query is exactly one hit or one miss"
    );
    // The cache plans outside its lock, so with CLIENTS threads up to
    // CLIENTS racing planners per cold key are legitimate.
    assert!(stats.misses >= patterns.len() as u64);
    assert!(stats.misses <= (patterns.len() * CLIENTS) as u64);
    assert_eq!(session.pool().in_flight(), 0);
}

/// A poisoned job must not disturb concurrent jobs on the same session
/// pool, and the pool (including its worker threads) must stay fully
/// usable afterwards.
#[test]
fn concurrent_panicking_job_leaves_other_jobs_exact() {
    let graph = generators::power_law(150, 5, 91);
    let pool = WorkerPool::with_max_in_flight(2, 3);
    let good = plan_for(prefab::house());
    let expected = interp::count_embeddings(&good, &graph);
    // Corrupt a plan so task processing indexes out of bounds.
    let mut bad = plan_for(graphpi::pattern::Pattern::new(2, &[(0, 1)]));
    bad.loops[1].parents = vec![3];
    std::thread::scope(|scope| {
        let poisoner = {
            let pool = &pool;
            let bad = &bad;
            let graph = &graph;
            scope.spawn(move || {
                for _ in 0..5 {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.count(
                            bad,
                            graph,
                            &ParallelOptions {
                                batch_size: 1,
                                ..Default::default()
                            },
                        )
                    }));
                    assert!(result.is_err(), "corrupted plan must panic");
                }
            })
        };
        for _ in 0..2 {
            let pool = &pool;
            let good = &good;
            let graph = &graph;
            scope.spawn(move || {
                for _ in 0..8 {
                    assert_eq!(
                        pool.count(good, graph, &ParallelOptions::default()),
                        expected
                    );
                }
            });
        }
        poisoner.join().unwrap();
    });
    // Workers survive panicking jobs (they used to unwind and die), and a
    // fresh job on the same pool still counts exactly.
    assert_eq!(pool.live_workers(), 2);
    assert_eq!(
        pool.count(&good, &graph, &ParallelOptions::default()),
        expected
    );
    assert_eq!(pool.in_flight(), 0);
}

/// Backpressure: a pool with `max_in_flight = 1` degrades gracefully to
/// one-job-at-a-time under concurrent submitters — exact counts, blocked
/// (not rejected) submissions, nothing in flight afterwards.
#[test]
fn concurrent_submitters_respect_backpressure_limit() {
    let graph = generators::power_law(150, 5, 77);
    let pool = WorkerPool::with_max_in_flight(2, 1);
    assert_eq!(pool.max_in_flight(), 1);
    let plan = plan_for(prefab::house());
    let expected = interp::count_embeddings(&plan, &graph);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let pool = &pool;
            let plan = &plan;
            let graph = &graph;
            scope.spawn(move || {
                for _ in 0..3 {
                    assert_eq!(
                        pool.count(plan, graph, &ParallelOptions::default()),
                        expected
                    );
                }
            });
        }
    });
    assert_eq!(pool.in_flight(), 0);
}

/// A session shared by reference across threads serves concurrent queries
/// correctly (jobs overlap on the multi-tenant pool).
#[test]
fn session_shared_across_threads_agrees() {
    let engine = GraphPi::new(generators::power_law(160, 5, 91));
    let session = engine.session_with(
        PoolOptions {
            threads: 2,
            cache_capacity: 8,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions::default(),
    );
    let patterns = [prefab::triangle(), prefab::rectangle(), prefab::house()];
    let expected: Vec<u64> = patterns.iter().map(|p| engine.count(p).unwrap()).collect();
    std::thread::scope(|scope| {
        for offset in 0..3usize {
            let session = &session;
            let patterns = &patterns;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..6usize {
                    let idx = (offset + i) % patterns.len();
                    assert_eq!(session.count(&patterns[idx]).unwrap(), expected[idx]);
                }
            });
        }
    });
    // The cache plans outside its lock, so with 3 threads up to 3 racing
    // planners per cold key are legitimate; everything else must be hits.
    let stats = session.cache_stats();
    assert_eq!(stats.hits + stats.misses, 18);
    assert!(stats.misses <= patterns.len() as u64 * 3);
}

/// A cache shared between engines over different graphs must key on the
/// graph fingerprint: same pattern, different graph, different entry.
#[test]
fn shared_cache_is_keyed_by_graph() {
    let engine_a = GraphPi::new(generators::power_law(150, 5, 7));
    let engine_b = GraphPi::new(generators::power_law(150, 5, 8));
    let pool = Arc::new(WorkerPool::new(2));
    let cache = Arc::new(PlanCache::new(8));
    let session_a = engine_a.session_shared(
        Arc::clone(&pool),
        Arc::clone(&cache),
        PlanOptions::default(),
        CountOptions::default(),
    );
    let session_b = engine_b.session_shared(
        Arc::clone(&pool),
        Arc::clone(&cache),
        PlanOptions::default(),
        CountOptions::default(),
    );
    let pattern = prefab::house();
    let count_a = session_a.count(&pattern).unwrap();
    let count_b = session_b.count(&pattern).unwrap();
    assert_eq!(count_a, engine_a.count(&pattern).unwrap());
    assert_eq!(count_b, engine_b.count(&pattern).unwrap());
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "one planning run per graph");
    assert_eq!(stats.len, 2, "one entry per graph");
}

/// LRU capacity pressure: old entries are evicted, recently used survive,
/// and counts never change either way.
#[test]
fn lru_eviction_preserves_correctness() {
    let engine = GraphPi::new(generators::power_law(150, 5, 19));
    let session = engine.session_with(
        PoolOptions {
            threads: 1,
            cache_capacity: 2,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions::default(),
    );
    let patterns: Vec<_> = prefab::evaluation_patterns()
        .into_iter()
        .take(4)
        .map(|(_, p)| p)
        .collect();
    let expected: Vec<u64> = patterns.iter().map(|p| engine.count(p).unwrap()).collect();
    // Two rotations through four patterns with capacity two: constant
    // churn, counts stay exact.
    for _ in 0..2 {
        for (p, &want) in patterns.iter().zip(&expected) {
            assert_eq!(session.count(p).unwrap(), want);
        }
    }
    let stats = session.cache_stats();
    assert!(stats.evictions >= 4, "evictions: {}", stats.evictions);
    assert_eq!(stats.len, 2);
}
