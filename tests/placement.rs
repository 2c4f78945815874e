//! The placement rule: a plan the §IV-C model prices below one pool
//! hand-off (`HANDOFF_COST`) runs on the calling thread, through the same
//! per-task kernel at the same task depth as the pool.
//!
//! `Session::run` applies the rule and `Session::run_plan` always uses the
//! pool, so running one plan through both puts the inline path beside the
//! pooled one: counts, orbit vectors, sample estimates (bit for bit, per
//! seed) and enumerations must agree with each other and with
//! `graphpi_baseline::naive`. An inline truncated enumeration is the
//! sequential search order's first `limit` rows whatever the pool's size,
//! and an inline query never waits for a pool slot.

use graphpi::baseline::naive;
use graphpi::core::config::IepCorrection;
use graphpi::core::engine::{
    CountOptions, GraphPi, Mode, Outcome, Placement, PlanCache, PlanOptions, Session,
};
use graphpi::core::exec::interp::{match_embeddings_in, ExecCtx};
use graphpi::core::exec::parallel::{default_prefix_depth, HANDOFF_COST};
use graphpi::core::exec::sink::EmbedSink;
use graphpi::core::{PoolOptions, WorkerPool};
use graphpi::graph::{generators, CsrGraph, GraphBuilder};
use graphpi::pattern::{automorphism_group, prefab, Pattern};
use std::sync::Arc;

/// Small random graphs: every prefab pattern below prices under one
/// hand-off on them.
fn small_graphs() -> Vec<(String, CsrGraph)> {
    let mut graphs = Vec::new();
    for seed in 0..3 {
        graphs.push((
            format!("er(18, 50, {seed})"),
            generators::erdos_renyi(18, 50, seed),
        ));
        graphs.push((
            format!("pl(24, 3, {seed})"),
            generators::power_law(24, 3, seed),
        ));
    }
    graphs
}

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("triangle", prefab::triangle()),
        ("rectangle", prefab::rectangle()),
        ("house", prefab::house()),
        ("P1", prefab::p1()),
        ("cycle5", prefab::cycle_pattern(5)),
        ("clique4", prefab::clique(4)),
        // IEP leaves whose over-count divisor is 6.
        ("star4", prefab::star_pattern(4)),
        ("P5", prefab::p5()),
    ]
}

fn session_over(engine: &GraphPi, threads: usize) -> Session<'_> {
    engine.session_with(
        PoolOptions {
            threads,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions::default(),
    )
}

/// An enumeration modulo the pattern's automorphisms, sorted: what naive
/// reports, whichever representative a plan emits.
fn canonical(pattern: &Pattern, embeddings: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let auts = automorphism_group(pattern);
    let mut tuples: Vec<Vec<u32>> = embeddings
        .iter()
        .map(|tuple| naive::canonical_embedding(&auts, tuple))
        .collect();
    tuples.sort_unstable();
    tuples
}

fn orbit_of(tuples: &[Vec<u32>], num_vertices: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_vertices];
    for &v in tuples.iter().flatten() {
        counts[v as usize] += 1;
    }
    counts
}

/// The bits of an estimate, so two runs compare exactly.
fn approx_bits(outcome: Outcome) -> (u64, u64, u64, u64) {
    let approx = outcome.into_approx();
    (
        approx.estimate.to_bits(),
        approx.stderr.to_bits(),
        approx.sampled_tasks,
        approx.total_tasks,
    )
}

/// Inline ≡ pooled ≡ naive over small graphs × patterns × all four
/// modes × hubs on/off × IEP on/off.
#[test]
fn inline_runs_match_pooled_runs_and_naive_in_every_mode() {
    for (graph_name, graph) in small_graphs() {
        let engine = GraphPi::new(graph);
        let session = session_over(&engine, 2);
        for (name, pattern) in patterns() {
            let tuples = naive::embeddings_sorted(&pattern, engine.graph());
            let exact = tuples.len() as u64;
            let orbit = orbit_of(&tuples, engine.graph().num_vertices());
            let count_plan = session.plan_cached(&pattern).unwrap();
            let mode_plan = session.mode_plan_cached(&pattern).unwrap();
            for plan in [&count_plan, &mode_plan] {
                assert_eq!(
                    plan.placement(),
                    Placement::Caller,
                    "{name} on {graph_name} costs {}",
                    plan.predicted_cost
                );
            }
            for cell in 0..4 {
                let (hub_bitsets, use_iep) = (cell & 1 != 0, cell & 2 != 0);
                let label = format!("{name} on {graph_name}, hubs {hub_bitsets}, iep {use_iep}");
                let options = CountOptions {
                    hub_bitsets,
                    use_iep,
                    ..CountOptions::default()
                };
                let inline = |mode| session.run(&pattern, mode, options).unwrap();
                let pooled = |mode| {
                    let plan = if mode == Mode::Count {
                        &count_plan
                    } else {
                        &mode_plan
                    };
                    session.run_plan(&plan.plan, mode, options)
                };

                let count = inline(Mode::Count).into_count();
                assert_eq!(count, exact, "count, {label}");
                assert_eq!(pooled(Mode::Count).into_count(), exact, "{label}");

                let per_vertex = inline(Mode::Orbit).into_per_vertex();
                assert_eq!(per_vertex, orbit, "orbit, {label}");
                assert_eq!(pooled(Mode::Orbit).into_per_vertex(), orbit, "{label}");

                for seed in 0..4 {
                    let sample = Mode::Sample { rate: 0.5, seed };
                    assert_eq!(
                        approx_bits(inline(sample)),
                        approx_bits(pooled(sample)),
                        "sample seed {seed}, {label}"
                    );
                }
                let full = inline(Mode::Sample { rate: 1.0, seed: 9 }).into_approx();
                assert_eq!(full.estimate, exact as f64, "rate-1 sample, {label}");

                let all = Mode::Enumerate { limit: u64::MAX };
                let mut rows = inline(all).into_embeddings();
                let mut pooled_rows = pooled(all).into_embeddings();
                assert_eq!(canonical(&pattern, &rows), tuples, "enumerate, {label}");
                rows.sort_unstable();
                pooled_rows.sort_unstable();
                assert_eq!(rows, pooled_rows, "inline vs pooled rows, {label}");
            }
        }
    }
}

/// The inline path divides out the IEP over-count like the pool does: a
/// count plan whose IEP leaf carries a divisor > 1, run on the calling
/// thread, equals naive.
#[test]
fn an_inline_iep_count_applies_the_correction_divisor() {
    let mut checked = 0;
    for (graph_name, graph) in small_graphs() {
        let engine = GraphPi::new(graph);
        let session = session_over(&engine, 2);
        for (name, pattern) in patterns() {
            let plan = session.plan_cached(&pattern).unwrap();
            let divisor = match plan.plan.iep_correction {
                IepCorrection::DividePrefixRestricted { divisor } => divisor,
                IepCorrection::DivideUnrestricted { .. } => continue,
            };
            if plan.plan.iep_suffix_len < 2 || divisor < 2 {
                continue;
            }
            assert_eq!(plan.placement(), Placement::Caller);
            assert_eq!(
                session.count(&pattern).unwrap(),
                naive::count_embeddings(&pattern, engine.graph()),
                "{name} (divisor {divisor}) on {graph_name}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no pattern planned an IEP leaf with a divisor");
}

/// An inline truncated enumeration is the first `limit` rows of the
/// sequential search, whatever the pool's size: no worker races for it.
#[test]
fn inline_truncated_pages_are_the_sequential_prefix_under_any_pool() {
    let graph = generators::power_law(40, 3, 5);
    let pattern = prefab::house();
    let engine = GraphPi::new(graph);
    for threads in [1, 2, 4] {
        let session = session_over(&engine, threads);
        let plan = session.mode_plan_cached(&pattern).unwrap();
        assert_eq!(plan.placement(), Placement::Caller);
        let n = plan.plan.num_loops();
        let mut sequential = EmbedSink::new(n, u64::MAX);
        match_embeddings_in(
            &plan.plan,
            ExecCtx::from(engine.graph()),
            default_prefix_depth(&plan.plan),
            &mut sequential,
        );
        // Schedule order → pattern-vertex order, as `Session` reports rows.
        let order: Vec<Vec<u32>> = sequential
            .vertices()
            .chunks_exact(n)
            .map(|row| {
                let mut by_pattern_vertex = vec![0; n];
                for (i, &v) in row.iter().enumerate() {
                    by_pattern_vertex[plan.plan.loops[i].pattern_vertex] = v;
                }
                by_pattern_vertex
            })
            .collect();
        assert!(order.len() > 20, "the page must truncate");
        for limit in [1, 2, 7, order.len() / 2, order.len() - 1] {
            let page = session.enumerate(&pattern, limit as u64).unwrap();
            assert_eq!(page, order[..limit], "{threads} workers, limit {limit}");
        }
    }
}

/// Hubs at the graph's highest ids: the hub rows index the graph's own ids,
/// so an inline enumeration with hubs on returns the rows hubs off returns,
/// in the same order, full and truncated.
#[test]
fn inline_pages_are_identical_with_hubs_on_and_off() {
    let graph = {
        let sparse = generators::erdos_renyi(32, 40, 0x4B);
        let mut builder = GraphBuilder::new().num_vertices(34);
        for u in sparse.vertices() {
            for &v in sparse.neighbors(u).iter().filter(|&&v| u < v) {
                builder.push_edge(u, v);
            }
        }
        for hub in 32..34 {
            for v in 0..hub {
                builder.push_edge(hub, v);
            }
        }
        builder.build()
    };
    let engine = GraphPi::new(graph);
    assert!(engine.hub_index().hub_count() > 0);
    let session = session_over(&engine, 2);
    for (name, pattern) in [
        ("triangle", prefab::triangle()),
        ("rectangle", prefab::rectangle()),
    ] {
        let plan = session.mode_plan_cached(&pattern).unwrap();
        assert_eq!(plan.placement(), Placement::Caller, "{name}");
        let page = |limit: usize, hub_bitsets| {
            let options = CountOptions {
                hub_bitsets,
                ..CountOptions::default()
            };
            let mode = Mode::Enumerate {
                limit: limit as u64,
            };
            session
                .run(&pattern, mode, options)
                .unwrap()
                .into_embeddings()
        };
        let full = page(usize::MAX, false);
        assert!(full.len() > 20, "{name}: the page must truncate");
        assert_eq!(page(usize::MAX, true), full, "{name}, full page");
        for limit in [1, 7, full.len() / 2] {
            assert_eq!(page(limit, true), full[..limit], "{name}, limit {limit}");
        }
    }
}

/// The rule's boundary: strictly below the constant runs inline.
#[test]
fn placement_boundary_is_one_handoff() {
    let engine = GraphPi::new(generators::erdos_renyi(18, 50, 1));
    let mut plan = engine
        .plan(&prefab::triangle(), PlanOptions::default())
        .unwrap();
    for (cost, placement) in [
        (0.0, Placement::Caller),
        (HANDOFF_COST * (1.0 - f64::EPSILON), Placement::Caller),
        (HANDOFF_COST, Placement::Pool),
        (HANDOFF_COST * 2.0, Placement::Pool),
        (f64::INFINITY, Placement::Pool),
    ] {
        plan.predicted_cost = cost;
        assert_eq!(plan.placement(), placement, "cost {cost}");
    }
    assert_eq!(Placement::Caller.to_string(), "caller");
    assert_eq!(Placement::Pool.to_string(), "pool");
}

/// No head-of-line blocking: with one job slot, held by a long pooled
/// query on another thread, a below-constant query still completes. If it
/// had queued for the slot it could only finish after the long job freed
/// it, so the slot would be free when it returned; finding it still held
/// proves the query never waited. A long job that ends before the check
/// proves nothing either way and is retried.
#[test]
fn an_inline_query_completes_while_the_only_slot_is_held() {
    let pool = Arc::new(WorkerPool::with_max_in_flight(2, 1));
    let cache = Arc::new(PlanCache::new(8));
    let big = GraphPi::new(generators::power_law(3_000, 8, 3));
    let small = GraphPi::new(generators::erdos_renyi(18, 50, 3));
    let long = big.session_shared(
        Arc::clone(&pool),
        Arc::clone(&cache),
        PlanOptions::default(),
        CountOptions {
            use_iep: false,
            ..CountOptions::default()
        },
    );
    let short = small.session_shared(
        Arc::clone(&pool),
        cache,
        PlanOptions::default(),
        CountOptions::default(),
    );
    let (house, triangle) = (prefab::house(), prefab::triangle());
    assert_eq!(
        long.plan_cached(&house).unwrap().placement(),
        Placement::Pool
    );
    assert_eq!(
        short.plan_cached(&triangle).unwrap().placement(),
        Placement::Caller
    );
    let expected = naive::count_embeddings(&triangle, small.graph());
    for _ in 0..10 {
        let held = std::thread::scope(|scope| {
            let job = scope.spawn(|| long.count(&house).unwrap());
            while pool.in_flight() == 0 && !job.is_finished() {
                std::thread::yield_now();
            }
            assert_eq!(short.count(&triangle).unwrap(), expected);
            let held = pool.in_flight() == 1;
            job.join().unwrap();
            held
        });
        if held {
            return;
        }
    }
    panic!("the long pooled job never outlasted the inline query");
}
