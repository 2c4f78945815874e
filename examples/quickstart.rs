//! Quickstart: count and list a pattern in a synthetic social graph.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the whole GraphPi pipeline on a small power-law
//! graph: plan (restriction sets + schedules + performance model), inspect
//! the selected configuration, count with and without IEP, and peek at a few
//! concrete embeddings.

use graphpi::core::codegen::{generate, Language};
use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use std::time::Instant;

fn main() {
    // 1. A data graph. Any edge list works (see `graphpi::graph::io`); here
    //    we generate a 2,000-vertex power-law graph.
    let graph = generators::power_law(2_000, 8, 42);
    println!(
        "data graph: {} vertices, {} edges, {} triangles",
        graph.num_vertices(),
        graph.num_edges(),
        graphpi::graph::triangles::count_triangles(&graph)
    );

    // 2. The engine computes the statistics the performance model needs.
    let engine = GraphPi::new(graph);

    // 3. Plan the House pattern (the paper's running example).
    let pattern = prefab::house();
    let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
    println!(
        "\nplanning: {} restriction sets x {} schedules -> {} configurations ranked in {:?}",
        plan.restriction_sets_generated,
        plan.schedules_generated,
        plan.candidates_considered,
        plan.preprocessing_time
    );
    println!(
        "selected schedule {:?} with restrictions {:?} (predicted cost {:.3e})",
        plan.plan.config.schedule.order(),
        plan.plan.config.restrictions.restrictions(),
        plan.predicted_cost
    );

    // 4. The generated code for the selected configuration (what the original
    //    system would compile with gcc).
    println!(
        "\ngenerated matcher:\n{}",
        generate(&plan.plan, Language::Cpp)
    );

    // 5. Count, four ways: they all agree.
    let sequential = engine.execute_count(&plan.plan, CountOptions::sequential_enumeration());
    let with_iep = engine.execute_count(
        &plan.plan,
        CountOptions {
            use_iep: true,
            threads: 1,
            ..CountOptions::default()
        },
    );
    let parallel = engine.execute_count(
        &plan.plan,
        CountOptions {
            use_iep: true,
            threads: 0,
            ..CountOptions::default()
        },
    );
    // Hub acceleration: bitset rows for the high-degree core over the
    // graph's own ids (built once, cached by the engine).
    let hub_parallel = engine.execute_count(
        &plan.plan,
        CountOptions {
            use_iep: true,
            threads: 0,
            hub_bitsets: true,
            ..CountOptions::default()
        },
    );
    println!("house embeddings: {sequential} (enumeration) = {with_iep} (IEP) = {parallel} (parallel IEP) = {hub_parallel} (hub bitsets)");
    assert_eq!(sequential, with_iep);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential, hub_parallel);

    // 6. List a few embeddings explicitly.
    let embeddings = engine.list(&pattern).unwrap();
    println!("\nfirst embeddings (data vertices for pattern vertices A..E):");
    for emb in embeddings.iter().take(5) {
        println!("  {emb:?}");
    }

    // 7. The serving path: a long-lived Session owns a persistent worker
    //    pool and a compiled-plan cache. The first count is cold (plans and
    //    fills the cache); repeats skip planning and thread spawning
    //    entirely.
    let session = engine.session();
    let start = Instant::now();
    let cold = session.count(&pattern).unwrap();
    let cold_time = start.elapsed();
    let start = Instant::now();
    let mut warm = 0;
    let warm_iters = 5;
    for _ in 0..warm_iters {
        warm = session.count(&pattern).unwrap();
    }
    let warm_time = start.elapsed() / warm_iters;
    assert_eq!(cold, warm);
    let stats = session.cache_stats();
    println!(
        "\nserving session: cold query {cold_time:?}, warm query {warm_time:?} \
         (plan cache: {} hit(s), {} miss(es))",
        stats.hits, stats.misses
    );
}
