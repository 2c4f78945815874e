//! Multi-threaded scaling on the local machine.
//!
//! ```text
//! cargo run --release --example parallel_scaling
//! ```
//!
//! Measures real multi-threaded speedup on the local machine through the
//! serving [`Session`] API (persistent work-stealing pool, Section IV-E):
//! for every thread count the first query is cold (plans, fills the plan
//! cache, ramps the pool) and the repeats are warm. The multi-node half of
//! that section — Figure 12's strong scaling on a simulated cluster — is
//! `cargo bench -p graphpi-bench --bench fig12_scalability`.

use graphpi::core::config::PoolOptions;
use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions, Session};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use std::time::Instant;

fn main() {
    let graph = generators::power_law(2_000, 12, 3);
    println!(
        "data graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let engine = GraphPi::new(graph);
    let pattern = prefab::house();

    // Real threads on this machine, via a persistent pool per thread count.
    println!("\nlocal multi-threaded scaling (enumeration, Session warm path):");
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let session: Session<'_> = engine.session_with(
            PoolOptions {
                threads,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            CountOptions {
                use_iep: false,
                ..CountOptions::default()
            },
        );
        let start = Instant::now();
        let count = session.count(&pattern).unwrap();
        let cold = start.elapsed().as_secs_f64();
        let warm_iters = 3u32;
        let start = Instant::now();
        for _ in 0..warm_iters {
            assert_eq!(session.count(&pattern).unwrap(), count);
        }
        let warm = start.elapsed().as_secs_f64() / warm_iters as f64;
        let baseline_time = *baseline.get_or_insert(warm);
        println!(
            "  {threads:>2} threads: cold {cold:.3}s  warm {warm:.3}s  \
             warm speedup {:.2}x  (count {count})",
            baseline_time / warm
        );
    }
}
