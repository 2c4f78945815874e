//! The Figure 12 simulator against the engine it replays: planning through
//! `GraphPi`, execution on the simulated cluster.

use graphpi_bench::cluster::{run_cluster, ClusterOptions};
use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi_graph::generators;
use graphpi_pattern::prefab;

#[test]
fn simulated_cluster_agrees_with_direct_counting() {
    let graph = generators::power_law(150, 5, 31);
    let engine = GraphPi::new(graph.clone());
    let pattern = prefab::p3();
    let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
    let expected = engine.execute_count(&plan.plan, CountOptions::sequential_enumeration());
    let report = run_cluster(
        &plan.plan,
        &graph,
        ClusterOptions {
            num_nodes: 4,
            threads_per_node: 4,
            prefix_depth: None,
            measurement_threads: 2,
        },
    );
    assert_eq!(report.embeddings, expected);
    assert!(report.total_work_seconds >= 0.0);
    assert!(report.makespan_seconds <= report.total_work_seconds + 1e-9);
}
