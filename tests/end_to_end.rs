//! End-to-end pipeline tests spanning every crate: IO, planning, codegen
//! and execution.

use graphpi::core::codegen::{generate, Language};
use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi::graph::{generators, io, CsrGraph, GraphStats};
use graphpi::pattern::prefab;
use graphpi::pattern::restriction::validate;

#[test]
fn edge_list_round_trip_preserves_counts() {
    let graph = generators::power_law(200, 5, 8);
    let dir = std::env::temp_dir().join("graphpi_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.txt");
    io::save_edge_list(&graph, &path).unwrap();
    let reloaded = io::load_edge_list(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let original = GraphPi::new(graph);
    let loaded = GraphPi::new(reloaded);
    for pattern in [prefab::triangle(), prefab::house()] {
        assert_eq!(
            original.count(&pattern).unwrap(),
            loaded.count(&pattern).unwrap()
        );
    }
}

#[test]
fn planner_output_is_internally_consistent() {
    let graph = generators::power_law(300, 6, 21);
    let engine = GraphPi::new(graph);
    for (name, pattern) in prefab::evaluation_patterns() {
        let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
        // The selected restriction set is complete.
        assert!(
            validate(&pattern, &plan.plan.config.restrictions),
            "{name}: selected restriction set is not complete"
        );
        // The selected schedule is one the 2-phase generator would emit.
        assert!(
            plan.plan.config.schedule.prefixes_connected(&pattern),
            "{name}"
        );
        // Generated code mentions every pattern vertex.
        let code = generate(&plan.plan, Language::Cpp);
        for v in 0..pattern.num_vertices() {
            let var = format!("v_{}", (b'A' + v as u8) as char);
            assert!(code.contains(&var), "{name}: {var} missing from codegen");
        }
        // The predicted cost is positive and finite.
        assert!(plan.predicted_cost.is_finite() && plan.predicted_cost > 0.0);
    }
}

#[test]
fn planner_works_at_the_size_cap() {
    // Seven- and eight-vertex patterns rank over 5,040 and 40,320 id-orders
    // per candidate; both modes must plan and agree with brute force.
    let graph = generators::erdos_renyi(18, 40, 5);
    let engine = GraphPi::new(graph.clone());
    for pattern in [prefab::cycle_pattern(7), prefab::path_pattern(8)] {
        let expected = graphpi::baseline::naive::count_embeddings(&pattern, &graph);
        assert!(expected > 0, "{pattern:?} should occur in the test graph");
        for enable_iep in [true, false] {
            let options = PlanOptions {
                enable_iep,
                ..PlanOptions::default()
            };
            let plan = engine.plan(&pattern, options).unwrap();
            assert!(validate(&pattern, &plan.plan.config.restrictions));
            let count = engine.execute_count(&plan.plan, CountOptions::default());
            assert_eq!(count, expected, "{pattern:?} iep={enable_iep}");
        }
    }
}

/// Tiny graphs (hundreds of edges), one from each generator family the
/// Table-I stand-ins are built from.
fn tiny_datasets() -> [(&'static str, CsrGraph); 2] {
    [
        ("Tiny-PowerLaw", generators::power_law(200, 4, 0x10)),
        ("Tiny-Uniform", generators::erdos_renyi(200, 600, 0x11)),
    ]
}

#[test]
fn dataset_registry_supports_matching() {
    // The tiny dataset variants must be directly usable by the engine.
    for (name, graph) in tiny_datasets() {
        let engine = GraphPi::new(graph.clone());
        let triangles = engine.count(&prefab::triangle()).unwrap();
        assert_eq!(
            triangles,
            graphpi::graph::triangles::count_triangles(&graph),
            "{name}"
        );
    }
}

#[test]
fn stats_roundtrip_through_with_stats() {
    let graph = generators::erdos_renyi(150, 700, 5);
    let stats = GraphStats::compute(&graph);
    let engine_a = GraphPi::new(graph.clone());
    let engine_b = GraphPi::with_stats(graph, stats);
    assert_eq!(engine_a.stats(), engine_b.stats());
    assert_eq!(
        engine_a.count(&prefab::rectangle()).unwrap(),
        engine_b.count(&prefab::rectangle()).unwrap()
    );
}

#[test]
fn iep_and_enumeration_agree_on_every_stand_in_family() {
    // One clustered and one uniform graph, all six evaluation patterns.
    for graph in [
        generators::power_law(100, 4, 70),
        generators::erdos_renyi(100, 420, 71),
    ] {
        let engine = GraphPi::new(graph);
        for (name, pattern) in prefab::evaluation_patterns() {
            let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
            let enumerated =
                engine.execute_count(&plan.plan, CountOptions::sequential_enumeration());
            let iep = engine.execute_count(
                &plan.plan,
                CountOptions {
                    use_iep: true,
                    threads: 1,
                    ..CountOptions::default()
                },
            );
            assert_eq!(enumerated, iep, "{name}");
        }
    }
}
