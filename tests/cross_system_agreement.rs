//! Cross-system agreement: GraphPi (all execution modes), the rebuilt
//! GraphZero baseline, the expansion baseline and the naive ground truth
//! must report identical counts on every workload they can all run.

use graphpi::baseline::expansion::{ExpansionEngine, ExpansionOutcome};
use graphpi::baseline::{naive, GraphZeroEngine};
use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi::core::DynamicEngine;
use graphpi::graph::{generators, hub, EdgeBatch, GraphBuilder};
use graphpi::pattern::prefab;

fn all_counts_agree(
    graph: graphpi::graph::CsrGraph,
    pattern: &graphpi::pattern::Pattern,
    name: &str,
) {
    let expected = naive::count_embeddings(pattern, &graph);

    let graphzero = GraphZeroEngine::new(graph.clone());
    assert_eq!(
        graphzero.count(pattern),
        expected,
        "GraphZero disagrees on {name}"
    );

    let expansion = ExpansionEngine::new(graph.clone());
    assert_eq!(
        expansion.count(pattern),
        ExpansionOutcome::Finished(expected),
        "expansion disagrees on {name}"
    );

    let engine = GraphPi::new(graph);
    let plan = engine.plan(pattern, PlanOptions::default()).unwrap();
    let modes = [
        ("sequential", CountOptions::sequential_enumeration()),
        (
            "iep",
            CountOptions {
                use_iep: true,
                threads: 1,
                ..CountOptions::default()
            },
        ),
        (
            "parallel",
            CountOptions {
                use_iep: false,
                threads: 4,
                ..CountOptions::default()
            },
        ),
        (
            "parallel-iep",
            CountOptions {
                use_iep: true,
                threads: 4,
                ..CountOptions::default()
            },
        ),
        (
            "hub-sequential",
            CountOptions {
                use_iep: false,
                threads: 1,
                hub_bitsets: true,
                ..CountOptions::default()
            },
        ),
        (
            "hub-parallel-iep",
            CountOptions {
                use_iep: true,
                threads: 4,
                hub_bitsets: true,
                ..CountOptions::default()
            },
        ),
    ];
    for (mode_name, options) in modes {
        assert_eq!(
            engine.execute_count(&plan.plan, options),
            expected,
            "GraphPi {mode_name} disagrees on {name}"
        );
    }
}

#[test]
fn evaluation_patterns_on_power_law_graph() {
    let graph = generators::power_law(60, 4, 1);
    for (name, pattern) in prefab::evaluation_patterns() {
        all_counts_agree(graph.clone(), &pattern, name);
    }
}

#[test]
fn evaluation_patterns_on_uniform_graph() {
    let graph = generators::erdos_renyi(50, 250, 2);
    for (name, pattern) in prefab::evaluation_patterns() {
        all_counts_agree(graph.clone(), &pattern, name);
    }
}

#[test]
fn motifs_on_structured_graphs() {
    // Tier-1 keeps the two structurally extreme graphs; the tier-2 run
    // below covers the full family.
    for (gname, graph) in [
        ("complete-12", generators::complete(12)),
        ("grid-6x6", generators::grid(6, 6)),
    ] {
        for (name, pattern) in prefab::motifs_3() {
            all_counts_agree(graph.clone(), &pattern, &format!("{name} on {gname}"));
        }
    }
}

#[test]
#[ignore = "tier-2: full motif x structured-graph sweep"]
fn motifs_on_structured_graphs_heavy() {
    for (gname, graph) in [
        ("complete-12", generators::complete(12)),
        ("grid-6x6", generators::grid(6, 6)),
        ("cycle-30", generators::cycle(30)),
        ("star-30", generators::star(30)),
    ] {
        for (name, pattern) in prefab::motifs_3().into_iter().chain(prefab::motifs_4()) {
            all_counts_agree(graph.clone(), &pattern, &format!("{name} on {gname}"));
        }
    }
}

#[test]
fn closed_form_counts_on_complete_graphs() {
    // On K_n the number of embeddings of any pattern with p vertices is
    // C(n, p) * p! / |Aut| because every injective mapping works.
    let n = 10usize;
    let graph = generators::complete(n);
    let engine = GraphPi::new(graph);
    let falling = |n: usize, p: usize| -> u64 { ((n - p + 1)..=n).map(|x| x as u64).product() };
    for (name, pattern) in prefab::evaluation_patterns() {
        let p = pattern.num_vertices();
        let aut = graphpi::pattern::automorphism::automorphism_count(&pattern) as u64;
        let expected = falling(n, p) / aut;
        assert_eq!(engine.count(&pattern).unwrap(), expected, "{name} on K{n}");
    }
}

#[test]
fn counts_on_bipartite_like_graph_with_no_odd_cycles() {
    // A grid has no triangles, so every pattern containing a triangle has
    // zero embeddings while the rectangle count is known (number of unit
    // squares plus larger cycles... here just cross-check with naive).
    let graph = generators::grid(5, 5);
    let engine = GraphPi::new(graph.clone());
    assert_eq!(engine.count(&prefab::triangle()).unwrap(), 0);
    assert_eq!(engine.count(&prefab::house()).unwrap(), 0);
    assert_eq!(
        engine.count(&prefab::rectangle()).unwrap(),
        naive::count_embeddings(&prefab::rectangle(), &graph)
    );
}

/// A dynamic engine's generation builds its hub rows over its own graph on
/// its first query, so a batch that rewires a hub (and grows a new one) is
/// seen by the default count, which intersects through those rows.
#[test]
fn a_new_generation_counts_through_rows_of_its_own_graph() {
    // A sparse graph with one hub adjacent to 60 vertices; vertex 100 has
    // too few neighbours for a row until the batch adds 40.
    let n = 200;
    let mut edges: std::collections::BTreeSet<(u32, u32)> = generators::erdos_renyi(n, 500, 0xD1)
        .edges()
        .chain((1..61).map(|v| (0, v)))
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    let graph_of = |edges: &std::collections::BTreeSet<(u32, u32)>| {
        GraphBuilder::new()
            .num_vertices(n)
            .edges(edges.iter().copied())
            .build()
    };
    let initial = graph_of(&edges);
    let dynamic = DynamicEngine::volatile(initial.clone());
    let patterns = [prefab::triangle(), prefab::rectangle(), prefab::house()];
    let before = dynamic.pin();
    assert!(before.engine().hub_index().row(0).is_some());
    assert!(before.engine().hub_index().row(100).is_none());

    let mut batch = EdgeBatch::new();
    for v in 1..21 {
        batch.delete(0, v);
        edges.remove(&(0, v));
    }
    for v in 101..141 {
        batch.insert(100, v);
        edges.insert((100, v));
    }
    dynamic.apply(&batch).unwrap();
    let after = dynamic.pin();
    let updated = graph_of(&edges);
    assert_eq!(*after.engine().graph(), updated);
    let rows = after.engine().hub_index();
    for center in [0, 100] {
        let row = rows.row(center).expect("a hub after the batch");
        let members: Vec<u32> = (0..n as u32).filter(|&v| hub::contains(row, v)).collect();
        assert_eq!(members, updated.neighbors(center), "row of {center}");
    }
    for pattern in &patterns {
        let expected = naive::count_embeddings(pattern, &updated);
        assert_eq!(after.engine().count(pattern).unwrap(), expected);
        // The pinned old generation keeps its own rows and its own count.
        let old = naive::count_embeddings(pattern, &initial);
        assert_eq!(before.engine().count(pattern).unwrap(), old);
    }
}
