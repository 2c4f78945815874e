//! Agreement tests for the work-stealing parallel runtime through its
//! one-shot entry, `count_parallel`, which runs each count on a `WorkerPool`
//! built for that one job: every combination of thread count, batch size,
//! counting mode, and hub acceleration must return counts bit-identical to
//! the sequential interpreter, on prefab patterns and on randomly generated
//! graphs.
//!
//! The default-sized tests run in tier-1 CI; the exhaustive sweeps are
//! `#[ignore]`d and run by the tier-2 job (`cargo test --release -- --ignored`).

use graphpi::core::config::Configuration;
use graphpi::core::exec::{interp, parallel};
use graphpi::core::schedule::efficient_schedules;
use graphpi::graph::builder::GraphBuilder;
use graphpi::graph::hub::{HubGraph, HubOptions};
use graphpi::graph::{generators, CsrGraph};
use graphpi::pattern::prefab;
use graphpi::pattern::restriction::{generate_restriction_sets, GenerationOptions};
use parallel::{count_parallel, CountMode, ParallelOptions};
use proptest::prelude::*;

fn plan_for(pattern: graphpi::pattern::Pattern) -> graphpi::core::config::ExecutionPlan {
    let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
    let schedules = efficient_schedules(&pattern);
    Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
}

fn agreement_graphs(scale: usize) -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("power-law", generators::power_law(scale, 5, 11)),
        ("uniform", generators::erdos_renyi(scale, scale * 4, 22)),
        (
            "dense-power-law",
            generators::power_law(scale * 2 / 3, 8, 33),
        ),
    ]
}

/// The acceptance sweep: the one-job pool (with and without hub rows) must
/// match the sequential references on every prefab evaluation pattern,
/// across ≥3 thread counts and ≥3 generated graphs, in both counting modes.
fn run_agreement_sweep(scale: usize, thread_counts: &[usize]) {
    for (gname, graph) in agreement_graphs(scale) {
        let hubs = HubGraph::build(
            &graph,
            HubOptions {
                max_hubs: 64,
                min_degree: 4,
            },
        );
        for (pname, pattern) in prefab::evaluation_patterns() {
            let plan = plan_for(pattern);
            let sequential = interp::count_embeddings(&plan, &graph);
            for &threads in thread_counts {
                for mode in [CountMode::Enumerate, CountMode::Iep] {
                    let options = ParallelOptions {
                        threads,
                        mode,
                        ..Default::default()
                    };
                    let expected = match mode {
                        CountMode::Enumerate => sequential,
                        CountMode::Iep => {
                            graphpi::core::exec::iep::count_embeddings_iep(&plan, &graph)
                        }
                    };
                    assert_eq!(
                        count_parallel(&plan, &graph, options),
                        expected,
                        "{pname} on {gname}: {threads} threads, {mode:?}, no hubs"
                    );
                    assert_eq!(
                        count_parallel(&plan, (&graph, &hubs), options),
                        expected,
                        "{pname} on {gname}: {threads} threads, {mode:?}, hubs"
                    );
                    // IEP totals equal plain enumeration for these plans.
                    assert_eq!(expected, sequential, "{pname} IEP vs enumeration");
                }
            }
        }
    }
}

#[test]
fn parallel_agrees_with_sequential_across_threads_graphs_and_hubs() {
    run_agreement_sweep(90, &[1, 2, 4]);
}

#[test]
#[ignore = "tier-2: exhaustive agreement sweep on larger graphs"]
fn parallel_agreement_sweep_heavy() {
    run_agreement_sweep(250, &[1, 2, 4, 8, 16]);
}

#[test]
fn batch_sizes_and_prefix_depths_do_not_change_counts() {
    let graph = generators::power_law(120, 5, 44);
    for pattern in [prefab::rectangle(), prefab::house()] {
        let plan = plan_for(pattern);
        let sequential = interp::count_embeddings(&plan, &graph);
        for batch_size in [1, 7, 64, 1024] {
            for prefix_depth in [None, Some(1), Some(2), Some(3)] {
                let got = count_parallel(
                    &plan,
                    &graph,
                    ParallelOptions {
                        threads: 4,
                        batch_size,
                        prefix_depth,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    got, sequential,
                    "batch {batch_size}, depth {prefix_depth:?}"
                );
            }
        }
    }
}

/// A count whose tasks panic unwinds to the caller: the one-job pool
/// re-raises the task panic, and dropping it joins workers that survived
/// it, so the call returns instead of hanging. The next count on the same
/// thread builds a fresh pool and is exact.
#[test]
fn a_panicking_count_unwinds_to_the_caller_and_the_next_count_is_exact() {
    let graph = generators::power_law(150, 5, 91);
    let good = plan_for(prefab::house());
    let expected = interp::count_embeddings(&good, &graph);
    // Corrupt a plan so task processing indexes out of bounds.
    let mut bad = plan_for(graphpi::pattern::Pattern::new(2, &[(0, 1)]));
    bad.loops[1].parents = vec![3];
    let options = ParallelOptions {
        threads: 2,
        batch_size: 1,
        ..Default::default()
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        count_parallel(&bad, &graph, options)
    }));
    assert!(result.is_err(), "corrupted plan must panic");
    assert_eq!(count_parallel(&good, &graph, options), expected);
}

/// The hoisted executor against the naive ground truth: every evaluation
/// pattern, as the engine plans it, counted by enumeration and by IEP across
/// threads × hub layout × kernel family — and cut into tasks at **every**
/// depth, IEP tasks shallower than `n − k` included, whose terms must add up
/// to the same total.
#[test]
fn hoisted_counts_match_naive_across_the_execution_matrix_and_task_depths() {
    use graphpi::baseline::naive;
    use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
    use graphpi::core::exec::iep;

    let graph = generators::power_law(36, 4, 77);
    let engine = GraphPi::new(graph.clone());
    // Low thresholds, so a graph this small has a hub core to probe.
    let hubs = HubGraph::build(
        &graph,
        HubOptions {
            max_hubs: 12,
            min_degree: 4,
        },
    );
    assert!(hubs.hub_count() > 0);
    for (name, pattern) in prefab::evaluation_patterns() {
        let expected = naive::count_embeddings(&pattern, &graph);
        let plan = engine.plan(&pattern, PlanOptions::default()).unwrap().plan;
        for threads in [1usize, 4] {
            for scalar_kernels in [true, false] {
                for use_iep in [false, true] {
                    let options = CountOptions {
                        use_iep,
                        threads,
                        scalar_kernels,
                        ..CountOptions::default()
                    };
                    assert_eq!(
                        engine.execute_count(&plan, options),
                        expected,
                        "{name}: {options:?}"
                    );
                    // Same kernel pin (it is process-global), hub layout.
                    assert_eq!(
                        count_parallel(&plan, (&graph, &hubs), options.parallel_options()),
                        expected,
                        "{name}: {options:?}, hubs"
                    );
                }
            }
        }

        let n = plan.num_loops();
        for depth in 1..=n {
            let prefixes = interp::enumerate_prefixes(&plan, &graph, depth);
            let sum: u64 = prefixes
                .iter()
                .map(|p| interp::count_from_prefix(&plan, &graph, p))
                .sum();
            assert_eq!(sum, expected, "{name}: enumeration tasks at depth {depth}");
            if depth <= n - plan.iep_suffix_len {
                let raw: u64 = prefixes
                    .iter()
                    .map(|p| iep::iep_term(&plan, &graph, p))
                    .sum();
                assert_eq!(
                    raw / plan.iep_correction.divisor(),
                    expected,
                    "{name}: IEP tasks at depth {depth}"
                );
            }
        }
        // The executors cut IEP jobs wherever they are asked to.
        for prefix_depth in 1..=n {
            let got = count_parallel(
                &plan,
                &graph,
                ParallelOptions {
                    threads: 3,
                    prefix_depth: Some(prefix_depth),
                    mode: CountMode::Iep,
                    ..Default::default()
                },
            );
            assert_eq!(got, expected, "{name}: IEP job at depth {prefix_depth}");
        }
    }
}

/// Strategy: a random simple graph with `4..max_vertices` vertices.
fn arb_graph(max_vertices: usize, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (
        4..max_vertices,
        proptest::collection::vec((0usize..max_vertices, 0usize..max_vertices), 0..max_edges),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::new().num_vertices(n);
            for (u, v) in edges {
                if u != v && u < n && v < n {
                    builder.push_edge(u as u32, v as u32);
                }
            }
            builder.build()
        })
}

/// Strategy: a random connected pattern with 3..=5 vertices built by
/// spanning-tree + extra edges.
fn arb_pattern() -> impl Strategy<Value = graphpi::pattern::Pattern> {
    (3usize..=5)
        .prop_flat_map(|n| {
            let extra = proptest::collection::vec((0usize..n, 0usize..n), 0..(n * 2));
            (Just(n), extra)
        })
        .prop_map(|(n, extra)| {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
            for (u, v) in extra {
                if u != v {
                    edges.push((u.min(v), u.max(v)));
                }
            }
            graphpi::pattern::Pattern::new(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_parallel_matches_sequential_on_random_graphs(
        graph in arb_graph(28, 90),
        pattern in arb_pattern(),
        threads in 1usize..=4,
        batch_size in 1usize..=64,
        hub_sel in 0usize..2,
    ) {
        let hub = hub_sel == 1;
        let plan = plan_for(pattern);
        let sequential = interp::count_embeddings(&plan, &graph);
        let options = ParallelOptions {
            threads,
            batch_size,
            ..Default::default()
        };
        let got = if hub {
            let hubs = HubGraph::build(&graph, HubOptions::default());
            count_parallel(&plan, (&graph, &hubs), options)
        } else {
            count_parallel(&plan, &graph, options)
        };
        prop_assert_eq!(got, sequential);
    }

    #[test]
    fn prop_parallel_iep_matches_sequential_iep(
        graph in arb_graph(24, 70),
        pattern in arb_pattern(),
        threads in 1usize..=4,
    ) {
        let plan = plan_for(pattern);
        let expected = graphpi::core::exec::iep::count_embeddings_iep(&plan, &graph);
        let got = count_parallel(
            &plan,
            &graph,
            ParallelOptions {
                threads,
                mode: CountMode::Iep,
                ..Default::default()
            },
        );
        prop_assert_eq!(got, expected);
    }
}
