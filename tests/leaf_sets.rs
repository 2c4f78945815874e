//! The last loop is a set: differential tests of the set-valued leaf.
//!
//! The interpreter never runs a plan's last loop — under every binding of
//! the loops above it, it hands the sink the bound prefix and the last
//! loop's candidate window in one `MatchSink::on_leaf` call, and each sink
//! consumes the set whole (a count adds its size, the enumerate job claims
//! its budget with one add, the orbit job batches the prefix vertices'
//! shares). [`Reference`] below reads the same leaves one member at a time,
//! the way the walk used to; every mode must agree with it and with
//! `graphpi_baseline::naive`, wherever a bound vertex sits in a window,
//! wherever a limit cuts a leaf and wherever a task is cut.

use graphpi::baseline::naive;
use graphpi::core::config::{Configuration, ExecutionPlan};
use graphpi::core::engine::{CountOptions, GraphPi, Mode, Outcome, PlanOptions, Session};
use graphpi::core::exec::interp::{self, match_embeddings_in, ExecCtx};
use graphpi::core::exec::parallel::{self, default_prefix_depth, ParallelOptions};
use graphpi::core::exec::sink::{EmbedSink, MatchSink};
use graphpi::core::schedule::efficient_schedules;
use graphpi::core::{PoolOptions, Schedule};
use graphpi::graph::builder::GraphBuilder;
use graphpi::graph::{generators, CsrGraph};
use graphpi::pattern::restriction::{generate_restriction_sets, GenerationOptions};
use graphpi::pattern::{automorphism_group, prefab, Pattern};
use proptest::prelude::*;

/// The per-member reading of the leaves of one sequential run: binds the
/// window's members one at a time, skipping the ones the prefix holds.
#[derive(Default)]
struct Reference {
    /// Every embedding in schedule order, in the order found.
    embeddings: Vec<Vec<u32>>,
    /// Embeddings under each task prefix, in task order.
    per_task: Vec<u64>,
    /// Embeddings in each leaf, in leaf order.
    per_leaf: Vec<u64>,
    /// How many window members were bound vertices, over all leaves.
    bound_in_window: u64,
}

impl MatchSink for Reference {
    fn on_leaf(&mut self, prefix: &[u32], window: &[u32]) {
        assert!(window.windows(2).all(|w| w[0] < w[1]), "{window:?}");
        let before = self.embeddings.len();
        for &v in window {
            if !prefix.contains(&v) {
                self.embeddings.push([prefix, &[v]].concat());
            }
        }
        let found = (self.embeddings.len() - before) as u64;
        self.bound_in_window += window.len() as u64 - found;
        self.per_leaf.push(found);
        *self.per_task.last_mut().expect("a leaf lies under a task") += found;
    }

    fn accept_prefix(&mut self, _prefix: &[u32]) -> bool {
        self.per_task.push(0);
        true
    }
}

fn reference(plan: &ExecutionPlan, graph: &CsrGraph, depth: usize) -> Reference {
    let mut sink = Reference::default();
    match_embeddings_in(plan, ExecCtx::from(graph), depth, &mut sink);
    sink
}

/// Schedule-order embeddings re-indexed by pattern vertex, as `Session`
/// returns them.
fn by_pattern_vertex(plan: &ExecutionPlan, bound: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let reindex = |bound: &Vec<u32>| {
        let mut embedding = vec![0; bound.len()];
        for (i, &v) in bound.iter().enumerate() {
            embedding[plan.loops[i].pattern_vertex] = v;
        }
        embedding
    };
    bound.iter().map(reindex).collect()
}

fn orbit_of(embeddings: &[Vec<u32>], num_vertices: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_vertices];
    for &v in embeddings.iter().flatten() {
        counts[v as usize] += 1;
    }
    counts
}

/// Sorted canonical representatives modulo the pattern's automorphisms:
/// what `naive` reports, whichever representative a plan emits.
fn canonical(pattern: &Pattern, embeddings: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let auts = automorphism_group(pattern);
    let mut tuples: Vec<Vec<u32>> = embeddings
        .iter()
        .map(|tuple| naive::canonical_embedding(&auts, tuple))
        .collect();
    tuples.sort_unstable();
    tuples
}

fn session(engine: &GraphPi, threads: usize) -> Session<'_> {
    engine.session_with(
        PoolOptions {
            threads,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions::default(),
    )
}

/// Plain enumeration: what a sink-mode plan is counted with.
fn enumeration() -> CountOptions {
    CountOptions {
        use_iep: false,
        ..CountOptions::default()
    }
}

fn count_of(outcome: Outcome) -> u64 {
    match outcome {
        Outcome::Count(count) => count,
        other => panic!("a count job returns a count, not {other:?}"),
    }
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        5usize..26,
        proptest::collection::vec((0usize..26, 0usize..26), 0..140),
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

fn prefab_patterns() -> Vec<Pattern> {
    vec![
        prefab::triangle(),
        prefab::rectangle(),
        prefab::house(),
        prefab::clique(4),
        prefab::path_pattern(4),
        prefab::star_pattern(4),
        prefab::cycle_pattern(5),
        prefab::p1(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graph × prefab pattern × restriction set × schedule: what each
    /// mode makes of the set-valued leaves is what the per-member reading
    /// of the same leaves gives — count, per-task counts (all the sample
    /// job adds to a count is which tasks it keeps), enumeration content
    /// and order, per-vertex counts.
    #[test]
    fn every_mode_agrees_with_the_per_member_reading(
        graph in arb_graph(),
        which in 0usize..8,
        pick in 0usize..1000,
        threads in 1usize..4,
    ) {
        let pattern = prefab_patterns().swap_remove(which);
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        let configuration = Configuration::new(
            pattern.clone(),
            schedules[pick % schedules.len()].clone(),
            sets[pick % sets.len()].clone(),
        );
        let plan = configuration.compile_with_iep(false);
        let n = plan.num_loops();
        let depth = default_prefix_depth(&plan);
        let expected = reference(&plan, &graph, depth);
        let total = expected.embeddings.len() as u64;
        prop_assert_eq!(total, naive::count_embeddings(&pattern, &graph));

        // Count: sequential, scoped, per task — and through the IEP-shaped
        // plan of the same configuration, enumerated.
        prop_assert_eq!(interp::count_embeddings(&plan, &graph), total);
        prop_assert_eq!(interp::count_embeddings(&configuration.compile(), &graph), total);
        let options = ParallelOptions { threads, ..ParallelOptions::default() };
        prop_assert_eq!(parallel::count_parallel(&plan, &graph, options), total);
        let tasks = interp::enumerate_prefixes(&plan, &graph, depth);
        let per_task: Vec<u64> = tasks
            .iter()
            .map(|task| interp::count_from_prefix(&plan, &graph, task))
            .collect();
        prop_assert_eq!(&per_task, &expected.per_task);

        // Enumerate: the sequential sink records the same embeddings in the
        // same order, and a limit keeps a prefix of that order.
        let mut all = EmbedSink::new(n, u64::MAX);
        match_embeddings_in(&plan, ExecCtx::from(&graph), depth, &mut all);
        let flat: Vec<u32> = expected.embeddings.concat();
        prop_assert_eq!(all.vertices(), &flat[..]);
        let limit = total / 2 + 1;
        let mut page = EmbedSink::new(n, limit);
        match_embeddings_in(&plan, ExecCtx::from(&graph), depth, &mut page);
        prop_assert_eq!(page.len(), limit.min(total));
        prop_assert_eq!(page.vertices(), &flat[..page.len() as usize * n]);

        // The pooled jobs.
        let num_vertices = graph.num_vertices();
        let engine = GraphPi::new(graph);
        let session = session(&engine, threads);
        let run = |mode| session.run_plan(&plan, mode, enumeration());
        prop_assert_eq!(count_of(run(Mode::Count)), total);
        let mut pooled = run(Mode::Enumerate { limit: u64::MAX }).into_embeddings();
        let mut listed = by_pattern_vertex(&plan, &expected.embeddings);
        pooled.sort_unstable();
        listed.sort_unstable();
        prop_assert_eq!(&pooled, &listed);
        prop_assert_eq!(
            run(Mode::Orbit).into_per_vertex(),
            orbit_of(&expected.embeddings, num_vertices)
        );
        let exact = run(Mode::Sample { rate: 1.0, seed: pick as u64 }).into_approx();
        prop_assert_eq!(exact.estimate, total as f64);
        prop_assert_eq!(exact.total_tasks, expected.per_task.len() as u64);
    }
}

/// A bound vertex that is *not* a parent of the last loop can sit inside its
/// window — a parent never can, the graph has no self-loops. The path
/// `0 – 1 – 2 – 3` scheduled `2, 1, 0, 3` draws its last vertex from
/// `N(v₂)` alone, where `v₁` always is and `v₀` is whenever it closes a
/// triangle: the leaf must take exactly those out, in every mode, with the
/// window a raw neighbourhood or a hub's, under every restriction set — and
/// with hubs on, every result must be the one hubs off gives, bit for bit.
#[test]
fn bound_vertices_inside_the_window_are_not_embeddings() {
    let pattern = prefab::path_pattern(4);
    let schedule = Schedule::new(&pattern, vec![2, 1, 0, 3]);
    // Three vertices adjacent to everything (hubs at the engine's default
    // degree threshold, so both window kinds occur) over a sparse rest.
    let graph = {
        let sparse = generators::erdos_renyi(50, 110, 0xB0);
        let mut builder = GraphBuilder::new().num_vertices(53);
        for u in sparse.vertices() {
            for &v in sparse.neighbors(u).iter().filter(|&&v| u < v) {
                builder.push_edge(u, v);
            }
        }
        for hub in 50..53 {
            for v in 0..hub {
                builder.push_edge(hub, v);
            }
        }
        builder.build()
    };
    let num_vertices = graph.num_vertices();
    let expected = naive::embeddings_sorted(&pattern, &graph);
    let expected_orbit = orbit_of(&expected, num_vertices);
    let total = expected.len() as u64;
    let engine = GraphPi::new(graph.clone());
    assert!(engine.hub_index().hub_count() > 0);
    let session = session(&engine, 2);

    let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
    assert!(!sets.is_empty());
    for set in sets {
        let plan = Configuration::new(pattern.clone(), schedule.clone(), set.clone())
            .compile_with_iep(false);
        assert_eq!(
            plan.loops[3].parents,
            [0],
            "the last loop reads N(v₂) alone"
        );

        // The case is real: the windows do hold bound vertices.
        let seen = reference(&plan, &graph, 2);
        assert!(seen.bound_in_window > 0, "{set:?}");
        assert_eq!(seen.embeddings.len() as u64, total, "{set:?}");
        assert_eq!(interp::count_embeddings(&plan, &graph), total, "{set:?}");

        for hub_bitsets in [false, true] {
            let label = format!("{set:?} hubs={hub_bitsets}");
            let options = CountOptions {
                hub_bitsets,
                ..enumeration()
            };
            let run = |mode| session.run_plan(&plan, mode, options);
            assert_eq!(count_of(run(Mode::Count)), total, "count {label}");
            let listed = run(Mode::Enumerate { limit: u64::MAX }).into_embeddings();
            assert_eq!(canonical(&pattern, &listed), expected, "enumerate {label}");
            assert_eq!(
                run(Mode::Orbit).into_per_vertex(),
                expected_orbit,
                "orbit {label}"
            );
            let approx = run(Mode::Sample { rate: 1.0, seed: 3 }).into_approx();
            assert_eq!(approx.estimate, total as f64, "sample {label}");
            assert_eq!(approx.stderr, 0.0, "sample {label}");
        }

        // Hub rows index the graph's own ids, so the hub kernels change no
        // result: hubs off ≡ hubs on ≡ the engine's default, bit for bit.
        let all = |mode| {
            let pinned = |hub_bitsets| CountOptions {
                hub_bitsets,
                ..enumeration()
            };
            [pinned(false), pinned(true), CountOptions::default()]
                .map(|options| session.run_plan(&plan, mode, options))
        };
        let [off, on, default] = all(Mode::Count);
        assert_eq!(on, off, "count {set:?}");
        assert_eq!(default, off, "default count {set:?}");
        let [off, on, default] = all(Mode::Orbit);
        assert_eq!(on, off, "orbit {set:?}");
        assert_eq!(default, off, "default orbit {set:?}");
        for seed in 0..4 {
            let [off, on, default] = all(Mode::Sample { rate: 0.5, seed }).map(approx_bits);
            assert_eq!(on, off, "sample seed {seed}, {set:?}");
            assert_eq!(default, off, "default sample seed {seed}, {set:?}");
        }
        // Sorted: the pool appends rows in completion order.
        let [off, on, default] = all(Mode::Enumerate { limit: u64::MAX }).map(|outcome| {
            let mut rows = outcome.into_embeddings();
            rows.sort_unstable();
            rows
        });
        assert_eq!(on, off, "enumerate {set:?}");
        assert_eq!(default, off, "default enumerate {set:?}");
    }
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

/// A limit that lands inside a leaf: the enumerate job claims a whole leaf
/// of its budget with one add and keeps the part of the claim below the
/// limit, so with any number of workers racing for it a page holds exactly
/// `limit` embeddings — all valid, no two the same occurrence — and under
/// one sequential worker it is the first `limit` of the unbounded order.
#[test]
fn a_limit_inside_a_leaf_fills_the_page_exactly() {
    let graph = generators::erdos_renyi(48, 520, 0x1EAF);
    let pattern = prefab::house();
    let plan = {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern.clone(), schedules[0].clone(), sets[0].clone())
            .compile_with_iep(false)
    };
    let n = plan.num_loops();
    let expected = reference(&plan, &graph, default_prefix_depth(&plan));
    let total = expected.embeddings.len() as u64;

    // Limits that cut the first leaf of three or more embeddings after its
    // first and before its last, and a handful of arbitrary ones.
    let wide = expected.per_leaf.iter().position(|&k| k >= 3).unwrap();
    let before: u64 = expected.per_leaf[..wide].iter().sum();
    let inside = [before + 1, before + expected.per_leaf[wide] - 1];
    let limits = inside.into_iter().chain([1, 7, 1_000, total - 1]);

    let engine = GraphPi::new(graph.clone());
    for limit in limits {
        assert!(limit < total);
        let mut page = EmbedSink::new(n, limit);
        match_embeddings_in(&plan, ExecCtx::from(&graph), 2, &mut page);
        let flat: Vec<u32> = expected.embeddings[..limit as usize].concat();
        assert_eq!(page.vertices(), flat, "sequential page at limit {limit}");

        for threads in [1, 2, 4] {
            let label = format!("limit {limit}, pool of {threads}");
            let page = session(&engine, threads)
                .run_plan(&plan, Mode::Enumerate { limit }, enumeration())
                .into_embeddings();
            assert_eq!(page.len() as u64, limit, "{label}");
            for embedding in &page {
                for (u, v) in pattern.edges() {
                    assert!(graph.has_edge(embedding[u], embedding[v]), "{label}");
                }
            }
            let mut distinct = canonical(&pattern, &page);
            distinct.dedup();
            assert_eq!(
                distinct.len() as u64,
                limit,
                "{label}: a repeated occurrence"
            );
        }
    }
}

/// Tasks cut one loop above the leaf (`n − 1`: the leaf is the whole task)
/// and at full depth (`n`: every task is a leaf of one member, folded on the
/// calling thread) give what the default depth gives, in every mode.
#[test]
fn leaf_deep_tasks_agree_with_the_default_depth() {
    let graph = generators::power_law(70, 4, 0xDEE9);
    let num_vertices = graph.num_vertices();
    let engine = GraphPi::new(graph.clone());
    let session = session(&engine, 2);
    for pattern in [prefab::triangle(), prefab::house(), prefab::path_pattern(4)] {
        let expected = naive::embeddings_sorted(&pattern, &graph);
        let expected_orbit = orbit_of(&expected, num_vertices);
        let total = expected.len() as u64;
        let n = pattern.num_vertices();
        let plan = session.mode_plan_cached(&pattern).unwrap();
        for prefix_depth in [None, Some(n - 1), Some(n)] {
            let label = format!("{n}-vertex pattern at depth {prefix_depth:?}");
            let options = CountOptions {
                prefix_depth,
                ..enumeration()
            };
            let run = |mode| session.run(&pattern, mode, options).unwrap();
            assert_eq!(count_of(run(Mode::Count)), total, "count {label}");
            let scoped = ParallelOptions {
                threads: 2,
                prefix_depth,
                ..ParallelOptions::default()
            };
            assert_eq!(
                parallel::count_parallel(&plan.plan, &graph, scoped),
                total,
                "scoped count {label}"
            );
            let listed = run(Mode::Enumerate { limit: u64::MAX }).into_embeddings();
            assert_eq!(canonical(&pattern, &listed), expected, "enumerate {label}");
            let page = run(Mode::Enumerate { limit: total / 3 }).into_embeddings();
            assert_eq!(page.len() as u64, total / 3, "page {label}");
            assert_eq!(
                run(Mode::Orbit).into_per_vertex(),
                expected_orbit,
                "orbit {label}"
            );
            let approx = run(Mode::Sample { rate: 1.0, seed: 9 }).into_approx();
            assert_eq!(approx.estimate, total as f64, "sample {label}");
            let tasks = prefix_depth.unwrap_or_else(|| default_prefix_depth(&plan.plan));
            let prefixes = interp::enumerate_prefixes(&plan.plan, &graph, tasks);
            assert_eq!(approx.total_tasks, prefixes.len() as u64, "tasks {label}");
        }
    }
}
